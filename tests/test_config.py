"""The config loader: one libyaml parse, PyYAML's own parser only where
PyYAML was built without libyaml, and strict keys at every level of a case."""

import copy

import pytest
import yaml
from click.testing import CliRunner

from exceis import config
from exceis.cli import main
from exceis.config import Config, ConfigError, default_config_path, load_config


@pytest.fixture(scope="module")
def text():
    return default_config_path().read_text(encoding="utf-8")


def _spy_loaders(monkeypatch) -> list:
    """Record the Loader of every yaml.load call."""
    used, real = [], yaml.load
    monkeypatch.setattr(yaml, "load",
                        lambda stream, Loader: used.append(Loader) or real(stream, Loader=Loader))
    return used


class TestLoader:
    def test_libyaml_and_python_parsers_agree(self, text):
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        slow = yaml.load(text, Loader=yaml.SafeLoader)
        assert fast == slow
        assert repr(fast) == repr(slow)

    def test_parses_with_libyaml(self, monkeypatch):
        used = _spy_loaders(monkeypatch)
        monkeypatch.setattr(config, "_cache", {})
        load_config()
        assert used == [yaml.CSafeLoader]

    def test_falls_back_without_libyaml(self, monkeypatch):
        fast = load_config().raw
        monkeypatch.delattr(yaml, "CSafeLoader")
        used = _spy_loaders(monkeypatch)
        monkeypatch.setattr(config, "_cache", {})
        slow = load_config()
        assert used == [yaml.SafeLoader]
        assert slow.raw == fast
        assert repr(slow.raw) == repr(fast)


def _first_map_of_each_level(raw) -> dict[str, tuple[str, dict]]:
    """The dotted path and the map of the first case, table, row, and row
    eis, arch, order, intertwiner and pairings entry in the config."""
    found: dict[str, tuple[str, dict]] = {}
    for name, case in raw["cases"].items():
        found.setdefault("case", (f"cases.{name}", case))
        for ti, table in enumerate(case.get("tables", [])):
            tpath = f"cases.{name}.tables[{ti}]"
            found.setdefault("table", (tpath, table))
            for ri, row in enumerate(table.get("rows", [])):
                rpath = f"{tpath}.rows[{ri}]"
                found.setdefault("row", (rpath, row))
                for key in ("arch", "order", "intertwiner"):
                    if key in row:
                        found.setdefault(key, (f"{rpath}.{key}", row[key]))
                for key in ("eis", "pairings"):
                    for i, item in enumerate(row.get(key, [])):
                        found.setdefault(key, (f"{rpath}.{key}[{i}]", item))
    return found


LEVELS = ["case", "table", "row", "eis", "arch", "order", "intertwiner", "pairings"]


class TestStrictKeys:
    def test_packaged_config_reaches_every_level(self):
        assert sorted(_first_map_of_each_level(load_config().raw)) == sorted(LEVELS)

    @pytest.mark.parametrize("level", LEVELS)
    def test_unknown_key_names_its_path(self, level):
        raw = copy.deepcopy(load_config().raw)
        path, spec = _first_map_of_each_level(raw)[level]
        spec["bogus"] = 1
        with pytest.raises(ConfigError) as err:
            Config(raw, "planted")
        assert str(err.value) == f"unknown config key {path}.bogus"

    def test_misspelled_row_key_fails_at_load(self, text, tmp_path):
        """The rename that once passed silently: E7-siegel's first
        lambda_prime (in row 1 of its first table) spelled lambda_prme."""
        head, tail = text.split("\n  E7-siegel:\n")
        planted = tmp_path / "config.yaml"
        tail = tail.replace("lambda_prime:", "lambda_prme:", 1)
        planted.write_text(head + "\n  E7-siegel:\n" + tail, encoding="utf-8")
        r = CliRunner().invoke(main, ["--config", str(planted), "--format", "json",
                                      "constant-term", "E7", "P3", "P3"])
        assert r.exit_code == 1
        assert r.output == ("Error: unknown config key "
                            "cases.E7-siegel.tables[0].rows[1].lambda_prme\n")
        assert isinstance(r.exception, SystemExit)
