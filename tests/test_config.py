"""The config loader: one libyaml parse, PyYAML's own parser only where
PyYAML was built without libyaml, strict and required keys, and the arch
recipes parsed once at load, with every broken recipe rejected there."""

import copy

import pytest
import yaml

from exceis import config
from exceis.config import Config, ConfigError, default_config_path, load_config
from cli_invoke import invoke


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
    """The dotted path and the map of the first system, case, case oracle,
    table, row, and row eis, order, intertwiner and pairings entry in the
    config; of the first modulus check; of the arch section, its first
    recipe, that recipe's checks and the first unprinted claim; and of the
    algebras and claims sections."""
    found: dict[str, tuple[str, dict]] = {}
    name = next(iter(raw["systems"]))
    found["systems"] = (f"systems.{name}", raw["systems"][name])
    for name, case in raw["cases"].items():
        found.setdefault("case", (f"cases.{name}", case))
        if "oracle" in case:
            found.setdefault("oracle", (f"cases.{name}.oracle", case["oracle"]))
        for ti, table in enumerate(case.get("tables", [])):
            tpath = f"cases.{name}.tables[{ti}]"
            found.setdefault("table", (tpath, table))
            for ri, row in enumerate(table.get("rows", [])):
                rpath = f"{tpath}.rows[{ri}]"
                found.setdefault("row", (rpath, row))
                for key in ("order", "intertwiner"):
                    if key in row:
                        found.setdefault(key, (f"{rpath}.{key}", row[key]))
                for key in ("eis", "pairings"):
                    for i, item in enumerate(row.get(key, [])):
                        found.setdefault(key, (f"{rpath}.{key}[{i}]", item))
    found["modulus_checks"] = ("modulus_checks[0]", raw["modulus_checks"][0])
    found["arch-section"] = ("arch", raw["arch"])
    recipe = raw["arch"]["recipes"][0]
    found["recipes"] = ("arch.recipes[0]", recipe)
    found["checks"] = ("arch.recipes[0].checks", recipe["checks"])
    found["unprinted"] = ("arch.unprinted[0]", raw["arch"]["unprinted"][0])
    for key in ("algebras", "claims"):
        found[key] = (key, raw[key])
    return found


def _every_map(value, path: str):
    """The dotted path and the map of every map in a parsed config, the
    config itself first, at the path ''."""
    if isinstance(value, dict):
        yield path, value
        for key, item in value.items():
            yield from _every_map(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _every_map(item, f"{path}[{i}]")


LEVELS = ["case", "table", "row", "eis", "order", "intertwiner", "pairings", "recipes",
          "checks", "unprinted", "algebras", "claims", "systems", "oracle",
          "modulus_checks", "arch-section"]
# A planted key per level; eis.scale, a key the loader no longer reads; and
# the keys that moved or went away: a case's and a table's kind, a row's
# arch map (id arch), the case-level lambda_abs, and the oracle's rational
# system.
UNKNOWN = [pytest.param(level, "bogus", id=level) for level in LEVELS] + [
    pytest.param(level, key, id=f"{level}.{key}") for level, key in [
        ("eis", "scale"), ("case", "kind"), ("table", "kind"),
        ("case", "lambda_abs"), ("oracle", "rational")]] + [
    pytest.param("row", "arch", id="arch")]
# The keys each level requires; a level not named requires none.
REQUIRED = [(level, key) for level, keys in [
    ("case", ["s0", "source", "system"]), ("table", ["target"]), ("row", ["word"]),
    ("eis", ["status", "threshold"]), ("order", ["total"]), ("pairings", ["expect", "root"]),
    ("recipes", ["case", "checks", "name", "tokens", "word"]), ("checks", ["s0", "value"]),
    ("unprinted", ["case", "claim", "name", "word"]), ("algebras", ["definite", "split"]),
    ("claims", ["count", "primes", "qxf_disc", "seed"]), ("systems", ["simple_roots"]),
    ("oracle", ["absolute", "kernel", "nodes", "source_node"]),
    ("modulus_checks", ["expect", "parabolic", "system"])] for key in keys]


class TestStrictKeys:
    def test_packaged_config_reaches_every_level(self):
        assert sorted(_first_map_of_each_level(load_config().raw)) == sorted(LEVELS)

    @pytest.mark.parametrize("level,key", UNKNOWN)
    def test_unknown_key_names_its_path(self, level, key):
        raw = copy.deepcopy(load_config().raw)
        path, spec = _first_map_of_each_level(raw)[level]
        spec[key] = 1
        with pytest.raises(ConfigError) as err:
            Config(raw)
        assert str(err.value) == f"unknown config key {path}.{key}"

    def test_bogus_in_every_map_names_that_map(self):
        """A planted key fails the load in each of the config's 343 maps,
        with a message naming that map's own path: an unknown key in a map
        of config keys, a key that does not convert in a map of data keys
        (root lengths, labels, nodes, symbols), an entry not a map in a map
        of names."""
        raw = copy.deepcopy(load_config().raw)
        maps = list(_every_map(raw, ""))
        assert len(maps) == 343
        for path, spec in maps:
            spec["bogus"] = 1
            with pytest.raises(ConfigError) as err:
                Config(raw)
            del spec["bogus"]
            key, message = f"{path}.bogus" if path else "bogus", str(err.value)
            assert (message == f"unknown config key {key}"
                    or message.startswith((f"{key}: ", f"{path}: "))), (path, message)

    def test_unknown_top_level_key(self):
        assert _load_error(lambda raw: raw.update(bogus=1)) == "unknown config key bogus"
        # each oracle is a map inside its case now
        assert _load_error(lambda raw: raw.update(oracles={})) == "unknown config key oracles"

    def test_misspelled_row_key_fails_at_load(self, text, tmp_path):
        """The rename that once passed silently: E7-siegel's first
        lambda_prime (in row 1 of its first table) spelled lambda_prme."""
        head, tail = text.split("\n  E7-siegel:\n")
        planted = tmp_path / "config.yaml"
        tail = tail.replace("lambda_prime:", "lambda_prme:", 1)
        planted.write_text(head + "\n  E7-siegel:\n" + tail, encoding="utf-8")
        r = invoke("--config", str(planted), "--format", "json",
                   "constant-term", "E7", "P3", "P3")
        assert r.exit_code == 1
        assert r.output == ("Error: unknown config key "
                            "cases.E7-siegel.tables[0].rows[1].lambda_prme\n")
        assert isinstance(r.exception, SystemExit)


def _load_error(edit) -> str:
    """The ConfigError message of the packaged config after edit(raw)."""
    raw = copy.deepcopy(load_config().raw)
    edit(raw)
    with pytest.raises(ConfigError) as err:
        Config(raw)
    return str(err.value)


def _recipe(raw, name: str) -> dict:
    return next(r for r in raw["arch"]["recipes"] if r["name"] == name)


class TestRecipesAtLoad:
    """A broken arch recipe fails at load with its dotted path, never later
    (a traceback, a wrong vector, or an error in the arch report only)."""

    def test_packaged_recipes_parse_once(self):
        cfg = load_config()
        names = [r["name"] for r in cfg.raw["arch"]["recipes"]]
        assert list(cfg.catalog.recipes) == names
        v12432 = cfg.catalog.recipes["v12432"]
        assert v12432.case == "GE-split" and v12432.word == (1, 2, 4, 3, 2)
        assert v12432.text == "d(2s-5) A1i d(s-3) A1 d(s-2)^2 A1i d(s-1) A1 e3"
        assert v12432.s0 == 5
        assert v12432.value == ("0", "0", "0") and v12432.derivative == ("0", "0", "*")
        assert cfg.catalog.recipes["v212"].derivative is None

    @pytest.mark.parametrize("name,tokens,index,ref", [
        ("v21212", "A1i d(s-4) A1 d(s-3)^3 @v999", 1, "v999"),
        ("v212", "A1 d(s-3)^3 @v1212", 0, "v1212"),   # v212 -> v1212 -> v212
        ("v212", "A1 @v212", 0, "v212"),
    ], ids=["unknown", "cycle", "itself"])
    def test_suffix_names_a_recipe_above(self, name, tokens, index, ref):
        def edit(raw):
            _recipe(raw, name)["tokens"] = tokens
        assert _load_error(edit) == (f"arch.recipes[{index}].tokens: @{ref} names no "
                                     "recipe listed above")

    def test_duplicate_name(self):
        def edit(raw):
            _recipe(raw, "v12432")["name"] = "v212"
        assert _load_error(edit) == ("arch.recipes[5].name: v212 names an earlier "
                                     "recipe too")

    @pytest.mark.parametrize("level,case", [("recipes", "GE-feild"), ("unprinted", "GE-feild"),
                                            ("recipes", "G2-field")],
                             ids=["recipe", "unprinted", "alias"])
    def test_case_not_configured(self, level, case):
        def edit(raw):
            raw["arch"][level][0]["case"] = case
        word = load_config().raw["arch"][level][0]["word"]
        assert _load_error(edit) == f"arch.{level}[0]: no row of case {case} has the word {word}"

    @pytest.mark.parametrize("key,pattern", [
        ("derivative", ["0", "0", "O"]), ("derivative", ["0"]),
        ("derivative", ["0", "0", "*", "*"]), ("derivative", [0, 0, "*"]),
        ("derivative", "000"), ("value", ["0", "0"]),
    ], ids=["typo", "short", "long", "unquoted", "string", "short-value"])
    def test_pattern_is_three_entries(self, key, pattern):
        def edit(raw):
            _recipe(raw, "v12432")["checks"][key] = pattern
        assert _load_error(edit) == (f"arch.recipes[5].checks.{key}: {pattern!r} "
                                     'is not three entries, each "0" or "*"')

    def test_bad_tokens_and_s0(self):
        def tokens(raw):
            _recipe(raw, "v212")["tokens"] = "A1 d(s-1"
        def s0(raw):
            _recipe(raw, "v212")["checks"]["s0"] = "five"
        assert _load_error(tokens) == "arch.recipes[0].tokens: bad recipe token 'd(s-1'"
        assert _load_error(s0).startswith("arch.recipes[0].checks.s0: ")
        assert "'five'" in _load_error(s0)

    @pytest.mark.parametrize("c", ["-1", "-3"])
    def test_d_token_with_a_zero_denominator(self, c):
        """d(z) divides by ((1+z)/2)_2, which is zero for z = -1 and z = -3."""
        def edit(raw):
            _recipe(raw, "v12-d4")["tokens"] = f"d({c}) A1i d(s-1) A1 e3"
        assert _load_error(edit) == (f"arch.recipes[4].tokens: recipe token 'd({c})' "
                                     "has a zero denominator")

    @pytest.mark.parametrize("old,new,args", [
        ('"A1i d(s-4) A1 d(s-3)^3 @v212"', '"A1i d(s-4) A1 d(s-3)^3 @v999"', ["modulus"]),
        ('"A1i d(2s-5) A1 d(s-2)^3 A1i d(s-1) A1 e3"', '"A1 @v21212"', ["arch"]),
        ("\n\n# Cayley-Dickson",
         '\n    - {case: GE-field, word: [2, 1, 2], name: v212-again, claim: "value 0"}'
         "\n\n# Cayley-Dickson", ["constant-term", "GE-field", "P1", "P1"]),
        ("\n\n# Cayley-Dickson",
         '\n    - {case: GE-field, word: [1, 2, 1], name: v121, claim: "value 0"}'
         "\n\n# Cayley-Dickson", ["constant-term", "GE-field", "P1", "P1"]),
        ('"d(s-2) A1i d(s-1) A1 e3"', '"d(-1) A1i d(s-1) A1 e3"', ["arch"]),
    ], ids=["suffix", "cycle", "second-claim", "no-row", "zero-denominator"])
    def test_cli_exits_1_at_load(self, text, tmp_path, old, new, args):
        planted = tmp_path / "config.yaml"
        assert text.count(old) == 1
        planted.write_text(text.replace(old, new), encoding="utf-8")
        raw = yaml.load(planted.read_text(encoding="utf-8"), Loader=yaml.CSafeLoader)
        with pytest.raises(ConfigError) as err:
            Config(raw)
        r = invoke("--config", str(planted), "--format", "json", *args)
        assert r.exit_code == 1
        assert r.output == f"Error: {err.value}\n"
        assert isinstance(r.exception, SystemExit)


class TestOneClaimPerWord:
    """The arch section holds the one claim on a row word of a case, and the
    rows read it by (case, word): a second claim on a word, or a claim on a
    word that no row of its case has, fails the load."""

    @pytest.mark.parametrize("level,entry,message", [
        ("unprinted", {"case": "GE-field", "word": [2, 1, 2], "name": "v212-again",
                       "claim": "value 0"},
         "arch.unprinted[13]: GE-field [2, 1, 2] is claimed by arch.recipes[0] already"),
        ("recipes", {"case": "GE-split", "word": [1, 2], "name": "v12-d4-again",
                     "tokens": "e3", "checks": {"s0": "5", "value": ["*", "*", "*"]}},
         "arch.recipes[7]: GE-split [1, 2] is claimed by arch.recipes[4] already"),
        ("unprinted", {"case": "GE-field", "word": [1, 2, 1], "name": "v121",
                       "claim": "value 0"},
         "arch.unprinted[13]: no row of case GE-field has the word [1, 2, 1]"),
    ], ids=["second-claim", "second-recipe", "no-row"])
    def test_claim_names_its_path(self, level, entry, message):
        assert _load_error(lambda raw: raw["arch"][level].append(entry)) == message

    def test_claims_keyed_by_case_and_word(self):
        cfg = load_config()
        assert len(cfg.arch_claims) == len(cfg.catalog.recipes) + len(cfg.unprinted_arch) == 20
        assert cfg.arch_claims["GE-split", (1, 2)].name == "v12-d4"
        assert cfg.arch_claims["GE-field", (2, 1, 2, 1, 2)].min_vanishing_order == 2
        assert cfg.arch_claims["GE-QxF", (1, 2)].claim == "value vanishes at the special point"


class TestOracle:
    def test_planted_lambda_abs_fails_the_oracle(self, text, tmp_path):
        planted = tmp_path / "config.yaml"
        old = '["s-4", "-3", "-2", "-1", "0"]'
        assert text.count(old) == 1
        planted.write_text(text.replace(old, '["s-5", "-3", "-2", "-1", "0"]'), encoding="utf-8")
        r = invoke("--config", str(planted), "--format", "json", "oracle")
        assert r.exit_code == 1
        assert r.output == ("Error: cases.D5-line.oracle.lambda_abs: computed "
                            "(s-4, -3, -2, -1, 0) != configured "
                            "['s-5', '-3', '-2', '-1', '0']\n")

    @pytest.mark.parametrize("case,old,new,message", [
        ("E7-siegel", "nodes: {1: 1, 6: 2, 7: 3}", "nodes: {1: 2, 6: 2, 7: 3}",
         "restriction image is not a rational root"),
        ("D6-min", "nodes: {1: 1, 2: 2}", "nodes: {1: 2, 2: 2}",
         "restriction image is not a rational root"),
        ("D5-line", "kernel: [2, 3, 4, 5]\n      nodes: {1: 1}",
         "kernel: [1, 2, 3, 5]\n      nodes: {4: 1}",
         "fibre over [-1] has size 10, expected multiplicity 8"),
    ], ids=["E7-siegel", "D6-min", "D5-line-fibre"])
    def test_planted_nodes_fail_at_their_path(self, text, tmp_path, case, old, new, message):
        planted = tmp_path / "config.yaml"
        assert text.count(old) == 1
        planted.write_text(text.replace(old, new), encoding="utf-8")
        r = invoke("--config", str(planted), "--format", "json", "oracle")
        assert r.exit_code == 1
        assert r.output == f"Error: cases.{case}.oracle.nodes: {message}\n"

    def test_oracle_by_case_name_or_alias(self):
        cfg = load_config()
        assert cfg.oracle("D5").images == cfg.oracle("D5-line").images
        assert cfg.oracle("E7-siegel").rational is cfg.system("C3-E7rational")


class TestCheckedAtBuild:
    """rho_weighted, lambda_printed and the squared lengths that key a
    system's multiplicities, print_scale and cblocks are compared with values
    that need the built system, so a wrong one loads, and the first query
    that builds the system fails with exit status 1."""

    @pytest.mark.parametrize("old,new,args,message", [
        ('lambda_printed: ["s-17", "s-9", "s-1"]', 'lambda_printed: ["s-16", "s-9", "s-1"]',
         ["constant-term", "E7-siegel", "P3", "P3"],
         "cases.E7-siegel.lambda_printed: computed (s-17, s-9, s-1) != configured "
         "['s-16', 's-9', 's-1']"),
        ('lambda_printed: ["s-4"]', 'lambda_printed: ["s-5"]', ["oracle"],
         "cases.D5-line.lambda_printed: computed (s-4) != configured ['s-5']"),
        ('rho_weighted: ["17", "9", "1"]', 'rho_weighted: ["17", "9", "2"]',
         ["cosets", "C3", "P3", "P3"],
         "systems.C3-E7rational.rho_weighted: computed ['17', '9', '1'] != configured "
         "['17', '9', '2']"),
        ('multiplicities: {"2": 3, "6": 1}', 'multiplicities: {"2": 3, "6": 1, "3": 5}',
         ["cosets", "G2", "P1", "P1"],
         "systems.G2-GEfield.multiplicities: no root of squared length 3"),
        ('print_scale: {"2": "1/3", "6": "1"}', 'print_scale: {"2": "1/3", "6": "1", "5": "7"}',
         ["cosets", "G2", "P1", "P1"],
         "systems.G2-GEfield.print_scale: no root of squared length 5"),
        ('      "2": [["zetaE", "1/3", "0", 1], ["zetaE", "1/3", "1", -1]]\n',
         '      "2": [["zetaE", "1/3", "0", 1], ["zetaE", "1/3", "1", -1]]\n'
         '      "4": [["zeta", "1", "0", 1]]\n',
         ["constant-term", "GE-field", "P1", "P1"],
         "systems.G2-GEfield.cblocks: no root of squared length 4"),
    ], ids=["lambda_printed", "lambda_printed-oracle", "rho_weighted", "multiplicities",
            "print_scale", "cblocks"])
    def test_planted_value_fails_the_query(self, text, tmp_path, old, new, args, message):
        planted = tmp_path / "config.yaml"
        assert text.count(old) == 1
        planted.write_text(text.replace(old, new), encoding="utf-8")
        Config(yaml.load(planted.read_text(encoding="utf-8"), Loader=yaml.CSafeLoader))
        r = invoke("--config", str(planted), "--format", "json", *args)
        assert r.exit_code == 1
        assert r.output == f"Error: {message}\n"


class TestRequiredKeys:
    @pytest.mark.parametrize("level,key", REQUIRED, ids=[f"{l}.{k}" for l, k in REQUIRED])
    def test_missing_key_names_its_path(self, level, key):
        path, _ = _first_map_of_each_level(load_config().raw)[level]
        assert _load_error(lambda raw: _first_map_of_each_level(raw)[level][1].pop(key)) \
            == f"missing config key {path}.{key}"

    @pytest.mark.parametrize("key,first", [("algebras", "definite"), ("claims", "count")])
    def test_missing_section(self, key, first):
        """A section that is not there lacks its first required key."""
        assert _load_error(lambda raw: raw.pop(key)) == f"missing config key {key}.{first}"

    def test_optional_derivative(self):
        raw = copy.deepcopy(load_config().raw)
        del _recipe(raw, "v12432")["checks"]["derivative"]
        assert Config(raw).catalog.recipes["v12432"].derivative is None


def _first_row(raw) -> dict:
    return raw["cases"]["D5-line"]["tables"][0]["rows"][0]


def _row(raw, case: str, table: int, row: int) -> dict:
    return raw["cases"][case]["tables"][table]["rows"][row]


LEAVES = [
    (lambda raw: _row(raw, "D5-line", 0, 1).update(word=[0]),
     "cases.D5-line.tables[0].rows[1].word: expected an integer in 1..1"),
    (lambda raw: _row(raw, "GE-field", 1, 2).update(word=[2, -1, 2]),
     "cases.GE-field.tables[1].rows[2].word: expected an integer in 1..2"),
    (lambda raw: _row(raw, "GE-field", 1, 1)["pairings"][0].update(root=0),
     "cases.GE-field.tables[1].rows[1].pairings[0].root: expected an integer in 1..2"),
    (lambda raw: _row(raw, "GE-field", 1, 1)["eis"][0].update(root=3),
     "cases.GE-field.tables[1].rows[1].eis[0].root: expected an integer in 1..2"),
    (lambda raw: _row(raw, "D6-min", 1, 1).update(action={"r1": "r2", "r2": "r0"}),
     "cases.D6-min.tables[1].rows[1].action: expected an integer in 1..2"),
    (lambda raw: _row(raw, "D6-min", 1, 1).update(action={"r1": "r2", "r3": "r1"}),
     "cases.D6-min.tables[1].rows[1].action: expected an integer in 1..2"),
    (lambda raw: raw["systems"]["B2rel-D6"].pop("cblocks"),
     "cases.D6-min.system: B2rel-D6 is no system with cblocks"),
    (lambda raw: _recipe(raw, "v21212").update(min_vanishing_order="2"),
     "arch.recipes[1].min_vanishing_order: expected an integer"),
    (lambda raw: _row(raw, "E7-siegel", 0, 3)["order"].update(total="minus-one"),
     "cases.E7-siegel.tables[0].rows[3].order.total: expected an integer"),
    (lambda raw: raw["cases"]["D5-line"].update(s0="five"),
     "cases.D5-line.s0: Invalid literal for Fraction: 'five'"),
    (lambda raw: raw["cases"]["D5-line"].update(system=["D5rel"]),
     "cases.D5-line.system: unhashable type: 'list'"),
    (lambda raw: _row(raw, "E7-siegel", 0, 3).update(lambda_prime=[1, "s+q"]),
     "cases.E7-siegel.tables[0].rows[3].lambda_prime: cannot parse affine term '+q'"),
    (lambda raw: _row(raw, "E7-siegel", 0, 3)["trace"][0].__setitem__(1, "s--1"),
     "cases.E7-siegel.tables[0].rows[3].trace: cannot parse affine form 's--1'"),
    (lambda raw: _row(raw, "E7-siegel", 0, 1)["eis"][0].update(
        functional=["0", "1/3", "-1/3", "7"]),
     "cases.E7-siegel.tables[0].rows[1].eis[0].functional: expected 3 entries, got 4"),
    (lambda raw: _row(raw, "E7-siegel", 0, 1)["eis"][0].update(root=1),
     "cases.E7-siegel.tables[0].rows[1].eis[0]: has both a root and a functional"),
    (lambda raw: _row(raw, "GE-split", 1, 1)["pairings"][0].update(root=4),
     "cases.GE-split.tables[1].rows[1].pairings[1].root: root 4 is checked twice"),
    (lambda raw: _row(raw, "GE-split", 1, 1)["eis"][1].update(root=3),
     "cases.GE-split.tables[1].rows[1].eis[1].root: root 3 is checked twice"),
    (lambda raw: _row(raw, "D6-min", 0, 1)["order"]["symbols"].update(jv="0"),
     "cases.D6-min.tables[0].rows[1].order.symbols: 'jv' is not one lowercase letter"),
    (lambda raw: _row(raw, "GE-field", 1, 1).update(assoc=[3]),
     "cases.GE-field.tables[1].rows[1].assoc: expected an integer in 1..2"),
    (lambda raw: _row(raw, "F4-heis", 0, 2)["eis"][0].update(root=2),
     "cases.F4-heis.tables[0].rows[2].eis[0].root: root 2 is not in the row's assoc [1]"),
    (lambda raw: _row(raw, "F4-heis", 0, 2).pop("assoc"),
     "cases.F4-heis.tables[0].rows[2].eis[0].root: the row gives no assoc"),
    (lambda raw: _row(raw, "E7-siegel", 0, 3)["trace"][0].__setitem__(0, 4),
     "cases.E7-siegel.tables[0].rows[3].trace: expected an integer in 1..3"),
    (lambda raw: _row(raw, "D6-min", 1, 1)["action"].update(s1="r2"),
     "cases.D6-min.tables[1].rows[1].action: s1: r2 is not r<i>: r<j> or -r<j>"),
    (lambda raw: raw["systems"]["G2-GEfield"]["parabolics"].update(P3=[3]),
     "systems.G2-GEfield.parabolics: expected an integer in 1..2"),
    (lambda raw: raw["systems"]["G2-GEfield"].update(simple_roots=[["0", "1", "-1"], ["1", "-2"]]),
     "systems.G2-GEfield.simple_roots: expected 3 entries, got 2"),
    (lambda raw: raw["systems"]["A2-E6rational"]["cblocks"].update({"2": [["zeta", "1", "0"]]}),
     "systems.A2-E6rational.cblocks: not enough values to unpack"),
    (lambda raw: raw["cases"]["E7-siegel"]["oracle"].update(kernel=["a"]),
     "cases.E7-siegel.oracle.kernel: expected an integer in 1..7"),
    (lambda raw: raw["cases"]["D5-line"]["oracle"].update(kernel=[2, 3, 4, 5, 1]),
     "cases.D5-line.oracle: kernel [2, 3, 4, 5, 1] and nodes [1] do not partition the "
     "absolute nodes 1..5"),
    (lambda raw: raw["cases"]["D5-line"]["oracle"].update(nodes={1: 2}),
     "cases.D5-line.oracle.nodes: expected an integer in 1..1"),
    (lambda raw: raw["cases"]["D5-line"]["oracle"].update(absolute="D9abs"),
     "cases.D5-line.oracle.absolute: D9abs is no system"),
    (lambda raw: raw["modulus_checks"][0].update(expect="q"),
     "modulus_checks[0].expect: Invalid literal for Fraction: 'q'"),
    (lambda raw: raw["algebras"].update(split=["a", 1, 1]),
     "algebras.split: expected an integer"),
    (lambda raw: raw["claims"].update(count="x"), "claims.count: expected an integer"),
    (lambda raw: raw["claims"].update(count=2.9), "claims.count: expected an integer"),
    (lambda raw: _row(raw, "E7-siegel", 0, 1)["cfunction"].__setitem__(0, "zeta(s-1"),
     "cases.E7-siegel.tables[0].rows[1].cfunction: cannot parse factor 'zeta(s-1'"),
    (lambda raw: _row(raw, "GE-field", 1, 1)["eis"][0].update(printed="no"),
     "cases.GE-field.tables[1].rows[1].eis[0].printed: expected a boolean"),
    (lambda raw: raw["systems"]["G2-GEfield"].update(nu=["2", "-1", "-1", "0"]),
     "systems.G2-GEfield.nu: expected 3 entries, got 4"),
    (lambda raw: raw["systems"]["G2-GEfield"].update(nu=["1", "1", "1"]),
     "systems.G2-GEfield.nu: orthogonal to every simple root"),
    (lambda raw: raw["claims"].update(primes=[11, 15]),
     "claims.primes: 15 is not an odd prime"),
    (lambda raw: raw["claims"].update(primes=[2, 13]),
     "claims.primes: 2 is not an odd prime"),
    (lambda raw: raw["claims"].update(qxf_disc=4), "claims.qxf_disc: 4 is not a positive non-square"),
    (lambda raw: raw["claims"].update(qxf_disc=-2),
     "claims.qxf_disc: -2 is not a positive non-square"),
    (lambda raw: raw["claims"].update(count=0),
     "claims.count: expected an integer of at least 1, got 0"),
    (lambda raw: raw["algebras"].update(split=[-1, 0, 1]),
     "algebras.split: [-1, 0, 1] is not three entries of 1 or -1"),
    (lambda raw: raw["algebras"].update(definite=[-1, -1]),
     "algebras.definite: expected 3 entries, got 2"),
    (lambda raw: raw["cases"]["GE-field"]["tables"][0].update(target=5),
     "cases.GE-field.tables[0].target: 5 is no parabolic of G2-GEfield"),
    (lambda raw: raw["cases"]["GE-field"]["tables"][0].update(target="P9"),
     "cases.GE-field.tables[0].target: P9 is no parabolic of G2-GEfield"),
    (lambda raw: raw["cases"]["GE-field"].update(source=[1]),
     "cases.GE-field.source: [1] is no parabolic of G2-GEfield"),
    (lambda raw: raw["modulus_checks"][0].update(system="D5abz"),
     "modulus_checks[0].system: D5abz is no system"),
    (lambda raw: raw["modulus_checks"][0].update(parabolic="P7"),
     "modulus_checks[0].parabolic: P7 is no parabolic of D5abs"),
    (lambda raw: raw["modulus_checks"][0].update(parabolic="P0"),
     "modulus_checks[0].parabolic: P0 is not a maximal parabolic of D5abs"),
    (lambda raw: raw["systems"]["D5abs"].pop("nu"), "modulus_checks[0].system: D5abs has no nu"),
    (lambda raw: raw["cases"]["GE-field"].update(etale_variant="feld"),
     "cases.GE-field.etale_variant: feld is not one of field, split3, QxF, split"),
    (lambda raw: _recipe(raw, "v212").update(name=["v212"]),
     "arch.recipes[0].name: expected a string"),
    (lambda raw: _recipe(raw, "v212").update(tokens=[1, 2]),
     "arch.recipes[0].tokens: expected a string"),
]
LEAF_IDS = ["word-zero", "word-negative", "pairing-root", "eis-root", "action-r0",
            "action-r3", "no-cblocks", "min_vanishing_order", "order-total", "case-s0",
            "case-system", "row-affine", "affine-stray-sign", "eis-functional-length",
            "eis-root-and-functional", "pairing-root-twice", "eis-root-twice",
            "order-symbol", "assoc-index", "eis-root-not-in-assoc", "eis-root-no-assoc",
            "trace-letter", "action-key", "parabolic-index", "simple-roots-length",
            "cblocks-template", "oracle-kernel", "oracle-partition", "oracle-nodes",
            "oracle-absolute", "modulus-expect", "algebras-split", "claims-count",
            "claims-count-float", "cfunction-factor", "eis-printed", "nu-length",
            "nu-orthogonal", "claims-primes", "claims-primes-even", "claims-qxf-square",
            "claims-qxf-negative", "claims-count-zero", "algebras-split-zero",
            "algebras-definite-length", "target-type", "target-unknown", "source-type",
            "modulus-system", "modulus-parabolic", "modulus-not-maximal", "modulus-no-nu",
            "etale-variant", "recipe-name", "recipe-tokens"]


class TestShapeAtLoad:
    """An entry that is not a map, a list level that is not a list, and a
    misspelled section fail at load with their dotted path."""

    @pytest.mark.parametrize("edit,message", [
        (lambda raw: _recipe(raw, "v212").update(checks=["5"]),
         "arch.recipes[0].checks: expected a map"),
        (lambda raw: raw["arch"]["unprinted"].append("v9"), "arch.unprinted[13]: expected a map"),
        (lambda raw: _first_row(raw).update(order=3),
         "cases.D5-line.tables[0].rows[0].order: expected a map"),
        (lambda raw: _first_row(raw).update(eis={"threshold": "1", "status": "Converges"}),
         "cases.D5-line.tables[0].rows[0].eis: expected a list"),
        (lambda raw: raw.update(arch=["recipes"]), "arch: expected a map"),
    ], ids=["checks", "unprinted", "order", "eis", "arch"])
    def test_entry_shape(self, edit, message):
        assert _load_error(edit) == message

    def test_config_not_a_map(self):
        with pytest.raises(ConfigError) as err:
            Config(["version", 1])
        assert str(err.value) == "config: expected a map"

    @pytest.mark.parametrize("edit,args,message", [
        (lambda raw: raw["arch"].update(unprintd=raw["arch"].pop("unprinted")), ["arch"],
         "unknown config key arch.unprintd"),
        (lambda raw: raw.update(bogus=1), ["modulus"], "unknown config key bogus"),
        (lambda raw: _recipe(raw, "v212").update(checks=["5"]), ["modulus"],
         "arch.recipes[0].checks: expected a map"),
        (lambda raw: _recipe(raw, "v212").update(checks=["5"]), ["arch"],
         "arch.recipes[0].checks: expected a map"),
        (lambda raw: _first_row(raw).pop("word"), ["modulus"],
         "missing config key cases.D5-line.tables[0].rows[0].word"),
        (lambda raw: _first_row(raw).pop("word"), ["constant-term", "D5-line", "P1", "P1"],
         "missing config key cases.D5-line.tables[0].rows[0].word"),
        (lambda raw: raw["systems"]["G2-GEfield"].update(bogus=1), ["modulus"],
         "unknown config key systems.G2-GEfield.bogus"),
        (lambda raw: raw["modulus_checks"][0].update(bogus=1), ["oracle"],
         "unknown config key modulus_checks[0].bogus"),
        (LEAVES[0][0], ["constant-term", "D5-line", "P1", "P1"], LEAVES[0][1]),
        (LEAVES[7][0], ["constant-term", "GE-field", "P1", "P1"], LEAVES[7][1]),
        (LEAVES[8][0], ["constant-term", "E7-siegel", "P3", "P3"], LEAVES[8][1]),
        *[(LEAVES[LEAF_IDS.index(leaf)][0], args, LEAVES[LEAF_IDS.index(leaf)][1])
          for leaf, args in [
              ("eis-functional-length", ["constant-term", "E7-siegel", "P3", "P3"]),
              ("pairing-root-twice", ["constant-term", "GE-split", "P2", "P1"]),
              ("oracle-kernel", ["modulus"]), ("oracle-partition", ["modulus"]),
              ("modulus-expect", ["modulus"]), ("algebras-split", ["arch"]),
              ("claims-count", ["modulus"]), ("claims-count-float", ["modulus"]),
              ("cfunction-factor", ["modulus"]), ("eis-printed", ["arch"]),
              ("nu-length", ["modulus"]), ("nu-orthogonal", ["modulus"]),
              ("claims-primes", ["modulus"]), ("claims-qxf-square", ["modulus"]),
              ("claims-count-zero", ["modulus"]), ("algebras-split-zero", ["modulus"]),
              ("eis-root-not-in-assoc", ["constant-term", "F4-heis", "P1", "P4"]),
              ("target-type", ["constant-term", "GE-field", "P1", "P1"]),
              ("target-unknown", ["constant-term", "GE-field", "P1", "P1"]),
              ("source-type", ["constant-term", "GE-field", "P1", "P1"]),
              ("modulus-system", ["modulus"]), ("modulus-parabolic", ["modulus"]),
              ("modulus-not-maximal", ["arch"]), ("modulus-no-nu", ["arch"]),
              ("etale-variant", ["constant-term", "GE-field", "P1", "P1"]),
              ("recipe-name", ["arch"]), ("recipe-tokens", ["arch"])]],
    ], ids=["unprintd", "top-level", "checks-modulus", "checks-arch", "word-modulus",
            "word-constant-term", "systems-modulus", "modulus_checks-oracle",
            "word-zero", "min_vanishing_order", "order-total", "eis-functional-length",
            "pairing-root-twice", "oracle-kernel", "oracle-partition", "modulus-expect",
            "algebras-split", "claims-count", "claims-count-float", "cfunction-factor",
            "eis-printed", "nu-length", "nu-orthogonal", "claims-primes",
            "claims-qxf-square", "claims-count-zero", "algebras-split-zero",
            "eis-root-not-in-assoc", "target-type", "target-unknown", "source-type",
            "modulus-system", "modulus-parabolic", "modulus-not-maximal", "modulus-no-nu",
            "etale-variant", "recipe-name", "recipe-tokens"])
    def test_cli_exits_1_at_load(self, tmp_path, edit, args, message):
        raw = copy.deepcopy(load_config().raw)
        edit(raw)
        planted = tmp_path / "config.yaml"
        planted.write_text(yaml.safe_dump(raw), encoding="utf-8")
        r = invoke("--config", str(planted), "--format", "json", *args)
        assert r.exit_code == 1
        assert r.output == f"Error: {message}\n"
        assert isinstance(r.exception, SystemExit)


class TestLeavesAtLoad:
    """A 1-based index out of range, a case system without c-function
    rules, and a leaf of the wrong type fail at load with their dotted path.
    Python would read index 0 or -1 from the end of a list, and a leaf of
    the wrong type would raise a traceback."""

    @pytest.mark.parametrize("edit,message", LEAVES, ids=LEAF_IDS)
    def test_leaf_names_its_path(self, edit, message):
        assert _load_error(edit).startswith(message)

    def test_cfunction_factors_parsed_at_load(self):
        """Each printed c-function is a ZetaProduct in its case's etale
        variant once the config has loaded."""
        cfg = load_config()
        rows = [(case, row) for case in cfg.cases.values() for table in case.tables
                for row in table.rows]
        assert sum(row.cfunction is not None for _, row in rows) == 11
        assert sum(row.cfunction_arch is not None for _, row in rows) == 5
        for case, row in rows:
            for product in (row.cfunction, row.cfunction_arch):
                if product is not None and case.etale_variant:
                    assert {f.variant for f in product.factors
                            if f.kind in ("zetaE", "zetaF")} <= {case.etale_variant}
        assert str(cfg.case("E7").tables[0].rows[1].cfunction) == "zeta(s-1) / [zeta(s)]"

    def test_rules_fixed_per_case_at_load(self):
        cfg = load_config()
        for case in cfg.cases.values():
            assert case.rules
            assert {rule.variant for rule in case.rules.values()} == {case.etale_variant}
        assert cfg.case("GE-field").etale_variant == "field"
        assert cfg.case("D6-min").etale_variant == ""


@pytest.mark.parametrize("x, ok", [("a", True), ("j", True), ("z", True), ("A", False),
                                   ("ab", False), ("{", False), ("", False), ("`", False),
                                   (1, False)])
def test_symbol_letter(x, ok):
    """A shifted factor's symbol is one lowercase letter, "a" to "z"."""
    if ok:
        assert config._letter(x) == x
    else:
        with pytest.raises(ValueError, match="is not one lowercase letter"):
            config._letter(x)
