import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from exceis.config import default_config_path
from cli_invoke import invoke


class TestCosets:
    def test_g2_heisenberg(self):
        r = invoke("cosets", "G2", "M1", "M1")
        assert r.exit_code == 0
        assert "4 elements" in r.output
        assert "Verified" in r.output

    def test_f4_m3_m1_contains_printed_word(self):
        r = invoke("--format", "json", "cosets", "F4", "M3", "M1")
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["count"] == 5
        assert [3, 2, 3, 4, 1, 2, 3, 2, 1] in [row["word"] for row in doc["rows"]]

    def test_trivial(self):
        r = invoke("--format", "json", "cosets", "D4", "full", "full")
        doc = json.loads(r.output)
        assert doc["count"] == 1 and doc["words"] == [[]]

    def test_unknown_system_is_diagnostic(self):
        r = invoke("cosets", "Z9", "M1", "M1")
        assert r.exit_code != 0
        assert "Z9" in r.output


class TestConstantTerm:
    def test_ge_field(self):
        r = invoke("--format", "json", "constant-term",
                   "GE-field", "P1", "P1")
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["census_size"] == 4
        assert [row["classification"] for row in doc["rows"]] == \
            ["Contributes", "Contributes", "DoesNotContribute", "DoesNotContribute"]

    def test_e7(self):
        r = invoke("--format", "json", "constant-term",
                   "E7", "P3", "P3")
        doc = json.loads(r.output)
        assert doc["census_size"] == 4
        w0 = doc["rows"][-1]
        assert w0["intertwiner"]["order"] == -1

    def test_d5(self):
        r = invoke("--format", "json", "constant-term", "D5", "P", "P")
        doc = json.loads(r.output)
        assert doc["census_size"] == 2
        assert doc["rows"][1]["order_report"]["classification"] == "Regular"

    def test_wrong_source_rejected(self):
        r = invoke("constant-term", "E7", "P1", "P3")
        assert r.exit_code != 0

    def test_no_evaluation_point_option(self):
        # a table is evaluated at its case's s0 only
        r = invoke("constant-term", "D5", "P", "P", "--s0", "9")
        assert r.exit_code == 2
        assert "error: unrecognized arguments: --s0 9" in r.output


class TestArchAndAlgebra:
    def test_arch_case(self):
        r = invoke("--format", "json", "arch", "G2-field")
        doc = json.loads(r.output)
        assert doc["status"] == "Verified"
        assert {row["name"] for row in doc["rows"] if "ok" in row} == \
            {"v212", "v21212", "v1212", "v12-g2"}

    def test_arch_all_includes_unprinted(self):
        r = invoke("--format", "json", "arch")
        doc = json.loads(r.output)
        unverified = [row for row in doc["rows"]
                      if row.get("status", "").startswith("unverified")]
        assert unverified and doc["status"] == "Verified"

    def test_algebra_suite(self):
        r = invoke("--format", "json", "algebra", "trace-identity",
                   "--count", "25", "--seed", "7")
        doc = json.loads(r.output)
        assert doc["status"] == "Verified"
        assert doc["suites"][0]["failures"] == 0

    def test_unknown_suite(self):
        r = invoke("algebra", "nonsense")
        assert r.exit_code != 0


class TestDeterminismAndSchema:
    def test_json_round_trip(self):
        r = invoke("--format", "json", "cosets", "F4", "M2", "M1")
        doc = json.loads(r.output)
        from exceis.report import to_json
        doc.pop("report_version")
        assert to_json(doc) == r.output

    def test_all_byte_identical(self):
        args = ["--format", "json", "all", "--seed", "11", "--count", "5"]
        r1 = invoke(*args)
        r2 = invoke(*args)
        assert r1.exit_code == 0
        assert r1.output == r2.output

    def test_schema_validates(self):
        import importlib.resources
        import jsonschema
        schema = json.loads(
            (importlib.resources.files("exceis") / "data" /
             "report-schema.json").read_text())
        for args in (["cosets", "G2", "M2", "M1"],
                     ["constant-term", "E7", "P3", "P2"],
                     ["arch", "GE-split"],
                     ["modulus"],
                     ["oracle"],
                     ["algebra", "composition", "--count", "5"]):
            r = invoke("--format", "json", *args)
            assert r.exit_code == 0, r.output
            jsonschema.validate(json.loads(r.output), schema)
            row_schema = {"$ref": "#/definitions/row",
                          "definitions": schema["definitions"]}
            for row in json.loads(r.output).get("rows", []):
                if "classification" in row:
                    jsonschema.validate(row, row_schema)


class TestRejectedArguments:
    @pytest.mark.parametrize("args", [
        ("algebra", "triality", "--count", "0"),
        ("algebra", "sharp", "--count", "-3"),
        ("all", "--count", "0"),
    ])
    def test_count_below_one(self, args):
        r = invoke("--format", "json", *args)
        assert r.exit_code != 0
        assert "Error: algebra sample count must be at least 1" in r.output
        assert "Verified" not in r.output

    @pytest.mark.parametrize("args, message", [
        (("--config", "no-such-config.yaml", "modulus"),
         "error: argument --config: Path 'no-such-config.yaml' does not exist."),
        (("--format", "txt", "modulus"), "error: argument --format: invalid choice: 'txt'"),
        (("modulus", "extra"), "error: unrecognized arguments: extra"),
        (("algebra", "--count", "x"), "error: argument --count: invalid int value: 'x'"),
        ((), "error: the following arguments are required: COMMAND"),
    ])
    def test_usage_error_exits_2(self, args, message):
        r = invoke(*args)
        assert r.exit_code == 2 and r.stdout == ""
        assert message in r.stderr

    def test_algebra_report_rejects_count(self):
        from exceis import cases
        from exceis.config import load_config
        with pytest.raises(ValueError):
            cases.algebra_report(load_config(), "composition", count=0)

    def test_unknown_arch_case(self):
        r = invoke("arch", "NOPE")
        assert r.exit_code == 1
        assert "Error: unknown case 'NOPE'" in r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)

    @pytest.mark.parametrize("args, line", [
        (("cosets", "F4", "NOPE", "M1"),
         "Error: unknown parabolic 'NOPE' for system F4-GJrational"),
        (("constant-term", "E7", "P9", "P3"),
         "Error: unknown parabolic 'P9' for system C3-E7rational"),
    ])
    def test_unknown_parabolic_message_unquoted(self, args, line):
        r = invoke(*args)
        assert r.exit_code == 1
        assert r.output.splitlines() == [line]


class TestImportBoundary:
    """Table queries never load the algebra layer (compalg and the suites);
    an algebra query loads it on its first report.  Neither a table query
    nor the benchmark's set-up path loads click, dataclasses or inspect
    beyond what a bare interpreter has loaded: their import costs a query
    more than the query's own work.  Nor does either load pickle, which
    carries the results of the algebra suites' forked children."""

    HEAVY = ("click", "dataclasses", "inspect", "pickle")

    SCRIPT = """
import sys
bare = set(sys.modules)
import contextlib, io, json
from exceis.cli import main
heavy = None
loaded = []
for args in (["constant-term", "GE-field", "P1", "P1"], ["cosets", "F4", "M3", "M1"],
             ["modulus"], ["arch", "G2-field"], ["algebra", "composition", "--count", "1"]):
    if args[0] == "algebra":
        heavy = sorted(m for m in HEAVY if m in sys.modules and m not in bare)
    with contextlib.redirect_stdout(io.StringIO()):
        main(["--format", "json", *args])
    loaded.append(sorted(m for m in ("exceis.compalg", "exceis.suites") if m in sys.modules))
print(json.dumps({"loaded": loaded, "heavy": heavy, "pickle": "pickle" in sys.modules}))
"""

    # the set-up path of perfbench/child.py
    SETUP = """
import sys
bare = set(sys.modules)
import json
import exceis
from exceis import cases, report
from exceis.config import load_config
load_config()
print(json.dumps(sorted(m for m in HEAVY if m in sys.modules and m not in bare)))
"""

    def run(self, script: str):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = script.replace("HEAVY", repr(self.HEAVY))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, timeout=300)
        assert r.returncode == 0, r.stderr
        return json.loads(r.stdout)

    def test_compalg_loads_for_algebra_queries_only(self):
        got = self.run(self.SCRIPT)
        assert got["loaded"] == [[], [], [], [], ["exceis.compalg", "exceis.suites"]]
        assert got["heavy"] == []
        assert got["pickle"]   # the algebra query's children report through it

    def test_setup_path_loads_no_heavy_module(self):
        assert self.run(self.SETUP) == []


class TestPlantedReports:
    """A planted fault that a report can name gives that report, with the
    row at fault Mismatch and every other row as it was, and exit status 1."""

    @staticmethod
    def run_planted(tmp_path, old, new, *args):
        text = default_config_path().read_text(encoding="utf-8")
        assert text.count(old) == 1
        planted = tmp_path / "config.yaml"
        planted.write_text(text.replace(old, new), encoding="utf-8")
        return invoke("--config", str(planted), *args)

    @staticmethod
    def schema_valid(output: str) -> dict:
        import importlib.resources
        import jsonschema
        doc = json.loads(output)
        jsonschema.validate(doc, json.loads(
            (importlib.resources.files("exceis") / "data" / "report-schema.json").read_text()))
        return doc

    def test_pole_at_the_checked_point_is_a_mismatch(self, tmp_path):
        """d(s-1) has a pole at s = 0: v12-d4 checked there has no value."""
        tokens = 'tokens: "d(s-2) A1i d(s-1) A1 e3"\n      checks: {s0: '
        r = self.run_planted(tmp_path, tokens + '"5"', tokens + '"0"', "--format", "json", "arch")
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        doc = self.schema_valid(r.output)
        assert doc["status"] == "Mismatch"
        rows = {row["name"]: row for row in doc["rows"]}
        assert rows["v12-d4"]["status"] == "Mismatch"
        assert rows["v12-d4"]["ledger"] == [f"value[{i}] = pole of order 1" for i in range(3)]
        assert all(row["status"] != "Mismatch" for name, row in rows.items() if name != "v12-d4")

    def test_word_not_reduced_keeps_the_oracle_report(self, tmp_path):
        old = "- word: [3]\n            assoc: [2]"
        new = old.replace("[3]", "[3, 3, 3]")
        packaged = json.loads(invoke("--format", "json", "oracle").output)["rows"]
        r = self.run_planted(tmp_path, old, new, "--format", "json", "oracle")
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        rows = self.schema_valid(r.output)["rows"]
        assert [row for row in rows if not row["ok"]] == [
            {"case": "E7-siegel", "word": [3, 3, 3], "detail": "word [3, 3, 3] is not reduced",
             "ok": False}]
        assert [row for row in rows if row["ok"]] == [
            row for row in packaged if (row["case"], row["word"]) != ("E7-siegel", [3])]
        md = self.run_planted(tmp_path, old, new, "oracle")
        assert md.exit_code == 1
        assert "- E7-siegel [3,3,3]: word [3, 3, 3] is not reduced [MISMATCH]" in md.output
        whole = self.run_planted(tmp_path, old, new, "--format", "json", "all", "--count", "1")
        assert whole.exit_code == 1
        oracle = [s for s in json.loads(whole.output)["sections"] if s["kind"] == "gk-oracle"]
        assert oracle[0]["rows"] == rows

