"""The benchmark's independent census check must accept the censuses exceis
computes and reject a census with a representative dropped or a non-minimal
word added.  Also keeps BENCHMARK.json in step with the metrics the benchmark
prints."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import census  # noqa: E402
import tracer  # noqa: E402
from exceis.config import load_config  # noqa: E402

RAW = yaml.safe_load((ROOT / "src" / "exceis" / "data" / "config.yaml").read_text())
SYSTEMS = census.load_systems(RAW)

TABLES = [(case, table["target"]) for case in sorted(RAW["cases"])
          for table in RAW["cases"][case].get("tables", [])]


def program_census(case_name: str, target: str):
    cfg = load_config()
    case = cfg.cases[case_name]
    system = cfg.system(case.system)
    words = system.double_coset_reps(system.parabolic(target), system.parabolic(case.source))
    return SYSTEMS[case.system], case.source, [list(w) for w in words]


@pytest.mark.parametrize("case_name,target", [("GE-field", "P0"), ("F4-heis", "P2"),
                                              ("GE-split", "P2"), ("D7-min", "P1")])
def test_accepts_program_census(case_name, target):
    refl, source, words = program_census(case_name, target)
    assert census.census_errors(refl, target, source, words) == []


def test_weyl_orders():
    assert SYSTEMS["G2"].order([1, 2]) == 12
    assert SYSTEMS["F4"].order([1, 2, 3, 4]) == 1152
    assert SYSTEMS["F4"].order([]) == 1


@pytest.mark.parametrize("case_name,target", TABLES)
def test_rejects_dropped_representative(case_name, target):
    refl, source, words = program_census(case_name, target)
    for k in range(len(words)):
        errors = census.census_errors(refl, target, source, words[:k] + words[k + 1:])
        assert any("Kilmoyer" in e for e in errors)


@pytest.mark.parametrize("case_name,target", [("GE-field", "P1"), ("F4-heis", "P1"),
                                              ("GE-QxF", "P2")])
def test_rejects_non_minimal_word(case_name, target):
    refl, source, words = program_census(case_name, target)
    levi_m = sorted(refl.levi(source))
    longest = max(words, key=len)
    # w s_a with a simple root of M sends alpha_a negative: not right-minimal
    extra = longest + [levi_m[0]]
    errors = census.census_errors(refl, target, source, words + [extra])
    assert any(f"word {extra}: not minimal on the right" in e for e in errors)
    assert any("Kilmoyer" in e for e in errors)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.PER_LAYER)
    named = {m for pair in tracer.SELF.values() for m in pair if m}
    assert named <= {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "pass_s", "query_p50_s", "query_tail_s", "peak_rss_mb", "checks"}
    assert [w["name"] for w in spec["workloads"]] == ["tables", "algebra", "cli-queries"]
