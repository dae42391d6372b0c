"""Spans around the public functions of exceis, and the per-layer metrics
made from them.

The benchmark's child process calls :func:`install` after importing exceis.
It replaces each function listed in ``TARGETS`` by a wrapper that records a
span (name, start, end, parent) in memory, then calls the original.  The
spans are written to a file when the child ends, and the parent turns the
files of one traced run into per-layer metrics with :func:`layer_metrics`.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array

# (module, attribute, span name).  A span name that ends in ":" is completed
# per call by NAMERS, so one function can feed several metrics.
TARGETS = [
    ("yaml", "safe_load", "config.yaml_load"),
    ("exceis.config", "Config.__init__", "config.parse"),
    ("exceis.rootsys", "RootSystem.__init__", "rootsys.build"),
    ("exceis.rootsys", "RootSystem.coset_reps", "rootsys.coset_reps"),
    ("exceis.rootsys", "RootSystem.double_coset_reps", "rootsys.double_coset_reps"),
    ("exceis.rootsys", "RootSystem.in_left_set", "rootsys.in_left_set"),
    ("exceis.rootsys", "RootSystem.word_matrix", "rootsys.word_matrix"),
    ("exceis.rootsys", "RootSystem.associated_simple_roots", "rootsys.associated_simple_roots"),
    ("exceis.rootsys", "RootSystem.inversions", "rootsys.inversions"),
    ("exceis.eiscalc", "apply_word", "eiscalc.apply_word"),
    ("exceis.eiscalc", "shifted_exponent", "eiscalc.shifted_exponent"),
    ("exceis.eiscalc", "intertwiner_verdict", "eiscalc.intertwiner_verdict"),
    ("exceis.eiscalc", "rational_cfunction", "eiscalc.rational_cfunction"),
    ("exceis.eiscalc", "order_report", "eiscalc.order_report"),
    ("exceis.eiscalc", "AbsoluteOracle.gk_restricted", "eiscalc.gk_restricted"),
    ("exceis.eiscalc", "AbsoluteOracle.__init__", "eiscalc.oracle_build"),
    ("exceis.archmult", "RecipeCatalog.evaluate", "archmult.evaluate:"),
    ("exceis.archmult", "pattern_check", "archmult.pattern_check"),
    ("exceis.compalg", "triality_triple", "compalg.triality_triple"),
    ("exceis.compalg", "triality_verify", "compalg.triality_verify"),
    ("exceis.compalg", "JordanAlgebra.sharp", "compalg.sharp"),
    ("exceis.compalg", "JordanAlgebra.rank", "compalg.rank"),
    ("exceis.compalg", "CubicEtale.in_ve", "compalg.in_ve"),
    ("exceis.compalg", "we_projection", "compalg.we_projection"),
    ("exceis.cases", "build_table_report", "cases.table:"),
    ("exceis.cases", "cosets_report", "cases.cosets"),
    ("exceis.cases", "modulus_report", "cases.modulus"),
    ("exceis.cases", "oracle_report", "cases.oracle"),
    ("exceis.cases", "arch_report", "cases.arch"),
    ("exceis.cases", "algebra_report", "cases.algebra:"),
    ("exceis.report", "to_json", "report.to_json"),
]


def _algebra_suite(args, kwargs) -> str:
    return kwargs.get("suite", args[1] if len(args) > 1 else "all")


NAMERS = {
    "archmult.evaluate:": lambda args, kwargs: args[1].name,
    "cases.table:": lambda args, kwargs: args[1].name,
    "cases.algebra:": _algebra_suite,
}


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        namer = NAMERS.get(name)
        fixed = None if namer else self._id(name)
        stack, spans = self._stack, (self.name_id, self.parent, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if namer is None else self._id(name + namer(args, kwargs))
            idx = len(spans[0])
            spans[0].append(nid)
            spans[1].append(stack[-1] if stack else -1)
            spans[2].append(0.0)
            spans[3].append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[2][idx] = t0
                spans[3][idx] = t1
            if name == "report.to_json":
                self.counters["report.bytes"] = self.counters.get("report.bytes", 0) + len(result)
            return result

        return traced

    def dump(self, path, extra: dict) -> None:
        doc = {"names": self.names, "name_id": self.name_id.tolist(),
               "parent": self.parent.tolist(), "start": self.start.tolist(),
               "end": self.end.tolist(), "counters": self.counters, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer) -> None:
    """Wrap every target.  A module-level function is replaced wherever an
    exceis module holds it under some name, since ``from x import f`` copies
    the reference."""
    for modname, attr, name in TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            owner_name, meth = attr.split(".")
            owner = getattr(module, owner_name)
            setattr(owner, meth, tracer.wrap(getattr(owner, meth), name))
            continue
        fn = getattr(module, attr)
        wrapped = tracer.wrap(fn, name)
        setattr(module, attr, wrapped)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("exceis"):
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CASES = ["D5-line", "D6-min", "D7-min", "E6-line", "E7-siegel", "F4-heis",
         "GE-QxF", "GE-field", "GE-split"]
SUITES = ["composition", "sharp", "trace-identity", "positivity", "rank-one",
          "ve-claims", "rank-one-c1", "rank-one-orth-f", "freudenthal", "triality"]
QUERY_KINDS = ["constant-term", "cosets", "arch", "modulus", "oracle"]

# Self time (_s) and call count (_calls) of one span name, summed over a pass.
SELF = {
    "rootsys.build": ("rootsys.build_s", "rootsys.build_calls"),
    "rootsys.coset_reps": ("rootsys.coset_reps_s", "rootsys.coset_reps_calls"),
    "rootsys.double_coset_reps": ("rootsys.double_coset_reps_s",
                                  "rootsys.double_coset_reps_calls"),
    "rootsys.in_left_set": (None, "rootsys.in_left_set_calls"),
    "rootsys.word_matrix": ("rootsys.word_matrix_s", "rootsys.word_matrix_calls"),
    "rootsys.associated_simple_roots": ("rootsys.associated_simple_roots_s", None),
    "rootsys.inversions": ("rootsys.inversions_s", None),
    "eiscalc.apply_word": ("eiscalc.apply_word_s", None),
    "eiscalc.shifted_exponent": ("eiscalc.shifted_exponent_s", None),
    "eiscalc.intertwiner_verdict": ("eiscalc.intertwiner_verdict_s", None),
    "eiscalc.rational_cfunction": ("eiscalc.rational_cfunction_s", None),
    "eiscalc.order_report": ("eiscalc.order_report_s", None),
    "eiscalc.gk_restricted": ("eiscalc.gk_restricted_s", None),
    "eiscalc.oracle_build": ("eiscalc.oracle_build_s", None),
    "archmult.pattern_check": ("archmult.pattern_check_s", None),
    "compalg.triality_triple": ("compalg.triality_triple_s", None),
    "compalg.triality_verify": ("compalg.triality_verify_s", "compalg.triality_verify_calls"),
    "compalg.sharp": ("compalg.sharp_s", "compalg.sharp_calls"),
    "compalg.rank": ("compalg.rank_s", "compalg.rank_calls"),
    "compalg.in_ve": ("compalg.in_ve_s", None),
    "compalg.we_projection": ("compalg.we_projection_s", None),
    "report.to_json": ("report.to_json_s", None),
}


def _seconds(*names: str) -> list[tuple[str, str, str]]:
    return [(name, "s", "lower") for name in names]


def _counts(*names: str) -> list[tuple[str, str, str]]:
    return [(name, "count", "lower") for name in names]


# (metric, unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = (
    _seconds("cli.import_s", *(f"cli.query.{k}_s" for k in QUERY_KINDS),
             "config.yaml_load_s", "config.parse_s",
             "rootsys.build_s", "rootsys.coset_reps_s", "rootsys.double_coset_reps_s",
             "rootsys.word_matrix_s", "rootsys.associated_simple_roots_s",
             "rootsys.inversions_s")
    + _counts("rootsys.build_calls", "rootsys.coset_reps_calls",
              "rootsys.double_coset_reps_calls", "rootsys.in_left_set_calls",
              "rootsys.word_matrix_calls")
    + [("rootsys.census_per_table", "calls/table", "lower")]
    + _seconds("eiscalc.apply_word_s", "eiscalc.shifted_exponent_s",
               "eiscalc.intertwiner_verdict_s", "eiscalc.rational_cfunction_s",
               "eiscalc.order_report_s", "eiscalc.gk_restricted_s", "eiscalc.oracle_build_s",
               "archmult.evaluate_s", "archmult.pattern_check_s")
    + _counts("archmult.evaluate_calls")
    + [("archmult.evaluate_per_recipe", "calls/recipe", "lower")]
    + _seconds(*(f"compalg.suite.{s}_s" for s in SUITES),
               "compalg.triality_triple_s", "compalg.triality_verify_s", "compalg.sharp_s",
               "compalg.rank_s", "compalg.in_ve_s", "compalg.we_projection_s")
    + _counts("compalg.triality_verify_calls", "compalg.sharp_calls", "compalg.rank_calls")
    + _seconds(*(f"cases.table.{c}_s" for c in CASES),
               "cases.modulus_s", "cases.oracle_s", "cases.arch_s", "cases.algebra_s",
               "report.to_json_s")
    + [("report.bytes", "bytes", "lower")]
    + _seconds("trace.pass_s")
)


def _self_times(doc: dict) -> tuple[list[float], list[float]]:
    dur = [e - s for s, e in zip(doc["start"], doc["end"])]
    self_t = list(dur)
    for i, p in enumerate(doc["parent"]):
        if p >= 0:
            self_t[p] -= dur[i]
    return dur, self_t


def layer_metrics(docs: list[dict], query_walls: dict[str, list[float]],
                  pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, made of the span files of its
    processes.  Times and counts are sums over the pass, except ``config.*``
    and ``cli.import_s``, which are medians over the pass's processes, and
    ``cli.query.*``, which are medians over the invocations of each kind."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    self_sum: dict[str, float] = {}
    incl_sum: dict[str, float] = {}
    calls: dict[str, int] = {}
    per_process: dict[str, list[float]] = {"config.yaml_load": [], "config.parse": [],
                                           "cli.import": []}
    suite_alone: dict[str, float] = {}
    for doc in docs:
        dur, self_t = _self_times(doc)
        names = doc["names"]
        local = {"config.yaml_load": 0.0, "config.parse": 0.0}
        in_pass = doc.get("pass_spans", len(dur))
        for i, nid in enumerate(doc["name_id"]):
            name = names[nid]
            if i >= in_pass:
                if name.startswith("cases.algebra:"):
                    suite_alone[name] = suite_alone.get(name, 0.0) + dur[i]
                continue
            self_sum[name] = self_sum.get(name, 0.0) + self_t[i]
            incl_sum[name] = incl_sum.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
            if name in local:
                local[name] += self_t[i]
        for name, value in local.items():
            per_process[name].append(value)
        if "import_s" in doc:
            per_process["cli.import"].append(doc["import_s"])
        out["report.bytes"] += doc.get("pass_counters", doc["counters"]).get("report.bytes", 0)

    for span, (time_metric, calls_metric) in SELF.items():
        if time_metric:
            out[time_metric] = self_sum.get(span, 0.0)
        if calls_metric:
            out[calls_metric] = calls.get(span, 0)
    out["config.yaml_load_s"] = statistics.median(per_process["config.yaml_load"] or [0.0])
    out["config.parse_s"] = statistics.median(per_process["config.parse"] or [0.0])
    out["cli.import_s"] = statistics.median(per_process["cli.import"] or [0.0])
    for kind in QUERY_KINDS:
        walls = query_walls.get(kind)
        out[f"cli.query.{kind}_s"] = statistics.median(walls) if walls else 0.0

    tables = sum(n for name, n in calls.items()
                 if name.startswith("cases.table:") or name == "cases.cosets")
    if tables:
        out["rootsys.census_per_table"] = calls.get("rootsys.double_coset_reps", 0) / tables
    evaluations = {name: n for name, n in calls.items() if name.startswith("archmult.evaluate:")}
    out["archmult.evaluate_s"] = sum((self_sum[name] for name in evaluations), 0.0)
    out["archmult.evaluate_calls"] = sum(evaluations.values())
    if evaluations:
        out["archmult.evaluate_per_recipe"] = sum(evaluations.values()) / len(evaluations)

    for case in CASES:
        out[f"cases.table.{case}_s"] = incl_sum.get(f"cases.table:{case}", 0.0)
    for suite in SUITES:
        out[f"compalg.suite.{suite}_s"] = suite_alone.get(f"cases.algebra:{suite}", 0.0)
    for section in ("modulus", "oracle", "arch"):
        out[f"cases.{section}_s"] = incl_sum.get(f"cases.{section}", 0.0)
    out["cases.algebra_s"] = incl_sum.get("cases.algebra:all", 0.0)
    out["trace.pass_s"] = pass_s
    return out
