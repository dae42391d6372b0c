"""Benchmark of exceis as users run it: every pass in a fresh interpreter.

    python3 perfbench/run.py --workload tables|algebra|cli-queries \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced pass
with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import yaml

import census
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIG = SRC / "exceis" / "data" / "config.yaml"
SCHEMA = SRC / "exceis" / "data" / "report-schema.json"
OUT = BENCH / "out"

WORKLOADS = ("tables", "algebra", "cli-queries")
SETUP_PROBES = 4            # set-up-only interpreters before and after the passes
MIN_PASSES = {"tables": 2, "algebra": 1, "cli-queries": 1}
TAIL_BEYOND = 10            # invocations beyond the reported tail
TAIL_MIN_SAMPLES = 40       # fewer samples than this: no tail
# Cases per suite as a multiple of the count; triality adds one per prime.
SUITE_FACTORS = {"composition": 2, "sharp": 2, "trace-identity": 1, "positivity": 1,
                 "rank-one": 1, "ve-claims": 2, "rank-one-c1": 1, "rank-one-orth-f": 1,
                 "freudenthal": 1, "triality": 1}
MIB = 1024.0                # ru_maxrss is in KiB on Linux


@dataclass
class Proc:
    spawned: float          # perf_counter just before the spawn
    wall: float             # spawn to exit
    code: int
    stdout: bytes
    maxrss_mib: float
    meta: dict


class Spawner:
    """Runs children one at a time through ``spawner.py`` (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", str(BENCH / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, text=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def run(self, argv: list[str], meta_file: Path | None = None) -> Proc:
        if meta_file is not None and meta_file.exists():
            meta_file.unlink()
        self.proc.stdin.write(json.dumps({"argv": argv, "env": self.env,
                                          "stderr": str(OUT / "stderr.txt")}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        meta = {}
        if meta_file is not None and meta_file.exists():
            meta = json.loads(meta_file.read_text())
        return Proc(reply["spawned"], reply["wall"], reply["code"],
                    reply["stdout"].encode("latin-1"), reply["maxrss_kib"] / MIB, meta)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def child(mode: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), mode, "--meta", str(OUT / "meta.json"),
            *args]


def catalogue(raw: dict, seed: int) -> list[list[str]]:
    """The CLI queries of one pass, in the seed's order."""
    queries = []
    for name in sorted(raw["cases"]):
        case = raw["cases"][name]
        for table in case.get("tables", []):
            queries.append(["constant-term", name, case["source"], table["target"]])
            queries.append(["cosets", case["system"], table["target"], case["source"]])
    queries += [["arch", name] for name in sorted(raw["cases"])]
    queries += [["arch"], ["modulus"], ["oracle"]]
    random.Random(seed).shuffle(queries)
    return queries


def count_checks(doc: dict) -> int:
    """Comparisons a report records: row checks of a table, rows of the
    cosets, modulus, oracle and arch sections, cases of algebra suites."""
    if doc["kind"] == "algebra":
        return sum(s["cases"] for s in doc["suites"])
    if doc["kind"] in ("constant-term", "census"):
        return sum(len(r.get("checks", [])) for r in doc["rows"])
    return len(doc["rows"])


class Checker:
    """Checks of the program's reports against the schema, the theorems and
    the independent census checker; records every failure."""

    def __init__(self, raw: dict):
        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
        self.systems = census.load_systems(raw)
        claims = raw.get("claims", {})
        n = int(claims.get("count", 1000))
        primes = claims.get("primes", [11, 13])
        self.suite_cases = {name: f * n for name, f in SUITE_FACTORS.items()}
        self.suite_cases["triality"] = n * (1 + len(primes))
        self.errors: list[str] = []

    def fail(self, what: str, why: str) -> bool:
        self.errors.append(f"{what}: {why}")
        return False

    def report(self, what: str, text: str) -> dict | None:
        """Parse and validate one report; None when it fails."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            self.fail(what, f"not JSON ({exc})")
            return None
        problems = [e.message for e in self.validator.iter_errors(doc)]
        if problems:
            self.fail(what, "schema: " + problems[0])
            return None
        if doc["status"] == "Mismatch":
            self.fail(what, "status Mismatch")
            return None
        return doc

    def census(self, what: str, doc: dict) -> bool:
        """Independent check of the census a table or cosets report holds."""
        if doc["kind"] == "cosets":
            words, left, right = doc["words"], doc["left"], doc["right"]
        else:
            words = [r["canonical_word"] for r in doc["rows"] if r["canonical_word"] is not None]
            words += doc["census_unmatched"]
            left, right = doc["target"], doc["source"]
            if len(words) != doc["census_size"]:
                return self.fail(what, f"{len(words)} words for census of {doc['census_size']}")
        errors = census.census_errors(self.systems[doc["system"]], left, right, words)
        return not errors or self.fail(what, "; ".join(errors))

    def suites(self, what: str, doc: dict) -> dict[str, bool]:
        ok = {}
        for suite in doc["suites"]:
            name = suite["name"]
            tag = f"{what} suite {name}"
            if suite["failures"] != 0:
                ok[name] = self.fail(tag, f"{suite['failures']} failures")
            elif suite.get("dims_ok") is False:
                ok[name] = self.fail(tag, "dims_ok false")
            elif suite["cases"] != self.suite_cases.get(name):
                ok[name] = self.fail(tag, f"{suite['cases']} cases, "
                                          f"expected {self.suite_cases.get(name)}")
            else:
                ok[name] = True
        return ok


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _texts(proc: Proc, expected: int) -> list[str] | None:
    if proc.code != 0:
        return None
    try:
        texts = json.loads(proc.stdout)
    except ValueError:
        return None
    return texts if len(texts) == expected else None


def run_passes(workload, make_pass, seconds, traced) -> list:
    """One traced pass; untraced, the workload's minimum of passes, then
    more whole passes while one more, as long as the last, ends within
    `seconds`."""
    minimum = 1 if traced else MIN_PASSES[workload]
    passes = []
    start = time.perf_counter()
    last = 0.0
    while len(passes) < minimum or (
            not traced and time.perf_counter() - start + last <= seconds):
        t0 = time.perf_counter()
        passes.append(make_pass())
        last = time.perf_counter() - t0
    return passes


def _pass_child(spawn, mode: str, traced: bool, *args: str):
    trace = ["--trace", str(OUT / "trace-0.json")] if traced else []
    return lambda: spawn(child(mode, *args, *trace), OUT / "meta.json")


def run_tables(raw, checker, spawn, seconds, traced):
    names = [f"{c}/{t['target']}" for c in sorted(raw["cases"])
             for t in raw["cases"][c].get("tables", [])] + ["modulus", "oracle", "arch"]
    tally, first = Tally(), None
    procs = run_passes("tables", _pass_child(spawn, "tables", traced), seconds, traced)
    for i, proc in enumerate(procs):
        texts = _texts(proc, len(names))
        if texts is None:
            checker.fail(f"tables pass {i}", f"exit {proc.code} or wrong output")
            for _ in names:
                tally.add(False)
            continue
        docs = [checker.report(f"pass {i} {n}", t) for n, t in zip(names, texts)]
        if first is None:
            first = (texts, docs)
            census_ok = [d is None or d["kind"] not in ("constant-term", "census")
                         or checker.census(f"census {n}", d) for n, d in zip(names, docs)]
        for j, doc in enumerate(docs):
            same = texts[j] == first[0][j] or checker.fail(f"pass {i} {names[j]}",
                                                           "bytes differ from pass 0")
            tally.add(doc is not None and census_ok[j] and same)
    checks = sum(count_checks(d) for d in first[1] if d) if first else 0
    return tally, procs, checks


def run_algebra(raw, checker, spawn, seconds, traced, seed):
    tally, first = Tally(), None
    procs = run_passes("algebra", _pass_child(spawn, "algebra", traced, "--seed", str(seed)),
                       seconds, traced)
    for i, proc in enumerate(procs):
        texts = _texts(proc, 1 + len(SUITE_FACTORS) if traced else 1)
        doc = texts and checker.report(f"algebra pass {i}", texts[0])
        if not doc:
            checker.fail(f"algebra pass {i}", f"exit {proc.code} or invalid report")
            for _ in SUITE_FACTORS:
                tally.add(False)
            continue
        ok = checker.suites(f"pass {i}", doc)
        entries = {s["name"]: _canon(s) for s in doc["suites"]}
        if first is None:
            first = (texts[0], entries, doc)
        if texts[0] != first[0]:
            checker.fail(f"algebra pass {i}", "bytes differ from pass 0")
        for text in texts[1:]:
            alone = json.loads(text)
            name = alone["suite"]
            if [_canon(s) for s in alone["suites"]] != [entries.get(name)]:
                ok[name] = checker.fail(f"suite {name}", "differs when run alone")
        for name in SUITE_FACTORS:
            tally.add(ok.get(name, False) and texts[0] == first[0]
                      and entries.get(name) == first[1].get(name))
    checks = count_checks(first[2]) if first else 0
    return tally, procs, checks


def run_queries(raw, checker, spawn, seconds, traced, seed):
    queries = catalogue(raw, seed)
    tally = Tally()

    def query(k: int, q: list[str]) -> Proc:
        if traced:
            return spawn(child("cli", "--trace", str(OUT / f"trace-{k}.json"), "--",
                               "--format", "json", *q))
        return spawn([sys.executable, "-m", "exceis.cli", "--format", "json", *q])

    passes = run_passes("cli-queries", lambda: [query(k, q) for k, q in enumerate(queries)],
                        seconds, traced)
    reference = None
    if not traced:
        (OUT / "queries.json").write_text(json.dumps(queries))
        reference = _texts(spawn(child("reference", "--", str(OUT / "queries.json"))),
                           len(queries))
        if reference is None:
            checker.fail("reference", "in-process reports failed")
    checks = 0
    census_ok: dict[int, bool] = {}
    for i, procs in enumerate(passes):
        for k, (q, proc) in enumerate(zip(queries, procs)):
            what = f"pass {i} query {' '.join(q)}"
            text = proc.stdout.decode()
            if proc.code == 0:
                doc = checker.report(what, text)
            else:
                doc = checker.fail(what, f"exit {proc.code}")
            if doc and q[0] == "cosets" and k not in census_ok:
                census_ok[k] = checker.census(what, doc)
            same = traced or (reference is not None and text == reference[k]) \
                or checker.fail(what, "bytes differ from the in-process report")
            tally.add(bool(doc) and census_ok.get(k, True) and same)
            if i == 0 and doc:
                checks += count_checks(doc)
    return tally, passes, checks, queries


def probe_setup(checker: Checker, spawn, n: int) -> list[float]:
    """Set-up times of n fresh interpreters: spawn until load_config returns."""
    out = []
    for _ in range(n):
        proc = spawn(child("setup"), OUT / "meta.json")
        if proc.code != 0 or "setup_done" not in proc.meta:
            checker.fail("setup", f"exit {proc.code}")
            continue
        out.append(proc.meta["setup_done"] - proc.spawned)
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> float:
    """Highest value with TAIL_BEYOND values above it; the median when there
    are fewer than TAIL_MIN_SAMPLES values."""
    if len(values) < TAIL_MIN_SAMPLES:
        return _median(values)
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def measure(args, raw: dict, checker: Checker, spawn) -> tuple[dict, Tally]:
    """Run the workload's passes, check their outputs and make its metrics."""
    traced = bool(args.trace)
    setups = probe_setup(checker, spawn, 0 if traced else SETUP_PROBES)
    if args.workload == "cli-queries":
        tally, passes, checks, queries = run_queries(raw, checker, spawn, args.seconds,
                                                     traced, args.seed)
        walls = [p.wall for procs in passes for p in procs]
        pass_walls = [sum(p.wall for p in procs) for procs in passes]
        peaks = [max(p.maxrss_mib for p in procs) for procs in passes]
        trace_files = [OUT / f"trace-{k}.json" for k in range(len(queries))]
        by_kind: dict[str, list[float]] = {}
        for q, p in zip(queries, passes[0]):
            by_kind.setdefault(q[0], []).append(p.wall)
    else:
        if args.workload == "tables":
            tally, procs, checks = run_tables(raw, checker, spawn, args.seconds, traced)
        else:
            tally, procs, checks = run_algebra(raw, checker, spawn, args.seconds, traced,
                                               args.seed)
        ok_procs = [p for p in procs if p.code == 0 and "pass_s" in p.meta]
        setups += [p.meta["setup_done"] - p.spawned for p in ok_procs]
        walls = [p.wall for p in procs]
        pass_walls = [p.meta["pass_s"] for p in ok_procs]
        peaks = [p.maxrss_mib for p in procs]
        trace_files = [OUT / "trace-0.json"]
        by_kind = {}
    setups += probe_setup(checker, spawn, 0 if traced else SETUP_PROBES)

    if traced:
        docs = [json.loads(f.read_text()) for f in trace_files if f.exists()]
        values = tracer.layer_metrics(docs, by_kind, _median(pass_walls))
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in tracer.PER_LAYER}, tally
    return {
        "setup_s": {"value": _median(setups), "unit": "s"},
        "pass_s": {"value": _median(pass_walls), "unit": "s"},
        "query_p50_s": {"value": _median(walls), "unit": "s"},
        "query_tail_s": {"value": tail(walls), "unit": "s"},
        "peak_rss_mb": {"value": _median(peaks), "unit": "MiB"},
        "checks": {"value": checks, "unit": "count"},
    }, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "exceis" / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"exceis sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob("trace-*.json"):
        stale.unlink()
    (OUT / "stderr.txt").write_bytes(b"")
    raw = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    checker = Checker(raw)
    spawner = Spawner()
    try:
        metrics, tally = measure(args, raw, checker, spawner.run)
    finally:
        spawner.close()

    for line in checker.errors[:20]:
        print("check failed:", line, file=sys.stderr)
    correct = tally.failed == 0 and not checker.errors
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
