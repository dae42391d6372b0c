"""One fresh interpreter of the benchmark: set-up, then at most one pass.

    python child.py MODE --meta FILE [--seed N] [--trace FILE] [-- CLI ARGS]

MODE is one of

* ``setup``     -- import exceis and load the packaged config, nothing else;
* ``tables``    -- set-up, then every configured table in ``run_all`` order
                   and the modulus, oracle and arch sections;
* ``algebra``   -- set-up, then ``algebra_report(cfg, "all", seed=N)`` at the
                   configured count; traced, also each suite on its own;
* ``reference`` -- set-up, then the report of each CLI query listed in the
                   JSON file given after ``--``, computed in this process;
* ``cli``       -- the exceis command line with the arguments after ``--``
                   (used by the traced run, which needs spans in the query's
                   own process).

Reports go to stdout: a JSON list of ``report.to_json`` texts, or for ``cli``
the command's own output.  Timestamps go to the --meta file; they come from
``time.perf_counter``, which on Linux is CLOCK_MONOTONIC and so comparable
with the parent's clock.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _reference(cfg, cases, report, queries: list[list[str]]) -> list[str]:
    """The reports the CLI prints for ``queries``, computed in-process."""
    out = []
    for q in queries:
        kind, args = q[0], q[1:]
        if kind == "constant-term":
            doc = cases.constant_term_report(cfg, *args)
        elif kind == "cosets":
            doc = cases.cosets_report(cfg, *args)
        elif kind == "arch":
            doc = cases.arch_report(cfg, *args)
        elif kind == "modulus":
            doc = cases.modulus_report(cfg)
        elif kind == "oracle":
            doc = cases.oracle_report(cfg)
        else:
            raise ValueError(f"unknown query kind {kind!r}")
        out.append(report.to_json(doc))
    return out


def main(argv: list[str]) -> int:
    rest: list[str] = []
    if "--" in argv:
        rest = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    mode = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    meta: dict = {}
    sys.path.insert(0, str(SRC))

    if mode == "cli":
        t0 = time.perf_counter()
        import exceis.cli
        meta["import_s"] = time.perf_counter() - t0
        import tracer
        tr = tracer.Tracer()
        tracer.install(tr)
        try:
            exceis.cli.main(rest, prog_name="exceis")
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
        else:
            code = 0
        sys.stdout.flush()
        tr.dump(opts["--trace"], meta)
        return code

    import exceis  # noqa: F401  (the package's own import work is set-up)
    from exceis import cases, report
    from exceis.config import load_config

    tr = None
    if "--trace" in opts:
        import tracer
        tr = tracer.Tracer()
        tracer.install(tr)
    cfg = load_config()
    meta["setup_done"] = time.perf_counter()

    texts: list[str] = []
    t0 = time.perf_counter()
    if mode == "tables":
        for case_name in sorted(cfg.cases):
            case = cfg.cases[case_name]
            for table in case.tables:
                texts.append(report.to_json(cases.build_table_report(cfg, case, table)))
        texts.append(report.to_json(cases.modulus_report(cfg)))
        texts.append(report.to_json(cases.oracle_report(cfg)))
        texts.append(report.to_json(cases.arch_report(cfg)))
    elif mode == "algebra":
        seed = int(opts["--seed"])
        texts.append(report.to_json(cases.algebra_report(cfg, "all", seed=seed,
                                                         count=cfg.claims.count)))
    elif mode == "reference":
        texts = _reference(cfg, cases, report, json.loads(Path(rest[0]).read_text()))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    meta["pass_s"] = time.perf_counter() - t0

    if mode == "algebra" and tr is not None:
        # spans past this mark time each suite alone (compalg.suite.*)
        meta["pass_spans"] = len(tr.name_id)
        meta["pass_counters"] = dict(tr.counters)
        for suite in json.loads(texts[0])["suites"]:
            texts.append(report.to_json(cases.algebra_report(
                cfg, suite["name"], seed=seed, count=cfg.claims.count)))

    if tr is not None:
        tr.dump(opts["--trace"], meta)
    Path(opts["--meta"]).write_text(json.dumps(meta))
    sys.stdout.write(json.dumps(texts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
