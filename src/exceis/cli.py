"""Command-line front end.

Exit status is 0 iff no Mismatch row was produced; reports go to stdout in
JSON (machine) or Markdown (human) form.  An error (unknown name, bad
argument, bad config) prints ``Error: <message>`` on stderr and exits 1; a
usage error exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cases, report
from .config import load_config


def _parser(prog: str | None) -> argparse.ArgumentParser:
    """The global options and the seven queries, each with its report
    builder as ``build`` and the builder's arguments as ``args``/``kwargs``."""
    parser = argparse.ArgumentParser(
        prog=prog or "exceis", allow_abbrev=False,
        description="Exact verification of coset censuses, constant-term ledgers, "
        "archimedean multipliers, and algebra identities.")
    parser.add_argument("--config", default=None,
                        help="Alternative config file (defaults to the packaged one).")
    parser.add_argument("--format", dest="fmt", choices=["json", "md"], default="md")
    queries = parser.add_subparsers(dest="query", metavar="COMMAND", required=True)

    def query(name, build, help, positional=(), options=()):
        sub = queries.add_parser(name, help=help, description=help, allow_abbrev=False)
        for arg, kw in positional:
            sub.add_argument(arg, **kw)
        for opt, kw in options:
            sub.add_argument(opt, type=int, default=None, **kw)
        sub.set_defaults(build=build, args=[arg for arg, _ in positional],
                         kwargs=[opt[2:] for opt, _ in options])

    seed_count = (("--seed", {}),
                  ("--count", {"help": "Algebra-suite sample count (default from config)."}))
    query("cosets", cases.cosets_report,
          "Minimal double-coset representatives [W_LEFT \\ W / W_RIGHT].",
          [(a, {"metavar": a.upper()}) for a in ("system", "left", "right")])
    query("constant-term", cases.constant_term_report,
          "Constant-term table of CASE from SOURCE down to TARGET, at the case's s0.",
          [(a, {"metavar": a.upper()}) for a in ("case", "source", "target")])
    query("arch", cases.arch_report,
          "Verify the archimedean multiplier recipes (all cases by default).",
          [("case", {"metavar": "CASE", "nargs": "?", "default": None})])
    query("algebra", cases.algebra_report,
          "Seeded algebra property suites (composition, sharp, triality, ...).",
          [("suite", {"metavar": "SUITE", "nargs": "?", "default": "all"})], seed_count)
    query("modulus", cases.modulus_report,
          "Check the configured modulus-character exponents.")
    query("oracle", cases.oracle_report,
          "Rational c-functions against the absolute-system oracle.")
    query("all", cases.run_all, "Run every configured verification.", options=seed_count)
    return parser


def main(argv: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run the query that argv (sys.argv[1:] by default) names and write
    its report."""
    parser = _parser(prog_name)
    ns = parser.parse_args(argv)
    if ns.config is not None and not os.path.exists(ns.config):
        parser.error(f"argument --config: Path '{ns.config}' does not exist.")
    try:
        doc = ns.build(load_config(ns.config), *(getattr(ns, a) for a in ns.args),
                       **{k: getattr(ns, k) for k in ns.kwargs})
    except (KeyError, ValueError) as exc:   # a ConfigError is a ValueError
        # str() of a KeyError is the repr of its key, quotes included
        print(f"Error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}",
              file=sys.stderr)
        sys.exit(1)
    render = report.to_json if ns.fmt == "json" else report.to_markdown
    sys.stdout.write(render(doc))
    if doc.get("status") == "Mismatch":
        sys.exit(1)


if __name__ == "__main__":
    main()
