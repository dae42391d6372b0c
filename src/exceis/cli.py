"""Command-line front end.

Exit status is 0 iff no Mismatch row was produced; reports go to stdout in
JSON (machine) or Markdown (human) form.
"""

from __future__ import annotations

import sys

import click

from . import cases, report
from .config import ConfigError, load_config


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(report.to_json(doc), nl=False)
    else:
        click.echo(report.to_markdown(doc), nl=False)
    if doc.get("status") == "Mismatch":
        sys.exit(1)


def _report(ctx, build, *args, **kwargs) -> None:
    """Emit build(cfg, *args, **kwargs); a KeyError or ValueError (unknown
    name, bad argument) becomes an error exit with its message."""
    try:
        doc = build(ctx.obj["cfg"], *args, **kwargs)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its key, quotes included
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise click.ClickException(str(msg))
    _emit(doc, ctx.obj["fmt"])


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="Alternative config file (defaults to the packaged one).")
@click.option("--format", "fmt", type=click.Choice(["json", "md"]), default="md")
@click.pass_context
def main(ctx, config_path, fmt):
    """Exact verification of coset censuses, constant-term ledgers,
    archimedean multipliers, and algebra identities."""
    ctx.ensure_object(dict)
    try:
        ctx.obj["cfg"] = load_config(config_path)
    except ConfigError as exc:
        raise click.ClickException(str(exc))
    ctx.obj["fmt"] = fmt


@main.command()
@click.argument("system")
@click.argument("left")
@click.argument("right")
@click.pass_context
def cosets(ctx, system, left, right):
    """Minimal double-coset representatives [W_LEFT \\ W / W_RIGHT]."""
    _report(ctx, cases.cosets_report, system, left, right)


@main.command("constant-term")
@click.argument("case_name", metavar="CASE")
@click.argument("source")
@click.argument("target")
@click.option("--s0", default=None, help="Evaluation point (defaults to the case's).")
@click.pass_context
def constant_term(ctx, case_name, source, target, s0):
    """Constant-term table of CASE from SOURCE down to TARGET."""
    _report(ctx, cases.constant_term_report, case_name, source, target, s0=s0)


@main.command()
@click.argument("case_name", metavar="CASE", required=False)
@click.pass_context
def arch(ctx, case_name):
    """Verify the archimedean multiplier recipes (all cases by default)."""
    _report(ctx, cases.arch_report, case_name)


@main.command()
@click.argument("suite", default="all")
@click.option("--seed", type=int, default=None)
@click.option("--count", type=int, default=None)
@click.pass_context
def algebra(ctx, suite, seed, count):
    """Seeded algebra property suites (composition, sharp, triality, ...)."""
    _report(ctx, cases.algebra_report, suite, seed=seed, count=count)


@main.command()
@click.pass_context
def modulus(ctx):
    """Check the configured modulus-character exponents."""
    _report(ctx, cases.modulus_report)


@main.command()
@click.pass_context
def oracle(ctx):
    """Rational c-functions against the absolute-system oracle."""
    _report(ctx, cases.oracle_report)


@main.command("all")
@click.option("--seed", type=int, default=None)
@click.option("--count", type=int, default=None,
              help="Algebra-suite sample count (default from config).")
@click.pass_context
def run_everything(ctx, seed, count):
    """Run every configured verification."""
    _report(ctx, cases.run_all, seed=seed, count=count)


if __name__ == "__main__":
    main()
