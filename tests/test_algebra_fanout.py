"""cases.algebra_report against the serial loop kept in
tests/compalg_reference.py (`reference_algebra_report`), and the failures of
its forked children.

The report of every suite together, and of each suite alone, has the same
JSON bytes and the same repr as the reference's, over several seeds and
counts: the repr pins int against Fraction and list against tuple, which
the JSON bytes would not show.

A child that raises, that is killed, that exits early, or whose exception
cannot be pickled fails the report with an error that says so; after each,
no child is left running or unreaped."""

import os
import signal

import pytest

from cli_invoke import invoke
from compalg_reference import reference_algebra_report
from exceis import cases, compalg
from exceis.config import load_config
from exceis.report import to_json
from exceis.suites import SUITES

SEEDS = (1, 7, 101)
COUNTS = (1, 3, 20)


@pytest.fixture(scope="module")
def cfg():
    return load_config()


def _same(cfg, suite, seed, count):
    got = cases.algebra_report(cfg, suite, seed=seed, count=count)
    want = reference_algebra_report(cfg, suite, seed, count)
    assert to_json(got) == to_json(want)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_all_suites_match_serial_loop(cfg, seed, count):
    _same(cfg, "all", seed, count)


@pytest.mark.parametrize("seed,count", list(zip(SEEDS, COUNTS)))
@pytest.mark.parametrize("suite", [name for name, _ in SUITES])
def test_each_suite_alone_matches_serial_loop(cfg, suite, seed, count):
    _same(cfg, suite, seed, count)


@pytest.mark.parametrize("seed", SEEDS)
def test_triality_fields_draw_the_serial_stream(cfg, monkeypatch, seed):
    """Every triple passes, so the report alone does not show which triples
    were drawn.  A verifier that also fails a triple on the parity of its g1
    entries makes the failure count a fingerprint of the draws of all three
    fields."""
    verify = compalg.triality_verify
    monkeypatch.setattr(compalg, "triality_verify", lambda o, triple: verify(o, triple)
                        and sum(map(sum, triple.g1.mat)) % 2 == 1)
    got = cases.algebra_report(cfg, "triality", seed=seed, count=20)
    want = reference_algebra_report(cfg, "triality", seed, 20)
    assert 0 < got["suites"][0]["failures"] < 60
    assert repr(got) == repr(want)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _plant(monkeypatch, fault, prime=None):
    """Run fault() in triality_verify: over every field, or only over
    GF(prime)."""
    verify = compalg.triality_verify

    def planted(o, triple):
        if prime is None or getattr(o.scalars, "p", None) == prime:
            fault()
        return verify(o, triple)
    monkeypatch.setattr(compalg, "triality_verify", planted)


def _raise(exc):
    def fault():
        raise exc
    return fault


def test_child_exception_keeps_type_and_message(cfg, monkeypatch):
    _plant(monkeypatch, _raise(ValueError("planted fault")), prime=13)
    with pytest.raises(ValueError) as info:
        cases.algebra_report(cfg, "all", seed=7, count=3)
    assert str(info.value) == "planted fault"
    (note,) = info.value.__notes__
    assert note.startswith("raised in algebra job triality GF(13):\nTraceback")
    _no_child_left()


def test_child_exception_is_a_cli_error(monkeypatch):
    _plant(monkeypatch, _raise(ValueError("planted fault")))
    r = invoke("--format", "json", "algebra", "triality", "--count", "1")
    assert (r.exit_code, r.stdout, r.stderr) == (1, "", "Error: planted fault\n")
    _no_child_left()


def test_killed_child_names_its_field(cfg, monkeypatch):
    _plant(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL), prime=11)
    with pytest.raises(RuntimeError,
                       match=r"^algebra job triality GF\(11\) was killed by signal SIGKILL$"):
        cases.algebra_report(cfg, "all", seed=7, count=3)
    _no_child_left()


def test_killed_child_names_its_suite(cfg, monkeypatch):
    rank = compalg.JordanAlgebra.rank

    def killed(self, a):
        os.kill(os.getpid(), signal.SIGKILL)
        return rank(self, a)
    monkeypatch.setattr(compalg.JordanAlgebra, "rank", killed)
    with pytest.raises(RuntimeError, match="^algebra job rank-one was killed by signal"):
        cases.algebra_report(cfg, "rank-one", seed=7, count=3)
    _no_child_left()


def test_child_that_exits_early_names_its_field(cfg, monkeypatch):
    _plant(monkeypatch, lambda: os._exit(3), prime=13)
    with pytest.raises(RuntimeError, match=r"^algebra job triality GF\(13\) exited with "
                                           r"status 3 and no result$"):
        cases.algebra_report(cfg, "triality", seed=7, count=3)
    _no_child_left()


def test_unpicklable_exception_arrives_with_traceback(cfg, monkeypatch):
    class Local(Exception):   # a local class does not pickle
        pass
    _plant(monkeypatch, _raise(Local("planted fault")))
    with pytest.raises(RuntimeError, match="cannot be pickled") as info:
        cases.algebra_report(cfg, "triality", seed=7, count=1)
    text = str(info.value)
    assert "Traceback (most recent call last)" in text
    assert "in planted" in text and "Local: planted fault" in text
    _no_child_left()
