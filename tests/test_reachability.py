"""Every def in src/exceis is entered by some CLI query.

The catalogue below runs in process through ``exceis.cli.main`` under
``sys.setprofile``: ``all --count 3`` in json and md, ``modulus``,
``oracle``, ``arch`` and ``algebra --count 3``, ``arch <case>`` for every
case, and ``constant-term`` and ``cosets`` for every configured table.  A
def that no query enters is code only the tests run, and fails the test.
The algebra suites run in forked children, which inherit the hook but not
the set it fills: a child appends what it enters to an unbuffered log,
which is merged in after the queries.

Exempt are the defs the benchmark's tracer wraps (`perfbench/tracer.py`
``TARGETS``, each by its file and qualified name) and the ``KEPT`` names,
each with its reason; a data-model method such as ``__eq__`` is no
exception.  The defs
that no query enters and that only the tracer exemption keeps are pinned
as ``TRACER_ONLY``: one more fails the test too.
test_no_dead_code.py asks the weaker question, whether a name is mentioned
anywhere in src; this one asks whether a query runs it.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

from exceis import config

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "exceis").glob("*.py"))

sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
from cli_invoke import invoke  # noqa: E402

# (file name, qualified name) of each src def the tracer wraps
TRACED = {(module.split(".")[-1] + ".py", attr) for module, attr, _ in tracer.TARGETS
          if module.startswith("exceis.")}

KEPT = {
    "CubicEtale.project": "reached only through the tracer target we_projection",
    "CubicEtale.embed": "reached only through the tracer target we_projection",
    "JordanAlgebra.zero": "reached only through the tracer target we_projection",
    "CubicEtale._field_embedding": "the ('field', ...) etale path; ROADMAP item 12 "
                                   "gives it a caller",
    "JordanAlgebra.square": "the ('field', ...) etale path (ROADMAP item 12)",
    "JordanAlgebra.jordan_product": "the ('field', ...) etale path (ROADMAP item 12)",
    "Poly.derivative": "read_at needs it for an entry that is nonzero at its point: valid "
                       "config, but no packaged recipe has one",
    "Poly.__eq__": "the tests compare polynomials by value",
    "CoordVector.__eq__": "the tests compare exponent vectors by value",
}

# tracer targets that no query enters; they leave src with ROADMAP items 4 and 13
TRACER_ONLY = {"RootSystem.word_matrix", "RootSystem.inversions", "we_projection"}


def definitions(path: Path) -> list[tuple[str, int]]:
    """The qualified name (as ``co_qualname`` spells it) and line of each
    def in a source file."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                out.append((prefix + child.name, child.lineno))
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return out


def catalogue() -> list[list[str]]:
    cfg = config.load_config()
    queries = [["--format", fmt, "all", "--count", "3"] for fmt in ("json", "md")]
    queries += [["--format", "json", cmd] for cmd in ("modulus", "oracle", "arch")]
    queries.append(["--format", "json", "algebra", "--count", "3"])
    queries += [["--format", "json", "arch", name] for name in sorted(cfg.cases)]
    for name, case in sorted(cfg.cases.items()):
        for table in case.tables:
            queries.append(["--format", "json", "constant-term", name, case.source,
                            table.target])
            queries.append(["--format", "json", "cosets", case.system, table.target,
                            case.source])
    return queries


def entered(queries, monkeypatch, log_path) -> set[tuple[str, str]]:
    """The (file name, qualified name) of every src function the queries
    enter, in this process or in a child forked from it; the first query
    parses the config afresh."""
    files = {str(p): p.name for p in SOURCES}
    seen = set()
    pid = os.getpid()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            key = (files[frame.f_code.co_filename], frame.f_code.co_qualname)
            if key not in seen:
                seen.add(key)
                if os.getpid() != pid:   # a forked child: its set is lost at exit
                    log.write(f"{key[0]}\t{key[1]}\n".encode())

    monkeypatch.setattr(config, "_cache", {})
    with open(log_path, "ab", buffering=0) as log:
        for args in queries:
            sys.setprofile(hook)
            try:
                result = invoke(*args)
            finally:
                sys.setprofile(None)
            assert result.exit_code == 0, (args, result.output)
    seen |= {tuple(line.split("\t")) for line in log_path.read_text().splitlines()}
    return seen


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return entered(catalogue(), monkeypatch,
                       tmp_path_factory.mktemp("reachability") / "children.log")


def test_children_report_what_they_enter(tmp_path):
    """The algebra suites run only in forked children; the log brings them
    in, and the parent's own defs are entered too."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        got = entered([["--format", "json", "algebra", "sharp", "--count", "1"]],
                      monkeypatch, tmp_path / "children.log")
    logged = {tuple(line.split("\t")) for line in
              (tmp_path / "children.log").read_text().splitlines()}
    assert {("suites.py", "_sharp"), ("suites.py", "_child")} <= logged
    assert ("suites.py", "_fan_out") in got - logged


def unentered(seen, sources=SOURCES) -> list[tuple[str, str, int]]:
    """(file name, qualified name, line) of each def no query enters, but
    the KEPT names."""
    return [(p.name, name, line) for p in sources for name, line in definitions(p)
            if (p.name, name) not in seen and name not in KEPT]


def missed(seen, sources=SOURCES) -> list[str]:
    """Each def no query enters that no exemption keeps."""
    return [f"{file} line {line}: {name}" for file, name, line in unentered(seen, sources)
            if (file, name) not in TRACED]


def test_every_definition_is_entered(seen):
    assert missed(seen) == []
    # a kept name that some query enters needs no reason
    assert set(KEPT) & {name for _, name in seen} == set()


def test_tracer_only_names_are_pinned(seen):
    """The tracer exemption keeps no def beyond TRACER_ONLY unentered."""
    assert {name for file, name, _ in unentered(seen) if (file, name) in TRACED} == TRACER_ONLY


def test_tracer_exemption_reads_file_and_qualified_name(tmp_path):
    """A def that shares its last name with a tracer target, in another
    class or another file, is not exempt."""
    (tmp_path / "compalg.py").write_text(
        "class JordanAlgebra:\n    def sharp(self):\n        pass\n\n"
        "class _Unused:\n    def sharp(self):\n        pass\n")
    (tmp_path / "rootsys.py").write_text("def sharp():\n    pass\n")
    sources = sorted(tmp_path.glob("*.py"))
    assert missed(set(), sources) == ["compalg.py line 6: _Unused.sharp",
                                      "rootsys.py line 1: sharp"]


def test_kept_names_are_definitions():
    names = {name for p in SOURCES for name, _ in definitions(p)}
    assert set(KEPT) <= names


def test_definitions_read_qualified_names(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("class C:\n    def m(self):\n        def inner():\n            pass\n"
                   "\n    @property\n    def p(self):\n        pass\n\ndef f():\n    pass\n")
    assert definitions(src) == [("C.m", 2), ("C.m.<locals>.inner", 3), ("C.p", 7), ("f", 10)]
