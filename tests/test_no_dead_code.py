"""Every function and class under src/exceis is used by src/exceis: its name
appears as a NAME token somewhere in src/exceis other than at its own
definition.

Exempt are the CLI commands (decorated ``@main.command``), which click calls,
the functions the benchmark's tracer wraps by name (`perfbench/tracer.py`
``TARGETS``), and data-model methods such as ``__eq__``, which Python calls
for an operator.  A re-export in ``__init__.py`` is no use: a name that
only the package's import list and the tests read is a helper that only
the tests use, and such helpers belong under tests/."""

import io
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "exceis").glob("*.py"))

sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

TRACED = {part for module, attr, _ in tracer.TARGETS if module.startswith("exceis")
          for part in attr.split(".")}


def definitions_and_uses(text: str) -> tuple[list[tuple[str, int, bool]], set[str]]:
    """The (name, line, is a CLI command) of each def and class in text, and
    every other NAME token in it."""
    defs, uses = [], set()
    prev, decorator, command = None, [], False
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT):
            continue
        if decorator and tok.type == tokenize.NEWLINE:
            command |= "".join(decorator).startswith("@main.command")
            decorator = []
        elif decorator or (tok.type == tokenize.OP and tok.string == "@"):
            decorator.append(tok.string)
        if tok.type == tokenize.NAME:
            if prev is not None and prev.string in ("def", "class"):
                defs.append((tok.string, tok.start[0], command))
                command = False
            else:
                uses.add(tok.string)
        prev = tok
    return defs, uses


def unused(sources: dict[str, str]) -> list[str]:
    """Each def and class of the sources (file name -> text) whose name no
    NAME token of the sources other than __init__.py uses, and which is not
    exempt."""
    parsed = {file: definitions_and_uses(text) for file, text in sources.items()}
    uses = set().union(*(names for file, (_, names) in parsed.items()
                         if file != "__init__.py"))
    return [f"{file} line {line}: {name}"
            for file, (defs, _) in parsed.items() for name, line, command in defs
            if name not in uses and not (command or name in TRACED
                                         or name.startswith("__") and name.endswith("__"))]


def test_sources_found():
    assert SOURCES


def test_every_definition_is_used():
    assert unused({p.name: p.read_text() for p in SOURCES}) == []


@pytest.mark.parametrize("snippet,want", [
    ("def f():\n    pass\n", ["line 1: f"]),
    ("class C:\n    def m(self):\n        pass\n", ["line 1: C", "line 2: m"]),
    ("def f():\n    pass\n\ndef g():\n    return f()\n", ["line 4: g"]),
    ("class A:\n    def m(self):\n        pass\n\nclass B(A):\n    def m(self):\n"
     "        return A()\nB()\n", ["line 2: m", "line 6: m"]),
    ("class C:\n    def __eq__(self, o):\n        return True\nC()\n", []),
    ("@main.command()\ndef cosets():\n    pass\n", []),
    ("@other.command()\ndef cosets():\n    pass\n", ["line 2: cosets"]),
    ("def we_projection():\n    pass\n", []),
])
def test_detects_unused(snippet, want):
    assert unused({"snippet.py": snippet}) == [f"snippet.py {w}" for w in want]


def test_reexport_is_no_use():
    sources = {"__init__.py": "from .m import f, g\n",
               "m.py": "def f():\n    pass\n\ndef g():\n    pass\n\nf()\n"}
    assert unused(sources) == ["m.py line 4: g"]
