"""Every function the benchmark's tracer wraps must exist under its name.

`perfbench/tracer.py` looks each ``TARGETS`` entry up by module and attribute
when a traced run starts (`run.py --trace 1`), so a renamed or deleted
function would crash that run in `tracer.install`."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402


@pytest.mark.parametrize("module,attr,span", tracer.TARGETS,
                         ids=[span for _, _, span in tracer.TARGETS])
def test_target_resolves(module, attr, span):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), span


def test_namers_name_targets():
    assert set(tracer.NAMERS) <= {span for _, _, span in tracer.TARGETS}
