"""Every layer the benchmark's tracer wraps must exist where it looks.

The tracer (perfbench/tracer.py) replaces module attributes and class
methods by name; a renamed or deleted target would make the traced run
fail.  TARGETS is read from the tracer's source, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found in the tracer")


@pytest.mark.parametrize("span, modname, attr", _targets())
def test_tracer_target_resolves(span, modname, attr):
    mod = importlib.import_module(modname)
    if "." in attr:
        # the tracer wraps cls.__dict__[meth]: the method must be defined
        # on the class itself, not inherited
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, attr))


def test_tracer_reads_the_vl_memo():
    from hypsmear import bounds

    assert isinstance(bounds._VL_CACHE, dict)
