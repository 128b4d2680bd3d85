"""The benchmark wraps library attributes by name (``DEPENDS_ON`` in
perfbench/spans.py) and reports a metric as absent when its attribute is
gone, so a rename or deletion in pairsolve would silently drop metrics."""
import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def depends_on():
    """The ``DEPENDS_ON`` dict of spans.py, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["DEPENDS_ON"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no DEPENDS_ON assignment in {SPANS}")


def test_every_benchmark_wrapped_name_exists():
    names = depends_on()
    assert names
    for name in names:
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"pairsolve.{module}"), attr), name
