"""Checks on the library source itself."""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "endtn"


def test_no_assert_statements():
    """Every check raises explicitly, so ``python -O`` cannot remove one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_benchmark_hooks_resolve():
    """Every name the benchmark's tracer wraps still exists, so a renamed
    or deleted function cannot silently break a traced run."""
    import endtn.cli  # noqa: F401  (loads every module the tracer patches)

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = [row[:2] for row in tracing.COARSE + tracing.HOT + tracing.GENERATORS]
    missing = []
    for module, attr in hooks:
        obj = sys.modules.get(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}:{attr}")
    assert len(hooks) == 24 and missing == []
