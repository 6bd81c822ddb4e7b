"""Properties of the package source itself."""

import ast
from pathlib import Path

import carnotpoly

CODEGEN = {"eval", "exec", "compile"}


def test_package_never_calls_eval_exec_or_compile():
    # user input (control expressions, algebra files) is parsed, never
    # executed, and the float kernels are closures, not generated code
    root = Path(carnotpoly.__file__).parent
    sources = sorted(root.rglob("*.py"))
    assert sources
    calls = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in CODEGEN:
                calls.append(f"{path.name}:{node.lineno} {node.func.id}")
    assert calls == []
