"""Properties of the package source itself."""

import ast
import re
from collections import Counter
from pathlib import Path

import carnotpoly

CODEGEN = {"eval", "exec", "compile"}
REPO = Path(__file__).resolve().parent.parent
_TOP = re.compile(r"(class|def) (\w+)")
_METHOD = re.compile(r"    def (\w+)")


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


def _definitions(text):
    """Names of the module-level functions and classes of a source text,
    and of the methods of its module-level classes, line by line."""
    owner = None
    for line in text.splitlines():
        if line[:1].strip():    # a statement at column 0 ends any class
            top = _TOP.match(line)
            owner = top[2] if top and top[1] == "class" else None
            if top:
                yield top[2]
        elif owner:
            method = _METHOD.match(line)
            if method:
                yield method[1]


def test_every_definition_is_named_outside_its_def():
    """Each module-level function, class and method of a module-level class
    in src/carnotpoly is named somewhere in src/, tests/ or perfbench/
    beyond the def or class statements of that name.

    The match is by name alone, in code, strings and comments, so this
    guards against definitions that nothing reaches; it is no proof that
    a caller exists.  Dunder names are exempt.
    """
    corpus = "\n".join(path.read_text()
                       for top in ("src", "tests", "perfbench")
                       for path in sorted((REPO / top).rglob("*.py")))
    words = Counter(re.findall(r"[A-Za-z_]\w*", corpus))
    defs = Counter(re.findall(r"(?:def|class) (\w+)", corpus))
    unnamed = [f"{path.name}: {name}"
               for path in sorted((REPO / "src" / "carnotpoly").glob("*.py"))
               for name in _definitions(path.read_text())
               if not (name.startswith("__") and name.endswith("__"))
               and words[name] <= defs[name]]
    assert unnamed == []
