"""`FiniteAbelianGroup.sum_code` alone chooses how the engine's table gathers
index: the carry-free code or the `combine` fallback, both behind the same
methods.  Outside `abelian.py` no module may read a code's `decode` or branch
on `sum_code` giving None, which would bring a second choice back.  The
modules are read with `ast`."""

import ast
from pathlib import Path

import addforms

_SOURCES = Path(addforms.__file__).parent


def _is_sum_code_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sum_code"
    )


def _code_names(tree) -> set[str]:
    """The names bound to a `sum_code` result, also inside a tuple assignment."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            names |= {t.id for t, v in pairs if isinstance(t, ast.Name) and _is_sum_code_call(v)}
    return names


def choice_leaks(source: str) -> list[str]:
    """The lines of `source` that read `.decode` (not calling it, as bytes do)
    or test a `sum_code` result against None or for truth."""
    tree = ast.parse(source)
    names = _code_names(tree)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}

    def is_code(node) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            node = node.operand
        return _is_sum_code_call(node) or (isinstance(node, ast.Name) and node.id in names)

    leaks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "decode" and id(node) not in called:
            leaks.append((node.lineno, "reads .decode"))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            none = any(isinstance(o, ast.Constant) and o.value is None for o in operands)
            if none and any(is_code(o) for o in operands):
                leaks.append((node.lineno, "compares a sum_code result with None"))
        elif isinstance(node, (ast.If, ast.IfExp, ast.While)) and is_code(node.test):
            leaks.append((node.lineno, "tests a sum_code result for truth"))
        elif isinstance(node, ast.BoolOp) and any(is_code(v) for v in node.values):
            leaks.append((node.lineno, "tests a sum_code result for truth"))
    return [f"{line}: {what}" for line, what in sorted(leaks)]


def test_only_abelian_chooses_the_gather():
    modules = sorted(p for p in _SOURCES.glob("*.py") if p.name != "abelian.py")
    assert {"linform.py", "reduction.py"} <= {p.name for p in modules}
    leaks = {p.name: choice_leaks(p.read_text()) for p in modules}
    assert {name: found for name, found in leaks.items() if found} == {}


def test_the_guard_sees_each_kind_of_leak():
    source = """
code = group.sum_code(2, limit)
if code is None:
    pass
table = bits.take(code.decode, axis=1)
other, every = group.sum_code(2), 0
w = x if other else y
ok = not other or z
text = data.decode()
"""
    assert choice_leaks(source) == [
        "3: compares a sum_code result with None",
        "5: reads .decode",
        "7: tests a sum_code result for truth",
        "8: tests a sum_code result for truth",
    ]
