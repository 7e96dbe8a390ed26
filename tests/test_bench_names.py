"""The benchmark's span tracer (`bench/spans.py`) meters some layer functions
by name, so deleting or renaming one would silently zero its counter.  The
names are read from the tracer's source with `ast`; it is not imported."""

import ast
import importlib
import inspect
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
# name sets of the tracer, and the module of the names given without one
_NAME_SETS = {
    "_CHECKERS": "bounds",
    "_PAIR_KERNELS": None,
    "_PARSERS": None,
    "_EXACT_LINFORM": None,
}


def _metered_names() -> dict[str, set[str]]:
    found = {}
    for node in ast.parse(_SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in _NAME_SETS:
                found[target.id] = ast.literal_eval(node.value)
    return found


def test_metered_names_are_public_functions():
    found = _metered_names()
    assert set(found) == set(_NAME_SETS)
    for set_name, names in found.items():
        assert names, set_name
        for name in sorted(names):
            module, _, func = name.rpartition(".")
            mod = importlib.import_module(f"addforms.{module or _NAME_SETS[set_name]}")
            obj = getattr(mod, func, None)
            assert not func.startswith("_"), (set_name, name)
            assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, (set_name, name)
