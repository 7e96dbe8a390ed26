"""Cold start: `import addforms` and `import addforms.cli` load only what
every verb needs; the other modules load on first use, and every public
name of the package still resolves.  Each check runs in a fresh interpreter,
where nothing has been imported yet."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_DEFERRED = ("bounds", "fourier", "linform", "polynomial", "reduction")
# the names the package exported when it imported every module eagerly
_EXPORTED = {
    "abelian": [
        "FiniteAbelianGroup", "GroupElement", "GroupSubset", "additive_energy",
        "additive_energy_raw", "doubling_constant", "element_add", "element_scale",
        "parse_group", "parse_subset", "representation_counts",
        "signed_iterated_sumset", "stabilizer", "sumset",
    ],
    "bounds": [
        "bollobas_h", "check_energy_bound", "check_energy_doubling", "check_kneser",
        "check_plunnecke_ruzsa", "delta", "delta_double_prime", "delta_prime",
        "energy_upper_bound", "in_region_R_energy", "in_region_R_graph",
        "verify_delta_derivative_claims",
    ],
    "errors": ["AddformsError", "CapExceeded", "GroupMismatchError", "ParseError"],
    "fourier": [
        "Spectrum", "character", "convolve", "energy_fourier", "fourier_transform",
        "parseval_check",
    ],
    "linform": [
        "LinearForm", "LinearSystem", "QuantumSystem", "estimate_density",
        "eval_density", "eval_density_fixed", "eval_form", "eval_quantum",
        "parse_quantum", "parse_system",
    ],
    "polynomial": [
        "IntPolynomial", "parse_poly", "partial_derivative", "poly_eval",
        "sup_bound_unit_box", "transform_p_from_q", "transform_q_from_p",
        "transform_qstar",
    ],
    "reduction": [
        "DirectedCayleyGraph", "ReductionBundle", "WitnessSpec", "build_E", "build_L",
        "build_M", "build_T", "build_V", "build_psi", "build_witness", "compute_B_C",
        "graph_densities", "verify_homdensity_identity", "verify_pinpoint",
        "verify_witness",
    ],
}
_SUBMODULES = [*_EXPORTED, "report", "cli"]

_LOADED_CHILD = """
import json, sys
import {target}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("addforms"))))
"""

_NAMES_CHILD = """
import importlib, json, sys
exported, submodules = json.loads(sys.stdin.read())
import addforms
listed = dir(addforms)
star = {}
exec("from addforms import *", star)
wrong = [
    name
    for module, names in exported.items()
    for name in names
    if getattr(addforms, name) is not getattr(importlib.import_module("addforms." + module), name)
    or star[name] is not getattr(addforms, name)
]
wrong += [m for m in submodules if getattr(addforms, m) is not sys.modules["addforms." + m]]
print(json.dumps({"dir": listed, "star": sorted(star), "wrong": wrong}))
"""

# one verb per deferred module, in an order where each verb is the first to
# need the modules it adds
_VERBS = [
    (["energy", "--group", "Z4", "--set", "{0,1}", "--fourier"], ["fourier"]),
    (["verify", "bollobas", "--t-max", "5"], ["bounds"]),
    (["density", "--group", "Z5", "--set", "{0,1}", "--system", "[g1;g2;g1+g2]"], ["linform"]),
    (["reduce", "--poly", "x1^2 - y1", "--k", "2"], ["polynomial", "reduction"]),
]

_VERBS_CHILD = """
import json, os, sys
import addforms.cli
runs = []
for argv in json.loads(sys.stdin.read()):
    before = {m for m in sys.modules if m.startswith("addforms.")}
    code = addforms.cli.main([*argv, "--out", os.devnull])
    after = {m for m in sys.modules if m.startswith("addforms.")}
    runs.append([code, sorted(m.split(".")[1] for m in after - before)])
print(json.dumps(runs))
"""


def _child(code: str, stdin: str = "") -> object:
    path = [_SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("target", ["addforms", "addforms.cli"])
def test_import_leaves_the_verb_modules_unloaded(target):
    loaded = _child(_LOADED_CHILD.format(target=target))
    assert "addforms" in loaded and target in loaded
    assert not {f"addforms.{m}" for m in _DEFERRED} & set(loaded)


def test_every_public_name_resolves_to_its_defining_object():
    got = _child(_NAMES_CHILD, json.dumps([_EXPORTED, _SUBMODULES]))
    assert got["wrong"] == []
    names = [name for names in _EXPORTED.values() for name in names] + _SUBMODULES
    assert set(names) <= set(got["dir"])
    assert set(names) <= set(got["star"])


def test_each_verb_loads_its_modules_on_first_use():
    runs = _child(_VERBS_CHILD, json.dumps([argv for argv, _ in _VERBS]))
    assert runs == [[0, modules] for _, modules in _VERBS]
