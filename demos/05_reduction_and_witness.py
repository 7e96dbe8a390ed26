#!/usr/bin/env python3
"""Walkthrough: the reduction pipeline from a polynomial to linear forms.

The anchored family L pins every variable to a multiple of the first one
whenever its forms all land in {0..k}; extending with V/E/T families turns
vertex, edge and 3-cycle counts of a directed difference graph into exact
form densities.  The explicit product-group witness realizes the prescribed
pair density 1 - 1/n exactly, and the measured 3-cycle density is reported
next to the closed form 2x^2 - x (they agree for n = 3, not for n = 2).
"""

from addforms import (
    build_psi,
    build_witness,
    eval_quantum,
    parse_poly,
    verify_homdensity_identity,
    verify_pinpoint,
    verify_witness,
)
from addforms.abelian import FiniteAbelianGroup, GroupSubset
from addforms.linform import enumerate_satisfying, format_system
from addforms.reduction import build_L, build_M

k = 2
print(f"L for k={k}: {format_system(build_L(k))}")
print(f"M adds the variables themselves: {len(build_M(k).forms)} forms")

# Pin-down: over Z_{(k+1)^2}, membership of M(g) in {0..k} forces g = (1..k).
for kk in (2, 3):
    rep = verify_pinpoint(kk)
    print(f"pinpoint k={kk}: checked {rep.checked} assignments, "
          f"{rep.m_satisfying} satisfy M, violations {len(rep.violations)}")

# The graph-vs-forms identity, on seeded random subsets of Z9 x Z2.
import numpy as np

group = FiniteAbelianGroup([9, 2])
gen = np.random.Generator(np.random.Philox(key=2))
while True:
    a = GroupSubset(group, gen.random(group.order) < 0.75)
    good = enumerate_satisfying(build_M(2), a)
    if not good:
        continue
    rep = verify_homdensity_identity(a, good[0], j=1)
    if not rep.vacuous:
        break
print(f"\nfound A with {len(good)} base assignments g satisfying M(g) in A")
print(f"identity at the first one: k2 graph {rep.k2_graph} = forms {rep.k2_forms}; "
      f"k3 graph {rep.k3_graph} = forms {rep.k3_forms}")

# Quantum combination for a polynomial, evaluated on a subset.
bundle = build_psi(parse_poly("x1 - y1"), 1)
z3 = FiniteAbelianGroup([3])
full = GroupSubset.full(z3)
print(f"\npsi for q = x1 - y1 has {len(bundle.psi.terms)} terms; "
      f"value on A = Z3 is {eval_quantum(bundle.psi, full)}")

# The witness: slices of Z_{(k+1)^2} x H with coordinate complements.
for n in ([3, 3], [2, 2]):
    spec = build_witness(2, n)
    report = verify_witness(spec)
    print(f"\nwitness k=2, n={tuple(n)}: group {spec.group.literal()}, "
          f"|A| = {spec.subset.size}, good g: {report.good_g_count}, "
          f"B and k2 checks ok: {report.ok}")
    for stat in report.classes[:2]:
        print(f"  j={stat.j} class={stat.h_class}: k2={stat.k2}, "
              f"measured k3={stat.k3_measured}, closed form {stat.k3_claimed}, "
              f"agree={stat.agree}")
