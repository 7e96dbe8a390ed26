import hashlib
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import subset_from_mask, subset_from_tuples

from addforms import linform, reduction
from addforms.abelian import FiniteAbelianGroup, GroupSubset
from addforms.linform import eval_density, eval_density_fixed, eval_quantum
from addforms.polynomial import IntPolynomial, parse_poly, poly_eval
from addforms.report import dump_json
from addforms.reduction import (
    DirectedCayleyGraph,
    WitnessClassStat,
    WitnessReport,
    WitnessSpec,
    build_E,
    build_L,
    build_M,
    build_T,
    build_V,
    build_psi,
    build_witness,
    compute_B_C,
    eval_reduction_shared_g,
    graph_densities,
    verify_homdensity_identity,
    verify_pinpoint,
    verify_witness,
)


def test_build_L_examples():
    l2 = build_L(2)
    assert len(l2.forms) == 5
    assert l2.forms[0].negated and l2.forms[0].coefficients == (3, 0)
    assert sum(1 for f in l2.forms if f.negated) == 1
    # the p = 2 dilate of (g2 - 2 g1)
    assert any(f.coefficients == (-4, 2) and not f.negated for f in l2.forms)
    assert len(build_L(3).forms) == 11
    assert len(build_L(1).forms) == 1


def test_form_count_formulas():
    for k in range(2, 7):
        l = len(build_L(k).forms)
        m = len(build_M(k).forms)
        assert l == 1 + (k + 2) * (k - 1)
        assert m == l + k
        for j in range(1, k + 1):
            assert len(build_V(k, j).forms) == m + l
            assert len(build_E(k, j).forms) == m + 3 * l + 1
            assert len(build_T(k, j).forms) == m + 6 * l + 3
            assert build_V(k, j).arity == k + 1
            assert build_E(k, j).arity == k + 2
            assert build_T(k, j).arity == k + 3


# sha256 of dump_json(build_psi(q, k).to_dict()): the serialized L, M, V_j,
# E_j, T_j and psi of the benchmark's `reduce` polynomials and one k = 3
# polynomial, so any change to the order of the forms shows here.
_BUNDLE_DIGESTS = {
    ("x1 - y1", 1): "bc0a0663d85872898f03221372b1b192392e749dabd0f44ae58229f1434465cb",
    ("x1^2 - y1 + x2*y2", 2): "a3e0f9805d60649594414e6b464c15ae926b4f8d6002d1f1685d483f7b206774",
    ("x1*y1 - x1^2", 1): "d4a98af53a6874dd09c84de95a0a302433731792121910c0f35e628eadf76553",
    ("x1*y2 - y3^2 + x3", 3): "3a3e606b783fdea9ef747423f6dd71ffead482cd6b9ebc6a74f5a5ca1697745e",
}


@pytest.mark.parametrize(("poly", "k"), list(_BUNDLE_DIGESTS))
def test_bundle_form_order_pinned(poly, k):
    text = dump_json(build_psi(parse_poly(poly), k).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == _BUNDLE_DIGESTS[poly, k]


def test_build_E_edge_form():
    e = build_E(2, 1)
    # singleton form g1 + z - z' over (g1, g2, z, z')
    assert any(
        f.coefficients == (1, 0, 1, -1) and not f.negated for f in e.forms
    )


def test_psi_structure_examples():
    bundle = build_psi(parse_poly("x1 - y1"), 1)
    shapes = [
        (coeff, Counter(id(f) for f in factors))
        for coeff, factors in bundle.psi.terms
    ]
    v1, e1, t1 = bundle.V[0], bundle.E[0], bundle.T[0]
    assert (1, Counter([id(v1), id(e1)])) in shapes
    assert (-1, Counter([id(t1)])) in shapes
    assert len(shapes) == 2

    const = build_psi(IntPolynomial.constant(5, ("x1", "y1")), 1)
    assert const.psi.terms == ((5, ()),)

    square = build_psi(parse_poly("x1^2", ["x1", "y1"]), 1)
    (coeff, factors), = square.psi.terms
    assert coeff == 1
    assert Counter(id(f) for f in factors) == Counter(
        [id(square.V[0])] * 2 + [id(square.E[0])] * 2
    )


def test_compute_B_C_empty_when_M_fails():
    group = FiniteAbelianGroup([9])
    a = subset_from_tuples(group, [(0,)])  # g in A forces g = 0, but 3*0 in A fails
    g = (group.element([1]), group.element([2]))
    b, c = compute_B_C(a, g, 1)
    assert b.size == 0 and c.size == 0


def _oracle_graph_densities(u):
    # edge by edge; the 3-cycles (x, y, z) are the trace of the cube of the
    # adjacency matrix
    b = u.vertices.elements()
    m = len(b)
    adj = np.array([[u.has_edge(x, y) for y in b] for x in b], dtype=np.int64).reshape(m, m)
    edges, tri = int(adj.sum()), int(np.trace(adj @ adj @ adj))
    return Fraction(edges, m * m), Fraction(tri, m**3)


def test_graph_densities_examples():
    z2 = FiniteAbelianGroup([2])
    u = DirectedCayleyGraph(GroupSubset.full(z2), subset_from_tuples(z2, [(0,)]))
    assert graph_densities(u) == (Fraction(1, 2), Fraction(1, 4))

    z3 = FiniteAbelianGroup([3])
    u3 = DirectedCayleyGraph(
        GroupSubset.full(z3), subset_from_tuples(z3, [(1,), (2,)])
    )
    assert graph_densities(u3) == (Fraction(2, 3), Fraction(2, 9))

    empty_c = DirectedCayleyGraph(GroupSubset.full(z3), GroupSubset.empty(z3))
    assert graph_densities(empty_c) == (0, 0)

    with pytest.raises(ValueError):
        graph_densities(
            DirectedCayleyGraph(GroupSubset.empty(z3), GroupSubset.empty(z3))
        )


def test_graph_densities_match_oracle():
    group = FiniteAbelianGroup([2, 3])
    rng = random.Random(77)
    for _ in range(10):
        b = subset_from_mask(group, rng.randrange(1, 1 << group.order))
        c = subset_from_mask(group, rng.randrange(1 << group.order))
        u = DirectedCayleyGraph(b, c)
        assert graph_densities(u) == _oracle_graph_densities(u)


def test_cycle_counts_are_float64_products(monkeypatch):
    seen = []
    matmul = np.matmul

    def spy(x, y, *args, **kwargs):
        seen.append(x.dtype)
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    group = FiniteAbelianGroup([2, 4])
    rng = random.Random(5)
    connections = [0, 1, (1 << group.order) - 1]  # empty C, the loop only, all of G
    connections += [rng.randrange(1 << group.order) | 1 for _ in range(6)]  # with loops
    connections += [rng.randrange(1 << group.order) & ~1 for _ in range(6)]  # without
    for c_mask in connections:
        b = subset_from_mask(group, rng.randrange(1, 1 << group.order))
        u = DirectedCayleyGraph(b, subset_from_mask(group, c_mask))
        assert graph_densities(u) == _oracle_graph_densities(u)
    assert set(seen) == {np.dtype(np.float64)}
    # a stack of shifts with one shared B and C counts each shift s as the
    # one-shift call of the graph with connection C - s does
    b = subset_from_mask(group, rng.randrange(1, 1 << group.order))
    c = subset_from_mask(group, rng.randrange(1 << group.order))
    shifts = np.arange(group.order, dtype=np.int64)
    pairs, cycles = reduction._graph_counts(group, b.bits[None], c.bits[None], shifts)
    m = b.size
    for s, p, t in zip(shifts, pairs, cycles):
        u = DirectedCayleyGraph(b, c.translate(-group.from_index(int(s))))
        assert (Fraction(int(p), m * m), Fraction(int(t), m**3)) == graph_densities(u)
        assert graph_densities(u) == _oracle_graph_densities(u)


def _graph_rows(group, seed, rows):
    """Random (vertex rows, connection rows, shifts): nonempty B rows of
    densities 1/10 to 7/10, so that the rows' supports differ, and C rows
    of density 1/2."""
    rng = np.random.default_rng(seed)
    density = rng.choice([0.1, 0.3, 0.7], size=(rows, 1))
    vertices = rng.random((rows, group.order)) < density
    vertices[np.arange(rows), rng.integers(0, group.order, rows)] = True
    connections = rng.random((rows, group.order)) < 0.5
    return vertices, connections, rng.integers(0, group.order, rows)


# Z2^7 takes the `combine` fallback of `sum_code` (3^7 > 16 * 2^7), the others the code
@pytest.mark.parametrize("moduli", [(12,), (3, 4), (2, 2, 3), (2,) * 7])
def test_row_wise_graph_counts_match_per_row_graph_densities(moduli):
    group = FiniteAbelianGroup(moduli)
    vertices, connections, shifts = _graph_rows(group, sum(moduli), 9)
    pairs, cycles = reduction._graph_counts(group, vertices, connections, shifts)
    for v, c, s, p, t in zip(vertices, connections, shifts, pairs, cycles):
        b = GroupSubset(group, v)
        u = DirectedCayleyGraph(b, GroupSubset(group, c).translate(-group.from_index(int(s))))
        m = b.size
        assert (Fraction(int(p), m * m), Fraction(int(t), m**3)) == graph_densities(u)
        assert graph_densities(u) == _oracle_graph_densities(u)


def test_graph_counts_are_the_same_in_chunks(monkeypatch):
    group = FiniteAbelianGroup([3, 4])
    vertices, connections, shifts = _graph_rows(group, 8, 7)
    whole = reduction._graph_counts(group, vertices, connections, shifts)
    chunks = []
    cycle_counts = linform._cycle_counts
    monkeypatch.setattr(
        linform, "_cycle_counts", lambda *e: chunks.append(len(e[0])) or cycle_counts(*e)
    )
    # two rows of (m, m) entries per chunk, m the size of the union of the
    # rows' vertex sets: the seven rows span four chunks
    m = int(vertices.any(axis=0).sum())
    monkeypatch.setattr(linform, "_GRID_BLOCK", 2 * m * m)
    chunked = reduction._graph_counts(group, vertices, connections, shifts)
    assert chunks == [2, 2, 2, 1]
    assert all(np.array_equal(x, y) for x, y in zip(whole, chunked))


def test_graph_counts_are_the_same_in_slices_of_one_vertex(monkeypatch):
    # a cap of one entry makes every row its own block and cuts its S_a, the
    # row's vertex set B_i, into |B_i| slices of one vertex
    group = FiniteAbelianGroup([3, 4])
    vertices, connections, shifts = _graph_rows(group, 9, 6)
    whole = reduction._graph_counts(group, vertices, connections, shifts)
    cut = []
    cycle_counts = linform._cycle_counts
    monkeypatch.setattr(
        linform, "_cycle_counts", lambda *e: cut.append(e[0].shape[:2]) or cycle_counts(*e)
    )
    monkeypatch.setattr(linform, "_GRID_BLOCK", 1)
    sliced = reduction._graph_counts(group, vertices, connections, shifts)
    assert set(cut) == {(1, 1)}
    assert len(cut) == vertices.sum() and vertices.sum(axis=1).max() >= 3
    assert all(np.array_equal(x, y) for x, y in zip(whole, sliced))
    for v, c, s, p, t in zip(vertices, connections, shifts, *sliced):
        b = GroupSubset(group, v)
        u = DirectedCayleyGraph(b, GroupSubset(group, c).translate(-group.from_index(int(s))))
        m = b.size
        assert (Fraction(int(p), m * m), Fraction(int(t), m**3)) == _oracle_graph_densities(u)


def test_witness_counts_one_graph_per_distinct_gj(monkeypatch):
    spec = build_witness(2, [5, 5])
    a = spec.subset
    passed = []
    graph_counts = reduction._graph_counts
    monkeypatch.setattr(
        reduction,
        "_graph_counts",
        lambda group, b, c, s: passed.append(s) or graph_counts(group, b, c, s),
    )
    report = verify_witness(spec)
    _, good = linform.solve_rows(build_M(2), a, linform.prefix_row(a, ()))
    assert report.good_g_count == len(good) == 400
    for j, shifts in enumerate(passed, start=1):
        owner, z = linform.solve_rows(build_V(2, j), a, good)
        b = np.flatnonzero(spec.expected_B(j).bits)
        right = np.array([np.array_equal(z[owner == r, 0], b) for r in range(len(good))])
        assert shifts.tolist() == sorted(set(good[right, j - 1].tolist()))
        assert len(shifts) == 20
    assert len(passed) == 2


def test_listing_makes_no_count_rows_call(monkeypatch):
    # solve_rows grows its frontier from the tables of `_tables`, and B_j is
    # the slot column of solve_rows(V_j, ...), so listing never counts
    calls = []
    count_rows = linform.count_rows

    def spy(system, *args, **kwargs):
        calls.append(system)
        return count_rows(system, *args, **kwargs)

    monkeypatch.setattr(linform, "count_rows", spy)
    spec = build_witness(2, [3, 3])
    a = spec.subset
    none = linform.prefix_row(a, ())
    _, good = linform.solve_rows(build_M(2), a, none)  # one level per variable
    owner, _ = linform.solve_rows(build_M(2), a, good)  # no free variable
    assert owner.tolist() == list(range(len(good))) and len(good)
    _, free = linform.solve_rows(linform.parse_system("[g2]"), a, none)  # g1 ends no form
    assert len(free) == a.group.order * a.size
    g = tuple(a.group.from_index(int(i)) for i in good[0])
    assert compute_B_C(a, g, 1)[0] == spec.expected_B(1)
    assert verify_witness(spec).ok
    assert calls == []


def _per_g_witness(spec):
    """verify_witness one g and one j at a time, through the public 1-row
    calls, as the reference for the batched verifier."""
    a = spec.subset
    good = linform.enumerate_satisfying(build_M(spec.k), a)
    b_violations, k2_violations, seen = [], [], {}
    for g in good:
        for j in range(1, spec.k + 1):
            b, c = compute_B_C(a, g, j)
            if b != spec.expected_B(j):
                b_violations.append(f"B_{j} mismatch at g={[e.residues for e in g]}")
                continue
            k2, k3 = graph_densities(DirectedCayleyGraph(b, c))
            x = 1 - Fraction(1, spec.n[j - 1])
            if k2 != x:
                k2_violations.append(f"k2={k2} != {x} at g={[e.residues for e in g]}, j={j}")
            key = (j, g[j - 1].residues[j])
            if key not in seen:
                seen[key] = [1, k2, k3]
            else:
                seen[key][0] += 1
                if seen[key][1:] != [k2, k3]:
                    b_violations.append(f"inconsistent densities within class {key}")
    classes = []
    for (j, h), (count, k2, k3) in sorted(seen.items()):
        x = 1 - Fraction(1, spec.n[j - 1])
        classes.append(WitnessClassStat(j, h, count, k2, k3, 2 * x**2 - x))
    return WitnessReport(spec, len(good), tuple(b_violations), tuple(k2_violations), tuple(classes))


@pytest.mark.parametrize(
    ("n", "seed", "first"),
    [((3, 3), 0, 0), ((3, 3), 1, 1), ((2, 3), 2, 1), ((4, 2), 5, 1), ((4, 2), 53, 1)],
)
def test_batched_witness_matches_per_g_reference(n, seed, first):
    # flipping a few bits of A in the slices first..k breaks B (slice 0), k2
    # and the consistency of the classes (slices 1..k) at some g
    spec = build_witness(2, n)
    bits = spec.subset.bits.copy()
    rng = np.random.default_rng(seed)
    rt0 = spec.group.residue_table(0)
    inside = np.flatnonzero((rt0 >= first) & (rt0 <= 2))
    bits[rng.choice(inside, rng.integers(1, 6), replace=False)] ^= True
    spec = WitnessSpec(spec.k, spec.n, spec.group, GroupSubset(spec.group, bits))
    expected = _per_g_witness(spec)
    assert verify_witness(spec).to_dict() == expected.to_dict()
    if first == 0:
        assert any("mismatch" in v for v in expected.b_violations)
    if n == (4, 2):
        assert any("inconsistent" in v for v in expected.b_violations)
        assert expected.k2_violations


def test_homdensity_identity_random_instances():
    group = FiniteAbelianGroup([9, 2])
    rng = np.random.Generator(np.random.Philox(key=5))
    m = build_M(2)
    from addforms.linform import enumerate_satisfying

    found = 0
    while found < 5:
        a = GroupSubset(group, rng.random(group.order) < 0.5)
        good = enumerate_satisfying(m, a)
        if not good:
            continue
        g = good[0]
        for j in (1, 2):
            rep = verify_homdensity_identity(a, g, j)
            assert not rep.vacuous
            assert rep.ok
        found += 1


@pytest.mark.parametrize("moduli, k", [([9, 2], 2), ([16], 2), ([5, 5], 2), ([9, 2], 3)])
def test_homdensity_vacuous_exactly_when_M_fails(moduli, k):
    group = FiniteAbelianGroup(moduli)
    rng = np.random.Generator(np.random.Philox(key=len(moduli) + k))
    m = build_M(k)
    seen = Counter()
    while min(seen[True], seen[False]) < 4:
        a = GroupSubset(group, rng.random(group.order) < 0.5)
        good = linform.enumerate_satisfying(m, a)
        if good and rng.random() < 0.5:
            g = good[int(rng.integers(len(good)))]
        else:
            g = tuple(group.from_index(int(i)) for i in rng.integers(group.order, size=k))
        fails = eval_density_fixed(m, a, g) == 0
        seen[fails] += 1
        for j in range(1, k + 1):
            assert verify_homdensity_identity(a, g, j).vacuous == fails


def test_homdensity_vacuous_and_full():
    group = FiniteAbelianGroup([9, 2])
    a = GroupSubset.empty(group)
    g = (group.element([1, 0]), group.element([2, 0]))
    rep = verify_homdensity_identity(a, g, 1)
    assert rep.vacuous and rep.ok

    full = GroupSubset.full(group)
    # no negated form can hold inside A = G, so the check is vacuous
    rep_full = verify_homdensity_identity(full, g, 1)
    assert rep_full.vacuous

    # drop the excluded element so M(g) can hold: A = G minus {(3,0)} with g = (1,2)
    z9 = FiniteAbelianGroup([9])
    bits = np.ones(9, dtype=bool)
    bits[3] = False
    a9 = GroupSubset(z9, bits)
    g9 = (z9.element([1]), z9.element([2]))
    rep9 = verify_homdensity_identity(a9, g9, 1)
    assert not rep9.vacuous
    assert rep9.ok


def test_witness_sizes():
    spec = build_witness(2, [3, 3])
    assert spec.group.order == 81
    assert spec.subset.size == 21
    spec22 = build_witness(2, [2, 2])
    assert spec22.group.order == 36
    assert spec22.subset.size == 8
    # coordinate subgroup sizes: |H_j| / |H| = 1 / n_j
    h_order = 3 * 3
    rt = spec.group.residue_table(1)
    hj_size = int(((spec.group.residue_table(0) == 0) & (rt == 0)).sum())
    assert Fraction(hj_size, h_order) == Fraction(1, 3)


def test_witness_expected_B_and_C():
    spec = build_witness(2, [3, 3])
    a = spec.subset
    g = (spec.group.element([1, 1, 0]), spec.group.element([2, 0, 1]))
    assert eval_density_fixed(build_M(2), a, g) == 1
    b, c = compute_B_C(a, g, 1)
    assert b == spec.expected_B(1)
    # C = {0} x ((H minus H_1) - h) with h the H-part of g1
    expected_c = set()
    for h1 in range(3):
        for h2 in range(3):
            if h1 == 0:
                continue
            expected_c.add((0, (h1 - 1) % 3, (h2 - 0) % 3))
    assert {e.residues for e in c.elements()} == expected_c


def test_verify_witness_3_3():
    spec = build_witness(2, [3, 3])
    report = verify_witness(spec)
    assert report.good_g_count == 36
    assert report.ok
    assert report.b_violations == () and report.k2_violations == ()
    assert len(report.classes) == 4
    for stat in report.classes:
        assert stat.k2 == Fraction(2, 3)
        assert stat.k3_measured == Fraction(2, 9)
        assert stat.k3_claimed == Fraction(2, 9)
        assert stat.agree


def test_verify_witness_2_2_measures_quarter():
    spec = build_witness(2, [2, 2])
    report = verify_witness(spec)
    assert report.ok  # B and k2 checks pass; k3 is reported, not asserted
    for stat in report.classes:
        assert stat.k2 == Fraction(1, 2)
        assert stat.k3_measured == Fraction(1, 4)
        assert stat.k3_claimed == 0
        assert not stat.agree


@pytest.mark.parametrize(
    "k, n",
    [
        (2, [5, 5]), (2, [4, 4]), (2, [3, 5]), (2, [6, 6]), (2, [4, 6]),
        (3, [2, 2, 2]), (3, [3, 4, 5]),
    ],
)
def test_witness_3_cycles_follow_their_closed_form(k, n):
    # k3 = 1 - 3/n + (3 - [n | 3h]) / n^2 for class h of slot j, n = n_j: the
    # claim 2x^2 - x = (1 - 1/n)(1 - 2/n) exactly when n divides 3h, 1/n^2
    # more otherwise; which side is off, the construction or the claim, is open
    # (the default budget refuses (3; 3,4,5) at a predicted 1.2 * 10^10)
    budget = 10**13 if n == [3, 4, 5] else None
    report = verify_witness(build_witness(k, n), budget=budget)
    assert report.ok and report.classes
    for stat in report.classes:
        m = n[stat.j - 1]
        divides = 3 * stat.h_class % m == 0
        assert stat.k3_measured == 1 - Fraction(3, m) + Fraction(3 - divides, m * m)
        assert stat.agree == divides


def test_verify_pinpoint_small():
    rep2 = verify_pinpoint(2)
    assert rep2.checked == 81 and rep2.ok
    rep3 = verify_pinpoint(3)
    assert rep3.checked == 4096 and rep3.ok
    assert rep3.m_satisfying == 1
    with pytest.raises(ValueError):
        verify_pinpoint(1)


@pytest.mark.parametrize("k", range(2, 13))
def test_verify_pinpoint_through_k12(k):
    rep = verify_pinpoint(k, budget=10**40)
    assert rep.checked == (k + 1) ** (2 * k)
    assert rep.m_satisfying == 1
    assert not [v for v in rep.violations if v.startswith("M:")]
    assert not [v for v in rep.violations if "*g1" in v]


@pytest.mark.parametrize("k", range(2, 13))
def test_verify_pinpoint_ok_through_k12(k):
    assert verify_pinpoint(k, budget=10**40).ok


# Coordinates gj = 0 among the L-solutions, k = 2..17: the pairs (g1, j) with
# 2 <= j <= k, g1 not divisible by k + 1 and j*g1 divisible by (k+1)^2
# (k = 5: g1 = 9 and 27 with j = 4 over Z36).
_GJ_ZERO_HITS = {5: 2, 9: 4, 11: 10, 13: 6, 14: 6, 17: 12}


@pytest.mark.parametrize("k", range(2, 18))
def test_pinpoint_solution_sets_through_k17(k):
    rep = verify_pinpoint(k, budget=10**80)
    assert rep.ok, rep.violations
    assert rep.l_satisfying == k * (k + 1)
    assert rep.m_satisfying == 1
    assert rep.gj_zero_hits == _GJ_ZERO_HITS.get(k, 0)


def _filtered_solutions(monkeypatch, keep):
    solve = linform.solve_rows

    def filtered(*args, **kwargs):
        owner, free = solve(*args, **kwargs)
        rows = np.array([keep(row) for row in free.tolist()], dtype=bool)
        return owner[rows], free[rows]

    monkeypatch.setattr(linform, "solve_rows", filtered)


def test_pinpoint_flags_a_missing_solution(monkeypatch):
    _filtered_solutions(monkeypatch, lambda row: row != [1, 2, 3, 4, 5])
    rep = verify_pinpoint(5, budget=10**40)
    assert rep.violations == (
        "L: g=[1, 2, 3, 4, 5] is not a solution",
        "M: g=[1, 2, 3, 4, 5] is not a solution",
    )
    assert rep.gj_zero_hits == 2


def test_pinpoint_checks_gj_zero_hits_against_the_closed_form(monkeypatch):
    _filtered_solutions(monkeypatch, lambda row: 0 not in row)
    rep = verify_pinpoint(5, budget=10**40)
    assert rep.violations == (
        "L: g=[9, 18, 27, 0, 9] is not a solution",
        "L: g=[27, 18, 9, 0, 27] is not a solution",
        "L: 0 coordinates gj = 0, closed form 2",
    )
    assert rep.gj_zero_hits == 0


def test_pinpoint_flags_extra_solutions(monkeypatch):
    solve = linform.solve_rows

    def with_extra(*args, **kwargs):
        owner, free = solve(*args, **kwargs)
        extra = np.array([[2, 4, 7, 8], [5, 10, 15, 20]])  # g3 != 3*g1; g1 = 0 mod 5
        return np.concatenate([owner, [0, 0]]), np.concatenate([free, extra])

    monkeypatch.setattr(linform, "solve_rows", with_extra)
    rep = verify_pinpoint(4, budget=10**40)
    assert rep.violations == (
        "L: g=[2, 4, 7, 8] has g3 != 3*g1",
        "L: g=[5, 10, 15, 20] has g1 divisible by 5",
        "M: g=[2, 4, 7, 8] has g1 != 1",
        "M: g=[2, 4, 7, 8] has g2 != 2",
        "M: g=[2, 4, 7, 8] has g3 != 3",
        "M: g=[2, 4, 7, 8] has g4 != 4",
        "M: g=[5, 10, 15, 20] has g1 != 1",
        "M: g=[5, 10, 15, 20] has g2 != 2",
        "M: g=[5, 10, 15, 20] has g3 != 3",
        "M: g=[5, 10, 15, 20] has g4 != 4",
    )


def test_pinpoint_intended_solution_satisfies_M():
    for k in (2, 3):
        group = FiniteAbelianGroup([(k + 1) ** 2])
        s = GroupSubset.from_indices(group, range(k + 1))
        g = tuple(group.element([j]) for j in range(1, k + 1))
        assert eval_density_fixed(build_M(k), s, g) == 1


def test_eval_reduction_examples():
    z2 = FiniteAbelianGroup([2])
    bundle = build_psi(parse_poly("x1 - y1"), 1)
    assert eval_quantum(bundle.psi, GroupSubset.full(z2)) == 0
    assert eval_quantum(bundle.psi, GroupSubset.empty(z2)) == 0

    const = build_psi(IntPolynomial.constant(3, ("x1", "y1")), 1)
    assert eval_quantum(const.psi, GroupSubset.empty(z2)) == 3
    assert eval_quantum(const.psi, GroupSubset.full(z2)) == 3


def test_eval_reduction_matches_qstar_evaluation():
    z3 = FiniteAbelianGroup([3])
    rng = random.Random(3)
    bundle = build_psi(parse_poly("x1y1 - 2y1 + x1"), 1)
    for _ in range(6):
        a = subset_from_mask(z3, rng.randrange(1 << z3.order))
        densities = (
            [eval_density(v, a) for v in bundle.V]
            + [eval_density(e, a) for e in bundle.E]
            + [eval_density(t, a) for t in bundle.T]
        )
        assert eval_quantum(bundle.psi, a) == poly_eval(bundle.qstar, densities)


def test_shared_g_rows_match_per_g_quantum():
    group = FiniteAbelianGroup([9])
    bundle = build_psi(parse_poly("x1^2 - y1 + x2*y2"), 2)
    bits = np.ones(9, dtype=bool)
    bits[[3, 6]] = False
    for a in (GroupSubset(group, bits), GroupSubset(group, np.arange(9) != 3)):
        good = linform.enumerate_satisfying(bundle.M, a)
        assert good
        nonconst = linform.QuantumSystem(tuple(t for t in bundle.psi.terms if t[1]))
        const = sum(c for c, f in bundle.psi.terms if not f)
        direct = sum((eval_quantum(nonconst, a, g) for g in good), Fraction(0))
        assert eval_reduction_shared_g(bundle, a) == const + direct / group.order**2


def test_shared_g_average_matches_direct():
    z2 = FiniteAbelianGroup([2])
    bundle = build_psi(parse_poly("x1 - y1"), 1)
    rng = random.Random(8)
    for mask in range(1, 1 << 2):
        a = subset_from_mask(z2, mask)
        direct = sum(
            (eval_quantum(bundle.psi, a, (g,)) for g in z2), Fraction(0)
        ) / z2.order
        assert eval_reduction_shared_g(bundle, a) == direct


def test_shared_g_value_of_the_witness_is_pinned():
    # the value that triangle stacks over all of G give; the T_j triangle
    # is gathered onto the 25 values of B_j among the 225 of G
    bundle = build_psi(parse_poly("x1*x2 - 3*y2^2 + 1"), 2)
    a = build_witness(2, (5, 5)).subset
    assert eval_reduction_shared_g(bundle, a) == Fraction(8288, 357449882108765625)
