import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import oracles
from conftest import subset_from_mask, subset_from_tuples

from addforms import bounds
from addforms.abelian import FiniteAbelianGroup, GroupSubset
from addforms.bounds import (
    bollobas_branch,
    bollobas_h,
    bollobas_on_branch,
    check_energy_bound,
    check_energy_doubling,
    check_kneser,
    check_plunnecke_ruzsa,
    delta,
    delta_branch,
    delta_double_prime_on_branch,
    delta_prime,
    delta_prime_on_branch,
    delta_double_prime,
    energy_bound_rows,
    energy_doubling_rows,
    energy_upper_bound,
    in_region_R_energy,
    in_region_R_graph,
    kneser_rows,
    plunnecke_ruzsa_rows,
    verify_delta_derivative_claims,
)
from addforms.errors import CapExceeded


def test_bollobas_h_examples():
    assert bollobas_h(Fraction(1, 2)) == 0
    assert bollobas_h(Fraction(2, 3)) == Fraction(2, 9)
    assert bollobas_h(1) == 1
    assert bollobas_h(0) == 0
    with pytest.raises(ValueError):
        bollobas_h(Fraction(3, 2))
    # right-open branches [1 - 1/t, 1 - 1/(t+1)): a breakpoint opens the next one
    points = [0, Fraction(1, 2), Fraction(3, 5), Fraction(2, 3)]
    assert [bollobas_branch(x) for x in points] == [1, 2, 2, 3]
    with pytest.raises(ValueError):
        bollobas_branch(1)


def test_bollobas_h_breakpoint_identity():
    for t in range(1, 101):
        x = 1 - Fraction(1, t)
        assert bollobas_h(x) == Fraction((t - 1) * (t - 2), t * t)


def test_bollobas_h_continuity_and_monotonicity():
    for t in range(1, 101):
        x = 1 - Fraction(1, t + 1)
        assert bollobas_on_branch(t + 1, x) == bollobas_on_branch(t, x)
    rng = random.Random(2)
    points = sorted(Fraction(rng.randrange(0, 1000), 1000) for _ in range(200))
    values = [bollobas_h(p) for p in points]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi


def test_region_graph_examples():
    assert in_region_R_graph(Fraction(1, 2), 0)
    assert in_region_R_graph(1, 1)
    assert not in_region_R_graph(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        in_region_R_graph(2, 0)


def test_energy_upper_bound_examples():
    assert energy_upper_bound(Fraction(1, 2)) == Fraction(1, 8)
    assert energy_upper_bound(Fraction(2, 5)) == Fraction(36, 625)
    assert energy_upper_bound(0) == 0
    for n in range(1, 101):
        assert energy_upper_bound(Fraction(1, n)) == Fraction(1, n**3)
    rng = random.Random(5)
    for _ in range(50):
        alpha = Fraction(rng.randrange(1, 100), rng.randrange(100, 200))
        if (1 / alpha).denominator != 1:
            assert energy_upper_bound(alpha) < alpha**3


def test_region_energy():
    assert in_region_R_energy(Fraction(1, 2), Fraction(1, 8))
    assert not in_region_R_energy(Fraction(1, 2), Fraction(1, 4))


def test_delta_examples():
    for n in range(1, 11):
        assert delta(Fraction(1, n)) == 0
    assert delta(Fraction(2, 5)) == Fraction(4, 625)
    assert delta(0) == 0
    rng = random.Random(6)
    for _ in range(200):
        alpha = Fraction(rng.randrange(1, 500), 500)
        assert delta(alpha) >= 0
        assert delta(alpha) == alpha**3 - energy_upper_bound(alpha)


def test_delta_branch_convention():
    # alpha = 1/m sits in the lower-t branch m-1
    assert delta_branch(Fraction(1, 3)) == 2
    assert delta_branch(Fraction(1, 2)) == 1
    assert delta_branch(1) == 1
    assert delta_branch(Fraction(2, 5)) == 2
    assert delta_branch(Fraction(3, 4)) == 1
    with pytest.raises(ValueError):
        delta_branch(0)


def test_delta_prime_branch_values_at_shared_endpoints():
    third = Fraction(1, 3)
    assert delta_prime_on_branch(2, third) == Fraction(1, 9)
    assert delta_prime_on_branch(3, third) == Fraction(-1, 9)
    assert delta_prime(third) == Fraction(1, 9)  # lower-t convention
    half = Fraction(1, 2)
    assert delta_double_prime_on_branch(1, half) == 1
    assert delta_double_prime_on_branch(2, half) == -5
    assert delta_double_prime(half) == 1


def test_delta_second_branch_example():
    assert delta_double_prime_on_branch(1, Fraction(3, 4)) == -2


def test_verify_delta_derivative_claims_small_grid():
    report = verify_delta_derivative_claims(step=Fraction(1, 200), t_max=8)
    assert report.ok
    names = {s.name for s in report.segments}
    assert "delta_prime[1/3,2/5]" in names
    assert "delta_second[1/4,1/3]" in names
    # boundary t = 3 left endpoint achieves the bound exactly
    seg = next(s for s in report.segments if s.name == "delta_second[1/4,1/3]")
    assert seg.extreme == Fraction(-1, 2)
    assert any(
        s.branch == 2 and s.name == "delta_second[2/5,1/2]" for s in report.segments
    )


def _fraction_grid_segment(segment, step):
    """(points, extreme, violations) of one claim segment with every grid
    point evaluated in Fractions: lo, then each multiple of step strictly
    inside (lo, hi), then hi."""
    if segment.name.startswith("delta_prime"):
        on_branch, symbol, bound, below = bounds.delta_prime_on_branch, "delta'", Fraction(1, 20), True
    else:
        on_branch, symbol, bound, below = bounds.delta_double_prime_on_branch, "delta''", Fraction(-1, 2), False
    lo, hi = segment.lo, segment.hi
    inner = [i * step for i in range(math.ceil(lo / step), math.floor(hi / step) + 1)]
    points = [lo] + [p for p in inner if lo < p < hi] + ([hi] if hi != lo else [])
    values = [on_branch(segment.branch, p) for p in points]
    fails = "<" if below else ">"
    bad = tuple(
        f"{symbol}({p}) = {v} {fails} {bound}"
        for p, v in zip(points, values)
        if (v < bound if below else v > bound)
    )
    return len(points), (min if below else max)(values), bad


@pytest.mark.parametrize(
    "step, t_max",
    [("1/1000", 20), ("1/200", 8), ("1/7", 3), ("3/7", 5), ("1", 4), ("7/12345", 9)],
)
def test_delta_claims_grid_matches_fraction_evaluation(step, t_max):
    step = Fraction(step)
    report = verify_delta_derivative_claims(step=step, t_max=t_max)
    assert len(report.segments) == 4 + max(0, t_max - 2)
    for segment in report.segments:
        want = _fraction_grid_segment(segment, step)
        assert (segment.points, segment.extreme, segment.violations) == want


def test_delta_claims_grid_reports_violations_in_order(monkeypatch):
    # delta'' + 2 breaks every delta'' claim near its left end; the table of
    # integer coefficients, keyed by the symbol, and the function move together
    second = bounds.delta_double_prime_on_branch
    monkeypatch.setattr(bounds, "delta_double_prime_on_branch", lambda t, a: second(t, a) + 2)
    shifted = bounds._BRANCH_COEFFICIENTS["delta''"]
    monkeypatch.setitem(bounds._BRANCH_COEFFICIENTS, "delta''", lambda t: (0, *shifted(t)[1:]))
    step = Fraction(1, 100)
    report = verify_delta_derivative_claims(step=step, t_max=6)
    assert not report.ok
    for segment in report.segments:
        want = _fraction_grid_segment(segment, step)
        assert (segment.points, segment.extreme, segment.violations) == want
    seg = next(s for s in report.segments if s.name == "delta_second[7/10,1]")
    assert seg.violations[0].startswith("delta''(7/10) = ") and len(seg.violations) > 2


# delta'' moved up by 2, which breaks every delta'' claim near its left end
# as in the test above, and a bump -(10a - 3)^2 whose peak 0 lies inside
# [1/4, 1/3]: each as its function and its integer coefficients
_SECOND, _SECOND_COEFFICIENTS = delta_double_prime_on_branch, bounds._BRANCH_COEFFICIENTS["delta''"]
_SECOND_VARIANTS = {
    "delta''": None,
    "shifted": (lambda t, a: _SECOND(t, a) + 2, lambda t: (0, *_SECOND_COEFFICIENTS(t)[1:])),
    "bump": (lambda t, a: -((10 * a - 3) ** 2), lambda t: (-9, 60, -100)),
}


@pytest.mark.parametrize("variant", list(_SECOND_VARIANTS))
@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_delta_claims_grid_in_chunks_matches_fraction_evaluation(monkeypatch, chunk, variant):
    monkeypatch.setattr(bounds, "_GRID_CHUNK", chunk)
    if _SECOND_VARIANTS[variant] is not None:
        on_branch, coefficients = _SECOND_VARIANTS[variant]
        monkeypatch.setitem(bounds._BRANCH_COEFFICIENTS, "delta''", coefficients)
        monkeypatch.setattr(bounds, "delta_double_prime_on_branch", on_branch)
    step = Fraction(1, 100)
    report = verify_delta_derivative_claims(step=step, t_max=6)
    assert report.ok == (variant == "delta''")
    for segment in report.segments:
        want = _fraction_grid_segment(segment, step)
        assert (segment.points, segment.extreme, segment.violations) == want


def _claims_work(report) -> int:
    """Grid points times coefficients over the segments of a report."""
    return sum(s.points * (4 if s.name.startswith("delta_prime") else 3) for s in report.segments)


@pytest.mark.parametrize(
    "step, t_max", [("1/1000", 20), ("1/7", 9), ("1/60", 60), ("3/401", 3), ("1", 0), ("2", 2)]
)
def test_delta_claims_refuse_work_over_the_budget_before_evaluating(monkeypatch, step, t_max):
    step = Fraction(step)
    work = _claims_work(verify_delta_derivative_claims(step=step, t_max=t_max))

    def evaluated(*args):
        raise AssertionError("a grid was evaluated")

    monkeypatch.setattr(bounds, "_grid_numerators", evaluated)
    with pytest.raises(CapExceeded, match=f"predicted work \\d+ exceeds budget {work - 1};"):
        verify_delta_derivative_claims(step=step, t_max=t_max, budget=work - 1)
    # the prediction counts a breakpoint 1/t on the grid as an inner point
    # too, so it is over the work by at most 3 per claim [1/(t+1), 1/t]
    monkeypatch.undo()
    report = verify_delta_derivative_claims(step=step, t_max=t_max, budget=work + 3 * t_max)
    assert _claims_work(report) == work


def test_delta_claims_write_work_beyond_64_bits_as_a_power():
    with pytest.raises(CapExceeded, match=r"predicted work >= 2\^\d+ exceeds budget"):
        verify_delta_derivative_claims(step=Fraction(1, 10**30))
    with pytest.raises(CapExceeded, match=r"predicted work \d+ exceeds budget"):
        verify_delta_derivative_claims(t_max=10**12)


def test_check_kneser_examples():
    z5 = FiniteAbelianGroup([5])
    b = subset_from_tuples(z5, [(0,), (1,)])
    lhs, holds = check_kneser(b, b)
    assert lhs == 0 and holds
    empty = GroupSubset.empty(z5)
    lhs_e, holds_e = check_kneser(empty, b)
    assert holds_e and lhs_e == 1 - b.density()
    full = GroupSubset.full(z5)
    assert check_kneser(full, full) == (0, True)


def test_check_plunnecke_ruzsa_examples():
    z5 = FiniteAbelianGroup([5])
    b = subset_from_tuples(z5, [(0,), (1,)])
    lhs, holds = check_plunnecke_ruzsa(b, b, 1, 1)
    assert lhs == Fraction(3, 25) and holds
    full = GroupSubset.full(z5)
    assert check_plunnecke_ruzsa(full, full, 1, 1) == (0, True)
    z6 = FiniteAbelianGroup([6])
    sub = subset_from_tuples(z6, [(0,), (3,)])
    lhs_s, holds_s = check_plunnecke_ruzsa(sub, sub, 2, 1)
    assert lhs_s == 0 and holds_s
    # an empty A is vacuous, as in the sweeps
    assert check_plunnecke_ruzsa(GroupSubset.empty(z5), b, 1, 1) == (0, True)


def test_check_energy_doubling_examples():
    z5 = FiniteAbelianGroup([5])
    b = subset_from_tuples(z5, [(0,), (1,)])
    lhs, holds = check_energy_doubling(b)
    assert lhs == Fraction(2, 625) and holds
    assert check_energy_doubling(GroupSubset.full(z5)) == (0, True)
    z6 = FiniteAbelianGroup([6])
    sub = subset_from_tuples(z6, [(0,), (2,), (4,)])
    assert check_energy_doubling(sub) == (0, True)
    assert check_energy_doubling(GroupSubset.empty(z5)) == (0, True)


def test_check_energy_bound_examples():
    z4 = FiniteAbelianGroup([4])
    for n in (2, 3, 7):
        zn = FiniteAbelianGroup([n])
        slack, holds = check_energy_bound(subset_from_tuples(zn, [(0,)]))
        assert slack == 0 and holds
    sub = subset_from_tuples(z4, [(0,), (2,)])
    assert check_energy_bound(sub) == (0, True)
    interval = subset_from_tuples(z4, [(0,), (1,)])
    slack, holds = check_energy_bound(interval)
    assert slack == Fraction(2, 64) and holds
    assert check_energy_bound(GroupSubset.empty(z4)) == (0, True)


def test_classical_inequalities_small_sweeps():
    z4 = FiniteAbelianGroup([4])
    subsets = [subset_from_mask(z4, m) for m in range(1 << 4)]
    for a in subsets:
        assert check_energy_doubling(a)[1]
        if a.size:
            assert check_energy_bound(a)[1]
        for b in subsets:
            assert check_kneser(a, b)[1]
            if a.size:
                assert check_plunnecke_ruzsa(a, b, 1, 1)[1]
                assert check_plunnecke_ruzsa(a, b, 2, 1)[1]


# The left-hand sides as densities, the way the inequalities are stated,
# from the brute-force oracles (the checkers run on the library's row
# kernels, so these must not).


def residues(a):
    return frozenset(e.residues for e in a.elements())


def density(size, a):
    return Fraction(size, a.group.order)


@lru_cache(maxsize=None)
def oracle_energy(moduli, a_set):
    return Fraction(oracles.oracle_energy_raw(moduli, a_set), math.prod(moduli) ** 3)


@lru_cache(maxsize=None)
def oracle_folded(moduli, b_set, r, s):
    return len(oracles.oracle_signed_sumset(moduli, b_set, r, s))


def kneser_lhs(a, b):
    moduli = a.group.moduli
    s = oracles.oracle_sumset(moduli, residues(a), residues(b))
    stab = oracles.oracle_stabilizer(moduli, s)
    return density(len(s), a) - a.density() - b.density() + density(len(stab), a)


def plunnecke_ruzsa_lhs(a, b, r, s):
    moduli = a.group.moduli
    folded = density(oracle_folded(moduli, residues(b), r, s), a)
    sums = density(len(oracles.oracle_sumset(moduli, residues(a), residues(b))), a)
    return sums ** (r + s) - a.density() ** (r + s - 1) * folded


def energy_doubling_lhs(a):
    moduli = a.group.moduli
    doubled = density(len(oracles.oracle_sumset(moduli, residues(a), residues(a))), a)
    return oracle_energy(moduli, residues(a)) * doubled - a.density() ** 4


def energy_bound_lhs(a):
    return energy_upper_bound(a.density()) - oracle_energy(a.group.moduli, residues(a))


def all_subsets(group):
    masks = [subset_from_mask(group, m) for m in range(1 << group.order)]
    return masks, np.array([m.bits for m in masks])


_FOLDS = [(1, 0), (0, 1), (2, 1), (2, 2)]


def test_numerators_equal_lhs_on_every_small_subset():
    for moduli in oracles.group_presentations(8):
        group = FiniteAbelianGroup(moduli)
        subsets, bits = all_subsets(group)
        doubling, den_d = energy_doubling_rows(group, bits)
        bound, den_b = energy_bound_rows(group, bits)
        for i, a in enumerate(subsets):
            lhs = energy_doubling_lhs(a)
            assert Fraction(int(doubling[i]), den_d) == lhs
            assert check_energy_doubling(a) == (lhs, lhs >= 0)
            if a.size:
                lhs = energy_bound_lhs(a)
                assert Fraction(int(bound[i]), den_b) == lhs
                assert check_energy_bound(a) == (lhs, lhs >= 0)
            else:
                assert bound[i] == 0  # vacuous


def test_numerators_equal_lhs_on_every_small_pair():
    for moduli in oracles.group_presentations(5):
        group = FiniteAbelianGroup(moduli)
        subsets, bits = all_subsets(group)
        pairs = [(a, b) for a in subsets for b in subsets]
        a_bits = np.repeat(bits, len(subsets), axis=0)
        b_bits = np.tile(bits, (len(subsets), 1))
        kneser, den = kneser_rows(group, a_bits, b_bits)
        for i, (a, b) in enumerate(pairs):
            lhs = kneser_lhs(a, b)
            assert Fraction(int(kneser[i]), den) == lhs
            assert check_kneser(a, b) == (lhs, lhs >= 0)
        for r, s in _FOLDS:
            numerators, den = plunnecke_ruzsa_rows(group, a_bits, b_bits, r, s)
            for i, (a, b) in enumerate(pairs):
                if not a.size:
                    assert numerators[i] == 0  # vacuous
                    continue
                lhs = plunnecke_ruzsa_lhs(a, b, r, s)
                assert Fraction(int(numerators[i]), den) == lhs
                assert check_plunnecke_ruzsa(a, b, r, s) == (lhs, lhs >= 0)


def test_plunnecke_ruzsa_rows_refuse_bad_folds():
    group = FiniteAbelianGroup([4])
    _, bits = all_subsets(group)
    for (r, s), message in [((0, 0), "r \\+ s >= 1"), ((2, -1), "nonnegative")]:
        with pytest.raises(ValueError, match=message):
            plunnecke_ruzsa_rows(group, bits, bits, r, s)
        with pytest.raises(ValueError, match=message):
            check_plunnecke_ruzsa(subset_from_mask(group, 1), subset_from_mask(group, 1), r, s)


def test_energy_bound_rows_beyond_int64():
    # |G|^4 = 2^64: the numerators leave int64 for Python integers
    group = FiniteAbelianGroup([65536])
    rng = np.random.Generator(np.random.Philox(key=11))
    # |G| * |A|^3 passes 2^63 once |A| > 0.79 |G|
    bits = rng.random((3, group.order)) < np.array([[0.97], [0.5], [0.2]])
    numerators, den = energy_bound_rows(group, bits)
    assert den == 2**64 and numerators.dtype == object
    for row, numerator in zip(bits, numerators):
        assert (Fraction(numerator, den), numerator >= 0) == check_energy_bound(
            GroupSubset(group, row)
        )
    small = FiniteAbelianGroup([256])
    assert energy_bound_rows(small, bits[:, :256])[0].dtype == np.int64
