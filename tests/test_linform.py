import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import subset_from_mask, subset_from_tuples

from addforms import abelian, linform
from addforms.abelian import FiniteAbelianGroup, GroupSubset, SumCode, additive_energy
from addforms.errors import CapExceeded, GroupMismatchError, ParseError
from addforms.linform import (
    LinearForm,
    LinearSystem,
    QuantumSystem,
    count_rows,
    estimate_density,
    eval_density,
    eval_density_fixed,
    eval_form,
    eval_quantum,
    enumerate_satisfying,
    format_quantum,
    format_system,
    parse_quantum,
    parse_system,
    prefix_row,
    solve_rows,
)
from addforms.reduction import build_M


def _forms_as_tuples(system):
    return [(f.coefficients, f.negated) for f in system.forms]


def test_eval_form_examples():
    z9 = FiniteAbelianGroup([9])
    f = LinearForm(2, (-2, 1))
    assert eval_form(f, (z9.element([1]), z9.element([2]))) == z9.identity()
    g = LinearForm(1, (3,))
    assert eval_form(g, (z9.element([3]),)) == z9.identity()
    zero = LinearForm(2, (0, 0))
    assert eval_form(zero, (z9.element([4]), z9.element([7]))) == z9.identity()
    with pytest.raises(ValueError):
        eval_form(f, (z9.element([1]),))


def test_eval_density_examples():
    z4 = FiniteAbelianGroup([4])
    a = subset_from_tuples(z4, [(0,), (2,)])
    assert eval_density(parse_system("[g1]"), a) == Fraction(1, 2)

    z2 = FiniteAbelianGroup([2])
    zero = subset_from_tuples(z2, [(0,)])
    assert eval_density(parse_system("[g1; g2; g1+g2]"), zero) == Fraction(1, 4)
    assert eval_density(parse_system("[!g1]"), zero) == Fraction(1, 2)

    b = subset_from_tuples(z4, [(0,), (1,)])
    energy_system = parse_system("[g1; g2; g3; g1+g2-g3]")
    assert eval_density(energy_system, b) == additive_energy(b) == Fraction(6, 64)


def test_eval_density_matches_oracle():
    systems = [
        parse_system("[g1]"),
        parse_system("[!(2g1); g2]"),
        parse_system("[g1; g2; g1+g2]"),
        parse_system("[2g1 - g2; !(g1 + g2)]"),
    ]
    rng = random.Random(9)
    for moduli in [(3, 2), (2, 2, 3)]:
        group = FiniteAbelianGroup(moduli)
        tuples = list(oracles.all_tuples(moduli))
        for _ in range(8):
            mask = rng.randrange(1 << group.order)
            a_set = {tuples[i] for i in range(group.order) if mask >> i & 1}
            a = subset_from_tuples(group, a_set)
            for system in systems:
                expected = oracles.oracle_density(
                    moduli, _forms_as_tuples(system), a_set, system.arity
                )
                assert eval_density(system, a) == expected


def test_eval_density_denominator_divides_group_power():
    group = FiniteAbelianGroup([6])
    a = subset_from_tuples(group, [(0,), (1,), (3,)])
    for text in ["[g1]", "[g1; g2]", "[g1+g2; g2]"]:
        system = parse_system(text)
        d = eval_density(system, a)
        assert (group.order**system.arity) % d.denominator == 0


def test_eval_density_work_cap():
    group = FiniteAbelianGroup([64])
    a = GroupSubset.full(group)
    system = parse_system("[g1; g2; g3; g4]")
    with pytest.raises(CapExceeded):
        eval_density(system, a, budget=10**6)


def test_eval_density_threads_match_single():
    group = FiniteAbelianGroup([5])
    system = parse_system("[g1; g2; g1+g2; g1-g2]")
    rng = random.Random(13)
    for _ in range(6):
        a = subset_from_mask(group, rng.randrange(1 << group.order))
        a_set = {group.from_index(int(i)).residues for i in np.flatnonzero(a.bits)}
        want = oracles.oracle_density((5,), _forms_as_tuples(system), a_set, system.arity)
        assert eval_density(system, a) == want


def test_eval_density_fixed_examples():
    z3 = FiniteAbelianGroup([3])
    a = subset_from_tuples(z3, [(0,)])
    system = parse_system("[g1; g2]")
    fixed_good = (z3.element([0]), z3.element([0]))
    assert eval_density_fixed(system, a, fixed_good) == 1
    fixed_bad = (z3.element([1]), z3.element([0]))
    assert eval_density_fixed(system, a, fixed_bad) == 0
    assert eval_density_fixed(system, a, (z3.element([0]),)) == Fraction(1, 3)


def test_eval_density_fixed_is_conditional_slice():
    moduli = (2, 2)
    group = FiniteAbelianGroup(moduli)
    system = parse_system("[g1+g2; g2; !(g1)]")
    rng = random.Random(21)
    for _ in range(6):
        a = subset_from_mask(group, rng.randrange(1 << group.order))
        total = Fraction(0)
        for g1 in group:
            total += eval_density_fixed(system, a, (g1,))
        assert total / group.order == eval_density(system, a)


def test_enumerate_satisfying_order_and_content():
    group = FiniteAbelianGroup([4])
    a = subset_from_tuples(group, [(0,), (1,)])
    rows = enumerate_satisfying(parse_system("[g1; g2; g1+g2]"), a)
    as_tuples = [(r[0].residues[0], r[1].residues[0]) for r in rows]
    assert as_tuples == [(0, 0), (0, 1), (1, 0)]


def test_negation_complement():
    group = FiniteAbelianGroup([6])
    rng = random.Random(31)
    for _ in range(10):
        a = subset_from_mask(group, rng.randrange(1 << group.order))
        pos = LinearSystem.of([LinearForm(1, (2,))])
        neg = LinearSystem.of([LinearForm(1, (2,), negated=True)])
        assert eval_density(pos, a) + eval_density(neg, a) == 1
    contradictory = parse_system("[g1; !(g1)]")
    z2 = FiniteAbelianGroup([2])
    assert eval_density(contradictory, GroupSubset.full(z2)) == 0


def test_disjoint_union_product_consistency():
    group = FiniteAbelianGroup([4])
    rng = random.Random(17)
    left = parse_system("[g1; 2g1]")
    right_shifted = LinearSystem.of(
        [LinearForm(2, (0, 1)), LinearForm(2, (0, 3), negated=True)]
    )
    union = LinearSystem.of(
        [f.embedded(2) for f in left.forms] + list(right_shifted.forms)
    )
    right_alone = LinearSystem.of([LinearForm(1, (1,)), LinearForm(1, (3,), negated=True)])
    for _ in range(10):
        a = subset_from_mask(group, rng.randrange(1 << group.order))
        assert eval_density(union, a) == eval_density(left, a) * eval_density(
            right_alone, a
        )


def test_quantum_examples():
    z4 = FiniteAbelianGroup([4])
    a = subset_from_tuples(z4, [(0,), (2,)])
    one_var = parse_system("[g1]")
    product = QuantumSystem(((1, (one_var, one_var)),))
    assert eval_quantum(product, a) == Fraction(1, 4)
    linear = parse_quantum("2*[g1] - 1*[g1]")
    assert eval_quantum(linear, a) == a.density()
    b = subset_from_tuples(z4, [(0,), (1,)])
    triple = parse_quantum("1*[g1; g2; g1+g2]")
    assert eval_quantum(triple, b) == Fraction(3, 16)
    constant = parse_quantum("7")
    assert eval_quantum(constant, b) == 7


def test_quantum_coefficient_only_terms():
    q = parse_quantum("3 - 2*[g1]")
    z2 = FiniteAbelianGroup([2])
    a = subset_from_tuples(z2, [(0,)])
    assert eval_quantum(q, a) == 3 - 2 * Fraction(1, 2)
    assert parse_quantum(format_quantum(q)) == q


def test_estimate_density_endpoints():
    z4 = FiniteAbelianGroup([4])
    system = parse_system("[g1]")
    est, radius = estimate_density(system, GroupSubset.full(z4), 1000, seed=1)
    assert est == 1.0
    est0, _ = estimate_density(system, GroupSubset.empty(z4), 1000, seed=1)
    assert est0 == 0.0
    assert radius == pytest.approx(math.sqrt(math.log(200) / 2000))


def test_estimate_density_refuses_samples_times_forms_over_the_budget():
    z4 = FiniteAbelianGroup([4])
    system = parse_system("[g1; g1+g2; !(2g2)]")
    a = GroupSubset.from_indices(z4, [0, 1])
    # 1000 samples of 3 forms: refused at a budget of 2999, run at 3000
    with pytest.raises(CapExceeded, match="predicted work 3000 exceeds budget 2999"):
        estimate_density(system, a, 1000, seed=1, budget=2999)
    want = estimate_density(system, a, 1000, seed=1)
    assert estimate_density(system, a, 1000, seed=1, budget=3000) == want
    # a sample count beyond 64 bits is written by its bit length, even one
    # with more decimal digits than Python converts to a string
    with pytest.raises(CapExceeded, match="predicted work >= 2\\^99 \\* 3 exceeds budget"):
        estimate_density(system, a, 10**30, seed=1)
    with pytest.raises(CapExceeded, match="predicted work >= 2\\^16609 \\* 3 exceeds budget"):
        estimate_density(system, a, 10**5000, seed=1)


def test_a_form_that_is_zero_everywhere_fails_every_sample():
    # 0 * g1 = 0 lies outside A = {1, 2}, so no sample is drawn or tested
    z5 = FiniteAbelianGroup([5])
    system, a = parse_system("[0g1]"), GroupSubset.from_indices(z5, [1, 2])
    assert estimate_density(system, a, 1000, seed=3) == (0.0, math.sqrt(math.log(200) / 2000))
    assert eval_density(system, a) == 0


def test_estimate_density_deterministic_and_thread_invariant():
    group = FiniteAbelianGroup([100])
    a = GroupSubset.from_indices(group, range(50))
    system = parse_system("[g1]")
    r1 = estimate_density(system, a, 200_000, seed=42)
    r2 = estimate_density(system, a, 200_000, seed=42)
    r3 = estimate_density(system, a, 200_000, seed=42, threads=4)
    assert r1 == r2 == r3


def test_sampling_memory_does_not_grow_with_the_chunk_count(monkeypatch):
    monkeypatch.setattr(linform, "_SAMPLE_CHUNK", 1)
    group = FiniteAbelianGroup([7])
    a = GroupSubset.from_indices(group, [0, 1, 3])
    system = parse_system("[g1; g1+g2]")
    estimate_density(system, a, 1, seed=5)  # the plan and numpy's first-call state
    samples, estimates = 3000, set()
    for threads in (1, 2, 4):
        tracemalloc.start()
        try:
            estimates.add(estimate_density(system, a, samples, seed=5, threads=threads))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a list with one (index, size) tuple per chunk alone takes over 64
        # bytes a chunk
        assert peak < samples * 64 // 4
    assert len(estimates) == 1


_M3 = (
    (9, 2),
    "[!(4g1); g2-2g1; g3-3g1; 2g2-4g1; 2g3-6g1; 3g2-6g1; 3g3-9g1; 4g2-8g1; "
    "4g3-12g1; 5g2-10g1; 5g3-15g1; g1; g2; g3]",
)
# hits of 150 000 samples at seed 9, A a half-density set drawn with
# default_rng(5), recorded before singleton forms skipped `combine`
_ESTIMATE_HITS = {
    ((2000,), "[g1; g2; g1+g2]"): 20869,
    ((3000,), "[g1; g2; g1+g2; g1+2g2]"): 9918,
    ((128,), "[g1; g2; g3; g1+g2-g3]"): 8886,
    ((6, 4), "[g1; !g2; 2g1+g2; !(g1-g3)]"): 10176,
    # proportional forms, non-unit multipliers and a form that is always 0,
    # recorded before the samples were tested through the elimination plan
    ((6, 4), "[g1; 3g1; 2g2-g1; !(g1+g2); !(12g1)]"): 5409,
    # build_M(3): five multipliers in each of two directions and a negated
    # form, recorded before the samples were tested through count_rows'
    # tables; on the density-1/2 set M has no solution, so A is denser
    _M3: 43,
}
# the density of A where it is not 1/2
_ESTIMATE_DENSITY = {_M3: 0.7}


@pytest.mark.parametrize("moduli, text", list(_ESTIMATE_HITS))
def test_estimate_density_pinned_for_a_fixed_seed(moduli, text):
    group = FiniteAbelianGroup(moduli)
    density = _ESTIMATE_DENSITY.get((moduli, text), 0.5)
    a = GroupSubset(group, np.random.default_rng(5).random(group.order) < density)
    for threads in (1, 2):
        est, _ = estimate_density(parse_system(text), a, 150_000, seed=9, threads=threads)
        assert est == _ESTIMATE_HITS[moduli, text] / 150_000


def test_the_estimate_pin_of_M3_is_build_M3():
    assert parse_system(_M3[1]) == build_M(3)


def test_estimate_density_converges_quick():
    group = FiniteAbelianGroup([100])
    a = GroupSubset.from_indices(group, range(50))
    system = parse_system("[g1]")
    hits = 0
    for seed in range(20):
        est, radius = estimate_density(system, a, 20_000, seed=seed)
        if abs(est - 0.5) <= radius:
            hits += 1
    assert hits >= 19


def test_parse_system_round_trip():
    texts = [
        "[g1]",
        "[!(3g1); g2-2g1; 2g2-4g1]",
        "[g1; g2; g3; g1+g2-g3]",
        "[0]",
        "[-g1 + 2*g3]",
    ]
    for text in texts:
        system = parse_system(text)
        assert parse_system(format_system(system)) == system


def test_parse_system_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_system("[g1; g2 + 3]")
    assert err.value.column > 1
    with pytest.raises(ParseError):
        parse_system("[g0]")
    with pytest.raises(ParseError):
        parse_system("g1; g2")
    with pytest.raises(ParseError):
        parse_system("[g1 ")
    # a form holds a dense vector up to its last variable, so indices stop at 2^20
    assert parse_system("[g1048576]").arity == 1 << 20
    with pytest.raises(ParseError, match="variable indices stop at 1048576") as err:
        parse_system("[g1; g1048577]")
    assert err.value.column == 7


def test_parse_quantum_round_trip():
    texts = [
        "1*[g1]",
        "2*[g1]*[g1] - 1*[g1; g2]",
        "3",
        "-1*[g1; g2; g1+g2] + 4",
    ]
    for text in texts:
        q = parse_quantum(text)
        assert parse_quantum(format_quantum(q)) == q


def test_arity_inferred_from_max_index():
    assert parse_system("[g3]").arity == 3
    assert parse_system("[g1; g2]").arity == 2


def test_group_mismatch_between_fixed_and_subset():
    z4 = FiniteAbelianGroup([4])
    z5 = FiniteAbelianGroup([5])
    a = GroupSubset.full(z4)
    with pytest.raises(GroupMismatchError):
        eval_density_fixed(parse_system("[g1; g2]"), a, (z5.element([0]),))


PRESENTATIONS = oracles.group_presentations(12)


@st.composite
def row_problems(draw):
    """A group, a subset, a system of up to four forms over up to three
    variables, and up to five pinned prefixes (duplicates allowed)."""
    moduli = draw(st.sampled_from(PRESENTATIONS))
    tuples = list(oracles.all_tuples(moduli))
    arity = draw(st.integers(1, 3))
    nfix = draw(st.integers(0, arity))
    coefficient = st.integers(-3, 3) | st.sampled_from([0, 0, 1, 12, -(10**20)])
    forms = draw(
        st.lists(
            st.tuples(st.tuples(*[coefficient] * arity), st.booleans()), min_size=1, max_size=4
        )
    )
    bits = draw(st.lists(st.booleans(), min_size=len(tuples), max_size=len(tuples)))
    a_set = {t for t, bit in zip(tuples, bits) if bit}
    prefixes = draw(
        st.lists(st.tuples(*[st.sampled_from(tuples)] * nfix), min_size=0, max_size=5)
    )
    return moduli, arity, forms, a_set, prefixes


@settings(max_examples=80, deadline=None)
@given(row_problems())
def test_rows_match_one_row_calls_and_oracle(problem):
    moduli, arity, forms, a_set, prefixes = problem
    group = FiniteAbelianGroup(moduli)
    a = subset_from_tuples(group, a_set)
    system = LinearSystem(arity, tuple(LinearForm(arity, c, neg) for c, neg in forms))
    nfix = len(prefixes[0]) if prefixes else 0
    rows = np.array(
        [[group.element(r).index() for r in p] for p in prefixes], dtype=np.int64
    ).reshape(len(prefixes), nfix)
    owner, free = solve_rows(system, a, rows)
    counts = count_rows(system, a, rows)
    assert counts.tolist() == np.bincount(owner, minlength=len(rows)).tolist()
    expected_owner, expected_free = [], []
    for r, prefix in enumerate(prefixes):
        want = oracles.oracle_completions(moduli, forms, a_set, prefix, arity)
        fixed = tuple(group.element(p) for p in prefix)
        one_owner, one_free = solve_rows(system, a, prefix_row(a, fixed))
        assert one_owner.tolist() == [0] * len(want)
        got = [tuple(group.from_index(int(i)).residues for i in row) for row in one_free]
        assert got == want
        assert eval_density_fixed(system, a, fixed) == Fraction(
            len(want), group.order ** (arity - nfix)
        )
        expected_owner += [r] * len(want)
        expected_free += one_free.tolist()
    assert owner.tolist() == expected_owner
    assert free.reshape(len(expected_owner), arity - nfix).tolist() == expected_free


def _solved(system, a, prefixes):
    """solve_rows of residue-tuple prefixes, as (owner, residue rows)."""
    group = a.group
    rows = np.array(
        [[group.index_of(r) for r in p] for p in prefixes], dtype=np.int64
    ).reshape(len(prefixes), -1)
    owner, free = solve_rows(system, a, rows)
    return owner.tolist(), [tuple(group.from_index(int(i)).residues for i in r) for r in free]


def _oracle_solved(moduli, system, a_set, prefixes):
    owner, free = [], []
    for r, prefix in enumerate(prefixes):
        got = oracles.oracle_completions(
            moduli, _forms_as_tuples(system), a_set, prefix, system.arity
        )
        owner += [r] * len(got)
        free += got
    return owner, free


@pytest.mark.parametrize(
    "moduli, text, prefixes",
    [
        # g1 ends no form: its level is empty and admits every value
        ((6,), "[g2]", [()]),
        ((2, 3), "[g3; g1+g3]", [()]),
        # no free variable: the rows whose pinned forms fail are dropped
        ((6,), "[g1+g2; !(g1)]", [((0,), (0,)), ((1,), (1,)), ((1,), (0,)), ((4,), (2,))]),
        # coefficients that are multiples of the exponent end no level
        ((6,), "[g1+6g2; g2-12g3; !(g1+g3+18g4)]", [()]),
        ((6,), "[g1+6g2; g2-12g3; !(g1+g3+18g4)]", [((3,),), ((4,),), ((0,),)]),
        ((2, 4), "[g1+4g2; 2g2+8g3; g3]", [((1, 2),)]),
    ],
)
def test_solve_rows_levels_match_the_oracle(moduli, text, prefixes):
    group = FiniteAbelianGroup(moduli)
    tuples = list(oracles.all_tuples(moduli))
    a_set = {t for i, t in enumerate(tuples) if i % 3 != 1}
    a = subset_from_tuples(group, a_set)
    system = parse_system(text)
    assert _solved(system, a, prefixes) == _oracle_solved(moduli, system, a_set, prefixes)


def test_rows_budget_is_per_prefix():
    group = FiniteAbelianGroup([5])
    a = subset_from_tuples(group, [(0,), (1,), (3,)])
    system = parse_system("[g1; g2; g1+g2]")
    # one pinned variable: 5 values times 3 forms per prefix, however many rows
    rows = np.arange(5, dtype=np.int64)[:, None]
    assert count_rows(system, a, rows, budget=15).tolist() == [
        int(eval_density_fixed(system, a, (group.element([g]),)) * 5) for g in range(5)
    ]
    # refused before anything is allocated, even for 2^40 (broadcast) rows
    huge = np.broadcast_to(np.zeros((1, 1), dtype=np.int64), (1 << 40, 1))
    with pytest.raises(CapExceeded, match="predicted work 15 exceeds budget 14"):
        count_rows(system, a, huge, budget=14)


def test_rows_reject_bad_prefixes():
    group = FiniteAbelianGroup([4])
    a = GroupSubset.full(group)
    system = parse_system("[g1; g2]")
    with pytest.raises(ValueError):
        count_rows(system, a, np.array([[4]]))
    with pytest.raises(ValueError):
        count_rows(system, a, np.array([[0, 1, 2]]))


_SUM_CODE = FiniteAbelianGroup.sum_code


@pytest.mark.parametrize("moduli, coded", [((9, 5, 5), True), ((2,) * 12, False), ((9, 2), True)])
def test_rows_and_estimates_agree_on_both_sides_of_the_code_selection(moduli, coded, monkeypatch):
    # the engine's two-term gathers take the carry-free code where `sum_code`
    # gives one (Z9xZ5xZ5, with E = 17 * 9 * 9, and Z9xZ2, the shape of
    # `verify homdensity`'s one subset per row) and `combine` where it does
    # not (Z2^12: 3^12 > 16 * 2^12); forcing the other side through the
    # selection rule changes no count, completion or estimate.  Every gather
    # here sums two terms.
    group = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(11)
    subsets = [GroupSubset(group, rng.random(group.order) < 0.5) for _ in range(4)]
    system = parse_system("[g1; !g2; g1+g2; g1-g3; !(2g1+g3)]")
    grid = parse_system("[g1; g2; g3; g1-g2; g2-g3; !(g1+g2+g3)]")
    prefixes = rng.integers(0, group.order, size=(40, 2))
    taken = []

    def spy(self, terms):
        code = _SUM_CODE(self, terms)
        taken.append(isinstance(code, SumCode))
        return code

    def run():
        return (
            count_rows(system, subsets[0], prefixes[:, :1]).tolist(),
            count_rows(system, subsets * 10, prefixes[:, :1]).tolist(),
            count_rows(grid, subsets[1], subsets[1].indices()[:2, None]).tolist(),
            [x.tolist() for x in solve_rows(system, subsets * 10, prefixes)],
            estimate_density(system, subsets[0], 4000, seed=2),
        )

    monkeypatch.setattr(FiniteAbelianGroup, "sum_code", spy)
    got = run()
    assert set(taken) == {coded}  # every gather, the estimate's directions too
    # Z2^12's two-term code has 3^12 <= 256 * 2^12 entries
    monkeypatch.setattr(abelian, "_CODE_SPREAD", 0 if coded else 256)
    taken.clear()
    assert run() == got
    assert set(taken) == {not coded}
