import math
import random
from fractions import Fraction

import pytest

import oracles
from conftest import subset_from_mask, subset_from_tuples

from addforms.abelian import FiniteAbelianGroup, GroupSubset, additive_energy
from addforms.errors import CapExceeded, GroupMismatchError, ParseError
from addforms.linform import (
    LinearForm,
    LinearSystem,
    QuantumSystem,
    canonicalize,
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
)


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
        assert eval_density(system, a) == eval_density(system, a, threads=4)


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


def test_estimate_density_deterministic_and_thread_invariant():
    group = FiniteAbelianGroup([100])
    a = GroupSubset.from_indices(group, range(50))
    system = parse_system("[g1]")
    r1 = estimate_density(system, a, 200_000, seed=42)
    r2 = estimate_density(system, a, 200_000, seed=42)
    r3 = estimate_density(system, a, 200_000, seed=42, threads=4)
    assert r1 == r2 == r3


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


def test_canonicalize_diagnostics():
    system = parse_system("[g1; g1; !(g1); g2]")
    canon, notes = canonicalize(system)
    assert len(canon.forms) == 3
    assert any("duplicate" in n for n in notes)
    assert any("negation" in n for n in notes)
    contradictory = parse_system("[g1; !(g1)]")
    z2 = FiniteAbelianGroup([2])
    assert eval_density(contradictory, GroupSubset.full(z2)) == 0


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
