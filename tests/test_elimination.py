"""The elimination engine behind `linform.count_rows` against the brute-force
oracles: a property over small group presentations and random systems,
one case per elimination rule (seen by spying on the steps it runs),
the same cases with one subset per prefix row and with the grid and
triangle stacks cut into slices, the benchmark's systems, which no rule
may leave to the fallback, and counts beyond int64."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from addforms import linform
from addforms.abelian import FiniteAbelianGroup, GroupSubset
from addforms.errors import GroupMismatchError
from addforms.linform import (
    LinearForm,
    LinearSystem,
    count_rows,
    eval_density,
    eval_density_fixed,
    parse_system,
    solve_rows,
)
from addforms.reduction import build_E, build_M, build_T, build_V

PRESENTATIONS = oracles.group_presentations(8)  # Z1 and Z2 to Z2xZ2xZ2
# completions per prefix row the oracle enumerates, at most
_ORACLE_WORK = 512
COEFFICIENTS = [-3, -2, -1, 0, 0, 1, 1, 2, 3, 4, 6]


@st.composite
def instances(draw, moduli):
    """(system, subset bits, prefixes) on the group of `moduli`: arity at
    most 4, up to three prefix rows, forms with zero, non-unit, negative,
    repeated and proportional coefficients, some negated."""
    order = math.prod(moduli)
    arity = draw(st.integers(1, 4))
    # pin enough variables that the oracle stays small
    least = max(0, arity - int(math.log(_ORACLE_WORK, order))) if order > 1 else 0
    nfix = draw(st.integers(least, arity))
    coeffs = st.tuples(*[st.sampled_from(COEFFICIENTS)] * arity)
    forms = draw(st.lists(st.tuples(coeffs, st.booleans()), min_size=1, max_size=4))
    for scale in draw(st.lists(st.sampled_from([1, -1, 2, -2, 3]), max_size=2)):
        base, negated = forms[draw(st.integers(0, len(forms) - 1))]
        forms.append((tuple(scale * c for c in base), draw(st.booleans()) and negated))
    bits = np.array(draw(st.lists(st.booleans(), min_size=order, max_size=order)))
    rows = draw(st.integers(1, 3))
    flat = draw(st.lists(st.integers(0, order - 1), min_size=rows * nfix, max_size=rows * nfix))
    system = LinearSystem(arity, tuple(LinearForm(arity, c, neg) for c, neg in forms))
    return system, bits, np.array(flat, dtype=np.int64).reshape(rows, nfix)


def _oracle(group, system, bits, prefixes):
    """The oracle's completions of every prefix row."""
    a_set = {group.from_index(i).residues for i in np.flatnonzero(bits)}
    forms = [(f.coefficients, f.negated) for f in system.forms]
    return [
        oracles.oracle_completions(
            group.moduli, forms, a_set, [group.from_index(int(i)).residues for i in row],
            system.arity,
        )
        for row in prefixes
    ]


@pytest.mark.parametrize("moduli", PRESENTATIONS, ids=lambda m: "x".join(f"Z{n}" for n in m))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_counts_masks_and_densities_match_the_oracle(moduli, data):
    system, bits, prefixes = data.draw(instances(moduli))
    group = FiniteAbelianGroup(moduli)
    a = GroupSubset(group, bits)
    want = _oracle(group, system, bits, prefixes)
    kfree = system.arity - prefixes.shape[1]
    fixed = [group.from_index(int(i)) for i in prefixes[0]]
    counts = count_rows(system, a, prefixes)
    assert counts.dtype == np.int64
    assert counts.tolist() == [len(w) for w in want]
    density = eval_density_fixed(system, a, fixed)
    assert density == Fraction(len(want[0]), group.order**kfree)
    if kfree == 1:
        # the satisfying values of the one free variable, as `solve_rows` lists them
        owner, free = solve_rows(system, a, prefixes)
        assert np.bincount(owner, minlength=len(prefixes)).tolist() == counts.tolist()
        for r, completions in enumerate(want):
            assert free[owner == r, 0].tolist() == sorted(
                group.index_of(t) for (t,) in completions
            )


@pytest.fixture
def ran(monkeypatch):
    """A Counter of the elimination steps `count_rows` runs, by rule, "pin"
    for each block it counts by pinning a free variable, and "solve_rows"
    for each call of the lister, which counting must never reach."""
    seen = Counter()
    run, pin, solve = linform._run, linform._pinned_counts, linform.solve_rows

    def spy_run(group, steps, *args):
        seen.update(step[0] for step in steps)
        return run(group, steps, *args)

    def spy_pin(*args, **kwargs):
        seen["pin"] += 1
        return pin(*args, **kwargs)

    def spy_solve(*args, **kwargs):
        seen["solve_rows"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(linform, "_run", spy_run)
    monkeypatch.setattr(linform, "_pinned_counts", spy_pin)
    monkeypatch.setattr(linform, "solve_rows", spy_solve)
    return seen


# (system, pinned prefix length, rules the engine takes for it)
_RULE_CASES = [
    ("[g1; !(2g2)]", 0, {"sum": 2}),  # (a)
    ("[g1+g2; g2-g3; g1]", 0, {"pair": 2, "sum": 1}),  # (b), folded twice into g2
    ("[g1; g2; g3; g1+g2-g3]", 0, {"pair": 1, "edge": 1}),  # (b) then (c)
    ("[g1; g2; !(g1+g2)]", 0, {"edge": 1}),  # (c)
    ("[g1; g2; g1+g2; g1+2g2]", 0, {"grid": 1}),  # (d), two variables
    ("[g1+g2; g2+g3; g2+2g3; g1]", 0, {"pair": 1, "grid": 1}),  # integer u_a
    ("[g2+g3; g1+g2; g1+2g2; g3]", 0, {"pair": 1, "grid": 1}),  # integer u_b
    ("[g1; g2-g3+g1; g3-g4; g4-g2; g2; g3; g4]", 1, {"triangle": 1}),  # (d), three
    ("[g1+g2+g3; g1-g2+2g3]", 0, {"pin": 1, "grid": 1}),  # (e), then (d) per value
    ("[g1; g1+g2+g3; g1-g2+2g3]", 0, {"pin": 1, "grid": 1}),  # (e) on the values g1 admits
]


@pytest.mark.parametrize("text, nfix, rules", _RULE_CASES)
@pytest.mark.parametrize("moduli", [(6,), (2, 4)])
def test_each_rule_runs_and_matches_the_oracle(ran, text, nfix, rules, moduli):
    system = parse_system(text)
    group = FiniteAbelianGroup(moduli)
    bits = np.arange(group.order) % 3 != 1
    prefixes = np.arange(2 * nfix, dtype=np.int64).reshape(2, nfix) % group.order
    counts = count_rows(system, GroupSubset(group, bits), prefixes)
    assert counts.tolist() == [len(w) for w in _oracle(group, system, bits, prefixes)]
    # the steps run once per call, for all rows together
    assert ran == Counter(rules)


def test_the_no_plan_fallback_counts_without_listing(ran):
    # no rule covers three free variables in two ternary tables; the count
    # comes from pinning g1, never from a list of the satisfying tuples
    group = FiniteAbelianGroup([200])
    bits = np.random.default_rng(1).random(group.order) < 0.5
    system = parse_system("[g1+g2+g3; g1-g2+2g3]")
    tracemalloc.start()
    try:
        (count,) = count_rows(system, GroupSubset(group, bits), np.zeros((1, 0), dtype=np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    g2, g3 = np.indices((200, 200))
    want = sum(
        int((bits[(g1 + g2 + g3) % 200] & bits[(g1 - g2 + 2 * g3) % 200]).sum())
        for g1 in range(200)
    )
    assert count == want
    assert ran["pin"] == 1 and "solve_rows" not in ran
    # the (owner, free) int64 arrays of the list would take 32 bytes a tuple
    assert 4 * peak < 32 * want


def test_a_one_row_triangle_is_sliced_along_its_support(monkeypatch):
    # one row of three free variables over a random half A of Z2000: the
    # stacks on S_a = S_b = S_c = A have |A|^2 entries, over the cap, so the
    # stacks that hold g1 come in slices of S_a, and only the (g2, g3) stack
    # is whole, built in float64 once and shared by every slice; the peak
    # stays under two float64 copies of one stack
    group = FiniteAbelianGroup([2000])
    bits = np.random.default_rng(0).random(group.order) < 0.5
    system = parse_system("[g1; g2; g3; g1-g2; g2-g3; g3-g1]")
    ys, cycle_counts = [], linform._cycle_counts
    monkeypatch.setattr(
        linform, "_cycle_counts", lambda x, y, z: ys.append(y) or cycle_counts(x, y, z)
    )
    tracemalloc.start()
    try:
        (count,) = count_rows(
            system, GroupSubset(group, bits), np.zeros((1, 0), dtype=np.int64), budget=10**11
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 3-cycles of the graph on A with x -> y iff x - y lies in A
    elements = np.flatnonzero(bits)
    edges = bits[(elements[:, None] - elements[None, :]) % group.order].astype(np.float64)
    assert count == int(np.trace(edges @ edges @ edges))
    assert peak < 2 * 8 * elements.size**2
    assert len(ys) > 1 and all(y is ys[0] for y in ys) and ys[0].dtype == np.float64


# the rule cases, plus systems whose forms without a free variable filter
# the rows: with pinned parts only (kfree = 0), and 720 * g1, which is 0 on
# every group below, so its row's subset alone decides it; and a triangle
# whose unaries read the pinned g1, so they are sparse and differ per row
# (empty for the empty and the full subset)
_PER_ROW_CASES = _RULE_CASES + [
    ("[g1+g2; !(g1); 2g2]", 2, {}),
    ("[720g1; !(g1+g2)]", 0, {"edge": 1}),
    (
        "[g2; g2-g1; !(g2+g1); g3; g3+g1; !(g3-g1); g4; !(g4+g1); g4+2g1; g2-g3+g1; g3-g4; g4-g2]",
        1,
        {"triangle": 1},
    ),
]


@pytest.mark.parametrize("text, nfix, rules", _PER_ROW_CASES)
@pytest.mark.parametrize("moduli", [(9, 2), (16,), (5, 5)])
def test_one_subset_per_row_matches_one_subset_calls(ran, text, nfix, rules, moduli):
    system = parse_system(text)
    group = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(len(text) * group.order + nfix)
    subsets = [GroupSubset.empty(group), GroupSubset.full(group)]
    subsets += [GroupSubset(group, rng.random(group.order) < 0.5) for _ in range(5)]
    prefixes = rng.integers(0, group.order, size=(len(subsets), nfix))
    counts = count_rows(system, subsets, prefixes)
    # the steps run once for all rows, as with one shared subset
    assert ran == Counter(rules)
    owner, free = solve_rows(system, subsets, prefixes)
    want_owner, want_free = [], []
    for i, a in enumerate(subsets):
        one = prefixes[i : i + 1]
        assert counts[i] == count_rows(system, a, one)[0]
        one_owner, one_free = solve_rows(system, a, one)
        want_owner += [i] * len(one_owner)
        want_free += one_free.tolist()
    assert owner.tolist() == want_owner
    assert free.tolist() == want_free


@pytest.mark.parametrize("text, nfix, rules", _PER_ROW_CASES)
@pytest.mark.parametrize("moduli", [(9, 2), (16,)])
def test_counts_and_lists_are_the_same_in_chunks(monkeypatch, text, nfix, rules, moduli):
    system = parse_system(text)
    group = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(len(text) * group.order + nfix + 1)
    shared = GroupSubset(group, rng.random(group.order) < 0.5)
    subsets = [GroupSubset.empty(group), GroupSubset.full(group)]
    subsets += [GroupSubset(group, rng.random(group.order) < 0.5) for _ in range(5)]
    prefixes = rng.integers(0, group.order, size=(len(subsets), nfix))
    # one shared subset, the same subset given per row, and one per row
    calls = [shared, [shared] * len(subsets), subsets]
    want = [(count_rows(system, a, prefixes), solve_rows(system, a, prefixes)) for a in calls]
    # chunks of at most 3 rows in `_chunks` and blocks of 3 prefix rows in
    # `_pinned_counts`; stacks of `_stack_counts` of at most 2 * |G| entries
    monkeypatch.setattr(linform, "_ENUM_CHUNK", 3 * group.order)
    monkeypatch.setattr(linform, "_GRID_BLOCK", 2 * group.order)
    chunks = []
    tables = linform._tables
    monkeypatch.setattr(linform, "_tables", lambda *args: chunks.append(1) or tables(*args))
    for a, (counts, (owner, free)) in zip(calls, want):
        chunks.clear()
        assert count_rows(system, a, prefixes).tolist() == counts.tolist()
        assert len(chunks) >= 3
        got_owner, got_free = solve_rows(system, a, prefixes)
        assert got_owner.tolist() == owner.tolist()
        assert got_free.tolist() == free.tolist()
    (c0, (o0, f0)), (c1, (o1, f1)) = want[:2]
    assert (c0.tolist(), o0.tolist(), f0.tolist()) == (c1.tolist(), o1.tolist(), f1.tolist())


# the rule cases of the grid, with an integer u_a and with an integer u_b,
# and of the triangle, whose unaries differ per row with one subset per row
@pytest.mark.parametrize("text, nfix, rules", _RULE_CASES[4:8])
def test_stacks_in_slices_of_one_value_match_the_oracle(monkeypatch, text, nfix, rules):
    system = parse_system(text)
    group = FiniteAbelianGroup([9, 2])
    rng = np.random.default_rng(len(text))
    subsets = [GroupSubset(group, rng.random(group.order) < 0.7) for _ in range(5)]
    prefixes = rng.integers(0, group.order, size=(len(subsets), nfix))
    want = [len(_oracle(group, system, a.bits, [row])[0]) for a, row in zip(subsets, prefixes)]
    assert count_rows(system, subsets, prefixes).tolist() == want
    # a cap of one entry makes every row its own block and cuts its S_a into
    # slices of one value; `cut` gets the (rows, values of S_a) of each slice
    cut = []
    take, cycle_counts = np.take, linform._cycle_counts

    def spy_take(table, idx, axis):
        stack = take(table, idx, axis=axis)
        cut.append(stack.shape[:2])
        return stack

    def spy_cycle(x, y, z):
        cut.append(x.shape[:2])
        return cycle_counts(x, y, z)

    grid = "grid" in rules
    if grid:  # each slice gathers the grid's two tables
        monkeypatch.setattr(np, "take", spy_take)
    else:  # each slice ends in one `_cycle_counts` call
        monkeypatch.setattr(linform, "_cycle_counts", spy_cycle)
    monkeypatch.setattr(linform, "_GRID_BLOCK", 1)
    assert count_rows(system, subsets, prefixes).tolist() == want
    # so some row's S_a is cut into at least 3 slices
    assert set(cut) == {(1, 1)} and len(cut) >= 3 * len(subsets) * (2 if grid else 1)


def test_per_row_subsets_share_one_group_and_match_the_rows():
    group, other = FiniteAbelianGroup([4]), FiniteAbelianGroup([2, 2])
    system = parse_system("[g1; g2]")
    rows = np.zeros((2, 1), dtype=np.int64)
    for run in (count_rows, solve_rows):
        with pytest.raises(GroupMismatchError):
            run(system, [GroupSubset.full(group), GroupSubset.full(other)], rows)
        with pytest.raises(ValueError, match="3 subsets for 2 prefix rows"):
            run(system, [GroupSubset.full(group)] * 3, rows)
        with pytest.raises(ValueError, match="1 subsets for 2 prefix rows"):
            run(system, [GroupSubset.full(group)], rows)
        with pytest.raises(ValueError, match="no group"):
            run(system, [], rows[:0])


def _benchmark_systems():
    """(system, group, prefix length) of every count the benchmark's forms
    workload makes: the densities, and M, V_j, E_j, T_j with g pinned on the
    homdensity and witness groups."""
    out = [
        (parse_system(text), FiniteAbelianGroup(moduli), 0)
        for text, moduli in [
            ("[g1; g2; g3; g1+g2-g3]", (64,)),
            ("[g1; g2; g3; g1+g2-g3]", (128,)),
            ("[g1; g2; g3; g1+g2-g3]", (8, 8)),
            ("[g1; g2; g1+g2]", (2000,)),
            ("[g1; g2; !(g1+g2)]", (2000,)),
            ("[g1; g2; g1+g2; g1+2g2]", (3000,)),
        ]
    ]
    for k, moduli in [
        (2, (9, 2)), (2, (16, 3)), (3, (9, 2)), (2, (9, 5, 5)), (2, (9, 4, 6)), (3, (16, 2, 2, 2)),
    ]:
        group = FiniteAbelianGroup(moduli)
        out.append((build_M(k), group, k))
        for j in range(1, k + 1):
            out += [(build(k, j), group, k) for build in (build_V, build_E, build_T)]
    return out


def test_no_benchmark_system_falls_back(ran):
    rng = np.random.default_rng(3)
    for system, group, nfix in _benchmark_systems():
        a = GroupSubset(group, rng.random(group.order) < 0.5)
        prefixes = rng.integers(0, group.order, size=(2, nfix))
        count_rows(system, a, prefixes if nfix else prefixes[:1, :0])
        assert "pin" not in ran, linform.format_system(system)
    assert set(ran) == {"sum", "pair", "edge", "grid", "triangle"}


def test_counts_beyond_int64_are_exact_python_integers():
    # eight free singletons over all of Z256: 256^8 = 2^64 completions
    group = FiniteAbelianGroup([256])
    system = parse_system("[" + "; ".join(f"g{i}" for i in range(1, 9)) + "]")
    full = GroupSubset.full(group)
    counts = count_rows(system, full, np.zeros((2, 0), dtype=np.int64), budget=10**30)
    assert counts.dtype == object and counts.tolist() == [2**64, 2**64]
    assert type(counts[0]) is int
    assert eval_density(system, full, budget=10**30) == 1
    # over half of Z256, seven singletons and one negated: 128^8 = 2^56
    half = GroupSubset.from_indices(group, range(128))
    negated = parse_system("[" + "; ".join(f"g{i}" for i in range(1, 8)) + "; !g8]")
    assert count_rows(negated, half, np.zeros((1, 0), dtype=np.int64), budget=10**30)[0] == 2**56
    # two pair steps on Python-integer tables: 2^21 * 128^6 = 2^63 completions
    chain = parse_system("[g1+g2; g2-g3; g1]")
    wide = parse_system("[g1+g2; g2-g3; g1; " + "; ".join(f"g{i}" for i in range(4, 10)) + "]")
    (short,) = count_rows(chain, half, np.zeros((1, 0), dtype=np.int64))
    (long,) = count_rows(wide, half, np.zeros((1, 0), dtype=np.int64), budget=10**30)
    assert short.dtype == np.int64 and type(long) is int
    assert long == int(short) * 128**6 == 2**63


def test_equal_systems_hash_equal():
    built = LinearSystem.of([LinearForm(1, (1,)), LinearForm(1, (1,), negated=True)])
    parsed = parse_system("[g1; !(g1)]")
    assert built == parsed and hash(built) == hash(parsed)
    assert {built: 1}[parsed] == 1
    assert parse_system("[g1; g1]") != parsed
