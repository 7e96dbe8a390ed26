import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import subset_from_mask, subset_from_tuples

from addforms import abelian
from addforms.abelian import (
    FiniteAbelianGroup,
    GroupSubset,
    additive_energy,
    additive_energy_raw,
    doubling_constant,
    element_add,
    element_scale,
    parse_group,
    parse_subset,
    _residue_table,
    parse_subset_file,
    representation_counts,
    signed_iterated_sumset,
    signed_iterated_sumset_rows,
    stabilizer,
    subset_to_lines,
    sumset,
    sumset_rows,
)
from addforms.errors import CapExceeded, GroupMismatchError, ParseError


def test_element_add_examples():
    z4 = FiniteAbelianGroup([4])
    assert element_add(z4.element([3]), z4.element([2])) == z4.element([1])
    g = FiniteAbelianGroup([9, 2])
    assert element_add(g.element([8, 1]), g.element([1, 1])) == g.element([0, 0])
    z6 = FiniteAbelianGroup([6])
    for a in z6:
        assert element_add(a, z6.identity()) == a


def test_element_add_group_mismatch():
    z4 = FiniteAbelianGroup([4])
    z5 = FiniteAbelianGroup([5])
    with pytest.raises(GroupMismatchError):
        element_add(z4.element([1]), z5.element([1]))


def test_element_scale_examples():
    z4 = FiniteAbelianGroup([4])
    assert element_scale(3, z4.element([2])) == z4.element([2])
    g = FiniteAbelianGroup([3, 2])
    assert element_scale(-1, g.element([1, 1])) == g.element([2, 1])
    z6 = FiniteAbelianGroup([6])
    for a in z6:
        assert element_scale(0, a) == z6.identity()


def test_enumeration_round_trip():
    for moduli in [(1,), (4,), (2, 3), (3, 2, 2), (9, 2)]:
        group = FiniteAbelianGroup(moduli)
        for i in range(group.order):
            e = group.from_index(i)
            assert e.index() == i
        seen = {e.residues for e in group}
        assert len(seen) == group.order


def test_order_cap():
    with pytest.raises(CapExceeded):
        FiniteAbelianGroup([2**21])
    g = FiniteAbelianGroup([2**21], max_order=2**22)
    assert g.order == 2**21


def test_order_cap_env(monkeypatch):
    monkeypatch.setenv("ADDFORMS_MAX_ORDER", "8")
    with pytest.raises(CapExceeded):
        FiniteAbelianGroup([9])
    assert FiniteAbelianGroup([8]).order == 8


def test_sumset_examples():
    z5 = FiniteAbelianGroup([5])
    b = subset_from_tuples(z5, [(0,), (1,)])
    assert sumset(b, b) == subset_from_tuples(z5, [(0,), (1,), (2,)])
    zero = subset_from_tuples(z5, [(0,)])
    full = GroupSubset.full(z5)
    arbitrary = subset_from_tuples(z5, [(1,), (3,)])
    assert sumset(zero, arbitrary) == arbitrary
    assert sumset(arbitrary, full) == full
    assert sumset(GroupSubset.empty(z5), arbitrary) == GroupSubset.empty(z5)


def test_sumset_matches_oracle_exhaustive():
    for moduli in [(5,), (2, 3)]:
        group = FiniteAbelianGroup(moduli)
        tuples = list(oracles.all_tuples(moduli))
        for mask_a in range(1 << group.order):
            a_set = {tuples[i] for i in range(group.order) if mask_a >> i & 1}
            # one representative partner per size to keep the sweep quick
            b_set = {tuples[0], tuples[-1]}
            got = sumset(
                subset_from_tuples(group, a_set), subset_from_tuples(group, b_set)
            )
            expected = oracles.oracle_sumset(moduli, a_set, b_set)
            assert {e.residues for e in got.elements()} == expected


def test_sumset_commutative_associative():
    group = FiniteAbelianGroup([6])
    import random

    rng = random.Random(7)
    for _ in range(25):
        a = subset_from_mask(group, rng.randrange(1 << group.order))
        b = subset_from_mask(group, rng.randrange(1 << group.order))
        c = subset_from_mask(group, rng.randrange(1 << group.order))
        assert sumset(a, b) == sumset(b, a)
        assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))


def test_signed_iterated_sumset_examples():
    z5 = FiniteAbelianGroup([5])
    b = subset_from_tuples(z5, [(0,), (1,)])
    assert signed_iterated_sumset(b, 1, 1) == subset_from_tuples(
        z5, [(4,), (0,), (1,)]
    )
    zero = subset_from_tuples(z5, [(0,)])
    assert signed_iterated_sumset(zero, 3, 2) == zero
    assert signed_iterated_sumset(b, 2, 0) == sumset(b, b)
    with pytest.raises(ValueError):
        signed_iterated_sumset(b, 0, 0)


def test_signed_iterated_sumset_oracle():
    moduli = (2, 3)
    group = FiniteAbelianGroup(moduli)
    tuples = list(oracles.all_tuples(moduli))
    import random

    rng = random.Random(3)
    for _ in range(20):
        mask = rng.randrange(1, 1 << group.order)
        b_set = {tuples[i] for i in range(group.order) if mask >> i & 1}
        r, s = rng.randrange(0, 3), rng.randrange(0, 3)
        if r + s == 0:
            r = 1
        got = signed_iterated_sumset(subset_from_tuples(group, b_set), r, s)
        assert {e.residues for e in got.elements()} == oracles.oracle_signed_sumset(
            moduli, b_set, r, s
        )


@pytest.mark.parametrize("moduli", [(6,), (2, 4), (3, 3), (8,)])
def test_signed_folds_stop_at_a_fixed_point_with_the_naive_fold_counts(moduli):
    # each row's rB - sB against the oracle's every fold, on one batch whose
    # rows stop changing after different numbers of folds
    group = FiniteAbelianGroup(moduli)
    tuples = list(oracles.all_tuples(moduli))
    rng = np.random.Generator(np.random.Philox(key=group.order))
    rows = np.vstack([rng.random((6, group.order)) < 0.3, np.eye(2, group.order, dtype=bool)])
    sets = [{t for t, keep in zip(tuples, row) if keep} for row in rows]
    for r in range(5):
        for s in range(5 - r):
            if r + s == 0:
                continue
            got = signed_iterated_sumset_rows(group, rows, r, s)
            for row, b_set in zip(got, sets):
                want = oracles.oracle_signed_sumset(moduli, b_set, r, s)
                assert {t for t, keep in zip(tuples, row) if keep} == want


def test_signed_folds_of_a_million_return_at_once(monkeypatch):
    z6 = FiniteAbelianGroup([6])
    b = subset_from_tuples(z6, [(0,), (1,)])
    passes = []
    monkeypatch.setattr(abelian, "sumset_rows", lambda *args: passes.append(1) or sumset_rows(*args))
    assert signed_iterated_sumset(b, 10**6, 0) == GroupSubset.full(z6)
    # {0}, B, ..., 5B = G, and the sixth pass finds 6B = 5B
    assert len(passes) == 6
    del passes[:]
    assert signed_iterated_sumset(b, 10**6, 10**6) == GroupSubset.full(z6)
    assert len(passes) == 7
    zero = subset_from_tuples(z6, [(0,)])
    assert signed_iterated_sumset(zero, 10**6, 10**6) == zero


def test_stabilizer_examples():
    z5 = FiniteAbelianGroup([5])
    assert stabilizer(subset_from_tuples(z5, [(0,), (1,), (2,)])) == subset_from_tuples(
        z5, [(0,)]
    )
    z4 = FiniteAbelianGroup([4])
    assert stabilizer(subset_from_tuples(z4, [(0,), (2,)])) == subset_from_tuples(
        z4, [(0,), (2,)]
    )
    assert stabilizer(GroupSubset.full(z4)) == GroupSubset.full(z4)
    assert stabilizer(GroupSubset.empty(z4)) == GroupSubset.full(z4)


def test_stabilizer_subgroup_axioms_and_invariance():
    for moduli in [(8,), (2, 4), (12,)]:
        group = FiniteAbelianGroup(moduli)
        import random

        rng = random.Random(11)
        for _ in range(15):
            s = subset_from_mask(group, rng.randrange(1, 1 << group.order))
            stab = stabilizer(s)
            members = stab.elements()
            assert group.identity() in stab
            for x in members:
                assert (-x) in stab
                for y in members:
                    assert (x + y) in stab
            assert sumset(s, stab) == s
            expected = oracles.oracle_stabilizer(moduli, {e.residues for e in s.elements()})
            assert {e.residues for e in members} == expected


def test_representation_counts_examples():
    z4 = FiniteAbelianGroup([4])
    a = subset_from_tuples(z4, [(0,), (1,)])
    counts = {e.residues[0]: c for e, c in representation_counts(a).items()}
    assert counts == {0: 1, 1: 2, 2: 1, 3: 0}
    b = subset_from_tuples(z4, [(0,), (2,)])
    counts_b = {e.residues[0]: c for e, c in representation_counts(b).items()}
    assert counts_b == {0: 2, 1: 0, 2: 2, 3: 0}
    empty = GroupSubset.empty(z4)
    assert all(c == 0 for c in representation_counts(empty).values())


def test_representation_counts_sum_invariant_exhaustive():
    for moduli in [(6,), (2, 3), (12,), (3, 4)]:
        group = FiniteAbelianGroup(moduli)
        if group.order > 12:
            continue
        for mask in range(1 << group.order):
            a = subset_from_mask(group, mask)
            counts = list(representation_counts(a).values())
            assert sum(counts) == a.size**2
            assert additive_energy_raw(a) == sum(c * c for c in counts)


def test_additive_energy_examples():
    for n in range(1, 9):
        zn = FiniteAbelianGroup([n])
        single = subset_from_tuples(zn, [(0,)])
        assert additive_energy(single) == Fraction(1, n**3)
    z4 = FiniteAbelianGroup([4])
    a = subset_from_tuples(z4, [(0,), (1,)])
    assert additive_energy_raw(a) == 6
    assert additive_energy(a) == Fraction(6, 64)
    assert additive_energy(GroupSubset.full(z4)) == 1


def test_additive_energy_oracle_and_bounds():
    import random

    rng = random.Random(5)
    for moduli in [(5,), (2, 3), (7,)]:
        group = FiniteAbelianGroup(moduli)
        tuples = list(oracles.all_tuples(moduli))
        for _ in range(10):
            mask = rng.randrange(1, 1 << group.order)
            a_set = {tuples[i] for i in range(group.order) if mask >> i & 1}
            a = subset_from_tuples(group, a_set)
            raw = additive_energy_raw(a)
            assert raw == oracles.oracle_energy_raw(moduli, a_set)
            assert a.size**2 <= raw <= a.size**3


def test_doubling_constant():
    z5 = FiniteAbelianGroup([5])
    assert doubling_constant(subset_from_tuples(z5, [(0,), (1,)])) == Fraction(3, 2)
    z6 = FiniteAbelianGroup([6])
    subgroup = subset_from_tuples(z6, [(0,), (2,), (4,)])
    assert doubling_constant(subgroup) == 1
    assert doubling_constant(GroupSubset.full(z6)) == 1
    with pytest.raises(ValueError):
        doubling_constant(GroupSubset.empty(z5))


def test_density_exact():
    g = FiniteAbelianGroup([9, 2])
    a = subset_from_tuples(g, [(0, 0), (1, 1), (8, 0)])
    assert a.density() == Fraction(3, 18)


def test_parse_group():
    assert parse_group("Z9 x Z2").moduli == (9, 2)
    assert parse_group("Z4").order == 4
    assert parse_group("z3xz5").moduli == (3, 5)
    with pytest.raises(ParseError):
        parse_group("Q8")
    with pytest.raises(ParseError):
        parse_group("Z4 y Z2")
    with pytest.raises(ParseError):
        parse_group("Z0")


def test_group_literal_round_trip():
    for text in ["Z4", "Z9xZ2", "Z2xZ2xZ2"]:
        group = parse_group(text)
        assert parse_group(group.literal()) == group


def test_parse_subset_literals():
    z4 = FiniteAbelianGroup([4])
    assert parse_subset("{0, 2}", z4) == subset_from_tuples(z4, [(0,), (2,)])
    assert parse_subset("{}", z4) == GroupSubset.empty(z4)
    g = FiniteAbelianGroup([3, 2])
    assert parse_subset("{(0,1), (2,0)}", g) == subset_from_tuples(g, [(0, 1), (2, 0)])
    with pytest.raises(ParseError):
        parse_subset("{(0,1)}", z4)
    with pytest.raises(ParseError):
        parse_subset("{0, 2", z4)


def test_subset_serialization_round_trips():
    g = FiniteAbelianGroup([3, 2])
    a = subset_from_tuples(g, [(0, 0), (1, 1), (2, 0)])
    assert parse_subset("{(0,0), (1,1), (2,0)}", g) == a
    assert subset_to_lines(a) == "# subset of Z3xZ2, size 3\n0,0\n1,1\n2,0\n"
    assert parse_subset_file(subset_to_lines(a), g) == a
    assert parse_subset_file(json.dumps(a.residue_lists()), g) == a
    commented = "# heading\n0,0\n1,1 # inline\n\n2,0\n"
    assert parse_subset_file(commented, g) == a
    assert a.residue_lists() == [[0, 0], [1, 1], [2, 0]]
    assert a.residue_matrix().dtype == np.int64
    assert GroupSubset.empty(g).residue_matrix().shape == (0, 2)
    huge = f"{3 * 10**30},-2\n-{10**30 + 1},{2**70 + 1}\n2,0\n"
    assert parse_subset_file(huge, g) == a
    assert parse_subset_file("3, -2\n\t-2,+5\r\n+2,006\n", g) == a
    with pytest.raises(ValueError):
        parse_subset_file("[[0, 0], [1]]", g)


# Pieces of subset-file text: every byte class of the line syntax, a comment,
# a non-ASCII digit, a lone surrogate and residues of 19 digits or more.
_PIECES = st.sampled_from(
    ["0", "7", "12", "006", "-", "+", " ", "\t", "\r", "\n", ",", "#", "# 1, x\n", "\u0661", "\ud800",
     "1234567890123456789", "9223372036854775808", "-" + "9" * 25, "0" * 20 + "5"]
)
_FIELDS = st.tuples(
    st.sampled_from(["", " ", "\t", " \r"]),
    st.sampled_from(["", "", "-", "+"]),
    st.sampled_from(["0", "3", "42", "65535", "9" * 19, "0" * 21 + "7"]),
    st.sampled_from(["", " ", "\r"]),
).map("".join)


@st.composite
def _subset_texts(draw, rank):
    """Texts near the line syntax: rows of `rank` fields, give or take one,
    blank lines and comments, with random pieces spliced in."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t\r", "# c", " # x,y"])))
            continue
        width = draw(st.sampled_from([rank, rank, rank, rank - 1, rank + 1]))
        lines.append(",".join(draw(st.lists(_FIELDS, min_size=width, max_size=width))))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_PIECES) + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_subset_file_reader_matches_the_regex_oracle(data):
    rank = data.draw(st.integers(1, 4))
    text = data.draw(_subset_texts(rank) | st.lists(_PIECES, max_size=12).map("".join))
    expected = oracles.oracle_subset_lines(text, rank)
    try:
        got = [tuple(row) for row in _residue_table(text, rank).tolist()]
    except ParseError as exc:
        got = (exc.message, exc.line, exc.column)
    assert got == expected
    if isinstance(expected, list):
        group = FiniteAbelianGroup([3, 5, 2, 4][:rank])
        assert parse_subset_file(text, group) == GroupSubset.from_residues(group, expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4).flatmap(
    lambda moduli: st.tuples(st.just(moduli), st.integers(0, 2**32 - 1))
))
def test_subset_lines_round_trip(case):
    moduli, seed = case
    g = FiniteAbelianGroup(moduli)
    a = GroupSubset(g, np.random.default_rng(seed).random(g.order) < 0.5)
    rows = "".join(",".join(map(str, r)) + "\n" for r in a.residue_lists())
    assert subset_to_lines(a) == f"# subset of {g.literal()}, size {a.size}\n{rows}"
    assert parse_subset_file(subset_to_lines(a), g) == a


@pytest.mark.parametrize("moduli", [(2,) * 12, (256, 256)])
def test_large_subsets_round_trip_through_lines(moduli):
    g = FiniteAbelianGroup(moduli)
    a = GroupSubset(g, np.random.default_rng(3).random(g.order) < 0.5)
    assert parse_subset_file(subset_to_lines(a), g) == a


@pytest.mark.parametrize("text", ["", "\n", " \t\r\n\n", "# only a comment", "# a\n\n  # b\n"])
def test_blank_and_comment_only_files_are_the_empty_subset(text):
    g = FiniteAbelianGroup([3, 2])
    assert parse_subset_file(text, g) == GroupSubset.empty(g)


def test_from_residues_refuses_non_integer_residues():
    g = FiniteAbelianGroup([3, 2])
    for bad in (
        [(1.7, 0), (True, 1)],
        [(0, 0), (True, 1)],
        [(1.0, 0)],
        np.array([[1.5, 0.2]]),
        np.array([[True, False]]),
    ):
        with pytest.raises(ValueError, match="integers"):
            GroupSubset.from_residues(g, bad)
    a = subset_from_tuples(g, [(1, 1), (2, 0)])
    assert GroupSubset.from_residues(g, [(4, -1), (np.int64(2), 10**30)]) == a
    assert GroupSubset.from_residues(g, np.array([[4, -1], [2, 0]], dtype=np.int8)) == a
    assert GroupSubset.from_residues(g, np.array([[4, -1], [2, 2**70]], dtype=object)) == a


def test_subset_immutability():
    z4 = FiniteAbelianGroup([4])
    a = subset_from_tuples(z4, [(0,)])
    with pytest.raises(ValueError):
        a.bits[1] = True
