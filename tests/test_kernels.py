"""Property tests of the element index, the vectorized set kernels, their
row-wise batched forms and the Fourier module against the brute-force
oracles, on each of the four exact paths of the one pair counter (the
difference table, Walsh-Hadamard butterflies on Z2^k, the certified FFT and
pairwise counting), plus the rule that chooses between them, the
certificate fallbacks, the exact energy sum and the energies from one
forward transform."""

import math
import sys
import threading
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from addforms import abelian, cli
from addforms.abelian import (
    FiniteAbelianGroup,
    GroupSubset,
    IndexCode,
    SumCode,
    additive_energies,
    additive_energy_raw,
    additive_energy_rows,
    doubling_constant,
    pair_count_rows,
    representation_vector,
    stabilizer,
    stabilizer_rows,
    sumset,
    sumset_rows,
)
from addforms.fourier import convolve, fourier_transform

TOL = 1e-9
PRESENTATIONS = oracles.group_presentations(24)
# Rule constants that send every row of `pair_count_rows` to one path.
PATHS = {
    "table": {"_PAIRWISE_ROW_PAIRS": float("inf"), "_TABLE_ORDER_PER_AXIS": float("inf")},
    "fft": {
        "_PAIRWISE_ROW_PAIRS": float("inf"),
        "_TABLE_ORDER_PER_AXIS": 0,
        "_butterflies": lambda group: False,
    },
    "pairwise": {"_BATCH_CALL_PAIRS": float("inf")},
}
# The butterflies run only on Z2^k (while |G|^3 < 2^63), in the certified
# FFT's place; `butterfly` forces them there.
BUTTERFLY = {"_PAIRWISE_ROW_PAIRS": float("inf"), "_TABLE_ORDER_PER_AXIS": 0}


def forced(path):
    return mock.patch.multiple(abelian, **(BUTTERFLY if path == "butterfly" else PATHS[path]))


@st.composite
def subsets(draw, count=1):
    """A group presentation and `count` subsets of it, as sets of tuples."""
    moduli = draw(st.sampled_from(PRESENTATIONS))
    tuples = list(oracles.all_tuples(moduli))
    masks = [
        draw(st.lists(st.booleans(), min_size=len(tuples), max_size=len(tuples)))
        for _ in range(count)
    ]
    return moduli, [{t for t, keep in zip(tuples, mask) if keep} for mask in masks]


def as_subset(moduli, tuple_set):
    return GroupSubset.from_residues(FiniteAbelianGroup(moduli), sorted(tuple_set))


def residue_set(subset):
    return {e.residues for e in subset.elements()}


def bit_rows(moduli, tuple_sets):
    """Boolean (rows, |G|) matrix of subsets given as sets of tuples."""
    return np.array([[t in s for t in oracles.all_tuples(moduli)] for s in tuple_sets])


def oracle_pair_counts(moduli, a_set, b_set):
    counts = Counter(oracles.t_add(moduli, x, y) for x in a_set for y in b_set)
    return [counts[t] for t in oracles.all_tuples(moduli)]


@settings(max_examples=60, deadline=None)
@given(subsets(count=6), st.sampled_from(sorted(PATHS)))
def test_row_kernels_match_single_subset_kernels_and_oracle(drawn, path):
    moduli, sets = drawn
    group = FiniteAbelianGroup(moduli)
    a_sets, b_sets = sets[:3], sets[3:]
    a, b = bit_rows(moduli, a_sets), bit_rows(moduli, b_sets)
    with forced(path):
        counts = pair_count_rows(group, a, b)
        sums = sumset_rows(group, a, b)
        stabs = stabilizer_rows(group, a)
        energies = additive_energy_rows(group, pair_count_rows(group, a, a))
    assert counts.dtype == np.int64 and counts.shape == a.shape
    for i, (a_set, b_set) in enumerate(zip(a_sets, b_sets)):
        single_a, single_b = as_subset(moduli, a_set), as_subset(moduli, b_set)
        assert counts[i].tolist() == oracle_pair_counts(moduli, a_set, b_set)
        assert GroupSubset(group, sums[i]) == sumset(single_a, single_b)
        assert residue_set(GroupSubset(group, sums[i])) == oracles.oracle_sumset(
            moduli, a_set, b_set
        )
        assert GroupSubset(group, stabs[i]) == stabilizer(single_a)
        if len(a_set) < group.order:
            assert residue_set(GroupSubset(group, stabs[i])) == oracles.oracle_stabilizer(
                moduli, a_set
            )
        assert energies[i] == additive_energy_raw(single_a)
        assert energies[i] == sum(c * c for c in oracles.oracle_rep_counts(moduli, a_set).values())


@settings(max_examples=60, deadline=None)
@given(subsets(count=2), st.sampled_from(sorted(PATHS)))
def test_sumset_matches_oracle(drawn, path):
    moduli, (a_set, b_set) = drawn
    with forced(path):
        got = sumset(as_subset(moduli, a_set), as_subset(moduli, b_set))
    assert residue_set(got) == oracles.oracle_sumset(moduli, a_set, b_set)


@settings(max_examples=60, deadline=None)
@given(subsets(), st.sampled_from(sorted(PATHS)))
def test_representation_vector_and_energy_match_oracle(drawn, path):
    moduli, (a_set,) = drawn
    a = as_subset(moduli, a_set)
    with forced(path):
        vec = representation_vector(a)
        raw = additive_energy_raw(a)
    counts = oracles.oracle_rep_counts(moduli, a_set)
    assert vec.dtype == np.int64
    assert vec.tolist() == [counts[t] for t in oracles.all_tuples(moduli)]
    assert raw == sum(c * c for c in counts.values())


@settings(max_examples=60, deadline=None)
@given(subsets(), st.sampled_from(sorted(PATHS)))
def test_stabilizer_matches_oracle(drawn, path):
    moduli, (s_set,) = drawn
    with forced(path):
        got = stabilizer(as_subset(moduli, s_set))
    if len(s_set) == len(list(oracles.all_tuples(moduli))):
        assert got == GroupSubset.full(got.group)
    else:
        assert residue_set(got) == oracles.oracle_stabilizer(moduli, s_set)


def coefficients(moduli):
    """Small integers of either sign, or a multiple of one of the moduli."""
    span = 2 * max(moduli)
    multiples = st.builds(lambda m, n: m * n, st.integers(-3, 3), st.sampled_from(moduli))
    return st.integers(-span, span) | multiples


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PRESENTATIONS), st.data())
def test_combine_matches_oracle(moduli, data):
    group = FiniteAbelianGroup(moduli)
    tuples = list(oracles.all_tuples(moduli))
    index = {t: i for i, t in enumerate(tuples)}
    for i, t in enumerate(tuples):
        assert group.index_of(t) == i and group.from_index(i).residues == t
    elements = st.integers(0, group.order - 1)
    rows = data.draw(st.lists(elements, min_size=1, max_size=6))
    cols = data.draw(st.lists(elements, min_size=1, max_size=6))
    c1, c2 = data.draw(coefficients(moduli)), data.draw(coefficients(moduli))
    offsets = data.draw(
        st.none() | st.tuples(*[st.integers(-50, 50) for _ in moduli])
    )
    shift = offsets or tuple(0 for _ in moduli)

    def want(*pairs):
        value = oracles.eval_form_tuple(
            moduli, [c for c, _ in pairs], [tuples[x] for _, x in pairs]
        )
        return index[oracles.t_add(moduli, value, shift)]

    x, y = np.array(rows), np.array(cols)
    single = group.combine(((c1, x),), offsets)
    assert single.tolist() == [want((c1, r)) for r in rows]
    table = group.combine(((c1, x[:, None]), (c2, y[None, :])), offsets)
    assert table.tolist() == [[want((c1, r), (c2, c)) for c in cols] for r in rows]
    assert group.combine((), shift) == index[oracles.t_add(moduli, tuples[0], shift)]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.data())
def test_sum_code_gathers_what_combine_gathers(moduli, data):
    # the group-only selection rule of `sum_code`, and both of its objects
    # (the carry-free code and the `combine` fallback) against `combine`:
    # sums with negative and zero-residue coefficients, cached multiples with
    # array coefficients, and a bit matrix readied for the index blocks with
    # one subset per row
    assert isinstance(FiniteAbelianGroup([2] * 6).sum_code(2), SumCode)  # 3^6 <= 16 * 2^6
    assert isinstance(FiniteAbelianGroup([2] * 7).sum_code(2), IndexCode)  # 3^7 > 16 * 2^7
    # codes of more than half the cache, 2^21 entries: 2047^2 + 2^20 and 63^4 + 2^20
    assert isinstance(FiniteAbelianGroup([1024, 1024]).sum_code(2), IndexCode)
    assert isinstance(FiniteAbelianGroup([32] * 4).sum_code(2), IndexCode)
    group = FiniteAbelianGroup(moduli)
    n = group.order
    coeff = st.integers(-3, 3) | st.sampled_from([-n, n, *moduli])
    coeffs = data.draw(st.lists(coeff, min_size=1, max_size=3))
    size = math.prod(len(coeffs) * (m - 1) + 1 for m in moduli)
    assert type(group.sum_code(len(coeffs))) is (SumCode if size <= 16 * n else IndexCode)
    weights = 0 if len(moduli) == 1 else n
    with mock.patch.object(abelian, "_CODE_CACHE", 2 * (size + weights)):
        assert type(group.sum_code(len(coeffs))) is (SumCode if size <= 16 * n else IndexCode)
    with mock.patch.object(abelian, "_CODE_CACHE", 2 * (size + weights) - 1):
        assert type(group.sum_code(len(coeffs))) is IndexCode
    with mock.patch.object(abelian, "_CODE_SPREAD", float("inf")):
        coded, pair = group.sum_code(len(coeffs)), group.sum_code(2)
    with mock.patch.object(abelian, "_CODE_SPREAD", 0):
        plain, fallback = group.sum_code(len(coeffs)), group.sum_code(2)
    assert coded.decode.size == size and type(pair) is SumCode
    assert type(plain) is type(fallback) is IndexCode
    every = np.arange(n)
    elements = st.lists(st.integers(0, n - 1), min_size=1, max_size=5)
    shapes = [(-1,) + (1,) * i for i in range(len(coeffs))]  # broadcast to a block
    terms = [(c, np.array(data.draw(elements)).reshape(s)) for c, s in zip(coeffs, shapes)]
    for code in (coded, plain):
        assert np.array_equal(code.ready(every)[code.index(terms)], group.combine(terms))
    m = np.array(data.draw(st.lists(coeff, min_size=1, max_size=3))).reshape(-1, 1, 1)
    for c in (int(m[0, 0, 0]), m):
        assert np.array_equal(pair.decode[pair.multiple(c)], group.combine([(c, every)]))
    rows = data.draw(st.integers(1, 4))
    bits = np.random.default_rng(data.draw(st.integers(0, 99))).random((rows, n)) < 0.5
    which = np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=5)))
    offsets = st.lists(st.integers(0, n - 1), min_size=len(which), max_size=len(which))
    off = np.array(data.draw(offsets))
    c2 = data.draw(coeff)
    blocks = (  # as `linform._tables` and `linform._link` index them
        [(m, every), (1, off[None, :, None])],
        [(int(m[0, 0, 0]), off[:, None]), (c2, every[None, :])],
    )
    for code in (pair, fallback):
        ready = code.ready(bits)
        for block in blocks:
            want = bits[which[:, None], group.combine(block)]
            got = ready.reshape(-1)[code.index(block) + which[:, None] * ready.shape[1]]
            assert np.array_equal(got, want)


def test_threads_keep_the_code_cache_bounded_and_right(monkeypatch):
    # a cache of 200 entries keeps the codes of spreads 1 to 3 on Z7xZ3
    # (42, 86 and 154 entries) only one or two at a time, so the threads'
    # inserts keep evicting one another's codes
    monkeypatch.setattr(abelian, "_CODE_CACHE", 200)
    group = FiniteAbelianGroup([7, 3])
    x = np.arange(group.order)
    errors = []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(300):
                coeffs = rng.integers(-2, 3, size=rng.integers(1, 4)).tolist()
                terms = [(c, np.roll(x[::-1], shift)) for c, shift in zip(coeffs, (0, 1, 5))]
                code = group.sum_code(len(terms))
                assert np.array_equal(code.ready(x)[code.index(terms)], group.combine(terms))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert sum(v.size for v in abelian._CODES.values()) <= 200


def test_a_code_cache_hit_outlives_older_unused_entries(monkeypatch):
    # on Z7 the codes of spreads 1, 2 and 3 hold 7, 13 and 19 entries, and a
    # cache of 38 keeps two of them: the third evicts the least recently
    # used, which is the unused spread-2 code once spread 1 is hit again
    monkeypatch.setattr(abelian, "_CODE_CACHE", 38)
    monkeypatch.setattr(abelian, "_CODES", {})
    group = FiniteAbelianGroup([7])
    one, two = group.sum_code(1), group.sum_code(2)
    assert group.sum_code(1) is one
    group.sum_code(3)
    assert list(abelian._CODES) == [("code", (7,), 1), ("code", (7,), 3)]
    assert group.sum_code(1) is one and group.sum_code(2) is not two
    # a multiple's hit is refreshed the same way: (|G|,) = 7 entries each
    monkeypatch.setattr(abelian, "_CODE_CACHE", 20)
    monkeypatch.setattr(abelian, "_CODES", {})
    code = group.sum_code(1)  # 7 entries
    doubled, tripled = code.multiple(2), code.multiple(3)  # 14 and 21 in all: the code goes
    assert list(abelian._CODES) == [("multiple", (7,), 1, 2), ("multiple", (7,), 1, 3)]
    assert code.multiple(2) is doubled
    code.multiple(4)
    assert list(abelian._CODES) == [("multiple", (7,), 1, 2), ("multiple", (7,), 1, 4)]
    assert code.multiple(2) is doubled and code.multiple(3) is not tripled


@settings(max_examples=60, deadline=None)
@given(subsets(), st.data())
def test_translate_and_negate_match_oracle(drawn, data):
    moduli, (a_set,) = drawn
    a = as_subset(moduli, a_set)
    by = data.draw(st.sampled_from(list(oracles.all_tuples(moduli))))
    got = a.translate(a.group.element(by))
    assert residue_set(got) == {oracles.t_add(moduli, x, by) for x in a_set}
    assert residue_set(a.negate()) == {oracles.t_neg(moduli, x) for x in a_set}


def test_rank_zero_presentation_refused():
    with pytest.raises(ValueError):
        FiniteAbelianGroup([])


reals = st.floats(-2, 2, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRESENTATIONS), st.data())
def test_fourier_transform_and_convolve_match_oracle(moduli, data):
    group = FiniteAbelianGroup(moduli)
    table = st.lists(reals, min_size=group.order, max_size=group.order)
    f, g, im = data.draw(table), data.draw(table), data.draw(table)
    fc = [complex(x, y) for x, y in zip(f, im)]
    got = fourier_transform(fc, group).coefficients
    assert np.allclose(got, oracles.oracle_dft(moduli, fc), atol=TOL)
    real = convolve(np.array(f), np.array(g), group)
    assert not np.iscomplexobj(real)
    assert np.allclose(real, oracles.oracle_convolve(moduli, f, g), atol=TOL)
    mixed = convolve(np.array(fc), np.array(g), group)
    assert np.allclose(mixed, oracles.oracle_convolve(moduli, fc, g), atol=TOL)


def _spy(monkeypatch):
    calls = []
    pairwise = abelian._pairwise_counts

    def spy(*args):
        calls.append(args)
        return pairwise(*args)

    monkeypatch.setattr(abelian, "_pairwise_counts", spy)
    return calls


def _dense_pair(moduli, density=0.9, seed=0):
    group = FiniteAbelianGroup(moduli)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return [GroupSubset(group, rng.random(group.order) < density) for _ in range(2)]


def _path_spy(monkeypatch):
    """Record (path, rows) for every call of each of the three counters."""
    calls = []
    for path, name in (
        ("table", "_table_counts"),
        ("butterfly", "_butterfly_counts"),
        ("fft", "_certified_fft"),
        ("pairwise", "_pairwise_counts"),
    ):

        def spy(*args, original=getattr(abelian, name), path=path):
            calls.append((path, 1 if path == "pairwise" else len(args[1])))
            return original(*args)

        monkeypatch.setattr(abelian, name, spy)
    return calls


def test_crossover_sides(monkeypatch):
    calls = _path_spy(monkeypatch)
    # a lone small row: Z16 at density 0.9, at most 256 pairs
    c, d = _dense_pair((16,))
    lone_small = sumset(c, d)
    assert calls == [("pairwise", 1)]
    # a lone dense row: Z256 at density 0.9, about 53k pairs
    a, b = _dense_pair((256,))
    lone_dense = sumset(a, b)
    assert calls[1:] == [("fft", 1)]
    # a small group's batch: 64 rows of Z12, where |G| <= 32 * rank
    z12 = FiniteAbelianGroup((12,))
    rows = np.random.Generator(np.random.Philox(key=3)).random((64, 12)) < 0.5
    small_batch = pair_count_rows(z12, rows, rows)
    assert calls[2:] == [("table", 64)]
    # 32 elements of Z256: 1024 pairs, pairwise alone but batched among 8 rows
    z256 = FiniteAbelianGroup((256,))
    spread = np.zeros((8, 256), dtype=bool)
    for i in range(8):
        spread[i, i % 8 :: 8] = True
    alone = pair_count_rows(z256, spread[:1], spread[:1])
    assert calls[3:] == [("pairwise", 1)]
    batch = pair_count_rows(z256, spread, spread)
    assert calls[4:] == [("fft", 8)]
    # the forcing helper sends everything down its path, with the same counts
    for path in PATHS:
        del calls[:]
        with forced(path):
            assert sumset(c, d) == lone_small and sumset(a, b) == lone_dense
            assert np.array_equal(pair_count_rows(z12, rows, rows), small_batch)
            assert np.array_equal(pair_count_rows(z256, spread, spread), batch)
        assert {p for p, _ in calls} == {path}
    assert np.array_equal(alone, batch[:1])


def test_float32_batches_are_priced_at_their_own_cost(monkeypatch):
    # one sparse row of Z65536, about 655 elements: 4.3 * 10^5 pairs, more
    # than a float32 transform's 4096 + 3 * 65536, less than 4096 + 8 * 65536
    calls = _path_spy(monkeypatch)
    group = FiniteAbelianGroup((65536,))
    rng = np.random.Generator(np.random.Philox(key=6))
    a, b = (GroupSubset(group, rng.random(group.order) < 0.01) for _ in range(2))
    sums, doubling = sumset(a, b), doubling_constant(a)
    assert calls == [("fft", 1), ("fft", 1)]
    del calls[:]
    monkeypatch.setattr(abelian, "_FLOAT32_PAIRS_PER_ELEMENT", abelian._BATCH_PAIRS_PER_ELEMENT)
    assert sumset(a, b) == sums and doubling_constant(a) == doubling
    assert calls == [("pairwise", 1), ("pairwise", 1)]


def test_homdensity_rows_keep_their_paths_under_the_float32_price(monkeypatch, tmp_path):
    # the benchmark's `verify homdensity` runs count small groups' rows; the
    # float32 price moves none of them
    def paths():
        taken = []

        def spy(group, pairs, original=abelian._pair_path):
            taken.append(original(group, pairs))
            return taken[-1]

        with monkeypatch.context() as patch:
            patch.setattr(abelian, "_pair_path", spy)
            for group, k, seed in [("Z9xZ2", "2", "1"), ("Z16xZ3", "2", "2"), ("Z9xZ2", "3", "3")]:
                argv = ["verify", "homdensity", "--group", group, "--k", k, "--pairs", "30"]
                out = ["--seed", seed, "--out", str(tmp_path / "report.json")]
                assert cli.main([*argv, *out]) == 0
        return taken

    priced = paths()
    monkeypatch.setattr(abelian, "_FLOAT32_PAIRS_PER_ELEMENT", abelian._BATCH_PAIRS_PER_ELEMENT)
    assert priced == paths() and priced and "float32" not in priced


def _energy_path_spy(monkeypatch):
    """Record the path of every `additive_energies` batch."""
    paths = []

    def spy(group, sizes, original=abelian._energy_path):
        paths.append(original(group, sizes))
        return paths[-1]

    monkeypatch.setattr(abelian, "_energy_path", spy)
    return paths


def _transform_path(moduli):
    """The path a large batch of a presentation takes: butterflies on Z2^k,
    Parseval on the other groups of order 2^n, pair counts on the rest."""
    n = math.prod(moduli)
    if n & (n - 1):
        return "pairs"
    return "butterflies" if max(moduli) <= 2 else "parseval"


@pytest.mark.parametrize(
    "moduli",
    oracles.group_presentations(16)
    + [(4, 2), (8, 2), (4, 1), (4, 1, 4)]
    + [(2,) * k for k in range(5, 13)]
    + [(256,), (16, 16), (64, 64), (4096,), (100,), (9, 5, 5)],
    ids=str,
)
def test_energies_from_one_transform_equal_the_pair_count_energies(monkeypatch, moduli):
    group = FiniteAbelianGroup(moduli)
    rng = np.random.Generator(np.random.Philox(key=group.order))
    a = rng.random((40, group.order)) < rng.random((40, 1))
    a[0], a[1] = False, True  # an empty and a full row
    paths = _energy_path_spy(monkeypatch)
    got = additive_energies(group, a)
    assert paths == [_transform_path(moduli)]
    want = additive_energy_rows(group, pair_count_rows(group, a, a))
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def test_energies_of_z65536_up_to_the_largest_certified_size(monkeypatch):
    group = FiniteAbelianGroup((65536,))
    largest = abelian._parseval_sizes(16, 65536)
    rng = np.random.Generator(np.random.Philox(key=8))
    paths = _energy_path_spy(monkeypatch)
    for size, path in ((655, "parseval"), (largest, "parseval"), (largest + 1, "pairs")):
        row = np.zeros(group.order, dtype=bool)
        row[rng.choice(group.order, size, replace=False)] = True
        want = additive_energy_rows(group, pair_count_rows(group, row[None], row[None]))[0]
        # the `energy` verb's one-row call
        assert additive_energy_raw(GroupSubset(group, row)) == want
        assert paths[-1] == path
    assert len(paths) == 3


@pytest.mark.parametrize(
    "path, moduli",
    [pytest.param(path, (4, 6), id=path) for path in sorted(PATHS)]
    + [pytest.param("butterfly", (2,) * 5, id="butterfly")],
)
def test_empty_and_full_rows_skip_the_forced_path(monkeypatch, path, moduli):
    # every pairing of an empty, full, one-element and dense operand; only the
    # rows with neither operand empty nor full reach the forced path
    group = FiniteAbelianGroup(moduli)
    n = group.order
    kinds = {
        "empty": np.zeros(n, dtype=bool),
        "full": np.ones(n, dtype=bool),
        "single": np.arange(n) == 5,
        "dense": np.arange(n) % 3 != 0,
    }
    pairs = [(x, y) for x in kinds for y in kinds]
    a = np.array([kinds[x] for x, _ in pairs])
    b = np.array([kinds[y] for _, y in pairs])
    ruled = sum(1 for x, y in pairs if {x, y} <= {"single", "dense"})
    calls = _path_spy(monkeypatch)
    with forced(path):
        counts = pair_count_rows(group, a, b)
        same = pair_count_rows(group, a, a)
    tuples = list(oracles.all_tuples(moduli))
    for row, other, got, got_same in zip(a, b, counts, same):
        a_set = {t for t, keep in zip(tuples, row) if keep}
        b_set = {t for t, keep in zip(tuples, other) if keep}
        assert got.tolist() == oracle_pair_counts(moduli, a_set, b_set)
        assert got_same.tolist() == oracle_pair_counts(moduli, a_set, a_set)
    assert {p for p, _ in calls} == {path}
    # the pairwise path is called once per row, the batched paths per call
    counted = [rows for p, rows in calls]
    assert counted == ([1] * (ruled + 8) if path == "pairwise" else [ruled, 8])
    # a call with no ruled row reaches no path
    del calls[:]
    with forced(path):
        closed = pair_count_rows(group, a[:2], b[:2])
    assert calls == [] and closed.tolist() == [[0] * n, [0] * n]


@pytest.mark.parametrize("defect", ["roundoff", "sum"])
def test_certificate_failure_falls_back_to_pairwise(monkeypatch, defect):
    a, b = _dense_pair((12, 20), seed=1)
    s = GroupSubset.from_indices(a.group, [i for i in range(a.group.order) if i % 40 < 37])
    with forced("pairwise"):
        want = (sumset(a, b), representation_vector(a), additive_energy_raw(a), stabilizer(s))
    irfftn = np.fft.irfftn

    def broken(*args, **kwargs):
        out = irfftn(*args, **kwargs)
        if defect == "roundoff":
            return out + 0.3  # not within 1/4 of an integer
        out.flat[0] += 1.0  # rounds cleanly, but the total is off by one
        return out

    monkeypatch.setattr(np.fft, "irfftn", broken)
    calls = _spy(monkeypatch)
    got = (sumset(a, b), representation_vector(a), additive_energy_raw(a), stabilizer(s))
    assert len(calls) == 4
    assert got[0] == want[0] and got[3] == want[3]
    assert np.array_equal(got[1], want[1]) and got[2] == want[2]


@pytest.mark.parametrize("defect", ["roundoff", "sum"])
def test_row_certificate_failure_recounts_the_rejected_row(monkeypatch, defect):
    # Z12xZ20 transforms in float64, Z16xZ16 in float32 (`_fft_dtype`)
    irfftn, fft_dtype = np.fft.irfftn, abelian._fft_dtype
    dtypes = []

    def broken(*args, **kwargs):
        out = irfftn(*args, **kwargs)
        if defect == "roundoff":
            out[2] += 0.3  # row 2 is not within 1/4 of an integer
        else:
            out[2].flat[0] += 1.0  # row 2 rounds cleanly, but its total is off
        return out

    for moduli in ((12, 20), (16, 16)):
        group = FiniteAbelianGroup(moduli)
        rng = np.random.Generator(np.random.Philox(key=2))
        a, b = rng.random((2, 4, group.order)) < 0.5
        with forced("pairwise"):
            want = pair_count_rows(group, a, b)
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "irfftn", broken)
            patch.setattr(abelian, "_fft_dtype", lambda *args: dtypes.append(fft_dtype(*args)) or dtypes[-1])
            calls = _spy(patch)
            with forced("fft"):
                got = pair_count_rows(group, a, b)
        assert len(calls) == 1
        assert calls[0][1].tolist() == np.flatnonzero(a[2]).tolist()
        assert np.array_equal(got, want)
    assert dtypes == [np.float64, np.float32]


def test_sum_of_squares_beyond_int64():
    # A = G in Z_{2^21}: r_A = |G| everywhere and E(A) = |G|^3 = 2^63, one
    # past int64, so the energy rows leave int64 for Python integers
    group = FiniteAbelianGroup((1 << 21,), max_order=1 << 21)
    reps = np.full((1, group.order), group.order, dtype=np.int64)
    assert int((reps * reps).sum()) != 2**63  # int64 wraps
    energy = additive_energy_rows(group, reps)
    assert energy.dtype == object and energy[0] == 2**63
    z4 = FiniteAbelianGroup((4,))
    small = additive_energy_rows(z4, np.array([[4, 4, 4, 4], [1, 0, 0, 0]]))
    assert small.dtype == np.int64 and small.tolist() == [64, 1]


@st.composite
def z2k_rows(draw):
    """Z2^k for k = 1..10 and two boolean (rows, 2^k) matrices whose rows
    are each empty, full or random."""
    k = draw(st.integers(1, 10))
    n, rows = 1 << k, draw(st.integers(1, 4))
    rng = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 2**32 - 1))))

    def row():
        kind = draw(st.sampled_from(["empty", "full", "random"]))
        if kind == "random":
            return rng.random(n) < draw(st.floats(0, 1))
        return np.full(n, kind == "full")

    a = np.array([row() for _ in range(rows)])
    b = np.array([row() for _ in range(rows)])
    return FiniteAbelianGroup((2,) * k), a, b


@settings(max_examples=40, deadline=None)
@given(z2k_rows())
def test_butterflies_match_pairwise_counts(drawn):
    group, a, b = drawn
    for other in (b, a):
        want = [
            abelian._pairwise_counts(group, x.nonzero()[0], y.nonzero()[0])
            for x, y in zip(a, other)
        ]
        # the butterflies themselves, on every row, and `pair_count_rows`
        # forced onto them, which answers the empty and full rows in closed form
        raw = abelian._butterfly_counts(group, a, other)
        with forced("butterfly"):
            got = pair_count_rows(group, a, other)
        assert raw.dtype == got.dtype == np.int64
        assert np.array_equal(raw, want) and np.array_equal(got, want)


def test_butterflies_replace_the_certified_fft_under_the_int64_guard(monkeypatch):
    # the guard on groups built without allocating any (rows, |G|) array:
    # |G|^3 < 2^63 holds up to Z2^20, and trivial factors change nothing
    def z2(k):
        return FiniteAbelianGroup((2,) * k, max_order=1 << k)

    assert abelian._butterflies(z2(20)) and not abelian._butterflies(z2(21))
    assert abelian._butterflies(FiniteAbelianGroup((1, 2, 2)))
    assert not abelian._butterflies(FiniteAbelianGroup((2, 4)))
    # on Z2^12 every call the rule batches reaches the butterflies alone: no
    # certified FFT, no pairwise recount
    group = FiniteAbelianGroup((2,) * 12)
    rng = np.random.Generator(np.random.Philox(key=4))
    a, b = rng.random((2, 3, group.order)) < 0.3
    s, t = (GroupSubset(group, rng.random(group.order) < 0.25) for _ in range(2))
    calls = _path_spy(monkeypatch)
    counts = pair_count_rows(group, a, b)
    singles = (sumset(s, t), representation_vector(s), stabilizer(s))
    assert calls == [("butterfly", 3)] + [("butterfly", 1)] * 3
    # with the guard's bound lowered to Z2^12's |G|^3 = 2^36, the same calls
    # keep the certified FFT, and count the same
    del calls[:]
    monkeypatch.setattr(abelian, "_I64_EXACT", 1 << 36)
    assert np.array_equal(pair_count_rows(group, a, b), counts)
    assert sumset(s, t) == singles[0] and stabilizer(s) == singles[2]
    assert np.array_equal(representation_vector(s), singles[1])
    assert calls == [("fft", 3)] + [("fft", 1)] * 3


def test_butterfly_temporaries_stay_within_the_batch_budget():
    group = FiniteAbelianGroup((2,) * 12)
    rows = abelian.batch_rows(group)
    rng = np.random.Generator(np.random.Philox(key=5))
    a, b = rng.random((2, rows, group.order)) < 0.5
    tracemalloc.start()
    try:
        pair_count_rows(group, a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # int64 transforms of both operands and one scratch array: 24 bytes per element
    assert 24 * rows * group.order <= peak <= abelian._BATCH_BYTES


@pytest.mark.parametrize("k", range(1, 13))
def test_fourier_transform_of_a_subset_on_z2k_is_numpys_bit_for_bit(k):
    group = FiniteAbelianGroup((2,) * k)
    rng = np.random.Generator(np.random.Philox(key=k))
    for density in (0.0, 0.1, 0.5, 1.0):
        a = GroupSubset(group, rng.random(group.order) < density)
        want = np.fft.fftn(a.bits.reshape(group.moduli)).ravel() / group.order
        assert fourier_transform(a).coefficients.tobytes() == want.tobytes()
