"""The mask tables of `abelian` and the `*_masks` numerators of `bounds`,
which `check --exhaustive` sweeps, against the boolean-row kernels and the
`*_rows` numerators on every instance, plus their memory and the rule that an
exhaustive sweep counts no pairs."""

import tracemalloc

import numpy as np
import pytest

import oracles

from addforms import abelian, bounds, cli
from addforms.abelian import FiniteAbelianGroup

# every presentation of order <= 10 (some with the larger factor first), and
# the cap-sized groups of the subset sweeps
_SUBSET_GROUPS = [
    *oracles.group_presentations(10),
    (3, 2), (4, 2), (5, 2),
    (2, 2, 2, 2), (16,), (4, 4), (8, 2),
]
_PAIR_GROUPS = [*oracles.group_presentations(8), (3, 2), (4, 2)]
_FOLDS = [(1, 1), (2, 1), (0, 3), (40, 1)]


def _rows(group):
    return cli._mask_rows(np.arange(1 << group.order), group.order)


def _blocks(blocks):
    numerators, denominators = zip(*blocks)
    assert len(set(denominators)) == 1
    return np.concatenate(numerators), denominators[0]


def _same(got, want):
    assert got[1] == want[1] and len(got[0]) == len(want[0])
    assert got[0].dtype == want[0].dtype
    assert got[0].tolist() == want[0].tolist()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_popcount_counts_every_bit(dtype):
    bits = 8 * np.dtype(dtype).itemsize
    rng = np.random.Generator(np.random.Philox(key=bits))
    masks = rng.integers(0, 1 << bits, size=500, dtype=dtype, endpoint=False)
    masks = np.append(masks, np.array([0, (1 << bits) - 1], dtype=dtype))
    got = abelian.popcount(masks.reshape(2, -1))
    assert got.dtype == np.uint8 and got.shape == (2, len(masks) // 2)
    assert got.ravel().tolist() == [bin(int(m)).count("1") for m in masks]


@pytest.mark.parametrize("moduli", [(1,), (2,), (7,), (3, 3), (2, 2, 2), (12,), (4, 4), (3, 5), (2,) * 4, (17,)])
def test_mask_tables_equal_the_row_kernels(moduli):
    group = FiniteAbelianGroup(moduli)
    n = group.order
    rows = _rows(group)
    masks = abelian.all_masks(group)
    assert masks.dtype == np.min_scalar_type((1 << n) - 1) and masks.tolist() == list(range(1 << n))
    weights = np.array([1 << i for i in range(n)], dtype=object)

    def as_masks(bits):
        return (bits.astype(object) @ weights).tolist()

    assert abelian.popcount(masks).tolist() == rows.sum(axis=1).tolist()
    counts = abelian.pair_count_rows(group, rows, rows)
    energy = abelian.additive_energy_masks(group)
    assert energy.dtype == np.min_scalar_type(n**3)
    assert energy.tolist() == abelian.additive_energy_rows(group, counts).tolist()
    assert abelian.doubled_masks(group).tolist() == as_masks(counts > 0)
    for x, translates in enumerate(abelian.translate_masks(group)):
        if x in {0, 1, n - 1}:  # g is in x + S when g - x is in S
            assert translates.tolist() == as_masks(rows[:, group.difference_table()[:, x]])
    if n <= 8:
        stabilizers = abelian.stabilizer_rows(group, rows)
        assert abelian.stabilizer_sizes(group).tolist() == stabilizers.sum(axis=1).tolist()
        sums = abelian.pair_sumset_masks(group)
        a, b = np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))
        assert sums.shape == (1 << n, 1 << n)
        assert sums.ravel().tolist() == as_masks(abelian.sumset_rows(group, a, b))
        for r, s in [(1, 0), (0, 1), (2, 1), (0, 3), (5, 5)]:
            folded = abelian.signed_iterated_sumset_rows(group, rows, r, s)
            assert abelian.signed_iterated_sumset_masks(group, sums, r, s).tolist() == as_masks(folded)


@pytest.mark.parametrize("moduli", _SUBSET_GROUPS)
def test_subset_mask_numerators_equal_the_rows(moduli):
    group = FiniteAbelianGroup(moduli)
    rows = _rows(group)
    _same(_blocks(bounds.energy_bound_masks(group)), bounds.energy_bound_rows(group, rows))
    _same(_blocks(bounds.energy_doubling_masks(group)), bounds.energy_doubling_rows(group, rows))


@pytest.mark.parametrize("moduli", _PAIR_GROUPS)
def test_pair_mask_numerators_equal_the_rows(moduli):
    # every pair, A-major; (40, 1) needs Python integers
    group = FiniteAbelianGroup(moduli)
    rows = _rows(group)
    a, b = np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))
    _same(_blocks(bounds.kneser_masks(group)), bounds.kneser_rows(group, a, b))
    for r, s in _FOLDS:
        got = _blocks(bounds.plunnecke_ruzsa_masks(group, r, s))
        _same(got, bounds.plunnecke_ruzsa_rows(group, a, b, r, s))
        if (r, s) == (40, 1) and group.order >= 3:  # 3^41 > 2^63
            assert got[0].dtype == object


@pytest.mark.parametrize("block", [3, 40])
def test_mask_blocks_split_rows_in_order(monkeypatch, block):
    # blocks smaller than a row of pairs split it, and Python-integer blocks
    # hold fewer instances than int64 ones; the numerators stay in order
    monkeypatch.setattr(bounds, "_MASK_BLOCK", block)
    group = FiniteAbelianGroup([2, 2])
    rows = _rows(group)
    a, b = np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))
    _same(_blocks(bounds.kneser_masks(group)), bounds.kneser_rows(group, a, b))
    for r, s in [(1, 1), (40, 1)]:
        got = _blocks(bounds.plunnecke_ruzsa_masks(group, r, s))
        _same(got, bounds.plunnecke_ruzsa_rows(group, a, b, r, s))
    _same(_blocks(bounds.energy_bound_masks(group)), bounds.energy_bound_rows(group, rows))
    _same(_blocks(bounds.energy_doubling_masks(group)), bounds.energy_doubling_rows(group, rows))


def test_mask_folds_refuse_bad_counts():
    group = FiniteAbelianGroup([4])
    sums = abelian.pair_sumset_masks(group)
    for (r, s), message in [((0, 0), "r \\+ s >= 1"), ((2, -1), "nonnegative")]:
        with pytest.raises(ValueError, match=message):
            abelian.signed_iterated_sumset_masks(group, sums, r, s)


_CAP_RUNS = [
    ["--energy-bound", "--group", "Z16"],
    ["--energy-doubling", "--group", "Z2xZ2xZ2xZ2"],
    ["--kneser", "--group", "Z8"],
    ["--plunnecke-ruzsa", "--group", "Z2xZ4", "--r", "2", "--s", "1"],
    # numerators in Python integers, in blocks of two rows and of part of one
    ["--plunnecke-ruzsa", "--group", "Z8", "--r", "40", "--s", "1"],
    ["--plunnecke-ruzsa", "--group", "Z8", "--r", "2500", "--s", "1"],
]


@pytest.mark.parametrize("argv", _CAP_RUNS)
def test_exhaustive_sweeps_at_the_caps_stay_within_the_batch_bytes(tmp_path, argv):
    # a warm run first, so that the measured one allocates only its own work
    argv = ["check", *argv, "--exhaustive", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= abelian._BATCH_BYTES


@pytest.mark.parametrize(
    "argv",
    [
        ["--energy-bound", "--group", "Z6"],
        ["--energy-doubling", "--group", "Z3xZ3"],
        ["--kneser", "--group", "Z2xZ2"],
        ["--plunnecke-ruzsa", "--group", "Z5", "--r", "2", "--s", "1"],
    ],
)
def test_exhaustive_sweeps_count_no_pairs(tmp_path, monkeypatch, argv):
    calls = []
    counter = abelian.pair_count_rows

    def spy(*args):
        calls.append(args)
        return counter(*args)

    monkeypatch.setattr(abelian, "pair_count_rows", spy)
    out = ["--out", str(tmp_path / "report.json")]
    assert cli.main(["check", *argv, "--exhaustive", *out]) == 0
    assert calls == []
    # the same spy sees the row path of `--random`
    assert cli.main(["check", *argv, "--random", "3", *out]) == 0
    assert calls
