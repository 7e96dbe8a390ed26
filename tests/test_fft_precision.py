"""The certified FFT's precision rule: `abelian._fft_dtype` transforms a batch
in float32 only where Percival's a priori bound (Math. Comp. 72 (2003),
Thm 5.1) is below 1/2, and float32 counts equal the exact paths' counts on
random, near-full, coset and arithmetic-progression rows.  The rule's choice
is spied on the benchmark's sweep groups and its large kernel groups, and
both precisions' batches are held to the batch budget."""

import math
import tracemalloc

import numpy as np
import pytest

from addforms import abelian
from addforms.abelian import FiniteAbelianGroup, GroupSubset, pair_count_rows
from addforms.cli import main

U = 2.0**-24


def percival(bits: int, pairs: int) -> float:
    """Percival's bound in floats: sqrt(pairs) times the growth factor of a
    length-2^bits transform with unit roundoff u and roots within 2u."""
    m = 3 * bits
    growth = math.expm1(
        m * math.log1p(U) + (m + 1) * math.log1p(U * math.sqrt(5)) + m * math.log1p(2 * U)
    )
    return math.sqrt(pairs) * growth


@pytest.mark.parametrize("bits", range(21))
def test_float32_pairs_is_the_largest_size_the_bound_certifies(bits):
    limit = abelian._float32_pairs(bits)
    assert percival(bits, limit) < 0.5
    # 2237/1000 exceeds sqrt 5 by 4e-4 of it, so the exact rule gives up
    # at most a share of that size of the float bound's headroom
    assert percival(bits, limit + 1) * (1 + 1e-3) >= 0.5


def test_the_rule_takes_float32_only_on_powers_of_two_under_the_bound():
    def dtype(moduli, pairs):
        return abelian._fft_dtype(FiniteAbelianGroup(moduli), np.array(pairs))

    for moduli in [(256,), (16, 16), (4, 4, 4), (4096,), (64, 64), (2, 8)]:
        assert dtype(moduli, [1, math.prod(moduli) ** 2]) is np.float32
    for moduli in [(100,), (12, 20), (3, 32), (48,)]:
        assert dtype(moduli, [1]) is np.float64
    # on Z65536 the bound decides: half density passes, 3/5 of it does not
    limit = abelian._float32_pairs(16)
    assert 2**30 <= limit < (65536 * 3 // 5) ** 2
    assert dtype((65536,), [1, limit]) is np.float32
    assert dtype((65536,), [limit + 1, 1]) is np.float64


def _rows(group: FiniteAbelianGroup, rng) -> np.ndarray:
    """Random rows, a near-full row (|A| = |G| - 1), a coset of a subgroup of
    index 2 (or the identity alone on Z2) and an arithmetic progression."""
    n = group.order
    index = np.arange(n)
    near_full = index != rng.integers(n)
    coset = index % 2 == 1 if n > 2 else index == 0
    step = int(rng.integers(1, n)) if n > 1 else 0
    progression = np.zeros(n, dtype=bool)
    progression[(int(rng.integers(n)) + step * np.arange(max(1, n // 3))) % n] = True
    return np.vstack([rng.random((3, n)) < 0.5, near_full, coset, progression])


FLOAT32_GROUPS = [(2**k,) for k in range(1, 13)] + [
    (2, 2),
    (2, 8),
    (4, 4, 4),
    (16, 16),
    (8, 32),
    (64, 64),
]


@pytest.mark.parametrize("moduli", FLOAT32_GROUPS, ids=str)
def test_float32_counts_equal_the_exact_paths(moduli):
    group = FiniteAbelianGroup(moduli)
    rng = np.random.Generator(np.random.Philox(key=group.order))
    a = _rows(group, rng)
    b = a[rng.permutation(len(a))]
    for lhs, rhs in ((a, b), (a, a)):
        pairs = lhs.sum(axis=1) * rhs.sum(axis=1)
        assert abelian._fft_dtype(group, pairs) is np.float32
        counts, ok = abelian._certified_fft(group, lhs, rhs, pairs)
        assert counts.dtype == np.int64 and ok.all()
        if group.order <= 256:
            want = abelian._table_counts(group, lhs, rhs)
        else:
            want = np.array(
                [abelian._pairwise_counts(group, x.nonzero()[0], y.nonzero()[0])
                 for x, y in zip(lhs, rhs)]
            )
        assert np.array_equal(counts, want)


def test_float32_counts_on_sparse_rows_of_z65536():
    group = FiniteAbelianGroup((65536,))
    rng = np.random.Generator(np.random.Philox(key=7))
    a, b = rng.random((2, 3, group.order)) < 0.004
    a[2] = False
    a[2, 3 + 257 * np.arange(200)] = True  # an arithmetic progression
    pairs = a.sum(axis=1) * b.sum(axis=1)
    assert abelian._fft_dtype(group, pairs) is np.float32
    counts, ok = abelian._certified_fft(group, a, b, pairs)
    assert ok.all()
    for row, x, y in zip(counts, a, b):
        assert np.array_equal(row, abelian._pairwise_counts(group, x.nonzero()[0], y.nonzero()[0]))


def _dtype_spy(monkeypatch):
    """Record (group, dtype) for every choice of `_fft_dtype`."""
    chosen = []

    def spy(group, pairs, original=abelian._fft_dtype):
        dtype = original(group, pairs)
        chosen.append((group.literal(), dtype))
        return dtype

    monkeypatch.setattr(abelian, "_fft_dtype", spy)
    return chosen


# the random sweeps of the benchmark's `sweeps` workload, fewer instances
SWEEPS = [
    ("energy-bound", "Z256", []),
    ("energy-bound", "Z16xZ16", []),
    ("energy-doubling", "Z128", []),
    ("kneser", "Z64", []),
    ("plunnecke-ruzsa", "Z100", ["--r", "2", "--s", "2"]),
]


def test_the_sweep_groups_choose_their_dtype(monkeypatch, tmp_path):
    chosen = _dtype_spy(monkeypatch)
    for kind, group, extra in SWEEPS:
        argv = ["check", f"--{kind}", "--group", group, "--random", "300", "--seed", "5", *extra]
        assert main([*argv, "--out", str(tmp_path / "report.json")]) in (0, 1)
    by_group = {}
    for group, dtype in chosen:
        by_group.setdefault(group, set()).add(dtype)
    assert by_group == {
        "Z256": {np.float32},
        "Z16xZ16": {np.float32},
        "Z128": {np.float32},
        "Z64": {np.float32},
        "Z100": {np.float64},
    }


# the kernel groups of order at least 4096 that reach the FFT (Z2^12 runs the
# butterflies), with the densities of the benchmark's `kernels` workload
KERNELS = [
    ((4096,), (0.50, 0.10, 0.50, 0.05, 0.05)),
    ((64, 64), (0.25, 0.50, 0.10, 0.25, 0.01)),
    ((16384,), (0.10, 0.25, 0.05, 0.01, 0.25)),
    ((256, 256), (0.02, 0.05, 0.05, 0.10, 0.01)),
    ((65536,), (0.01, 0.02, 0.05, 0.10, 0.01)),
]


def test_the_large_kernel_groups_choose_float32(monkeypatch):
    chosen = _dtype_spy(monkeypatch)
    rng = np.random.Generator(np.random.Philox(key=11))
    for moduli, (de, dd, ds, da, db) in KERNELS:
        group = FiniteAbelianGroup(moduli)

        def subset(density):
            return GroupSubset(group, rng.random(group.order) < density)

        abelian.additive_energy_raw(subset(de))
        abelian.doubling_constant(subset(dd))
        abelian.stabilizer(subset(ds))
        abelian.sumset(subset(da), subset(db))
    literals = {FiniteAbelianGroup(m).literal() for m, _ in KERNELS}
    assert {group for group, _ in chosen} == literals
    assert {dtype for _, dtype in chosen} == {np.float32}


@pytest.mark.parametrize("moduli, dtype", [((256,), np.float32), ((16, 16), np.float32),
                                           ((100,), np.float64), ((12, 20), np.float64)])
def test_fft_batch_temporaries_stay_within_the_batch_budget(moduli, dtype):
    group = FiniteAbelianGroup(moduli)
    rows = abelian.batch_rows(group)
    rng = np.random.Generator(np.random.Philox(key=5))
    a, b = rng.random((2, rows, group.order)) < 0.5
    a[0] = False  # an empty row: the closed rows' counts are held beside the batch
    assert abelian._fft_dtype(group, a.sum(axis=1) * b.sum(axis=1)) is dtype
    tracemalloc.start()
    try:
        pair_count_rows(group, a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the int64 counts, and the rounded and raw values of the inverse transform
    low = 8 + 2 * np.dtype(dtype).itemsize
    assert low * rows * group.order <= peak <= abelian._BATCH_BYTES
