"""Exact arithmetic for finite abelian groups presented as products of cyclic
groups, and set-level operations on their subsets.

Elements are residue tuples; subsets carry a bit vector indexed by the
mixed-radix element index (first factor slowest, matching C order).  All
densities, energies and counts are exact: integers or `fractions.Fraction`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import threading
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._scan import Scanner
from .errors import CapExceeded, GroupMismatchError, ParseError

DEFAULT_MAX_ORDER = 2**20
MAX_ORDER_ENV = "ADDFORMS_MAX_ORDER"

# Row cap for temporary pairwise tables (sumset, representation counts).
_CHUNK = 1 << 21

# `pair_count_rows` counts the rows of a call pairwise or batched, whichever
# its cost rule, in units of one pair counted pairwise, finds cheaper (timings
# in CHANGES.md): pairwise, a row costs _PAIRWISE_ROW_PAIRS + |A_i|*|B_i|;
# batched, the call costs _BATCH_CALL_PAIRS and each row
# _BATCH_PAIRS_PER_ELEMENT * |G|.  So a lone small row is counted pairwise,
# and the same row in a large batch is not.  The batched path is the
# difference-table loop when |G| <= _TABLE_ORDER_PER_AXIS * rank (numpy's
# n-dimensional FFT pays a pass per axis, so the loop wins on many short axes
# and on one axis up to about |G| = 32); otherwise int64 Walsh-Hadamard
# butterflies on Z2^k while |G|^3 < _I64_EXACT, and one certified FFT on
# every other group.
_PAIRWISE_ROW_PAIRS = 1 << 10
_BATCH_PAIRS_PER_ELEMENT = 8
_BATCH_CALL_PAIRS = 1 << 12
_TABLE_ORDER_PER_AXIS = 32
# A row of `pair_count_rows` holds up to about 44 bytes of temporaries per
# group element (measured by tracemalloc: the float64 FFT over two axes with
# an empty row in the batch; 27 on the float32 FFT, 22 on the butterflies);
# `batch_rows` budgets 48, which keeps a batch within this many bytes, so
# sweeps stay within the peak RSS of the per-subset code they replace.
_BATCH_BYTES = 1 << 20
# int64 holds every integer below this: pair counts, their squares' sums and
# the butterflies' partial sums are at most |G|^3.
_I64_EXACT = 1 << 63
# `FiniteAbelianGroup.sum_code` gives a code at most this many times |G| long.
_CODE_SPREAD = 16
# The codes of `sum_code` and their multiples, cached by the groups' moduli
# (every group of the same moduli shares them), hold at most _CODE_CACHE
# entries in all: `_keep` drops the least recently used first (`_cached`
# makes a hit the most recent), under _CODE_LOCK, since threads may share a
# group.
_CODE_CACHE = 1 << 22
_CODES: dict = {}
_CODE_LOCK = threading.Lock()


def max_order_cap(explicit: int | None = None) -> int:
    """Group-order cap: explicit argument wins over the environment variable."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(MAX_ORDER_ENV)
    if env is not None and env.strip():
        return int(env)
    return DEFAULT_MAX_ORDER


class FiniteAbelianGroup:
    """Direct product of cyclic groups Z_{n_1} x ... x Z_{n_m}.

    The index <-> residue-tuple bijection is mixed radix with the first
    factor slowest.  Instances are immutable and safe to share.
    """

    __slots__ = ("moduli", "order", "_tables")

    def __init__(self, moduli: Sequence[int], max_order: int | None = None):
        mods = tuple(int(n) for n in moduli)
        if not mods:
            raise ValueError("a group needs at least one cyclic factor (Z1 is trivial)")
        if any(n < 1 for n in mods):
            raise ValueError(f"cyclic factors must be >= 1, got {mods}")
        order = 1
        for n in mods:
            order *= n
        cap = max_order_cap(max_order)
        if order > cap:
            raise CapExceeded(
                f"group order {order} exceeds cap {cap}; pass max_order or set "
                f"{MAX_ORDER_ENV} to override"
            )
        object.__setattr__(self, "moduli", mods)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_tables", {})

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FiniteAbelianGroup is immutable")

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def element(self, residues: Sequence[int]) -> "GroupElement":
        if len(residues) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} residues, got {len(residues)}"
            )
        reduced = tuple(int(r) % n for r, n in zip(residues, self.moduli))
        return GroupElement(self, reduced)

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.moduli))

    def index_of(self, residues: Sequence[int]) -> int:
        return self.combine((), residues)

    def from_index(self, index: int) -> "GroupElement":
        if not 0 <= index < self.order:
            raise ValueError(f"index {index} out of range for order {self.order}")
        residues = []
        for n in reversed(self.moduli):
            index, r = divmod(index, n)
            residues.append(r)
        return GroupElement(self, tuple(reversed(residues)))

    def __iter__(self) -> Iterator["GroupElement"]:
        for i in range(self.order):
            yield self.from_index(i)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.moduli)})"

    def literal(self) -> str:
        """Text form accepted by `parse_group`, e.g. "Z9xZ2"."""
        return "x".join(f"Z{n}" for n in self.moduli)

    # Vectorized index helpers used throughout the package.

    def residue_table(self, t: int) -> np.ndarray:
        """int64 array: residue of each element index in component t."""
        table = self._tables.get(t)
        if table is None:
            shape = [1] * self.rank
            shape[t] = self.moduli[t]
            axis = np.arange(self.moduli[t], dtype=np.int64).reshape(shape)
            table = np.broadcast_to(axis, self.moduli).ravel()
            table.flags.writeable = False
            self._tables[t] = table
        return table

    def difference_table(self) -> np.ndarray:
        """int64 |G| x |G| array: entry [g, x] is the index of g - x."""
        table = self._tables.get("diff")
        if table is None:
            idx = np.arange(self.order)
            table = self.combine(((1, idx[:, None]), (-1, idx[None, :])))
            table.flags.writeable = False
            self._tables["diff"] = table
        return table

    def sum_code(self, terms: int) -> "SumCode | IndexCode":
        """The carry-free code (`SumCode`) of the sums of `terms` >= 1 element
        indices while its length E = prod_t (terms (n_t - 1) + 1) is at most
        _CODE_SPREAD * |G| and the code takes at most half the cache (E
        entries, plus |G| weights on a non-cyclic group), leaving the other
        half to its multiples; else the `IndexCode`: the engine's one choice
        of gather.  Two terms give E = prod_t (2 n_t - 1): a cyclic group of up
        to 2^20 elements has a code, Z2^k while 3^k <= 16 * 2^k, Z512xZ512 but
        not Z1024xZ1024 or Z32^4."""
        size = math.prod(terms * (n - 1) + 1 for n in self.moduli)
        weights = 0 if len(self.moduli) == 1 else self.order  # `SumCode.size` counts both
        if size > min(_CODE_SPREAD * self.order, _CODE_CACHE // 2 - weights):
            return IndexCode(self)
        key = ("code", self.moduli, terms)
        return _cached(key) or _keep(key, SumCode(self.moduli, terms))

    def combine(self, terms, offsets: Sequence[int] | None = None):
        """Flat indices of offsets + sum of c * x over (c, index array) terms.

        Each c is an integer or an int64 array of integers; the index and
        coefficient arrays broadcast against each other.  `offsets` is a
        residue tuple, needed when there are no terms (it is then the Python
        integer index of `offsets`).  The index is the C-order mixed-radix one
        that `from_residues` writes and `residue_matrix` reads with numpy's
        (un)ravel: residues from `residue_table`, folded as flat * n + comp.

        It makes a pass per term, a `%` and a fold per component, so the
        engine's table gathers index by `sum_code` instead.  `combine` serves
        the scalar and parse-time callers, the small (parts, rows) block of
        the pinned parts in `linform._tables`, and the `IndexCode` fallback.
        """
        flat = 0
        for t, n in enumerate(self.moduli):
            comp = None if offsets is None else int(offsets[t]) % n
            for c, idx in terms:
                part = self.residue_table(t)[idx]
                if isinstance(c, np.ndarray):
                    part = part * (c % n)
                elif c % n != 1:
                    # unit coefficients skip the multiply: on the tiny sets of
                    # exhaustive sweeps each numpy call is a large share of the cost
                    part *= c % n
                comp = part if comp is None else comp + part
            comp %= n
            if t:
                flat *= n
                flat += comp
            else:
                flat = comp
        return flat


def _cached(key):
    """The entry of `key` in _CODES, made the most recent, or None."""
    with _CODE_LOCK:
        value = _CODES.pop(key, None)
        if value is not None:
            _CODES[key] = value
    return value


def _keep(key, value):
    """`value`, cached under `key` in _CODES unless it holds more than
    _CODE_CACHE entries (`size`); the least recent entries are dropped while
    the cache holds more."""
    if value.size <= _CODE_CACHE:
        with _CODE_LOCK:
            _CODES[key] = value
            while sum(v.size for v in _CODES.values()) > _CODE_CACHE:
                del _CODES[next(iter(_CODES))]
    return value


class SumCode:
    """A carry-free mixed-radix code for the sums x_1 + ... + x_k of k =
    `spread` >= 1 element indices of the group of `moduli`, from
    `FiniteAbelianGroup.sum_code`; a term c * x enters as the index of c * x
    (`multiple`).

    Digit t of a sum is its unreduced component sum s_t = sum_i res_t(x_i),
    which lies in [0, spread (n_t - 1)], so its radix is R_t = spread (n_t - 1)
    + 1, the first digit slowest.  The code of a sum is then the sum of its
    terms' codes weight[x_i] with weight[x] = sum_t res_t(x) prod_{u > t} R_u,
    each computed on its term's own shape, and nothing is reduced mod n_t.
    `decode`, of length E = prod_t R_t, maps a code to the flat index of the
    sum: gathered once at `decode` (`ready`), a (rows, |G|) table is indexed
    by codes, so a block costs one broadcast add and one gather.  Codes and
    multiples are cached (`_keep`).
    """

    __slots__ = ("moduli", "radices", "spread", "weight", "decode", "size")

    def __init__(self, moduli: tuple[int, ...], spread: int):
        self.moduli, self.spread = moduli, spread
        self.radices = radices = [spread * (n - 1) + 1 for n in moduli]
        order = math.prod(moduli)
        weight = np.ravel_multi_index(np.unravel_index(np.arange(order), moduli), radices)
        weight.flags.writeable = False
        self.weight = None if len(moduli) == 1 else weight  # a cyclic weight is the index
        digits = np.unravel_index(np.arange(math.prod(radices)), radices)
        self.decode = np.ravel_multi_index([d % n for d, n in zip(digits, moduli)], moduli)
        self.decode.flags.writeable = False
        self.size = self.decode.size + (0 if self.weight is None else order)  # for `_keep`

    def __call__(self, x):
        """The codes of the element indices x: weight[x], on a cyclic group x."""
        return x if self.weight is None else self.weight[x]

    def ready(self, table: np.ndarray) -> np.ndarray:
        """`table`, over the elements on its last axis, gathered at `decode`,
        so that codes index it."""
        return table.take(self.decode, axis=-1)

    def index(self, terms):
        """The codes of the sums of c * x over at most `spread` (c, index
        array) terms: `decode` of them is `combine(terms)`.  Each term is
        reduced first (`multiple`; an array c takes a 1-D x)."""
        code = None
        for c, x in terms:
            unit = not isinstance(c, np.ndarray) and c == 1
            part = self(x) if unit else self.multiple(c).take(x, axis=-1)
            code = part if code is None else code + part
        return code

    def multiple(self, m) -> np.ndarray:
        """The codes of m * x reduced, as a term of coefficient 1, for every x:
        (|G|,) for an integer m and (forms, 1, |G|) for a (forms, 1, 1) array
        of them; cached."""
        key = m if isinstance(m, int) else tuple(m.ravel().tolist())
        key = ("multiple", self.moduli, self.spread, key)
        codes = _cached(key)
        if codes is None:
            every = np.unravel_index(np.arange(math.prod(self.moduli)), self.moduli)
            reduced = [m * r % n for r, n in zip(every, self.moduli)]
            codes = np.ravel_multi_index(reduced, self.radices)
            codes.flags.writeable = False
            _keep(key, codes)
        return codes


class IndexCode:
    """The fallback of `FiniteAbelianGroup.sum_code`, with `SumCode`'s methods:
    a sum's code is its flat index (`combine`), and a table is ready as is."""

    __slots__ = ("index",)

    def __init__(self, group: FiniteAbelianGroup):
        self.index = group.combine

    def ready(self, table: np.ndarray) -> np.ndarray:
        return table


class GroupElement:
    """An element of a FiniteAbelianGroup, stored as a reduced residue tuple."""

    __slots__ = ("group", "residues")

    def __init__(self, group: FiniteAbelianGroup, residues: tuple[int, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "residues", residues)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("GroupElement is immutable")

    def index(self) -> int:
        return self.group.index_of(self.residues)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return element_add(self, other)

    def __neg__(self) -> "GroupElement":
        return element_scale(-1, self)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return element_add(self, -other)

    def __rmul__(self, c: int) -> "GroupElement":
        return element_scale(c, self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group == other.group
            and self.residues == other.residues
        )

    def __hash__(self) -> int:
        return hash((self.group.moduli, self.residues))

    def __repr__(self) -> str:
        return f"GroupElement{self.residues}"


def _same_group(*objs) -> FiniteAbelianGroup:
    group = objs[0].group
    for o in objs[1:]:
        if o.group != group:
            raise GroupMismatchError(
                f"operands live in different groups: {group.literal()} vs "
                f"{o.group.literal()}"
            )
    return group


def element_add(a: GroupElement, b: GroupElement) -> GroupElement:
    """Componentwise (a + b) mod n_t."""
    group = _same_group(a, b)
    return GroupElement(
        group,
        tuple((x + y) % n for x, y, n in zip(a.residues, b.residues, group.moduli)),
    )


def element_scale(c: int, a: GroupElement) -> GroupElement:
    """Integer multiple c*a, reduced per component; negatives allowed."""
    return GroupElement(
        a.group, tuple((c * x) % n for x, n in zip(a.residues, a.group.moduli))
    )


class GroupSubset:
    """A subset A of a group with bit-vector membership and cached size.

    Immutable after construction; use the classmethods to build one.
    """

    __slots__ = ("group", "bits", "size", "_indices")

    def __init__(self, group: FiniteAbelianGroup, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (group.order,):
            raise ValueError(f"bit vector must have length {group.order}")
        bits = bits.copy()
        bits.flags.writeable = False
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "size", int(np.count_nonzero(bits)))
        object.__setattr__(self, "_indices", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("GroupSubset is immutable")

    @classmethod
    def empty(cls, group: FiniteAbelianGroup) -> "GroupSubset":
        return cls(group, np.zeros(group.order, dtype=bool))

    @classmethod
    def full(cls, group: FiniteAbelianGroup) -> "GroupSubset":
        return cls(group, np.ones(group.order, dtype=bool))

    @classmethod
    def from_indices(
        cls, group: FiniteAbelianGroup, indices: Iterable[int]
    ) -> "GroupSubset":
        bits = np.zeros(group.order, dtype=bool)
        idx = np.fromiter((int(i) for i in indices), dtype=np.int64, count=-1)
        if idx.size:
            if idx.min() < 0 or idx.max() >= group.order:
                raise ValueError("subset index out of range")
            bits[idx] = True
        return cls(group, bits)

    @classmethod
    def from_elements(
        cls, group: FiniteAbelianGroup, elements: Iterable[GroupElement]
    ) -> "GroupSubset":
        idx = []
        for e in elements:
            if e.group != group:
                raise GroupMismatchError("element from a different group")
            idx.append(e.index())
        return cls.from_indices(group, idx)

    @classmethod
    def from_residues(
        cls, group: FiniteAbelianGroup, tuples: Iterable[Sequence[int]] | np.ndarray
    ) -> "GroupSubset":
        """The subset of the given residue rows, each reduced mod the moduli;
        `tuples` may also be an (n, rank) integer matrix.  Residues must be
        integers: bools, floats and non-integer arrays raise `ValueError`."""
        if isinstance(tuples, np.ndarray):
            table = tuples
        else:
            rows = [tuple(r) for r in tuples]
            if any(len(r) != group.rank for r in rows):
                raise ValueError(f"every element needs {group.rank} residues")
            # object dtype keeps residues of any size exact until reduced
            table = np.array(rows, dtype=object).reshape(-1, group.rank)
        if table.ndim != 2 or table.shape[1] != group.rank:
            raise ValueError(f"every element needs {group.rank} residues")
        if not np.issubdtype(table.dtype, np.integer) and not (
            table.dtype == object
            and all(isinstance(v, (int, np.integer)) and type(v) is not bool for v in table.flat)
        ):
            raise ValueError("residues must be integers")
        table = (table % np.array(group.moduli, dtype=np.int64)).astype(np.int64)
        bits = np.zeros(group.order, dtype=bool)
        bits[np.ravel_multi_index(tuple(table.T), group.moduli)] = True
        return cls(group, bits)

    def indices(self) -> np.ndarray:
        cached = self._indices
        if cached is None:
            cached = np.nonzero(self.bits)[0].astype(np.int64)
            cached.flags.writeable = False
            object.__setattr__(self, "_indices", cached)
        return cached

    def elements(self) -> list[GroupElement]:
        return [self.group.from_index(int(i)) for i in self.indices()]

    def residue_matrix(self) -> np.ndarray:
        """int64 (size, rank) matrix of the elements' residues, in index order."""
        return np.stack(np.unravel_index(self.indices(), self.group.moduli), 1).astype(
            np.int64, copy=False
        )

    def residue_lists(self) -> list[list[int]]:
        return self.residue_matrix().tolist()

    def density(self) -> Fraction:
        return Fraction(self.size, self.group.order)

    def contains(self, element: GroupElement) -> bool:
        if element.group != self.group:
            raise GroupMismatchError("membership test across groups")
        return bool(self.bits[element.index()])

    __contains__ = contains

    def translate(self, by: GroupElement) -> "GroupSubset":
        """The translate A + by."""
        if by.group != self.group:
            raise GroupMismatchError("translate by element of a different group")
        bits = np.zeros(self.group.order, dtype=bool)
        bits[self.group.combine(((1, self.indices()),), by.residues)] = True
        return GroupSubset(self.group, bits)

    def negate(self) -> "GroupSubset":
        """The reflection -A."""
        return GroupSubset(self.group, _negated_rows(self.group, self.bits[None])[0])

    def __and__(self, other: "GroupSubset") -> "GroupSubset":
        _same_group(self, other)
        return GroupSubset(self.group, self.bits & other.bits)

    def __or__(self, other: "GroupSubset") -> "GroupSubset":
        _same_group(self, other)
        return GroupSubset(self.group, self.bits | other.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupSubset)
            and self.group == other.group
            and bool(np.array_equal(self.bits, other.bits))
        )

    def __repr__(self) -> str:
        return f"GroupSubset({self.group.literal()}, size={self.size})"


def _pairwise_counts(group: FiniteAbelianGroup, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """#{(x, y) : x in ia, y in ib, x + y = g} for every g, by enumerating pairs."""
    if ia.size > ib.size:
        ia, ib = ib, ia
    step = max(1, _CHUNK // max(1, ib.size))
    counts = None
    for s in range(0, max(1, ia.size), step):
        flat = group.combine(((1, ia[s : s + step, None]), (1, ib[None, :])))
        part = np.bincount(flat.ravel(), minlength=group.order)
        counts = part if counts is None else counts + part
    return counts


def _table_counts(group: FiniteAbelianGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pair counts of the rows of two (rows, |G|) indicator matrices as the
    sum of a[:, x] & b[:, g - x] over x, in integers, one column of the
    difference table at a time, element-major."""
    diff = group.difference_table()
    at = a.T.copy()  # a row per element
    bt = at if b is a else b.T.copy()
    counts = np.zeros(bt.shape, dtype=np.min_scalar_type(group.order))
    for x in range(group.order):
        counts += at[x] & bt[diff[:, x]]
    return counts.T.astype(np.int64)


def _certified_fft(group: FiniteAbelianGroup, a: np.ndarray, b: np.ndarray, pairs):
    """Pair counts of the rows of two (rows, |G|) indicator matrices by one
    real FFT convolution over the group axes (the C-order index makes
    `reshape(rows, *moduli)` the array to transform), in the precision of
    `_fft_dtype`, rounded to int64, with a per-row certificate: every value
    lies within 1/4 of an integer and the row sums to `pairs`
    (|A_i| * |B_i|).  Pass `b is a` for A + A."""
    rows = len(a)
    shape = (rows, *group.moduli)
    axes = tuple(range(1, group.rank + 1))
    dtype = _fft_dtype(group, pairs)
    # numpy 2.4 runs a float32 forward transform in double under the default
    # norm (its scale, the int 1, picks the double loop, through casting
    # buffers); norm="forward" keeps float32, and on |G| = 2^n its scale
    # 1/|G| per operand, and the |G|^2 that undoes both, are exact
    norm = "forward" if dtype is np.float32 else "backward"
    fa = np.fft.rfftn(a.reshape(shape).astype(dtype), axes=axes, norm=norm)
    fa *= fa if b is a else np.fft.rfftn(b.reshape(shape).astype(dtype), axes=axes, norm=norm)
    if dtype is np.float32:
        fa *= group.order**2
    raw = np.fft.irfftn(fa, s=group.moduli, axes=axes).reshape(rows, group.order)
    del fa
    counts = np.rint(raw)
    raw -= counts
    np.abs(raw, out=raw)
    ok = raw.max(axis=1) < 0.25
    counts = counts.astype(np.int64)
    ok &= counts.sum(axis=1) == pairs
    return counts, ok


def _fft_dtype(group: FiniteAbelianGroup, pairs):
    """float32 when Percival's a priori bound proves that a float32 FFT
    convolution rounds every pair count to the right integer, else float64.

    Percival, Math. Comp. 72 (2003), Thm 5.1: an FFT convolution of integer
    vectors x, y of length 2^n, in floating point of unit roundoff u with
    roots of unity within beta of the true ones, is off by less than
    ||x|| ||y|| ((1 + u)^3n (1 + u sqrt 5)^(3n+1) (1 + beta)^3n - 1) in
    every entry.  For indicator rows ||x|| ||y|| = sqrt(|A_i| |B_i|), so
    float32 (u = 2^-24) is used when the batch's largest |A_i| |B_i| keeps
    the bound below 1/2 (`_float32_pairs`).  numpy's pocketfft computes its
    float32 roots in double and rounds them, so beta < 2u.  The theorem is
    for power-of-two lengths, transformed by radix-2 stages.  It is taken to
    cover a group of order 2^n on any number of axes, whose transform is n
    radix-2 stages in all (pocketfft runs them as radix-4 and radix-2
    passes); every other group stays in float64.  The certificate of
    `_certified_fft` still checks every row."""
    bits = group.order.bit_length() - 1
    if group.order == 1 << bits and pairs.max() <= _float32_pairs(bits):
        return np.float32
    return np.float64


@functools.cache
def _float32_pairs(bits: int) -> int:
    """The largest |A| * |B| for which Percival's bound (`_fft_dtype`) on a
    float32 transform of length 2^bits is below 1/2, in exact rationals:
    2237/1000 > sqrt 5 and beta = 2u."""
    u = Fraction(1, 1 << 24)
    m = 3 * bits
    growth = (1 + u) ** m * (1 + u * Fraction(2237, 1000)) ** (m + 1) * (1 + 2 * u) ** m - 1
    # sqrt(pairs) * growth < 1/2  <=>  pairs < 1 / (4 growth^2)
    return math.ceil(1 / (4 * growth**2)) - 1


def _walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """The unnormalized Walsh-Hadamard transform of a C-contiguous array over
    its last axis, whose length is a power of 2, written back into `x`;
    returns `x`.  On Z2^k, whose characters are +-1, this is the DFT, and in
    integers it is exact while every partial sum, at most 2^k times the
    largest input, fits the dtype.  Each of the k butterfly stages maps
    (x[2j], x[2j+1]) to (y[j], y[j + n/2]) = (sum, difference): the same
    strides at every stage, between `x` and one scratch array, and after k
    stages the index bits are back in order."""
    n = x.shape[-1]
    rows = x.reshape(-1, n)  # a view: `x` is C-contiguous
    src, dst = rows, np.empty_like(rows)
    for _ in range(n.bit_length() - 1):
        even, odd = src[:, 0::2], src[:, 1::2]
        np.add(even, odd, out=dst[:, : n // 2])
        np.subtract(even, odd, out=dst[:, n // 2 :])
        src, dst = dst, src
    if src is not rows:
        rows[...] = src
    return x


def _butterflies(group: FiniteAbelianGroup) -> bool:
    """Whether `pair_count_rows` counts on `group` by int64 butterflies: every
    modulus is 2 (or 1), and |G|^3 < _I64_EXACT bounds every partial sum."""
    return max(group.moduli) <= 2 and group.order**3 < _I64_EXACT


def _butterfly_counts(group: FiniteAbelianGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pair counts of the rows of two (rows, |G|) indicator matrices on Z2^k,
    exactly: WHT(WHT(a) * WHT(b)) / |G| in int64.  Pass `b is a` for A + A."""
    fa = _walsh_hadamard(a.astype(np.int64))
    fa *= fa if b is a else _walsh_hadamard(b.astype(np.int64))
    return _walsh_hadamard(fa) >> (group.order.bit_length() - 1)


def batch_rows(group: FiniteAbelianGroup) -> int:
    """Rows per `pair_count_rows` call that keep its temporaries near
    `_BATCH_BYTES`."""
    return max(1, _BATCH_BYTES // (48 * group.order))


def pair_count_rows(group: FiniteAbelianGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise pair counts of two boolean (rows, |G|) matrices: int64
    (rows, |G|) with entry [i, g] = #{(x, y) in A_i x B_i : x + y = g}.

    The one pair counter.  A row with an empty operand counts 0 everywhere,
    and a row with a full operand counts the other operand's size
    everywhere; those rows are answered so and left out of the rest.  For
    the others the cost rule above picks, from |A_i| * |B_i|, |G|, the rank
    and the number of rows, one exact path: the difference-table loop,
    Walsh-Hadamard butterflies on Z2^k, one certified FFT convolution whose
    rejected rows are counted pairwise, or pairwise counting.  Pass `b is a`
    for A + A; batches of `batch_rows(group)` rows keep the temporaries near
    `_BATCH_BYTES`.
    """
    n = group.order
    sizes = a.sum(axis=1)
    other = sizes if b is a else b.sum(axis=1)
    pairs = sizes * other
    ruled = (pairs > 0) & (sizes < n) & (other < n)
    if ruled.all():
        return _ruled_counts(group, a, b, pairs)
    closed = np.where(pairs == 0, 0, np.where(sizes == n, other, sizes))
    counts = np.repeat(closed[:, None], n, axis=1)
    rest = np.flatnonzero(ruled)
    if rest.size:
        ar = a[rest]
        counts[rest] = _ruled_counts(group, ar, ar if b is a else b[rest], pairs[rest])
    return counts


def _ruled_counts(group: FiniteAbelianGroup, a: np.ndarray, b: np.ndarray, pairs) -> np.ndarray:
    """`pair_count_rows` of rows whose operands are neither empty nor full,
    by the path the cost rule picks; `pairs` holds |A_i| * |B_i|."""
    pairwise_cost = (pairs + _PAIRWISE_ROW_PAIRS).sum()
    if pairwise_cost < _BATCH_CALL_PAIRS + len(a) * _BATCH_PAIRS_PER_ELEMENT * group.order:
        counts, recount = np.empty(a.shape, dtype=np.int64), range(len(a))
    elif group.order <= _TABLE_ORDER_PER_AXIS * group.rank:
        counts, recount = _table_counts(group, a, b), ()
    elif _butterflies(group):
        counts, recount = _butterfly_counts(group, a, b), ()
    else:
        counts, ok = _certified_fft(group, a, b, pairs)
        recount = np.flatnonzero(~ok)
    for i in recount:
        counts[i] = _pairwise_counts(group, a[i].nonzero()[0], b[i].nonzero()[0])
    return counts


def _negated_rows(group: FiniteAbelianGroup, s: np.ndarray) -> np.ndarray:
    """Row-wise -S_i, by one gather per axis longer than 2; on Z2 and Z1
    -x = x, so there it is `s` itself and S + (-S) runs one FFT."""
    negated = s
    for axis, n in enumerate(group.moduli, 1):
        if n > 2:
            shaped = negated.reshape(len(s), *group.moduli)
            negated = shaped.take(-np.arange(n) % n, axis=axis).reshape(s.shape)
    return negated


def sumset_rows(group: FiniteAbelianGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise A_i + B_i as a boolean (rows, |G|) matrix."""
    return pair_count_rows(group, a, b) > 0


def signed_iterated_sumset_rows(
    group: FiniteAbelianGroup, b: np.ndarray, r: int, s: int
) -> np.ndarray:
    """Row-wise rB_i - sB_i as a boolean (rows, |G|) matrix.  Each sign's
    folds stop once a fold changes no row: X + B = X gives X + 2B = X + B,
    so every later fold is the same."""
    if r < 0 or s < 0:
        raise ValueError("fold counts must be nonnegative")
    if r + s < 1:
        raise ValueError("need r + s >= 1")
    folded = np.zeros_like(b)
    folded[:, 0] = True
    for step, folds in ((b, r), (_negated_rows(group, b), s)):
        for _ in range(folds):
            grown = sumset_rows(group, folded, step)
            if np.array_equal(grown, folded):
                break
            folded = grown
    return folded


def stabilizer_rows(group: FiniteAbelianGroup, s: np.ndarray) -> np.ndarray:
    """Row-wise stabilizers as a boolean (rows, |G|) matrix: |S & (S + g)|
    equals its value |S| at the identity (column 0) exactly when g
    stabilizes S, so the rows of empty and full sets are the full group."""
    counts = pair_count_rows(group, s, _negated_rows(group, s))
    return counts == counts[:, :1]


def additive_energy_rows(group: FiniteAbelianGroup, counts: np.ndarray) -> np.ndarray:
    """Row-wise `additive_energy_raw` from the representation counts
    `pair_count_rows(group, a, a)`, exact: int64 while |G|^3 fits, an array
    of Python integers beyond it."""
    if group.order**3 >= _I64_EXACT:
        counts = counts.astype(object)
    return (counts * counts).sum(axis=1)


# Tables over every subset of a small group, indexed by its mask: element i is
# in the subset of mask m when bit i of m is set.  Masks take the smallest
# unsigned dtype that holds them, and each table costs O(|G| 2^|G|) in all,
# where the rows pay a pair count of O(|G|^2) per subset.

_BYTE_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _mask_dtype(group: FiniteAbelianGroup) -> np.dtype:
    return np.min_scalar_type((1 << group.order) - 1)


def all_masks(group: FiniteAbelianGroup) -> np.ndarray:
    """The masks 0, 1, ..., 2^|G| - 1 of every subset, in mask order."""
    return np.arange(1 << group.order, dtype=_mask_dtype(group))


def popcount(masks: np.ndarray) -> np.ndarray:
    """uint8: the number of set bits of each mask of an unsigned integer
    array, a byte at a time through a 256-entry table (`np.bitwise_count`
    needs numpy 2.0)."""
    counts = _BYTE_POPCOUNT.take(masks & 0xFF)
    for shift in range(8, 8 * masks.dtype.itemsize, 8):
        counts += _BYTE_POPCOUNT.take(masks >> shift & 0xFF)
    return counts


def _image_tables(images: np.ndarray, dtype) -> list[np.ndarray]:
    """For each byte of a mask, the (256, maps) table of the masks, in
    `dtype`, of the images of that byte's bits: images[k, i] is the image of
    element i under map k.  Each table doubles bit by bit, a contiguous block
    at a time: entry v + 2^j adds the image of bit j to entry v."""
    tables = []
    for low in range(0, images.shape[1], 8):
        bits = np.left_shift(1, images[:, low : low + 8].T).astype(dtype)
        table = np.zeros((1 << len(bits), len(images)), dtype=dtype)
        for j, bit in enumerate(bits):
            np.bitwise_or(table[: 1 << j], bit, out=table[1 << j : 2 << j])
        tables.append(table)
    return tables


def _images_below(tables: list[np.ndarray], k: int, bits: int) -> np.ndarray:
    """The mask of the image under map k of every mask below 2^bits, in mask
    order: the outer OR of the byte tables of `_image_tables`."""
    out = tables[0][: 1 << min(bits, 8), k]
    for j in range(1, -(-bits // 8)):
        out = (tables[j][: 1 << min(bits - 8 * j, 8), k, None] | out).ravel()
    return out


def _sum_table(group: FiniteAbelianGroup) -> np.ndarray:
    """int64 |G| x |G| array: entry [x, y] is the index of x + y."""
    x = np.arange(group.order)
    return group.combine(((1, x[:, None]), (1, x[None, :])))


def translate_masks(group: FiniteAbelianGroup) -> Iterator[np.ndarray]:
    """The mask of x + S for every mask S, for each element index x in turn."""
    tables = _image_tables(_sum_table(group), _mask_dtype(group))
    for x in range(group.order):
        yield _images_below(tables, x, group.order)


def additive_energy_masks(group: FiniteAbelianGroup) -> np.ndarray:
    """`additive_energy_raw` of every mask, unsigned, as wide as |G|^3 needs.

    A solution (a, b, c, d) of a + b = c + d, one of |G|^3, lies in A exactly
    when its support mask {a, b, c, d} lies within A's mask.  So E(A) sums,
    over the masks S within A, the number of solutions of support S: one
    subset-sum (zeta) transform of those numbers, a pass per element.  Every
    partial sum is an E(A) of some A, at most |G|^3."""
    n = group.order
    d = group.difference_table()[_sum_table(group)]  # [a, b, c]: a + b - c
    bit = np.left_shift(1, np.arange(n)).astype(_mask_dtype(group))
    support = bit[:, None, None] | bit[None, :, None] | bit[None, None, :] | bit[d]
    energy = np.zeros(1 << n, dtype=np.min_scalar_type(n**3))
    # counted in place: `np.unique` would sort, and numpy's sort kernels,
    # used nowhere else in a sweep, add about 0.25 MB of resident code
    np.add.at(energy, support.ravel(), 1)
    # a pass adds the masks without bit t into those with it, which numpy
    # does fast only while runs of 2^t are long: the high bits pass in mask
    # order, the low ones on the transpose, where bit t runs 2^(t + n - low)
    low = n // 2
    _zeta_passes(energy, range(low, n))
    swapped = energy.reshape(-1, 1 << low).T.copy()
    del energy
    _zeta_passes(swapped, range(n - low, n))
    return swapped.T.ravel()


def _zeta_passes(table: np.ndarray, bits) -> None:
    """Add, in place, each entry of `table` whose flat index lacks bit t
    into the entry with it, for each t in `bits`."""
    for t in bits:
        halves = table.reshape(-1, 2, 1 << t)
        halves[:, 1] += halves[:, 0]


def doubled_masks(group: FiniteAbelianGroup) -> np.ndarray:
    """The mask of A + A for every mask A, by recursion on A's top element
    x: (A' + {x}) + (A' + {x}) is (A' + A') | (x + A') | {2x}, for each A'
    below 2^x."""
    n = group.order
    adds = _sum_table(group)
    sums = np.zeros(1 << n, dtype=_mask_dtype(group))
    tables = _image_tables(adds, sums.dtype)
    for x in range(n):
        top = sums[1 << x : 2 << x]
        np.bitwise_or(sums[: 1 << x], _images_below(tables, x, x), out=top)
        top |= 1 << int(adds[x, x])
    return sums


def pair_sumset_masks(group: FiniteAbelianGroup) -> np.ndarray:
    """The mask of A + B for every pair of masks, as a (2^|G|, 2^|G|) table
    [A, B] (A-major when raveled), by recursion on A's top element x:
    (A' + {x}) + B is (A' + B) | (x + B)."""
    n = group.order
    sums = np.zeros((1 << n, 1 << n), dtype=_mask_dtype(group))
    for x, translates in enumerate(translate_masks(group)):
        np.bitwise_or(sums[: 1 << x], translates, out=sums[1 << x : 2 << x])
    return sums


def stabilizer_sizes(group: FiniteAbelianGroup) -> np.ndarray:
    """The size of the stabilizer of every mask S: the number of x with
    x + S = S."""
    masks = all_masks(group)
    sizes = np.zeros(len(masks), dtype=np.min_scalar_type(group.order))
    for translates in translate_masks(group):
        sizes += translates == masks
    return sizes


def signed_iterated_sumset_masks(
    group: FiniteAbelianGroup, sums: np.ndarray, r: int, s: int
) -> np.ndarray:
    """The mask of rB - sB for every mask B, folded by lookups in the
    `pair_sumset_masks` table `sums`; each sign's folds stop, as in
    `signed_iterated_sumset_rows`, once a fold changes no mask."""
    if r < 0 or s < 0:
        raise ValueError("fold counts must be nonnegative")
    if r + s < 1:
        raise ValueError("need r + s >= 1")
    masks = all_masks(group)
    negatives = group.combine(((-1, np.arange(group.order)),))[None]
    negated = _images_below(_image_tables(negatives, masks.dtype), 0, group.order)
    folded = np.ones_like(masks)  # {0}
    for step, folds in ((masks, r), (negated, s)):
        for _ in range(folds):
            grown = sums[folded, step]
            if np.array_equal(grown, folded):
                break
            folded = grown
    return folded


def _one_row(rows_fn, *subsets, **kwargs):
    """`rows_fn(group, *rows, **kwargs)` on the subsets as one-row bit
    matrices; a subset given twice is one matrix, so A + A runs one FFT."""
    group = _same_group(*subsets)
    rows = {id(s): s.bits[None] for s in subsets}
    return rows_fn(group, *(rows[id(s)] for s in subsets), **kwargs)


def sumset(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """A + B = {x + y : x in A, y in B}; empty if either side is empty."""
    return GroupSubset(a.group, _one_row(sumset_rows, a, b)[0])


def signed_iterated_sumset(b: GroupSubset, r: int, s: int) -> GroupSubset:
    """r-fold sum of B minus s-fold sum of B (B + ... + B - B - ... - B)."""
    return GroupSubset(b.group, _one_row(signed_iterated_sumset_rows, b, r=r, s=s)[0])


def stabilizer(s: GroupSubset) -> GroupSubset:
    """{g : g + S = S}; a subgroup, the full group for S empty or S = G."""
    return GroupSubset(s.group, _one_row(stabilizer_rows, s)[0])


def representation_vector(a: GroupSubset) -> np.ndarray:
    """int64 array over element indices: r_A(x) = #{(a1,a2) in A^2 : a1+a2 = x}."""
    return _one_row(pair_count_rows, a, a)[0]


def representation_counts(a: GroupSubset) -> dict[GroupElement, int]:
    """r_A(x) for every x in the group; values sum to |A|^2."""
    vec = representation_vector(a)
    return {a.group.from_index(i): int(vec[i]) for i in range(a.group.order)}


def additive_energy_raw(a: GroupSubset) -> int:
    """Number of quadruples (a1,a2,a3,a4) in A^4 with a1 + a2 = a3 + a4."""
    return int(additive_energy_rows(a.group, _one_row(pair_count_rows, a, a))[0])


def additive_energy(a: GroupSubset) -> Fraction:
    """Normalized additive energy: raw count / |G|^3, exact."""
    return Fraction(additive_energy_raw(a), a.group.order**3)


def doubling_constant(a: GroupSubset) -> Fraction:
    """|A + A| / |A| for nonempty A."""
    if a.size == 0:
        raise ValueError("doubling constant of the empty set is undefined")
    return Fraction(sumset(a, a).size, a.size)


# Text formats.


def parse_group(text: str) -> FiniteAbelianGroup:
    """Parse a group literal: "Z" int ("x" "Z" int)*, e.g. "Z9 x Z2"."""
    sc = Scanner(text)
    moduli = []
    while True:
        if not (sc.match("Z") or sc.match("z")):
            raise sc.error("expected 'Z'")
        pos = sc.pos
        n = sc.expect_int("modulus")
        if n < 1:
            raise sc.error("modulus must be >= 1", pos)
        moduli.append(n)
        if sc.eof():
            break
        if not (sc.match("x") or sc.match("X")):
            raise sc.error("expected 'x' between factors")
    return FiniteAbelianGroup(moduli)


def _parse_element_item(sc: Scanner, group: FiniteAbelianGroup) -> GroupElement:
    if sc.match("("):
        residues = [_parse_signed_int(sc)]
        while sc.match(","):
            residues.append(_parse_signed_int(sc))
        sc.expect(")")
    else:
        residues = [_parse_signed_int(sc)]
    if len(residues) != group.rank:
        raise sc.error(
            f"element has {len(residues)} residues, group has rank {group.rank}"
        )
    return group.element(residues)


def _parse_signed_int(sc: Scanner) -> int:
    sign = -1 if sc.match("-") else 1
    return sign * sc.expect_int()


def parse_subset(text: str, group: FiniteAbelianGroup) -> GroupSubset:
    """Parse an inline subset literal like "{0, 2}" or "{(0,1), (1,0)}"."""
    sc = Scanner(text)
    sc.expect("{")
    elements: list[GroupElement] = []
    if not sc.match("}"):
        elements.append(_parse_element_item(sc, group))
        while sc.match(","):
            elements.append(_parse_element_item(sc, group))
        sc.expect("}")
    sc.expect_eof()
    return GroupSubset.from_elements(group, elements)


def subset_to_lines(subset: GroupSubset) -> str:
    """File form: one element per line, comma-separated residues, '#' comments."""
    # Imported on use: with `report` imported while this module loads, the
    # `sweeps` bench workload, which never writes a subset, measured about
    # 15 % slower and 0.4 MB larger, in every one of 5 runs.
    from .report import int_rows

    body = "".join(int_rows(subset.residue_matrix(), "", ",", "\n"))
    return f"# subset of {subset.group.literal()}, size {subset.size}\n{body}"


# Subset files are read byte by byte through one class table.  A line is
# blank (spaces, tabs and `\r` only) or holds `rank` residues, an optional
# sign and ASCII digits, separated by commas, with blanks around each.
_BAD, _BLANK, _DIGIT, _SIGN, _COMMA, _NL = range(6)
_CLASS = np.full(256, _BAD, dtype=np.uint8)
_CLASS[list(b" \t\r")] = _BLANK
_CLASS[list(b"0123456789")] = _DIGIT
_CLASS[list(b"+-")] = _SIGN
_CLASS[ord(",")] = _COMMA
_CLASS[ord("\n")] = _NL
# _NEXT[6 * a + b]: whether a non-blank byte of class b may follow one of
# class a: never (0), only with no blank between them (1), or always (2).
_NEXT = np.zeros((6, 6), dtype=np.uint8)
_NEXT[_NL, [_NL, _DIGIT, _SIGN]] = 2
_NEXT[_DIGIT, [_COMMA, _NL]] = 2
_NEXT[_COMMA, [_DIGIT, _SIGN]] = 2
_NEXT[[_DIGIT, _SIGN], _DIGIT] = 1  # no blank inside a residue
_NEXT = _NEXT.ravel()
_COMMENT_RE = re.compile(r"#[^\n]*")
# int64 holds every residue of at most this many digits.
_I64_DIGITS = 18


def parse_subset_file(text: str, group: FiniteAbelianGroup) -> GroupSubset:
    """Parse subset file content: line format, or a JSON array of residue arrays."""
    if text.lstrip().startswith("["):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc.msg}", exc.lineno, exc.colno) from None
        if not all(isinstance(r, list) and all(type(v) is int for v in r) for r in rows):
            raise ParseError("JSON residues must be integers")
        return GroupSubset.from_residues(group, rows)
    return GroupSubset.from_residues(group, _residue_table(text, group.rank))


def _residue_table(text: str, rank: int) -> np.ndarray:
    """The (rows, rank) residue table of a line-format subset file: int64, or
    Python integers when a residue has more than _I64_DIGITS digits."""
    body = _COMMENT_RE.sub("", text) if "#" in text else text
    # a line break before and after: every residue then has a byte on each
    # side, and line k ends at the k-th break after the first
    data = b"\n" + body.encode("utf-8", "surrogatepass") + b"\n"
    raw = np.frombuffer(data, dtype=np.uint8)
    cls = _CLASS.take(raw)
    at = (cls != _BLANK).nonzero()[0]
    kept = cls.take(at)
    bad = _NEXT.take(kept[:-1] * 6 + kept[1:]) <= (at[1:] - at[:-1] > 1)
    digit = cls == _DIGIT
    edges = (digit[1:] != digit[:-1]).nonzero()[0] + 1
    starts, ends = edges[0::2], edges[1::2]
    breaks = (cls == _NL).nonzero()[0]
    per_line = np.bincount(breaks.searchsorted(starts), minlength=len(breaks))
    wrong = (per_line != 0) & (per_line != rank)
    if bad.any() or wrong.any():
        raise _bad_line(breaks, at, bad, wrong, per_line, rank)
    size = ends - starts
    width = int(size.max(initial=0))
    if width > _I64_DIGITS:  # Python integers keep residues beyond int64 exact
        first = starts - (cls.take(starts - 1) == _SIGN)
        table = np.array([int(data[a:b]) for a, b in zip(first.tolist(), ends.tolist())], dtype=object)
    else:  # the k-th digit from the right of every residue at once
        table = (raw.take(ends - 1) - ord("0")).astype(np.int64)
        for k in range(2, width + 1):
            table += np.where(size >= k, raw.take(ends - k) - ord("0"), 0) * np.int64(10) ** (k - 1)
        np.negative(table, out=table, where=raw.take(starts - 1) == ord("-"))
    return table.reshape(-1, rank)


def _bad_line(breaks, at, bad, wrong, per_line, rank) -> ParseError:
    """The error for the first line that holds a pair of bytes `bad` marks or
    a `wrong` residue count, with the lines numbered by their `breaks`."""
    malformed = np.searchsorted(breaks, at[bad.argmax() + 1]) if bad.any() else len(breaks)
    lineno = int(min(malformed, wrong.argmax() if wrong.any() else len(breaks)))
    if lineno == malformed:
        return ParseError("malformed residue line", lineno, 1)
    return ParseError(f"element has {per_line[lineno]} residues, group has rank {rank}", lineno, 1)
