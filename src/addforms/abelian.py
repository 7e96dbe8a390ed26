"""Exact arithmetic for finite abelian groups presented as products of cyclic
groups, and set-level operations on their subsets.

Elements are residue tuples; subsets carry a bit vector indexed by the
mixed-radix element index (first factor slowest, matching C order).  All
densities, energies and counts are exact: integers or `fractions.Fraction`.
"""

from __future__ import annotations

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
# A row of `pair_count_rows` holds up to about 48 bytes of temporaries per
# group element (measured); `batch_rows` keeps a batch near this many bytes,
# so sweeps stay within the peak RSS of the per-subset code they replace.
_BATCH_BYTES = 1 << 20
# int64 holds every integer below this: pair counts, their squares' sums and
# the butterflies' partial sums are at most |G|^3.
_I64_EXACT = 1 << 63
# `FiniteAbelianGroup.sum_code` gives a code at most this many times |G| long.
_CODE_SPREAD = 16
# The codes of `sum_code` and their multiples, cached by the groups' moduli
# (every group of the same moduli shares them), hold at most _CODE_CACHE
# entries in all: `_keep` drops the oldest first, under _CODE_LOCK, since
# threads may share a group.
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

    def sum_code(self, coeffs: Sequence[int], limit: int) -> "SumCode | None":
        """The carry-free code (`SumCode`) of the sums sum_i c_i * x_i with the
        integer coefficients `coeffs`, or None when its length E exceeds
        `limit` or _CODE_SPREAD * |G|.  The one selection rule of the code
        path: a caller passes as `limit` the entries its gather serves per
        row of the table it decodes, so the table gathered at the decode
        costs no more entries than the block, and takes `combine` on None.
        Two reduced terms with coefficient 1 give E = prod_t (2 n_t - 1), so
        a cyclic group always has a code and Z2^k only while 3^k <= 16 * 2^k."""
        spread = sum(map(abs, coeffs))
        neg = (spread - sum(coeffs)) // 2
        most, key = min(limit, _CODE_SPREAD * self.order), ("code", self.moduli, spread, neg)
        code = _CODES.get(key)
        if code is None:
            if math.prod(spread * (n - 1) + 1 for n in self.moduli) > most:
                return None
            code = _keep(key, SumCode(self.moduli, spread, neg))
        return code if code.decode.size <= most else None

    def combine(self, terms, offsets: Sequence[int] | None = None):
        """Flat indices of offsets + sum of c * x over (c, index array) terms.

        Each c is an integer or an int64 array of integers; the index and
        coefficient arrays broadcast against each other.  `offsets` is a
        residue tuple, needed when there are no terms (it is then the Python
        integer index of `offsets`).  The index is the C-order mixed-radix one
        that `from_residues` writes and `residue_matrix` reads with numpy's
        (un)ravel: residues from `residue_table`, folded as flat * n + comp.

        It makes a pass per term, a `%` and a fold per component, so the
        engine's table gathers take a `SumCode` instead; `combine` serves the
        scalar and parse-time callers, the small (parts, rows) block of the
        pinned parts in `linform._tables`, and the gathers whose code
        `sum_code` refuses.
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


def _keep(key, value):
    """`value`, cached under `key` in _CODES unless it holds more than
    _CODE_CACHE entries (`size`); the oldest entries are dropped while the
    cache holds more."""
    if value.size <= _CODE_CACHE:
        with _CODE_LOCK:
            _CODES[key] = value
            while sum(v.size for v in _CODES.values()) > _CODE_CACHE:
                del _CODES[next(iter(_CODES))]
    return value


class SumCode:
    """A carry-free mixed-radix code for the sums sum_i c_i * x_i of group
    terms, x_i element indices of the group of `moduli` and c_i integers
    whose absolute values sum to `spread`, from `FiniteAbelianGroup.sum_code`.

    Digit t of a sum is its unreduced component sum s_t = sum_i c_i *
    res_t(x_i), which lies in [lo_t, hi_t] with hi_t - lo_t = spread (n_t - 1),
    so its radix is R_t = spread (n_t - 1) + 1, the first digit slowest.  The
    code of a sum is then the sum of its terms' codes, c_i * weight[x_i] with
    weight[x] = sum_t res_t(x) prod_{u > t} R_u, each computed on its term's
    own shape, and nothing is reduced mod n_t.  `decode`, of length
    E = prod_t R_t <= _CODE_SPREAD * |G|, maps a code to the flat index of the
    sum: gathered once at `decode`, a (rows, |G|) table is indexed by codes,
    so a block costs one broadcast add and one gather.  Codes below 0
    (negative c_i) index it from the end, as numpy does, so it is stored
    rotated by the lower bound.  Codes and multiples are cached (`_keep`).
    """

    __slots__ = ("moduli", "radices", "spread", "weight", "decode", "size")

    def __init__(self, moduli: tuple[int, ...], spread: int, neg: int):
        self.moduli, self.spread = moduli, spread
        self.radices = radices = [spread * (n - 1) + 1 for n in moduli]
        order = math.prod(moduli)
        # "wrap" acts only at spread 0, where every radix is 1 and every code 0
        every = np.unravel_index(np.arange(order), moduli)
        weight = np.ravel_multi_index(every, radices, mode="wrap")
        weight.flags.writeable = False
        self.weight = None if len(moduli) == 1 else weight  # a cyclic weight is the index
        # digit t of a code is s_t - lo_t with lo_t = -neg (n_t - 1), so s_t is
        # the digit plus neg mod n_t; the sum with every s_t at lo_t has code
        # -neg * weight[-1], and a code c sits at c mod E
        digits = np.unravel_index(np.arange(math.prod(radices)), radices)
        decode = np.ravel_multi_index([(d + neg) % n for d, n in zip(digits, moduli)], moduli)
        self.decode = np.roll(decode, -neg * int(weight[-1])) if neg else decode
        self.decode.flags.writeable = False
        self.size = self.decode.size + (0 if self.weight is None else order)  # for `_keep`

    def __call__(self, x):
        """The codes of the element indices x: weight[x], on a cyclic group x."""
        return x if self.weight is None else self.weight[x]

    def encode(self, terms):
        """The codes of the sums of c * x over (c, index array) terms with
        the coefficients the code was made for: `decode` of them is
        `combine(terms)`."""
        code = None
        for c, x in terms:
            part = self(x) if c == 1 else c * self(x)
            code = part if code is None else code + part
        return code

    def multiple(self, m) -> np.ndarray:
        """The codes of m * x reduced, as a term of coefficient 1, for every x:
        (|G|,) for an integer m and (forms, 1, |G|) for a (forms, 1, 1) array
        of them; cached."""
        key = m if isinstance(m, int) else tuple(m.ravel().tolist())
        key = ("multiple", self.moduli, self.spread, key)
        codes = _CODES.get(key)
        if codes is None:
            every = np.unravel_index(np.arange(math.prod(self.moduli)), self.moduli)
            reduced = [m * r % n for r, n in zip(every, self.moduli)]
            codes = np.ravel_multi_index(reduced, self.radices)
            codes.flags.writeable = False
            _keep(key, codes)
        return codes


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
    `reshape(rows, *moduli)` the array to transform), rounded to int64, with
    a per-row certificate: every value lies within 1/4 of an integer and the
    row sums to `pairs` (|A_i| * |B_i|).  Pass `b is a` for A + A."""
    rows = len(a)
    shape = (rows, *group.moduli)
    axes = tuple(range(1, group.rank + 1))
    fa = np.fft.rfftn(a.reshape(shape), axes=axes)
    fb = fa if b is a else np.fft.rfftn(b.reshape(shape), axes=axes)
    raw = np.fft.irfftn(fa * fb, s=group.moduli, axes=axes).reshape(rows, group.order)
    counts = np.rint(raw)
    ok = (np.abs(raw - counts).max(axis=1) < 0.25) & (counts.sum(axis=1) == pairs)
    return counts.astype(np.int64), ok


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
    """Row-wise rB_i - sB_i as a boolean (rows, |G|) matrix."""
    if r < 0 or s < 0:
        raise ValueError("fold counts must be nonnegative")
    if r + s < 1:
        raise ValueError("need r + s >= 1")
    folded = np.zeros_like(b)
    folded[:, 0] = True
    for _ in range(r):
        folded = sumset_rows(group, folded, b)
    negated = _negated_rows(group, b)
    for _ in range(s):
        folded = sumset_rows(group, folded, negated)
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
