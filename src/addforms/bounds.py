"""Scalar bound functions and inequality checkers, all in exact rationals.

Two piecewise families live here, each written as a branch lookup plus a
closed form per branch: the piecewise-linear lower bound `bollobas_h` on
3-cycle density versus pair density (`bollobas_branch`, `bollobas_on_branch`;
right-open intervals [1 - 1/t, 1 - 1/(t+1))), and the scalloped energy
calculus `energy_upper_bound` / `delta` built from the fractional part of
1/alpha (`delta_branch`, `delta_on_branch`; closed intervals [1/(t+1), 1/t],
the lower branch winning at shared endpoints).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import abelian
from .abelian import FiniteAbelianGroup, GroupSubset
from .errors import _check_work

# ---------------------------------------------------------------------------
# Piecewise-linear lower bound on 3-cycle density vs pair density.


def bollobas_branch(x) -> int:
    """Branch index t with x in [1 - 1/t, 1 - 1/(t+1)): for x = p/q,
    floor(1 / (1 - x)) = q // (q - p)."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("branch lookup needs 0 <= x < 1")
    return x.denominator // (x.denominator - x.numerator)


def bollobas_on_branch(t: int, x) -> Fraction:
    """(3t^2 - t - 2) / (t (t+1)) x - 2 (t-1) / (t+1), for x = p/q as one
    fraction: ((3t^2 - t - 2) p - 2 (t-1) t q) / (t (t+1) q)."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    return Fraction((3 * t * t - t - 2) * p - 2 * (t - 1) * t * q, t * (t + 1) * q)


def bollobas_h(x) -> Fraction:
    """Piecewise-linear lower bound; h(1 - 1/t) = (t-1)(t-2)/t^2 and h(1) = 1."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"argument {x} outside [0, 1]")
    if x == 1:
        return Fraction(1)
    return bollobas_on_branch(bollobas_branch(x), x)


def in_region_R_graph(x, y) -> bool:
    """Membership in {(x, y) in [0,1]^2 : y >= bollobas_h(x)}."""
    x, y = Fraction(x), Fraction(y)
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError("point outside the unit box")
    return y >= bollobas_h(x)


# ---------------------------------------------------------------------------
# Energy upper bound and the gap calculus.


def energy_upper_bound(alpha) -> Fraction:
    """alpha^3 - alpha^4*(frac - frac^2) with frac the fractional part of
    1/alpha; equals alpha^3 exactly iff 1/alpha is an integer (or alpha = 0)."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"density {alpha} outside [0, 1]")
    if alpha == 0:
        return Fraction(0)
    inv = 1 / alpha
    frac = inv - (inv.numerator // inv.denominator)
    return alpha**3 - alpha**4 * (frac - frac * frac)


def in_region_R_energy(alpha, beta) -> bool:
    """Membership in {(alpha, beta) in [0,1]^2 : beta <= energy_upper_bound(alpha)}."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not (0 <= alpha <= 1 and 0 <= beta <= 1):
        raise ValueError("point outside the unit box")
    return beta <= energy_upper_bound(alpha)


def delta_branch(alpha) -> int:
    """Branch index t with alpha in [1/(t+1), 1/t]; the lower-t branch wins
    at shared endpoints (alpha = 1/m sits in branch m-1)."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError(f"density {alpha} outside (0, 1]")
    return max(1, math.ceil(1 / alpha) - 1)


def delta_on_branch(t: int, alpha) -> Fraction:
    alpha = Fraction(alpha)
    return -t * (t + 1) * alpha**4 + (2 * t + 1) * alpha**3 - alpha**2


def delta_prime_on_branch(t: int, alpha) -> Fraction:
    alpha = Fraction(alpha)
    return -4 * t * (t + 1) * alpha**3 + 3 * (2 * t + 1) * alpha**2 - 2 * alpha


def delta_double_prime_on_branch(t: int, alpha) -> Fraction:
    alpha = Fraction(alpha)
    return -12 * t * (t + 1) * alpha**2 + 6 * (2 * t + 1) * alpha - 2


def delta(alpha) -> Fraction:
    """Gap alpha^3 - energy_upper_bound(alpha); zero exactly at alpha = 1/n."""
    alpha = Fraction(alpha)
    if alpha == 0:
        return Fraction(0)
    return delta_on_branch(delta_branch(alpha), alpha)


def delta_prime(alpha) -> Fraction:
    return delta_prime_on_branch(delta_branch(alpha), alpha)


def delta_double_prime(alpha) -> Fraction:
    return delta_double_prime_on_branch(delta_branch(alpha), alpha)


@dataclass(frozen=True)
class SegmentResult:
    """Grid verdict for one claim interval, evaluated on its own branch."""

    name: str
    lo: Fraction
    hi: Fraction
    branch: int
    points: int
    extreme: Fraction
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lo": str(self.lo),
            "hi": str(self.hi),
            "branch": self.branch,
            "points": self.points,
            "extreme": str(self.extreme),
            "violations": list(self.violations),
            "ok": self.ok,
        }


# The integer coefficients, constant term first, of each claim's function on
# branch t, keyed by the claim's symbol.
_BRANCH_COEFFICIENTS = {
    "delta'": lambda t: (0, -2, 3 * (2 * t + 1), -4 * t * (t + 1)),
    "delta''": lambda t: (-2, 6 * (2 * t + 1), -12 * t * (t + 1)),
}


# Grid points of a claim whose numerators are held at once.
_GRID_CHUNK = 1 << 12


def _inner_points(lo: Fraction, hi: Fraction, step: Fraction) -> int:
    """The number of grid points i * step strictly inside (lo, hi)."""
    return max(0, math.ceil(hi / step) - math.floor(lo / step) - 1)


def _grid_numerators(coefficients, first: int, last: int, step: Fraction) -> list[int]:
    """The polynomial of these integer coefficients at i * step for i = first..
    last, as integer numerators over v^deg where step = u/v: p(iu/v) v^deg =
    sum of c_k (iu)^k v^(deg-k), by Horner in iu."""
    u, v = step.numerator, step.denominator
    deg = len(coefficients) - 1
    scaled = [c * v ** (deg - k) for k, c in reversed(list(enumerate(coefficients)))]
    values = []
    for i in range(first, last + 1):
        x, acc = i * u, 0
        for c in scaled:
            acc = acc * x + c
        values.append(acc)
    return values


@dataclass(frozen=True)
class DeltaClaimsReport:
    step: Fraction
    t_max: int
    segments: tuple[SegmentResult, ...]
    boundary_values: dict

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.segments)

    def to_dict(self) -> dict:
        return {
            "step": str(self.step),
            "t_max": self.t_max,
            "segments": [s.to_dict() for s in self.segments],
            "boundary_values": self.boundary_values,
            "ok": self.ok,
        }


def verify_delta_derivative_claims(
    step=Fraction(1, 1000), t_max: int = 20, budget: int | None = None
) -> DeltaClaimsReport:
    """Grid sanity suite (not a continuum proof): delta' >= 1/20 on
    [1/3, 2/5] and [1/2, 7/10]; delta'' <= -1/2 on [2/5, 1/2], [7/10, 1] and
    every [1/(t+1), 1/t] for t = 3..t_max.  Every claim interval sits inside
    one branch, and is evaluated on that branch; both branch values at shared
    endpoints are reported separately.  Refuses (CapExceeded), before any
    evaluation, grid points times coefficients over `budget`."""
    step = Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    # each claim's on-branch function, its name, its bound and the side of
    # the bound where the claim fails
    rises = (delta_prime_on_branch, "delta'", Fraction(1, 20), "<")
    bends = (delta_double_prime_on_branch, "delta''", Fraction(-1, 2), ">")
    claims = [
        ("delta_prime[1/3,2/5]", Fraction(1, 3), Fraction(2, 5), 2, rises),
        ("delta_prime[1/2,7/10]", Fraction(1, 2), Fraction(7, 10), 1, rises),
        ("delta_second[2/5,1/2]", Fraction(2, 5), Fraction(1, 2), 2, bends),
        ("delta_second[7/10,1]", Fraction(7, 10), Fraction(1), 1, bends),
    ]
    # the work, each claim's points (two ends and the inner points) times its
    # coefficients; the claims [1/(t+1), 1/t] tile [1/(t_max+1), 1/3], so
    # their inner points are at most that interval's
    width = {symbol: len(coefficients(1)) for symbol, coefficients in _BRANCH_COEFFICIENTS.items()}
    work = sum(
        (_inner_points(lo, hi, step) + 2) * width[symbol]
        for _, lo, hi, _, (_, symbol, _, _) in claims
    )
    tiled = _inner_points(Fraction(1, t_max + 1), Fraction(1, 3), step) + 2 * max(0, t_max - 2)
    work += tiled * width["delta''"]
    _check_work(work, budget, f">= 2^{work.bit_length() - 1}", "use a coarser step or a smaller t_max")
    for t in range(3, t_max + 1):
        claims.append(
            (f"delta_second[1/{t + 1},1/{t}]", Fraction(1, t + 1), Fraction(1, t), t, bends)
        )
    segments = []
    for name, lo, hi, t, (on_branch, symbol, bound, fails) in claims:
        below = fails == "<"
        pick = min if below else max
        # the grid points strictly inside (lo, hi), by index, and their values
        # as integer numerators over scale, _GRID_CHUNK at a time; a Fraction
        # is made only for the ends, the extreme and the points past the bound
        coefficients = _BRANCH_COEFFICIENTS[symbol](t)
        scale = step.denominator ** (len(coefficients) - 1)
        first, inner = math.floor(lo / step) + 1, _inner_points(lo, hi, step)
        limit, side = bound.numerator * scale, -1 if below else 1
        ends = [(p, on_branch(t, p)) for p in ([lo, hi] if hi != lo else [lo])]
        past, extremes = [], [v for _, v in ends]
        for start in range(first, first + inner, _GRID_CHUNK):
            last = min(start + _GRID_CHUNK, first + inner) - 1
            chunk = _grid_numerators(coefficients, start, last, step)
            past += [
                (i * step, Fraction(n, scale))
                for i, n in enumerate(chunk, start)
                if side * (n * bound.denominator - limit) > 0
            ]
            extremes.append(Fraction(pick(chunk), scale))
        bad = tuple(
            f"{symbol}({p}) = {v} {fails} {bound}"
            for p, v in ends[:1] + past + ends[1:]
            if (v < bound if below else v > bound)
        )
        points = len(ends) + inner
        segments.append(SegmentResult(name, lo, hi, t, points, pick(extremes), bad))
    boundary = {}
    for label, point, ts in [
        ("1/3", Fraction(1, 3), (2, 3)),
        ("2/5", Fraction(2, 5), (2,)),
        ("1/2", Fraction(1, 2), (1, 2)),
        ("7/10", Fraction(7, 10), (1,)),
    ]:
        boundary[label] = {
            f"branch_{t}": {
                "delta_prime": str(delta_prime_on_branch(t, point)),
                "delta_second": str(delta_double_prime_on_branch(t, point)),
            }
            for t in ts
        }
    return DeltaClaimsReport(
        step=step, t_max=t_max, segments=tuple(segments), boundary_values=boundary
    )


# ---------------------------------------------------------------------------
# Classical inequality checkers (exact left-hand sides).
#
# Each inequality is written once, as an integer numerator of its left-hand
# side over a power of |G|: a formula over its columns, the sizes of A, B,
# A + A, A + B, the stabilizer H(A + B) and rB - sB, and the energy E(A).
# The `*_rows` functions feed it from a batch of instances, given as boolean
# (rows, |G|) matrices, returning (numerators, denominator); the scalar
# `check_*` are one-row calls of them.  The `*_masks` functions feed it every
# instance of a small group, in mask order (pairs A-major), from the mask
# tables of `abelian`, in blocks.  A vacuous instance (an empty A where the
# inequality needs a nonempty one) has numerator 0 in every path.

# Instances per block of a `*_masks` sweep: their int64 numerators and the
# formula's temporaries take a few 32 KiB arrays.
_MASK_BLOCK = 1 << 12


def _verdict(rows_fn, *subsets, **kwargs) -> tuple[Fraction, bool]:
    """The left-hand side of one instance and whether it holds, as a one-row
    call of its `*_rows` numerator."""
    numerators, denominator = abelian._one_row(rows_fn, *subsets, **kwargs)
    lhs = Fraction(int(numerators[0]), denominator)
    return lhs, lhs >= 0


def _dtype(bound: int):
    """int64 while `bound`, the sum of the absolute values of the terms of a
    formula, fits; Python integers (object) beyond it."""
    return np.int64 if bound < 2**63 else object


def _exact(bound: int, *columns) -> list[np.ndarray]:
    """The integer columns in the `_dtype` of the formula they feed."""
    return [np.asarray(c).astype(_dtype(bound), copy=False) for c in columns]


def _mask_blocks(formula, *columns, bound: int = 0):
    """formula(*blocks) over consecutive blocks of the columns, in row-major
    order, as (flat numerators, denominator).  A block holds _MASK_BLOCK
    instances in int64, fewer when `bound`, the one the formula passes to
    `_exact`, needs Python integers (a pointer and an integer of the bound's
    size each, not 8 bytes); it splits a row when one row holds more."""
    per = 8 if _dtype(bound) is np.int64 else 8 + sys.getsizeof(bound)
    step = max(1, _MASK_BLOCK * 8 // per)
    columns = [c.reshape(len(c), -1) for c in columns]
    width = columns[0].shape[1]
    rows, cols = max(1, step // width), min(step, width)
    for i in range(0, len(columns[0]), rows):
        for j in range(0, width, cols):
            numerators, denominator = formula(*(c[i : i + rows, j : j + cols] for c in columns))
            yield numerators.ravel(), denominator


def _pair_masks(group: FiniteAbelianGroup):
    """The masks of A and of B in every pair, as (2^|G|, 2^|G|) views [A, B],
    and the `abelian.pair_sumset_masks` table of A + B."""
    masks = abelian.all_masks(group)
    sums = abelian.pair_sumset_masks(group)
    return np.broadcast_to(masks[:, None], sums.shape), np.broadcast_to(masks, sums.shape), sums


def check_kneser(a: GroupSubset, b: GroupSubset) -> tuple[Fraction, bool]:
    """alpha(A+B) - alpha(A) - alpha(B) + alpha(stabilizer(A+B)) >= 0."""
    return _verdict(kneser_rows, a, b)


def _kneser(n: int, a_size, b_size, sum_size, stab_size):
    """Kneser numerators |A+B| - |A| - |B| + |H(A+B)|, over |G| = n."""
    a_size, b_size, sum_size, stab_size = _exact(4 * n, a_size, b_size, sum_size, stab_size)
    return sum_size - a_size - b_size + stab_size, n


def kneser_rows(group: FiniteAbelianGroup, a: np.ndarray, b: np.ndarray):
    """Kneser numerators of the row pairs (A_i, B_i)."""
    s = abelian.sumset_rows(group, a, b)
    h = abelian.stabilizer_rows(group, s)
    return _kneser(group.order, *(m.sum(axis=1) for m in (a, b, s, h)))


def kneser_masks(group: FiniteAbelianGroup):
    """Kneser numerators of every pair of subsets, A-major, in blocks."""
    stabilizer = abelian.stabilizer_sizes(group)

    def formula(a, b, sums):
        sizes = (abelian.popcount(m) for m in (a, b, sums))
        return _kneser(group.order, *sizes, stabilizer.take(sums))

    return _mask_blocks(formula, *_pair_masks(group))


def check_plunnecke_ruzsa(
    a: GroupSubset, b: GroupSubset, r: int, s: int
) -> tuple[Fraction, bool]:
    """alpha(A+B)^(r+s) - alpha(A)^(r+s-1) * alpha(rB - sB) >= 0; an empty
    A is vacuous, (0, True)."""
    return _verdict(plunnecke_ruzsa_rows, a, b, r=r, s=s)


def _plunnecke_ruzsa_bound(n: int, r: int, s: int) -> int:
    """The `_exact` bound of the Plunnecke-Ruzsa numerators over |G| = n."""
    return 2 * n ** (r + s)


def _plunnecke_ruzsa(n: int, r: int, s: int, a_size, sum_size, folded_size):
    """Plunnecke-Ruzsa numerators |A+B|^(r+s) - |A|^(r+s-1) * |rB - sB|, over
    |G|^(r+s) with |G| = n; 0 where A is empty."""
    bound = _plunnecke_ruzsa_bound(n, r, s)
    a_size, sum_size, folded_size = _exact(bound, a_size, sum_size, folded_size)
    numerators = sum_size ** (r + s) - a_size ** (r + s - 1) * folded_size
    return np.where(a_size == 0, 0, numerators), n ** (r + s)


def plunnecke_ruzsa_rows(group: FiniteAbelianGroup, a: np.ndarray, b: np.ndarray, r: int, s: int):
    """Plunnecke-Ruzsa numerators of the row pairs (A_i, B_i)."""
    folded = abelian.signed_iterated_sumset_rows(group, b, r, s)
    sums = abelian.sumset_rows(group, a, b)
    return _plunnecke_ruzsa(group.order, r, s, a.sum(axis=1), sums.sum(axis=1), folded.sum(axis=1))


def plunnecke_ruzsa_masks(group: FiniteAbelianGroup, r: int, s: int):
    """Plunnecke-Ruzsa numerators of every pair of subsets, A-major, in
    blocks."""
    a, _, sums = _pair_masks(group)
    folded = abelian.signed_iterated_sumset_masks(group, sums, r, s)

    def formula(*masks):
        return _plunnecke_ruzsa(group.order, r, s, *map(abelian.popcount, masks))

    folded = np.broadcast_to(folded, sums.shape)
    bound = _plunnecke_ruzsa_bound(group.order, r, s)
    return _mask_blocks(formula, a, sums, folded, bound=bound)


def check_energy_doubling(a: GroupSubset) -> tuple[Fraction, bool]:
    """normalized_energy(A) * alpha(A+A) - alpha(A)^4 >= 0."""
    return _verdict(energy_doubling_rows, a)


def _energy_doubling(n: int, a_size, energy, doubled_size):
    """Energy-doubling numerators E(A) * |A+A| - |A|^4, over |G|^4 with
    |G| = n."""
    a_size, energy, doubled_size = _exact(2 * n**4, a_size, energy, doubled_size)
    return energy * doubled_size - (a_size**2) ** 2, n**4  # numpy squares fast


def energy_doubling_rows(group: FiniteAbelianGroup, a: np.ndarray):
    """Energy-doubling numerators of the rows A_i."""
    reps = abelian.pair_count_rows(group, a, a)
    energy = abelian.additive_energy_rows(group, reps)
    return _energy_doubling(group.order, a.sum(axis=1), energy, (reps > 0).sum(axis=1))


def energy_doubling_masks(group: FiniteAbelianGroup):
    """Energy-doubling numerators of every subset, in mask order, in blocks."""

    def formula(a, energy, doubled):
        return _energy_doubling(group.order, abelian.popcount(a), energy, abelian.popcount(doubled))

    masks, doubled = abelian.all_masks(group), abelian.doubled_masks(group)
    return _mask_blocks(formula, masks, abelian.additive_energy_masks(group), doubled)


def check_energy_bound(a: GroupSubset) -> tuple[Fraction, bool]:
    """Slack energy_upper_bound(alpha(A)) - normalized_energy(A) >= 0; an
    empty A is vacuous, (0, True)."""
    return _verdict(energy_bound_rows, a)


def _energy_bound(n: int, a_size, energy):
    """Energy-bound numerators, over |G|^4 with |G| = n: with m = |A|,
    E = E(A) and f = n mod m, n^4 * (energy_upper_bound(m/n) - E/n^3) is
    n m^3 - m^3 f + m^2 f^2 - n E = m^2 (m (n - f) + f^2) - n E.  An empty
    A has m = E = f = 0, so numerator 0.  The part in m alone is computed
    once for each size m = 0..n and gathered by the sizes."""
    m = np.arange(n + 1)
    m, rest, energy = _exact(4 * n**4, m, n % np.maximum(m, 1), energy)
    by_size = m**2 * (m * (n - rest) + rest**2)
    return by_size.take(a_size) - n * energy, n**4


def energy_bound_rows(group: FiniteAbelianGroup, a: np.ndarray):
    """Energy-bound numerators of the rows A_i."""
    return _energy_bound(group.order, a.sum(axis=1), abelian.additive_energies(group, a))


def energy_bound_masks(group: FiniteAbelianGroup):
    """Energy-bound numerators of every subset, in mask order, in blocks."""

    def formula(a, energy):
        return _energy_bound(group.order, abelian.popcount(a), energy)

    return _mask_blocks(formula, abelian.all_masks(group), abelian.additive_energy_masks(group))
