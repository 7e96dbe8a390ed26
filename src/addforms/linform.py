"""Systems of integer linear forms over group variables and exact or
Monte-Carlo evaluation of their satisfaction densities.

A system is a list of forms sum_i c_i * g_i, each required to land inside a
subset (or outside it, when negated).  The exact evaluator enumerates
assignments variable by variable, testing every form as soon as its last
variable is bound, so unsatisfiable prefixes are pruned early; the per-level
work is vectorized.  Counts are exact integers and densities exact rationals.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._scan import Scanner
from .abelian import GroupElement, GroupSubset
from .errors import CapExceeded, GroupMismatchError

DEFAULT_WORK_BUDGET = 10**9

# Cap on rows of any temporary assignment block.
_ENUM_CHUNK = 1 << 20
_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class LinearForm:
    """An integer linear form over variables g1..gk; `negated` flips the
    membership requirement from "in A" to "not in A"."""

    arity: int
    coefficients: tuple[int, ...]
    negated: bool = False

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("form arity must be >= 1")
        if len(self.coefficients) != self.arity:
            raise ValueError("coefficient count must equal arity")

    def embedded(self, arity: int) -> "LinearForm":
        """The same form viewed over a larger variable tuple."""
        if arity < self.arity:
            raise ValueError("cannot embed into fewer variables")
        pad = self.coefficients + (0,) * (arity - self.arity)
        return LinearForm(arity, pad, self.negated)


@dataclass(frozen=True)
class LinearSystem:
    """A nonempty list of forms of one arity, conjunctively interpreted."""

    arity: int
    forms: tuple[LinearForm, ...]

    def __post_init__(self):
        if not self.forms:
            raise ValueError("a system needs at least one form")
        if any(f.arity != self.arity for f in self.forms):
            raise ValueError("all forms must share the system arity")

    @classmethod
    def of(cls, forms: Sequence[LinearForm], arity: int | None = None) -> "LinearSystem":
        k = max(f.arity for f in forms)
        if arity is not None:
            k = max(k, arity)
        return cls(k, tuple(f.embedded(k) for f in forms))


@dataclass(frozen=True)
class QuantumSystem:
    """Integer combination of formal products of systems.

    A term is (coefficient, factors); factors may be empty, in which case the
    term contributes its bare coefficient (empty product = 1).
    """

    terms: tuple[tuple[int, tuple[LinearSystem, ...]], ...]

    def __post_init__(self):
        for coeff, factors in self.terms:
            if not isinstance(coeff, int):
                raise ValueError("term coefficients must be integers")
            if not isinstance(factors, tuple):
                raise ValueError("term factors must be a tuple of systems")


def eval_form(form: LinearForm, assignment: Sequence[GroupElement]) -> GroupElement:
    """The group element sum_i c_i * g_i; the negation flag is not consulted."""
    if len(assignment) != form.arity:
        raise ValueError(
            f"assignment has {len(assignment)} elements, form arity is {form.arity}"
        )
    group = assignment[0].group
    for g in assignment[1:]:
        if g.group != group:
            raise GroupMismatchError("assignment mixes groups")
    residues = []
    for t, n in enumerate(group.moduli):
        residues.append(
            sum(c * g.residues[t] for c, g in zip(form.coefficients, assignment)) % n
        )
    return GroupElement(group, tuple(residues))


class _PreparedForm:
    """A form with fixed-prefix contributions folded into constant offsets."""

    __slots__ = ("negated", "terms", "offsets")

    def __init__(self, form: LinearForm, fixed: Sequence[GroupElement], nfix: int, group):
        self.negated = form.negated
        self.terms = tuple(
            (i - nfix, c)
            for i, c in enumerate(form.coefficients)
            if i >= nfix and c != 0
        )
        self.offsets = tuple(
            sum(form.coefficients[i] * fixed[i].residues[t] for i in range(nfix)) % n
            for t, n in enumerate(group.moduli)
        )


def _mask(prepared, block, memb, group) -> np.ndarray:
    """Which rows of `block` satisfy every prepared form."""
    mask = np.ones(block.shape[0], dtype=bool)
    for pf in prepared:
        ok = memb[group.combine([(c, block[:, col]) for col, c in pf.terms], pf.offsets)]
        mask &= ~ok if pf.negated else ok
    return mask


def _run_levels(group, memb, buckets, nfix, arity, first_values):
    """Extend the satisfying-prefix frontier one variable at a time."""
    n = group.order
    frontier = np.zeros((1, 0), dtype=np.int64)
    for level in range(nfix, arity):
        if frontier.shape[0] == 0:
            break
        values = (
            first_values
            if level == nfix and first_values is not None
            else np.arange(n, dtype=np.int64)
        )
        if values.size == 0:
            return np.zeros((0, arity - nfix), dtype=np.int64)
        bucket = buckets[level]
        pieces = []
        rows_per = max(1, _ENUM_CHUNK // values.size)
        for start in range(0, frontier.shape[0], rows_per):
            part = frontier[start : start + rows_per]
            m = part.shape[0]
            ext = np.empty((m * values.size, part.shape[1] + 1), dtype=np.int64)
            if part.shape[1]:
                ext[:, :-1] = np.repeat(part, values.size, axis=0)
            ext[:, -1] = np.tile(values, m)
            pieces.append(ext[_mask(bucket, ext, memb, group)] if bucket else ext)
        frontier = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)
    return frontier


def _satisfying_frontier(
    system: LinearSystem,
    subset: GroupSubset,
    fixed: Sequence[GroupElement],
    *,
    budget: int | None,
    threads: int,
) -> np.ndarray | None:
    """All assignments of the free variables satisfying the system, as index
    rows, or None when a fully-bound form already fails."""
    group = subset.group
    nfix = len(fixed)
    if nfix > system.arity:
        raise ValueError("more fixed values than variables")
    for g in fixed:
        if g.group != group:
            raise GroupMismatchError("fixed element from a different group")
    kfree = system.arity - nfix
    limit = DEFAULT_WORK_BUDGET if budget is None else int(budget)
    predicted = (group.order**kfree) * len(system.forms)
    if predicted > limit:
        raise CapExceeded(
            f"predicted work {predicted} exceeds budget {limit}; raise the budget "
            "or use estimate_density for a Monte Carlo estimate"
        )

    buckets: dict[int, list[_PreparedForm]] = {lv: [] for lv in range(nfix, system.arity)}
    memb = subset.bits
    for form in system.forms:
        pf = _PreparedForm(form, fixed, nfix, group)
        if pf.terms:
            buckets[nfix + max(col for col, _ in pf.terms)].append(pf)
        elif memb[group.index_of(pf.offsets)] == pf.negated:
            return None

    if kfree == 0:
        return np.zeros((1, 0), dtype=np.int64)

    if threads <= 1 or group.order < 2:
        return _run_levels(group, memb, buckets, nfix, system.arity, None)

    ranges = np.array_split(np.arange(group.order, dtype=np.int64), threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(
            pool.map(
                lambda vals: _run_levels(group, memb, buckets, nfix, system.arity, vals),
                ranges,
            )
        )
    parts = [p for p in parts if p.shape[0]]
    if not parts:
        return np.zeros((0, kfree), dtype=np.int64)
    return np.concatenate(parts, axis=0)


def eval_density(
    system: LinearSystem,
    subset: GroupSubset,
    *,
    budget: int | None = None,
    threads: int = 1,
) -> Fraction:
    """Exact probability that a uniform assignment satisfies every form.

    The result has denominator |G|^k.  Refuses (CapExceeded) when the
    predicted work |G|^k * d is over budget.
    """
    return eval_density_fixed(system, subset, (), budget=budget, threads=threads)


def eval_density_fixed(
    system: LinearSystem,
    subset: GroupSubset,
    fixed: Sequence[GroupElement],
    *,
    budget: int | None = None,
    threads: int = 1,
) -> Fraction:
    """Satisfaction probability with a prefix of the variables pinned and the
    remaining variables uniform."""
    frontier = _satisfying_frontier(
        system, subset, tuple(fixed), budget=budget, threads=threads
    )
    kfree = system.arity - len(fixed)
    denom = subset.group.order**kfree
    if frontier is None:
        return Fraction(0, 1)
    return Fraction(frontier.shape[0], denom)


def enumerate_satisfying(
    system: LinearSystem,
    subset: GroupSubset,
    fixed: Sequence[GroupElement] = (),
    *,
    budget: int | None = None,
    threads: int = 1,
) -> list[tuple[GroupElement, ...]]:
    """All free-variable assignments satisfying the system, in index order."""
    frontier = _satisfying_frontier(
        system, subset, tuple(fixed), budget=budget, threads=threads
    )
    if frontier is None:
        return []
    group = subset.group
    return [
        tuple(group.from_index(int(i)) for i in row) for row in frontier
    ]


def estimate_density(
    system: LinearSystem,
    subset: GroupSubset,
    samples: int,
    seed: int,
    *,
    threads: int = 1,
) -> tuple[float, float]:
    """Monte Carlo estimate of the satisfaction density.

    Returns (estimate, radius) where radius is the 99% Hoeffding half-width
    sqrt(ln(200) / (2 * samples)).  Sampling uses per-chunk counter-based
    substreams, so the result depends only on (seed, samples), not on the
    thread count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    group = subset.group
    memb = subset.bits
    prepared = [_PreparedForm(f, (), 0, group) for f in system.forms]
    base = np.random.Philox(key=int(seed))
    chunks = [
        (ci, min(_SAMPLE_CHUNK, samples - ci * _SAMPLE_CHUNK))
        for ci in range((samples + _SAMPLE_CHUNK - 1) // _SAMPLE_CHUNK)
    ]

    def run(chunk: tuple[int, int]) -> int:
        ci, m = chunk
        gen = np.random.Generator(base.jumped(ci))
        draw = gen.integers(0, group.order, size=(m, system.arity), dtype=np.int64)
        return int(_mask(prepared, draw, memb, group).sum())

    if threads <= 1 or len(chunks) == 1:
        hits = sum(run(c) for c in chunks)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(run, chunks))
    radius = math.sqrt(math.log(200.0) / (2.0 * samples))
    return hits / samples, radius


def eval_quantum(
    q: QuantumSystem,
    subset: GroupSubset,
    fixed: Sequence[GroupElement] = (),
    *,
    budget: int | None = None,
    threads: int = 1,
) -> Fraction:
    """sum over terms of coeff * product of factor densities, exact.

    Factors evaluate independently (fresh variables per factor), each with
    its first variables pinned to `fixed`; a repeated factor is evaluated once.
    """
    cache: dict[LinearSystem, Fraction] = {}
    total = Fraction(0)
    for coeff, factors in q.terms:
        prod = Fraction(1)
        for factor in factors:
            d = cache.get(factor)
            if d is None:
                d = eval_density_fixed(factor, subset, fixed, budget=budget, threads=threads)
                cache[factor] = d
            prod *= d
            if prod == 0:
                break
        total += coeff * prod
    return total


def canonicalize(system: LinearSystem) -> tuple[LinearSystem, list[str]]:
    """Sort forms and drop duplicate positive forms; report diagnostics.

    A form and its own negation may coexist (the density is then 0); that is
    flagged rather than rejected.
    """
    diagnostics: list[str] = []
    seen_positive: set[tuple[int, ...]] = set()
    kept: list[LinearForm] = []
    for f in system.forms:
        if not f.negated:
            if f.coefficients in seen_positive:
                diagnostics.append(f"duplicate positive form dropped: {format_form(f)}")
                continue
            seen_positive.add(f.coefficients)
        kept.append(f)
    coeff_sets = {(f.negated, f.coefficients) for f in kept}
    for f in kept:
        if f.negated and (False, f.coefficients) in coeff_sets:
            diagnostics.append(
                f"system contains a form and its negation: {format_form(f)}"
            )
    kept.sort(key=lambda f: (f.negated, f.coefficients))
    return LinearSystem(system.arity, tuple(kept)), diagnostics


# Text format.


def _parse_var(sc: Scanner) -> int:
    if not sc.match("g"):
        raise sc.error("expected variable like g1")
    pos = sc.pos
    idx = sc.expect_int("variable index")
    if idx < 1:
        raise sc.error("variable indices start at 1", pos)
    return idx - 1


def _parse_sum(sc: Scanner) -> dict[int, int]:
    coeffs: dict[int, int] = {}
    sign = -1 if sc.match("-") else 1
    while True:
        sc.skip_ws()
        pos = sc.pos
        c = sc.match_int()
        if c is not None:
            sc.match("*")
            sc.skip_ws()
            if sc.pos < len(sc.text) and sc.text[sc.pos] == "g":
                var = _parse_var(sc)
                coeffs[var] = coeffs.get(var, 0) + sign * c
            elif c != 0:
                raise sc.error("constant terms are not allowed in a linear form", pos)
        else:
            var = _parse_var(sc)
            coeffs[var] = coeffs.get(var, 0) + sign
        if sc.match("+"):
            sign = 1
        elif sc.match("-"):
            sign = -1
        else:
            return coeffs


def _parse_form(sc: Scanner) -> tuple[dict[int, int], bool]:
    negated = sc.match("!")
    if negated and sc.match("("):
        coeffs = _parse_sum(sc)
        sc.expect(")")
    else:
        coeffs = _parse_sum(sc)
    return coeffs, negated


def _parse_system_body(sc: Scanner) -> LinearSystem:
    sc.expect("[")
    raw: list[tuple[dict[int, int], bool]] = [_parse_form(sc)]
    while sc.match(";"):
        raw.append(_parse_form(sc))
    sc.expect("]")
    arity = max((max(c, default=-1) for c, _ in raw), default=-1) + 1
    arity = max(arity, 1)
    forms = []
    for coeffs, negated in raw:
        vec = [0] * arity
        for var, c in coeffs.items():
            vec[var] = c
        forms.append(LinearForm(arity, tuple(vec), negated))
    return LinearSystem(arity, tuple(forms))


def parse_system(text: str) -> LinearSystem:
    """Parse "[form; form; ...]" with forms like "!(3g1)" or "2g2-4g1"."""
    sc = Scanner(text)
    system = _parse_system_body(sc)
    sc.expect_eof()
    return system


def parse_quantum(text: str) -> QuantumSystem:
    """Parse an integer combination of products of systems, e.g.
    "2*[g1]*[g1] - 1*[g1;g2]" or a bare constant."""
    sc = Scanner(text)
    terms: list[tuple[int, tuple[LinearSystem, ...]]] = []
    sign = -1 if sc.match("-") else 1
    while True:
        coeff = sc.match_int()
        if coeff is not None:
            sc.match("*")
        factors: list[LinearSystem] = []
        if sc.peek() == "[":
            factors.append(_parse_system_body(sc))
            while sc.match("*"):
                factors.append(_parse_system_body(sc))
        if coeff is None and not factors:
            raise sc.error("expected a system or an integer coefficient")
        terms.append((sign * (1 if coeff is None else coeff), tuple(factors)))
        if sc.match("+"):
            sign = 1
        elif sc.match("-"):
            sign = -1
        else:
            break
    sc.expect_eof()
    return QuantumSystem(tuple(terms))


def _format_sum(coefficients: Sequence[int]) -> str:
    parts = []
    for i, c in enumerate(coefficients):
        if c == 0:
            continue
        mag = abs(c)
        body = f"g{i + 1}" if mag == 1 else f"{mag}*g{i + 1}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def format_form(form: LinearForm) -> str:
    body = _format_sum(form.coefficients)
    return f"!({body})" if form.negated else body


def format_system(system: LinearSystem) -> str:
    return "[" + "; ".join(format_form(f) for f in system.forms) + "]"


def format_quantum(q: QuantumSystem) -> str:
    parts = []
    for coeff, factors in q.terms:
        mag = abs(coeff)
        body = "*".join(format_system(f) for f in factors)
        text = f"{mag}*{body}" if body else str(mag)
        if not parts:
            parts.append(text if coeff >= 0 else f"-{text}")
        else:
            parts.append(("+ " if coeff >= 0 else "- ") + text)
    return " ".join(parts) if parts else "0"
