"""Systems of integer linear forms over group variables and exact or
Monte-Carlo evaluation of their satisfaction densities.

A system is a list of forms sum_i c_i * g_i, each required to land inside a
subset (or outside it, when negated).  The exact evaluator, `solve_rows`,
takes a matrix of pinned prefixes, one row per prefix, and enumerates the
remaining variables level by level for all rows at once, testing every form
as soon as its last variable is bound, so unsatisfiable prefixes are pruned
early; the per-level work is vectorized.  The density, enumeration and
quantum functions are 1-row calls of it.  Counts are exact integers and
densities exact rationals.
"""

from __future__ import annotations

import contextlib
import functools
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


def _check_budget(order: int, kfree: int, nforms: int, budget: int | None) -> None:
    limit = DEFAULT_WORK_BUDGET if budget is None else int(budget)
    predicted = (order**kfree) * nforms
    if predicted > limit:
        raise CapExceeded(
            f"predicted work {predicted} exceeds budget {limit}; raise the budget "
            "or use estimate_density for a Monte Carlo estimate"
        )


def _level(forms: Sequence[LinearForm], nfix: int, exponent: int):
    """Forms prepared to be tested together: (pinned, free), where pinned
    lists (variable, coefficient) for every pinned variable one of the forms
    uses, the coefficient an int when all forms share it and otherwise an
    int64 array with one entry per form, and free lists each form's (free
    terms, negated) with free variables numbered from 0.  Coefficients are
    reduced mod the group exponent."""
    coeffs = np.array(
        [[c % exponent for c in f.coefficients[:nfix]] for f in forms], dtype=np.int64
    ).reshape(len(forms), nfix)
    coeffs.flags.writeable = False
    pinned = tuple(
        (i, int(col[0]) if (col == col[0]).all() else col[:, None])
        for i, col in enumerate(coeffs.T)
        if col.any()
    )
    free = tuple(
        (
            tuple(
                (i - nfix, c % exponent)
                for i, c in enumerate(f.coefficients)
                if i >= nfix and c % exponent
            ),
            f.negated,
        )
        for f in forms
    )
    return pinned, free


@functools.lru_cache(maxsize=256)
def _prepare(system: LinearSystem, nfix: int, exponent: int) -> tuple:
    """The forms grouped by level, each level prepared by `_level` (None when
    empty): level 0 holds the forms without a free variable, level i + 1 the
    forms whose last free variable is free variable i.  Cached: the
    reduction verifiers evaluate a few systems for many prefixes."""
    buckets: list[list[LinearForm]] = [[] for _ in range(system.arity - nfix + 1)]
    for form in system.forms:
        last = max(
            (i for i, c in enumerate(form.coefficients) if i >= nfix and c % exponent),
            default=nfix - 1,
        )
        buckets[last - nfix + 1].append(form)
    return tuple(_level(b, nfix, exponent) if b else None for b in buckets)


def _pinned_offsets(group, level, prefixes: np.ndarray):
    """Indices of the pinned parts of a level's forms, one combine for all of
    them: (forms, rows), or (1, rows) when the forms share their pinned part;
    None when no form has one."""
    if level is None or not level[0]:
        return None
    return group.combine([(c, prefixes[None, :, i]) for i, c in level[0]])


def _holds(group, memb, level, off, columns):
    """Where every form of `level` lands in A (outside A when negated).

    columns[i] holds the indices of free variable i; off[f] (or off[0] when
    `off` has one row) those of form f's pinned part, None when no form has
    one; all broadcast against each other.  None when the level is empty.
    """
    if level is None:
        return None
    ok = None
    for f, (free, negated) in enumerate(level[1]):
        pin = None if off is None else off[f if len(off) > 1 else 0]
        if free:
            terms = [(c, columns[i]) for i, c in free]
            hit = memb[group.combine(terms if pin is None else terms + [(1, pin)])]
        else:
            hit = memb[0 if pin is None else pin]
        hit = ~hit if negated else hit
        ok = hit if ok is None else ok & hit
    return ok


def _complete(group, memb, levels, offsets, rows: int, values: np.ndarray):
    """The satisfying completions of `rows` live prefix rows as (owner,
    free): free[i] is an index row of the free variables, owner[i] the
    prefix row it completes, in (owner, free) order.  The first free
    variable ranges over `values`, the others over the whole group."""
    kfree = len(levels) - 1
    if kfree == 0:
        return np.arange(rows, dtype=np.int64), np.zeros((rows, 0), dtype=np.int64)
    # The first free variable is bound for all rows at once: pinned parts are
    # (rows, 1) terms and the variable a (1, values) term.
    shape = (rows, values.size)
    off = None if offsets[1] is None else offsets[1][:, :, None]
    ok = _holds(group, memb, levels[1], off, [values[None, :]])
    owner, vi = np.nonzero(np.ones(shape, dtype=bool) if ok is None else np.broadcast_to(ok, shape))
    free = values[vi][:, None]
    single = rows == 1
    n = group.order
    every = np.arange(n, dtype=np.int64)
    step = max(1, _ENUM_CHUNK // n)
    for level in range(2, kfree + 1):
        if free.shape[0] == 0:
            break
        prepared, off = levels[level], offsets[level]
        owners, frees = [], []
        for start in range(0, free.shape[0], step):
            part = free[start : start + step]
            ext = np.empty((part.shape[0] * n, level), dtype=np.int64)
            ext[:, :-1] = np.repeat(part, n, axis=0)
            ext[:, -1] = np.tile(every, part.shape[0])
            own = None if single else np.repeat(owner[start : start + step], n)
            if prepared is not None:
                keep = _holds(
                    group, memb, prepared, off if off is None or single else off[:, own], ext.T
                )
                ext = ext[keep]
                own = None if single else own[keep]
            frees.append(ext)
            owners.append(own)
        free = frees[0] if len(frees) == 1 else np.concatenate(frees, axis=0)
        if not single:
            owner = owners[0] if len(owners) == 1 else np.concatenate(owners)
    if free.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, kfree), dtype=np.int64)
    if single:
        owner = np.zeros(free.shape[0], dtype=np.int64)
    return owner, free


def solve_rows(
    system: LinearSystem,
    subset: GroupSubset,
    prefixes: np.ndarray,
    *,
    budget: int | None = None,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Every satisfying completion of every pinned prefix, as index rows.

    `prefixes` is an int64 (rows, nfix) matrix of element indices for the
    first nfix variables.  Returns (owner, free): free[i] holds the indices
    of the remaining variables, owner[i] the prefix row it completes, sorted
    by (owner, free).  The work budget is checked per prefix, |G|^kfree * d,
    before anything is allocated, so it admits a whole batch when it admits
    one row.  Each block of candidate assignments holds at most about 2^20
    rows, the first free variable of a chunk of prefix rows included.
    """
    group = subset.group
    prefixes = np.asarray(prefixes, dtype=np.int64)
    if prefixes.ndim != 2:
        raise ValueError("prefixes must be a (rows, nfix) index matrix")
    rows, nfix = prefixes.shape
    if nfix > system.arity:
        raise ValueError("more fixed values than variables")
    kfree = system.arity - nfix
    _check_budget(group.order, kfree, len(system.forms), budget)
    if prefixes.size and (prefixes.min() < 0 or prefixes.max() >= group.order):
        raise ValueError("prefix index out of range")

    levels = _prepare(system, nfix, math.lcm(*group.moduli))
    memb = subset.bits
    n = group.order
    values = np.arange(n, dtype=np.int64)
    splits = [values] if threads <= 1 or n < 2 or kfree == 0 else np.array_split(values, threads)
    step = max(1, _ENUM_CHUNK // (n if kfree else 1))
    owners, frees = [], []
    pool = ThreadPoolExecutor(max_workers=len(splits)) if len(splits) > 1 else None
    with pool or contextlib.nullcontext():
        run = map if pool is None else pool.map
        for start in range(0, rows, step):
            part = prefixes[start : start + step]
            offsets = [_pinned_offsets(group, level, part) for level in levels]
            live = np.arange(part.shape[0])
            alive = _holds(group, memb, levels[0], offsets[0], ())
            if alive is not None:
                live = live[np.broadcast_to(alive, live.shape)]
                offsets = [None if off is None else off[:, live] for off in offsets]
            if live.size == 0:
                continue
            parts = list(
                run(lambda v: _complete(group, memb, levels, offsets, live.size, v), splits)
            )
            owner = np.concatenate([p[0] for p in parts])
            free = np.concatenate([p[1] for p in parts], axis=0)
            if len(parts) > 1 and live.size > 1:
                order = np.argsort(owner, kind="stable")
                owner, free = owner[order], free[order]
            owners.append(live[owner] + start)
            frees.append(free)
    if not owners:
        return np.zeros(0, dtype=np.int64), np.zeros((0, kfree), dtype=np.int64)
    return np.concatenate(owners), np.concatenate(frees, axis=0)


def count_rows(
    system: LinearSystem,
    subset: GroupSubset,
    prefixes: np.ndarray,
    *,
    budget: int | None = None,
    threads: int = 1,
    masks: bool = False,
):
    """Per-row satisfying counts (int64, one per prefix row) of the
    completions that `solve_rows` lists; with `masks`, also the boolean
    (rows, |G|) matrix of satisfying values when one variable is left free."""
    owner, free = solve_rows(system, subset, prefixes, budget=budget, threads=threads)
    rows = len(prefixes)
    counts = np.bincount(owner, minlength=rows)
    if not masks:
        return counts
    if free.shape[1] != 1:
        raise ValueError("masks need exactly one free variable")
    out = np.zeros((rows, subset.group.order), dtype=bool)
    out[owner, free[:, 0]] = True
    return counts, out


def prefix_row(subset: GroupSubset, fixed: Sequence[GroupElement]) -> np.ndarray:
    """The (1, nfix) index matrix of a pinned prefix of group elements."""
    for g in fixed:
        if g.group != subset.group:
            raise GroupMismatchError("fixed element from a different group")
    return np.array([g.index() for g in fixed], dtype=np.int64).reshape(1, len(fixed))


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
    counts = count_rows(
        system, subset, prefix_row(subset, fixed), budget=budget, threads=threads
    )
    return Fraction(int(counts[0]), subset.group.order ** (system.arity - len(fixed)))


def enumerate_satisfying(
    system: LinearSystem,
    subset: GroupSubset,
    fixed: Sequence[GroupElement] = (),
    *,
    budget: int | None = None,
    threads: int = 1,
) -> list[tuple[GroupElement, ...]]:
    """All free-variable assignments satisfying the system, in index order."""
    _, free = solve_rows(
        system, subset, prefix_row(subset, fixed), budget=budget, threads=threads
    )
    group = subset.group
    return [tuple(group.from_index(int(i)) for i in row) for row in free]


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
    level = _level(system.forms, 0, math.lcm(*group.moduli))
    base = np.random.Philox(key=int(seed))
    chunks = [
        (ci, min(_SAMPLE_CHUNK, samples - ci * _SAMPLE_CHUNK))
        for ci in range((samples + _SAMPLE_CHUNK - 1) // _SAMPLE_CHUNK)
    ]

    def run(chunk: tuple[int, int]) -> int:
        ci, m = chunk
        gen = np.random.Generator(base.jumped(ci))
        draw = gen.integers(0, group.order, size=(m, system.arity), dtype=np.int64)
        ok = _holds(group, memb, level, None, draw.T)
        return int(np.broadcast_to(ok, (m,)).sum())

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
    return quantum_sum_rows(
        q, subset, prefix_row(subset, fixed), budget=budget, threads=threads
    )


def quantum_sum_rows(
    q: QuantumSystem,
    subset: GroupSubset,
    prefixes: np.ndarray,
    *,
    budget: int | None = None,
    threads: int = 1,
) -> Fraction:
    """The sum over the rows of a (rows, nfix) prefix matrix of `q` with the
    first variables of every factor pinned to the row, exact.

    A factor is counted once per row, for all rows that need it in one
    `count_rows` call; a row stops evaluating a term's factors once the
    term's product is 0 there.
    """
    rows = len(prefixes)
    order = subset.group.order
    counts: dict[LinearSystem, np.ndarray] = {}  # -1 marks rows not counted yet
    total = Fraction(0)
    for coeff, factors in q.terms:
        num = np.ones(rows, dtype=object)
        den = 1
        for factor in factors:
            live = np.flatnonzero(num)
            if live.size == 0:
                break
            got = counts.setdefault(factor, np.full(rows, -1, dtype=np.int64))
            todo = live[got[live] < 0]
            if todo.size:
                got[todo] = count_rows(
                    factor, subset, prefixes[todo], budget=budget, threads=threads
                )
            num[live] *= got[live].astype(object)
            den *= order ** (factor.arity - prefixes.shape[1])
        total += coeff * Fraction(int(num.sum()), den)
    return total


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
