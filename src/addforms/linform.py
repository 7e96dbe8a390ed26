"""Systems of integer linear forms over group variables and exact or
Monte-Carlo evaluation of their satisfaction densities.

A system is a list of forms sum_i c_i * g_i, each required to land inside a
subset (or outside it, when negated).  The exact evaluators take a matrix
of pinned prefixes, one row per prefix, and either one subset for every
row or one subset per row, so a single call serves many (subset, prefix)
pairs; `_members` gives every call one int64 row -> subset index, zeros
for a shared subset.  They work in chunks of rows (`_chunks`): per chunk,
`_tables` reads membership from the subsets' bit matrix at each row's
subset, keeps the rows that pass the forms without a free variable and
builds the table of each direction of the others' free coefficients by
its own gather.  Every table gather indexes through the group's
`sum_code`, which alone chooses the carry-free code or `combine`.
`count_rows` counts the completions of every row from those tables by
variable elimination, pair counts through `abelian.pair_count_rows` and
the last two or three variables through `_stack_counts`, which
`reduction`'s graphs share; `_link` builds each of its stacks.
`solve_rows` lists the completions: it binds the free variables one per
level, and one step, `_grow`, extends the frontier of all rows by the
values where a level's table holds, so unsatisfiable prefixes are pruned
early; a system no rule covers has its first free variable pinned by the
same step and is counted again.  The density and
quantum functions call `count_rows`, `enumerate_satisfying` `solve_rows`,
and `estimate_density` tests its samples against the tables of a row with
no pinned variable.  Counts are exact integers, densities exact rationals.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._scan import Scanner, signed_sum
from .abelian import GroupElement, GroupSubset, _negated_rows, pair_count_rows
from .errors import GroupMismatchError, _check_work

# Cap on rows of any temporary assignment block.
_ENUM_CHUNK = 1 << 20
# Cap on entries of the stacks of `_stack_counts` that are built at once:
# their int64 index blocks stay at 2 MB.
_GRID_BLOCK = 1 << 18
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
        # systems key the evaluators' caches, so the hash is computed once
        object.__setattr__(self, "_hash", hash((self.arity, self.forms)))

    def __hash__(self) -> int:
        return self._hash

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


def _checked_prefixes(system: LinearSystem, group, prefixes, budget) -> tuple[np.ndarray, int]:
    """The prefixes as an int64 (rows, nfix) matrix and the number of free
    variables, after the shape, budget and index checks."""
    prefixes = np.asarray(prefixes, dtype=np.int64)
    if prefixes.ndim != 2:
        raise ValueError("prefixes must be a (rows, nfix) index matrix")
    if prefixes.shape[1] > system.arity:
        raise ValueError("more fixed values than variables")
    kfree = system.arity - prefixes.shape[1]
    n, d = group.order, len(system.forms)
    hint = "use the `estimate` verb (`estimate_density` in the library) for a Monte Carlo estimate"
    _check_work(n**kfree * d, budget, f"{n}^{kfree} * {d}", hint)
    if prefixes.size and (prefixes.min() < 0 or prefixes.max() >= group.order):
        raise ValueError("prefix index out of range")
    return prefixes, kfree


def _pinned_terms(coeffs: np.ndarray) -> tuple:
    """`combine` terms for the pinned parts of the rows of an int64 (forms,
    nfix) coefficient matrix: (variable, coefficient) for every variable a
    row uses, the coefficient an int when all rows share it and otherwise a
    (forms, 1) array."""
    coeffs.flags.writeable = False
    return tuple(
        (i, int(col[0]) if (col == col[0]).all() else col[:, None])
        for i, col in enumerate(coeffs.T)
        if col.any()
    )


@functools.lru_cache(maxsize=256)
def _levels(system: LinearSystem, nfix: int, exponent: int) -> tuple:
    """The plans (`_plan`) that bind the free variables one at a time: level
    i holds the forms whose last free variable is free variable i (level 0
    also the forms without one), truncated to m = nfix + i + 1 variables,
    over m - 1 pinned ones; a level where no form ends has no table.  The
    dropped coefficients are multiples of the group exponent, so every level
    is satisfied exactly where its forms are.  Cached: the reduction
    verifiers list a few systems for many prefixes."""
    buckets: list[list[LinearForm]] = [[] for _ in range(system.arity - nfix)]
    for form in system.forms:
        last = max((i for i, c in enumerate(form.coefficients) if c % exponent), default=0)
        m = max(nfix, last) + 1
        buckets[m - nfix - 1].append(LinearForm(m, form.coefficients[:m], form.negated))
    return tuple(
        _plan(LinearSystem(m, tuple(b)), m - 1, exponent) if b else ((), None, (), ())
        for m, b in enumerate(buckets, nfix + 1)
    )


def _grow(group, bits, which, plan: tuple, owner: np.ndarray, frontier: np.ndarray) -> tuple:
    """(owner, frontier) with each row of the (rows, m) `frontier` extended
    by every value of variable m at which the table of `plan` (a level of
    `_levels`) holds, in (row, value) order; owner[i], the index into
    `which` of the row's subset, is carried along."""
    owners, grown = [owner[:0]], [np.zeros((0, frontier.shape[1] + 1), dtype=np.int64)]
    for live, tabs in _chunks(group, bits, which[owner], plan, frontier):
        r, v = np.nonzero(_unary(tabs, 0, live.size, group.order))
        r = live[r]
        owners.append(owner[r])
        grown.append(np.column_stack([frontier[r], v]))
    return np.concatenate(owners), np.concatenate(grown, axis=0)


def solve_rows(
    system: LinearSystem,
    subset: GroupSubset | Sequence[GroupSubset],
    prefixes: np.ndarray,
    *,
    budget: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every satisfying completion of every pinned prefix, as index rows.

    `prefixes` is an int64 (rows, nfix) matrix of element indices for the
    first nfix variables.  Returns (owner, free): free[i] holds the indices
    of the remaining variables, owner[i] the prefix row it completes, sorted
    by (owner, free).  `subset` is one GroupSubset for every row or a
    sequence of one per row, as in `count_rows`.  The work budget is checked
    per prefix, |G|^kfree * d, before anything is allocated, so it admits a
    whole batch when it admits one row.

    The free variables are bound one per level (`_levels`): `_grow` extends
    the frontier of partial assignments by the values where the level's
    table of its free variable holds (every value at a level with no form),
    so a form is tested as soon as its last variable is bound; with no free
    variable, the rows that pass are kept.  A partial assignment reads the
    subset of the prefix row it extends."""
    group, bits, which = _members(subset, prefixes)
    prefixes, kfree = _checked_prefixes(system, group, prefixes, budget)
    nfix = prefixes.shape[1]
    exponent = math.lcm(*group.moduli)
    owner, frontier = np.arange(len(prefixes), dtype=np.int64), prefixes
    if kfree == 0:  # no level: the rows that pass the forms
        chunks = _chunks(group, bits, which, _plan(system, nfix, exponent), prefixes)
        owner = np.concatenate([owner[:0], *(live for live, _ in chunks)])
        frontier = prefixes[owner]
    for plan in _levels(system, nfix, exponent) if kfree else ():
        owner, frontier = _grow(group, bits, which, plan, owner, frontier)
    return owner, frontier[:, nfix:]


# The elimination engine behind `count_rows`.

def _cycle_counts(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """trace(X @ Y @ Z), int64 per row, of three 0/1 stacks of shapes
    (rows, a, b), (rows, b, c) and (rows, c, a), y float64 and x, z boolean
    or float64: the sum of (X @ Y) * Z^T."""
    # exact in float64: every path count and partial sum is an integer <= b < 2^53
    paths = np.matmul(x.astype(np.float64, copy=False), y).astype(np.int64)
    return (paths * z.transpose(0, 2, 1)).sum(axis=(1, 2))


def _symmetric(coeffs: Sequence[int], exponent: int) -> list[int]:
    """The coefficients with the same action on the group: 0 for multiples
    of the exponent, a coefficient within exponent/2 of 0 as it is, any
    other taken in (-exponent/2, exponent/2]."""
    out = []
    for c in coeffs:
        if c % exponent == 0:
            c = 0
        elif 2 * abs(c) > exponent:
            c %= exponent
            c -= exponent if 2 * c > exponent else 0
        out.append(c)
    return out


def _primitive(coeffs: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(m, d) with coeffs = m * d, d divided by the gcd over Z and its first
    nonzero entry positive; coeffs must not all be 0."""
    m = math.gcd(*coeffs)
    if next(c for c in coeffs if c) < 0:
        m = -m
    return m, tuple(c // m for c in coeffs)


def _stack(entries, multipliers, parts: dict, ndim: int):
    """Forms tested by one gather, given as (pinned coefficients, negated)
    entries: (rows, multipliers, negated), rows[f] the row of form f's
    pinned coefficients in `parts` (coefficients -> row, extended when new).
    A multiplier or negation that every form shares is a Python scalar, any
    other an array over the forms with `ndim` more axes of length 1."""
    shape = (len(entries),) + (1,) * ndim

    def shaped(x):
        x = np.asarray(x)
        return x.flat[0].item() if (x == x.flat[0]).all() else x.reshape(shape)

    rows = [parts.setdefault(pinned, len(parts)) for pinned, _ in entries]
    return np.array(rows, dtype=np.int64), shaped(multipliers), shaped([n for _, n in entries])


def _triangle(live: set[int], factors: set[tuple[int, ...]]):
    """The links ((a, b, (d_ab,)), (b, c, (d_bc,)), (c, a, (d_ca,))) of three
    live variables joined pairwise by the three tables, or None."""
    if len(live) != 3 or len(factors) != 3:
        return None
    pairs = {frozenset(i for i, c in enumerate(d) if c): d for d in factors}
    a, b, c = sorted(live)
    links = tuple((p, q, (pairs.get(frozenset((p, q))),)) for p, q in ((a, b), (b, c), (c, a)))
    return None if any(d is None for _, _, (d,) in links) else links


def _eliminate(kfree: int, directions) -> tuple | None:
    """The elimination steps over free variables 0..kfree-1 and tables of
    the given primitive `directions` (a one-variable direction is that
    variable's unary table), or None when a state is reached that no rule
    covers.  Tables start boolean; pair counts make integer ones.  The
    rules, tried in this order:

    (a) "sum": a variable in no multi-variable table is summed out, the row
        sum of its unary;
    (c) "edge": two variables joined only by one table h, with coefficients
        +-1 and boolean unaries: the sum over w of h(w) times the pair count
        of u_a and +-u_b at w, from `pair_count_rows`;
    (b) "pair": a variable with coefficient +-1 in exactly one table h, both
        boolean: the pair count of h and -+u is a table over h's other
        variables, folded into a unary when one is left;
    (d) "grid" for two variables under any tables, "triangle" for three
        variables joined pairwise by three boolean tables: each step holds
        the links that `_stack_counts` counts on the variables' supports.
    """
    live = set(range(kfree))
    factors = {d for d in directions if sum(map(bool, d)) > 1}
    ints: set = set()  # variables and directions whose tables hold integers
    steps: list[tuple] = []
    while live:
        touching = {v: [d for d in factors if d[v]] for v in live}
        alone = sorted(v for v in live if not touching[v])
        if alone:
            steps += [("sum", v) for v in alone]
            live.difference_update(alone)
            continue
        if len(live) == 2 and len(factors) == 1:
            a, b = sorted(live)
            (d,) = factors
            if abs(d[a]) == abs(d[b]) == 1 and not ints & {a, b}:
                steps.append(("edge", a, b, d))
                break
        for v in sorted(live):
            d, *more = touching[v]
            if not more and abs(d[v]) == 1 and not ints & {v, d}:
                m, rest = _primitive([0 if i == v else c for i, c in enumerate(d)])
                target = rest.index(1) if sum(map(bool, rest)) == 1 else rest
                steps.append(("pair", v, d, m, target))
                live.discard(v)
                factors.discard(d)
                if isinstance(target, tuple):
                    factors.add(target)
                ints.add(target)
                break
        else:
            if len(live) == 2:
                steps.append(("grid", ((*sorted(live), tuple(sorted(factors))),)))
                break
            chain = _triangle(live, factors)
            if chain is None or ints & (live | factors):
                return None
            steps.append(("triangle", chain))
            break
    return tuple(steps)


@functools.lru_cache(maxsize=256)
def _plan(system: LinearSystem, nfix: int, exponent: int) -> tuple:
    """The plan of `_tables` and `count_rows`, cached like `_levels`:
    (pinned, filters, tables, steps).  `pinned` gives the distinct pinned
    parts of the forms to one `combine` (`_pinned_terms`).  `filters` stacks
    the forms without a free variable (None when there are none).  `tables`
    holds one (key, stack) entry per primitive direction d of the others'
    free coefficients: the stack (`_stack`) of the forms of d, each with the
    multiplier m that gives its free part as m * d.  The table holds at w
    when every form f of it lands in A (outside A when negated) at its
    pinned part plus m_f * w; key is the variable of a one-variable d and d
    itself otherwise.  `steps` come from `_eliminate`; None means counting
    by pinning a free variable."""
    filters, groups, parts = [], {}, {}
    for form in system.forms:
        pinned = tuple(c % exponent for c in form.coefficients[:nfix])
        free = _symmetric(form.coefficients[nfix:], exponent)
        if any(free):
            m, d = _primitive(free)
            groups.setdefault(d, []).append(((pinned, form.negated), m))
        else:
            filters.append((pinned, form.negated))
    filters = _stack(filters, 0, parts, 1) if filters else None
    tables = tuple(
        (d.index(1) if sum(map(bool, d)) == 1 else d, _stack(*zip(*members), parts, 2))
        for d, members in groups.items()
    )
    coeffs = np.array(list(parts), dtype=np.int64).reshape(len(parts), nfix)
    return _pinned_terms(coeffs), filters, tables, _eliminate(system.arity - nfix, groups)


def _unary(tabs: dict, v: int, rows: int, n: int) -> np.ndarray:
    """Variable v's unary table, taken out of `tabs`; all True when no form
    constrains v alone."""
    u = tabs.pop(v, None)
    return np.ones((rows, n), dtype=bool) if u is None else u


def _link(group, unary: dict, tables: dict, r: slice, link: tuple, sp, sq) -> np.ndarray:
    """The (rows, |sp|, |sq|) stack of link (p, q, dirs) on the rows r: u_p at
    sp (left out when None, or boolean on one row: all True on its support)
    times each table d at d . (sp[i], sq[j]): one index block, by the
    group's two-term `sum_code`, and one gather each."""
    p, q, dirs = link
    u = unary[p] if unary[p] is None else unary[p][r]
    mat = None if u is None or (len(u) == 1 and u.dtype == bool) else u[:, sp, None]
    code = group.sum_code(2)
    for d in dirs:
        idx = code.index([(d[p], sp[:, None]), (d[q], sq[None])])
        hit = np.take(code.ready(tables[d][r]), idx, axis=1)
        mat = hit if mat is None else mat * hit
    return mat


def _stack_counts(group, links, unary: dict, tables: dict, rows: int, wide: bool) -> np.ndarray:
    """Per-row counts of the values of the variables of `links`, ((a, b, dirs),)
    or the 3-cycle ((a, b, (d_ab,)), (b, c, (d_bc,)), (c, a, (d_ca,))), where
    their `unary` tables (None for none) and direction `tables` all hold; it
    changes neither dict.  Per block of rows each link is its `_link` stack on
    the supports S_p x S_q, S_p the values some row's u_p admits (all of G
    without one), summed against u_b or traced (`_cycle_counts`).  Blocks,
    and slices of S_a when one row is wider, keep each stack that holds a
    within _GRID_BLOCK entries; the (b, c) stack is built in float64 once per block."""
    (a, b, _), c = links[0], links[-1][0]
    own, every = [(p, unary[p]) for p in {a, b, c}], np.arange(group.order)
    size = {p: group.order if u is None else u.any(axis=0).sum() for p, u in own}
    step = max(1, _GRID_BLOCK // max(1, *(size[p] * size[q] for p, q, _ in links)))
    total = np.zeros(rows, dtype=object if wide else np.int64)
    for s in range(0, rows, step):
        r, y = slice(s, s + step), None
        support = {p: every if u is None else np.flatnonzero(u[r].any(axis=0)) for p, u in own}
        cut = max(1, _GRID_BLOCK // max(1, *(x.size for p, x in support.items() if p != a)))
        if len(links) == 3 and support[a].size:
            y = _link(group, unary, tables, r, links[1], support[b], support[c]).astype(np.float64)
        for sa in (support[a][i : i + cut] for i in range(0, support[a].size, cut)):
            x = _link(group, unary, tables, r, links[0], sa, support[b])
            if len(links) == 1:
                got, u = x.sum(axis=1), unary[b]
                total[r] += (got if u is None else got * u[r][:, support[b]]).sum(axis=1)
            else:
                z = _link(group, unary, tables, r, links[2], support[c], sa)
                total[r] += _cycle_counts(x, y, z)
    return total


def _run(group, steps: tuple, tabs: dict, rows: int, wide: bool) -> np.ndarray:
    """Per-row counts of the elimination `steps` over the (rows, |G|) tables
    `tabs`, which they consume: int64, or Python integers when `wide`; a
    "grid" or "triangle" step pops its unaries and tables for `_stack_counts`."""
    n = group.order
    count = np.ones(rows, dtype=object if wide else np.int64)
    for step in steps:
        kind = step[0]
        if kind == "sum":
            u = tabs.pop(step[1], None)
            count = count * (n if u is None else u.sum(axis=1))
        elif kind == "edge":
            _, a, b, d = step
            ua, ub = _unary(tabs, a, rows, n), _unary(tabs, b, rows, n)
            # (y_a, y_b) with y_a + d_b * y_b = w are the pairs of u_a and d_b * u_b
            pairs = pair_count_rows(group, ua, ub if d[b] == 1 else _negated_rows(group, ub))
            count = count * (pairs * tabs.pop(d)).sum(axis=1)
        elif kind == "pair":
            _, v, d, m, target = step
            u = _unary(tabs, v, rows, n)
            # sum over y of u(y) h(w + s*y) counts the pairs of h and -s*u summing to w
            u = u if d[v] == -1 else _negated_rows(group, u)
            table = pair_count_rows(group, tabs.pop(d), u)
            if m != 1:
                table = table[:, group.combine([(m, np.arange(n, dtype=np.int64))])]
            if wide:
                table = table.astype(object)
            old = tabs.get(target)
            tabs[target] = table if old is None else old * table
        else:
            links = step[1]
            unary = {p: tabs.pop(p, None) for p in {*links[0][:2], links[-1][0]}}
            tables = {d: tabs.pop(d) for _, _, dirs in links for d in dirs}
            count = count * _stack_counts(group, links, unary, tables, rows, wide)
    return count


def _pinned_counts(system, group, bits, which, prefixes, counts: np.ndarray, budget) -> np.ndarray:
    """`counts` filled with the counts of `prefixes` as the sums of the
    counts of each row widened by the values of the first free variable
    that the system's first level admits (`_grow`); chunked so a widened
    block has at most about 2^20 rows, each in its row's subset."""
    plan = _levels(system, prefixes.shape[1], math.lcm(*group.moduli))[0]
    step = max(1, _ENUM_CHUNK // group.order)
    for start in range(0, len(prefixes), step):
        part = prefixes[start : start + step]
        owner, wider = _grow(group, bits, which, plan, np.arange(start, start + len(part)), part)
        got = _counts(system, group, bits, which[owner], wider, budget).astype(counts.dtype)
        np.add.at(counts, owner, got)  # exact for Python integers too
    return counts


def _tables(
    group, bits: np.ndarray, which, plan: tuple, part: np.ndarray
) -> tuple[np.ndarray, dict]:
    """The rows of the prefix chunk `part` that pass the filters of `plan`
    (from `_plan`) and, per table entry, its boolean (live rows, |G|) table
    under its key, from one gather.  Membership is read from the (s, |G|)
    bit matrix `bits` of the subsets, row i of `part` in subset which[i];
    with s = 1, `which` is not read and no offset added.  The index of a
    table is m * w plus a pinned part, one index block by the group's
    two-term `sum_code`, into the rows of the bit matrix that the live rows
    use, readied for it once for every table."""
    pinned, filters, tables, _ = plan
    n = group.order
    # the pinned parts, (distinct parts, rows); one part of zeros when every
    # form's is 0, so each table has a row per live row
    if pinned:
        off = group.combine([(c, part[None, :, i]) for i, c in pinned])
    else:
        off = np.zeros((1, len(part)), dtype=np.int64)
    live = np.arange(len(part))
    if filters is not None:
        at, _, neg = filters
        idx = off[at] if len(bits) == 1 else off[at] + which * n  # subset s at s * |G|
        live = live[(bits.reshape(-1)[idx] != neg).all(axis=0)]
        off = off[:, live]
    code = group.sum_code(2)
    if len(bits) == 1:
        memb = code.ready(bits).reshape(-1)
    else:  # only the live rows' subsets are readied, the k-th at k * ready.shape[1]
        sub, k = np.unique(which[live], return_inverse=True)
        ready = code.ready(bits[sub])
        memb, base = ready.reshape(-1), k[:, None] * ready.shape[1]
    tabs = {}
    every = np.arange(n, dtype=np.int64)
    for key, (at, m, neg) in tables:
        idx = code.index([(m, every), (1, off[at][:, :, None])])  # a new block: add in place
        if len(bits) > 1:
            idx += base
        tabs[key] = (memb[idx] != neg).all(axis=0)
    return live, tabs


def _chunks(group, bits: np.ndarray, which, plan: tuple, prefixes: np.ndarray):
    """(rows, tables) of `_tables` per chunk of `prefixes` with a live row,
    rows indexing `prefixes` and its row -> subset index `which`.  A chunk
    holds about 2^20 table entries, |G| per row and form of a table entry."""
    forms = sum(len(at) for _, (at, _, _) in plan[2])
    step = max(1, _ENUM_CHUNK // (group.order * max(1, forms)))
    for start in range(0, len(prefixes), step):
        end = start + step
        live, tabs = _tables(group, bits, which[start:end], plan, prefixes[start:end])
        if live.size:
            yield start + live, tabs


def _members(subset, prefixes) -> tuple:
    """(group, bits, which) of `subset`, one GroupSubset shared by every
    row of `prefixes` or a sequence of one per row: the (s, |G|) bit matrix
    of the subsets and the int64 row -> subset index, zeros for a shared one."""
    if isinstance(subset, GroupSubset):
        # zero strides allocate nothing per row; np.broadcast_to would take 8 us
        which = np.ndarray(len(prefixes), np.int64, np.zeros(1, np.int64), strides=(0,))
        return subset.group, subset.bits[None], which
    subsets = list(subset)
    if not subsets:
        raise ValueError("an empty subset list has no group; pass one GroupSubset")
    if len(subsets) != len(prefixes):
        raise ValueError(f"{len(subsets)} subsets for {len(prefixes)} prefix rows")
    group = subsets[0].group
    if any(a.group != group for a in subsets):
        raise GroupMismatchError("the subsets of the rows mix groups")
    return group, np.stack([a.bits for a in subsets]), np.arange(len(subsets), dtype=np.int64)


def _counts(system, group, bits, which, prefixes, budget) -> np.ndarray:
    """`count_rows` over the subsets of `_members`."""
    prefixes, kfree = _checked_prefixes(system, group, prefixes, budget)
    plan = _plan(system, prefixes.shape[1], math.lcm(*group.moduli))
    wide = group.order**kfree >= 1 << 63
    counts = np.zeros(len(prefixes), dtype=object if wide else np.int64)
    if plan[-1] is None:
        return _pinned_counts(system, group, bits, which, prefixes, counts, budget)
    for live, tabs in _chunks(group, bits, which, plan, prefixes):
        counts[live] = _run(group, plan[-1], tabs, live.size, wide)
    return counts


def count_rows(
    system: LinearSystem,
    subset: GroupSubset | Sequence[GroupSubset],
    prefixes: np.ndarray,
    *,
    budget: int | None = None,
) -> np.ndarray:
    """Per-row satisfying counts, one per prefix row, of the completions
    that `solve_rows` lists, without listing them.  Counts are int64 while
    |G|^kfree < 2^63 and Python integers beyond.  `subset` is one
    GroupSubset for every row or a sequence of one per row, all of one
    group (GroupMismatchError otherwise).

    Per chunk of rows (`_chunks`), `_tables` gives the rows that pass the
    forms without a free variable and one table per direction of the free
    coefficients of the others (`_plan`), and the free variables are summed
    out by the rules of `_eliminate`.  When no rule covers the system, the
    first free variable is pinned to each value its first level admits
    (`_pinned_counts`); two free variables always have a plan, so this
    ends.  The budget is checked as in `solve_rows`."""
    return _counts(system, *_members(subset, prefixes), prefixes, budget)


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
) -> Fraction:
    """Exact probability that a uniform assignment satisfies every form.

    The result has denominator |G|^k.  Refuses (CapExceeded) when the
    predicted work |G|^k * d is over budget.
    """
    return eval_density_fixed(system, subset, (), budget=budget)


def eval_density_fixed(
    system: LinearSystem,
    subset: GroupSubset,
    fixed: Sequence[GroupElement],
    *,
    budget: int | None = None,
) -> Fraction:
    """Satisfaction probability with a prefix of the variables pinned and the
    remaining variables uniform."""
    counts = count_rows(system, subset, prefix_row(subset, fixed), budget=budget)
    return Fraction(int(counts[0]), subset.group.order ** (system.arity - len(fixed)))


def enumerate_satisfying(
    system: LinearSystem,
    subset: GroupSubset,
    fixed: Sequence[GroupElement] = (),
    *,
    budget: int | None = None,
) -> list[tuple[GroupElement, ...]]:
    """All free-variable assignments satisfying the system, in index order."""
    _, free = solve_rows(system, subset, prefix_row(subset, fixed), budget=budget)
    group = subset.group
    return [tuple(group.from_index(int(i)) for i in row) for row in free]


def estimate_density(
    system: LinearSystem,
    subset: GroupSubset,
    samples: int,
    seed: int,
    *,
    threads: int = 1,
    budget: int | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the satisfaction density.

    Returns (estimate, radius) where radius is the 99% Hoeffding half-width
    sqrt(ln(200) / (2 * samples)).  Chunk ci of _SAMPLE_CHUNK samples is
    drawn from the counter-based substream `jumped(ci)`, and worker w of
    min(threads, chunks) counts the hits of chunks w, w + workers, ...; so
    the result depends only on (seed, samples), and memory does not grow
    with `samples`.  Samples are tested against the tables of `_tables` for
    a row with no pinned variable: one gather per direction of the forms.
    A direction indexes its table, readied once per call, by the codes of
    the sample columns' sum with its coefficients (`sum_code`'s `index`).
    Refuses (CapExceeded) samples * forms over `budget`, before any draw.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = len(system.forms)
    _check_work(samples * d, budget, f">= 2^{samples.bit_length() - 1} * {d}", "draw fewer samples")
    none = np.zeros((1, 0), dtype=np.int64)
    group, bits, which = _members(subset, none)
    radius = math.sqrt(math.log(200.0) / (2.0 * samples))
    plan = _plan(system, 0, math.lcm(*group.moduli))
    live, tabs = _tables(group, bits, which, plan, none)
    if live.size == 0:
        return 0.0, radius  # a form that is 0 at every assignment fails
    base = np.random.Philox(key=int(seed))
    chunks = -(-samples // _SAMPLE_CHUNK)
    workers = min(threads, chunks)

    # (variable or direction, the code of its terms, its table readied for it)
    tests = []
    for key, table in tabs.items():
        if isinstance(key, int):
            tests.append((key, None, table[0]))
        else:
            code = group.sum_code(sum(map(bool, key)))
            tests.append((key, code, code.ready(table[0])))

    def hits_of(ci: int) -> int:
        m = min(_SAMPLE_CHUNK, samples - ci * _SAMPLE_CHUNK)
        gen = np.random.Generator(base.jumped(ci))
        cols = gen.integers(0, group.order, size=(m, system.arity), dtype=np.int64).T
        ok = np.ones(m, dtype=bool)
        for key, code, table in tests:
            if isinstance(key, int):
                w = cols[key]  # a lone variable is its own index
            else:
                w = code.index([(c, cols[i]) for i, c in enumerate(key) if c])
            ok &= table[w]
        return int(ok.sum())

    def run(first: int) -> int:
        return sum(hits_of(ci) for ci in range(first, chunks, workers))

    # worker 0 is the calling thread: a pool thread's malloc arena keeps memory
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rest = pool.map(run, range(1, workers))
        hits = run(0) + sum(rest)
    return hits / samples, radius


def eval_quantum(
    q: QuantumSystem,
    subset: GroupSubset,
    fixed: Sequence[GroupElement] = (),
    *,
    budget: int | None = None,
) -> Fraction:
    """sum over terms of coeff * product of factor densities, exact.

    Factors evaluate independently (fresh variables per factor), each with
    its first variables pinned to `fixed`; a repeated factor is evaluated once.
    """
    return quantum_sum_rows(q, subset, prefix_row(subset, fixed), budget=budget)


def quantum_sum_rows(
    q: QuantumSystem,
    subset: GroupSubset,
    prefixes: np.ndarray,
    *,
    budget: int | None = None,
) -> Fraction:
    """The sum over the rows of a (rows, nfix) prefix matrix of `q` with the
    first variables of every factor pinned to the row, exact.

    Each distinct factor is counted by one `count_rows` call over all rows,
    and a term sums the products of its factors' count columns; with no
    rows nothing is counted and the sum is 0.
    """
    rows, nfix = prefixes.shape
    if not rows:
        return Fraction(0)
    order = subset.group.order
    counts = {  # Python integers, so the products are exact
        factor: count_rows(factor, subset, prefixes, budget=budget).astype(object)
        for factor in dict.fromkeys(f for _, factors in q.terms for f in factors)
    }
    total = Fraction(0)
    for coeff, factors in q.terms:
        num = np.ones(rows, dtype=object)
        for factor in factors:
            num = num * counts[factor]
        den = math.prod(order ** (factor.arity - nfix) for factor in factors)
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
    if idx > 1 << 20:  # a form's coefficient vector is dense up to its last variable
        raise sc.error("variable indices stop at 1048576", pos)
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
    return signed_sum(
        [
            f"g{i + 1}" if c == 1 else f"-g{i + 1}" if c == -1 else f"{c}*g{i + 1}"
            for i, c in enumerate(coefficients)
            if c
        ]
    )


def format_form(form: LinearForm) -> str:
    body = _format_sum(form.coefficients)
    return f"!({body})" if form.negated else body


@functools.lru_cache(maxsize=256)
def format_system(system: LinearSystem) -> str:
    """Cached like `_plan`: a `reduce` report repeats its few systems."""
    return "[" + "; ".join(format_form(f) for f in system.forms) + "]"


def format_quantum(q: QuantumSystem) -> str:
    terms = []
    for coeff, factors in q.terms:
        body = "*".join(format_system(f) for f in factors)
        terms.append(f"{coeff}*{body}" if body else str(coeff))
    return signed_sum(terms)
