"""The polynomial-to-linear-forms reduction pipeline and its verifiers.

Builders assemble, for arity k, the anchored form family L (one excluded
multiple of g1 plus all dilates p*(gj - j*g1)), its extension M with the
variables themselves, the substituted families V_j / E_j / T_j over extra
slot variables, and the quantum combination psi matching a cleared input
polynomial.  Verifiers exhaustively confirm the pin-down property, the
vertex/edge/triangle density identities against directed difference graphs,
and the explicit product-group witness; `_graph_counts` counts the
difference graphs through `linform._stack_counts`, with the group's
`sum_code` indexing its gather as it does the engine's.

Variable layout everywhere: the k original variables first, then the slot
variables z, z', z'' as needed (V_j has k+1 variables, E_j k+2, T_j k+3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .abelian import FiniteAbelianGroup, GroupElement, GroupSubset
from .errors import GroupMismatchError
from . import linform
from .linform import LinearForm, LinearSystem, QuantumSystem
from . import polynomial as poly
from .polynomial import IntPolynomial
from .report import rational_json


# ---------------------------------------------------------------------------
# System builders.  They are pure and their systems immutable, so each
# (k, j) is built once per process.


@functools.cache
def build_L(k: int) -> LinearSystem:
    """One negated form (k+1)*g1 plus the dilates p*(gj - j*g1) for
    p = 1..k+2, j = 2..k; exactly 1 + (k+2)(k-1) forms."""
    if k < 1:
        raise ValueError("k must be >= 1")
    forms = [LinearForm(k, ((k + 1),) + (0,) * (k - 1), negated=True)]
    for p in range(1, k + 3):
        for j in range(2, k + 1):
            coeffs = [0] * k
            coeffs[0] = -p * j
            coeffs[j - 1] = p
            forms.append(LinearForm(k, tuple(coeffs)))
    return LinearSystem(k, tuple(forms))


@functools.cache
def build_M(k: int) -> LinearSystem:
    """L plus the k singleton forms g1, ..., gk."""
    singles = tuple(LinearForm(k, tuple(int(i == j) for i in range(k))) for j in range(k))
    return LinearSystem(k, build_L(k).forms + singles)


def _substituted_L(k: int, j: int, combo: dict[int, int], arity: int) -> tuple[LinearForm, ...]:
    """L's forms with variable j-1 replaced by an integer combination of
    variables (combo maps variable index -> weight), over `arity` variables."""
    out = []
    for f in build_L(k).forms:
        coeffs = [0] * arity
        for i, c in enumerate(f.coefficients):
            if c == 0:
                continue
            if i == j - 1:
                for var, w in combo.items():
                    coeffs[var] += c * w
            else:
                coeffs[i] += c
        out.append(LinearForm(arity, tuple(coeffs), f.negated))
    return tuple(out)


def _slot_system(
    k: int, j: int, slots: int, edges: tuple[tuple[int, int], ...]
) -> LinearSystem:
    """M over g, then L with each slot z substituted for gj, then for each
    edge (a, b) of the slot graph L substituted at gj + z_a - z_b and that
    singleton form; slot s is variable k + s, so k + `slots` variables."""
    if not 1 <= j <= k:
        raise ValueError(f"j must be in 1..{k}")
    arity = k + slots
    forms = tuple(f.embedded(arity) for f in build_M(k).forms)
    for z in range(k, arity):
        forms += _substituted_L(k, j, {z: 1}, arity)
    for a, b in edges:
        w = {j - 1: 1, k + a: 1, k + b: -1}
        edge = LinearForm(arity, tuple(w.get(i, 0) for i in range(arity)))
        forms += _substituted_L(k, j, w, arity) + (edge,)
    return LinearSystem(arity, forms)


@functools.cache
def build_V(k: int, j: int) -> LinearSystem:
    """The point: M over g plus L with slot z substituted for gj."""
    return _slot_system(k, j, 1, ())


@functools.cache
def build_E(k: int, j: int) -> LinearSystem:
    """The edge z -> z' on top of V_j: counts ordered pairs of slot values."""
    return _slot_system(k, j, 2, ((0, 1),))


@functools.cache
def build_T(k: int, j: int) -> LinearSystem:
    """The directed triangle z -> z' -> z'' -> z on top of V_j."""
    return _slot_system(k, j, 3, ((0, 1), (1, 2), (2, 0)))


# ---------------------------------------------------------------------------
# Bundle: the assembled artifacts for one input polynomial.


@dataclass(frozen=True)
class ReductionBundle:
    """Everything derived from (q, k): the cleared polynomial, the system
    families, and the quantum combination psi."""

    k: int
    q: IntPolynomial
    qstar: IntPolynomial
    L: LinearSystem
    M: LinearSystem
    V: tuple[LinearSystem, ...]
    E: tuple[LinearSystem, ...]
    T: tuple[LinearSystem, ...]
    psi: QuantumSystem

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "q": poly.format_poly(self.q),
            "qstar": poly.format_poly(self.qstar),
            "systems": {
                "L": linform.format_system(self.L),
                "M": linform.format_system(self.M),
                "V": [linform.format_system(s) for s in self.V],
                "E": [linform.format_system(s) for s in self.E],
                "T": [linform.format_system(s) for s in self.T],
            },
            "psi": linform.format_quantum(self.psi),
        }


def build_psi(q: IntPolynomial, k: int) -> ReductionBundle:
    """Expand each cleared monomial coeff * v^a e^b t^c into a quantum term
    with a copies of V_j, b of E_j, c of T_j; constants stay coefficient-only."""
    qq = poly.ensure_xy_layout(q, k)
    qstar = poly.transform_qstar(qq, k)
    vs = tuple(build_V(k, j) for j in range(1, k + 1))
    es = tuple(build_E(k, j) for j in range(1, k + 1))
    ts = tuple(build_T(k, j) for j in range(1, k + 1))
    # a monomial's exponents are those of v_1..v_k, e_1..e_k, t_1..t_k
    terms = tuple(
        (coeff, tuple(s for s, e in zip(vs + es + ts, exps) for _ in range(e)))
        for exps, coeff in qstar.terms
    )
    return ReductionBundle(
        k=k,
        q=qq,
        qstar=qstar,
        L=build_L(k),
        M=build_M(k),
        V=vs,
        E=es,
        T=ts,
        psi=QuantumSystem(terms),
    )


# ---------------------------------------------------------------------------
# Directed difference graphs and density identities.


@dataclass(frozen=True)
class DirectedCayleyGraph:
    """Directed graph on a vertex subset B with edge b1 -> b2 iff b1 - b2
    lies in the connection subset C.  Loops are allowed (0 in C)."""

    vertices: GroupSubset
    connection: GroupSubset

    def __post_init__(self):
        if self.vertices.group != self.connection.group:
            raise GroupMismatchError("vertex and connection sets mix groups")

    def has_edge(self, b1: GroupElement, b2: GroupElement) -> bool:
        return (
            self.vertices.contains(b1)
            and self.vertices.contains(b2)
            and self.connection.contains(b1 - b2)
        )


# the links of the 3-cycle b1 -> b2 -> b3 -> b1: edge (p, q) at b_p - b_q
_CYCLE = ((0, 1, ((1, -1, 0),)), (1, 2, ((0, 1, -1),)), (2, 0, ((-1, 0, 1),)))


def _graph_counts(group, vertex_rows, connection_rows, shifts) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pair and directed 3-cycle counts, int64 per shift s_i, of the
    graph on B_i with b1 -> b2 iff t_i(b1 - b2) = C_i(b1 - b2 + s_i) holds,
    B_i and C_i rows of the boolean (rows or 1, |G|) `vertex_rows` and
    `connection_rows`: `linform._stack_counts` of the same dicts, t_i on the
    edges and B_i as unaries, for `_CYCLE`'s first edge (pairs) and all of it.
    t is gathered at x + s_i by the group's two-term `sum_code`."""
    code, every = group.sum_code(2), np.arange(group.order, dtype=np.int64)
    shifted = code.index([(1, every[None, :]), (1, shifts[:, None])])
    t = np.take_along_axis(code.ready(connection_rows), shifted, axis=1)
    b = np.broadcast_to(vertex_rows, t.shape)
    unary, tables = {0: b, 1: b, 2: b}, {d: t for _, _, (d,) in _CYCLE}
    pairs = linform._stack_counts(group, _CYCLE[:1], unary, tables, len(t), False)
    return pairs, linform._stack_counts(group, _CYCLE, unary, tables, len(t), False)


def graph_densities(u: DirectedCayleyGraph) -> tuple[Fraction, Fraction]:
    """Ordered pair and ordered 3-cycle densities, exact.

    k2 counts (b1, b2) with b1 - b2 in C over |B|^2; k3 counts (b1, b2, b3)
    with b1 - b2, b2 - b3, b3 - b1 all in C over |B|^3.
    """
    b, m = u.vertices, u.vertices.size
    if m == 0:
        raise ValueError("empty vertex set")
    one = np.zeros(1, dtype=np.int64)
    (pairs,), (cycles,) = _graph_counts(b.group, b.bits[None], u.connection.bits[None], one)
    return Fraction(int(pairs), m * m), Fraction(int(cycles), m**3)


def _slot_masks(group, a, g_rows: np.ndarray, j: int, budget) -> np.ndarray:
    """B_j of every row of the (rows, k) index matrix `g_rows`, as a boolean
    (rows, |G|) mask of the slot values z with V_j(g, z) inside A, from one
    `solve_rows` call; `a` is one subset or one per row.  V_j checks j."""
    owner, z = linform.solve_rows(build_V(g_rows.shape[1], j), a, g_rows, budget=budget)
    masks = np.zeros((len(g_rows), group.order), dtype=bool)
    masks[owner, z[:, 0]] = True
    return masks


def compute_B_C(
    a: GroupSubset, g: Sequence[GroupElement], j: int, *, budget: int | None = None
) -> tuple[GroupSubset, GroupSubset]:
    """B = slot values z with V_j(g, z) inside A; C = (B intersect A) - gj."""
    (bits,) = _slot_masks(a.group, a, linform.prefix_row(a, g), j, budget)
    b = GroupSubset(a.group, bits)
    c = (b & a).translate(-g[j - 1])
    return b, c


@dataclass(frozen=True)
class HomdensityReport:
    """Both sides of the pair/3-cycle density identities for one (A, g, j)."""

    group: str
    j: int
    g: tuple[tuple[int, ...], ...]
    vacuous: bool
    b_size: int = 0
    k2_graph: Fraction | None = None
    k2_forms: Fraction | None = None
    k3_graph: Fraction | None = None
    k3_forms: Fraction | None = None

    @property
    def ok(self) -> bool:
        if self.vacuous:
            return True
        return self.k2_graph == self.k2_forms and self.k3_graph == self.k3_forms

    def to_dict(self) -> dict:
        out = {
            "group": self.group,
            "j": self.j,
            "g": [list(r) for r in self.g],
            "vacuous": self.vacuous,
            "ok": self.ok,
        }
        if not self.vacuous:
            out.update(
                b_size=self.b_size,
                k2_graph=rational_json(self.k2_graph),
                k2_forms=rational_json(self.k2_forms),
                k3_graph=rational_json(self.k3_graph),
                k3_forms=rational_json(self.k3_forms),
            )
        return out


def verify_homdensity_identity(
    a: GroupSubset,
    g: Sequence[GroupElement],
    j: int,
    *,
    budget: int | None = None,
) -> HomdensityReport:
    """Check, exactly, that the graph pair/3-cycle densities equal the
    conditional form densities t(E_j)/t(V_j)^2 and t(T_j)/t(V_j)^3.

    The check is vacuous exactly when M(g) fails: V_j holds M's forms over
    g, so B_j is then empty, and when M(g) holds, z = gj lies in B_j."""
    (report,) = verify_homdensity_rows([a], linform.prefix_row(a, g), j, budget=budget)
    return report


def verify_homdensity_rows(
    subsets: Sequence[GroupSubset],
    g_rows: np.ndarray,
    j: int,
    *,
    budget: int | None = None,
) -> list[HomdensityReport]:
    """`verify_homdensity_identity` of A = subsets[i] and g = g_rows[i] for
    every row i of the (rows, k) index matrix `g_rows`, in row order.

    One `solve_rows(V_j)` lists every B_j; for the rows whose B_j is not
    empty, one `count_rows` each of E_j and T_j counts the forms and one
    `_graph_counts` call the graphs, with b1 -> b2 iff b1 - b2 + gj lies in
    B & A, that is, b1 - b2 in C = (B & A) - gj."""
    if not len(subsets):
        return []
    group = subsets[0].group
    g_rows = np.asarray(g_rows, dtype=np.int64)
    k, n = g_rows.shape[1], group.order
    masks = _slot_masks(group, subsets, g_rows, j, budget)
    full = np.flatnonzero(masks.any(axis=1))
    counts = {}
    if full.size:
        some = [subsets[i] for i in full]
        e = linform.count_rows(build_E(k, j), some, g_rows[full], budget=budget)
        t = linform.count_rows(build_T(k, j), some, g_rows[full], budget=budget)
        b = masks[full]
        c = b & np.stack([a.bits for a in some])
        pairs, cycles = _graph_counts(group, b, c, g_rows[full, j - 1])
        counts = dict(zip(full.tolist(), zip(b.sum(axis=1), e, t, pairs, cycles)))
    reports = []
    for i, row in enumerate(g_rows):
        g = tuple(group.from_index(int(x)).residues for x in row)
        meta = dict(group=group.literal(), j=j, g=g)
        if i not in counts:
            reports.append(HomdensityReport(vacuous=True, **meta))
            continue
        m, e_count, t_count, pair_count, cycle_count = map(int, counts[i])
        t_v = Fraction(m, n)
        reports.append(
            HomdensityReport(
                vacuous=False,
                b_size=m,
                k2_graph=Fraction(pair_count, m * m),
                k2_forms=Fraction(e_count, n * n) / t_v**2,
                k3_graph=Fraction(cycle_count, m**3),
                k3_forms=Fraction(t_count, n**3) / t_v**3,
                **meta,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# The explicit witness.


@dataclass(frozen=True)
class WitnessSpec:
    """Product-group witness: G = Z_{(k+1)^2} x Z_{n_1} x ... x Z_{n_k} with
    the subset A built from coordinate-slice complements."""

    k: int
    n: tuple[int, ...]
    group: FiniteAbelianGroup
    subset: GroupSubset

    def expected_B(self, j: int) -> GroupSubset:
        """The slice {j} x H."""
        rt0 = self.group.residue_table(0)
        return GroupSubset(self.group, rt0 == j)

    def to_dict(self, subset_file: str | None = None) -> dict:
        out = {
            "k": self.k,
            "n": list(self.n),
            "group": self.group.literal(),
            "subset_size": self.subset.size,
        }
        if subset_file is not None:
            out["subsetFile"] = subset_file
        return out


def build_witness(k: int, n: Sequence[int]) -> WitnessSpec:
    """A = union over j = 0..k of {j} x (H minus H_j), with H_0 empty so the
    j = 0 slice is all of {0} x H, and H_j the j-th coordinate subgroup.
    Needs k >= 2: L(1) has no dilate to pin B_1 to {1} x H."""
    if k < 2:
        raise ValueError("k must be >= 2")
    n = tuple(int(v) for v in n)
    if len(n) != k or any(v < 2 for v in n):
        raise ValueError("need k slice moduli, each >= 2")
    group = FiniteAbelianGroup(((k + 1) ** 2,) + n)
    rt0 = group.residue_table(0)
    bits = np.array(rt0 == 0)
    for j in range(1, k + 1):
        bits |= (rt0 == j) & (group.residue_table(j) != 0)
    return WitnessSpec(k=k, n=n, group=group, subset=GroupSubset(group, bits))


@dataclass(frozen=True)
class WitnessClassStat:
    """Aggregate over all good g whose gj falls in one coordinate class."""

    j: int
    h_class: int
    count: int
    k2: Fraction
    k3_measured: Fraction
    k3_claimed: Fraction

    @property
    def agree(self) -> bool:
        return self.k3_measured == self.k3_claimed

    def to_dict(self) -> dict:
        return {
            "j": self.j,
            "h_class": self.h_class,
            "count": self.count,
            "k2": rational_json(self.k2),
            "k3_measured": rational_json(self.k3_measured),
            "k3_claimed": rational_json(self.k3_claimed),
            "agree": self.agree,
        }


@dataclass(frozen=True)
class WitnessReport:
    spec: WitnessSpec
    good_g_count: int
    b_violations: tuple[str, ...]
    k2_violations: tuple[str, ...]
    classes: tuple[WitnessClassStat, ...]

    @property
    def ok(self) -> bool:
        """Vertex-set and pair-density checks; 3-cycle values are reported,
        not asserted."""
        return not self.b_violations and not self.k2_violations

    def to_dict(self) -> dict:
        return {
            "witness": self.spec.to_dict(),
            "good_g_count": self.good_g_count,
            "b_violations": list(self.b_violations),
            "k2_violations": list(self.k2_violations),
            "classes": [c.to_dict() for c in self.classes],
            "ok": self.ok,
        }


def _residue_rows(group: FiniteAbelianGroup, row: np.ndarray) -> list[tuple[int, ...]]:
    return [group.from_index(int(i)).residues for i in row]


def verify_witness(
    spec: WitnessSpec, *, budget: int | None = None
) -> WitnessReport:
    """For every g with M(g) inside A: assert B_j = {j} x H and the exact
    pair density 1 - 1/n_j; measure the 3-cycle density per coordinate class
    (the j-th H-coordinate of gj) and record it against the closed form
    2x^2 - x.  All good g are index rows of one matrix: B_j takes one
    `solve_rows` call per j.  C = (B & A) - gj depends on g only through
    gj, so one `_graph_counts` call per j counts a graph per distinct gj."""
    a, group, k = spec.subset, spec.group, spec.k
    _, good = linform.solve_rows(build_M(k), a, linform.prefix_row(a, ()), budget=budget)
    b_events: list[tuple[int, int, str]] = []  # (row, j, message), sorted at the end
    k2_events: list[tuple[int, int, str]] = []
    classes = []
    for j in range(1, k + 1) if len(good) else ():
        masks = _slot_masks(group, a, good, j, budget)
        b = spec.expected_B(j)
        b_ok = (masks == b.bits).all(axis=1)
        for r in np.flatnonzero(~b_ok):
            g = _residue_rows(group, good[r])
            b_events.append((r, j, f"B_{j} mismatch at g={g}"))
        rows = np.flatnonzero(b_ok)
        # C = (B & A) - gj, so b1 -> b2 is an edge iff b1 - b2 + gj lies in B & A
        m = b.size
        gj = good[rows, j - 1]
        shifts, which = np.unique(gj, return_inverse=True)
        pairs, cycles = _graph_counts(group, b.bits[None], (b.bits & a.bits)[None], shifts)
        pairs, cycles = pairs[which], cycles[which]
        x = 1 - Fraction(1, spec.n[j - 1])
        for i in np.flatnonzero(pairs * spec.n[j - 1] != (spec.n[j - 1] - 1) * m * m):
            g = _residue_rows(group, good[rows[i]])
            k2 = Fraction(int(pairs[i]), m * m)
            k2_events.append((rows[i], j, f"k2={k2} != {x} at g={g}, j={j}"))
        h = group.residue_table(j)[gj]
        for h_class in np.unique(h):
            members = np.flatnonzero(h == h_class)
            first = members[0]
            odd = (pairs[members] != pairs[first]) | (cycles[members] != cycles[first])
            key = (j, int(h_class))
            for i in members[odd]:
                b_events.append((rows[i], j, f"inconsistent densities within class {key}"))
            classes.append(
                WitnessClassStat(
                    j=j,
                    h_class=int(h_class),
                    count=members.size,
                    k2=Fraction(int(pairs[first]), m * m),
                    k3_measured=Fraction(int(cycles[first]), m**3),
                    k3_claimed=2 * x**2 - x,
                )
            )
    return WitnessReport(
        spec=spec,
        good_g_count=len(good),
        b_violations=tuple(msg for _, _, msg in sorted(b_events, key=lambda e: e[:2])),
        k2_violations=tuple(msg for _, _, msg in sorted(k2_events, key=lambda e: e[:2])),
        classes=tuple(classes),
    )


# ---------------------------------------------------------------------------
# Pin-down verification.


@dataclass(frozen=True)
class PinpointReport:
    k: int
    modulus: int
    checked: int
    l_satisfying: int
    m_satisfying: int
    gj_zero_hits: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "modulus": self.modulus,
            "checked": self.checked,
            "l_satisfying": self.l_satisfying,
            "m_satisfying": self.m_satisfying,
            "gj_zero_hits": self.gj_zero_hits,
            "violations": len(self.violations),
            "violation_details": list(self.violations),
            "ok": self.ok,
        }


def _solution_set_violations(
    name: str, found: np.ndarray, expected: np.ndarray, why
) -> list[str]:
    """Messages for the rows of `found` missing from `expected` (explained
    by `why(row)`) and for the rows of `expected` missing from `found`."""
    have = {tuple(r) for r in found.tolist()}
    want = {tuple(r) for r in expected.tolist()}
    out = []
    for g in sorted(have - want):
        out.extend(f"{name}: g={list(g)} {reason}" for reason in why(g))
    out.extend(f"{name}: g={list(g)} is not a solution" for g in sorted(want - have))
    return out


def verify_pinpoint(
    k: int, *, budget: int | None = None
) -> PinpointReport:
    """Exhaustively confirm over Z_{(k+1)^2} with S = {0..k}: the g with L(g)
    in S are exactly (g1, 2*g1, ..., k*g1) with g1 not divisible by k + 1, and
    g = (1, ..., k) is the only g with M(g) in S.

    Some L-solutions have a coordinate gj = 0, namely when j*g1 is divisible
    by (k+1)^2 (first at k = 5: g1 = 9, g4 = 36 = 0 in Z36).  M excludes them
    all the same, so these hits are counted, not flagged; the count must
    equal the closed form #{(g1, j) : 2 <= j <= k, g1 not divisible by k + 1,
    j*g1 divisible by (k+1)^2}.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    modulus = (k + 1) ** 2
    group = FiniteAbelianGroup([modulus])
    s = GroupSubset.from_indices(group, range(k + 1))
    none = linform.prefix_row(s, ())
    _, sat_l = linform.solve_rows(build_L(k), s, none, budget=budget)
    _, sat_m = linform.solve_rows(build_M(k), s, none, budget=budget)
    multiples = np.arange(1, k + 1)
    g1 = np.flatnonzero(np.arange(modulus) % (k + 1))
    violations = _solution_set_violations(
        "L",
        sat_l,
        np.outer(g1, multiples) % modulus,
        lambda g: [
            f"has g{j} != {j}*g1" for j in multiples if g[j - 1] != j * g[0] % modulus
        ]
        or [f"has g1 divisible by {k + 1}"],
    )
    hits = int((sat_l == 0).sum())
    closed = sum(1 for x in g1.tolist() for j in range(2, k + 1) if j * x % modulus == 0)
    if hits != closed:
        violations.append(f"L: {hits} coordinates gj = 0, closed form {closed}")
    violations += _solution_set_violations(
        "M",
        sat_m,
        multiples[None, :],
        lambda g: [f"has g{j} != {j}" for j in multiples if g[j - 1] != j],
    )
    return PinpointReport(
        k=k,
        modulus=modulus,
        checked=group.order**k,
        l_satisfying=len(sat_l),
        m_satisfying=len(sat_m),
        gj_zero_hits=hits,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Evaluating the assembled quantum combination.


def eval_reduction_shared_g(
    bundle: ReductionBundle,
    a: GroupSubset,
    *,
    budget: int | None = None,
) -> Fraction:
    """Average over all g of psi with the k base variables pinned to g in
    every factor; every factor contains the M forms, so only g with M(g)
    inside A contribute beyond constant terms."""
    const = sum(coeff for coeff, factors in bundle.psi.terms if not factors)
    nonconst = QuantumSystem(tuple((c, f) for c, f in bundle.psi.terms if f))
    total = Fraction(0)
    if nonconst.terms:
        _, good = linform.solve_rows(bundle.M, a, linform.prefix_row(a, ()), budget=budget)
        total = linform.quantum_sum_rows(nonconst, a, good, budget=budget)
    return const + total / a.group.order**bundle.k
