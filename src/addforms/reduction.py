"""The polynomial-to-linear-forms reduction pipeline and its verifiers.

Builders assemble, for arity k, the anchored form family L (one excluded
multiple of g1 plus all dilates p*(gj - j*g1)), its extension M with the
variables themselves, the substituted families V_j / E_j / T_j over extra
slot variables, and the quantum combination psi matching a cleared input
polynomial.  Verifiers exhaustively confirm the pin-down property, the
vertex/edge/triangle density identities against directed difference graphs,
and the explicit product-group witness.

Variable layout everywhere: the k original variables first, then the slot
variables z, z', z'' as needed (V_j has k+1 variables, E_j k+2, T_j k+3).
"""

from __future__ import annotations

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
# System builders.


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


def build_M(k: int) -> LinearSystem:
    """L plus the k singleton forms g1, ..., gk."""
    base = build_L(k)
    singles = []
    for j in range(k):
        coeffs = [0] * k
        coeffs[j] = 1
        singles.append(LinearForm(k, tuple(coeffs)))
    return LinearSystem(k, base.forms + tuple(singles))


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


def build_V(k: int, j: int) -> LinearSystem:
    """The point: M over g plus L with slot z substituted for gj."""
    return _slot_system(k, j, 1, ())


def build_E(k: int, j: int) -> LinearSystem:
    """The edge z -> z' on top of V_j: counts ordered pairs of slot values."""
    return _slot_system(k, j, 2, ((0, 1),))


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
    terms = []
    for exps, coeff in qstar.terms:
        factors: list[LinearSystem] = []
        for j in range(k):
            factors.extend([vs[j]] * exps[j])
        for j in range(k):
            factors.extend([es[j]] * exps[k + j])
        for j in range(k):
            factors.extend([ts[j]] * exps[2 * k + j])
        terms.append((coeff, tuple(factors)))
    return ReductionBundle(
        k=k,
        q=qq,
        qstar=qstar,
        L=build_L(k),
        M=build_M(k),
        V=vs,
        E=es,
        T=ts,
        psi=QuantumSystem(tuple(terms)),
    )


def bundle_from_dict(data: dict) -> ReductionBundle:
    """Rebuild a bundle from its serialized form (systems are re-derived from
    (q, k) and checked against the stored strings)."""
    k = int(data["k"])
    q = poly.parse_poly(data["q"])
    bundle = build_psi(q, k)
    stored = data.get("systems")
    if stored is not None:
        rebuilt = bundle.to_dict()["systems"]
        if stored != rebuilt:
            raise ValueError("stored systems disagree with the rebuilt bundle")
    return bundle


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


def graph_densities(u: DirectedCayleyGraph) -> tuple[Fraction, Fraction]:
    """Ordered pair and ordered 3-cycle densities, exact.

    k2 counts (b1, b2) with b1 - b2 in C over |B|^2; k3 counts (b1, b2, b3)
    with b1 - b2, b2 - b3, b3 - b1 all in C over |B|^3.
    """
    b = u.vertices
    if b.size == 0:
        raise ValueError("empty vertex set")
    bi = b.indices()
    edges = u.connection.bits[b.group.combine(((1, bi[:, None]), (-1, bi[None, :])))]
    m = b.size
    k2 = Fraction(int(edges.sum()), m * m)
    em = edges.astype(np.int64)
    k3 = Fraction(int(np.trace(em @ em @ em)), m**3)
    return k2, k3


def compute_B_C(
    a: GroupSubset, g: Sequence[GroupElement], j: int, *, budget: int | None = None
) -> tuple[GroupSubset, GroupSubset]:
    """B = slot values z with V_j(g, z) inside A; C = (B intersect A) - gj."""
    k = len(g)
    if not 1 <= j <= k:
        raise ValueError(f"j must be in 1..{k}")
    group = a.group
    v = build_V(k, j)
    zs = linform.enumerate_satisfying(v, a, fixed=tuple(g), budget=budget)
    b = GroupSubset.from_elements(group, [row[0] for row in zs])
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
    threads: int = 1,
) -> HomdensityReport:
    """Check, exactly, that the graph pair/3-cycle densities equal the
    conditional form densities t(E_j)/t(V_j)^2 and t(T_j)/t(V_j)^3."""
    k = len(g)
    group = a.group
    gt = tuple(g)
    meta = dict(group=group.literal(), j=j, g=tuple(e.residues for e in gt))
    t_m = linform.eval_density_fixed(build_M(k), a, gt, budget=budget, threads=threads)
    if t_m == 0:
        return HomdensityReport(vacuous=True, **meta)
    t_v = linform.eval_density_fixed(build_V(k, j), a, gt, budget=budget, threads=threads)
    if t_v == 0:
        return HomdensityReport(vacuous=True, **meta)
    t_e = linform.eval_density_fixed(build_E(k, j), a, gt, budget=budget, threads=threads)
    t_t = linform.eval_density_fixed(build_T(k, j), a, gt, budget=budget, threads=threads)
    b, c = compute_B_C(a, gt, j, budget=budget)
    k2, k3 = graph_densities(DirectedCayleyGraph(b, c))
    return HomdensityReport(
        vacuous=False,
        b_size=b.size,
        k2_graph=k2,
        k2_forms=t_e / t_v**2,
        k3_graph=k3,
        k3_forms=t_t / t_v**3,
        **meta,
    )


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

    def h_class(self, gj: GroupElement, j: int) -> int:
        """The j-th coordinate of the H-part of gj (drives the 3-cycle count)."""
        return gj.residues[j]

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


def build_witness(
    k: int, n: Sequence[int], *, max_order: int | None = None
) -> WitnessSpec:
    """A = union over j = 0..k of {j} x (H minus H_j), with H_0 empty so the
    j = 0 slice is all of {0} x H, and H_j the j-th coordinate subgroup."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = tuple(int(v) for v in n)
    if len(n) != k or any(v < 2 for v in n):
        raise ValueError("need k slice moduli, each >= 2")
    group = FiniteAbelianGroup(((k + 1) ** 2,) + n, max_order=max_order)
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


def verify_witness(
    spec: WitnessSpec, *, budget: int | None = None, threads: int = 1
) -> WitnessReport:
    """For every g with M(g) inside A: assert B_j = {j} x H and the exact
    pair density 1 - 1/n_j; measure the 3-cycle density per coordinate class
    and record it against the closed form 2x^2 - x."""
    a = spec.subset
    m = build_M(spec.k)
    good = linform.enumerate_satisfying(m, a, budget=budget, threads=threads)
    b_violations: list[str] = []
    k2_violations: list[str] = []
    seen: dict[tuple[int, int], dict] = {}
    for g in good:
        for j in range(1, spec.k + 1):
            b, c = compute_B_C(a, g, j, budget=budget)
            if b != spec.expected_B(j):
                b_violations.append(f"B_{j} mismatch at g={[e.residues for e in g]}")
                continue
            k2, k3 = graph_densities(DirectedCayleyGraph(b, c))
            x = 1 - Fraction(1, spec.n[j - 1])
            if k2 != x:
                k2_violations.append(
                    f"k2={k2} != {x} at g={[e.residues for e in g]}, j={j}"
                )
            key = (j, spec.h_class(g[j - 1], j))
            stat = seen.get(key)
            if stat is None:
                seen[key] = {"count": 1, "k2": k2, "k3": k3}
            else:
                stat["count"] += 1
                if stat["k3"] != k3 or stat["k2"] != k2:
                    b_violations.append(
                        f"inconsistent densities within class {key}"
                    )
    classes = []
    for (j, h_class), stat in sorted(seen.items()):
        x = 1 - Fraction(1, spec.n[j - 1])
        classes.append(
            WitnessClassStat(
                j=j,
                h_class=h_class,
                count=stat["count"],
                k2=stat["k2"],
                k3_measured=stat["k3"],
                k3_claimed=2 * x**2 - x,
            )
        )
    return WitnessReport(
        spec=spec,
        good_g_count=len(good),
        b_violations=tuple(b_violations),
        k2_violations=tuple(k2_violations),
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
            "violations": len(self.violations),
            "violation_details": list(self.violations),
            "ok": self.ok,
        }


def verify_pinpoint(
    k: int, *, budget: int | None = None, threads: int = 1
) -> PinpointReport:
    """Exhaustively confirm over Z_{(k+1)^2} with S = {0..k}: every g with
    L(g) in S has gj = j*g1 and gj != 0; every g with M(g) in S has gj = j."""
    if k < 2:
        raise ValueError("k must be >= 2")
    modulus = (k + 1) ** 2
    group = FiniteAbelianGroup([modulus])
    s = GroupSubset.from_indices(group, range(k + 1))
    violations: list[str] = []
    sat_l = linform.enumerate_satisfying(build_L(k), s, budget=budget, threads=threads)
    for g in sat_l:
        g1 = g[0].residues[0]
        for j in range(1, k + 1):
            gj = g[j - 1].residues[0]
            if gj != (j * g1) % modulus:
                violations.append(f"L: g={[e.residues[0] for e in g]} has g{j} != {j}*g1")
            if gj == 0:
                violations.append(f"L: g={[e.residues[0] for e in g]} has g{j} = 0")
    sat_m = linform.enumerate_satisfying(build_M(k), s, budget=budget, threads=threads)
    for g in sat_m:
        for j in range(1, k + 1):
            if g[j - 1].residues[0] != j:
                violations.append(f"M: g={[e.residues[0] for e in g]} has g{j} != {j}")
    return PinpointReport(
        k=k,
        modulus=modulus,
        checked=group.order**k,
        l_satisfying=len(sat_l),
        m_satisfying=len(sat_m),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Evaluating the assembled quantum combination.


def eval_reduction_shared_g(
    bundle: ReductionBundle,
    a: GroupSubset,
    *,
    budget: int | None = None,
    threads: int = 1,
) -> Fraction:
    """Average over all g of psi with the k base variables pinned to g in
    every factor; every factor contains the M forms, so only g with M(g)
    inside A contribute beyond constant terms."""
    const = sum(coeff for coeff, factors in bundle.psi.terms if not factors)
    nonconst = QuantumSystem(tuple((c, f) for c, f in bundle.psi.terms if f))
    total = Fraction(0)
    if nonconst.terms:
        for g in linform.enumerate_satisfying(bundle.M, a, budget=budget, threads=threads):
            total += linform.eval_quantum(nonconst, a, g, budget=budget, threads=threads)
    return const + total / a.group.order**bundle.k
