"""Sparse multivariate integer polynomials and the polynomial transforms used
by the reduction pipeline: clearing denominators into the v/e/t layout,
inverting variables against S = {1/n}, and the penalty construction with its
certified derivative-bound constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from ._scan import Scanner
from .errors import ParseError

_LETTER_ORDER = {"x": 0, "y": 1, "v": 2, "e": 3, "t": 4}


def _var_key(name: str) -> tuple[int, int]:
    return (_LETTER_ORDER[name[0]], int(name[1:]))


def _check_var_name(name: str) -> str:
    if (
        len(name) < 2
        or name[0] not in _LETTER_ORDER
        or not name[1:].isdigit()
        or int(name[1:]) < 1
    ):
        raise ValueError(f"bad variable name {name!r}; use x1, y2, v1, e3, t1, ...")
    return name


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial stored as {exponent vector: nonzero coefficient}.

    Immutable; arithmetic between polynomials over different variable lists
    first merges the lists (letter order x, y, v, e, t, then index).
    """

    varnames: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        for name in self.varnames:
            _check_var_name(name)
        for exps, coeff in self.terms:
            if coeff == 0:
                raise ValueError("zero coefficients must not be stored")
            if len(exps) != len(self.varnames):
                raise ValueError("exponent vector length must match variables")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")

    @classmethod
    def from_dict(
        cls, varnames: Sequence[str], terms: Mapping[tuple[int, ...], int]
    ) -> "IntPolynomial":
        clean = {e: int(c) for e, c in terms.items() if c != 0}
        ordered = sorted(
            clean.items(), key=lambda item: (-sum(item[0]), tuple(-e for e in item[0]))
        )
        return cls(tuple(varnames), tuple(ordered))

    @classmethod
    def zero(cls, varnames: Sequence[str] = ()) -> "IntPolynomial":
        return cls.from_dict(varnames, {})

    @classmethod
    def constant(cls, c: int, varnames: Sequence[str] = ()) -> "IntPolynomial":
        return cls.from_dict(varnames, {(0,) * len(varnames): int(c)})

    @classmethod
    def variable(cls, name: str, varnames: Sequence[str] | None = None) -> "IntPolynomial":
        names = (name,) if varnames is None else tuple(varnames)
        exps = tuple(1 if v == name else 0 for v in names)
        if name not in names:
            raise ValueError(f"{name!r} not among {names}")
        return cls.from_dict(names, {exps: 1})

    def term_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def degree(self) -> int:
        """Max total degree; 0 for the zero polynomial."""
        return max((sum(e) for e, _ in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def with_variables(self, varnames: Sequence[str]) -> "IntPolynomial":
        """Re-express over a superset of the variables."""
        names = tuple(varnames)
        pos = {}
        for v in self.varnames:
            if v not in names:
                raise ValueError(f"target variable list lacks {v!r}")
            pos[v] = names.index(v)
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms:
            vec = [0] * len(names)
            for v, e in zip(self.varnames, exps):
                vec[pos[v]] = e
            out[tuple(vec)] = out.get(tuple(vec), 0) + coeff
        return IntPolynomial.from_dict(names, out)

    def _aligned(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        if self.varnames == other.varnames:
            return self, other
        merged = tuple(sorted(set(self.varnames) | set(other.varnames), key=_var_key))
        return self.with_variables(merged), other.with_variables(merged)

    def __add__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial.constant(other, self.varnames)
        a, b = self._aligned(other)
        out = a.term_dict()
        for exps, coeff in b.terms:
            out[exps] = out.get(exps, 0) + coeff
        return IntPolynomial.from_dict(a.varnames, out)

    def __radd__(self, other) -> "IntPolynomial":
        return self + other

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial.from_dict(self.varnames, {e: -c for e, c in self.terms})

    def __sub__(self, other) -> "IntPolynomial":
        return self + (-other if isinstance(other, IntPolynomial) else -int(other))

    def __rsub__(self, other) -> "IntPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial.from_dict(
                self.varnames, {e: c * other for e, c in self.terms}
            )
        a, b = self._aligned(other)
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in a.terms:
            for eb, cb in b.terms:
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return IntPolynomial.from_dict(a.varnames, out)

    def __rmul__(self, other) -> "IntPolynomial":
        return self * other

    def __pow__(self, n: int) -> "IntPolynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = IntPolynomial.constant(1, self.varnames)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        return format_poly(self)


def poly_eval(p: IntPolynomial, point: Sequence) -> Fraction:
    """Exact value at a point of rationals (or ints)."""
    if len(point) != len(p.varnames):
        raise ValueError(
            f"point has {len(point)} coordinates, polynomial has {len(p.varnames)} variables"
        )
    values = [Fraction(v) for v in point]
    total = Fraction(0)
    for exps, coeff in p.terms:
        term = Fraction(coeff)
        for v, e in zip(values, exps):
            if e:
                term *= v**e
        total += term
    return total


def partial_derivative(p: IntPolynomial, var: str) -> IntPolynomial:
    """Formal derivative with respect to a named variable."""
    if var not in p.varnames:
        raise ValueError(f"unknown variable {var!r}")
    pos = p.varnames.index(var)
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in p.terms:
        e = exps[pos]
        if e == 0:
            continue
        new = list(exps)
        new[pos] = e - 1
        key = tuple(new)
        out[key] = out.get(key, 0) + coeff * e
    return IntPolynomial.from_dict(p.varnames, out)


def substitute(p: IntPolynomial, assignments: Mapping[str, IntPolynomial]) -> IntPolynomial:
    """Symbolic substitution of polynomials for variables."""
    merged_names = set(p.varnames) - set(assignments)
    for q in assignments.values():
        merged_names |= set(q.varnames)
    names = tuple(sorted(merged_names, key=_var_key)) or ("x1",)
    total = IntPolynomial.zero(names)
    for exps, coeff in p.terms:
        term = IntPolynomial.constant(coeff, names)
        for v, e in zip(p.varnames, exps):
            if not e:
                continue
            repl = assignments.get(v)
            if repl is None:
                factor = IntPolynomial.variable(v, names)
            else:
                factor = repl.with_variables(names)
            term = term * factor**e
        total = total + term
    return total


def sup_bound_unit_box(p: IntPolynomial) -> int:
    """Certified upper bound for sup |p| over [0,1]^k: sum of |coefficients|."""
    return sum(abs(c) for _, c in p.terms)


def grid_sup_unit_box(p: IntPolynomial, steps: int = 10) -> Fraction:
    """Grid estimate of sup |p| over [0,1]^k (a lower bound on the true sup)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    k = len(p.varnames)
    best = Fraction(0)
    point = [Fraction(0)] * k
    def rec(i: int):
        nonlocal best
        if i == k:
            value = abs(poly_eval(p, point))
            if value > best:
                best = value
            return
        for s in range(steps + 1):
            point[i] = Fraction(s, steps)
            rec(i + 1)
    rec(0)
    return best


def _xy_layout(k: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, k + 1)) + tuple(
        f"y{i}" for i in range(1, k + 1)
    )


def ensure_xy_layout(q: IntPolynomial, k: int) -> IntPolynomial:
    """View q over exactly x1..xk, y1..yk; unused variables are fine."""
    layout = _xy_layout(k)
    extra = set(q.varnames) - set(layout)
    if extra:
        raise ValueError(f"variables {sorted(extra)} are outside x1..x{k}, y1..y{k}")
    return q.with_variables(layout)


def transform_qstar(q: IntPolynomial, k: int) -> IntPolynomial:
    """Clear denominators of q(e_j / v_j^2, t_j / v_j^3) by the factor
    prod_j v_j^(3 deg q), yielding an integer polynomial over v/e/t."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q = ensure_xy_layout(q, k)
    d = q.degree()
    out_names = (
        tuple(f"v{i}" for i in range(1, k + 1))
        + tuple(f"e{i}" for i in range(1, k + 1))
        + tuple(f"t{i}" for i in range(1, k + 1))
    )
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in q.terms:
        a = exps[:k]
        b = exps[k:]
        vec = [0] * (3 * k)
        for j in range(k):
            vec[j] = 3 * d - 2 * a[j] - 3 * b[j]
            vec[k + j] = a[j]
            vec[2 * k + j] = b[j]
        key = tuple(vec)
        out[key] = out.get(key, 0) + coeff
    return IntPolynomial.from_dict(out_names, out)


def transform_p_from_q(q: IntPolynomial) -> IntPolynomial:
    """Multiply q(1/x_1, ..., 1/x_k) by prod x_i^(deg q) to clear denominators."""
    if any(not name.startswith("x") for name in q.varnames):
        raise ValueError("expected a polynomial in x-variables only")
    d = q.degree()
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in q.terms:
        key = tuple(d - e for e in exps)
        out[key] = out.get(key, 0) + coeff
    return IntPolynomial.from_dict(q.varnames, out)


def _penalty_constant(p: IntPolynomial) -> tuple[int, int, int]:
    """(B1, B2, M): certified sup bounds over [0,1]^k of the first and pure
    second partials of p, and M = max(1, 30*B1, 3*B2)."""
    b1 = b2 = 0
    for name in p.varnames:
        d1 = partial_derivative(p, name)
        b1 = max(b1, sup_bound_unit_box(d1))
        b2 = max(b2, sup_bound_unit_box(partial_derivative(d1, name)))
    return b1, b2, max(1, 30 * b1, 3 * b2)


def transform_q_from_p(p: IntPolynomial) -> tuple[IntPolynomial, int]:
    """Penalty construction: q(x, y) = p(x) + M * sum_i (x_i^3 - y_i), with
    M from `_penalty_constant`."""
    if any(not name.startswith("x") for name in p.varnames):
        raise ValueError("expected a polynomial in x-variables only")
    m = _penalty_constant(p)[2]
    indices = [int(name[1:]) for name in p.varnames]
    names = tuple(p.varnames) + tuple(f"y{i}" for i in indices)
    q = p.with_variables(names)
    for i, name in zip(indices, p.varnames):
        x = IntPolynomial.variable(name, names)
        y = IntPolynomial.variable(f"y{i}", names)
        q = q + m * (x**3 - y)
    return q, m


def penalty_constant_report(p: IntPolynomial, steps: int = 10) -> dict:
    """Certified bounds used for M next to grid estimates of the true sups."""
    cert1, cert2, m = _penalty_constant(p)
    grid1 = grid2 = Fraction(0)
    for name in p.varnames:
        d1 = partial_derivative(p, name)
        grid1 = max(grid1, grid_sup_unit_box(d1, steps))
        grid2 = max(grid2, grid_sup_unit_box(partial_derivative(d1, name), steps))
    return {
        "certified_first_partial_bound": cert1,
        "certified_second_partial_bound": cert2,
        "grid_first_partial_sup": grid1,
        "grid_second_partial_sup": grid2,
        "M": m,
    }


# Text format.


def _parse_factor(sc: Scanner) -> IntPolynomial:
    sc.skip_ws()
    if sc.match("("):
        inner = _parse_expr(sc)
        sc.expect(")")
        base = inner
    else:
        c = sc.match_int()
        if c is not None:
            base = IntPolynomial.constant(c)
        else:
            pos = sc.pos
            ch = sc.peek()
            if ch not in _LETTER_ORDER:
                raise sc.error("expected a number, variable, or '('")
            sc.pos += 1
            idx = sc.expect_int("variable index")
            if idx < 1:
                raise sc.error("variable indices start at 1", pos)
            base = IntPolynomial.variable(f"{ch}{idx}")
    if sc.match("^"):
        power = sc.expect_int("exponent")
        base = base**power
    return base


def _starts_factor(sc: Scanner) -> bool:
    ch = sc.peek()
    return ch == "(" or ch in _LETTER_ORDER


def _parse_term(sc: Scanner) -> IntPolynomial:
    result = _parse_factor(sc)
    while True:
        if sc.match("*"):
            result = result * _parse_factor(sc)
        elif _starts_factor(sc):
            result = result * _parse_factor(sc)
        else:
            return result


def _parse_expr(sc: Scanner) -> IntPolynomial:
    sign = -1 if sc.match("-") else 1
    result = _parse_term(sc) * sign
    while True:
        if sc.match("+"):
            result = result + _parse_term(sc)
        elif sc.match("-"):
            result = result - _parse_term(sc)
        else:
            return result


def parse_poly(text: str, varnames: Sequence[str] | None = None) -> IntPolynomial:
    """Parse infix text like "x1^2 - y1" or "2x1x2 - 3*(x1 + 1)".

    With `varnames` given, the result is re-expressed over that list (which
    must cover every variable in the text); otherwise the variables found are
    ordered x < y < v < e < t, then by index.
    """
    sc = Scanner(text)
    result = _parse_expr(sc)
    sc.expect_eof()
    if varnames is not None:
        try:
            return result.with_variables(tuple(varnames))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if not result.varnames:
        return result
    ordered = tuple(sorted(result.varnames, key=_var_key))
    return result.with_variables(ordered)


def format_poly(p: IntPolynomial) -> str:
    """Canonical form: terms in graded-lex order, explicit '*' and '^'."""
    if not p.terms:
        return "0"
    chunks = []
    for exps, coeff in p.terms:
        factors = []
        for name, e in zip(p.varnames, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if factors:
            body = "*".join(factors)
            if mag != 1:
                body = f"{mag}*{body}"
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks)
