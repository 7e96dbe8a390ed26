import random
from fractions import Fraction

import pytest

from addforms.errors import ParseError
from addforms.polynomial import (
    IntPolynomial,
    ensure_xy_layout,
    format_poly,
    grid_sup_unit_box,
    parse_poly,
    partial_derivative,
    penalty_constant_report,
    poly_eval,
    substitute,
    sup_bound_unit_box,
    transform_p_from_q,
    transform_q_from_p,
    transform_qstar,
)


def _random_poly(rng, letters, k, max_deg, max_terms=5):
    names = tuple(f"{letter}{i}" for letter in letters for i in range(1, k + 1))
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = [0] * len(names)
        budget = rng.randrange(0, max_deg + 1)
        for _ in range(budget):
            exps[rng.randrange(len(names))] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + rng.randrange(-5, 6)
    return IntPolynomial.from_dict(names, terms)


def test_poly_eval_examples():
    p = parse_poly("x1^2 - y1")
    assert poly_eval(p, (2, 3)) == 1
    q = parse_poly("x1x2 - 3x1^2x2^2")
    assert poly_eval(q, (1, 1)) == -2
    r = parse_poly("5 + x1 - x1")
    assert poly_eval(r, (11,)) == 5
    anything = parse_poly("x1^3 - 2x1 + 7")
    assert poly_eval(anything, (0,)) == 7


def test_poly_eval_rational_points():
    p = parse_poly("2x1^2x2 - x2 + 1")
    value = poly_eval(p, (Fraction(1, 2), Fraction(3, 4)))
    assert value == 2 * Fraction(1, 4) * Fraction(3, 4) - Fraction(3, 4) + 1


def test_partial_derivative_examples():
    assert format_poly(partial_derivative(parse_poly("x1^3"), "x1")) == "3*x1^2"
    assert partial_derivative(parse_poly("y1", ["x1", "y1"]), "x1").is_zero()
    d = partial_derivative(parse_poly("x1^2x2 - x1"), "x1")
    assert d == parse_poly("2x1x2 - 1")
    with pytest.raises(ValueError):
        partial_derivative(parse_poly("x1"), "x9")


def test_sup_bound_examples():
    assert sup_bound_unit_box(parse_poly("2x1 - 3x2")) == 5
    assert sup_bound_unit_box(parse_poly("7")) == 7
    assert sup_bound_unit_box(parse_poly("x1^2x2")) == 1


def test_grid_sup_below_certified_bound():
    rng = random.Random(12)
    for _ in range(10):
        p = _random_poly(rng, "x", 2, 3)
        assert grid_sup_unit_box(p, steps=6) <= sup_bound_unit_box(p)


def test_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(15):
        a = _random_poly(rng, "xy", 2, 3)
        b = _random_poly(rng, "xy", 2, 3)
        c = _random_poly(rng, "xy", 2, 3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        point = tuple(Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in a.varnames)
        assert poly_eval(a * b, point) == poly_eval(a, point) * poly_eval(b, point)


def test_degree_conventions():
    assert IntPolynomial.zero(("x1",)).degree() == 0
    assert parse_poly("7").degree() == 0
    assert parse_poly("x1^2y1 + x1").degree() == 3


def test_transform_qstar_examples():
    q1 = parse_poly("x1 - y1")
    assert format_poly(transform_qstar(q1, 1)) == "v1*e1 - t1"
    q2 = parse_poly("x1^2", ["x1", "y1"])
    assert format_poly(transform_qstar(q2, 1)) == "v1^2*e1^2"
    q3 = IntPolynomial.constant(4, ("x1", "y1"))
    assert format_poly(transform_qstar(q3, 1)) == "4"
    zero = IntPolynomial.zero(("x1", "y1"))
    assert transform_qstar(zero, 1).is_zero()


def test_transform_qstar_pointwise_identity():
    rng = random.Random(41)
    for _ in range(20):
        k = rng.randrange(1, 4)
        q = _random_poly(rng, "xy", k, 3)
        q = ensure_xy_layout(q, k)
        qstar = transform_qstar(q, k)
        d = q.degree()
        for _ in range(10):
            vs = [Fraction(rng.randrange(1, 7), rng.randrange(1, 4)) for _ in range(k)]
            es = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(k)]
            ts = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(k)]
            xs = [e / v**2 for e, v in zip(es, vs)]
            ys = [t / v**3 for t, v in zip(ts, vs)]
            scale = Fraction(1)
            for v in vs:
                scale *= v ** (3 * d)
            assert poly_eval(qstar, vs + es + ts) == poly_eval(q, xs + ys) * scale


def test_transform_p_from_q_examples():
    assert transform_p_from_q(parse_poly("x1 - 3")) == parse_poly("1 - 3x1")
    assert transform_p_from_q(parse_poly("x1x2 - 3")) == parse_poly("x1x2 - 3x1^2x2^2")
    assert transform_p_from_q(parse_poly("5 + x1 - x1")) == parse_poly("5 + x1 - x1")


def test_transform_p_from_q_reciprocal_correspondence():
    rng = random.Random(43)
    for _ in range(12):
        k = rng.randrange(1, 3)
        q = _random_poly(rng, "x", k, 4)
        p = transform_p_from_q(q)
        d = q.degree()
        for _ in range(8):
            ns = [rng.randrange(1, 6) for _ in range(k)]
            lhs = poly_eval(p, [Fraction(1, n) for n in ns])
            scale = Fraction(1)
            for n in ns:
                scale *= Fraction(n) ** d
            assert lhs * scale == poly_eval(q, ns)
            assert (lhs > 0) == (poly_eval(q, ns) > 0)
            assert (lhs < 0) == (poly_eval(q, ns) < 0)


def test_transform_q_from_p_examples():
    q, m = transform_q_from_p(parse_poly("x1"))
    assert m == 30
    assert q == parse_poly("x1 + 30*(x1^3 - y1)")
    q2, m2 = transform_q_from_p(IntPolynomial.constant(9, ("x1", "x2")))
    assert m2 == 1
    assert q2 == parse_poly("9 + (x1^3 - y1) + (x2^3 - y2)")
    q3, m3 = transform_q_from_p(parse_poly("x1^2"))
    assert m3 == 60
    assert q3 == parse_poly("x1^2 + 60*(x1^3 - y1)")


def test_transform_q_from_p_collapses_on_cubic_section():
    rng = random.Random(47)
    for _ in range(12):
        k = rng.randrange(1, 3)
        p = _random_poly(rng, "x", k, 3)
        q, m = transform_q_from_p(p)
        assert m >= 1
        substitution = {
            f"y{i}": parse_poly(f"x{i}^3") for i in range(1, k + 1)
        }
        collapsed = substitute(q, substitution)
        assert collapsed == p.with_variables(collapsed.varnames)


def test_penalty_constant_report():
    report = penalty_constant_report(parse_poly("x1^2"), steps=8)
    assert report["M"] == 60
    assert report["grid_first_partial_sup"] <= report["certified_first_partial_bound"]
    assert report["grid_second_partial_sup"] <= report["certified_second_partial_bound"]


@pytest.mark.parametrize(
    "text", ["0", "7", "x1", "x1^2", "x1^3 - 2x1x2 + 5x2", "-4x1^2x3 + x2^4 - 3x3", "x2 - x2^2"]
)
def test_penalty_constant_report_gives_the_M_of_the_transform(text):
    p = parse_poly(text)
    assert penalty_constant_report(p, steps=2)["M"] == transform_q_from_p(p)[1]


def test_parse_poly_round_trip():
    texts = ["x1^2 - y1", "2x1x2 - 3*(x1 + 1)", "v1*e1 - t1", "0", "-x1 + 4"]
    for text in texts:
        p = parse_poly(text)
        assert parse_poly(format_poly(p)) == p


def test_parse_poly_graded_lex_output():
    p = parse_poly("x1 + x1^2x2 + 3 + x2^2")
    assert format_poly(p) == "x1^2*x2 + x2^2 + x1 + 3"


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly("x1 +")
    with pytest.raises(ParseError):
        parse_poly("z1 + 2")
    with pytest.raises(ParseError):
        parse_poly("x0")
    with pytest.raises(ParseError):
        parse_poly("(x1")


def test_ensure_xy_layout_validates():
    q = parse_poly("x1 - y2")
    padded = ensure_xy_layout(q, 2)
    assert padded.varnames == ("x1", "x2", "y1", "y2")
    with pytest.raises(ValueError):
        ensure_xy_layout(parse_poly("x3"), 2)
