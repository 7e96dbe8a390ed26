"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either exact arithmetic or was computed by an
independent brute-force oracle.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np

import oracles
from conftest import subset_from_mask, subset_from_tuples

from addforms.abelian import FiniteAbelianGroup, GroupSubset, additive_energy
from addforms.bounds import (
    bollobas_h,
    bollobas_on_branch,
    check_energy_bound,
    check_energy_doubling,
    check_kneser,
    check_plunnecke_ruzsa,
    delta,
    verify_delta_derivative_claims,
)
from addforms.cli import main as cli_main
from addforms.fourier import energy_fourier
from addforms.linform import enumerate_satisfying, estimate_density, eval_density, parse_system
from addforms.polynomial import (
    IntPolynomial,
    ensure_xy_layout,
    parse_poly,
    poly_eval,
    substitute,
    transform_p_from_q,
    transform_q_from_p,
    transform_qstar,
)
from addforms.reduction import (
    build_M,
    build_witness,
    verify_homdensity_identity,
    verify_pinpoint,
    verify_witness,
)

TOL = 1e-9


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_energy_dual_path():
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for n in range(1, 11):
        group = FiniteAbelianGroup([n])
        for mask in range(1 << n):
            a = subset_from_mask(group, mask)
            exact = additive_energy(a)
            assert isinstance(exact, Fraction)
            spectral = energy_fourier(a)
            worst = max(worst, abs(float(exact) - spectral))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and elapsed < 30.0
    _report(
        1,
        ok,
        f"energy counting vs spectral on {checked} subsets of Z_1..Z_10, "
        f"max gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_energy_upper_bound():
    checked = 0
    violations = 0
    for n in range(1, 11):
        group = FiniteAbelianGroup([n])
        for mask in range(1, 1 << n):
            a = subset_from_mask(group, mask)
            slack, holds = check_energy_bound(a)
            checked += 1
            violations += 0 if holds else 1
    gen = np.random.Generator(np.random.Philox(key=20240901))
    randoms = 0
    while randoms < 10_000:
        order = int(gen.integers(1, 513))
        if randoms % 4 == 0 and order % 4 == 0:
            group = FiniteAbelianGroup([2, order // 2])
        else:
            group = FiniteAbelianGroup([order])
        a = GroupSubset(group, gen.random(group.order) < gen.uniform(0.05, 0.95))
        if a.size == 0:
            continue
        randoms += 1
        checked += 1
        _, holds = check_energy_bound(a)
        violations += 0 if holds else 1
    tight_ok = True
    for n in range(2, 51):
        group = FiniteAbelianGroup([n])
        single = subset_from_tuples(group, [(0,)])
        slack, _ = check_energy_bound(single)
        tight_ok &= additive_energy(single) == Fraction(1, n**3) and slack == 0
    ok = violations == 0 and tight_ok
    _report(
        2,
        ok,
        f"energy bound on {checked} subsets (exhaustive n<=10 plus random "
        f"orders<=512), {violations} violations, singleton tightness exact for n=2..50",
    )


def test_c03_classical_inequalities():
    kneser_checked = pr_checked = ed_checked = 0
    violations = 0
    for n in range(1, 6):
        group = FiniteAbelianGroup([n])
        subsets = [subset_from_mask(group, m) for m in range(1 << n)]
        for a in subsets:
            for b in subsets:
                _, holds = check_kneser(a, b)
                kneser_checked += 1
                violations += 0 if holds else 1
                if a.size:
                    for r in (1, 2):
                        for s in (1, 2):
                            _, holds = check_plunnecke_ruzsa(a, b, r, s)
                            pr_checked += 1
                            violations += 0 if holds else 1
    for n in range(1, 13):
        group = FiniteAbelianGroup([n])
        for mask in range(1 << n):
            _, holds = check_energy_doubling(subset_from_mask(group, mask))
            ed_checked += 1
            violations += 0 if holds else 1
    ok = violations == 0
    _report(
        3,
        ok,
        f"kneser {kneser_checked} pairs, plunnecke-ruzsa {pr_checked} instances, "
        f"energy-doubling {ed_checked} subsets, {violations} violations",
    )


def test_c04_energy_system_equals_additive_energy():
    system = parse_system("[g1; g2; g3; g1+g2-g3]")
    checked = 0
    ok = True
    for moduli in oracles.group_presentations(10):
        group = FiniteAbelianGroup(moduli)
        for mask in range(1 << group.order):
            a = subset_from_mask(group, mask)
            if eval_density(system, a) != additive_energy(a):
                ok = False
            checked += 1
    _report(
        4,
        ok,
        f"t(energy system, A) == normalized energy exactly on {checked} subsets "
        f"across all groups of order <= 10",
    )


def test_c05_pinpoint_exhaustive():
    rep2 = verify_pinpoint(2)
    rep3 = verify_pinpoint(3)
    start = time.perf_counter()
    rep4 = verify_pinpoint(4)
    elapsed4 = time.perf_counter() - start
    counts_ok = (
        rep2.checked == 81 and rep3.checked == 4096 and rep4.checked == 390625
    )
    ok = counts_ok and rep2.ok and rep3.ok and rep4.ok and elapsed4 < 10.0
    _report(
        5,
        ok,
        f"pin-down holds for k=2 (81), k=3 (4096), k=4 (390625) assignments; "
        f"k=4 took {elapsed4:.2f}s",
    )


def test_c06_homdensity_identity():
    cases = [("Z9xZ2", (9, 2), 2), ("Z9xZ3", (9, 3), 2), ("Z16xZ2", (16, 2), 3)]
    total_pairs = 0
    mismatches = 0
    nonvacuous = {}
    for literal, moduli, k in cases:
        group = FiniteAbelianGroup(moduli)
        m = build_M(k)
        gen = np.random.Generator(np.random.Philox(key=hash(literal) & 0xFFFF))
        pairs = 0
        live = 0
        while pairs < 50:
            a = GroupSubset(group, gen.random(group.order) < 0.75)
            good = enumerate_satisfying(m, a)
            if not good:
                continue
            take = good[:: max(1, len(good) // 5)][:5]
            for g in take:
                if pairs >= 50:
                    break
                pairs += 1
                for j in range(1, k + 1):
                    rep = verify_homdensity_identity(a, g, j)
                    if not rep.vacuous:
                        live += 1
                        if not rep.ok:
                            mismatches += 1
        total_pairs += pairs
        nonvacuous[literal] = live
    ok = mismatches == 0 and all(v >= 10 for v in nonvacuous.values())
    _report(
        6,
        ok,
        f"pair/3-cycle identities exact on {total_pairs} (A,g) pairs "
        f"({sum(nonvacuous.values())} nonvacuous instances across "
        f"{len(cases)} groups), {mismatches} mismatches",
    )


def test_c07_witness_reproduction():
    spec = build_witness(2, [3, 3])
    rep_a = verify_witness(spec)
    rep_b = verify_witness(spec)
    deterministic = rep_a.to_dict() == rep_b.to_dict()
    structure_ok = (
        rep_a.good_g_count == 36
        and not rep_a.b_violations
        and not rep_a.k2_violations
        and all(c.k2 == Fraction(2, 3) for c in rep_a.classes)
    )
    measured = {(c.j, c.h_class): c.k3_measured for c in rep_a.classes}
    measurement_ok = all(v == Fraction(2, 9) for v in measured.values())
    agreement = all(c.agree for c in rep_a.classes)
    ok = deterministic and structure_ok and measurement_ok
    _report(
        7,
        ok,
        f"witness k=2, n=(3,3): B_j = slice and k2 = 2/3 exact on "
        f"{rep_a.good_g_count} good g; measured k3 = 2/9 vs claimed 2/9 "
        f"(agree={agreement}); report deterministic",
    )


def _random_poly(rng, letters, k, max_deg):
    names = tuple(f"{c}{i}" for c in letters for i in range(1, k + 1))
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        exps = [0] * len(names)
        for _ in range(rng.randrange(0, max_deg + 1)):
            exps[rng.randrange(len(names))] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + rng.randrange(-5, 6)
    return IntPolynomial.from_dict(names, terms)


def test_c08_transform_identities():
    rng = random.Random(808)
    qstar_checks = 0
    for _ in range(20):
        k = rng.randrange(1, 4)
        q = ensure_xy_layout(_random_poly(rng, "xy", k, 3), k)
        qstar = transform_qstar(q, k)
        d = q.degree()
        for _ in range(100):
            vs = [Fraction(rng.randrange(1, 10), 3) for _ in range(k)]
            es = [Fraction(rng.randrange(-9, 10), 3) for _ in range(k)]
            ts = [Fraction(rng.randrange(-9, 10), 3) for _ in range(k)]
            xs = [e / v**2 for e, v in zip(es, vs)]
            ys = [t / v**3 for t, v in zip(ts, vs)]
            scale = Fraction(1)
            for v in vs:
                scale *= v ** (3 * d)
            assert poly_eval(qstar, vs + es + ts) == poly_eval(q, xs + ys) * scale
            qstar_checks += 1
    sign_checks = 0
    for _ in range(20):
        k = rng.randrange(1, 4)
        q = _random_poly(rng, "x", k, 4)
        p = transform_p_from_q(q)
        for point in np.ndindex(*(5,) * k):
            ns = [int(v) + 1 for v in point]
            qv = poly_eval(q, ns)
            pv = poly_eval(p, [Fraction(1, n) for n in ns])
            assert (qv > 0) == (pv > 0) and (qv < 0) == (pv < 0)
            sign_checks += 1
    collapse_checks = 0
    for _ in range(20):
        k = rng.randrange(1, 3)
        p = _random_poly(rng, "x", k, 3)
        q, m = transform_q_from_p(p)
        assert m >= 1
        cubes = {f"y{i}": parse_poly(f"x{i}^3") for i in range(1, k + 1)}
        collapsed = substitute(q, cubes)
        assert collapsed == p.with_variables(collapsed.varnames)
        collapse_checks += 1
    _report(
        8,
        True,
        f"clearing identity at {qstar_checks} rational points, sign "
        f"correspondence at {sign_checks} integer points, penalty collapse on "
        f"{collapse_checks} polynomials, all exact",
    )


def test_c09_delta_calculus():
    zeros_ok = all(delta(Fraction(1, n)) == 0 for n in range(1, 51))
    report = verify_delta_derivative_claims(step=Fraction(1, 1000), t_max=20)
    points = sum(s.points for s in report.segments)
    ok = zeros_ok and report.ok
    _report(
        9,
        ok,
        f"delta(1/n) = 0 exactly for n=1..50; derivative sign claims hold at "
        f"{points} exact grid points (step 1/1000, t up to 20)",
    )


def test_c10_bollobas_breakpoints():
    ok = True
    for t in range(1, 101):
        x = 1 - Fraction(1, t)
        ok &= bollobas_h(x) == Fraction((t - 1) * (t - 2), t * t)
        shared = 1 - Fraction(1, t + 1)
        ok &= bollobas_on_branch(t + 1, shared) == bollobas_on_branch(t, shared)
    _report(
        10,
        ok,
        "piecewise-linear bound: breakpoint values (t-1)(t-2)/t^2 and "
        "continuity exact for t = 1..100",
    )


def test_c11_monte_carlo_convergence():
    group = FiniteAbelianGroup([100])
    half = GroupSubset.from_indices(group, range(50))
    system = parse_system("[g1]")
    exact = 0.5
    inside = 0
    for seed in range(100):
        estimate, radius = estimate_density(system, half, 100_000, seed=seed)
        if abs(estimate - exact) <= radius:
            inside += 1
    ok = inside >= 95
    _report(
        11,
        ok,
        f"Monte Carlo within the 99% Hoeffding radius in {inside}/100 seeded runs",
    )


def test_c12_report_determinism(capsys):
    invocations = [
        ["density", "--group", "Z4", "--set", "{0,2}", "--system", "[g1]"],
        ["check", "--energy-bound", "--group", "Z8", "--exhaustive"],
        ["check", "--kneser", "--group", "Z4", "--exhaustive", "--threads", "2"],
        ["verify", "pinpoint", "--k", "3", "--threads", "4"],
        ["verify", "witness", "--k", "2", "--n", "3,3"],
        ["verify", "delta-claims", "--step", "1/200", "--t-max", "10"],
        [
            "estimate",
            "--group",
            "Z100",
            "--set",
            "{" + ",".join(str(i) for i in range(50)) + "}",
            "--system",
            "[g1]",
            "--samples",
            "50000",
            "--seed",
            "11",
        ],
    ]
    ok = True
    for argv in invocations:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        json.loads(out1)
        ok &= code1 == code2 and out1 == out2 and out1.endswith("\n")
    _report(
        12,
        ok,
        f"{len(invocations)} CLI invocations repeated with identical flags "
        "produce byte-identical JSON reports",
    )
