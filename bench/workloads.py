"""Benchmark workloads: the tasks each one runs, the inputs they read, and
the check every task's answer must pass.

Inputs are drawn from the benchmark's seed and written as subset files
before timing; the program sees only those files and argv.  Every check
compares the report against an independent computation in this file
(FFT convolutions and brute-force enumeration with numpy, closed-form
bounds, known theorems) or, for the few seed-independent reports that have
no affordable independent path, against a reference recorded once in
`reference.json` and compared byte for byte.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# The pin-down verifier reports violations at k = 5 (see ROADMAP, correctness
# triage); the benchmark records them and gates only `checked` and
# `m_satisfying`.
PINPOINT_K = range(2, 9)
PINPOINT_MAX_WORK = str(10**40)


@dataclass
class Task:
    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]  # report -> problems; none when right
    exit_codes: tuple[int, ...] = (0,)
    reference: bool = False  # also compared byte for byte with reference.json
    note: Callable[[dict], str] | None = None  # recorded, not gated


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[np.random.Generator, Path], list[Task]]
    # Rounds run even when they overrun --seconds, so that the tail
    # percentile, chosen from min_rounds * tasks samples, does not change
    # with the speed of the machine.
    min_rounds: int


# ---------------------------------------------------------------------------
# Groups, subsets and independent reference computations.


class Group:
    def __init__(self, *moduli: int):
        self.moduli = tuple(moduli)
        self.order = math.prod(moduli)
        self.literal = "x".join(f"Z{n}" for n in moduli)

    def residues(self, idx: np.ndarray) -> np.ndarray:
        """(len(idx), rank) residue rows of flat C-order indices."""
        return np.stack(np.unravel_index(idx, self.moduli), axis=1)

    def flat(self, residues: np.ndarray) -> np.ndarray:
        """Flat index of residue rows (last axis), reducing each coordinate."""
        mods = np.array(self.moduli, dtype=np.int64)
        return np.ravel_multi_index(tuple(np.moveaxis(residues % mods, -1, 0)), self.moduli)

    def indicator(self, idx) -> np.ndarray:
        bits = np.zeros(self.order, dtype=bool)
        bits[np.asarray(idx, dtype=np.int64)] = True
        return bits


def random_subset(rng: np.random.Generator, g: Group, density: float) -> np.ndarray:
    size = max(1, round(g.order * density))
    return np.sort(rng.choice(g.order, size, replace=False))


def periodic_subset(
    rng: np.random.Generator, g: Group, density: float, period: tuple[int, ...]
) -> np.ndarray:
    """Union of cosets of H = {x : x_t = 0 mod period_t}: its stabilizer
    contains H."""
    quotient = Group(*period)
    chosen = quotient.indicator(random_subset(rng, quotient, density))
    res = g.residues(np.arange(g.order))
    classes = chosen[quotient.flat(res % np.array(period))]
    return np.flatnonzero(classes)


def write_subset(path: Path, g: Group, idx: np.ndarray) -> str:
    rows = g.residues(idx)
    path.write_text("".join(",".join(map(str, r)) + "\n" for r in rows.tolist()))
    return str(path)


def _conv(g: Group, f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Exact cyclic convolution of two integer tables on the group, flat."""
    axes = tuple(range(len(g.moduli)))
    fs = np.fft.rfftn(f.reshape(g.moduli).astype(np.float64), axes=axes)
    hs = np.fft.rfftn(h.reshape(g.moduli).astype(np.float64), axes=axes)
    raw = np.fft.irfftn(fs * hs, s=g.moduli, axes=axes).ravel()
    out = np.rint(raw)
    if np.abs(raw - out).max(initial=0.0) >= 0.25:
        raise ArithmeticError("FFT convolution not certified")
    return out.astype(np.int64)


def _negate(g: Group, bits: np.ndarray) -> np.ndarray:
    res = g.residues(np.arange(g.order))
    return bits[g.flat(-res)]


def fft_sumset(g: Group, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.flatnonzero(_conv(g, g.indicator(a), g.indicator(b)))


def fft_energy(g: Group, a: np.ndarray) -> int:
    r = _conv(g, g.indicator(a), g.indicator(a))
    if r.sum() != len(a) ** 2:
        raise ArithmeticError("representation counts do not sum to |A|^2")
    return int((r * r).sum())


def fft_stabilizer(g: Group, s: np.ndarray) -> np.ndarray:
    bits = g.indicator(s)
    overlap = _conv(g, bits, _negate(g, bits))  # |S cap (S + x)| at x
    return np.flatnonzero(overlap == len(s))


def count_solutions(g: Group, forms, member: np.ndarray, arity: int) -> int:
    """Brute force: assignments in G^arity with every form's value in the
    subset (outside it for negated forms).  forms: (coefficients, negated)."""
    res = g.residues(np.arange(g.order)).astype(np.int64)
    rows = max(1, (1 << 20) // (g.order * len(g.moduli)))
    total = 0
    if arity == 1:
        ok = np.ones(g.order, dtype=bool)
        for coeffs, negated in forms:
            ok &= member[g.flat(coeffs[0] * res)] != negated
        return int(ok.sum())
    for prefix in itertools.product(range(g.order), repeat=arity - 2):
        bases = [
            sum((c * res[v] for c, v in zip(coeffs, prefix)), np.zeros(len(g.moduli), np.int64))
            for coeffs, _ in forms
        ]
        for lo in range(0, g.order, rows):
            block = res[lo : lo + rows]
            ok = np.ones((len(block), g.order), dtype=bool)
            for (coeffs, negated), base in zip(forms, bases):
                vals = base + coeffs[-2] * block[:, None, :] + coeffs[-1] * res[None, :, :]
                ok &= member[g.flat(vals)] != negated
            total += int(ok.sum())
    return total


def parse_forms(text: str, arity: int):
    """'[g1; g2; !(g1+g2)]' -> [(coefficients, negated)] for the plain
    `c*gi` sums the workloads use."""
    forms = []
    for item in text.strip()[1:-1].split(";"):
        item = item.strip()
        negated = item.startswith("!(")
        if negated:
            item = item[2:-1]
        coeffs = [0] * arity
        for sign, coef, var in re.findall(r"([+-]?)(\d*)g(\d+)", item):
            coeffs[int(var) - 1] += (-1 if sign == "-" else 1) * int(coef or 1)
        forms.append((tuple(coeffs), negated))
    return forms


def build_m_forms(k: int):
    """The M system as specified: negated (k+1)*g1, the dilates
    p*(gj - j*g1) for p = 1..k+2 and j = 2..k, and the singletons g1..gk."""
    forms = [(((k + 1),) + (0,) * (k - 1), True)]
    for p in range(1, k + 3):
        for j in range(2, k + 1):
            c = [0] * k
            c[0], c[j - 1] = -p * j, p
            forms.append((tuple(c), False))
    for j in range(k):
        c = [0] * k
        c[j] = 1
        forms.append((tuple(c), False))
    return forms


def witness_subset(k: int, n: tuple[int, ...]) -> tuple[Group, np.ndarray]:
    """A = {0} x H  union  {j} x (H minus H_j) for j = 1..k."""
    g = Group((k + 1) ** 2, *n)
    res = g.residues(np.arange(g.order))
    bits = res[:, 0] == 0
    for j in range(1, k + 1):
        bits |= (res[:, 0] == j) & (res[:, j] != 0)
    return g, bits


# ---------------------------------------------------------------------------
# Report checks: each returns a checker from a report to its problems.


def _rational(field_value) -> Fraction:
    return Fraction(field_value["num"], field_value["den"])


def _expect(report: dict, **want) -> list[str]:
    """Problems for every field whose value differs from `want`."""
    return [
        f"{key}: got {str(report.get(key))[:80]}, want {str(value)[:80]}"
        for key, value in want.items()
        if report.get(key) != value
    ]


def check_energy(g: Group, a: np.ndarray, fourier: bool):
    def check(report):
        raw = fft_energy(g, a)
        exact = Fraction(raw, g.order**3)
        problems = _expect(report, set_size=len(a), raw=raw)
        problems += _expect({"normalized": _rational(report["normalized"])}, normalized=exact)
        if fourier and not abs(report["fourier"] - float(exact)) <= 1e-9:
            problems.append(f"fourier {report['fourier']} not within 1e-9 of {float(exact)}")
        return problems

    return check


def check_doubling(g: Group, a: np.ndarray):
    def check(report):
        value = Fraction(len(fft_sumset(g, a, a)), len(a))
        return _expect(report, set_size=len(a)) + _expect(
            {"value": _rational(report["value"])}, value=value
        )

    return check


def check_elements(g: Group, want: Callable[[], np.ndarray]):
    def check(report):
        idx = want()
        return _expect(report["result"], size=len(idx), elements=g.residues(idx).tolist())

    return check


def check_sweep(checked: int):
    """Sweeps of proven inequalities: every instance counted, none violates."""
    return lambda report: _expect(report, checked=checked, violations=0, witnesses=[])


def check_density(g: Group, forms, member: np.ndarray, arity: int, cache: dict):
    def check(report):
        value = exact_density(g, forms, member, arity, cache)
        return _expect(report, set_size=int(member.sum())) + _expect(
            {"value": _rational(report["value"])}, value=value
        )

    return check


def exact_density(g: Group, forms, member, arity, cache: dict) -> Fraction:
    key = (g.literal, tuple(forms), member.tobytes())
    if key not in cache:
        cache[key] = Fraction(count_solutions(g, forms, member, arity), g.order**arity)
    return cache[key]


def check_estimate(g: Group, forms, member, arity, samples: int, cache: dict):
    radius = math.sqrt(math.log(200.0) / (2.0 * samples))

    def check(report):
        exact = exact_density(g, forms, member, arity, cache)
        problems = _expect(report, radius=radius)
        if not abs(report["estimate"] - exact) <= radius:
            problems.append(f"estimate {report['estimate']} misses {float(exact)} by > {radius}")
        return problems

    return check


def check_ok(report):
    return _expect(report, ok=True)


# ---------------------------------------------------------------------------
# Workload: kernels.

_KERNEL_GROUPS = [
    # group, then (energy, doubling, stabilizer, sumset A, sumset B) densities,
    # and the coset period of the stabilizer input (None: random subset)
    (Group(4096), (0.50, 0.10, 0.50, 0.05, 0.05), (1024,)),
    (Group(64, 64), (0.25, 0.50, 0.10, 0.25, 0.01), None),
    (Group(*(2,) * 12), (0.10, 0.25, 0.25, 0.10, 0.10), (2,) * 10 + (1, 1)),
    (Group(16384), (0.10, 0.25, 0.05, 0.01, 0.25), None),
    (Group(256, 256), (0.02, 0.05, 0.05, 0.10, 0.01), (128, 256)),
    (Group(65536), (0.01, 0.02, 0.05, 0.10, 0.01), None),
]
# --fourier runs the direct O(|G|^2) transform: only the groups of order 4096
_FOURIER_ORDER, _FOURIER_DENSITY = 4096, 0.25


def build_kernels(rng: np.random.Generator, tmp: Path) -> list[Task]:
    tasks = []
    for g, (de, dd, ds, da, db), period in _KERNEL_GROUPS:
        name = g.literal if len(g.moduli) < 4 else f"Z2^{len(g.moduli)}"

        def task(label, check, *flags, **sets):
            argv = [label.split()[0], "--group", g.literal, *flags]
            for option, idx in sets.items():
                path = write_subset(tmp / f"{len(tasks)}-{option}.subset", g, idx)
                argv += [f"--{option.replace('_', '-')}-file", path]
            tasks.append(Task(f"{label} {name}", argv, check))

        a = random_subset(rng, g, de)
        task("energy", check_energy(g, a, False), set=a)
        if g.order == _FOURIER_ORDER:
            a = random_subset(rng, g, _FOURIER_DENSITY)
            task("energy --fourier", check_energy(g, a, True), "--fourier", set=a)
        a = random_subset(rng, g, dd)
        task("doubling", check_doubling(g, a), set=a)
        s = periodic_subset(rng, g, ds, period) if period else random_subset(rng, g, ds)
        task("stabilizer", check_elements(g, lambda g=g, s=s: fft_stabilizer(g, s)), set=s)
        a, b = random_subset(rng, g, da), random_subset(rng, g, db)
        task("sumset", check_elements(g, lambda g=g, a=a, b=b: fft_sumset(g, a, b)),
             set_a=a, set_b=b)
    return tasks


# ---------------------------------------------------------------------------
# Workload: sweeps.


def bollobas_bound(x: Fraction) -> Fraction:
    """Linear interpolation between the points (1 - 1/t, (t-1)(t-2)/t^2)."""
    if x == 1:
        return Fraction(1)
    t = math.floor(1 / (1 - x))
    x0, x1 = 1 - Fraction(1, t), 1 - Fraction(1, t + 1)
    y0, y1 = Fraction((t - 1) * (t - 2), t * t), Fraction(t * (t - 1), (t + 1) ** 2)
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def energy_bound(alpha: Fraction) -> Fraction:
    """alpha^3 - alpha^4 (f - f^2) with f the fractional part of 1/alpha."""
    f = 1 / alpha - math.floor(1 / alpha)
    return alpha**3 - alpha**4 * (f - f * f)


# (kind, group, extra args); pairwise kinds sweep all pairs of subsets
_EXHAUSTIVE = [
    ("energy-bound", Group(2, 2, 2, 2), []),
    ("energy-bound", Group(12), []),
    ("energy-doubling", Group(10), []),
    ("energy-doubling", Group(3, 3), []),
    ("kneser", Group(6), []),
    ("plunnecke-ruzsa", Group(5), ["--r", "2", "--s", "1"]),
]
# (kind, group, instances, extra args)
_RANDOM = [
    ("energy-bound", Group(256), 2000, []),
    ("energy-bound", Group(16, 16), 2000, []),
    ("energy-doubling", Group(128), 3000, []),
    ("kneser", Group(64), 4000, []),
    ("plunnecke-ruzsa", Group(100), 1000, ["--r", "2", "--s", "2"]),
]
_PAIRWISE = {"kneser", "plunnecke-ruzsa"}


def build_sweeps(rng: np.random.Generator, tmp: Path) -> list[Task]:
    tasks = []
    for kind, g, extra in _EXHAUSTIVE:
        subsets = 2**g.order
        checked = subsets**2 if kind in _PAIRWISE else subsets
        tasks.append(
            Task(f"{kind} exhaustive {g.literal}",
                 ["check", f"--{kind}", "--group", g.literal, "--exhaustive", *extra],
                 check_sweep(checked))
        )
    for kind, g, count, extra in _RANDOM:
        seed = str(int(rng.integers(2**31)))
        tasks.append(
            Task(f"{kind} random {g.literal}",
                 ["check", f"--{kind}", "--group", g.literal, "--random", str(count),
                  "--seed", seed, *extra],
                 check_sweep(count))
        )
    for kind in ("region-graph", "region-energy"):
        den = int(rng.integers(2, 1000))
        x = Fraction(int(rng.integers(1, den)), den)
        y = Fraction(int(rng.integers(0, 1001)), 1000)
        if kind == "region-graph":
            bound = bollobas_bound(x)
            holds = y >= bound
        else:
            bound = energy_bound(x)
            holds = y <= bound
        tasks.append(
            Task(kind, ["check", f"--{kind}", "--x", str(x), "--y", str(y)],
                 lambda report, bound=bound, holds=holds: _expect(
                     {**report, "bound": _rational(report["bound"])},
                     bound=bound, holds=holds, checked=1, violations=int(not holds)),
                 exit_codes=(0,) if holds else (1,))
        )
    tasks.append(Task("verify bollobas", ["verify", "bollobas", "--t-max", "100"],
                      lambda report: _expect(report, checked=100, violations=0)))
    tasks.append(
        Task("verify delta-claims", ["verify", "delta-claims", "--step", "1/1000", "--t-max", "20"],
             check_ok, reference=True)
    )
    return tasks


# ---------------------------------------------------------------------------
# Workload: forms.

_ENERGY_SYSTEM = "[g1; g2; g3; g1+g2-g3]"
# (group, system, arity); every subset has density 1/2
_DENSITY = [
    (Group(64), _ENERGY_SYSTEM, 3),
    (Group(128), _ENERGY_SYSTEM, 3),
    (Group(8, 8), _ENERGY_SYSTEM, 3),
    (Group(2000), "[g1; g2; g1+g2]", 2),
    (Group(2000), "[g1; g2; !(g1+g2)]", 2),
    (Group(3000), "[g1; g2; g1+g2; g1+2g2]", 2),
]
_ESTIMATE = [3, 5, 1]  # indices into _DENSITY
_ESTIMATE_SAMPLES = 10**6
_WITNESSES = [(2, (5, 5)), (2, (4, 6)), (3, (2, 2, 2))]
# (group, k); Z1 and Z2 never terminate, so they are left out
_HOMDENSITY = [(Group(9, 2), 2), (Group(16, 3), 2), (Group(9, 2), 3)]
_HOMDENSITY_PAIRS = 30
_POLYS = [("x1 - y1", 1), ("x1^2 - y1 + x2*y2", 2), ("x1*y1 - x1^2", 1)]


def check_witness(k: int, n: tuple[int, ...]):
    def check(report):
        g, bits = witness_subset(k, n)
        good = count_solutions(g, build_m_forms(k), bits, k)
        return _expect(report, ok=True, good_g_count=good)

    return check


def check_homdensity(report):
    problems = _expect(report, ok=True, pairs_checked=_HOMDENSITY_PAIRS, mismatches=[])
    for item in report["sample"]:
        if not item["vacuous"]:
            problems += _expect(item, k2_graph=item["k2_forms"], k3_graph=item["k3_forms"])
    return problems


def build_forms(rng: np.random.Generator, tmp: Path) -> list[Task]:
    tasks = []
    cache: dict = {}
    files: dict[str, tuple[np.ndarray, str]] = {}
    for g, system, arity in _DENSITY:
        if g.literal not in files:
            idx = random_subset(rng, g, 0.5)
            files[g.literal] = (g.indicator(idx), write_subset(tmp / f"{g.literal}.subset", g, idx))
        member, path = files[g.literal]
        tasks.append(
            Task(f"density {g.literal} {system}",
                 ["density", "--group", g.literal, "--set-file", path, "--system", system],
                 check_density(g, parse_forms(system, arity), member, arity, cache))
        )
    for i in _ESTIMATE:
        g, system, arity = _DENSITY[i]
        member, path = files[g.literal]
        tasks.append(
            Task(f"estimate {g.literal} {system}",
                 ["estimate", "--group", g.literal, "--set-file", path, "--system", system,
                  "--samples", str(_ESTIMATE_SAMPLES), "--seed", str(int(rng.integers(2**31)))],
                 check_estimate(g, parse_forms(system, arity), member, arity,
                                _ESTIMATE_SAMPLES, cache))
        )
    for k in PINPOINT_K:
        tasks.append(
            Task(f"verify pinpoint {k}",
                 ["verify", "pinpoint", "--k", str(k), "--max-work", PINPOINT_MAX_WORK],
                 lambda report, k=k: _expect(
                     report, checked=((k + 1) ** 2) ** k, m_satisfying=1),
                 exit_codes=(0, 1),
                 note=lambda r: f"verify pinpoint --k {r['k']}: {r['violations']} violations")
        )
    for k, n in _WITNESSES:
        spec = ",".join(map(str, n))
        tasks.append(
            Task(f"verify witness {k} {spec}", ["verify", "witness", "--k", str(k), "--n", spec],
                 check_witness(k, n), reference=True)
        )
    for g, k in _HOMDENSITY:
        tasks.append(
            Task(f"verify homdensity {g.literal} {k}",
                 ["verify", "homdensity", "--group", g.literal, "--k", str(k),
                  "--pairs", str(_HOMDENSITY_PAIRS), "--seed", str(int(rng.integers(2**31)))],
                 check_homdensity)
        )
    for poly, k in _POLYS:
        tasks.append(
            Task(f"reduce {poly}", ["reduce", "--poly", poly, "--k", str(k)],
                 lambda report: [], reference=True)
        )
    return tasks


# The reason for each workload sits next to its definition.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "kernels",
            "pairwise sumset, energy and stabilizer kernels, the direct DFT and large sumset "
            "reports on ranks 1, 2 and 12 at densities 1-50%",
            build_kernels,
            min_rounds=4,
        ),
        Workload(
            "sweeps",
            "many tiny per-subset calls through cli, bounds and abelian in exhaustive and "
            "random sweeps; bypasses fourier and linform",
            build_sweeps,
            min_rounds=3,
        ),
        Workload(
            "forms",
            "large exact frontier queries beside many small pinned-prefix queries in "
            "linform and reduction; the abelian kernels and fourier stay idle",
            build_forms,
            min_rounds=8,
        ),
    ]
}
