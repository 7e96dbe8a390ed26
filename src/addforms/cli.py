"""Command-line workbench: parse groups/subsets/systems/polynomials, dispatch
to the library, and emit deterministic JSON reports.

Exit codes: 0 all checks pass, 1 a checked inequality or identity failed
(witness in the report), 2 usage or parse error, 3 resource cap exceeded.

The module loads only what every verb needs (`abelian`, `errors`,
`report`); a handler imports `bounds`, `fourier`, `linform`, `polynomial`
or `reduction` when it first runs, so a verb does not pay to load the rest.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import abelian
from .abelian import FiniteAbelianGroup, GroupSubset
from .errors import DEFAULT_WORK_BUDGET, AddformsError, CapExceeded, ParseError
from .report import dump_json, make_report, rational_json

_EXHAUSTIVE_SUBSET_MAX_ORDER = 16
_EXHAUSTIVE_PAIR_MAX_ORDER = 8
_WITNESS_LIMIT = 10
# `verify homdensity` gives up after this many random draws per requested
# pair; on some groups (Z1, Z2, Z3) no subset admits M at all.
_HOMDENSITY_DRAWS_PER_PAIR = 100
# Every seeded verb keys a Philox generator with its seed, which takes 128 bits.
_MAX_SEED = (1 << 128) - 1


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {text!r}") from None


def _int_at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers; empty items are skipped."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int list: {text!r}") from None


def _load_subset(args, group: FiniteAbelianGroup, name: str) -> GroupSubset:
    literal = getattr(args, name.replace("-", "_"), None)
    file_attr = getattr(args, f"{name}_file".replace("-", "_"), None)
    if literal is not None:
        return abelian.parse_subset(literal, group)
    if file_attr is not None:
        return abelian.parse_subset_file(Path(file_attr).read_text(), group)
    raise ParseError(f"missing --{name} or --{name}-file")


def _subset_json(subset: GroupSubset) -> dict:
    return {
        "group": subset.group.literal(),
        "size": subset.size,
        "density": rational_json(subset.density()),
        "elements": subset.residue_matrix(),
    }


def _mask_rows(masks: np.ndarray, order: int) -> np.ndarray:
    """Boolean (len(masks), order) matrix: element i is in row k when bit i
    of masks[k] is set (order <= 64): the masks' little-endian octets,
    unpacked low bit first."""
    octets = masks.astype("<u8", copy=False).view(np.uint8).reshape(len(masks), 8)
    return np.unpackbits(octets, axis=1, count=order, bitorder="little").view(bool)


def _random_batches(group: FiniteAbelianGroup, count: int, seed: int, pairwise: bool):
    """`count` random subsets, or pairs of consecutive ones, as row batches
    drawn from one Philox stream (a batch draws the same numbers as its rows
    drawn one at a time).  An element is in when its raw 64-bit draw is
    below 2^63: Philox's `random()` is (draw >> 11) * 2^-53, so these are the
    bits of `random() < 0.5`, without the conversion."""
    raw = np.random.Philox(key=int(seed)).random_raw
    rows = abelian.batch_rows(group)
    for start in range(0, count, rows):
        bits = raw((min(rows, count - start) * (1 + pairwise), group.order)) < 2**63
        yield (bits[0::2], bits[1::2]) if pairwise else (bits,)


def _row_blocks(group: FiniteAbelianGroup, batches, slack):
    """The `_sweep` blocks of `slack(group, *batch)` over row batches."""
    for batch in batches:
        yield (*slack(group, *batch), lambda i, batch=batch: [rows[i] for rows in batch])


def _exhaustive_blocks(order: int, pairwise: bool, blocks):
    """The `_sweep` blocks of the (numerators, denominator) blocks of a
    `*_masks` sweep: instance k is the subset of mask k, or the pair of
    masks (k >> order, k mod 2^order)."""
    start = 0
    for numerators, denominator in blocks:
        yield numerators, denominator, functools.partial(_instance_rows, order, pairwise, start)
        start += len(numerators)


def _instance_rows(order: int, pairwise: bool, start: int, i: int) -> np.ndarray:
    """The bit rows of instance start + i of an exhaustive sweep."""
    k = start + i
    masks = [k >> order, k & ((1 << order) - 1)] if pairwise else [k]
    return _mask_rows(np.array(masks, dtype=np.int64), order)


# ---------------------------------------------------------------------------
# Verb handlers: each returns (report dict, violated flag).


def _cmd_density(args):
    from . import linform

    group = abelian.parse_group(args.group)
    subset = _load_subset(args, group, "set")
    system = linform.parse_system(args.system)
    value = linform.eval_density(system, subset, budget=args.max_work)
    report = make_report(
        "density",
        params={"group": args.group, "system": linform.format_system(system)},
        set_size=subset.size,
        value=rational_json(value),
    )
    return report, False


def _cmd_energy(args):
    group = abelian.parse_group(args.group)
    subset = _load_subset(args, group, "set")
    raw = abelian.additive_energy_raw(subset)
    report = make_report(
        "energy",
        params={"group": args.group},
        set_size=subset.size,
        raw=raw,
        normalized=rational_json(Fraction(raw, group.order**3)),
    )
    if args.fourier:
        from . import fourier

        report["fourier"] = fourier.energy_fourier(subset)
        report["approximate_fourier"] = True
    return report, False


def _cmd_sumset(args):
    group = abelian.parse_group(args.group)
    a = _load_subset(args, group, "set-a")
    b = _load_subset(args, group, "set-b")
    s = abelian.sumset(a, b)
    report = make_report("sumset", params={"group": args.group}, result=_subset_json(s))
    return report, False


def _cmd_doubling(args):
    group = abelian.parse_group(args.group)
    subset = _load_subset(args, group, "set")
    value = abelian.doubling_constant(subset)
    report = make_report(
        "doubling",
        params={"group": args.group},
        set_size=subset.size,
        value=rational_json(value),
    )
    return report, False


def _cmd_stabilizer(args):
    group = abelian.parse_group(args.group)
    subset = _load_subset(args, group, "set")
    stab = abelian.stabilizer(subset)
    report = make_report(
        "stabilizer", params={"group": args.group}, result=_subset_json(stab)
    )
    return report, False


def _check_single(kind: str, instance: dict, holds: bool, **value):
    """The report of one checked instance; `value` is its left-hand side
    (`lhs`) or the bound it is compared with (`bound`)."""
    report = make_report(
        kind,
        instance=instance,
        holds=holds,
        checked=1,
        violations=0 if holds else 1,
        witnesses=[] if holds else [instance],
        **value,
    )
    return report, not holds


def _sweep(kind: str, group: FiniteAbelianGroup, blocks):
    """Count the instances of every block of (numerators, denominator, rows)
    and those whose numerator is negative; keep the first violations, in
    instance order, as witnesses, with the subsets of the bit rows that
    rows(i) gives for the block's instance i."""
    checked = violations = 0
    witnesses = []
    for numerators, denominator, rows in blocks:
        bad = np.flatnonzero(numerators < 0)
        for i in bad[: _WITNESS_LIMIT - len(witnesses)]:
            instance = [GroupSubset(group, row) for row in rows(i)]
            lhs = Fraction(int(numerators[i]), denominator)
            witnesses.append(
                {"instance": _describe_instance(instance), "lhs": rational_json(lhs)}
            )
        checked += len(numerators)
        violations += len(bad)
    report = make_report(
        kind,
        checked=checked,
        violations=violations,
        witnesses=witnesses,
    )
    return report, violations > 0


def _check_fold_digits(order: int, folds: int) -> None:
    """Refuse (CapExceeded), before any sumset pass, a Plunnecke-Ruzsa check
    whose exact denominator |G|^(r+s) has more decimal digits than Python
    writes (`sys.get_int_max_str_digits()`, 0 for no limit)."""
    most = sys.get_int_max_str_digits()
    if not most or order < 2 or folds < 1:
        return
    # log10(|G|) >= 0.3 bounds the float; within 1 of the limit, compare exactly
    log = min(folds, 4 * most + 4) * math.log10(order)
    if log >= most + 1 or (log > most - 1 and order**folds >= 10**most):
        raise CapExceeded(
            f"the exact denominator {order}^(r+s) has more than {most} digits, "
            "more than Python writes; lower --r or --s"
        )


def _describe_instance(subsets) -> dict:
    return {name: s.residue_lists() for name, s in zip("AB", subsets)}


def _cmd_check(args):
    from . import bounds

    kind = args.kind
    region = kind in ("region-graph", "region-energy")
    pairwise = kind in ("kneser", "plunnecke-ruzsa")
    # an option that the mode does not read is a usage error
    sets = [f"{name}{end}" for name in ("set", "set_a", "set_b") for end in ("", "_file")]
    sweep = " --exhaustive" if args.exhaustive else "" if args.random is None else " --random"
    unread = ["group", "exhaustive", "random"] if region else ["x", "y"]
    unread += [n for n in sets if region or sweep or n.startswith("set_") != pairwise]
    unread += [] if args.random is not None else ["seed"]
    unread += [] if kind == "plunnecke-ruzsa" else ["r", "s"]
    for name in unread:
        if getattr(args, name) is not None:
            mode = f"--{kind}" + ("" if region else sweep)
            raise ValueError(f"--{name.replace('_', '-')} is not read by {mode}")
    seed, r, s = (d if v is None else v for v, d in ((args.seed, 0), (args.r, 1), (args.s, 1)))
    if region:
        for name in ("x", "y"):
            if getattr(args, name) is None:
                raise ParseError(f"missing --{name} for --{kind}")
        x = _parse_fraction(args.x)
        y = _parse_fraction(args.y)
        if kind == "region-graph":
            holds = bounds.in_region_R_graph(x, y)
            bound = bounds.bollobas_h(x)
        else:
            holds = bounds.in_region_R_energy(x, y)
            bound = bounds.energy_upper_bound(x)
        instance = {"x": str(x), "y": str(y)}
        return _check_single(f"check-{kind}", instance, holds, bound=rational_json(bound))

    if args.group is None:
        raise ParseError(f"missing --group for --{kind}")
    group = abelian.parse_group(args.group)
    if kind == "plunnecke-ruzsa":
        _check_fold_digits(group.order, r + s)

    # each kind's numerators from boolean rows and over every mask
    slack, tables = {
        "kneser": (bounds.kneser_rows, bounds.kneser_masks),
        "plunnecke-ruzsa": (
            lambda g, a, b: bounds.plunnecke_ruzsa_rows(g, a, b, r, s),
            lambda g: bounds.plunnecke_ruzsa_masks(g, r, s),
        ),
        "energy-doubling": (bounds.energy_doubling_rows, bounds.energy_doubling_masks),
        "energy-bound": (bounds.energy_bound_rows, bounds.energy_bound_masks),
    }[kind]
    if args.random is not None:
        batches = _random_batches(group, args.random, seed, pairwise)
        return _sweep(f"check-{kind}", group, _row_blocks(group, batches, slack))
    if args.exhaustive:
        cap = _EXHAUSTIVE_PAIR_MAX_ORDER if pairwise else _EXHAUSTIVE_SUBSET_MAX_ORDER
        if group.order > cap:
            raise CapExceeded(f"exhaustive sweep over {group.literal()} exceeds order cap {cap}")
        blocks = _exhaustive_blocks(group.order, pairwise, tables(group))
        return _sweep(f"check-{kind}", group, blocks)

    names = ("set-a", "set-b") if pairwise else ("set",)
    subsets = [_load_subset(args, group, name) for name in names]
    numerators, denominator = slack(group, *(s.bits[None] for s in subsets))
    lhs = Fraction(int(numerators[0]), denominator)
    instance = _describe_instance(subsets)
    return _check_single(f"check-{kind}", instance, lhs >= 0, lhs=rational_json(lhs))


def _cmd_reduce(args):
    from . import polynomial, reduction

    q = polynomial.parse_poly(args.poly)
    bundle = reduction.build_psi(q, args.k)
    report = make_report("reduce", params={"poly": args.poly, "k": args.k})
    report["bundle"] = bundle.to_dict()
    return report, False


def _cmd_witness(args):
    from . import reduction

    spec = reduction.build_witness(args.k, args.n)
    subset_file = None
    if args.subset_file:
        Path(args.subset_file).write_text(abelian.subset_to_lines(spec.subset))
        subset_file = args.subset_file
    report = make_report("witness", params={"k": args.k, "n": args.n})
    report["witness"] = spec.to_dict(subset_file)
    report["group_order"] = spec.group.order
    if subset_file is None:
        report["subset"] = spec.subset.residue_matrix()
    return report, False


def _cmd_verify_pinpoint(args):
    from . import reduction

    result = reduction.verify_pinpoint(args.k, budget=args.max_work)
    report = make_report("verify-pinpoint", params={"k": args.k})
    report.update(result.to_dict())
    return report, not result.ok


def _cmd_verify_homdensity(args):
    from . import linform, reduction

    group = abelian.parse_group(args.group)
    k = args.k
    m = reduction.build_M(k)
    gen = np.random.Generator(np.random.Philox(key=int(args.seed)))
    subsets, g_rows = [], []
    draws = 0
    while len(subsets) < args.pairs and draws < _HOMDENSITY_DRAWS_PER_PAIR * args.pairs:
        draws += 1
        a = GroupSubset(group, gen.random(group.order) < 0.5)
        _, good = linform.solve_rows(m, a, linform.prefix_row(a, ()), budget=args.max_work)
        if not len(good):
            continue
        subsets.append(a)
        g_rows.append(good[int(gen.integers(0, len(good)))])
    g_rows = np.array(g_rows, dtype=np.int64).reshape(len(subsets), k)
    # the pairs found are checked first, so a refused budget (exit 3) takes
    # precedence over a shortfall of pairs
    by_j = [
        reduction.verify_homdensity_rows(subsets, g_rows, j, budget=args.max_work)
        for j in range(1, k + 1)
    ]
    if len(subsets) < args.pairs:
        raise AddformsError(
            f"only {len(subsets)} of {args.pairs} random subsets of "
            f"{group.literal()} admitted M (k = {k}) in {draws} draws"
        )
    mismatches = []
    vacuous = 0
    details = []
    for reps in zip(*by_j):  # pair-major, j-minor
        for rep in reps:
            if rep.vacuous:
                vacuous += 1
            elif not rep.ok:
                mismatches.append(rep.to_dict())
        if len(details) < 3:
            details.append(reps[0].to_dict())
    report = make_report(
        "verify-homdensity",
        params={"group": args.group, "k": k, "pairs": args.pairs, "seed": args.seed},
        pairs_checked=len(subsets),
        vacuous=vacuous,
        mismatches=mismatches,
        sample=details,
        ok=not mismatches,
    )
    return report, bool(mismatches)


def _cmd_verify_witness(args):
    from . import reduction

    spec = reduction.build_witness(args.k, args.n)
    result = reduction.verify_witness(spec, budget=args.max_work)
    report = make_report("verify-witness", params={"k": args.k, "n": args.n})
    report.update(result.to_dict())
    return report, not result.ok


def _cmd_verify_delta(args):
    from . import bounds

    result = bounds.verify_delta_derivative_claims(
        _parse_fraction(args.step), args.t_max, budget=args.max_work
    )
    report = make_report(
        "verify-delta-claims", params={"step": args.step, "t_max": args.t_max}
    )
    report.update(result.to_dict())
    return report, not result.ok


def _cmd_verify_bollobas(args):
    from . import bounds

    violations = []
    checked = 0
    for t in range(1, args.t_max + 1):
        checked += 1
        x = 1 - Fraction(1, t)
        expected = Fraction((t - 1) * (t - 2), t * t)
        if bounds.bollobas_h(x) != expected:
            violations.append(f"value at 1-1/{t}")
        shared = 1 - Fraction(1, t + 1)
        if bounds.bollobas_on_branch(t + 1, shared) != bounds.bollobas_on_branch(t, shared):
            violations.append(f"discontinuity between branches {t} and {t + 1}")
    report = make_report(
        "verify-bollobas",
        params={"t_max": args.t_max},
        checked=checked,
        violations=len(violations),
        violation_details=violations,
        ok=not violations,
    )
    return report, bool(violations)


def _cmd_estimate(args):
    from . import linform

    group = abelian.parse_group(args.group)
    subset = _load_subset(args, group, "set")
    system = linform.parse_system(args.system)
    estimate, radius = linform.estimate_density(
        system, subset, args.samples, args.seed, threads=args.threads, budget=args.max_work
    )
    report = make_report(
        "estimate",
        params={
            "group": args.group,
            "system": linform.format_system(system),
            "samples": args.samples,
            "seed": args.seed,
        },
        approximate=True,
        estimate=estimate,
        radius=radius,
    )
    return report, False


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_common(p: argparse.ArgumentParser, *, max_work: bool = False) -> None:
    p.add_argument("--out", help="write the JSON report to this file")
    p.add_argument(
        "--threads",
        type=_int_at_least(1),
        default=1,
        help="worker count of `estimate`; the exact verbs run in one thread",
    )
    if max_work:
        p.add_argument(
            "--max-work",
            type=_int_at_least(0),
            default=None,
            help=f"work budget (default {DEFAULT_WORK_BUDGET})",
        )


def _add_subset_options(p: argparse.ArgumentParser, name: str = "set") -> None:
    given = p.add_mutually_exclusive_group()
    given.add_argument(f"--{name}", help="inline subset literal, e.g. \"{0,2}\"")
    given.add_argument(f"--{name}-file", help="subset file (lines or JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addforms",
        description="Exact desk-scale computations on subsets of finite "
        "abelian groups: densities of linear-form systems, additive energy, "
        "inequality checks, and the reduction/witness pipeline.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("density", help="exact density of a linear-form system")
    p.add_argument("--group", required=True)
    _add_subset_options(p)
    p.add_argument("--system", required=True)
    _add_common(p, max_work=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("energy", help="additive energy of a subset")
    p.add_argument("--group", required=True)
    _add_subset_options(p)
    p.add_argument("--fourier", action="store_true", help="include the spectral value")
    _add_common(p)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("sumset", help="exact sumset A + B")
    p.add_argument("--group", required=True)
    _add_subset_options(p, "set-a")
    _add_subset_options(p, "set-b")
    _add_common(p)
    p.set_defaults(func=_cmd_sumset)

    p = sub.add_parser("doubling", help="doubling constant |A+A|/|A|")
    p.add_argument("--group", required=True)
    _add_subset_options(p)
    _add_common(p)
    p.set_defaults(func=_cmd_doubling)

    p = sub.add_parser("stabilizer", help="stabilizer subgroup of a subset")
    p.add_argument("--group", required=True)
    _add_subset_options(p)
    _add_common(p)
    p.set_defaults(func=_cmd_stabilizer)

    p = sub.add_parser("check", help="inequality checks, single or sweeping")
    kinds = p.add_mutually_exclusive_group(required=True)
    for flag, value in [
        ("--kneser", "kneser"),
        ("--plunnecke-ruzsa", "plunnecke-ruzsa"),
        ("--energy-doubling", "energy-doubling"),
        ("--energy-bound", "energy-bound"),
        ("--region-graph", "region-graph"),
        ("--region-energy", "region-energy"),
    ]:
        kinds.add_argument(flag, dest="kind", action="store_const", const=value)
    p.add_argument("--group")
    _add_subset_options(p)
    _add_subset_options(p, "set-a")
    _add_subset_options(p, "set-b")
    sweep = p.add_mutually_exclusive_group()
    sweep.add_argument("--exhaustive", action="store_true", default=None)
    sweep.add_argument(
        "--random", type=_int_at_least(0), help="number of random instances"
    )
    p.add_argument("--seed", type=_int_at_least(0, _MAX_SEED), help="random sweeps; default 0")
    p.add_argument("--r", type=int, help="Plunnecke-Ruzsa only; default 1")
    p.add_argument("--s", type=int, help="Plunnecke-Ruzsa only; default 1")
    p.add_argument("--x", help="first coordinate for region checks")
    p.add_argument("--y", help="second coordinate for region checks")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", help="assemble the reduction bundle for (q, k)")
    p.add_argument("--poly", required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("witness", help="build the explicit product-group witness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=_int_list, required=True, help="slice moduli, e.g. 3,3")
    p.add_argument("--subset-file", help="write the witness subset here")
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="exhaustive verifiers")
    vsub = p.add_subparsers(dest="what", required=True)

    v = vsub.add_parser("pinpoint", help="pin-down property of L and M")
    v.add_argument("--k", type=int, required=True)
    _add_common(v, max_work=True)
    v.set_defaults(func=_cmd_verify_pinpoint)

    v = vsub.add_parser("homdensity", help="graph-vs-forms density identities")
    v.add_argument("--group", required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--pairs", type=_int_at_least(0), default=50)
    v.add_argument("--seed", type=_int_at_least(0, _MAX_SEED), default=0)
    _add_common(v, max_work=True)
    v.set_defaults(func=_cmd_verify_homdensity)

    v = vsub.add_parser("witness", help="witness slices, pair and 3-cycle densities")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--n", type=_int_list, required=True)
    _add_common(v, max_work=True)
    v.set_defaults(func=_cmd_verify_witness)

    v = vsub.add_parser("delta-claims", help="derivative sign claims on a grid")
    v.add_argument("--step", default="1/1000")
    v.add_argument("--t-max", type=_int_at_least(0), default=20)
    _add_common(v, max_work=True)
    v.set_defaults(func=_cmd_verify_delta)

    v = vsub.add_parser("bollobas", help="breakpoint values and continuity")
    v.add_argument("--t-max", type=_int_at_least(0), default=100)
    _add_common(v)
    v.set_defaults(func=_cmd_verify_bollobas)

    p = sub.add_parser("estimate", help="Monte Carlo density estimate")
    p.add_argument("--group", required=True)
    _add_subset_options(p)
    p.add_argument("--system", required=True)
    p.add_argument("--samples", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0, _MAX_SEED), default=0)
    _add_common(p, max_work=True)
    p.set_defaults(func=_cmd_estimate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused for the rest of
    the process (building it costs milliseconds; importing stays cheap)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, violated = args.func(args)
        text = dump_json(report)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, MemoryError) as exc:
        print(f"resource cap: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (AddformsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if violated else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
