"""Independent brute-force oracles for the test suite.

Everything here works on plain residue tuples with itertools loops and never
calls into the package's vectorized paths, so these values can stand as
frozen expectations for the library.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def all_tuples(moduli):
    return itertools.product(*[range(n) for n in moduli])


def t_add(moduli, a, b):
    return tuple((x + y) % n for x, y, n in zip(a, b, moduli))


def t_scale(moduli, c, a):
    return tuple((c * x) % n for x, n in zip(a, moduli))


def t_neg(moduli, a):
    return t_scale(moduli, -1, a)


def oracle_sumset(moduli, a_set, b_set):
    return {t_add(moduli, a, b) for a in a_set for b in b_set}


def oracle_signed_sumset(moduli, b_set, r, s):
    acc = {tuple(0 for _ in moduli)}
    for _ in range(r):
        acc = oracle_sumset(moduli, acc, b_set)
    neg = {t_neg(moduli, b) for b in b_set}
    for _ in range(s):
        acc = oracle_sumset(moduli, acc, neg)
    return acc


def oracle_stabilizer(moduli, s_set):
    if not s_set:
        return set(all_tuples(moduli))
    out = set()
    for g in all_tuples(moduli):
        if {t_add(moduli, g, x) for x in s_set} == s_set:
            out.add(g)
    return out


def oracle_rep_counts(moduli, a_set):
    counts = {x: 0 for x in all_tuples(moduli)}
    for a1 in a_set:
        for a2 in a_set:
            counts[t_add(moduli, a1, a2)] += 1
    return counts


def oracle_energy_raw(moduli, a_set):
    count = 0
    for a1, a2, a3, a4 in itertools.product(a_set, repeat=4):
        if t_add(moduli, a1, a2) == t_add(moduli, a3, a4):
            count += 1
    return count


def eval_form_tuple(moduli, coeffs, assignment):
    total = tuple(0 for _ in moduli)
    for c, g in zip(coeffs, assignment):
        total = t_add(moduli, total, t_scale(moduli, c, g))
    return total


def oracle_density(moduli, forms, a_set, arity):
    """forms: list of (coeffs, negated); returns an exact Fraction."""
    order = 1
    for n in moduli:
        order *= n
    hits = 0
    for assignment in itertools.product(all_tuples(moduli), repeat=arity):
        ok = True
        for coeffs, negated in forms:
            value = eval_form_tuple(moduli, coeffs, assignment)
            if (value in a_set) == negated:
                ok = False
                break
        if ok:
            hits += 1
    return Fraction(hits, order**arity)


def oracle_completions(moduli, forms, a_set, prefix, arity):
    """The assignments of the variables after `prefix` (residue tuples) that
    satisfy every form, in index order; forms: list of (coeffs, negated)."""
    out = []
    for rest in itertools.product(all_tuples(moduli), repeat=arity - len(prefix)):
        assignment = tuple(prefix) + rest
        if all(
            (eval_form_tuple(moduli, coeffs, assignment) in a_set) != negated
            for coeffs, negated in forms
        ):
            out.append(rest)
    return out


def oracle_dft(moduli, values):
    """Expectation-normalized transform by the defining double sum."""
    import cmath

    order = len(values)
    tuples = list(all_tuples(moduli))
    out = []
    for xi in tuples:
        total = 0j
        for x, v in zip(tuples, values):
            phase = sum(a * b / n for a, b, n in zip(xi, x, moduli))
            total += v * cmath.exp(-2j * cmath.pi * phase)
        out.append(total / order)
    return out


def oracle_convolve(moduli, f_values, g_values):
    """(f * g)(x) = E_y f(x - y) g(y) by the defining sum, values in tuple order."""
    tuples = list(all_tuples(moduli))
    index = {t: i for i, t in enumerate(tuples)}
    out = []
    for x in tuples:
        total = 0j
        for y, gy in zip(tuples, g_values):
            total += f_values[index[t_add(moduli, x, t_neg(moduli, y))]] * gy
        out.append(total / len(tuples))
    return out


def group_presentations(max_order):
    """All nondecreasing factor tuples (each factor >= 2) with product up to
    max_order, plus the trivial group; covers every abelian group of order
    <= max_order up to isomorphism (with a few isomorphic duplicates)."""
    out = [(1,)]

    def rec(prefix, prod, smallest):
        for f in range(smallest, max_order // prod + 1):
            out.append(prefix + (f,))
            rec(prefix + (f,), prod * f, f)

    rec((), 1, 2)

    def prod(t):
        p = 1
        for v in t:
            p *= v
        return p

    return sorted(out, key=lambda t: (prod(t), len(t), t))
