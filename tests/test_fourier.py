import random

import numpy as np
import pytest

import oracles
from conftest import subset_from_mask, subset_from_tuples

from addforms.abelian import FiniteAbelianGroup, GroupSubset, additive_energy
from addforms.errors import CapExceeded, GroupMismatchError
from addforms.fourier import (
    Spectrum,
    character,
    convolve,
    energy_fourier,
    fourier_transform,
    parseval_check,
)

TOL = 1e-9


def test_character_examples():
    z4 = FiniteAbelianGroup([4])
    x = z4.element([1])
    assert character(z4.identity(), x) == pytest.approx(1)
    assert character(z4.element([1]), x) == pytest.approx(1j)
    g = FiniteAbelianGroup([2, 2])
    assert character(g.element([1, 1]), g.element([1, 1])) == pytest.approx(1)
    for xi in g:
        for y in g:
            assert abs(abs(character(xi, y)) - 1) < TOL


def test_character_group_mismatch():
    with pytest.raises(GroupMismatchError):
        character(FiniteAbelianGroup([2]).element([1]), FiniteAbelianGroup([3]).element([1]))


def test_transform_mean_and_point_mass():
    z6 = FiniteAbelianGroup([6])
    a = subset_from_tuples(z6, [(0,), (2,), (3,)])
    spectrum = fourier_transform(a)
    assert spectrum[z6.identity()] == pytest.approx(float(a.density()), abs=TOL)
    point = subset_from_tuples(z6, [(0,)])
    for xi in z6:
        assert fourier_transform(point)[xi] == pytest.approx(1 / 6, abs=TOL)
    ones = fourier_transform(np.ones(6), z6)
    assert ones[0] == pytest.approx(1, abs=TOL)
    for i in range(1, 6):
        assert abs(ones[i]) < TOL


def test_transform_matches_defining_sum():
    moduli = (3, 2)
    group = FiniteAbelianGroup(moduli)
    rng = random.Random(1)
    values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(group.order)]
    expected = oracles.oracle_dft(moduli, values)
    got = fourier_transform(values, group)
    for i in range(group.order):
        assert got[i] == pytest.approx(expected[i], abs=TOL)


def test_spectrum_conjugate_symmetry_for_real_input():
    group = FiniteAbelianGroup([5, 2])
    rng = random.Random(2)
    values = [rng.uniform(-1, 1) for _ in range(group.order)]
    spectrum = fourier_transform(values, group)
    for xi in group:
        assert spectrum[-xi] == pytest.approx(spectrum[xi].conjugate(), abs=TOL)


def test_convolve_examples():
    z4 = FiniteAbelianGroup([4])
    a = subset_from_tuples(z4, [(0,), (1,)])
    conv = convolve(a, a, z4)
    assert conv[z4.element([1]).index()] == pytest.approx(2 / 4, abs=TOL)
    # convolving with the indicator of {0} scales by 1/|G|
    rng = random.Random(3)
    values = np.array([rng.uniform(-1, 1) for _ in range(4)])
    point = subset_from_tuples(z4, [(0,)])
    scaled = convolve(values, point, z4)
    assert np.allclose(scaled, values / 4, atol=TOL)
    zero = convolve(np.zeros(4), values, z4)
    assert np.allclose(zero, 0, atol=TOL)
    assert not np.iscomplexobj(conv) and not np.iscomplexobj(scaled)
    assert np.iscomplexobj(convolve(1j * values, point, z4))


def test_convolution_matches_representation_counts():
    from addforms.abelian import representation_vector

    for moduli in [(6,), (3, 3)]:
        group = FiniteAbelianGroup(moduli)
        rng = random.Random(4)
        for _ in range(5):
            a = subset_from_mask(group, rng.randrange(1 << group.order))
            conv = convolve(a, a, group)
            rvec = representation_vector(a) / group.order
            assert np.allclose(conv, rvec, atol=TOL)


def test_convolution_theorem():
    group = FiniteAbelianGroup([3, 4])
    rng = random.Random(5)
    f = np.array([rng.uniform(-1, 1) for _ in range(group.order)])
    g = np.array([rng.uniform(-1, 1) for _ in range(group.order)])
    lhs = fourier_transform(convolve(f, g, group), group).coefficients
    rhs = fourier_transform(f, group).coefficients * fourier_transform(g, group).coefficients
    assert np.allclose(lhs, rhs, atol=TOL)


def test_parseval_examples():
    z8 = FiniteAbelianGroup([8])
    a = subset_from_tuples(z8, [(0,), (3,), (5,)])
    lhs, rhs = parseval_check(a)
    assert lhs == pytest.approx(float(a.density()), abs=TOL)
    assert rhs == pytest.approx(float(a.density()), abs=TOL)
    assert parseval_check(np.zeros(8), z8) == (0.0, 0.0)
    lhs1, rhs1 = parseval_check(np.ones(8), z8)
    assert lhs1 == pytest.approx(1, abs=TOL)
    assert rhs1 == pytest.approx(1, abs=TOL)


def test_energy_fourier_examples():
    for n in [2, 3, 5, 9]:
        zn = FiniteAbelianGroup([n])
        assert energy_fourier(subset_from_tuples(zn, [(0,)])) == pytest.approx(
            1 / n**3, abs=TOL
        )
    z4 = FiniteAbelianGroup([4])
    a = subset_from_tuples(z4, [(0,), (1,)])
    assert energy_fourier(a) == pytest.approx(6 / 64, abs=TOL)
    assert energy_fourier(GroupSubset.empty(z4)) == pytest.approx(0, abs=TOL)


def test_energy_agreement_exhaustive_small_orders():
    for moduli in [(1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3)]:
        group = FiniteAbelianGroup(moduli)
        for mask in range(1 << group.order):
            a = subset_from_mask(group, mask)
            assert energy_fourier(a) == pytest.approx(
                float(additive_energy(a)), abs=TOL
            )


def test_energy_agreement_randomized_to_256():
    rng = np.random.Generator(np.random.Philox(key=99))
    presentations = [(64,), (100,), (128,), (3, 5, 7), (16, 16), (251,)]
    for moduli in presentations:
        group = FiniteAbelianGroup(moduli)
        for _ in range(4):
            a = GroupSubset(group, rng.random(group.order) < rng.uniform(0.1, 0.9))
            assert energy_fourier(a) == pytest.approx(
                float(additive_energy(a)), abs=TOL
            )


def test_coefficient_magnitude_bound():
    rng = np.random.Generator(np.random.Philox(key=7))
    for moduli in [(12,), (5, 5)]:
        group = FiniteAbelianGroup(moduli)
        for _ in range(5):
            a = GroupSubset(group, rng.random(group.order) < 0.5)
            alpha = float(a.density())
            coeffs = fourier_transform(a).coefficients
            assert np.all(np.abs(coeffs) <= alpha + TOL)
            assert (np.abs(coeffs) ** 2).sum() == pytest.approx(alpha, abs=TOL)


def test_transform_determinism():
    group = FiniteAbelianGroup([7, 3])
    a = subset_from_tuples(group, [(0, 0), (1, 2), (6, 1)])
    first = fourier_transform(a).coefficients
    second = fourier_transform(a).coefficients
    assert np.array_equal(first, second)
    assert energy_fourier(a) == energy_fourier(a)


def test_transform_beyond_former_direct_cap():
    group = FiniteAbelianGroup([1 << 15])
    rng = np.random.Generator(np.random.Philox(key=15))
    a = GroupSubset(group, rng.random(group.order) < 0.3)
    lhs, rhs = parseval_check(a)
    assert lhs == pytest.approx(float(a.density()), abs=TOL)
    assert rhs == pytest.approx(float(a.density()), abs=TOL)


def test_transform_group_order_cap():
    with pytest.raises(CapExceeded):
        fourier_transform(GroupSubset.empty(FiniteAbelianGroup([1 << 21])))


def test_spectrum_length_validation():
    group = FiniteAbelianGroup([4])
    with pytest.raises(ValueError):
        Spectrum(group, np.zeros(3))
