"""Characters, Fourier transform, convolution and Parseval machinery on a
finite abelian group.

Everything here is double precision and expectation-normalized.  The group
index is C-order mixed radix, so a function table reshaped to the group's
moduli is exactly the array `numpy.fft.fftn` transforms: one O(|G| log |G|)
transform per call, up to the group-order cap.  On Z2^k the characters are
+-1, so the transform of a subset's indicator is its integer Walsh-Hadamard
transform (`abelian._walsh_hadamard`, int64 butterflies) divided by |G|: the
same floats as `numpy.fft.fftn`, bit for bit, without its pass per length-2
axis.  Other functions and groups go through `numpy.fft`.  The exact
counting path in `abelian` stays authoritative (its FFT convolutions are
certified to round to the exact integers, or recounted pairwise); this
module verifies it spectrally.  The same input gives bit-identical output
on repeated runs.
"""

from __future__ import annotations

import cmath
from typing import Sequence, Union

import numpy as np

from .abelian import FiniteAbelianGroup, GroupElement, GroupSubset, _walsh_hadamard
from .errors import GroupMismatchError

FunctionLike = Union[GroupSubset, Sequence[complex], np.ndarray]


class Spectrum:
    """Fourier coefficients of a function on a group, indexed like elements."""

    __slots__ = ("group", "coefficients")

    def __init__(self, group: FiniteAbelianGroup, coefficients: np.ndarray):
        coefficients = np.asarray(coefficients, dtype=np.complex128).copy()
        if coefficients.shape != (group.order,):
            raise ValueError(f"spectrum must have length {group.order}")
        coefficients.flags.writeable = False
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Spectrum is immutable")

    def __getitem__(self, xi: Union[GroupElement, int]) -> complex:
        if isinstance(xi, GroupElement):
            if xi.group != self.group:
                raise GroupMismatchError("frequency from a different group")
            return complex(self.coefficients[xi.index()])
        return complex(self.coefficients[xi])

    def __len__(self) -> int:
        return self.group.order


def character(xi: GroupElement, x: GroupElement) -> complex:
    """chi_xi(x) = exp(2 pi i sum_t xi_t x_t / n_t); unit modulus."""
    if xi.group != x.group:
        raise GroupMismatchError("character arguments from different groups")
    phase = sum(
        a * b / n for a, b, n in zip(xi.residues, x.residues, xi.group.moduli)
    )
    return cmath.exp(2j * cmath.pi * phase)


def function_values(group: FiniteAbelianGroup, f: FunctionLike) -> np.ndarray:
    """Materialize a function on G as a complex array over element indices."""
    if isinstance(f, GroupSubset):
        if f.group != group:
            raise GroupMismatchError("subset from a different group")
        return f.bits.astype(np.complex128)
    values = np.asarray(f, dtype=np.complex128)
    if values.shape != (group.order,):
        raise ValueError(f"function table must have length {group.order}")
    return values


def _table(group: FiniteAbelianGroup, values: np.ndarray) -> np.ndarray:
    """Values over element indices as the moduli-shaped array the FFT acts on."""
    return values.reshape(group.moduli)


def fourier_transform(f: FunctionLike, group: FiniteAbelianGroup | None = None) -> Spectrum:
    """Expectation-normalized transform: fhat(xi) = E_x f(x) conj(chi_xi(x))."""
    if group is None:
        if not isinstance(f, GroupSubset):
            raise ValueError("group required unless f is a GroupSubset")
        group = f.group
    values = function_values(group, f)
    if isinstance(f, GroupSubset) and max(group.moduli) <= 2:
        coefficients = _walsh_hadamard(f.bits.astype(np.int64))
    else:
        coefficients = np.fft.fftn(_table(group, values)).ravel()
    return Spectrum(group, coefficients / group.order)


def convolve(f: FunctionLike, g: FunctionLike, group: FiniteAbelianGroup) -> np.ndarray:
    """(f * g)(x) = E_y f(x - y) g(y), returned as an array over element indices.

    The result is real when both f and g are real-valued.
    """
    fv = function_values(group, f)
    gv = function_values(group, g)
    spectra = np.fft.fftn(_table(group, fv)) * np.fft.fftn(_table(group, gv))
    out = np.fft.ifftn(spectra).ravel() / group.order
    if fv.imag.any() or gv.imag.any():
        return out
    return out.real


def parseval_check(f: FunctionLike, group: FiniteAbelianGroup | None = None) -> tuple[float, float]:
    """Both sides of sum_xi |fhat(xi)|^2 = E_x |f(x)|^2."""
    if group is None:
        if not isinstance(f, GroupSubset):
            raise ValueError("group required unless f is a GroupSubset")
        group = f.group
    spectrum = fourier_transform(f, group)
    lhs = float((np.abs(spectrum.coefficients) ** 2).sum())
    values = function_values(group, f)
    rhs = float((np.abs(values) ** 2).sum() / group.order)
    return lhs, rhs


def energy_fourier(a: GroupSubset) -> float:
    """Normalized additive energy computed spectrally: sum_xi |Ahat(xi)|^4."""
    spectrum = fourier_transform(a)
    mags = np.abs(spectrum.coefficients)
    return float((mags**4).sum())
