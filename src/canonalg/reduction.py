"""Characteristic-p center reduction of Weyl endomorphisms.

Over F_p the center of the Weyl algebra is the polynomial ring generated by
the p-th powers of the generators; writing X_i for Y_i^p, every relation-
verified endomorphism restricts to a polynomial endomorphism of those 2n
commutative variables.  The restriction is computed from the definition:
the p-th power of each image is the image of the monomial Y_i^p, built one
letter at a time on the endomorphism's monomial-image engine
(:meth:`canonalg.poly.Endo.apply_each`), checked to be central (all
exponents divisible by p), and read back through :func:`weyl.dequantize`
with exponents divided by p.  A failed check is an internal error, not data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poisson import PoissonContext, is_symplectic
from .poly import Poly, PolyEndo
from .weyl import WeylEndo, dequantize, is_central, quantize


class CenterReductionError(AssertionError):
    """Centrality or divisibility failed; signals an arithmetic bug upstream."""


@dataclass(frozen=True)
class CenterEndo:
    """Induced endomorphism on the center, tagged with its source."""

    endo: PolyEndo
    source: WeylEndo


@dataclass(frozen=True)
class DegreeReport:
    deg_endo: int
    deg_center: int
    equal: bool


@dataclass(frozen=True)
class CenterSymplecticReport:
    center: CenterEndo
    symplectic: bool


def induced_center_endo(endo: WeylEndo) -> CenterEndo:
    """The endomorphism induced on the center: sigma(Y_i)^p = sigma(Y_i^p),
    each Y_i^p the quantized X_i^p, each image read back as a polynomial in
    the X_i = Y_i^p through :func:`dequantize`, its exponents divided by p."""
    alg = endo.algebra
    ring, m = alg.ring, alg.ngens
    p = ring.characteristic()
    if p == 0:
        raise ValueError("center reduction needs prime-field coefficients")
    powers = endo.apply_each([quantize(alg, Poly.variable(ring, m, i).frobenius()) for i in range(1, m + 1)])
    images = []
    for i, power in enumerate(powers, start=1):
        if not is_central(power):
            raise CenterReductionError(f"image {i} has non-central p-th power {power.to_text()}")
        f = dequantize(power)
        images.append(f._make({tuple(e // p for e in exps): c for exps, c in f.terms.items()}))
    return CenterEndo(PolyEndo(ring, m, images), endo)


def check_degree_preservation(endo: WeylEndo) -> DegreeReport:
    """deg of the endomorphism and of its center restriction; must agree."""
    return center_degree_report(induced_center_endo(endo))


def center_degree_report(center: CenterEndo) -> DegreeReport:
    """:func:`check_degree_preservation` on an already computed restriction."""
    deg_endo = center.source.degree()
    deg_center = center.endo.degree()
    return DegreeReport(deg_endo, deg_center, deg_endo == deg_center)


def check_center_symplectic(endo: WeylEndo) -> CenterSymplecticReport:
    """The center restriction of a relation-verified endomorphism must preserve
    the canonical bracket; a False result is a falsification event."""
    center = induced_center_endo(endo)
    ctx = PoissonContext(endo.algebra.ring, endo.algebra.n)
    return CenterSymplecticReport(center, is_symplectic(ctx, center.endo))
