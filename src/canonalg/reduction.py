"""Characteristic-p center reduction of Weyl endomorphisms.

Over F_p the center of the Weyl algebra is the polynomial ring generated by
the p-th powers of the generators; writing X_i for Y_i^p, every relation-
verified endomorphism restricts to a polynomial endomorphism of those 2n
commutative variables.

A central-tail map, whose every image is c_i * Y_i plus a tail z_i of
central terms (all exponents divisible by p), is read off with no product
(Tsuchimoto, Osaka J. Math. 42, 2005; Belov-Kanel and Kontsevich, Moscow
Math. J. 7, 2007): Y_i and the terms of z_i commute, so in characteristic p
sigma(Y_i)^p = c_i^p Y_i^p + z_i^p = c_i X_i + z_i^p, and a tail term
c x^g d^e gives c X^(e, g), so sigma|Z is the map's images read through
:func:`canonalg.weyl.dequantize`.  The test is per map, not per image.

Every other map's restriction is computed from the definition, on the
endomorphism's packed-key monomial-image engine
(:class:`canonalg.poly._Images`): the p-th power of each image is formed by
p products by that image, each power replacing the last, under
``CENTER_WORK_BUDGET``, and none is stored in the engine's cache.
Its packed keys are read straight into exponents of the X_i
(the map's ``_letter_order`` puts the engine's fields in generator order),
each checked to be divisible by p (the power is central) and divided by p;
no Weyl element is formed.  A failed check is an internal error, not data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poisson import is_symplectic
from .poly import Poly, PolyEndo, _Images
from .weyl import WeylElement, WeylEndo, dequantize, leibniz_terms, swap_blocks


# Terms the p products per generator of one restriction may form, bounded before
# each product: each term of the power times ``weyl.leibniz_terms`` of the image.
CENTER_WORK_BUDGET = 4_500_000


class CenterReductionError(AssertionError):
    """Centrality or divisibility failed; signals an arithmetic bug upstream."""


@dataclass(frozen=True)
class CenterEndo:
    """Induced endomorphism on the center."""

    endo: PolyEndo


@dataclass(frozen=True)
class CenterSymplecticReport:
    center: CenterEndo
    symplectic: bool


def central_tail(endo: WeylEndo) -> bool:
    """Whether every image is c_i * Y_i plus central terms: each term of the
    image of Y_i is Y_i (degree 1, at Y_i's letter of the flat key) or has
    every exponent 0 in the ring, the test :func:`canonalg.weyl.is_central`
    makes."""
    p = endo.ring.p
    for image, letter in zip(endo.images, swap_blocks(range(endo.algebra.nvars))):
        for key in image.terms:
            e = WeylElement._flat(key)
            if any([x % p if p else x for x in e]) and (sum(e) != 1 or not e[letter]):
                return False
    return True


def induced_center_endo(endo: WeylEndo) -> CenterEndo:
    """The endomorphism induced on the center: sigma(Y_i)^p = sigma(Y_i^p),
    read off a central-tail map, otherwise p products by the image of Y_i's
    letter on one image engine.  Each of its packed keys is read in the order
    of X_1..X_2n (``endo._letter_order`` of the engine's shifts); every exponent
    must be divisible by p, and the quotients key its term in the X_i = Y_i^p."""
    alg = endo.algebra
    ring, m = alg.ring, alg.nvars
    p = ring.characteristic()
    if p == 0:
        raise ValueError("center reduction needs prime-field coefficients")
    if central_tail(endo):
        return CenterEndo(PolyEndo(ring, m, [dequantize(image) for image in endo.images]))
    images = _Images(endo, p)
    mask, shifts = images.mask, endo._letter_order(images.shifts)
    zero = Poly.zero(ring, m)
    out = []
    work = 0
    for i, (image, (right, lowers)) in enumerate(zip(endo.images, endo._letter_order(images.letters)), start=1):
        formed = leibniz_terms(image)
        power = images.cache[0]
        for _ in range(p):
            work += len(power) * formed
            if work > CENTER_WORK_BUDGET:
                raise ValueError(f"the center restriction over F{p} exceeds the budget of {CENTER_WORK_BUDGET} terms")
            power = images._times(power, right, lowers)
        terms = {}
        for key, c in power.items():
            exps = [key >> s & mask for s in shifts]
            if any([e % p for e in exps]):
                text = images.unpacked(power, alg.one()).to_text()
                raise CenterReductionError(f"image {i} has non-central p-th power {text}")
            terms[tuple([e // p for e in exps])] = c
        out.append(zero._make(terms))
    return CenterEndo(PolyEndo(ring, m, out))


def check_center_symplectic(endo: WeylEndo) -> CenterSymplecticReport:
    """The center restriction of a relation-verified endomorphism must preserve the
    bracket of the algebra, its own Poisson context; False is a falsification event."""
    center = induced_center_endo(endo)
    return CenterSymplecticReport(center, is_symplectic(endo.algebra, center.endo))
