"""Characteristic-p center reduction of Weyl endomorphisms.

Over F_p the center of the Weyl algebra is the polynomial ring generated by
the p-th powers of the generators; writing X_i for Y_i^p, every relation-
verified endomorphism restricts to a polynomial endomorphism of those 2n
commutative variables.  The restriction is computed from the definition,
on the endomorphism's packed-key monomial-image engine
(:class:`canonalg.poly._Images`): the p-th power of each image is formed by
p products by that image, each power replacing the last, under
``CENTER_WORK_BUDGET``, and none is stored in the engine's cache.
Its packed keys are read straight into exponents of the X_i
(:func:`weyl.swap_blocks` orders the engine's fields), each checked to be
divisible by p (the power is central) and divided by p; no Weyl element is
formed.  A failed check is an internal error, not data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .poisson import PoissonContext, is_symplectic
from .poly import Poly, PolyEndo, _Images
from .weyl import WeylEndo, swap_blocks


# Terms the p products per generator of one restriction may form, bounded before
# each product: a term pair forms one term, times min(b, p - 1) + 1 (its Leibniz
# expansion) for each position exponent b of the right term that lowers a letter.
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


def induced_center_endo(endo: WeylEndo) -> CenterEndo:
    """The endomorphism induced on the center: sigma(Y_i)^p = sigma(Y_i^p),
    p products by the image of Y_i's letter on one image engine.
    Each of its packed keys is read in the order of X_1..X_2n
    (:func:`swap_blocks` of the engine's shifts); every exponent must be
    divisible by p, and the quotients key its term in the X_i = Y_i^p."""
    alg = endo.algebra
    ring, m = alg.ring, alg.ngens
    p = ring.characteristic()
    if p == 0:
        raise ValueError("center reduction needs prime-field coefficients")
    images = _Images(endo, p)
    mask, shifts = images.mask, swap_blocks(images.shifts)
    zero = Poly.zero(ring, m)
    out = []
    work = 0
    for i, shift in enumerate(shifts, start=1):
        right, lowers = images.letters[shift // images.width]
        formed = sum(prod([min(b, p - 1) + 1 for _, b, _ in lows]) for _, _, lows in right)
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
    """The center restriction of a relation-verified endomorphism must preserve
    the canonical bracket; a False result is a falsification event."""
    center = induced_center_endo(endo)
    ctx = PoissonContext(endo.algebra.ring, endo.algebra.n)
    return CenterSymplecticReport(center, is_symplectic(ctx, center.endo))
