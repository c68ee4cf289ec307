"""The inverse search as it was before the column echelon, kept as a test oracle.

Every degree cap builds its linear system from nothing: the monomial
images are scattered into dense rows indexed by the sorted term keys, and
the dense Gauss-Jordan oracle of ``linalg_oracle`` solves them.  The loop,
the system assembly and the reading-off of the inverse are the code
``canonalg.poly.Endo`` and the two search entry points used, moved here
unchanged; the tests compare the incremental search with it.

``image_cache`` and ``monomial_image`` are the tuple-keyed monomial-image
chain ``Endo._image_cache`` and ``Endo._monomial_image`` were before the
packed-key engine of ``canonalg.poly`` replaced them, moved here unchanged
(``self`` is the endomorphism): each image is the image of its prefix times
the last letter's image, an element product on tuple keys.

``checked_inverse`` is the two-sided check as it was before it ran on the
search's own image engine: it composes the candidate with the map on both
sides, as full endomorphisms.  ``compositions`` is the recursive
generator ``canonalg.poly.compositions`` was before it became a loop.
"""

from __future__ import annotations

from typing import Iterator

from linalg_oracle import scatter_rows, solve_many

from canonalg.poly import Exponents, monomials_upto


def compositions(total: int, k: int) -> Iterator[Exponents]:
    """All exponent vectors of length k with the given total, first entry largest."""
    if k == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, k - 1):
            yield (first,) + rest


def image_cache(self) -> dict:
    """Monomial images by flattened key, seeded with the empty monomial."""
    one = self.images[0]._one()
    return {(0,) * len(self.images): one}


def monomial_image(self, flat: Exponents, cache: dict):
    letters = self._letter_order(self.images)
    chain = []
    while flat not in cache:
        j = max(k for k, e in enumerate(flat) if e)
        chain.append((flat, j))
        flat = flat[:j] + (flat[j] - 1,) + flat[j + 1 :]
    for key, j in reversed(chain):
        cache[key] = cache[flat] * letters[j]
        flat = key
    return cache[flat]


def inverse_systems(endo, degree_cap: int):
    """The linear systems of the inverse search, one per degree cap.

    The inverse's images are unknown combinations of the monomials of
    degree <= cap; applying this map to them is linear in the unknowns,
    so ``self(psi(Y_i)) = Y_i`` is one system per cap with one right-hand
    side per generator.  Yields ``(cap, rows, rhs, basis)``: rows indexed
    by the sorted term keys that occur, one column per basis monomial
    (flattened keys), monomial images cached across caps.
    """
    ring = endo.ring
    if not ring.is_field():
        raise ValueError("inverse search needs field coefficients")
    targets = endo._generators()
    cache = image_cache(endo)
    zero = ring.zero()
    for cap in range(1, degree_cap + 1):
        basis = monomials_upto(len(targets), cap)
        columns = [monomial_image(endo, b, cache).terms for b in basis]
        row_keys = sorted({rk for col in columns for rk in col} | {rk for t in targets for rk in t.terms})
        rows = scatter_rows(columns, row_keys, zero)
        rhs = [[t.terms.get(rk, zero) for rk in row_keys] for t in targets]
        yield cap, rows, rhs, basis
        del rows, rhs  # so that two caps' dense systems are never alive at once


def checked_inverse(endo, basis: list, solutions: list):
    """The inverse read off one cap's solutions, None if a system had none.

    The candidate is built through the subclass constructor (a Weyl one
    verifies the relations) and must compose to the identity on both
    sides; a failure there is an internal bug, never a verdict.
    """
    if any(sol is None for sol in solutions):
        return None
    one = endo.images[0]._one()
    images = [one._make({one._unflat(b): c for b, c in zip(basis, sol)}) for sol in solutions]
    inverse = type(endo)(*endo._space(), images)
    if not endo.compose(inverse).is_identity() or not inverse.compose(endo).is_identity():
        raise AssertionError("one-sided inverse failed the two-sided check (internal bug)")
    return inverse


def inverse_search(endo, degree_cap: int):
    """(inverse, degree at which it was found), or (None, None): one
    from-scratch dense solve per degree cap, in increasing order."""
    for cap, rows, rhs, basis in inverse_systems(endo, degree_cap):
        solutions = solve_many(endo.ring, rows, rhs)
        del rows, rhs  # free this cap's dense system before the next is built
        inverse = checked_inverse(endo, basis, solutions)
        if inverse is not None:
            return inverse, cap
    return None, None
