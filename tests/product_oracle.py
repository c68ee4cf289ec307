"""The Ring-dispatched products, kept as test oracles.

``leibniz_mul`` and ``poly_mul`` are the bodies of ``WeylElement.__mul__``
and ``Poly.__mul__`` before those became plain-integer kernels, moved here
unchanged with the ``_falling`` helper only they used: every scalar
operation goes through ``Ring``, and every Leibniz weight is computed from
scratch and reduced before a zero one is dropped.  ``apply`` is
``Endo.apply`` built on them.  The tests compare the kernels with these.
"""

from __future__ import annotations

import itertools
from math import comb

from canonalg.poly import Exponents, Poly
from canonalg.weyl import TermKey, WeylElement


def _falling(b: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= b - t
    return out


def leibniz_mul(self: WeylElement, other: WeylElement) -> WeylElement:
    """Normal-ordered product via the operator Leibniz rule (see module doc)."""
    self._check(other)
    alg = self.algebra
    ring = alg.ring
    zero = ring.zero()
    out: dict[TermKey, object] = {}
    for (g1, d1), c1 in self.terms.items():
        for (g2, d2), c2 in other.terms.items():
            base = ring.mul(c1, c2)
            ranges = [range(min(a, b) + 1) for a, b in zip(d1, g2)]
            for lam in itertools.product(*ranges):
                weight = 1
                for a, b, l in zip(d1, g2, lam):
                    if l:
                        weight *= comb(a, l) * _falling(b, l)
                c = ring.mul(base, ring.of_int(weight))
                if c == 0:
                    continue
                key = (
                    tuple(x + y - l for x, y, l in zip(g1, g2, lam)),
                    tuple(x + y - l for x, y, l in zip(d1, d2, lam)),
                )
                out[key] = ring.add(out.get(key, zero), c)
    return self._make(out)


def poly_mul(self: Poly, other: Poly) -> Poly:
    self._check(other)
    ring = self.ring
    add, mul, zero = ring.add, ring.mul, ring.zero()
    out: dict[Exponents, object] = {}
    for e1, c1 in self.terms.items():
        for e2, c2 in other.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = add(out.get(e, zero), mul(c1, c2))
    return self._make(out)


def _mul(a, b):
    return leibniz_mul(a, b) if isinstance(a, WeylElement) else poly_mul(a, b)


def apply(endo, f):
    """``endo(f)`` term by term: each monomial image is a product of letter
    images, left to right, then scaled and summed through ``Ring``."""
    ring = endo.ring
    letters = endo._letter_images()
    one = endo.images[0]._one()
    add, mul, zero = ring.add, ring.mul, ring.zero()
    out: dict = {}
    for key, c in f.terms.items():
        image = one
        for letter, e in zip(letters, f._flat(key)):
            for _ in range(e):
                image = _mul(image, letter)
        for k, v in image.terms.items():
            out[k] = add(out.get(k, zero), mul(c, v))
    return f._make(out)


def compose(outer, inner):
    """``outer . inner`` built with :func:`apply`."""
    return type(outer)(*outer._space(), [apply(outer, im) for im in inner.images])
