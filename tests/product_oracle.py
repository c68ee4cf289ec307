"""The Ring-dispatched products, and the checks built on products, kept as
test oracles.

``leibniz_mul`` and ``poly_mul`` are the bodies of ``WeylElement.__mul__``
and ``Poly.__mul__`` before those became plain-integer kernels, moved here
unchanged with the ``_falling`` helper only they used: every scalar
operation goes through ``Ring``, and every Leibniz weight is computed from
scratch and reduced before a zero one is dropped.  ``apply`` is
``Endo.apply`` built on them.

``is_central``, ``poisson_bracket``/``is_symplectic`` and
``induced_center_endo`` are the earlier bodies of the functions of those
names, which formed products only to cancel them: commutators with every
generator, products of ``partial`` polynomials, and p-th powers by repeated
squaring.  ``read_central_by_hand`` is the engine route of
``induced_center_endo`` before it read its images through
``weyl.dequantize``, and ``read_central_by_dequantize`` the route after
that, before it read them off packed keys: each Y_i^p a quantized
element, its image unpacked, tested by ``weyl.is_central`` and read back
through ``weyl.dequantize``.  ``evaluate`` is ``Poly.evaluate`` with one
``Ring`` product per unit of each exponent.  The tests compare the kernels
with these.
"""

from __future__ import annotations

import itertools
from math import comb

from canonalg.poisson import PoissonContext
from canonalg.poly import Exponents, Poly, PolyEndo
from canonalg.reduction import CenterEndo, CenterReductionError
from canonalg import weyl
from canonalg.weyl import TermKey, WeylElement, WeylEndo, central_monomial, commutator, dequantize, quantize


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


def is_central(a: WeylElement) -> bool:
    """Commutes with every generator."""
    return all(commutator(a, g).is_zero() for g in a.algebra.generators())


def poisson_bracket(ctx: PoissonContext, f: Poly, g: Poly) -> Poly:
    if f.nvars != ctx.nvars or g.nvars != ctx.nvars or f.ring != ctx.ring:
        raise ValueError("bracket operands must live in 2n variables over the context ring")
    acc = Poly.zero(ctx.ring, ctx.nvars)
    for i in range(1, ctx.n + 1):
        acc = acc + f.partial(i) * g.partial(i + ctx.n) - f.partial(i + ctx.n) * g.partial(i)
    return acc


def is_symplectic(ctx: PoissonContext, endo: PolyEndo) -> bool:
    """Every pairwise bracket of the images against the identity's."""
    ident = [Poly.variable(ctx.ring, ctx.nvars, i) for i in range(1, ctx.nvars + 1)]
    return all(
        poisson_bracket(ctx, endo.images[i], endo.images[j]) == poisson_bracket(ctx, ident[i], ident[j])
        for i in range(ctx.nvars)
        for j in range(i + 1, ctx.nvars)
    )


def _read_central(elem: WeylElement, p: int) -> Poly:
    alg = elem.algebra
    terms = {}
    for (g, d), c in elem.terms.items():
        if any(e % p for e in g) or any(e % p for e in d):
            raise CenterReductionError(f"exponents of {elem.to_text()} are not all divisible by {p}")
        terms[tuple(e // p for e in d) + tuple(e // p for e in g)] = c
    return Poly(alg.ring, 2 * alg.n, terms)


def induced_center_endo(endo: WeylEndo) -> CenterEndo:
    """The endomorphism induced on the center, from p-fold image powers."""
    ring = endo.algebra.ring
    p = ring.characteristic()
    if p == 0:
        raise ValueError("center reduction needs prime-field coefficients")
    images = []
    for i, im in enumerate(endo.images, start=1):
        power = im**p
        if not is_central(power):
            raise CenterReductionError(f"image {i} has non-central p-th power {power.to_text()}")
        images.append(_read_central(power, p))
    return CenterEndo(PolyEndo(ring, 2 * endo.algebra.n, images))


def read_central_by_hand(endo: WeylEndo) -> CenterEndo:
    """The engine route to the center restriction before ``weyl.dequantize``:
    sigma of each ``central_monomial`` Y_i^p, read off by a key map written
    here, exponents d/p on X_1..X_n and g/p on X_{n+1}..X_2n."""
    alg = endo.algebra
    p = alg.ring.characteristic()
    powers = endo.apply_each([central_monomial(alg, *key) for gen in alg.generators() for key in gen.terms])
    images = [
        Poly(alg.ring, 2 * alg.n, {tuple(e // p for e in d) + tuple(e // p for e in g): c for (g, d), c in power.terms.items()})
        for power in powers
    ]
    return CenterEndo(PolyEndo(alg.ring, 2 * alg.n, images))


def read_central_by_dequantize(endo: WeylEndo) -> CenterEndo:
    """sigma(Y_i)^p = sigma(Y_i^p), each Y_i^p the quantized X_i^p, each
    image read back as a polynomial in the X_i = Y_i^p through
    ``dequantize``, its exponents divided by p."""
    alg = endo.algebra
    ring, m = alg.ring, alg.ngens
    p = ring.characteristic()
    if p == 0:
        raise ValueError("center reduction needs prime-field coefficients")
    powers = endo.apply_each([quantize(alg, Poly.variable(ring, m, i).frobenius()) for i in range(1, m + 1)])
    images = []
    for i, power in enumerate(powers, start=1):
        if not weyl.is_central(power):
            raise CenterReductionError(f"image {i} has non-central p-th power {power.to_text()}")
        f = dequantize(power)
        images.append(f._make({tuple(e // p for e in exps): c for exps, c in f.terms.items()}))
    return CenterEndo(PolyEndo(ring, m, images))


def evaluate(f: Poly, point):
    ring = f.ring
    acc = ring.zero()
    for exps, c in f.terms.items():
        v = c
        for e, a in zip(exps, point):
            for _ in range(e):
                v = ring.mul(v, a)
        acc = ring.add(acc, v)
    return acc
