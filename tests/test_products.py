"""The integer product kernels against the Ring-dispatched products they replaced.

``WeylElement.__mul__`` is compared with both oracles: the word-rewriting
product of ``util`` and the old Leibniz product of ``product_oracle``;
``Poly.__mul__`` and ``Endo.apply``/``compose`` with the old kernels.  The
inputs cover Z, Q and F_p up to F10007, n up to 3, exponents at and past p,
central p-divisible terms (whose Leibniz weights all vanish past l = 0) and
sums that cancel mod p.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, perm

import pytest

import product_oracle
from canonalg.poly import Poly, PolyEndo
from canonalg.rings import GF, QQ, ZZ, Ring
from canonalg.weyl import (
    WeylAlgebra,
    WeylElement,
    _leibniz_weights,
    central_monomial,
    commutator,
    generate_weyl_automorphism,
)
from util import random_coeff, random_poly, weyl_corpus, weyl_mul_oracle

RINGS = [ZZ, QQ, GF(2), GF(3), GF(5), GF(10007)]


def assert_normalized(x):
    """Every coefficient a nonzero ring element of the ring's own type."""
    ring = x.ring
    for c in x.terms.values():
        assert type(c) is (Fraction if ring.kind == "Q" else int)
        assert c != 0
        if ring.kind == "Fp":
            assert 0 < c < ring.p


def assert_same(kernel, oracle):
    assert_normalized(kernel)
    assert kernel == oracle


def random_element(rng: random.Random, algebra: WeylAlgebra, exps: list[int], central: bool = False) -> WeylElement:
    """One to three terms with exponents drawn from ``exps``; with ``central``,
    over F_p, some are central monomials of exponent p or 0 instead."""
    ring, n = algebra.ring, algebra.n
    acc = algebra.zero()
    for _ in range(rng.randint(1, 3)):
        g = tuple(rng.choice(exps) for _ in range(n))
        d = tuple(rng.choice(exps) for _ in range(n))
        c = random_coeff(rng, ring, nonzero=True)
        if central and ring.kind == "Fp" and rng.random() < 0.3:
            acc = acc + central_monomial(algebra, [e % 2 for e in g], [e % 2 for e in d]).scale(c)
        else:
            acc = acc + WeylElement(algebra, {(g, d): c})
    return acc


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_weyl_product_against_both_oracles(ring: Ring, n: int):
    rng = random.Random(1000 * n + ring.p)
    algebra = WeylAlgebra(ring, n)
    # the rewriting oracle expands every word, so the words stay short
    exps = [0, 0, 1, 2] if ring.p in (0, 2, 3) or n == 1 else [0, 0, 1]
    central = ring.p <= 3  # central terms of exponent 5 or 10007 are too long as words
    for _ in range(12 if n < 3 else 6):
        a = random_element(rng, algebra, exps, central)
        b = random_element(rng, algebra, exps, central)
        product = a * b
        assert_same(product, product_oracle.leibniz_mul(a, b))
        assert product == weyl_mul_oracle(a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 10007])
def test_weyl_product_exponents_at_and_past_p(p: int, n: int):
    """Exponents p - 1, p, p + 1 and 2p, where pruned weights matter."""
    rng = random.Random(7 * p + n)
    algebra = WeylAlgebra(GF(p), n)
    big = [p - 1, p, p + 1, 2 * p]
    # the old product loops over every l <= min(d1_i, g2_i) and computes each
    # weight from scratch, so at F10007 the large exponents are only put in
    # the position block; a small d1_i against g2_i >= p is where weights
    # vanish mod p all the same
    slots = 2 * n if p < 100 else n
    for _ in range(8):
        factors = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                flat = [rng.choice([0, 0, 1, 2]) for _ in range(2 * n)]
                flat[rng.randrange(slots)] = rng.choice(big)
                terms[(tuple(flat[:n]), tuple(flat[n:]))] = rng.randint(1, p - 1)
            factors.append(WeylElement(algebra, terms))
        a, b = factors
        assert_same(a * b, product_oracle.leibniz_mul(a, b))
        assert_same(b * a, product_oracle.leibniz_mul(b, a))


def test_leibniz_weight_table():
    for p in (0, 2, 3, 5, 101):
        sizes = [0, 1, 2, 3, 7] if p == 0 else [0, 1, 2, p - 1, p, p + 1, 2 * p - 1, 2 * p, 2 * p + 1, 3 * p]
        for a in sizes:
            for b in sizes:
                weights = ((l, comb(a, l) * perm(b, l)) for l in range(min(a, b) + 1))
                expected = tuple((l, w % p if p else w) for l, w in weights if (w % p if p else w))
                assert _leibniz_weights(a, b, p) == expected
    q = 10007
    assert _leibniz_weights(q, q, q) == ((0, 1),)
    assert _leibniz_weights(q + 1, q + 1, q) == ((0, 1), (1, 1))
    assert _leibniz_weights(2, q + 1, q) == ((0, 1), (1, 2))


def test_leibniz_weights_stop_at_p_minus_one():
    # the weights mod p, from l = 0 to p - 1, against exact integers to min(a, b) reduced afterwards
    def exact(a, b, p):
        out, w = [], 1
        for l in range(min(a, b) + 1):
            w = w * (a - l + 1) * (b - l + 1) // l if l else 1  # binom(a, l) * falling(b, l)
            if w % p if p else w:
                out.append((l, w % p if p else w))
        return tuple(out)

    weights = _leibniz_weights.__wrapped__  # uncached, so each call runs the loop
    for p in (0, 2, 3, 5, 7, 11, 13):
        for a in range(40):
            for b in range(40):
                assert weights(a, b, p) == exact(a, b, p), (a, b, p)
    q = 10007
    for a, b in ((q - 1, q + 1), (q + 1, q + 1)):
        assert weights(a, b, q) == exact(a, b, q), (a, b)
    # exponent 10^6 over F2: two weights, found without a million-step loop
    assert weights(10**6 + 1, 10**6 + 1, 2) == ((0, 1), (1, 1))


@pytest.mark.parametrize("p", [2, 3, 5, 10007])
def test_weyl_products_that_cancel_mod_p(p: int):
    F = GF(p)
    for n in (1, 2):
        algebra = WeylAlgebra(F, n)
        d, x = algebra.generator(1), algebra.generator(n + 1)
        xp = x**p
        # d x^p = x^p d + p x^(p-1): the l = 1 term vanishes mod p
        assert_same(d * xp, product_oracle.leibniz_mul(d, xp))
        assert d * xp == xp * d
        # (x + 1)(x - 1) = x^2 - 1: the x terms sum to zero mod p
        one = algebra.one()
        prod = (x + one) * (x - one)
        assert_same(prod, x * x - one)
        assert (algebra.zero() * prod).is_zero() and (prod * algebra.zero()).is_zero()
        # central elements commute with everything; their commutators are zero
        z = central_monomial(algebra, [1] * n, [1] * n) + central_monomial(algebra, [0] * n, [2] + [0] * (n - 1))
        for gen in algebra.generators():
            assert commutator(z, gen).is_zero()
            assert_same(z * gen, product_oracle.leibniz_mul(z, gen))
            assert_same(gen * z, product_oracle.leibniz_mul(gen, z))
    # over Z and Q the same weight survives
    for ring in (ZZ, QQ):
        algebra = WeylAlgebra(ring, 1)
        d, x = algebra.generator(1), algebra.generator(2)
        assert d * x**p == x**p * d + (x ** (p - 1)).scale(p)


@pytest.mark.parametrize("nvars", [0, 1, 2, 3])
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_poly_product_against_old_kernel(ring: Ring, nvars: int):
    rng = random.Random(31 * nvars + ring.p)
    for _ in range(15):
        a = random_poly(rng, ring, nvars, 6, terms=5) if nvars else Poly.const(ring, 0, random_coeff(rng, ring))
        b = random_poly(rng, ring, nvars, 6, terms=5) if nvars else Poly.const(ring, 0, random_coeff(rng, ring))
        assert_same(a * b, product_oracle.poly_mul(a, b))
    if ring.p:
        x = Poly.variable(ring, 1, 1)
        one = Poly.one(ring, 1)
        # the middle binomial coefficients vanish mod p, and x - x cancels
        if ring.p < 100:
            assert_same((x + one) ** ring.p, Poly.monomial(ring, 1, (ring.p,)) + one)
        assert_same((x + one) * (x - one), x * x - one)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_poly_endo_apply_and_compose_against_old_kernel(ring: Ring):
    rng = random.Random(ring.p + 5)
    for m in (1, 2, 3):
        for _ in range(4):
            f = PolyEndo(ring, m, [random_poly(rng, ring, m, 3) for _ in range(m)])
            g = PolyEndo(ring, m, [random_poly(rng, ring, m, 3) for _ in range(m)])
            h = random_poly(rng, ring, m, 4, terms=5)
            for im in f.apply(h), *f.compose(g).images:
                assert_normalized(im)
            assert f.apply(h) == product_oracle.apply(f, h)
            assert f.compose(g) == product_oracle.compose(f, g)


def test_compose_with_exponents_past_sixteen_bits():
    """X1 -> X1^300 + X2 composed with itself reaches X1^90000: the packed
    fields must widen with the degrees, past 16 bits."""
    ring = GF(10007)
    x1, x2 = Poly.variable(ring, 2, 1), Poly.variable(ring, 2, 2)
    f = PolyEndo(ring, 2, [x1**300 + x2, x2])
    composed = f.compose(f)
    assert composed == product_oracle.compose(f, f)
    assert composed.images[0].degree() == 90000


def test_weyl_endo_apply_and_compose_against_old_kernel():
    rng = random.Random(77)
    corpus = weyl_corpus()[::6]
    corpus += [generate_weyl_automorphism(WeylAlgebra(QQ, n), 40 + n, 3, 2) for n in (1, 2)]
    for f in corpus:
        g = corpus[rng.randrange(len(corpus))]
        if g.algebra != f.algebra:
            g = f
        h = random_element(rng, f.algebra, [0, 1, 2])
        image = f.apply(h)
        assert_same(image, product_oracle.apply(f, h))
        composed = f.compose(g)
        assert composed == product_oracle.compose(f, g)
        for im in composed.images:
            assert_normalized(im)
