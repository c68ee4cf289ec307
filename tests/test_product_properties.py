"""Property-based version of the product-kernel comparisons with the old kernels."""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import product_oracle  # noqa: E402
from canonalg.poly import Poly, PolyEndo  # noqa: E402
from canonalg.rings import GF, QQ, ZZ  # noqa: E402
from canonalg.weyl import WeylAlgebra, WeylElement, generate_weyl_automorphism  # noqa: E402
from test_products import assert_same  # noqa: E402
from util import weyl_mul_oracle  # noqa: E402

RINGS = [ZZ, QQ, GF(2), GF(3), GF(5), GF(10007)]


def coefficients(ring):
    if ring.kind == "Q":
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    if ring.kind == "Z":
        return st.integers(-6, 6)
    # residues near 0 and near p, so that sums wrap
    return st.one_of(st.integers(0, 3), st.integers(ring.p - 3, ring.p - 1))


def exponents(ring, cap):
    """Small exponents, plus multiples of p (central over F_p) where p is small."""
    small = st.integers(0, cap)
    if ring.kind == "Fp" and ring.p <= cap + 1:
        return st.one_of(small, st.sampled_from([ring.p, 2 * ring.p]))
    return small


@st.composite
def weyl_pairs(draw, cap):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 3 if cap < 2 else 2))
    algebra = WeylAlgebra(ring, n)
    key = st.tuples(*[exponents(ring, cap)] * n)

    def element():
        return WeylElement(algebra, draw(st.dictionaries(st.tuples(key, key), coefficients(ring), max_size=4)))

    return element(), element()


@st.composite
def poly_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    nvars = draw(st.integers(0, 3))
    key = st.tuples(*[st.integers(0, 5)] * nvars)

    def element():
        return Poly(ring, nvars, draw(st.dictionaries(key, coefficients(ring), max_size=6)))

    return element(), element()


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(weyl_pairs(cap=3))
def test_weyl_product_agrees_with_the_old_leibniz_product(pair):
    a, b = pair
    assert_same(a * b, product_oracle.leibniz_mul(a, b))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(weyl_pairs(cap=1))
def test_weyl_product_agrees_with_word_rewriting(pair):
    a, b = pair
    assert a * b == weyl_mul_oracle(a, b)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(poly_pairs())
def test_poly_product_agrees_with_the_old_kernel(pair):
    a, b = pair
    assert_same(a * b, product_oracle.poly_mul(a, b))


@st.composite
def poly_endos(draw):
    ring = draw(st.sampled_from(RINGS))
    m = draw(st.integers(1, 3))
    key = st.tuples(*[st.integers(0, 2)] * m)

    def element(size):
        return Poly(ring, m, draw(st.dictionaries(key, coefficients(ring), max_size=size)))

    f, g = (PolyEndo(ring, m, [element(3) for _ in range(m)]) for _ in range(2))
    return f, g, element(5)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(poly_endos())
def test_poly_endo_apply_and_compose_agree_with_the_old_kernel(case):
    f, g, h = case
    assert_same(f.apply(h), product_oracle.apply(f, h))
    assert f.compose(g) == product_oracle.compose(f, g)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(
    st.sampled_from(RINGS[1:]),
    st.integers(1, 2),
    st.integers(0, 10**6),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(1, 4), max_size=4),
)
def test_weyl_endo_apply_and_compose_agree_with_the_old_kernel(ring, n, seed, raw):
    algebra = WeylAlgebra(ring, n)
    f = generate_weyl_automorphism(algebra, seed, 2, 2)
    g = generate_weyl_automorphism(algebra, seed + 1, 2, 2)
    zero = (0,) * (n - 1)
    h = WeylElement(algebra, {((a,) + zero, (b,) + zero): c for (a, b), c in raw.items()})
    assert_same(f.apply(h), product_oracle.apply(f, h))
    assert f.compose(g) == product_oracle.compose(f, g)
