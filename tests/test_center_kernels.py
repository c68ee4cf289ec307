"""The center restriction's kernels against the product-based oracles.

``weyl.is_central`` reads centrality off the exponents, ``poisson_bracket``
is one term-pair kernel and ``induced_center_endo`` takes sigma(Y_i)^p as
sigma(Y_i^p) on the image engine, read off its packed keys;
``product_oracle`` keeps the versions that form commutators, products of
partials and repeated squares, and the element route through
``weyl.dequantize``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import product_oracle  # noqa: E402
from canonalg.conjectures import check_instance, extension_degree_estimate  # noqa: E402
from canonalg.poisson import (  # noqa: E402
    PoissonContext,
    generate_symplectomorphism,
    is_symplectic,
    poisson_bracket,
)
from canonalg.poly import Poly, PolyEndo, _Images  # noqa: E402
from canonalg.reduction import CenterReductionError, induced_center_endo  # noqa: E402
from canonalg.rings import GF, QQ, ZZ  # noqa: E402
from canonalg.weyl import (  # noqa: E402
    WeylAlgebra,
    WeylElement,
    WeylEndo,
    generate_central_perturbation,
    generate_weyl_automorphism,
    is_central,
    leibniz_terms,
    pair_scaling,
    pair_swap,
)
from test_product_properties import coefficients  # noqa: E402
from test_products import assert_same  # noqa: E402
from util import weyl_corpus  # noqa: E402

RINGS = [ZZ, QQ, GF(2), GF(3), GF(5), GF(10007)]
PRIMES = [GF(2), GF(3), GF(5)]


def central_exponents(ring):
    """Small exponents, and exponents at, just past and at multiples of p
    (over Z and Q: of 5)."""
    p = ring.p or 5
    return st.one_of(st.integers(0, 3), st.sampled_from([p - 1, p, p + 1, 2 * p, 3 * p]))


@st.composite
def weyl_elements(draw):
    ring = draw(st.sampled_from(RINGS))
    algebra = WeylAlgebra(ring, draw(st.integers(1, 2)))
    key = st.tuples(*[central_exponents(ring)] * algebra.n)
    return WeylElement(algebra, draw(st.dictionaries(st.tuples(key, key), coefficients(ring), max_size=4)))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(weyl_elements())
def test_is_central_agrees_with_commutators(a):
    assert is_central(a) == product_oracle.is_central(a)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(
    st.sampled_from(PRIMES),
    st.integers(1, 2),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(1, 4), min_size=1, max_size=3),
)
def test_is_central_agrees_with_commutators_on_real_pth_powers(ring, n, raw):
    algebra = WeylAlgebra(ring, n)
    zero = (0,) * (n - 1)
    a = WeylElement(algebra, {((g,) + zero, (d,) + zero): c for (g, d), c in raw.items()})
    power = a**ring.p
    assert is_central(power) == product_oracle.is_central(power)
    off = power + WeylElement(algebra, {((ring.p - 1,) + zero, (0,) * n): 1})  # one short of p
    assert is_central(off) == product_oracle.is_central(off)


@st.composite
def bracket_cases(draw):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 2))
    key = st.tuples(*[st.integers(0, 3)] * (2 * n))

    def poly():
        return Poly(ring, 2 * n, draw(st.dictionaries(key, coefficients(ring), max_size=5)))

    return PoissonContext(ring, n), poly(), poly()


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(bracket_cases())
def test_poisson_bracket_agrees_with_products_of_partials(case):
    ctx, f, g = case
    assert_same(poisson_bracket(ctx, f, g), product_oracle.poisson_bracket(ctx, f, g))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(RINGS[1:]), st.integers(1, 2), st.integers(0, 10**6), st.data())
def test_is_symplectic_agrees_with_products_of_partials(ring, n, seed, data):
    ctx = PoissonContext(ring, n)
    sym = generate_symplectomorphism(ctx, seed, 3, 3)
    assert is_symplectic(ctx, sym) and product_oracle.is_symplectic(ctx, sym)
    # add a random poly to one image: mostly not symplectic any more
    key = st.tuples(*[st.integers(0, 3)] * (2 * n))
    f = Poly(ring, 2 * n, data.draw(st.dictionaries(key, coefficients(ring), max_size=3)))
    i = data.draw(st.integers(0, 2 * n - 1))
    bent = PolyEndo(ring, 2 * n, [im + f if k == i else im for k, im in enumerate(sym.images)])
    assert is_symplectic(ctx, bent) == product_oracle.is_symplectic(ctx, bent)


def test_is_symplectic_names_the_pair():
    # the pairing is {X_i, X_{i+n}} = 1: swapping the blocks negates it
    for ring in (QQ, GF(3)):
        ctx = PoissonContext(ring, 2)
        x = [Poly.variable(ring, 4, i) for i in range(1, 5)]
        assert is_symplectic(ctx, PolyEndo.identity(ring, 4))
        assert not is_symplectic(ctx, PolyEndo(ring, 4, [x[2], x[3], x[0], x[1]]))
        assert is_symplectic(ctx, PolyEndo(ring, 4, [x[2], x[3], -x[0], -x[1]]))
        assert not is_symplectic(ctx, PolyEndo(ring, 4, [x[0], x[2], x[1], x[3]]))


def test_center_restriction_agrees_with_pth_powers_on_the_corpus():
    corpus = weyl_corpus()
    assert len(corpus) == 117
    for endo in corpus:
        assert induced_center_endo(endo).endo == product_oracle.induced_center_endo(endo).endo


def test_leibniz_terms_is_the_count_the_engine_letters_gave_on_the_corpus():
    # the count the center restriction made from its engine: per letter-image term, the product of
    # min(b, p - 1) + 1 over the position exponents b that lower a letter
    for endo in weyl_corpus():
        p = endo.ring.p
        letters = endo._letter_order(_Images(endo, p).letters)
        engine = [sum(prod([min(b, p - 1) + 1 for _, b, _ in lows]) for _, _, lows in right) for right, _ in letters]
        assert [leibniz_terms(image) for image in endo.images] == engine


def test_center_restriction_reads_what_the_hand_written_key_map_read_on_the_corpus():
    for endo in weyl_corpus():
        got, want = induced_center_endo(endo).endo, product_oracle.read_central_by_hand(endo).endo
        assert [list(im.terms.items()) for im in got.images] == [list(im.terms.items()) for im in want.images]


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(st.sampled_from(PRIMES), st.integers(1, 2), st.integers(0, 10**6), st.booleans())
def test_center_restriction_agrees_on_seeded_maps(ring, n, seed, perturbed):
    algebra = WeylAlgebra(ring, n)
    if perturbed:
        endo = generate_central_perturbation(algebra, seed)
    else:
        endo = generate_weyl_automorphism(algebra, seed, 3, 3 if n == 1 else 2)
    assert induced_center_endo(endo).endo == product_oracle.induced_center_endo(endo).endo


@hypothesis.settings(max_examples=4, deadline=None)
@hypothesis.given(st.integers(0, 10**6))
def test_center_restriction_agrees_at_a_large_prime(seed):
    # swaps and scalings only: every image power stays one term
    ring, rng = GF(10007), random.Random(seed)
    algebra = WeylAlgebra(ring, 2)
    endo = WeylEndo.identity(algebra)
    for _ in range(3):
        i = rng.randint(1, 2)
        step = pair_swap(algebra, i) if rng.random() < 0.5 else pair_scaling(algebra, i, rng.randint(1, 10006))
        endo = step.compose(endo)
    assert induced_center_endo(endo).endo == product_oracle.induced_center_endo(endo).endo


def same_terms_in_order(got: PolyEndo, want: PolyEndo) -> None:
    assert [list(im.terms.items()) for im in got.images] == [list(im.terms.items()) for im in want.images]


@st.composite
def center_cases(draw):
    """Over F2, F3, F5 generated automorphisms and central perturbations,
    n = 1..3 (degree at most 2 past n = 1); over F10007 swaps and
    scalings, whose p-th powers stay one term."""
    ring = draw(st.sampled_from(PRIMES + [GF(10007)]))
    algebra = WeylAlgebra(ring, draw(st.integers(1, 3)))
    seed = draw(st.integers(0, 10**6))
    if ring.p > 5:
        rng, endo = random.Random(seed), WeylEndo.identity(algebra)
        for _ in range(3):
            i = rng.randint(1, algebra.n)
            unit = rng.randint(1, ring.p - 1)
            endo = (pair_swap(algebra, i) if rng.random() < 0.5 else pair_scaling(algebra, i, unit)).compose(endo)
        return endo
    if draw(st.booleans()):
        return generate_central_perturbation(algebra, seed)
    return generate_weyl_automorphism(algebra, seed, 3, 3 if algebra.n == 1 else 2)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(center_cases())
def test_center_restriction_reads_off_packed_keys_what_dequantize_read(endo):
    same_terms_in_order(induced_center_endo(endo).endo, product_oracle.read_central_by_dequantize(endo).endo)


@pytest.mark.parametrize("ring", PRIMES, ids=str)
def test_a_non_central_power_raises_the_message_of_the_element_route(ring, monkeypatch):
    """An engine whose images all gain a term of exponent 1 in the first
    letter, which no p divides: both routes name the same image and power."""
    algebra = WeylAlgebra(ring, 2)
    endo = generate_weyl_automorphism(algebra, 11, 3, 2)
    times = _Images._times
    monkeypatch.setattr(_Images, "_times", lambda self, *args: {**times(self, *args), self.units[0]: 1})
    with pytest.raises(CenterReductionError) as got:
        induced_center_endo(endo)
    with pytest.raises(CenterReductionError) as want:
        product_oracle.read_central_by_dequantize(endo)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("image 1 has non-central p-th power ")


def test_center_restriction_refuses_characteristic_zero():
    for ring in (ZZ, QQ):
        with pytest.raises(ValueError):
            induced_center_endo(WeylEndo.identity(WeylAlgebra(ring, 1)))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    st.sampled_from(RINGS + [GF(1009)]),
    st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 2000)), st.integers(-3, 3), max_size=4),
    st.tuples(st.integers(-4, 1200), st.integers(-4, 1200)),
)
def test_evaluate_agrees_with_repeated_products(ring, raw, point):
    f = Poly(ring, 2, raw)
    if ring.kind == "Q":
        pt = [Fraction(a, 7) for a in point]
    else:
        pt = [ring.of_int(a) for a in point]
    if ring.kind != "Fp":  # keep the exact oracle's integers small
        f = Poly(ring, 2, {(a, b % 9): c for (a, b), c in raw.items()})
    value = f.evaluate(pt)
    assert value == product_oracle.evaluate(f, pt)
    assert type(value) is type(ring.zero())


def test_fiber_count_point_budget(monkeypatch):
    """No point budget is left to meet: the shear over F5 (25 points) and F7
    (49, past the old budget of 25) is not separated, so its degree is not
    read off the images, and CPC decides its clause with no point evaluated."""

    def shear(ring):
        x1, x2 = Poly.variable(ring, 2, 1), Poly.variable(ring, 2, 2)
        return PolyEndo(ring, 2, [x1 + x2**3, x2])

    def no_point(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(Poly, "evaluate", no_point)
    for ring in (GF(5), GF(7)):
        with pytest.raises(ValueError, match="not separated"):
            extension_degree_estimate(shear(ring))
        verdict = check_instance("CPC", shear(ring))
        assert verdict.flags["extension_degree_ok"] is True and verdict.hypothesis_holds is True
        assert verdict.witnesses == []
