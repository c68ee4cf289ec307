"""One normalization rule for derived values.

``Poly._make`` and ``WeylElement._make`` take plain sums (ints over F_p and
Z, ``Fraction`` over Q) and reduce them mod p and drop the zeros in one
pass; the validating constructor, which coerces outside input through
``Ring``, must give the same value.  Every derived value (sums,
differences, negation, scaling, partial derivatives, Frobenius powers,
products and Poisson brackets) must hold normalized coefficients, and must
equal the ``Ring``-based result where one exists: the old product kernels
of ``product_oracle`` and the ``Ring`` calls written out below.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import product_oracle  # noqa: E402
from canonalg.poisson import PoissonContext, poisson_bracket  # noqa: E402
from canonalg.poly import Poly  # noqa: E402
from canonalg.rings import GF, QQ, ZZ  # noqa: E402
from canonalg.weyl import WeylAlgebra, WeylElement  # noqa: E402
from test_products import assert_normalized  # noqa: E402

RINGS = [GF(2), GF(3), GF(5), GF(10007), QQ, ZZ]


def raw_sums(ring):
    """Plain sums as the kernels leave them: negative, at least p, or zero."""
    bound = 3 * ring.p if ring.p else 12
    values = st.one_of(st.just(0), st.integers(-bound, bound))
    if ring.kind == "Q":
        return st.builds(Fraction, values, st.integers(1, 4))
    return values


def coefficients(ring):
    """Ring elements, residues near 0 and near p over F_p, so that sums wrap."""
    if ring.kind == "Q":
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    if ring.kind == "Z":
        return st.integers(-6, 6)
    return st.one_of(st.integers(0, 3), st.integers(ring.p - 3, ring.p - 1))


@st.composite
def poly_cases(draw, values=coefficients, count=2):
    ring = draw(st.sampled_from(RINGS))
    nvars = draw(st.integers(1, 3))
    key = st.tuples(*[st.integers(0, 6)] * nvars)  # past p = 2, 3 and 5, so derivatives can vanish
    return ring, [draw(st.dictionaries(key, values(ring), max_size=6)) for _ in range(count)]


@st.composite
def weyl_cases(draw, values=coefficients, count=2):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 2))
    key = st.tuples(*[st.integers(0, 3)] * n)
    algebra = WeylAlgebra(ring, n)
    return algebra, [draw(st.dictionaries(st.tuples(key, key), values(ring), max_size=5)) for _ in range(count)]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(poly_cases(raw_sums, 1), weyl_cases(raw_sums, 1))
def test_make_on_plain_sums_equals_the_validating_constructor(poly_case, weyl_case):
    (ring, [sums]), (algebra, [weyl_sums]) = poly_case, weyl_case
    nvars = len(next(iter(sums), (0,)))
    for made, built in [
        (Poly.zero(ring, nvars)._make(sums), Poly(ring, nvars, sums)),
        (algebra.zero()._make(weyl_sums), WeylElement(algebra, weyl_sums)),
    ]:
        assert_normalized(made)
        assert list(made.terms.items()) == list(built.terms.items())


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_make_drops_sums_that_cancel_and_reduces_the_rest(ring):
    one = Fraction(1) if ring.kind == "Q" else 1
    p = ring.p or 7
    sums = {(0,): 0 * one, (1,): p * one, (2,): -one, (3,): (2 * p + 1) * one, (4,): (p - p) * one}
    made = Poly.zero(ring, 1)._make(sums)
    assert made == Poly(ring, 1, sums)
    assert made.terms == ({(2,): p - 1, (3,): 1} if ring.p else {(1,): 7 * one, (2,): -one, (3,): 15 * one})


def ring_sum(ring, a: dict, b: dict, sign: int) -> dict:
    """``a + sign * b`` through ``Ring`` calls, keys in first-seen order."""
    out = dict(a)
    for key, c in b.items():
        term = c if sign > 0 else ring.neg(c)
        out[key] = ring.add(out[key], term) if key in out else term
    return out


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(poly_cases(), st.data())
def test_poly_operations_hold_normalized_coefficients(case, data):
    ring, (fa, fb) = case
    nvars = len(next(iter(fa), next(iter(fb), (0,))))
    a, b = Poly(ring, nvars, fa), Poly(ring, nvars, fb)
    c = data.draw(coefficients(ring))
    results = [
        (a + b, Poly(ring, nvars, ring_sum(ring, a.terms, b.terms, 1))),
        (a - b, Poly(ring, nvars, ring_sum(ring, a.terms, b.terms, -1))),
        (-a, Poly(ring, nvars, {k: ring.neg(v) for k, v in a.terms.items()})),
        (a.scale(c), Poly(ring, nvars, {k: ring.mul(c, v) for k, v in a.terms.items()})),
        (a * b, product_oracle.poly_mul(a, b)),
    ]
    for i in range(1, nvars + 1):
        k = i - 1
        derivative = {e[:k] + (e[k] - 1,) + e[k + 1 :]: ring.mul(v, ring.of_int(e[k])) for e, v in a.terms.items() if e[k]}
        results.append((a.partial(i), Poly(ring, nvars, derivative)))
    if ring.p:
        results.append((a.frobenius(), Poly(ring, nvars, {tuple(ring.p * x for x in e): v for e, v in a.terms.items()})))
    for got, want in results:
        assert_normalized(got)
        assert got == want


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(weyl_cases())
def test_weyl_operations_hold_normalized_coefficients(case):
    algebra, (fa, fb) = case
    ring = algebra.ring
    a, b = WeylElement(algebra, fa), WeylElement(algebra, fb)
    for got, want in [
        (a + b, WeylElement(algebra, ring_sum(ring, a.terms, b.terms, 1))),
        (a - b, WeylElement(algebra, ring_sum(ring, a.terms, b.terms, -1))),
        (-a, WeylElement(algebra, {k: ring.neg(v) for k, v in a.terms.items()})),
        (a * b, product_oracle.leibniz_mul(a, b)),
    ]:
        assert_normalized(got)
        assert got == want


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(RINGS), st.integers(1, 2), st.data())
def test_poisson_bracket_holds_normalized_coefficients(ring, n, data):
    ctx = PoissonContext(ring, n)
    key = st.tuples(*[st.integers(0, 3)] * (2 * n))
    f, g = (Poly(ring, 2 * n, data.draw(st.dictionaries(key, coefficients(ring), max_size=5))) for _ in range(2))
    bracket = poisson_bracket(ctx, f, g)
    assert_normalized(bracket)
    assert bracket == product_oracle.poisson_bracket(ctx, f, g)
