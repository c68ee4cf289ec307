"""The search columns' kernels in ``poly._Images`` against their plain forms.

Over F_p, a product by a letter image with no lowering term reduces each
sum as it lands; it must equal the two-pass form (sum every pair, then
``_reduced``) in keys, values and dict order.  Over Q and Z the same
product runs the general loop, which must equal the two-pass form too.  ``_graded_plan`` gives each
degree's exponents, packed keys, prefix keys and last letters; it must equal
``compositions`` packed at the engine's width, and the searches that read it
at two widths in one process must both give the tuple chain's columns.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from canonalg.poly import PolyEndo, _graded_plan, _Images, _reduced, compositions  # noqa: E402
from canonalg.rings import GF, QQ, ZZ  # noqa: E402
from canonalg.weyl import WeylAlgebra, generate_central_perturbation  # noqa: E402
from test_search import search_columns_match_the_oracle  # noqa: E402

PRIMES = [2, 3, 5, 10007]


def engine(p: int, letters: int = 1, width: int | None = None) -> _Images:
    return _Images(PolyEndo.identity(GF(p), letters), 1, width)


def two_pass(p: int, left: dict, right: list) -> dict:
    """The F_p product as it was: every pair summed, then one ``_reduced`` pass."""
    out: dict = {}
    for k1, c1 in left.items():
        for k2, c2 in right:
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return _reduced(out, p)


def assert_as_two_pass(p: int, left: dict, right: list) -> dict:
    got = engine(p)._times(left, [(k, c, []) for k, c in right], False)
    want = two_pass(p, left, right)
    assert list(got.items()) == list(want.items())
    return got


@st.composite
def products(draw):
    """A prime, a packed left dict and a letter's terms, on keys close
    enough together that sums repeat and cancel; the letter may repeat a key."""
    p = draw(st.sampled_from(PRIMES))
    residues = st.one_of(st.integers(1, min(p - 1, 3)), st.integers(max(1, p - 3), p - 1))
    left = draw(st.dictionaries(st.integers(0, 12), residues, max_size=10))
    right = draw(st.lists(st.tuples(st.integers(0, 6), residues), min_size=1, max_size=4))
    return p, left, right


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(products())
def test_fp_branch_equals_the_two_pass_product(case):
    assert_as_two_pass(*case)


def test_a_cancelled_key_hit_again_keeps_its_first_place():
    # (1 + x^2 + x)(1 + x + x^2) over F2: x^2 lands, cancels, x^4 lands, x^2 lands again
    got = assert_as_two_pass(2, {0: 1, 2: 1, 1: 1}, [(0, 1), (1, 1), (2, 1)])
    assert list(got) == [0, 2, 4]


@pytest.mark.parametrize("p", PRIMES)
def test_a_product_that_cancels_completely_is_empty(p):
    # a letter that repeats a key with opposite coefficients is zero
    assert assert_as_two_pass(p, {0: 1, 3: p - 1, 5: 1}, [(2, 1), (2, p - 1)]) == {}


@pytest.mark.parametrize("p", PRIMES)
def test_a_single_term_letter_shifts_and_scales(p):
    left = {7: 1, 0: p - 1}
    got = assert_as_two_pass(p, left, [(3, p - 1)])
    assert list(got.items()) == [(k + 3, c * (p - 1) % p) for k, c in left.items()]


@st.composite
def rational_products(draw):
    """Q or Z, a packed left dict and a letter's terms, signed so that sums cancel."""
    ring = draw(st.sampled_from([QQ, ZZ]))
    values = st.integers(-3, 3).filter(bool)
    if ring is QQ:
        values = st.builds(Fraction, values, st.integers(1, 3))
    left = draw(st.dictionaries(st.integers(0, 12), values, max_size=10))
    right = draw(st.lists(st.tuples(st.integers(0, 6), values), min_size=1, max_size=4))
    return ring, left, right


def assert_general_loop_as_two_pass(ring, left: dict, right: list) -> dict:
    got = _Images(PolyEndo.identity(ring, 1), 1)._times(left, [(k, c, []) for k, c in right], False)
    assert list(got.items()) == list(two_pass(0, left, right).items())
    assert all(type(c) is (Fraction if ring is QQ else int) and c for c in got.values())
    return got


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(rational_products())
def test_q_and_z_letters_with_no_lowering_term_equal_the_two_pass_product(case):
    assert_general_loop_as_two_pass(*case)


@pytest.mark.parametrize("ring", [QQ, ZZ], ids=str)
def test_q_and_z_keys_that_cancel_are_dropped_in_place(ring):
    # (1 - x + x^2)(1 + x): x and x^2 cancel, x^3 lands last
    one = ring.one()
    got = assert_general_loop_as_two_pass(ring, {0: one, 1: -one, 2: one}, [(0, one), (1, one)])
    assert list(got.items()) == [(0, one), (3, one)]


@pytest.mark.parametrize("width", [4, 5, 8, 13])
@pytest.mark.parametrize("letters", [1, 2, 3, 4, 5])
def test_graded_plan_is_compositions_packed_with_prefixes(letters, width):
    packing = engine(2, letters, width)
    for degree in range(9):
        exponents = list(compositions(degree, letters))
        if not degree:  # the empty monomial has no prefix: graded answers it from the cache
            assert packing.graded(0) == [(packing.pack(exponents[0]), {0: 1})]
            continue
        plan = _graded_plan(degree, letters, width)
        assert [key for key, _, _ in plan] == [packing.pack(b) for b in exponents]
        for b, (key, prefix, j) in zip(exponents, plan):
            assert j == max(k for k, e in enumerate(b) if e)
            assert prefix == key - packing.units[j] == packing.pack(b[:j] + (b[j] - 1,) + b[j + 1 :])


def test_searches_at_two_widths_in_one_process_match_the_tuple_chain():
    # the seed-18 perturbation is found at degree 4; cap 3 packs 3 bits a letter, cap 20 six
    endo = generate_central_perturbation(WeylAlgebra(GF(2), 2), 18)
    assert _Images(endo, 3).width != _Images(endo, 20).width
    for cap in (3, 20, 3):
        search_columns_match_the_oracle(endo, cap)
