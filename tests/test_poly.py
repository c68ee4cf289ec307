import random
import sys
from fractions import Fraction

import pytest

from canonalg.poly import Poly, PolyEndo, PolyMatrix, monomial_count, monomials_upto, power
from canonalg.rings import GF, QQ, ZZ, NonUnitError

from util import det_permutation_sum, random_poly


def X(ring, nvars, i):
    return Poly.variable(ring, nvars, i)


def test_mul_examples():
    x = X(QQ, 1, 1)
    one = Poly.one(QQ, 1)
    assert (x + one) * (x - one) == x**2 - one

    a = X(GF(2), 2, 1) + X(GF(2), 2, 2)
    assert a * a == X(GF(2), 2, 1) ** 2 + X(GF(2), 2, 2) ** 2  # freshman's dream

    f = random_poly(random.Random(1), QQ, 2, 3)
    assert (f * Poly.zero(QQ, 2)).is_zero()
    assert (f * Poly.zero(QQ, 2)).terms == {}


def test_add_cancels_to_clean_zero():
    f = random_poly(random.Random(2), GF(3), 3, 3)
    assert (f - f).terms == {}


def test_partial_derivative_examples():
    x1 = X(QQ, 1, 1)
    assert (x1**3).partial(1) == (x1**2).scale(QQ.of_int(3))

    y = X(GF(2), 1, 1)
    assert (y**2).partial(1).is_zero()  # coefficient 2 = 0

    x1, x2 = X(QQ, 2, 1), X(QQ, 2, 2)
    assert (x1 * x2).partial(2) == x1
    with pytest.raises(IndexError):
        x1.partial(3)


def test_substitute_examples():
    x1, x2 = X(QQ, 2, 1), X(QQ, 2, 2)
    f = x1**2
    shift = [x1 + Poly.one(QQ, 2), x2]
    assert PolyEndo(QQ, 2, shift).apply(f) == x1**2 + x1.scale(QQ.of_int(2)) + Poly.one(QQ, 2)

    g = random_poly(random.Random(3), QQ, 2, 3)
    identity = [x1, x2]
    assert PolyEndo(QQ, 2, identity).apply(g) == g
    assert PolyEndo(QQ, 2, [x2, x1]).apply(x2) == x1


def test_power_forms_the_products_of_both_former_loops():
    # the repeated-squaring loops of ``Terms.__pow__`` and of the parser before ``power`` replaced both
    def pow_loop(base, k, mul):
        result = base._one()
        while k:
            if k & 1:
                result = mul(result, base)
            base = mul(base, base) if k > 1 else base
            k >>= 1
        return result

    def parser_loop(base, k, mul):
        result = base._one()
        while k:
            if k & 1:
                result = mul(result, base)
            k >>= 1
            if k:
                base = mul(base, base)
        return result

    def recording(log):
        def mul(a, b):
            log.append((len(a.terms), len(b.terms)))
            return a * b

        return mul

    x1, x2 = X(QQ, 2, 1), X(QQ, 2, 2)
    base = x1 + x2 + Poly.one(QQ, 2)
    for k in range(10):
        logs = ([], [], [])
        values = [f(base, k, recording(log)) for f, log in zip((power, pow_loop, parser_loop), logs)]
        assert logs[1] == logs[2]
        if k:  # ``power`` starts from the base, not from a product with one
            del logs[1][next(i for i, (a, _) in enumerate(logs[1]) if a == 1)]
        assert logs[0] == logs[1]
        assert values[0] == values[1] == values[2] == base**k
        assert base**k == PolyEndo(QQ, 2, [base, x2]).apply(x1**k)
    with pytest.raises(ValueError, match="negative power"):
        base ** -1


def test_compose_orientation_is_pinned():
    # (phi . psi)(X1) = phi(psi(X1)) = psi's image evaluated at phi's images
    x = X(QQ, 1, 1)
    phi = PolyEndo(QQ, 1, [x + Poly.one(QQ, 1)])
    psi = PolyEndo(QQ, 1, [x**2])
    composed = phi.compose(psi)
    assert composed.images[0] == x**2 + x.scale(QQ.of_int(2)) + Poly.one(QQ, 1)

    identity = PolyEndo.identity(QQ, 1)
    assert phi.compose(identity) == phi
    assert identity.compose(phi) == phi


def test_compose_frozen_value_mod_5():
    # outer (X1+1) after inner (X1-X1^2) gives (X1+1)-(X1+1)^2 = 4X1^2+4X1 mod 5
    F5 = GF(5)
    x = X(F5, 1, 1)
    outer = PolyEndo(F5, 1, [x + Poly.one(F5, 1)])
    inner = PolyEndo(F5, 1, [x - x**2])
    got = outer.compose(inner).images[0]
    assert got == (x**2).scale(4) + x.scale(4)


def test_compose_associativity_random():
    rng = random.Random(4)
    for ring in (QQ, GF(5)):
        for _ in range(10):
            endos = [
                PolyEndo(ring, 2, [random_poly(rng, ring, 2, 2), random_poly(rng, ring, 2, 2)])
                for _ in range(3)
            ]
            a, b, c = endos
            assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_endo_degree():
    F5 = GF(5)
    x1, x2 = X(F5, 2, 1), X(F5, 2, 2)
    assert PolyEndo(F5, 2, [x1 - x1**5, x2]).degree() == 5
    assert PolyEndo.identity(QQ, 3).degree() == 1
    assert PolyEndo(QQ, 2, [X(QQ, 2, 1) + X(QQ, 2, 2) ** 2, X(QQ, 2, 2)]).degree() == 2
    with pytest.raises(ValueError):
        PolyEndo(QQ, 1, [Poly.zero(QQ, 1)]).degree()


def test_jacobian_examples():
    one, zero = Poly.one(QQ, 2), Poly.zero(QQ, 2)
    assert PolyEndo.identity(QQ, 2).jacobian() == PolyMatrix(QQ, 2, ((one, zero), (zero, one)))

    x1, x2 = X(QQ, 2, 1), X(QQ, 2, 2)
    J = PolyEndo(QQ, 2, [x1 + x2**2, x2]).jacobian()
    assert J.rows == ((one, x2.scale(QQ.of_int(2))), (zero, one))

    for p in (2, 3):
        ring = GF(p)
        y1, y2 = X(ring, 2, 1), X(ring, 2, 2)
        frob = PolyEndo(ring, 2, [y1 - y1**p, y2])
        assert frob.jacobian() == PolyEndo.identity(ring, 2).jacobian()  # p X^(p-1) = 0


def test_determinant_examples():
    one, zero = Poly.one(QQ, 2), Poly.zero(QQ, 2)
    assert PolyMatrix(QQ, 2, [[one if i == j else zero for j in range(4)] for i in range(4)]).determinant() == one

    x1, x2 = X(QQ, 2, 1), X(QQ, 2, 2)
    shear = PolyMatrix(QQ, 2, [[Poly.one(QQ, 2), x2.scale(QQ.of_int(2))], [Poly.zero(QQ, 2), Poly.one(QQ, 2)]])
    assert shear.determinant() == Poly.one(QQ, 2)

    diag = PolyMatrix(QQ, 2, [[x1, Poly.zero(QQ, 2)], [Poly.zero(QQ, 2), x2]])
    assert diag.determinant() == x1 * x2

    with pytest.raises(ValueError):
        PolyMatrix(QQ, 2, [[x1, x2]]).determinant()


def test_poly_matrix_checks_its_entries_and_stores_tuples():
    x1, x2 = X(QQ, 2, 1), X(QQ, 2, 2)
    with pytest.raises(ValueError, match="^ragged matrix$"):
        PolyMatrix(QQ, 2, [[x1, x2], [x1]])
    with pytest.raises(ValueError, match="^matrix entry over wrong ring or variable count$"):
        PolyMatrix(QQ, 2, [[x1, X(GF(3), 2, 2)]])
    with pytest.raises(ValueError, match="^matrix entry over wrong ring or variable count$"):
        PolyMatrix(QQ, 2, [[x1, X(QQ, 3, 2)]])

    from_lists = PolyMatrix(QQ, 2, [[x1, x2], [x2, x1]])
    from_tuples = PolyMatrix(QQ, 2, ((x1, x2), (x2, x1)))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert from_lists.rows == ((x1, x2), (x2, x1))
    with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
        PolyMatrix(QQ, 2, [[x1, x2], [x2, x1], [x1, x1]]).determinant()


def test_determinant_against_permutation_sum():
    rng = random.Random(5)
    for ring in (QQ, GF(7), ZZ):
        for _ in range(8):
            rows = [[random_poly(rng, ring, 2, 2, 2) for _ in range(3)] for _ in range(3)]
            M = PolyMatrix(ring, 2, rows)
            assert M.determinant() == det_permutation_sum(M)


def test_frobenius_examples_and_oracle():
    F2 = GF(2)
    f = X(F2, 2, 1) + X(F2, 2, 2)
    assert f.frobenius() == f * f

    c = Poly.const(GF(5), 1, 3)
    assert c.frobenius() == c  # Fermat on constants

    with pytest.raises(ValueError):
        X(QQ, 1, 1).frobenius()

    rng = random.Random(6)
    for p in (2, 3, 5):
        ring = GF(p)
        for nvars in (1, 2, 4):
            for _ in range(9):
                f = random_poly(rng, ring, nvars, 3)
                assert f.frobenius() == f**p  # repeated-multiplication oracle


def test_mixed_partials_commute():
    rng = random.Random(7)
    for ring in (QQ, GF(3)):
        for _ in range(20):
            f = random_poly(rng, ring, 3, 4)
            assert f.partial(1).partial(2) == f.partial(2).partial(1)
            assert f.partial(2).partial(3) == f.partial(3).partial(2)


def test_chain_rule():
    # J(phi . psi) = phi(J(psi)) * J(phi), matching the pinned composition
    # orientation
    rng = random.Random(8)
    for ring in (QQ, GF(5)):
        for _ in range(8):
            phi = PolyEndo(ring, 2, [random_poly(rng, ring, 2, 2), random_poly(rng, ring, 2, 2)])
            psi = PolyEndo(ring, 2, [random_poly(rng, ring, 2, 2), random_poly(rng, ring, 2, 2)])
            left = phi.compose(psi).jacobian()
            a, b = psi.jacobian().rows, phi.jacobian().rows
            right = [[phi.apply(a[i][0]) * b[0][j] + phi.apply(a[i][1]) * b[1][j] for j in range(2)] for i in range(2)]
            assert left == PolyMatrix(ring, 2, right)


def test_compose_degree_bound():
    rng = random.Random(9)
    for _ in range(15):
        phi = PolyEndo(QQ, 2, [random_poly(rng, QQ, 2, 3), random_poly(rng, QQ, 2, 3)])
        psi = PolyEndo(QQ, 2, [random_poly(rng, QQ, 2, 3), random_poly(rng, QQ, 2, 3)])
        composed = phi.compose(psi)
        try:
            d = composed.degree()
        except ValueError:
            continue  # images collapsed to zero
        assert d <= phi.degree() * psi.degree()


def test_evaluate():
    F5 = GF(5)
    f = X(F5, 2, 1) ** 2 + X(F5, 2, 2)
    assert f.evaluate([2, 3]) == (4 + 3) % 5


def test_monomial_enumeration():
    monos = monomials_upto(2, 2)
    assert monos[0] == (0, 0)
    assert set(monos) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    assert len(monos) == monomial_count(2, 2)


def test_text_rendering():
    x1, x2 = X(QQ, 2, 1), X(QQ, 2, 2)
    f = x1**2 - x2.scale(QQ.of_int(3)) + Poly.one(QQ, 2)
    assert f.to_text() == "X1^2 - 3*X2 + 1"
    assert Poly.zero(QQ, 2).to_text() == "0"


def test_text_rendering_past_the_int_digit_limit():
    # 10^8001 + 1 spans three 4000-digit blocks, the lower two zero-padded
    big, den = 10**8001 + 1, 3**9000
    f = Poly(QQ, 1, {(1,): Fraction(-big, den), (0,): Fraction(7 * big)})
    g = Poly(ZZ, 2, {(1, 1): -big})
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = (f"-{big}/{den}*X1 + {7 * big}", f"-{big}*X1*X2")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (f.to_text(), g.to_text()) == expected
    assert Poly(QQ, 1, {(2,): Fraction(3, 4)}).to_text() == "3/4*X1^2"


def test_coefficients_are_normalized_on_construction():
    F5 = GF(5)
    five_x = Poly.monomial(F5, 1, (1,), 5)
    assert five_x.is_zero() and five_x.to_text() == "0"
    seven_x, two_x = Poly.monomial(F5, 1, (1,), 7), Poly.monomial(F5, 1, (1,), 2)
    assert seven_x == two_x and hash(seven_x) == hash(two_x)
    assert seven_x.to_text() == "2*X1"
    assert Poly.const(F5, 1, -1) == Poly.const(F5, 1, 4)
    assert X(F5, 1, 1).scale(5).is_zero()
    assert Poly.const(ZZ, 1, Fraction(4, 2)) == Poly.const(ZZ, 1, 2)
    with pytest.raises(NonUnitError):
        Poly.const(ZZ, 1, Fraction(1, 2))
    with pytest.raises(NonUnitError):
        X(ZZ, 1, 1).scale(Fraction(1, 2))
