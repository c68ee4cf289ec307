import random
from fractions import Fraction

import pytest

from canonalg.rings import GF, QQ, ZZ, NonUnitError, Ring, is_prime, primes_upto, ring_from_text


def test_characteristic():
    assert GF(5).characteristic() == 5
    assert QQ.characteristic() == 0
    assert ZZ.characteristic() == 0
    assert GF(2).characteristic() == 2


def test_construction_rejects_composite_modulus():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        Ring("Z", 3)


def test_factorial_is_unit_examples():
    assert GF(5).factorial_is_unit(2) is True
    assert GF(2).factorial_is_unit(2) is False
    assert QQ.factorial_is_unit(100) is True
    assert ZZ.factorial_is_unit(1) is True
    assert ZZ.factorial_is_unit(2) is False


def test_factorial_is_unit_prime_field_table():
    for p in [q for q in range(2, 32) if is_prime(q)]:
        ring = GF(p)
        for n in range(1, 11):
            assert ring.factorial_is_unit(n) == (p > n)


def test_primes_upto_matches_trial_division():
    for bound in (-3, 0, 1, 2, 3, 4, 25, 49, 97, 2000):
        assert primes_upto(bound) == [m for m in range(2, bound + 1) if is_prime(m)]


def test_arith_examples():
    F7 = GF(7)
    assert F7.inv(3) == 5
    assert ZZ.is_unit(2) is False
    assert ZZ.is_unit(-1) is True
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_inv_of_non_unit_is_distinct_error():
    with pytest.raises(NonUnitError):
        GF(5).inv(0)
    with pytest.raises(NonUnitError):
        ZZ.inv(2)
    with pytest.raises(NonUnitError):
        QQ.inv(Fraction(0))


def test_of_fraction():
    assert GF(5).of_fraction(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert ZZ.of_fraction(Fraction(4, 2)) == 2
    with pytest.raises(NonUnitError):
        ZZ.of_fraction(Fraction(1, 2))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5), GF(7)])
def test_commutative_ring_axioms_on_random_triples(ring):
    rng = random.Random(17)

    def sample():
        if ring.kind == "Fp":
            return rng.randrange(ring.p)
        if ring.kind == "Q":
            return Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        return rng.randint(-20, 20)

    for _ in range(60):
        a, b, c = sample(), sample(), sample()
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.zero()) == a
        assert ring.mul(a, ring.one()) == a
        assert ring.add(a, ring.neg(a)) == ring.zero()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fermat_in_prime_fields(p):
    # x^p = x; the Frobenius shortcut downstream leans on this
    ring = GF(p)
    for x in range(p):
        acc = ring.one()
        for _ in range(p):
            acc = ring.mul(acc, x)
        assert acc == x


def test_ring_literals():
    assert ring_from_text("Z") == ZZ
    assert ring_from_text("Q") == QQ
    assert ring_from_text("F5") == GF(5)
    assert ring_from_text("Fp(11)") == GF(11)
    with pytest.raises(ValueError):
        ring_from_text("F4")
    with pytest.raises(ValueError):
        ring_from_text("GF(5)")
    assert str(GF(3)) == "F3"


def test_coerce_maps_ints_and_fractions_into_the_ring():
    assert GF(5).coerce(7) == 2 and GF(5).coerce(-1) == 4
    assert GF(5).coerce(Fraction(1, 2)) == 3
    assert QQ.coerce(3) == Fraction(3) and isinstance(QQ.coerce(3), Fraction)
    assert ZZ.coerce(Fraction(6, 3)) == 2
    with pytest.raises(NonUnitError):
        ZZ.coerce(Fraction(1, 2))
