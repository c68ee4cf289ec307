import random

import pytest

from canonalg.poisson import PoissonContext, is_symplectic
from canonalg.poly import Poly, PolyEndo
from canonalg.reduction import check_center_symplectic, induced_center_endo
from canonalg.rings import GF, QQ
from canonalg.weyl import WeylAlgebra, WeylEndo, generate_weyl_automorphism, inverse_search

from util import weyl_corpus


def test_identity_reduces_to_identity():
    A = WeylAlgebra(GF(3), 1)
    ce = induced_center_endo(WeylEndo.identity(A))
    assert ce.endo == PolyEndo.identity(GF(3), 2)


def test_shear_reduction_worked_example():
    # (Y1, Y2 + Y1^2) over F2 restricts to (X1, X2 + X1^2)
    F2 = GF(2)
    A = WeylAlgebra(F2, 1)
    phi = WeylEndo(A, [A.generator(1), A.generator(2) + A.generator(1) ** 2])
    ce = induced_center_endo(phi)
    x1, x2 = Poly.variable(F2, 2, 1), Poly.variable(F2, 2, 2)
    assert ce.endo.images == (x1, x2 + x1**2)


@pytest.mark.parametrize("p", [2, 3])
def test_frobenius_deficit_reduction(p):
    ring = GF(p)
    A = WeylAlgebra(ring, 1)
    phi = WeylEndo(A, [A.generator(1) - A.generator(1) ** p, A.generator(2)])
    ce = induced_center_endo(phi)
    x1, x2 = Poly.variable(ring, 2, 1), Poly.variable(ring, 2, 2)
    assert ce.endo.images == (x1 - x1**p, x2)


def test_reduction_rejects_characteristic_zero():
    with pytest.raises(ValueError):
        induced_center_endo(WeylEndo.identity(WeylAlgebra(QQ, 1)))


def test_degree_preservation_examples():
    F2 = GF(2)
    A = WeylAlgebra(F2, 1)
    shear = WeylEndo(A, [A.generator(1), A.generator(2) + A.generator(1) ** 2])
    assert (shear.degree(), induced_center_endo(shear).endo.degree()) == (2, 2)

    identity = WeylEndo.identity(A)
    assert (identity.degree(), induced_center_endo(identity).endo.degree()) == (1, 1)

    F3 = GF(3)
    B = WeylAlgebra(F3, 1)
    cubic = WeylEndo(B, [B.generator(1) - B.generator(1) ** 3, B.generator(2)])
    assert (cubic.degree(), induced_center_endo(cubic).endo.degree()) == (3, 3)


def test_center_restriction_symplectic_examples():
    F2 = GF(2)
    A = WeylAlgebra(F2, 1)
    shear = WeylEndo(A, [A.generator(1), A.generator(2) + A.generator(1) ** 2])
    assert check_center_symplectic(shear).symplectic
    assert check_center_symplectic(WeylEndo.identity(A)).symplectic


def test_center_restriction_symplectic_and_degree_on_corpus_sample():
    for endo in weyl_corpus()[::6]:
        sym = check_center_symplectic(endo)
        assert sym.symplectic
        assert sym.center.endo.degree() == endo.degree()


def test_center_symplectic_reads_the_algebra_as_its_poisson_context():
    for endo in weyl_corpus():
        ctx = PoissonContext(endo.algebra.ring, endo.algebra.n)
        assert check_center_symplectic(endo).symplectic == is_symplectic(ctx, induced_center_endo(endo).endo)


def test_reduction_commutes_with_composition():
    rng = random.Random(31)
    for p, n in ((2, 1), (3, 1), (2, 2), (5, 1)):
        A = WeylAlgebra(GF(p), n)
        cap = 3 if n == 1 else 2
        for _ in range(4):
            phi = generate_weyl_automorphism(A, seed=rng.randrange(10**6), steps=2, max_degree=cap)
            psi = generate_weyl_automorphism(A, seed=rng.randrange(10**6), steps=2, max_degree=cap)
            lhs = induced_center_endo(phi.compose(psi)).endo
            rhs = induced_center_endo(phi).endo.compose(induced_center_endo(psi).endo)
            assert lhs == rhs


def test_reduction_of_inverse_is_inverse_of_reduction():
    A = WeylAlgebra(GF(5), 1)
    phi = WeylEndo(A, [A.generator(1), A.generator(2) + A.generator(1) ** 2])
    inv, _ = inverse_search(phi, 2)
    down = induced_center_endo(phi).endo
    down_inv = induced_center_endo(inv).endo
    ident = PolyEndo.identity(GF(5), 2)
    assert down.compose(down_inv) == ident
    assert down_inv.compose(down) == ident
