import random

import pytest

from canonalg.poisson import PoissonContext, is_symplectic
from canonalg.poly import Poly, PolyEndo, _Images
from canonalg.reduction import central_tail, check_center_symplectic, induced_center_endo
from canonalg.rings import GF, QQ
from canonalg.weyl import (
    WeylAlgebra,
    WeylEndo,
    generate_central_perturbation,
    generate_weyl_automorphism,
    inverse_search,
    pair_swap,
)

from test_search import central_tail_maps
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


# -- the read-off on central-tail maps ------------------------------------------------------


def center_oracle(endo: WeylEndo) -> PolyEndo:
    """The restriction from the definition, on element powers: each exponent
    of sigma(Y_i)^p divided by p, derivations first (X_1..X_n are Y_1^p..Y_n^p)."""
    p, m = endo.ring.p, endo.algebra.nvars
    images = []
    for image in endo.images:
        power = image**p
        assert all(e % p == 0 for g, d in power.terms for e in g + d)
        images.append(Poly(endo.ring, m, {tuple(e // p for e in d + g): c for (g, d), c in power.terms.items()}))
    return PolyEndo(endo.ring, m, images)


def _count_products(monkeypatch) -> list:
    calls = []
    times = _Images._times
    monkeypatch.setattr(_Images, "_times", lambda self, *args: calls.append(1) or times(self, *args))
    return calls


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_central_tail_maps_are_read_off_without_products(p, n, monkeypatch):
    # seeded perturbations Y_i -> Y_i + (central), and over F3..F7 each after a scaling of every pair
    maps = central_tail_maps(p, n, 4)
    want = [center_oracle(endo) for endo in maps]
    products = _count_products(monkeypatch)
    for endo, expected in zip(maps, want):
        assert central_tail(endo), repr(endo)
        assert induced_center_endo(endo).endo == expected, repr(endo)
    assert not products


@pytest.mark.parametrize("p", [3, 5])
def test_maps_without_a_central_tail_take_the_products(p, monkeypatch):
    algebra = WeylAlgebra(GF(p), 2)
    y1 = algebra.generator(1)
    pert = generate_central_perturbation(algebra, 7)
    assert central_tail(pert)
    p1, p2, p3, p4 = pert.images
    maps = [
        WeylEndo(algebra, [p1, p2, p3 + y1 * y1, p4]),  # one non-central tail term, Y1^2
        pair_swap(algebra, 1),  # Y1 -> Y3: a linear image, not of its own generator
    ]
    want = [center_oracle(endo) for endo in maps]
    products = _count_products(monkeypatch)
    for endo, expected in zip(maps, want):
        assert not central_tail(endo), repr(endo)
        products.clear()
        assert induced_center_endo(endo).endo == expected, repr(endo)
        assert len(products) == p * algebra.nvars
