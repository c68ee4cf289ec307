import random

import pytest

from canonalg.poisson import (
    PoissonContext,
    bracket_matrix,
    check_symplectic,
    coordinate_shear,
    generate_symplectomorphism,
    is_symplectic,
    momentum_shear,
    pair_scaling,
    pair_swap,
    poisson_bracket,
)
from canonalg.poly import Poly, PolyEndo
from canonalg.rings import GF, QQ

from util import random_poly


def ctx_and_vars(ring, n):
    ctx = PoissonContext(ring, n)
    return ctx, [Poly.variable(ring, 2 * n, i) for i in range(1, 2 * n + 1)]


def test_bracket_defining_pairing():
    ctx, (x1, x2) = ctx_and_vars(QQ, 1)
    assert poisson_bracket(ctx, x1, x2) == Poly.one(QQ, 2)
    assert poisson_bracket(ctx, x1 + x2**2, x2) == Poly.one(QQ, 2)


def test_bracket_of_anything_with_itself_vanishes():
    ctx = PoissonContext(GF(5), 2)
    rng = random.Random(11)
    for _ in range(20):
        f = random_poly(rng, GF(5), 4, 3)
        assert poisson_bracket(ctx, f, f).is_zero()


def test_bracket_matrix_examples():
    ctx, (x1, x2) = ctx_and_vars(QQ, 1)
    one, zero = Poly.one(QQ, 2), Poly.zero(QQ, 2)

    ident = bracket_matrix(ctx, PolyEndo.identity(QQ, 2))
    assert ident.rows == ((zero, one), (-one, zero))

    shear = PolyEndo(QQ, 2, [x1 + x2**2, x2])
    assert bracket_matrix(ctx, shear) == ident

    double = PolyEndo(QQ, 2, [x1.scale(QQ.of_int(2)), x2])
    two = Poly.const(QQ, 2, QQ.of_int(2))
    assert bracket_matrix(ctx, double).rows == ((zero, two), (-two, zero))


def test_bracket_matrix_antisymmetric_for_arbitrary_maps():
    rng = random.Random(12)
    ctx = PoissonContext(GF(3), 1)
    for _ in range(10):
        endo = PolyEndo(GF(3), 2, [random_poly(rng, GF(3), 2, 3), random_poly(rng, GF(3), 2, 3)])
        M = bracket_matrix(ctx, endo)
        for i in range(2):
            for j in range(2):
                assert M.entry(i, j) == -M.entry(j, i)


def test_is_symplectic():
    ctx, (x1, x2) = ctx_and_vars(QQ, 1)
    assert is_symplectic(ctx, PolyEndo.identity(QQ, 2))
    assert is_symplectic(ctx, PolyEndo(QQ, 2, [x1 + x2**2, x2]))
    assert not is_symplectic(ctx, PolyEndo(QQ, 2, [x1.scale(QQ.of_int(2)), x2]))


def test_check_symplectic_records():
    ctx, (x1, x2) = ctx_and_vars(QQ, 1)

    rec = check_symplectic(ctx, PolyEndo(QQ, 2, [x1 + x2**2, x2]))
    assert (rec.symplectic, rec.n_factorial_unit, rec.det_is_one) == (True, True, True)
    assert rec.det == Poly.one(QQ, 2)
    assert not rec.assertion_violated

    rec = check_symplectic(ctx, PolyEndo(QQ, 2, [x1.scale(QQ.of_int(2)), x2]))
    assert (rec.symplectic, rec.n_factorial_unit, rec.det_is_one) == (False, True, False)
    assert rec.det == Poly.const(QQ, 2, QQ.of_int(2))


def test_symplectic_implies_det_one_when_factorial_invertible():
    # p = 5 > n = 2, so 2! is a unit and the determinant must be exactly 1
    ctx = PoissonContext(GF(5), 2)
    for seed in range(10):
        endo = generate_symplectomorphism(ctx, seed=seed, steps=4)
        rec = check_symplectic(ctx, endo)
        assert rec.symplectic and rec.n_factorial_unit and rec.det_is_one


def test_det_reported_without_assertion_when_factorial_not_unit():
    # p = 2 <= n = 2: 2! = 0, the det = 1 consequence is not claimed; we only
    # record what the generated family produces
    ctx = PoissonContext(GF(2), 2)
    dets = set()
    for seed in range(8):
        rec = check_symplectic(ctx, generate_symplectomorphism(ctx, seed=seed, steps=3))
        assert rec.symplectic and not rec.n_factorial_unit
        assert not rec.assertion_violated  # vacuous: assertion only fires with unit n!
        dets.add(rec.det.to_text())
    assert dets  # report-only sweep


def test_bracket_axioms_random():
    rng = random.Random(13)
    for ring in (QQ, GF(5), GF(7)):
        ctx = PoissonContext(ring, 2)
        for _ in range(12):
            f = random_poly(rng, ring, 4, 3, 2)
            g = random_poly(rng, ring, 4, 3, 2)
            h = random_poly(rng, ring, 4, 3, 2)
            br = lambda a, b: poisson_bracket(ctx, a, b)
            assert br(f + g, h) == br(f, h) + br(g, h)  # bilinearity (additive part)
            assert br(f.scale(ring.of_int(3)), g) == br(f, g).scale(ring.of_int(3))
            assert br(f, g) == -br(g, f)  # antisymmetry
            assert br(f, g * h) == br(f, g) * h + br(f, h) * g  # Leibniz
            jacobi = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
            assert jacobi.is_zero()


def test_symplectic_maps_are_bracket_morphisms():
    rng = random.Random(14)
    for ring in (QQ, GF(5)):
        ctx = PoissonContext(ring, 1)
        endo = generate_symplectomorphism(ctx, seed=21, steps=3)
        for _ in range(50):
            f = random_poly(rng, ring, 2, 3, 2)
            g = random_poly(rng, ring, 2, 3, 2)
            lhs = poisson_bracket(ctx, endo.apply(f), endo.apply(g))
            assert lhs == endo.apply(poisson_bracket(ctx, f, g))


def test_non_symplectic_map_has_coordinate_witness():
    ring = QQ
    ctx, (x1, x2) = ctx_and_vars(ring, 1)
    endo = PolyEndo(ring, 2, [x1.scale(ring.of_int(2)), x2])
    coords = [x1, x2]
    witness = False
    for i in range(2):
        for j in range(2):
            lhs = poisson_bracket(ctx, endo.apply(coords[i]), endo.apply(coords[j]))
            rhs = endo.apply(poisson_bracket(ctx, coords[i], coords[j]))
            if lhs != rhs:
                witness = True
    assert witness


def test_elementary_generators():
    ring = QQ
    ctx, (x1, x2) = ctx_and_vars(ring, 1)

    shear = coordinate_shear(ctx, x2**2)
    assert shear.images[0] == x1 + x2.scale(ring.of_int(2))  # dH/dX2 = 2 X2
    assert shear.images[1] == x2

    dual = momentum_shear(ctx, x1**3)
    assert dual.images[1] == x2 + (x1**2).scale(ring.of_int(3))

    with pytest.raises(ValueError):
        coordinate_shear(ctx, x1)  # wrong block

    swap = pair_swap(ctx, 1)
    assert swap.images == (x2, -x1)
    assert is_symplectic(ctx, swap)

    half = pair_scaling(ctx, 1, ring.of_int(2))
    assert is_symplectic(ctx, half)


def test_generator_determinism_and_identity():
    ctx = PoissonContext(GF(5), 2)
    assert generate_symplectomorphism(ctx, seed=3, steps=0).is_identity()
    a = generate_symplectomorphism(ctx, seed=3, steps=4)
    b = generate_symplectomorphism(ctx, seed=3, steps=4)
    assert a == b
    assert is_symplectic(ctx, a)


def test_generated_outputs_always_symplectic():
    for ring in (QQ, GF(2), GF(5)):
        for n in (1, 2):
            ctx = PoissonContext(ring, n)
            for seed in range(5):
                assert is_symplectic(ctx, generate_symplectomorphism(ctx, seed=seed, steps=3))
