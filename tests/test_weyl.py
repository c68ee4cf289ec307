import random

import pytest

from canonalg.poisson import PoissonContext, coordinate_shear, generate_symplectomorphism, momentum_shear
from canonalg.poly import Endo, Poly, PolyEndo
from canonalg.rings import GF, QQ, ZZ
from canonalg.weyl import (
    RelationError,
    WeylAlgebra,
    WeylElement,
    WeylEndo,
    center_slice_check,
    central_monomial,
    commutator,
    generate_central_perturbation,
    generate_weyl_automorphism,
    inverse_degree_bound,
    inverse_search,
    is_central,
    pair_scaling,
    pair_swap,
    quantized,
    verify_endo_relations,
)

from util import random_weyl, weyl_mul_oracle


def test_product_examples_rank_one():
    A = WeylAlgebra(QQ, 1)
    d, x = A.generator(1), A.generator(2)

    assert d * x == x * d + A.one()
    assert d**2 * x**2 == x**2 * d**2 + (x * d).scale(QQ.of_int(4)) + A.const(QQ.of_int(2))

    a = random_weyl(random.Random(20), A, 3)
    assert a * A.one() == a
    assert A.one() * a == a


def test_commutator_examples():
    A = WeylAlgebra(QQ, 1)
    d, x = A.generator(1), A.generator(2)
    assert commutator(d, x) == A.one()
    assert commutator(x, d) == -A.one()
    assert commutator(d, d**2).is_zero()


def test_defining_relations_up_to_n3():
    for ring in (QQ, GF(2), GF(5)):
        for n in (1, 2, 3):
            A = WeylAlgebra(ring, n)
            gens = A.generators()
            for i in range(1, 2 * n + 1):
                for j in range(1, 2 * n + 1):
                    c = commutator(gens[i - 1], gens[j - 1])
                    if j == i + n:
                        assert c == A.one()
                    elif i == j + n:
                        assert c == -A.one()
                    else:
                        assert c.is_zero()


def test_degree():
    A = WeylAlgebra(GF(3), 1)
    d, x = A.generator(1), A.generator(2)
    assert (x * d + A.one()).degree() == 2
    assert (d - d**3).degree() == 3
    assert A.one().degree() == 0
    with pytest.raises(ValueError):
        A.zero().degree()


def test_degree_multiplicative_over_fields():
    rng = random.Random(21)
    for ring in (QQ, GF(5)):
        A = WeylAlgebra(ring, 2)
        for _ in range(25):
            a = random_weyl(rng, A, 3)
            b = random_weyl(rng, A, 3)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).degree() == a.degree() + b.degree()


def test_associativity_random():
    rng = random.Random(22)
    for ring in (QQ, GF(2), GF(5)):
        for n in (1, 2):
            A = WeylAlgebra(ring, n)
            for _ in range(12):
                a, b, c = (random_weyl(rng, A, 3) for _ in range(3))
                assert (a * b) * c == a * (b * c)


def test_product_against_rewrite_oracle():
    rng = random.Random(23)
    for ring in (QQ, GF(2), GF(5)):
        A = WeylAlgebra(ring, 1)
        for _ in range(15):
            a = random_weyl(rng, A, 3)
            b = random_weyl(rng, A, 3)
            assert a * b == weyl_mul_oracle(a, b)


def test_verify_endo_relations_examples():
    A = WeylAlgebra(GF(2), 1)
    y1, y2 = A.generator(1), A.generator(2)

    ok, witness = verify_endo_relations(A, [y1, y2])
    assert ok and witness is None

    ok, witness = verify_endo_relations(A, [y1, y2 + y1**2])
    assert ok

    ok, witness = verify_endo_relations(A, [y1, y2 + y1])
    assert ok

    # over F2 the plain swap passes ([Y2, Y1] = -1 = 1); it fails where -1 != 1
    ok, witness = verify_endo_relations(A, [y2, y1])
    assert ok

    B = WeylAlgebra(QQ, 1)
    ok, witness = verify_endo_relations(B, [B.generator(2), B.generator(1)])
    assert not ok
    i, j, c = witness
    assert (i, j) == (1, 2)
    assert c == -B.one()


def test_unverified_images_are_rejected():
    A = WeylAlgebra(QQ, 1)
    with pytest.raises(RelationError) as err:
        WeylEndo(A, [A.generator(2), A.generator(1)])
    assert err.value.i == 1 and err.value.j == 2


def test_apply_endo():
    A = WeylAlgebra(GF(2), 1)
    y1, y2 = A.generator(1), A.generator(2)
    phi = WeylEndo(A, [y1, y2 + y1**2])

    ident = WeylEndo.identity(A)
    a = random_weyl(random.Random(24), A, 3)
    assert ident.apply(a) == a

    assert phi.apply(y2) == y2 + y1**2
    assert phi.apply(y2 * y1) == (y2 + y1**2) * y1
    assert phi.apply(y2 * y1) == y2 * y1 + y1**3


def test_apply_is_multiplicative():
    rng = random.Random(25)
    A = WeylAlgebra(GF(5), 1)
    phi = generate_weyl_automorphism(A, seed=9, steps=3, max_degree=3)
    for _ in range(15):
        a = random_weyl(rng, A, 2)
        b = random_weyl(rng, A, 2)
        assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)
        assert phi.apply(a + b) == phi.apply(a) + phi.apply(b)


def test_compose():
    A = WeylAlgebra(QQ, 1)
    y1, y2 = A.generator(1), A.generator(2)
    phi = WeylEndo(A, [y1 + y2, y2])
    assert phi.compose(WeylEndo.identity(A)) == phi
    twice = phi.compose(phi)
    assert twice.images[0] == y1 + y2.scale(QQ.of_int(2))
    assert twice.images[1] == y2


def test_compose_degree_bound():
    A = WeylAlgebra(GF(5), 1)
    for s in range(6):
        phi = generate_weyl_automorphism(A, seed=s, steps=2, max_degree=3)
        psi = generate_weyl_automorphism(A, seed=s + 50, steps=2, max_degree=3)
        assert phi.compose(psi).degree() <= phi.degree() * psi.degree()


def test_is_central():
    for p in (2, 3):
        A = WeylAlgebra(GF(p), 1)
        assert is_central(A.generator(1) ** p)
        assert is_central(A.generator(2) ** p)
        assert not is_central(A.generator(1))
        assert is_central(A.const(A.ring.of_int(2)))
    # witness: [Y1, Y2] = 1
    A = WeylAlgebra(GF(3), 1)
    assert not commutator(A.generator(1), A.generator(2)).is_zero()


def test_center_slice_examples():
    r = center_slice_check(WeylAlgebra(GF(2), 1), 2)
    assert (r.dimension_found, r.dimension_expected, r.match) == (3, 3, True)

    r = center_slice_check(WeylAlgebra(GF(3), 1), 2)
    assert (r.dimension_found, r.dimension_expected, r.match) == (1, 1, True)

    r = center_slice_check(WeylAlgebra(GF(2), 1), 4)
    assert (r.dimension_found, r.dimension_expected, r.match) == (6, 6, True)


def test_center_slice_reads_containment_off_its_kernel_columns(monkeypatch):
    import canonalg.weyl as weylmod

    calls = []

    def counting(a, b):
        calls.append(a)
        return commutator(a, b)

    monkeypatch.setattr(weylmod, "commutator", counting)
    r = center_slice_check(WeylAlgebra(GF(3), 1), 6)
    assert (r.dimension_found, r.dimension_expected, r.match) == (6, 6, True)
    assert len(calls) == 2 * 28  # one per generator and monomial of degree <= 6 in 2 letters


def test_elementary_automorphisms():
    A, ctx = WeylAlgebra(GF(5), 2), PoissonContext(GF(5), 2)
    X = [Poly.variable(GF(5), 4, i) for i in range(1, 5)]
    hx, hd = X[2] * X[3], X[0] * X[1]  # x1 x2 on the position block, then on the derivation block
    for endo in (quantized(A, coordinate_shear(ctx, hx)), quantized(A, momentum_shear(ctx, hd)), pair_swap(A, 2), ):
        ok, _ = verify_endo_relations(A, list(endo.images))
        assert ok

    B = WeylAlgebra(QQ, 1)
    shear = quantized(B, momentum_shear(PoissonContext(QQ, 1), Poly.variable(QQ, 2, 1) ** 2))
    assert shear.images[1] == B.generator(2) + B.generator(1).scale(QQ.of_int(2))


def test_the_algebra_is_the_poisson_context_it_quantizes():
    for make in (WeylAlgebra, PoissonContext):
        with pytest.raises(ValueError, match="^index n must be >= 1$"):
            make(GF(3), 0)
    A, ctx = WeylAlgebra(GF(3), 2), PoissonContext(GF(3), 2)
    assert isinstance(A, PoissonContext) and A.nvars == 4 == 2 * A.n
    assert A != ctx and ctx != A  # equality stays per class
    # a map drawn in the algebra as its own context is the one drawn in a separate context
    h = Poly.variable(GF(3), 4, 3) ** 2 * Poly.variable(GF(3), 4, 4)
    assert quantized(A, coordinate_shear(A, h)) == quantized(A, coordinate_shear(ctx, h))


def test_generators_deterministic_and_verified():
    A = WeylAlgebra(GF(3), 2)
    assert generate_weyl_automorphism(A, seed=0, steps=0).is_identity()
    a = generate_weyl_automorphism(A, seed=4, steps=3, max_degree=2)
    b = generate_weyl_automorphism(A, seed=4, steps=3, max_degree=2)
    assert a == b  # WeylEndo construction already verified the relations

    pert = generate_central_perturbation(A, seed=4)
    again = generate_central_perturbation(A, seed=4)
    assert pert == again


def test_frobenius_deficit_perturbation_is_relation_verified():
    for p in (2, 3, 5):
        A = WeylAlgebra(GF(p), 1)
        images = [A.generator(1) - A.generator(1) ** p, A.generator(2)]
        ok, _ = verify_endo_relations(A, images)
        assert ok


def test_central_monomial_is_central():
    A = WeylAlgebra(GF(3), 2)
    m = central_monomial(A, (1, 0), (0, 2))
    assert is_central(m)
    assert m.degree() == 9


def test_inverse_search_examples():
    F5 = GF(5)
    A = WeylAlgebra(F5, 1)
    y1, y2 = A.generator(1), A.generator(2)

    ident = WeylEndo.identity(A)
    inv, d = inverse_search(ident, 1)
    assert d == 1 and inv == ident

    shear = WeylEndo(A, [y1, y2 + y1**2])
    assert inverse_degree_bound(shear) == 2
    inv, d = inverse_search(shear, 2)
    assert d == 2
    assert inv.images[0] == y1
    assert inv.images[1] == y2 - y1**2

    A2 = WeylAlgebra(GF(2), 1)
    bad = WeylEndo(A2, [A2.generator(1) - A2.generator(1) ** 2, A2.generator(2)])
    inv, d = inverse_search(bad, 2)  # 2 = deg^(2n-1) certifies non-automorphism
    assert inv is None and d is None


def test_inverse_search_needs_field():
    A = WeylAlgebra(ZZ, 1)
    with pytest.raises(ValueError):
        inverse_search(WeylEndo.identity(A), 1)


def test_generated_automorphism_inverses_respect_bound():
    for p in (2, 5):
        for n in (1, 2):
            A = WeylAlgebra(GF(p), n)
            for seed in range(4):
                phi = generate_weyl_automorphism(A, seed=seed, steps=3, max_degree=3 if n == 1 else 2)
                bound = inverse_degree_bound(phi)
                inv, d = inverse_search(phi, bound)
                assert inv is not None and d <= bound


def test_to_text_round_trips_magnitudes():
    A = WeylAlgebra(QQ, 2)
    a = A.generator(3) * A.generator(1) ** 2 - A.const(QQ.of_int(7))
    assert a.to_text() == "Y3*Y1^2 - 7"


def test_weyl_coefficients_are_normalized_on_construction():
    A = WeylAlgebra(GF(5), 1)
    assert A.const(7) == A.const(2)
    assert A.const(5).is_zero()
    assert WeylElement(A, {((1,), (0,)): 10}).is_zero()
    assert (A.generator(1) * A.const(7)).to_text() == "2*Y1"


# -- maps built once, and steps tested before they are built ------------------------------


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), QQ], ids=str)
def test_the_identity_and_pair_maps_are_built_once_and_equal_fresh_ones(ring, n):
    algebra = WeylAlgebra(ring, n)
    gens = algebra.generators()
    assert WeylEndo.identity(algebra) == WeylEndo(algebra, gens)
    units = {ring.of_int(k) for k in (1, 2, 3, -1)} - {ring.zero()}
    for i in range(1, n + 1):
        swapped = list(gens)
        swapped[i - 1], swapped[i + n - 1] = gens[i + n - 1], -gens[i - 1]
        assert pair_swap(algebra, i) == WeylEndo(algebra, swapped)
        assert pair_swap(algebra, i) is pair_swap(algebra, i)
        for u in units:
            scaled = list(gens)
            scaled[i - 1], scaled[i + n - 1] = gens[i - 1].scale(u), gens[i + n - 1].scale(ring.inv(u))
            assert pair_scaling(algebra, i, u) == WeylEndo(algebra, scaled)
            assert pair_scaling(algebra, i, u) is pair_scaling(algebra, i, u)


@pytest.mark.parametrize("kind", ["weyl", "poisson"])
def test_a_step_past_the_degree_bound_builds_no_candidate(kind, monkeypatch):
    """Every map built while generating is the result or an elementary
    factor (on the Poisson side also an identity), all of degree <= 3 here;
    steps of higher degree are formed as images, tested and dropped without
    a map being built."""
    cls = WeylEndo if kind == "weyl" else PolyEndo
    init, apply_each = cls.__init__, Endo.apply_each
    built, formed = [], []

    def counted_init(self, *args):
        init(self, *args)
        built.append(self.degree())

    def recorded_apply_each(self, elems):
        images = apply_each(self, elems)
        formed.append(max(im.degree() for im in images))
        return images

    monkeypatch.setattr(cls, "__init__", counted_init)
    monkeypatch.setattr(Endo, "apply_each", recorded_apply_each)
    for seed in range(10):
        if kind == "weyl":
            endo = generate_weyl_automorphism(WeylAlgebra(GF(3), 2), seed, steps=5, max_degree=3)
        else:
            endo = generate_symplectomorphism(PoissonContext(GF(3), 2), seed, steps=5, max_degree=3)
        assert endo.degree() <= 3
    assert built and max(built) <= 3
    assert max(formed) > 3  # some steps were rejected


def test_generating_a_weyl_map_builds_its_drawn_steps_and_the_result_only(monkeypatch):
    """One map is built that is no drawn step: the returned one.  Its
    relation check stands for every partial composite, which is never built
    (nor is an identity to start from)."""
    init, apply_each = WeylEndo.__init__, Endo.apply_each
    built, stepped = [], []

    def counted_init(self, *args):
        init(self, *args)
        built.append(self)

    def recorded_apply_each(self, elems):
        stepped.append(self)
        return apply_each(self, elems)

    monkeypatch.setattr(WeylEndo, "__init__", counted_init)
    monkeypatch.setattr(Endo, "apply_each", recorded_apply_each)
    algebra = WeylAlgebra(GF(3), 2)
    for seed in range(10):
        built.clear()
        stepped.clear()
        endo = generate_weyl_automorphism(algebra, seed, steps=5, max_degree=3)
        assert built[-1] is endo and all(step is not endo for step in stepped)
        not_drawn = [m for m in built[:-1] if all(m is not step for step in stepped)]
        assert not not_drawn, f"seed {seed}: {len(not_drawn)} maps built that are neither a step nor the result"
