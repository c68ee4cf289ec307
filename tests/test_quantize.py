"""The Weyl side read through the normal-ordering map X_i -> Y_i.

The oracles below write the elementary automorphisms, the seeded Weyl
family and the pairing check out in full, term by term on (position,
derivation) keys, the way the Weyl module stated them before it read them
off :mod:`canonalg.poisson`; the production maps must agree with them.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from canonalg.conjectures import frobenius_deficit_poly, frobenius_deficit_weyl
from canonalg.poisson import (
    PoissonContext,
    bracket_matrix,
    coordinate_shear,
    generate_symplectomorphism,
    is_symplectic,
    momentum_shear,
)
from canonalg.poly import Poly, PolyEndo, compose_random_steps, pairing_witness, random_block_poly, random_unit
from canonalg.rings import GF, QQ
from canonalg.weyl import (
    WeylAlgebra,
    WeylElement,
    WeylEndo,
    commutator,
    dequantize,
    generate_weyl_automorphism,
    pair_scaling,
    pair_swap,
    quantize,
    quantized,
    verify_endo_relations,
)

from util import random_poly, random_weyl

RINGS = [GF(2), GF(3), GF(5), GF(10007), QQ]
CASES = [(ring, n) for ring in RINGS for n in (1, 2, 3)]


def _ids(case):
    ring, n = case
    return f"{ring}-n{n}"


# -- oracles: the image formulas written out on (position, derivation) keys ----------


def oracle_generator(A: WeylAlgebra, i: int) -> WeylElement:
    g, d = [0] * A.n, [0] * A.n
    if i <= A.n:
        d[i - 1] = 1
    else:
        g[i - A.n - 1] = 1
    return WeylElement(A, {(tuple(g), tuple(d)): 1})


def oracle_embed(A: WeylAlgebra, f: Poly, positions: bool) -> WeylElement:
    zero = (0,) * A.n
    return WeylElement(A, {((e, zero) if positions else (zero, e)): c for e, c in f.terms.items()})


def oracle_generators(A: WeylAlgebra) -> list[WeylElement]:
    return [oracle_generator(A, i) for i in range(1, 2 * A.n + 1)]


def oracle_position_shear(A, h):
    images = oracle_generators(A)
    for i in range(1, A.n + 1):
        images[i - 1] = images[i - 1] + oracle_embed(A, h.partial(i), positions=True)
    return images


def oracle_derivation_shear(A, h):
    images = oracle_generators(A)
    for i in range(1, A.n + 1):
        images[A.n + i - 1] = images[A.n + i - 1] + oracle_embed(A, h.partial(i), positions=False)
    return images


def oracle_pair_swap(A, i):
    images = oracle_generators(A)
    images[i - 1] = oracle_generator(A, A.n + i)
    images[A.n + i - 1] = -oracle_generator(A, i)
    return images


def oracle_pair_scaling(A, i, unit):
    images = oracle_generators(A)
    images[i - 1] = images[i - 1].scale(unit)
    images[A.n + i - 1] = images[A.n + i - 1].scale(A.ring.inv(unit))
    return images


def oracle_witness(A: WeylAlgebra, images):
    """The relation loop as a nested scan over every pair, with explicit expectations."""
    one = A.one()
    for i in range(1, 2 * A.n + 1):
        for j in range(i + 1, 2 * A.n + 1):
            c = commutator(images[i - 1], images[j - 1])
            if c != (one if j == i + A.n else A.zero()):
                return (i, j, c)
    return None


def _unit(rng: random.Random, ring):
    if ring.kind == "Fp":
        return rng.randint(1, ring.p - 1)
    return ring.of_fraction(Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5])))


def _same(endo: WeylEndo, images: list) -> bool:
    """Equal images with equal term dicts, in the same term order."""
    return [list(im.terms.items()) for im in endo.images] == [list(im.terms.items()) for im in images]


# -- the quantization map -----------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_quantize_sends_each_term_to_its_normal_ordered_key(case):
    ring, n = case
    A = WeylAlgebra(ring, n)
    rng = random.Random(7 * n + ring.p)
    for _ in range(6):
        f = random_poly(rng, ring, 2 * n, 4)
        q = quantize(A, f)
        assert q.terms == {(e[n:], e[:n]): c for e, c in f.terms.items()}
        # within one block the letters commute, so the map respects products there
        a = Poly(ring, 2 * n, {e[:n] + (0,) * n: c for e, c in f.terms.items()})
        b = Poly(ring, 2 * n, {(0,) * n + e[n:]: c for e, c in f.terms.items()})
        assert quantize(A, a * a) == quantize(A, a) * quantize(A, a)
        assert quantize(A, b * b) == quantize(A, b) * quantize(A, b)
        # position block times derivation block is normal order already
        assert quantize(A, b * a) == quantize(A, b) * quantize(A, a)
    assert A.generators() == oracle_generators(A)
    with pytest.raises(ValueError, match="2n variables"):
        quantize(A, Poly.variable(ring, n, 1))


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_dequantize_inverts_quantize(case):
    ring, n = case
    A = WeylAlgebra(ring, n)
    rng = random.Random(53 * n + ring.p)
    for _ in range(6):
        f = random_poly(rng, ring, 2 * n, 4)
        e = random_weyl(rng, A, 4)
        assert dequantize(quantize(A, f)) == f
        assert quantize(A, dequantize(e)) == e
    assert [dequantize(g) for g in A.generators()] == [Poly.variable(ring, 2 * n, i) for i in range(1, 2 * n + 1)]


def test_quantize_is_not_multiplicative_across_blocks():
    A = WeylAlgebra(QQ, 1)
    d, x = Poly.variable(QQ, 2, 1), Poly.variable(QQ, 2, 2)
    assert quantize(A, d * x) == quantize(A, x) * quantize(A, d)  # x d, the normal order
    assert quantize(A, d) * quantize(A, x) == quantize(A, d * x) + A.one()


def test_quantized_map_is_relation_verified():
    A = WeylAlgebra(QQ, 1)
    d, x = Poly.variable(QQ, 2, 1), Poly.variable(QQ, 2, 2)
    assert quantized(A, PolyEndo(QQ, 2, [d, x])).is_identity()
    with pytest.raises(ValueError, match="commutator"):
        quantized(A, PolyEndo(QQ, 2, [d, d]))


# -- the elementary maps equal their written-out formulas ---------------------------------


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_elementary_maps_equal_the_written_out_formulas(case):
    ring, n = case
    A, ctx = WeylAlgebra(ring, n), PoissonContext(ring, n)
    rng = random.Random(1000 * n + ring.p)
    for _ in range(4):
        h = random_poly(rng, ring, n, 4)
        hx = Poly(ring, 2 * n, {(0,) * n + e: c for e, c in h.terms.items()})  # h on X_{n+1}..X_{2n}
        hd = Poly(ring, 2 * n, {e + (0,) * n: c for e, c in h.terms.items()})  # h on X_1..X_n
        assert _same(quantized(A, coordinate_shear(ctx, hx)), oracle_position_shear(A, h))
        assert _same(quantized(A, momentum_shear(ctx, hd)), oracle_derivation_shear(A, h))
        assert quantize(A, hx) == oracle_embed(A, h, positions=True)
    for i in range(1, n + 1):
        assert _same(pair_swap(A, i), oracle_pair_swap(A, i))
        u = _unit(rng, ring)
        assert _same(pair_scaling(A, i, u), oracle_pair_scaling(A, i, u))
    with pytest.raises(IndexError, match="pair index"):
        pair_swap(A, n + 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_deficit_weyl_is_the_quantized_poly_map(p):
    for n in (1, 2):
        A = WeylAlgebra(GF(p), n)
        endo = frobenius_deficit_weyl(A)
        d1 = oracle_generator(A, 1)
        assert list(endo.images) == [d1 - d1**p] + oracle_generators(A)[1:]
        assert endo == quantized(A, frobenius_deficit_poly(GF(p), 2 * n))


# -- the seeded family draws what it drew before ------------------------------------------


def _oracle_draw(rng: random.Random, ring, nvars: int, max_degree: int) -> Poly:
    """The Weyl family's own shear drawer: n variables, ``randrange`` letters."""
    acc = Poly.zero(ring, nvars)
    for _ in range(rng.randint(1, 2)):
        exps = [0] * nvars
        for _ in range(rng.randint(1, max_degree)):
            exps[rng.randrange(nvars)] += 1
        acc = acc + Poly.monomial(ring, nvars, exps, random_unit(rng, ring, (1, -1, 2, -2)))
    return acc


def oracle_weyl_automorphism(A: WeylAlgebra, seed: int, steps: int, max_degree: int | None) -> WeylEndo:
    rng = random.Random(seed)
    ring, n = A.ring, A.n

    def scale():
        u = random_unit(rng, ring, (1, -1, 2))
        return WeylEndo(A, oracle_pair_scaling(A, rng.randint(1, n), u))

    draws = {
        "shear": lambda: WeylEndo(A, oracle_position_shear(A, _oracle_draw(rng, ring, n, 3))),
        "dual-shear": lambda: WeylEndo(A, oracle_derivation_shear(A, _oracle_draw(rng, ring, n, 3))),
        "swap": lambda: WeylEndo(A, oracle_pair_swap(A, rng.randint(1, n))),
        "scale": scale,
    }
    return compose_random_steps(WeylEndo.identity(A), rng, steps, max_degree, draws)


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), QQ], ids=str)
def test_weyl_family_matches_the_written_out_draws(ring):
    for n in (1, 2):
        A = WeylAlgebra(ring, n)
        for seed in range(8):
            got = generate_weyl_automorphism(A, seed, steps=3, max_degree=3)
            assert got == oracle_weyl_automorphism(A, seed, 3, 3)


def test_block_drawer_stays_in_its_block():
    rng = random.Random(3)
    for _ in range(50):
        h = random_block_poly(rng, QQ, 6, 4, 6, 3, (1, -1, 2, -2, 3))
        assert h.terms and all(not any(e[:3]) and 1 <= sum(e) <= 3 for e in h.terms)
        assert set(h.terms.values()) <= {1, -1, 2, -2, 3}


# -- one pairing loop ----------------------------------------------------------------------


def _bad_images(rng: random.Random, A: WeylAlgebra) -> list:
    """A seeded automorphism with one or two images perturbed, sometimes not at all."""
    images = list(generate_weyl_automorphism(A, rng.randrange(100), steps=2, max_degree=2).images)
    for _ in range(rng.randint(0, 2)):
        k = rng.randrange(len(images))
        images[k] = images[k] + random_weyl(rng, A, 2, terms=2)
    return images


@pytest.mark.parametrize("case", [(ring, n) for ring in (GF(2), GF(3), QQ) for n in (1, 2)], ids=_ids)
def test_relation_witness_is_the_written_out_loops(case):
    ring, n = case
    A = WeylAlgebra(ring, n)
    rng = random.Random(31 * n + ring.p)
    seen = set()
    for _ in range(25):
        images = _bad_images(rng, A)
        witness = oracle_witness(A, images)
        assert verify_endo_relations(A, images) == (witness is None, witness)
        assert pairing_witness(images, commutator, n) == witness
        seen.add(witness is None)
    assert seen == {True, False}


def _perturbed(rng: random.Random, ctx: PoissonContext, endo: PolyEndo) -> PolyEndo:
    images = list(endo.images)
    k = rng.randrange(len(images))
    images[k] = images[k] + random_poly(rng, ctx.ring, ctx.nvars, 2, terms=2)
    return PolyEndo(ctx.ring, ctx.nvars, images)


@pytest.mark.parametrize("case", [(ring, n) for ring in (GF(2), GF(3), GF(5), QQ) for n in (1, 2)], ids=_ids)
def test_is_symplectic_agrees_with_the_bracket_matrix(case):
    ring, n = case
    ctx = PoissonContext(ring, n)
    rng = random.Random(17 * n + ring.p)
    canonical = bracket_matrix(ctx, PolyEndo.identity(ring, 2 * n))
    seen = set()
    for seed in range(12):
        endo = generate_symplectomorphism(ctx, seed, steps=3, max_degree=3)
        for candidate in (endo, _perturbed(rng, ctx, endo)):
            expected = bracket_matrix(ctx, candidate) == canonical
            assert is_symplectic(ctx, candidate) is expected
            seen.add(expected)
    assert seen == {True, False}
