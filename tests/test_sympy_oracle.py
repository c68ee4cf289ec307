"""``Poly.__mul__``, ``PolyEndo.compose`` and jacobian determinants against
sympy over Q and F_p.

sympy is a test extra only; the package itself has no dependencies.
"""

from __future__ import annotations

import random

import pytest

sympy = pytest.importorskip("sympy")

from canonalg.poly import Poly, PolyEndo  # noqa: E402
from canonalg.rings import GF, QQ, Ring  # noqa: E402
from util import random_poly  # noqa: E402

RINGS = [QQ, GF(2), GF(3), GF(5), GF(10007)]


def sympy_domain(ring: Ring):
    return sympy.QQ if ring.kind == "Q" else sympy.GF(ring.p)


def to_sympy(f: Poly, gens) -> "sympy.Poly":
    terms = {exps: sympy.Rational(c.numerator, c.denominator) for exps, c in f.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, domain=sympy_domain(f.ring))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_product_against_sympy(ring: Ring, m: int):
    rng = random.Random(m + ring.p)
    gens = sympy.symbols(f"x1:{m + 1}")
    for _ in range(10):
        a = random_poly(rng, ring, m, 6, terms=6)
        b = random_poly(rng, ring, m, 6, terms=6)
        assert to_sympy(a * b, gens) == to_sympy(a, gens) * to_sympy(b, gens)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_compose_against_sympy(ring: Ring, m: int):
    rng = random.Random(10 * m + ring.p)
    gens = sympy.symbols(f"x1:{m + 1}")
    for _ in range(4):
        f = PolyEndo(ring, m, [random_poly(rng, ring, m, 3) for _ in range(m)])
        g = PolyEndo(ring, m, [random_poly(rng, ring, m, 3) for _ in range(m)])
        # (f . g)(X_i) = f(g(X_i)): g's image with each X_j replaced by f's image
        outer = {x: to_sympy(im, gens).as_expr() for x, im in zip(gens, f.images)}
        expected = [
            sympy.Poly(to_sympy(im, gens).as_expr().subs(outer, simultaneous=True), *gens, domain=sympy_domain(ring))
            for im in g.images
        ]
        assert [to_sympy(im, gens) for im in f.compose(g).images] == expected


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_jacobian_determinant_against_sympy(ring: Ring, m: int):
    rng = random.Random(100 * m + ring.p)
    gens = sympy.symbols(f"x1:{m + 1}")
    for _ in range(3):
        f = PolyEndo(ring, m, [random_poly(rng, ring, m, 3) for _ in range(m)])
        images = [to_sympy(im, gens).as_expr() for im in f.images]
        # over F_p the residues are integers, so the determinant over Q reduces to it
        jacobian = sympy.Matrix([[sympy.diff(im, x) for x in gens] for im in images])
        expected = sympy.Poly(jacobian.det(), *gens, domain=sympy_domain(ring))
        assert to_sympy(f.jacobian().determinant(), gens) == expected
