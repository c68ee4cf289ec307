"""The Weyl algebra on 2n generators, in normal-ordered representation.

Generators Y_1..Y_n act as partial derivations and Y_{n+1}..Y_{2n} as
multiplication by the matching coordinate, so the defining relations are

    [Y_i, Y_{i+n}] = 1   (1 <= i <= n),   all other generator pairs commute.

Every element is stored in normal order: a finite sum of terms

    c * Y_{n+1}^{g_1} ... Y_{2n}^{g_n} * Y_1^{d_1} ... Y_n^{d_n}

keyed by the exponent pair (g, d).  The product of two such terms follows the
operator Leibniz rule: the derivation part of the left factor acts on the
position part of the right factor,

    (x^g1 d^d1)(x^g2 d^d2)
        = sum over l <= min(d1, g2) of
          binom(d1, l) * falling(g2, l) * x^(g1+g2-l) d^(d1+d2-l)

with the weights binom(d1, l) * falling(g2, l) computed as exact integers
over Q and Z and mod p over F_p, where every weight past l = p - 1 vanishes;
a weight that vanishes is dropped before its term is formed.  A worked
instance over Q with n = 1 (writing x = Y_2, d = Y_1):

    d^2 * x^2 = x^2 d^2 + 4 x d + 2

Centrality needs no products: on normal-ordered terms ad(x_i) and ad(d_i)
are, up to sign, the partial derivatives in d_i and x_i, so an element is
central iff all its exponents vanish in the ring (see :func:`is_central`).
:func:`commutator`, :func:`verify_endo_relations` and
:func:`center_slice_check` stay on products; the slice check is the
independent test of that identity.

The algebra quantizes the canonical Poisson algebra in 2n variables: the
normal-ordering map :func:`quantize` sends X_i to Y_i and :func:`dequantize`
reads it back, both through :func:`swap_blocks`, the one statement of the
block layout, which the center restriction also reads.  The elementary
automorphisms (shears, pair swaps, unit scalings) are the quantized ones of
:mod:`canonalg.poisson`; each of their image terms lies in one block, whose
letters commute, so normal ordering is exact on them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable, Sequence

from . import poisson
from .linalg import SparseMatrix, matrix_rank, solve_many
from .poly import Endo, Poly, PolyEndo, Terms, compose_random_steps, default_names, monomials_upto, pairing_witness
from .poly import _reduced, random_block_poly, random_unit
from .rings import Ring

TermKey = tuple[tuple[int, ...], tuple[int, ...]]


class RelationError(ValueError):
    """An image list violates the defining relations; carries the witness pair."""

    def __init__(self, i: int, j: int, commutator: "WeylElement"):
        self.i = i
        self.j = j
        self.commutator = commutator
        super().__init__(
            f"images {i} and {j} have commutator {commutator.to_text()}, "
            f"expected {'1' if j == i + commutator.algebra.n else '0'}"
        )


@dataclass(frozen=True)
class WeylAlgebra:
    """Coefficient ring plus the index n (2n generators)."""

    ring: Ring
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("index n must be >= 1")

    @property
    def ngens(self) -> int:
        return 2 * self.n

    def zero(self) -> "WeylElement":
        return WeylElement(self, {})

    def one(self) -> "WeylElement":
        return self.const(self.ring.one())

    def const(self, c) -> "WeylElement":
        return WeylElement(self, {((0,) * self.n, (0,) * self.n): c})

    def generator(self, i: int) -> "WeylElement":
        """Y_i, 1-based: derivation letter for i <= n, position letter above."""
        if not 1 <= i <= self.ngens:
            raise IndexError(f"generator index {i} out of range 1..{self.ngens}")
        e = (0,) * (i - 1) + (1,) + (0,) * (self.ngens - i)  # X_i, keyed as :func:`quantize` keys it
        return WeylElement(self, {WeylElement._unflat(swap_blocks(e)): self.ring.one()})

    def generators(self) -> list["WeylElement"]:
        return [self.generator(i) for i in range(1, self.ngens + 1)]


class WeylElement(Terms):
    """Normal-ordered element: exponent pair (position, derivation) -> coefficient."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: WeylAlgebra, terms: dict | None = None):
        self.algebra = algebra
        self._set_terms(terms)

    def _space(self) -> tuple:
        return (self.algebra,)

    def _make(self, terms: dict) -> "WeylElement":
        out = object.__new__(WeylElement)
        out.algebra = self.algebra
        out.terms = _reduced(terms, self.algebra.ring.p)
        return out

    @property
    def ring(self) -> Ring:
        return self.algebra.ring

    def _key(self, key) -> TermKey:
        g, d = key
        if len(g) != self.algebra.n or len(d) != self.algebra.n:
            raise ValueError("exponent pair has wrong length")
        return (tuple(g), tuple(d))

    @staticmethod
    def _flat(key: TermKey) -> tuple[int, ...]:
        """Position exponents, then derivation exponents: the printing order."""
        return key[0] + key[1]

    @staticmethod
    def _unflat(flat: tuple[int, ...]) -> TermKey:
        n = len(flat) // 2
        return (flat[:n], flat[n:])

    def _one(self) -> "WeylElement":
        return self.algebra.one()

    def _letters(self) -> tuple[str, ...]:
        return swap_blocks(default_names(2 * self.algebra.n, "Y"))

    # -- multiplication ------------------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Normal-ordered product via the operator Leibniz rule (see module doc).

        Sums accumulate as plain ints or ``Fraction`` and ``_make`` reduces
        them once per key; weights that vanish mod p are never expanded.
        """
        self._check(other)
        p = self.algebra.ring.p
        out: dict[TermKey, object] = {}
        get = out.get
        right = [(g2, d2, c2, any(g2)) for (g2, d2), c2 in other.terms.items()]
        for (g1, d1), c1 in self.terms.items():
            lowers = any(d1)
            for g2, d2, c2, raises in right:
                c = c1 * c2
                key = (tuple(map(add, g1, g2)), tuple(map(add, d1, d2)))
                # coordinates where d^d1 meets x^g2 with some nonzero weight past l = 0
                lowered = lowers and raises and [
                    (i, w)
                    for i, (a, b) in enumerate(zip(d1, g2))
                    if a and b and len(w := _leibniz_weights(a, b, p)) > 1
                ]
                if not lowered:
                    out[key] = get(key, 0) + c
                    continue
                expansion = [(key, c)]
                for i, weights in lowered:
                    expansion = [
                        ((g[:i] + (g[i] - l,) + g[i + 1 :], d[:i] + (d[i] - l,) + d[i + 1 :]), cw * w)
                        for (g, d), cw in expansion
                        for l, w in weights
                    ]
                for key, cw in expansion:
                    out[key] = get(key, 0) + cw
        return self._make(out)


@lru_cache(maxsize=1 << 16)
def _leibniz_weights(a: int, b: int, p: int) -> tuple[tuple[int, int], ...]:
    """The pairs (l, binom(a, l) * falling(b, l)) for l <= min(a, b) with a
    nonzero weight, l = 0 first with weight 1.  Over F_p the weights are
    reduced mod p and stop at l = p - 1: past it falling(b, l) has p
    consecutive factors, and below it each l is a unit mod p."""
    out = [(0, 1)]
    w = 1
    for l in range(1, min(a, b, p - 1 if p else a) + 1):  # each weight from the one at l - 1
        w *= (a - l + 1) * (b - l + 1)
        w = w * pow(l, -1, p) % p if p else w // l
        if w:
            out.append((l, w))
    return tuple(out)


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    return a * b - b * a


def is_central(a: WeylElement) -> bool:
    """Commutes with every generator, read off the exponents.

    On normal-ordered terms [x^g d^e, x_i] = e_i x^g d^(e - 1_i) and
    [d_i, x^g d^e] = g_i x^(g - 1_i) d^e: each bracket with a generator
    differentiates in one letter and sends distinct terms to distinct terms.
    So an element is central iff every exponent of every term is 0 in the
    ring: divisible by p over F_p, zero over Q and Z (only the constants).
    Public API: the center restriction makes the same test on packed keys.
    """
    p = a.ring.p
    return not any(e % p if p else e for g, d in a.terms for e in g + d)


def verify_endo_relations(
    algebra: WeylAlgebra, images: Sequence[WeylElement]
) -> tuple[bool, tuple[int, int, WeylElement] | None]:
    """Check the defining relations on a candidate image list.

    Returns (True, None) when [G_i, G_{i+n}] = 1 for all i <= n and every
    other pair of images commutes; otherwise (False, witness) with the
    offending 1-based pair and its commutator.
    """
    if len(images) != algebra.ngens:
        raise ValueError(f"need {algebra.ngens} images, got {len(images)}")
    if any(im.algebra != algebra for im in images):
        raise ValueError("image from the wrong algebra")
    witness = pairing_witness(images, commutator, algebra.n)
    return witness is None, witness


class WeylEndo(Endo):
    """Relation-verified endomorphism; construction rejects invalid image lists."""

    __slots__ = ("algebra", "images")

    def __init__(self, algebra: WeylAlgebra, images: Sequence[WeylElement]):
        ok, witness = verify_endo_relations(algebra, images)
        if not ok:
            raise RelationError(*witness)
        self.algebra = algebra
        self.images = tuple(images)

    @classmethod
    def identity(cls, algebra: WeylAlgebra) -> "WeylEndo":
        return cls(algebra, algebra.generators())

    @property
    def ring(self) -> Ring:
        return self.algebra.ring

    def _space(self) -> tuple:
        return (self.algebra,)

    def _generators(self) -> list[WeylElement]:
        return self.algebra.generators()

    def _letter_images(self):
        """Images of the position block, then of the derivation block."""
        n = self.algebra.n
        return self.images[n:] + self.images[:n]

    def _leibniz(self) -> tuple:
        """Position letter i meets derivation letter n + i of the flat key."""
        n = self.algebra.n
        return [(i, n + i) for i in range(n)], _leibniz_weights

    compose = Endo.compose  # own attribute, so it can be wrapped per class


def inverse_degree_bound(endo: WeylEndo) -> int:
    """Degree bound for the inverse of a Weyl-algebra automorphism: deg^(2n-1)."""
    return endo.degree() ** (2 * endo.algebra.n - 1)


# -- quantization of the canonical Poisson algebra -------------------------------


def swap_blocks(seq: Sequence) -> tuple:
    """The block layout, either way: X_1..X_2n (derivations first) are the
    flat letters of a normal-ordered key (positions first) with the halves
    swapped; so is any per-letter list, an image engine's shifts too."""
    n = len(seq) // 2
    return tuple(seq[n:]) + tuple(seq[:n])


def quantize(algebra: WeylAlgebra, f: Poly) -> WeylElement:
    """The normal-ordered element with X_i -> Y_i: c X^e becomes
    c x^(e_{n+1..2n}) d^(e_{1..n}).  Linear, not multiplicative; it is
    exact on terms that lie in one block, whose letters commute."""
    if f.nvars != algebra.ngens or f.ring != algebra.ring:
        raise ValueError("polynomial must have 2n variables over the algebra ring")
    unflat = WeylElement._unflat
    return WeylElement(algebra, {unflat(swap_blocks(e)): c for e, c in f.terms.items()})


def dequantize(elem: WeylElement) -> Poly:
    """The inverse of :func:`quantize` on terms: c x^g d^e becomes c X^(e, g)."""
    algebra = elem.algebra
    return Poly(algebra.ring, algebra.ngens, {swap_blocks(g + d): c for (g, d), c in elem.terms.items()})


def quantized(algebra: WeylAlgebra, endo: PolyEndo) -> WeylEndo:
    """The Weyl endomorphism with the quantized images of a polynomial map
    in 2n variables, relation-verified on construction."""
    return WeylEndo(algebra, [quantize(algebra, im) for im in endo.images])


def _classical(algebra: WeylAlgebra) -> poisson.PoissonContext:
    return poisson.PoissonContext(algebra.ring, algebra.n)


# -- elementary automorphisms and test families ------------------------------------


def pair_swap(algebra: WeylAlgebra, i: int) -> WeylEndo:
    """Y_i -> Y_{i+n}, Y_{i+n} -> -Y_i on one pair."""
    return quantized(algebra, poisson.pair_swap(_classical(algebra), i))


def pair_scaling(algebra: WeylAlgebra, i: int, unit) -> WeylEndo:
    """Y_i -> u Y_i, Y_{i+n} -> u^{-1} Y_{i+n} for a unit u."""
    return quantized(algebra, poisson.pair_scaling(_classical(algebra), i, unit))


def generate_weyl_automorphism(
    algebra: WeylAlgebra, seed: int, steps: int, max_degree: int | None = None
) -> WeylEndo:
    """Deterministic composition of shears, swaps and unit scalings.

    Every elementary factor is relation-verified on construction, and so is
    each partial composition; a step that would push the degree past
    max_degree is skipped.
    """
    rng = random.Random(seed)
    ring, n, ctx = algebra.ring, algebra.n, _classical(algebra)

    def shear(make, lo):
        units = (1, -1, 2, -2)
        return lambda: quantized(algebra, make(ctx, random_block_poly(rng, ring, 2 * n, lo, lo + n - 1, 3, units)))

    def scale():
        u = random_unit(rng, ring, (1, -1, 2))  # the unit before the pair: each seed keeps its map
        return pair_scaling(algebra, rng.randint(1, n), u)

    draws = {
        "shear": shear(poisson.coordinate_shear, n + 1),
        "dual-shear": shear(poisson.momentum_shear, 1),
        "swap": lambda: pair_swap(algebra, rng.randint(1, n)),
        "scale": scale,
    }
    return compose_random_steps(WeylEndo.identity(algebra), rng, steps, max_degree, draws)


def central_monomial(algebra: WeylAlgebra, g: Iterable[int], d: Iterable[int]) -> WeylElement:
    """Monomial with all exponents multiplied by p, hence central over F_p;
    public API, the terms :func:`generate_central_perturbation` adds."""
    p = algebra.ring.characteristic()
    if p == 0:
        raise ValueError("central monomials of this shape need a prime field")
    return WeylElement(
        algebra,
        {(tuple(p * e for e in g), tuple(p * e for e in d)): algebra.ring.one()},
    )


def generate_central_perturbation(algebra: WeylAlgebra, seed: int) -> WeylEndo:
    """Y_i -> Y_i + (random central element); relation-preserving, usually
    not invertible."""
    p = algebra.ring.characteristic()
    if p == 0:
        raise ValueError("central perturbations need a prime field")
    rng = random.Random(seed)
    images = []
    for i in range(1, algebra.ngens + 1):
        im = algebra.generator(i)
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.4:
                continue
            g = [0] * algebra.n
            d = [0] * algebra.n
            for _ in range(rng.randint(1, 2)):
                block = rng.choice((g, d))
                block[rng.randrange(algebra.n)] += 1
            if not any(g) and not any(d):
                continue
            c = rng.randint(1, p - 1)
            im = im + central_monomial(algebra, g, d).scale(c)
        images.append(im)
    return WeylEndo(algebra, images)


# -- center slice and inverse search -------------------------------------------------


@dataclass(frozen=True)
class CenterSliceReport:
    degree_cap: int
    dimension_found: int
    dimension_expected: int
    match: bool


def slice_monomials(algebra: WeylAlgebra, max_degree: int) -> list[TermKey]:
    n = algebra.n
    return [(exps[:n], exps[n:]) for exps in monomials_upto(2 * n, max_degree)]


def center_slice_check(algebra: WeylAlgebra, degree_cap: int) -> CenterSliceReport:
    """Compare the joint ad-kernel on the degree slice with the p-divisible span.

    The kernel of all 2n maps a -> [a, Y_i] restricted to elements of degree
    <= degree_cap is computed by Gaussian elimination; it must coincide with
    the span of the normal-form monomials whose exponents are all divisible
    by p.  Equality is certified by matching dimensions plus centrality of
    each expected basis monomial, read off its kernel column: the column
    stacks the commutators with every generator, so it is empty exactly
    when the monomial is central.  The columns are commutators, that is
    products: :func:`is_central` reads centrality off the exponents, which
    is the identity this check tests, so it is not used here.
    """
    ring = algebra.ring
    p = ring.characteristic()
    if p == 0:
        raise ValueError("center slice check needs a prime field")
    basis = slice_monomials(algebra, degree_cap)
    expected = {key for key in basis if all(e % p == 0 for pair in key for e in pair)}

    generators = algebra.generators()
    matrix = SparseMatrix()
    for key in basis:
        elem = WeylElement(algebra, {key: ring.one()})
        stacked: dict[TermKey, object] = {}
        for gi, gen in enumerate(generators):
            c = commutator(elem, gen)
            for tkey, v in c.terms.items():
                stacked[(gi,) + tkey] = v  # tag rows by generator index
        matrix.append(stacked)
    contained = not any(column for key, column in zip(basis, matrix.columns) if key in expected)
    dimension_found = len(basis) - matrix_rank(ring, matrix)
    return CenterSliceReport(
        degree_cap=degree_cap,
        dimension_found=dimension_found,
        dimension_expected=len(expected),
        match=contained and dimension_found == len(expected),
    )


def inverse_search(endo: WeylEndo, degree_cap: int) -> tuple["WeylEndo | None", int | None]:
    """Search for an inverse with image degrees <= degree_cap.

    One sparse system widened cap by cap, solved by :func:`linalg.solve_many`
    once per cap (see :meth:`Endo.inverse_search`); a solution is
    relation-verified and checked two-sided before being returned as
    (inverse, degree at which it was found); exhaustion returns (None, None).
    """
    return endo.inverse_search(degree_cap, solve_many)
