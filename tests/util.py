"""Shared test helpers: seeded random element generators and independent oracles.

The oracles here deliberately avoid the production code paths they check:
the determinant oracle is a permutation sum, and the Weyl multiplication
oracle is a word rewriting system that only knows the single-swap relation.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from canonalg.poly import Poly, PolyMatrix
from canonalg.rings import GF, Ring
from canonalg.weyl import (
    WeylAlgebra,
    WeylElement,
    WeylEndo,
    generate_central_perturbation,
    generate_weyl_automorphism,
)


def random_coeff(rng: random.Random, ring: Ring, nonzero: bool = False):
    if ring.kind == "Fp":
        lo = 1 if nonzero else 0
        return rng.randint(lo, ring.p - 1)
    pool = [-3, -2, -1, 1, 2, 3] if nonzero else [-3, -2, -1, 0, 1, 2, 3]
    val = rng.choice(pool)
    if ring.kind == "Q" and rng.random() < 0.3:
        return ring.of_fraction(Fraction(val, rng.choice([2, 3])))
    return ring.of_int(val)


def random_poly(rng: random.Random, ring: Ring, nvars: int, max_degree: int, terms: int = 3) -> Poly:
    acc = Poly.zero(ring, nvars)
    for _ in range(rng.randint(1, terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        acc = acc + Poly.monomial(ring, nvars, exps, random_coeff(rng, ring, nonzero=True))
    return acc


def random_weyl(rng: random.Random, algebra: WeylAlgebra, max_degree: int, terms: int = 3) -> WeylElement:
    acc = algebra.zero()
    for _ in range(rng.randint(1, terms)):
        g = [0] * algebra.n
        d = [0] * algebra.n
        for _ in range(rng.randint(0, max_degree)):
            block = rng.choice((g, d))
            block[rng.randrange(algebra.n)] += 1
        c = random_coeff(rng, algebra.ring, nonzero=True)
        acc = acc + WeylElement(algebra, {(tuple(g), tuple(d)): c})
    return acc


# -- determinant oracle ---------------------------------------------------------


def det_permutation_sum(mat: PolyMatrix) -> Poly:
    size = len(mat.rows)
    acc = Poly.zero(mat.ring, mat.nvars)
    for perm in itertools.permutations(range(size)):
        sign = 1
        seen = [False] * size
        for start in range(size):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = Poly.one(mat.ring, mat.nvars)
        for i in range(size):
            prod = prod * mat.rows[i][perm[i]]
        acc = acc + (prod if sign == 1 else -prod)
    return acc


# -- word-rewriting Weyl multiplication oracle ------------------------------------


def element_to_words(a: WeylElement) -> list[tuple[object, tuple[int, ...]]]:
    """Each normal-form term becomes (coeff, word of 1-based generator letters)."""
    n = a.algebra.n
    words = []
    for (g, d), c in a.sorted_terms():
        word: list[int] = []
        for i, e in enumerate(g, start=1):
            word.extend([n + i] * e)
        for i, e in enumerate(d, start=1):
            word.extend([i] * e)
        words.append((c, tuple(word)))
    return words


def words_to_element(algebra: WeylAlgebra, words) -> WeylElement:
    acc = algebra.zero()
    n = algebra.n
    for c, word in words:
        g = [0] * n
        d = [0] * n
        for letter in word:
            if letter <= n:
                d[letter - 1] += 1
            else:
                g[letter - n - 1] += 1
        acc = acc + WeylElement(algebra, {(tuple(g), tuple(d)): c})
    return acc


def normal_order_words(algebra: WeylAlgebra, words) -> list:
    """Rewrite until no derivation letter sits left of a position letter.

    One swap at a time: d_i x_j -> x_j d_i (+ 1 when j = i + n, dropping
    both letters).  Independent of the closed-form product.
    """
    n = algebra.n
    done = []
    todo = list(words)
    while todo:
        c, word = todo.pop()
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if a <= n < b:
                swapped = word[:k] + (b, a) + word[k + 2 :]
                todo.append((c, swapped))
                if b == a + n:
                    todo.append((c, word[:k] + word[k + 2 :]))
                break
        else:
            done.append((c, word))
    return done


def weyl_mul_oracle(a: WeylElement, b: WeylElement) -> WeylElement:
    algebra = a.algebra
    ring = algebra.ring
    products = []
    for c1, w1 in element_to_words(a):
        for c2, w2 in element_to_words(b):
            products.append((ring.mul(c1, c2), w1 + w2))
    return words_to_element(algebra, normal_order_words(algebra, products))


# -- the shared endomorphism corpus -------------------------------------------------


def weyl_corpus() -> list[WeylEndo]:
    """At least 100 relation-verified endomorphisms over F2/F3/F5, n <= 2:
    generated automorphisms, central perturbations, and mixed compositions."""
    return [endo for _, endo in labelled_weyl_corpus()]


def labelled_weyl_corpus() -> list[tuple[str, WeylEndo]]:
    """:func:`weyl_corpus` with a label per map: family, ring, n and seed,
    such as ``auto/F2/n=1/seed=210`` or ``comp/F2/n=1/seed=210+710``."""
    corpus = []
    for p in (2, 3, 5):
        for n in (1, 2):
            algebra = WeylAlgebra(GF(p), n)
            max_degree = 3 if n == 1 else 2
            auto_seeds = [100 * p + 10 * n + s for s in range(12)]
            pert_seeds = [500 + 100 * p + 10 * n + s for s in range(6)]
            autos = [generate_weyl_automorphism(algebra, seed, steps=3, max_degree=max_degree) for seed in auto_seeds]
            perts = [generate_central_perturbation(algebra, seed) for seed in pert_seeds]
            label = f"F{p}/n={n}/seed="
            corpus.extend((f"auto/{label}{seed}", e) for seed, e in zip(auto_seeds, autos))
            corpus.extend((f"pert/{label}{seed}", e) for seed, e in zip(pert_seeds, perts))
            if p == 2 or (p == 3 and n == 1):
                pairs = zip(auto_seeds[:3], pert_seeds[:3], autos[:3], perts[:3])
                corpus.extend((f"comp/{label}{s}+{t}", a.compose(b)) for s, t, a, b in pairs)
    return corpus
