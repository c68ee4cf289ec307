"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints its own PASS/FAIL line (visible even under capture) and
enforces the stated runtime budgets.  All comparisons are exact equalities;
there are no tolerances to tune.
"""

import random
import time

import pytest

from canonalg.conjectures import (
    chain_probe,
    counterexample_suite,
    decide_weyl_automorphism,
    gabber_degree_bound,
    inverse_search_poly,
    kraus_check,
)
from canonalg.poisson import (
    PoissonContext,
    check_symplectic,
    generate_symplectomorphism,
    is_symplectic,
    poisson_bracket,
)
from canonalg.poly import Poly, PolyEndo
from canonalg.reduction import check_center_symplectic, induced_center_endo
from canonalg.rings import GF, QQ
from canonalg.weyl import (
    WeylAlgebra,
    center_slice_check,
    commutator,
    generate_weyl_automorphism,
    inverse_degree_bound,
    inverse_search,
)

from util import random_poly, random_weyl, weyl_corpus, weyl_mul_oracle


@pytest.fixture(scope="module")
def corpus():
    return weyl_corpus()


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_poisson_axioms(capsys):
    t0 = time.time()
    rng = random.Random(101)
    triples = 0
    failures = []
    for ring in (QQ, GF(2), GF(5)):
        for n in (1, 2):
            ctx = PoissonContext(ring, n)
            br = lambda a, b: poisson_bracket(ctx, a, b)
            for _ in range(85):
                f = random_poly(rng, ring, 2 * n, 3, 2)
                g = random_poly(rng, ring, 2 * n, 3, 2)
                h = random_poly(rng, ring, 2 * n, 3, 2)
                triples += 1
                c = ring.of_int(3)
                if br(f + g, h) != br(f, h) + br(g, h) or br(f.scale(c), g) != br(f, g).scale(c):
                    failures.append(("bilinearity", ring, n))
                if br(f, g) != -br(g, f):
                    failures.append(("antisymmetry", ring, n))
                if br(f, g * h) != br(f, g) * h + br(f, h) * g:
                    failures.append(("leibniz", ring, n))
                if not (br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))).is_zero():
                    failures.append(("jacobi", ring, n))
    elapsed = time.time() - t0
    ok = not failures and triples >= 500 and elapsed < 10.0
    report(capsys, 1, ok, f"{triples} triples, {len(failures)} failures, {elapsed:.2f}s (< 10s)")


def test_criterion_2_symplectomorphism_family(capsys):
    rng = random.Random(102)
    rings = (QQ, GF(2), GF(5))
    instances = 0
    failures = []
    for i in range(200):
        ring = rings[i % 3]
        n = 1 if i % 2 == 0 else 2
        ctx = PoissonContext(ring, n)
        endo = generate_symplectomorphism(ctx, seed=3000 + i, steps=3, max_degree=3 if n == 1 else 2)
        instances += 1
        if not is_symplectic(ctx, endo):
            failures.append(("not symplectic", i))
            continue
        for _ in range(2):
            f = random_poly(rng, ring, 2 * n, 2, 2)
            g = random_poly(rng, ring, 2 * n, 2, 2)
            lhs = poisson_bracket(ctx, endo.apply(f), endo.apply(g))
            if lhs != endo.apply(poisson_bracket(ctx, f, g)):
                failures.append(("morphism property", i))
        rec = check_symplectic(ctx, endo)
        if rec.n_factorial_unit and not rec.det_is_one:
            failures.append(("det != 1 with unit n!", i))
    ok = instances >= 200 and not failures
    report(capsys, 2, ok, f"{instances} generated maps, {len(failures)} failures (exact)")


def test_criterion_3_weyl_kernel(capsys):
    rng = random.Random(103)
    failures = []

    triples = 0
    for ring in (QQ, GF(2), GF(5)):
        for n in (1, 2):
            A = WeylAlgebra(ring, n)
            for _ in range(34):
                a, b, c = (random_weyl(rng, A, 3) for _ in range(3))
                triples += 1
                if (a * b) * c != a * (b * c):
                    failures.append(("associativity", ring, n))

    for ring in (QQ, GF(2), GF(5)):
        for n in (1, 2, 3):
            A = WeylAlgebra(ring, n)
            gens = A.generators()
            for i in range(1, 2 * n + 1):
                for j in range(1, 2 * n + 1):
                    got = commutator(gens[i - 1], gens[j - 1])
                    want = A.one() if j == i + n else (-A.one() if i == j + n else A.zero())
                    if got != want:
                        failures.append(("relations", ring, n, i, j))

    oracle_products = 0
    for ring in (QQ, GF(2), GF(5)):
        A = WeylAlgebra(ring, 1)
        for _ in range(34):
            a = random_weyl(rng, A, 3)
            b = random_weyl(rng, A, 3)
            oracle_products += 1
            if a * b != weyl_mul_oracle(a, b):
                failures.append(("rewrite oracle", ring))

    A = WeylAlgebra(QQ, 1)
    d, x = A.generator(1), A.generator(2)
    if d**2 * x**2 != x**2 * d**2 + (x * d).scale(QQ.of_int(4)) + A.const(QQ.of_int(2)):
        failures.append(("d^2 x^2 identity",))

    ok = triples >= 200 and oracle_products >= 100 and not failures
    report(
        capsys, 3, ok,
        f"{triples} associativity triples, {oracle_products} oracle products, "
        f"{len(failures)} failures",
    )


def test_criterion_4_center_slices(capsys):
    t0 = time.time()
    results = []
    for n, p, cap in ((1, 2, 4), (1, 3, 3), (2, 2, 2)):
        rec = center_slice_check(WeylAlgebra(GF(p), n), cap)
        results.append(((n, p, cap), rec.match, rec.dimension_found, rec.dimension_expected))
    elapsed = time.time() - t0
    ok = all(match for _, match, _, _ in results) and elapsed < 60.0
    report(capsys, 4, ok, f"slices {results}, {elapsed:.2f}s (< 60s)")


def test_criterion_5_center_restriction_properties(capsys, corpus):
    failures = []
    for idx, endo in enumerate(corpus):
        sym = check_center_symplectic(endo)
        if not sym.symplectic:
            failures.append((idx, "center restriction not symplectic", repr(endo)))
        deg_endo, deg_center = endo.degree(), sym.center.endo.degree()
        if deg_endo != deg_center:
            failures.append((idx, f"degree {deg_endo} != {deg_center}", repr(endo)))
    ok = len(corpus) >= 100 and not failures
    report(
        capsys, 5, ok,
        f"{len(corpus)} endomorphisms over F2/F3/F5 (n <= 2), failures: {failures or 'none'}",
    )


def test_criterion_6_inverse_degree_bounds(capsys, corpus):
    failures = []
    weyl_autos = 0
    for p in (2, 3, 5):
        for n in (1, 2):
            A = WeylAlgebra(GF(p), n)
            for s in range(7):
                e = generate_weyl_automorphism(
                    A, seed=7000 + 100 * p + 10 * n + s, steps=3, max_degree=3 if n == 1 else 2
                )
                bound = inverse_degree_bound(e)
                inv, d = inverse_search(e, bound)
                weyl_autos += 1
                if inv is None or d > bound:
                    failures.append(("weyl", p, n, s))

    poly_autos = 0
    for ring in (QQ, GF(2), GF(5)):
        for n in (1, 2):
            ctx = PoissonContext(ring, n)
            for s in range(7):
                e = generate_symplectomorphism(
                    ctx, seed=8000 + 10 * n + s, steps=3, max_degree=3 if n == 1 else 2
                )
                bound = gabber_degree_bound(e)
                inv, d = inverse_search_poly(e, bound)
                poly_autos += 1
                if inv is None or d > bound:
                    failures.append(("poly", str(ring), n, s))
    ok = not failures
    report(
        capsys, 6, ok,
        f"{weyl_autos} Weyl automorphisms within deg^(2n-1), "
        f"{poly_autos} symplectomorphisms within deg^(m-1), {len(failures)} failures",
    )


def test_criterion_7_counterexample_suite(capsys):
    t0 = time.time()
    rep = counterexample_suite(kraus_p_max=1000)
    elapsed = time.time() - t0
    bad = [c for c in rep.cases if not c["expected_falsification"]]
    proven_no = all(c["verdict"]["automorphism"] == "no" for c in rep.cases)
    ok = rep.all_expected and proven_no and not bad and elapsed < 30.0
    report(
        capsys, 7, ok,
        f"{len(rep.cases)} family verdicts all proven-no at certified bounds, "
        f"kraus included, {elapsed:.2f}s (< 30s)",
    )


def test_criterion_8_quartic_reducibility(capsys):
    t0 = time.time()
    rep = kraus_check(1000)
    elapsed = time.time() - t0
    primes = len(rep.factorizations)
    ok = rep.z_irreducible and rep.all_reducible and primes == 168 and elapsed < 10.0
    report(
        capsys, 8, ok,
        f"irreducible over Z, reducible mod all {primes} primes <= 1000, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_9_chain_probe(capsys, corpus):
    events = []
    for idx, endo in enumerate(corpus):
        rep = chain_probe(endo)
        if not rep.consistent:
            events.append((idx, rep.events))
    ok = not events
    report(capsys, 9, ok, f"{len(corpus)} probes, falsification events: {events or 'none'}")


def test_criterion_10_reduction_functoriality(capsys, corpus):
    failures = []
    pairs = 0
    by_algebra = {}
    for endo in corpus:
        by_algebra.setdefault(endo.algebra, []).append(endo)
    for algebra, members in by_algebra.items():
        for i in range(len(members) - 1):
            if pairs >= 60:
                break
            phi, psi = members[i], members[i + 1]
            pairs += 1
            lhs = induced_center_endo(phi.compose(psi)).endo
            rhs = induced_center_endo(phi).endo.compose(induced_center_endo(psi).endo)
            if lhs != rhs:
                failures.append(("functoriality", str(algebra)))

    invertible = 0
    for endo in corpus:
        decision = decide_weyl_automorphism(endo)
        if decision.status != "yes":
            continue
        invertible += 1
        down = induced_center_endo(endo).endo
        down_inv = induced_center_endo(decision.inverse).endo
        ident = PolyEndo.identity(down.ring, down.nvars)
        if down.compose(down_inv) != ident or down_inv.compose(down) != ident:
            failures.append(("inverse reduction", repr(endo)))
    ok = pairs >= 50 and invertible > 0 and not failures
    report(
        capsys, 10, ok,
        f"{pairs} composition pairs, {invertible} invertible members, {len(failures)} failures",
    )
