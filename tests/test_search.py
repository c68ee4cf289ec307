"""The incremental inverse search against the from-scratch oracle.

``Endo.inverse_search`` keeps one sparse matrix, and its echelon, across
degree caps and builds it straight from the monomial images' term dicts; the oracle
(``search_oracle``) rebuilds a dense system at every cap and solves it with
dense Gauss-Jordan elimination.  Both must return the same inverse found at
the same cap, or both exhaust the caps.  The search's monomial images come
from the packed-key engine ``poly._Images``; they must equal the tuple-keyed
chain of ``search_oracle`` in keys, values and dict order.
"""

from __future__ import annotations

import random

import pytest

import search_oracle
import linalg_oracle as oracle
from linalg_oracle import scatter_rows
from util import random_coeff, random_poly, weyl_corpus

import canonalg.conjectures as conjectures
import canonalg.poly as poly
import canonalg.weyl as weyl
from canonalg.conjectures import (
    _search_cap,
    decide_poly_automorphism,
    decide_weyl_automorphism,
    frobenius_deficit_poly,
    frobenius_deficit_weyl,
    gabber_degree_bound,
    inverse_search_poly,
)
from canonalg.linalg import SparseMatrix, solve_many
from canonalg.reduction import induced_center_endo
from canonalg.poisson import PoissonContext, coordinate_shear, generate_symplectomorphism, momentum_shear
from canonalg.poly import Endo, Poly, PolyEndo, _Images, compositions, monomial_count, monomials_upto
from canonalg.rings import GF, QQ, ZZ
from canonalg.weyl import (
    RelationError,
    WeylAlgebra,
    WeylEndo,
    central_monomial,
    generate_central_perturbation,
    generate_weyl_automorphism,
    inverse_degree_bound,
    inverse_search,
    quantized,
)

RINGS = [QQ, GF(2), GF(3), GF(5), GF(10007)]


def weyl_cap(endo) -> int:
    return _search_cap(2 * endo.algebra.n, inverse_degree_bound(endo))


def poly_cap(endo) -> int:
    return _search_cap(endo.nvars, gabber_degree_bound(endo))


def engine_images_match_the_oracle(endo, cap: int) -> None:
    """Every monomial image up to ``cap``, from the packed-key engine, equals
    the tuple chain's in keys, values and dict order."""
    images, cache = _Images(endo, cap), search_oracle.image_cache(endo)
    one = endo.images[0]._one()
    for b in monomials_upto(len(endo.images), cap):
        got = images.unpacked(images.image(images.pack(b)), one)
        want = search_oracle.monomial_image(endo, b, cache)
        assert list(got.terms.items()) == list(want.terms.items()), (repr(endo), b)


def test_engine_images_match_the_tuple_chain_on_the_corpus():
    for endo in weyl_corpus():
        engine_images_match_the_oracle(endo, 4)


@pytest.mark.parametrize("ring", [QQ, GF(3), GF(5), GF(10007)], ids=str)
def test_engine_images_match_the_tuple_chain(ring):
    for endo in poly_maps(ring, 41):
        engine_images_match_the_oracle(endo, 5)
    for n in (1, 2):
        algebra, ctx = WeylAlgebra(ring, n), PoissonContext(ring, n)
        x, d = Poly.variable(ring, 2 * n, n + 1), Poly.variable(ring, 2 * n, 1)  # x1 and d1 in 2n variables
        endo = quantized(algebra, coordinate_shear(ctx, x**4)).compose(quantized(algebra, momentum_shear(ctx, d**4)))
        engine_images_match_the_oracle(endo, 4 if n == 1 else 3)
    if 0 < ring.p < 10:
        algebra = WeylAlgebra(ring, 1)
        # central terms: position exponents p*e lower nothing however high the derivation exponent
        d, x = algebra.generators()
        bumped = WeylEndo(algebra, [d + central_monomial(algebra, [1], [0]), x + central_monomial(algebra, [0], [1])])
        engine_images_match_the_oracle(bumped, 4)


def test_weyl_corpus_matches_the_oracle():
    corpus = weyl_corpus()
    found = 0
    for endo in corpus:
        cap = weyl_cap(endo)
        got = inverse_search(endo, cap)
        assert got == search_oracle.inverse_search(endo, cap), repr(endo)
        found += got[0] is not None
    assert 0 < found < len(corpus)  # both outcomes are exercised


def poly_maps(ring, seed: int) -> list[PolyEndo]:
    """Symplectomorphisms (n = 1, 2), random maps, and triangular
    automorphisms composed with them (m = 2)."""
    rng = random.Random(seed)
    maps = []
    for n in (1, 2):
        ctx = PoissonContext(ring, n)
        maps += [generate_symplectomorphism(ctx, seed=seed + s, steps=3, max_degree=3 if n == 1 else 2) for s in range(3)]
    for m in (1, 2):
        for _ in range(3):
            endo = PolyEndo(ring, m, [random_poly(rng, ring, m, 2) for _ in range(m)])
            if not all(im.is_zero() for im in endo.images):  # the zero map has no degree bound
                maps.append(endo)
    x1, x2 = Poly.variable(ring, 2, 1), Poly.variable(ring, 2, 2)
    shear = PolyEndo(ring, 2, [x1 + x2 * x2, x2])
    maps += [shear.compose(e) for e in maps if e.nvars == 2]
    return maps


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_poly_and_poisson_maps_match_the_oracle(ring):
    for endo in poly_maps(ring, 40):
        cap = poly_cap(endo)
        assert inverse_search_poly(endo, cap) == search_oracle.inverse_search(endo, cap), repr(endo)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_deficit_maps_match_the_oracle(p):
    ring = GF(p)
    for endo in (frobenius_deficit_poly(ring, 1), frobenius_deficit_poly(ring, 2)):
        cap = min(poly_cap(endo), 6)
        got = inverse_search_poly(endo, cap)
        assert got == search_oracle.inverse_search(endo, cap) == (None, None)
    endo = frobenius_deficit_weyl(WeylAlgebra(ring, 1))
    assert inverse_search(endo, 6) == search_oracle.inverse_search(endo, 6) == (None, None)


def high_terms(rng, ring, nvars: int, variables, degree: int) -> Poly:
    """One or two seeded terms of total degree 2..degree in ``variables`` (0-based)."""
    acc = Poly.zero(ring, nvars)
    for _ in range(rng.randint(1, 2)):
        exps = [0] * nvars
        for _ in range(rng.randint(2, degree)):
            exps[rng.choice(variables)] += 1
        acc = acc + Poly.monomial(ring, nvars, exps, random_coeff(rng, ring, nonzero=True))
    return acc


def unitriangular_maps(ring, nvars: int, seed: int) -> list[PolyEndo]:
    """Seeded maps c_i X_i + terms of degree >= 2: one with terms in every
    variable (mostly not invertible), two triangular automorphisms (X_i's
    terms in the later variables, or in the earlier ones) and, for m <= 2,
    their composite, whose inverse has a higher degree."""
    rng = random.Random(seed)
    x = PolyEndo.identity(ring, nvars).images
    degree = 3 if nvars <= 2 else 2

    def built(variables) -> PolyEndo:
        images = [x[i].scale(random_coeff(rng, ring, nonzero=True)) for i in range(nvars)]
        terms = [high_terms(rng, ring, nvars, v, degree) if v else Poly.zero(ring, nvars) for v in variables]
        return PolyEndo(ring, nvars, [im + t for im, t in zip(images, terms)])

    maps = [
        built([range(nvars)] * nvars),
        built([range(i + 1, nvars) for i in range(nvars)]),
        built([range(i) for i in range(nvars)]),
    ]
    return maps + [maps[1].compose(maps[2])] if nvars <= 2 else maps


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_triangular_search_matches_the_oracle_at_every_cap(ring):
    """The oracle searched to the top cap answers every lower cap too: found
    at f, it finds the same inverse at every cap >= f and none below."""
    found = set()
    for nvars in range(1, 5):
        top = 6 if nvars <= 2 else 4  # the dense oracle over 4 variables at cap 6 takes seconds a map
        for endo in unitriangular_maps(ring, nvars, 100 * nvars):
            assert endo.unitriangular(), repr(endo)
            inverse, degree = search_oracle.inverse_search(endo, top)
            for cap in range(top + 1):
                want = (inverse, degree) if inverse is not None and degree <= cap else (None, None)
                assert endo.triangular_search(cap) == want, (repr(endo), cap)
            found.add(degree)
    assert None in found and len(found) >= 4  # both outcomes, inverses of several degrees


def test_unitriangular_needs_exactly_c_times_its_own_variable_below_degree_2():
    x1, x2 = PolyEndo.identity(GF(5), 2).images
    one = Poly.one(GF(5), 2)
    assert PolyEndo(GF(5), 2, [x1.scale(3) + x2**2, x2 + x1**2 * x2]).unitriangular()
    for images in ([x1 + x2, x2], [x1 + one, x2], [x2, x1], [x1**2, x2], [x1, x2 * x2]):
        assert not PolyEndo(GF(5), 2, images).unitriangular(), images


def test_corpus_center_restrictions_decide_alike_through_either_route(monkeypatch):
    """The reduction route and the linear one give σ|Z the same record, inverse included."""
    centers = [induced_center_endo(endo).endo for endo in weyl_corpus()]
    triangular = [center.unitriangular() for center in centers]
    decisions = [decide_poly_automorphism(center) for center in centers]
    monkeypatch.setattr(PolyEndo, "unitriangular", lambda self: False)
    assert [decide_poly_automorphism(center) for center in centers] == decisions
    assert 0 < sum(triangular) < len(centers)
    assert {d.status for d, t in zip(decisions, triangular) if t} == {"yes", "no", "unknown"}


def test_reach_map_matches_the_oracle_at_cap_8():
    phi = generate_central_perturbation(WeylAlgebra(GF(2), 2), 5)
    assert inverse_search(phi, 8) == search_oracle.inverse_search(phi, 8) == (None, None)


@pytest.mark.parametrize("p,n,seed,cap", [(2, 2, 5, 6), (3, 1, 601, 5), (5, 2, 1021, 4)])
def test_kept_matrix_is_every_caps_dense_system_and_solves_it_alike(p, n, seed, cap):
    """Widened cap by cap, the matrix reads as each cap's dense system built
    from nothing, and solves its targets as the dense oracle does."""
    endo = generate_central_perturbation(WeylAlgebra(GF(p), n), seed)
    matrix, cache, basis = SparseMatrix(), search_oracle.image_cache(endo), []
    targets = [t.terms for t in endo._generators()]
    rhs = [matrix.vector(t) for t in targets]
    for c in range(1, cap + 1):
        for b in monomials_upto(2 * n, c)[len(basis) :]:
            matrix.append(search_oracle.monomial_image(endo, b, cache).terms)
            basis.append(b)
        columns = [search_oracle.monomial_image(endo, b, cache).terms for b in basis]
        row_keys = sorted({k for col in columns for k in col} | {k for t in targets for k in t})
        rows = scatter_rows(columns, row_keys, 0)
        dense_rhs = [[t.get(k, 0) for k in row_keys] for t in targets]
        assert [list(row) for row in matrix] == rows and [list(b) for b in rhs] == dense_rhs
        want = oracle.solve_many(endo.ring, rows, dense_rhs)
        got = solve_many(endo.ring, matrix, rhs)
        assert [None if x is None else {i: v for i, v in enumerate(x) if v} for x in want] == got
        assert matrix.echelon.added == len(basis)


def search_columns_match_the_oracle(endo, cap: int) -> None:
    """The columns the search hands ``solve_many``, each one product from its
    cached prefix, equal the tuple chain's images in keys, values and dict order."""
    seen = []

    def recording(ring, matrix, rhs):
        seen.append(matrix)
        return solve_many(ring, matrix, rhs)

    _, found = endo.inverse_search(cap, recording)
    assert len(seen) == (found or cap) and all(m is seen[0] for m in seen)
    basis = monomials_upto(len(endo.images), found or cap)
    columns = seen[0].columns
    assert len(columns) == len(basis)
    images, cache = _Images(endo, cap), search_oracle.image_cache(endo)
    for b, column in zip(basis, columns):
        want = images.packed(search_oracle.monomial_image(endo, b, cache))
        assert list(column.items()) == list(want.items()), (repr(endo), b)


def test_search_columns_match_the_tuple_chain_on_the_corpus():
    for endo in weyl_corpus():
        search_columns_match_the_oracle(endo, 4)


@pytest.mark.parametrize("ring", [QQ, GF(3), GF(5)], ids=str)
def test_search_columns_match_the_tuple_chain(ring):
    for endo in poly_maps(ring, 42):
        search_columns_match_the_oracle(endo, 4)


@pytest.mark.parametrize("which", ["weyl", "poly"])
def test_searches_solve_once_per_cap_through_their_modules_solve_many(which, monkeypatch):
    """The searches look ``solve_many`` up in their own module, once per cap,
    so a replacement there (a tracer, this test) sees every solve."""
    module = weyl if which == "weyl" else conjectures
    if which == "weyl":
        endo, search = generate_central_perturbation(WeylAlgebra(GF(2), 2), 5), inverse_search
    else:
        x1, x2 = PolyEndo.identity(GF(3), 2).images  # not unitriangular: X1 -> X2
        endo, search = PolyEndo(GF(3), 2, [x2, x1 - x1**3]), inverse_search_poly
    sizes = []

    def counting(ring, matrix, rhs):
        sizes.append(len(matrix.columns))
        return solve_many(ring, matrix, rhs)

    monkeypatch.setattr(module, "solve_many", counting)
    assert search(endo, 5) == (None, None)
    assert sizes == [len(monomials_upto(len(endo.images), cap)) for cap in range(1, 6)]


def test_a_unitriangular_map_is_decided_without_solve_many(monkeypatch):
    """The Frobenius deficit map X1 - X1^p, X2 takes the reduction route."""

    def refusing(ring, matrix, rhs):
        raise AssertionError("solve_many called")

    monkeypatch.setattr(conjectures, "solve_many", refusing)
    endo = frobenius_deficit_poly(GF(3), 2)
    assert endo.unitriangular() and inverse_search_poly(endo, 5) == (None, None)
    assert decide_poly_automorphism(endo) == conjectures.AutomorphismDecision("no", None, 3, 3)


def test_searches_refuse_integer_coefficients_at_every_cap():
    for cap in (0, 1):
        with pytest.raises(ValueError, match="inverse search needs field coefficients"):
            inverse_search(WeylEndo.identity(WeylAlgebra(ZZ, 1)), cap)
        with pytest.raises(ValueError, match="inverse search needs field coefficients"):
            inverse_search_poly(PolyEndo.identity(ZZ, 2), cap)


def test_cap_zero_searches_nothing():
    assert inverse_search(WeylEndo.identity(WeylAlgebra(GF(3), 1)), 0) == (None, None)
    assert inverse_search_poly(PolyEndo.identity(QQ, 1), 0) == (None, None)


def capped_decision(search, bound: int, endo, cap: int) -> conjectures.AutomorphismDecision:
    """The decision a fixed cap stands for: the search at exactly ``cap``,
    and "no" iff ``cap`` reaches the bound."""
    inverse, found = search(endo, cap)
    if inverse is not None:
        return conjectures.AutomorphismDecision("yes", found, bound, cap, inverse)
    return conjectures.AutomorphismDecision("no" if cap >= bound else "unknown", None, bound, cap)


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), QQ], ids=str)
def test_a_fixed_degree_cap_decides_as_the_search_at_that_cap(ring):
    cases = [(decide_poly_automorphism, inverse_search_poly, gabber_degree_bound(e), e) for e in poly_maps(ring, 43)]
    cases += [(decide_weyl_automorphism, inverse_search, inverse_degree_bound(e), e) for e in weyl_maps(ring, 43)]
    statuses, above = set(), 0
    for decide, search, bound, endo in cases:
        caps = set(range(5))
        if monomial_count(len(endo.images), bound + 1) <= 500:  # past the bound where that stays small
            caps.add(bound + 1)
            above += bound + 1 > 4  # a cap past the bound and past 0..4
        for cap in sorted(caps):
            decision = decide(endo, degree_cap=cap)
            assert decision == capped_decision(search, bound, endo, cap), (repr(endo), cap)
            statuses.add(decision.status)
    assert above and statuses == {"yes", "no", "unknown"}


# -- the two-sided check on the search's own engine -----------------------------------


def test_compositions_loop_matches_the_recursive_oracle():
    for k in range(1, 7):
        for total in range(13):
            assert list(compositions(total, k)) == list(search_oracle.compositions(total, k)), (total, k)


def weyl_maps(ring, seed: int) -> list[WeylEndo]:
    """Generated automorphisms (n = 1, 2), and over small F_p central
    perturbations and automorphisms composed with them."""
    maps = []
    for n in (1, 2):
        algebra = WeylAlgebra(ring, n)
        autos = [
            generate_weyl_automorphism(algebra, seed + s, steps=3, max_degree=3 if n == 1 else 2) for s in range(3)
        ]
        maps += autos
        if 0 < ring.p < 10:
            perts = [generate_central_perturbation(algebra, seed + s) for s in range(2)]
            maps += perts + [a.compose(b) for a, b in zip(autos, perts)]
    return maps


def corrupted(solutions: list, ring) -> list:
    """The solutions with one unit added to the first coefficient of the first."""
    first = dict(solutions[0])
    i = next(iter(first))
    first[i] = ring.add(first[i], ring.one())
    return [first] + solutions[1:]


def test_checked_inverse_matches_the_two_compose_oracle(monkeypatch):
    """On every cap of every search, the check on the search's engine returns
    what composing the candidate on both sides returns; where it finds an
    inverse, a corrupted solution makes both raise."""
    check, outcomes = Endo.checked_inverse, []

    def both(self, basis, solutions, images, targets):
        def dense(sols):
            return [None if sol is None else [sol.get(i, 0) for i in range(len(basis))] for sol in sols]

        got = check(self, basis, solutions, images, targets)
        assert got == search_oracle.checked_inverse(self, basis, dense(solutions)), repr(self)
        if got is not None:
            bad = corrupted(solutions, self.ring)
            with pytest.raises(AssertionError, match="internal bug"):
                check(self, basis, bad, images, targets)
            with pytest.raises((AssertionError, RelationError)):
                search_oracle.checked_inverse(self, basis, dense(bad))
        outcomes.append(got is not None)
        return got

    weyl_endos = weyl_corpus() + [e for ring in RINGS for e in weyl_maps(ring, 60)]
    poly_endos = [e for ring in RINGS for e in poly_maps(ring, 61)]
    monkeypatch.setattr(Endo, "checked_inverse", both)
    for endo in weyl_endos:
        inverse_search(endo, weyl_cap(endo))
    for endo in poly_endos:
        inverse_search_poly(endo, poly_cap(endo))
    assert 100 < sum(outcomes) < len(outcomes)  # both outcomes, many inverses


@pytest.mark.parametrize("which", ["weyl", "poly", "unitriangular"])
def test_a_found_inverse_costs_two_engines_and_no_compose(which, monkeypatch):
    """The search's engine and one of the inverse's: the check composes nothing."""
    if which == "weyl":
        algebra, ctx = WeylAlgebra(GF(5), 2), PoissonContext(GF(5), 2)
        x, d = Poly.variable(GF(5), 4, 3), Poly.variable(GF(5), 4, 1)
        endo = quantized(algebra, coordinate_shear(ctx, x**3)).compose(quantized(algebra, momentum_shear(ctx, d**2)))
        search = inverse_search
    else:
        x1, x2 = Poly.variable(QQ, 2, 1), Poly.variable(QQ, 2, 2)
        images = [x1 + x2**3, x2 + x1 + x2**3] if which == "poly" else [x1 + x2**3, x2.scale(2)]
        endo, search = PolyEndo(QQ, 2, images), inverse_search_poly
    engines = []

    class Counting(_Images):
        __slots__ = ()

        def __init__(self, endo, *sizes):
            engines.append(endo)
            super().__init__(endo, *sizes)

    def no_compose(self, other):
        raise AssertionError("compose called")

    monkeypatch.setattr(poly, "_Images", Counting)
    for cls in (Endo, PolyEndo, WeylEndo):
        monkeypatch.setattr(cls, "compose", no_compose)
    inverse, cap = search(endo, 8)
    assert inverse is not None and len(engines) == 2
    assert engines[0] is endo and engines[1] is inverse


def checked_maps(which: str):
    """(module whose ``solve_many`` the search calls, map, search, CLI command,
    file text); each map's inverse has terms of degree 2."""
    if which == "weyl":
        algebra = WeylAlgebra(GF(3), 1)
        d, x = algebra.generators()
        text = "ring=F3 kind=weyl n=1\nY1 -> Y1\nY2 -> Y2 + Y1^2\n"
        return weyl, WeylEndo(algebra, [d, x + d * d]), inverse_search, "invert-weyl", text
    x1, x2 = Poly.variable(GF(3), 2, 1), Poly.variable(GF(3), 2, 2)
    endo = PolyEndo(GF(3), 2, [x1 + (x2 * x2).scale(2), x2 + Poly.one(GF(3), 2)])
    text = "ring=F3 kind=poly m=2\nX1 -> X1 + 2*X2^2\nX2 -> X2 + 1\n"
    return conjectures, endo, inverse_search_poly, "invert", text


@pytest.mark.parametrize("which", ["weyl", "poly"])
def test_a_corrupted_solution_is_an_internal_bug(which, monkeypatch):
    """A solver fault never reads as a verdict or as ill-formed input: on the
    Weyl side the candidate's relation failure becomes the AssertionError."""
    module, endo, search, _, _ = checked_maps(which)

    def corrupting(ring, matrix, rhs):
        solutions = solve_many(ring, matrix, rhs)
        return corrupted(solutions, ring) if None not in solutions else solutions

    monkeypatch.setattr(module, "solve_many", corrupting)
    with pytest.raises(AssertionError, match="internal bug") as info:
        search(endo, 4)
    assert isinstance(info.value.__cause__, RelationError) == (which == "weyl")


# Each direction of the two-sided check is live on its own.  With sigma an
# automorphism, a wrong psi fails both directions, so each test corrupts what
# one direction reads: the cached basis images that sigma(psi(Y_i)) sums
# (the matrix columns are those images), or the products of psi's engine,
# which only psi(sigma(Y_i)) forms.


def corrupt_a_used_column(monkeypatch, module) -> None:
    """``solve_many`` solves correctly, then doubles (over F3) the cached
    image of the last basis monomial a solution uses, one of degree >= 2."""

    def corrupting(ring, matrix, rhs):
        solutions = solve_many(ring, matrix, rhs)
        if None not in solutions:
            j = max(i for sol in solutions for i in sol)
            assert j > len(rhs)  # past the constant and the degree-1 columns, which psi(sigma(Y_i)) reads
            column = matrix.columns[j]
            for k in column:
                column[k] = column[k] * 2 % ring.p
        return solutions

    monkeypatch.setattr(module, "solve_many", corrupting)


def corrupt_the_inverses_engine(monkeypatch) -> list:
    """Every image engine after the first (the search's) doubles its
    products over F3; only the check's engine of psi is built after it."""
    engines = []

    class Corrupting(_Images):
        def __init__(self, endo, *sizes):
            super().__init__(endo, *sizes)
            engines.append(self)

        def _times(self, left, right, lowers):
            out = super()._times(left, right, lowers)
            return out if self is engines[0] else {k: c * 2 % self.p for k, c in out.items()}

    monkeypatch.setattr(poly, "_Images", Corrupting)
    return engines


@pytest.mark.parametrize("which", ["weyl", "poly"])
def test_each_direction_of_the_check_is_live(which, monkeypatch):
    module, endo, search, _, _ = checked_maps(which)
    inverse, cap = search(endo, 4)
    assert inverse is not None and cap == 2
    with monkeypatch.context() as patch:
        corrupt_a_used_column(patch, module)
        with pytest.raises(AssertionError, match="one-sided inverse failed the two-sided check"):
            search(endo, 4)
    engines = corrupt_the_inverses_engine(monkeypatch)
    with pytest.raises(AssertionError, match="one-sided inverse failed the two-sided check"):
        search(endo, 4)
    assert len(engines) == 2 and engines[1].width == engines[0].width


@pytest.mark.parametrize("direction", ["sigma-psi", "psi-sigma"])
@pytest.mark.parametrize("which", ["weyl", "poly"])
def test_each_direction_of_the_check_exits_3_from_the_cli(which, direction, tmp_path, monkeypatch, capsys):
    from canonalg.cli import main

    module, _, _, command, text = checked_maps(which)
    path = tmp_path / "map.endo"
    path.write_text(text)
    assert main([command, "--input", str(path)]) == 0
    capsys.readouterr()
    if direction == "sigma-psi":
        corrupt_a_used_column(monkeypatch, module)
    else:
        corrupt_the_inverses_engine(monkeypatch)
    out = tmp_path / "r.json"
    assert main([command, "--input", str(path), "--json", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["internal error: AssertionError: one-sided inverse failed the two-sided check (internal bug)"]
    assert not out.exists()
