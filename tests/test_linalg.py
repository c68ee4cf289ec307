"""The sparse solver against the dense oracle on seeded random systems.

Every case checks that the rank and the positions of inconsistent
right-hand sides agree with dense elimination, that each returned solution
satisfies A x = b exactly, and that it equals the oracle's solution: both set
the free unknowns to zero and pivot on the same columns (the leftmost
independent ones), so the solution is unique, not only when A has full
column rank.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import linalg_oracle as oracle
from linalg_dense import matrix_rank, solve_many
from linalg_oracle import scatter_rows
from canonalg import linalg
from canonalg.linalg import ColumnEchelon, SparseMatrix
from canonalg.rings import GF, QQ, ZZ, Ring

RINGS = [GF(2), GF(3), GF(5), GF(10007), QQ]


def random_entry(rng: random.Random, ring: Ring, density: float):
    if rng.random() >= density:
        return ring.zero()
    if ring.kind == "Fp":
        return rng.randrange(1, ring.p)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def random_matrix(rng, ring, n_rows, n_cols, density=0.5, rank=None):
    """A random matrix; with ``rank`` given, a product of n_rows x rank and rank x n_cols factors."""
    if rank is None:
        return [[random_entry(rng, ring, density) for _ in range(n_cols)] for _ in range(n_rows)]
    left = random_matrix(rng, ring, n_rows, rank, density)
    right = random_matrix(rng, ring, rank, n_cols, density)
    return [[ring.coerce(sum(a * b for a, b in zip(row, col))) for col in zip(*right)] for row in left]


def times(ring: Ring, rows, x) -> list:
    return [ring.coerce(sum(a * b for a, b in zip(row, x))) for row in rows]


def random_rhs(rng, ring, rows, n_cols, consistent: bool) -> list:
    """A * (random x) when ``consistent``, else a random column (usually outside the column space)."""
    if consistent:
        return times(ring, rows, [random_entry(rng, ring, 0.7) for _ in range(n_cols)])
    return [random_entry(rng, ring, 0.7) for _ in rows]


def check_against_oracle(ring: Ring, rows: list, rhs: list) -> list:
    n_cols = len(rows[0]) if rows else 0
    rank = oracle.matrix_rank(ring, rows)
    assert matrix_rank(ring, rows) == rank
    got = solve_many(ring, rows, rhs)
    want = oracle.solve_many(ring, rows, rhs)
    assert [x is None for x in got] == [x is None for x in want]
    for x, w, b in zip(got, want, rhs):
        if x is None:
            continue
        assert len(x) == n_cols
        assert times(ring, rows, x) == list(b)
        assert x == w
        if ring.kind == "Q":
            assert all(type(v) is Fraction for v in x)
    return got


# (n_rows, n_cols, rank or None for a random matrix, density)
SHAPES = {
    "tall": (12, 5, None, 0.4),
    "wide": (4, 11, None, 0.4),
    "square": (7, 7, None, 0.3),
    "square-dense": (6, 6, None, 1.0),
    "tall-deficient": (10, 6, 3, 0.6),
    "wide-deficient": (5, 9, 2, 0.6),
    "square-deficient": (8, 8, 5, 0.5),
    "very-sparse": (15, 15, None, 0.08),
}


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_random_systems_match_the_oracle(ring, shape):
    n_rows, n_cols, rank, density = SHAPES[shape]
    for seed in range(6):
        rng = random.Random(f"{ring} {shape} {seed}")
        rows = random_matrix(rng, ring, n_rows, n_cols, density, rank)
        rhs = [random_rhs(rng, ring, rows, n_cols, consistent=k % 2 == 0) for k in range(4)]
        check_against_oracle(ring, rows, rhs)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_only_some_right_hand_sides_inconsistent(ring):
    rng = random.Random(f"mixed {ring}")
    rows = random_matrix(rng, ring, 9, 6, 0.6, rank=4)
    consistent = random_rhs(rng, ring, rows, 6, consistent=True)
    outside = random_rhs(rng, ring, rows, 6, consistent=False)
    while all(x is not None for x in oracle.solve_many(ring, rows, [outside])):
        outside = random_rhs(rng, ring, rows, 6, consistent=False)
    got = check_against_oracle(ring, rows, [consistent, outside, [ring.zero()] * 9, outside, consistent])
    assert [x is None for x in got] == [False, True, False, True, False]
    assert got[2] == [ring.zero()] * 6


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_empty_and_zero_systems(ring):
    zero, one = ring.zero(), ring.one()
    assert solve_many(ring, [], []) == []
    assert matrix_rank(ring, []) == 0
    check_against_oracle(ring, [], [[]])
    # rows without unknowns: only the zero right-hand side is consistent
    check_against_oracle(ring, [[], []], [[zero, zero], [zero, one]])
    # all-zero rows, and zero rows among nonzero ones
    check_against_oracle(ring, [[zero] * 4 for _ in range(3)], [[zero] * 3, [zero, one, zero]])
    rng = random.Random(f"zero rows {ring}")
    rows = random_matrix(rng, ring, 6, 5, 0.6)
    rows[1] = [zero] * 5
    rows[4] = [zero] * 5
    check_against_oracle(ring, rows, [random_rhs(rng, ring, rows, 5, c) for c in (True, False)])
    # no right-hand sides at all
    assert solve_many(ring, rows, []) == []


def test_integers_are_refused():
    with pytest.raises(ValueError, match="field coefficients"):
        solve_many(ZZ, [[1, 0], [0, 1]], [[1, 1]])
    with pytest.raises(ValueError, match="field coefficients"):
        matrix_rank(ZZ, [[2]])


def test_scatter_rows_matches_per_cell_assembly():
    rng = random.Random(7)
    keys = [(i, j) for i in range(4) for j in range(5)]
    columns = [{k: rng.randrange(1, 5) for k in rng.sample(keys, rng.randrange(0, 6))} for _ in range(9)]
    row_keys = sorted({k for col in columns for k in col})
    rows = scatter_rows(columns, row_keys, 0)
    assert rows == [[col.get(rk, 0) for col in columns] for rk in row_keys]
    assert scatter_rows([], [], 0) == []


# -- what the echelon stores ------------------------------------------------------------------


def echelon_matching_the_oracle(ring: Ring, columns: list, targets: list) -> ColumnEchelon:
    """The echelon of ``columns`` after solving ``targets``, whose solutions
    equal the dense oracle's on the same system."""
    matrix = SparseMatrix()
    for column in columns:
        matrix.append(column)
    rhs = [matrix.vector(t) for t in targets]
    got = linalg.solve_many(ring, matrix, rhs)
    want = oracle.solve_many(ring, [list(row) for row in matrix], [list(b) for b in rhs])
    assert got == [None if x is None else {i: v for i, v in enumerate(x) if v} for x in want]
    return matrix.echelon


def test_a_column_meeting_no_pivot_is_stored_as_given():
    # the second column shares key 1 with the first, which is not a pivot
    first, second = {0: 1, 1: 3}, {1: 1, 2: 4}
    echelon = echelon_matching_the_oracle(GF(5), [first, second], [{0: 2, 1: 1, 2: 1}, {3: 1}])
    assert echelon.pivots == [0, 1]
    assert echelon.columns[0] is first and echelon.columns[1] is second


def test_a_column_meeting_a_pivot_is_reduced_in_a_copy():
    first, second = {0: 1, 1: 3}, {0: 2, 1: 2, 2: 4}
    before = list(second.items())
    echelon = echelon_matching_the_oracle(GF(5), [first, second], [{0: 3, 1: 2, 2: 4}, {2: 1}])
    assert echelon.columns[1] is not second and list(second.items()) == before
    assert echelon.columns[1] == {1: 1, 2: 4}  # second - 2 * first, mod 5


@pytest.mark.parametrize("ring", [GF(7), QQ], ids=str)
def test_a_lead_one_column_is_stored_unscaled(ring):
    one = Fraction(1) if ring is QQ else 1
    unit, other = {0: one, 1: ring.of_int(3)}, {1: ring.of_int(2), 2: ring.of_int(5)}
    echelon = echelon_matching_the_oracle(ring, [unit, other], [{0: one, 1: ring.of_int(5), 2: ring.of_int(5)}])
    assert echelon.columns[0] is unit
    # a lead other than 1 is scaled, into a new dict
    assert echelon.columns[1] is not other and echelon.columns[1][1] == 1
