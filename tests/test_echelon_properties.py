"""Property test of the sparse matrix and its echelon across batches of columns.

Columns are appended in batches, as the inverse search appends each degree
cap's monomial images; after every batch the rank and the solution of every
right-hand side must equal the dense oracle's on the matrix of the columns
appended so far, inconsistent right-hand sides included, and the matrix
read as dense rows must be that matrix.  A right-hand side carries its
remainder from one solve to the next; every solve must still return what
a fresh echelon of all the columns so far solves from scratch, and one made
by another matrix is refused.  Ranking and solving share the matrix's one
echelon, in either order.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import linalg_oracle as oracle  # noqa: E402
from canonalg.linalg import ColumnEchelon, SparseMatrix, matrix_rank, solve_many  # noqa: E402
from canonalg.rings import GF, QQ  # noqa: E402

RINGS = [GF(2), GF(3), GF(5), GF(10007), QQ]


def entries(ring):
    if ring.kind == "Fp":
        # mostly zeros, so that the columns are sparse and often dependent
        return st.one_of(st.just(0), st.just(0), st.integers(0, ring.p - 1))
    return st.one_of(
        st.just(Fraction(0)),
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    )


@st.composite
def batched_systems(draw, ring=None):
    if ring is None:
        ring = draw(st.sampled_from(RINGS))
    n_rows = draw(st.integers(0, 7))
    column = st.lists(entries(ring), min_size=n_rows, max_size=n_rows)
    batches = draw(st.lists(st.lists(column, max_size=4), min_size=1, max_size=4))
    columns = [col for batch in batches for col in batch]
    # combinations of all the columns are consistent at the end, usually not
    # before; free draws usually never are
    combos = draw(st.lists(st.lists(entries(ring), min_size=len(columns), max_size=len(columns)), max_size=2))
    rhs = [[ring.coerce(sum(c * col[i] for c, col in zip(combo, columns))) for i in range(n_rows)] for combo in combos]
    rhs += draw(st.lists(column, max_size=2))
    return ring, n_rows, batches, rhs


def sparse(vector) -> dict:
    """A dense vector as a dict keyed the way term keys are: by tuples."""
    return {(i, "row"): v for i, v in enumerate(vector) if v}


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(batched_systems())
def test_batches_agree_with_the_dense_oracle_on_every_prefix(system):
    ring, n_rows, batches, rhs = system
    matrix, ranked = SparseMatrix(), SparseMatrix()
    vectors = [matrix.vector(sparse(b)) for b in rhs]
    columns: list = []
    for batch in batches:
        for col in batch:
            matrix.append(sparse(col))
            ranked.append(sparse(col))
            columns.append(col)
        rows = [[col[i] for col in columns] for i in range(n_rows)]
        # the dense reading: the rows that hold a nonzero of a column or a right-hand side
        nonzero = sorted({i for v in columns + rhs for i, x in enumerate(v) if x})
        assert [list(row) for row in matrix] == [rows[i] for i in nonzero]
        assert [list(v) for v in vectors] == [[b[i] for i in nonzero] for b in rhs]
        for value in (0, 1):
            assert [row.count(value) for row in matrix] == [rows[i].count(value) for i in nonzero]
            assert [v.count(value) for v in vectors] == [[b[i] for i in nonzero].count(value) for b in rhs]
        assert matrix_rank(ring, ranked) == oracle.matrix_rank(ring, rows)
        before = matrix.echelon
        got = solve_many(ring, matrix, vectors)
        assert before is None or matrix.echelon is before  # widened, not rebuilt
        assert matrix.echelon.rank == ranked.echelon.rank and matrix.echelon.added == len(columns)
        for x, w in zip(got, oracle.solve_many(ring, rows, rhs)):
            if w is None:
                assert x is None
                continue
            assert x == {i: v for i, v in enumerate(w) if v}
            for v in x.values():
                assert ring.coerce(v) == v and type(v) is type(ring.zero())


LATE, NEVER = ("late", "row"), ("never", "row")  # keys only the last batch, or no column, holds


@st.composite
def carried_systems(draw):
    """Sparse batches of columns, the last one ending with ``LATE`` alone, and
    targets: combinations of all the columns, free draws, ``LATE`` alone
    (solvable from the last batch on) and a draw plus ``NEVER`` (never)."""
    ring = draw(st.sampled_from(RINGS))
    n_rows = draw(st.integers(1, 7))
    column = st.lists(entries(ring), min_size=n_rows, max_size=n_rows).map(sparse)
    batches = draw(st.lists(st.lists(column, max_size=4), min_size=1, max_size=4))
    batches[-1].append({LATE: ring.one()})
    columns = [col for batch in batches for col in batch]
    targets = []
    for combo in draw(st.lists(st.lists(entries(ring), min_size=len(columns), max_size=len(columns)), max_size=2)):
        total: dict = {}
        for c, col in zip(combo, columns):
            for k, v in col.items():
                total[k] = ring.add(total.get(k, ring.zero()), ring.mul(c, v))
        targets.append({k: v for k, v in total.items() if v})
    targets += draw(st.lists(column, max_size=2))
    targets += [{LATE: ring.one()}, {**draw(column), NEVER: ring.one()}]
    return ring, batches, targets


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(carried_systems())
def test_carried_remainders_solve_as_a_fresh_echelon_does(system):
    ring, batches, targets = system
    matrix, columns = SparseMatrix(), []
    vectors = [matrix.vector(t) for t in targets]
    elsewhere = SparseMatrix().vector(targets[0])  # made by another matrix: refused
    for number, batch in enumerate(batches, start=1):
        for col in batch:
            matrix.append(col)
            columns.append(col)
        added = matrix.echelon.added if matrix.echelon else 0
        carried = [(v.remainder, dict(v.combo)) for v in vectors]
        with pytest.raises(ValueError):
            solve_many(ring, matrix, vectors + [elsewhere])
        assert (matrix.echelon.added if matrix.echelon else 0) == added  # nothing reduced
        assert all(v.remainder is r and v.combo == c for v, (r, c) in zip(vectors, carried))
        got = solve_many(ring, matrix, vectors)
        fresh = ColumnEchelon(ring)
        for col in columns:
            fresh.add(col)
        want = [fresh.resolve(t, {})[1] for t in targets]
        assert [None if x is None else list(x.items()) for x in got] == [
            None if x is None else list(x.items()) for x in want
        ]
        assert [v.entries for v in vectors] == targets  # the right-hand sides as given, for their readers
        assert elsewhere.remainder is elsewhere.entries and elsewhere.combo == {}
        assert (got[-2] is None) == (number < len(batches)) and got[-1] is None


@pytest.mark.parametrize("ring", RINGS, ids=str)
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_ranking_and_solving_share_one_echelon_in_either_order(ring, data):
    _, n_rows, batches, rhs = data.draw(batched_systems(ring))
    columns = [col for batch in batches for col in batch]
    fresh = ColumnEchelon(ring)
    for col in columns:
        fresh.add(sparse(col))
    want = [fresh.resolve(sparse(b), {})[1] for b in rhs]
    rank = oracle.matrix_rank(ring, [[col[i] for col in columns] for i in range(n_rows)])
    for rank_first in (True, False):
        matrix = SparseMatrix()
        for col in columns:
            matrix.append(sparse(col))
        vectors = [matrix.vector(sparse(b)) for b in rhs]
        if rank_first:
            assert matrix_rank(ring, matrix) == rank
        assert solve_many(ring, matrix, vectors) == want
        assert matrix_rank(ring, matrix) == rank
