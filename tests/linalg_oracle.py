"""Dense Gaussian elimination over an exact field, kept as a test oracle.

This is the solver ``canonalg.linalg`` used before it became sparse, moved
here unchanged: every scalar operation goes through ``Ring``, one cell at a
time.  The tests compare the sparse solver with it.  :func:`scatter_rows`,
the dense row assembly the inverse search and the center-slice kernel used
before the column echelon took their term dicts directly, moved here too.
"""

from __future__ import annotations

from typing import Sequence

from canonalg.rings import Ring


def scatter_rows(columns: Sequence[dict], row_keys: Sequence, zero) -> list[list]:
    """Dense rows, one per row key, from one ``{row key: value}`` dict per column."""
    index = {rk: i for i, rk in enumerate(row_keys)}
    rows = [[zero] * len(columns) for _ in row_keys]
    for c, col in enumerate(columns):
        for rk, v in col.items():
            rows[index[rk]][c] = v
    return rows


def _eliminate(ring: Ring, mat: list[list], ncols_left: int) -> list[int]:
    """In-place forward elimination on the leftmost ncols_left columns.

    Row operations also hit the trailing (right-hand-side) columns.  Returns
    the pivot column list; rows end up in echelon form with unit pivots.
    """
    if not ring.is_field():
        raise ValueError("elimination needs field coefficients")
    pivots: list[int] = []
    r = 0
    for c in range(ncols_left):
        pivot_row = next((i for i in range(r, len(mat)) if not ring.is_zero(mat[i][c])), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = ring.inv(mat[r][c])
        mat[r] = [ring.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i == r:
                continue
            f = mat[i][c]
            if ring.is_zero(f):
                continue
            mat[i] = [ring.sub(v, ring.mul(f, w)) for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return pivots


def solve_many(ring: Ring, rows: Sequence[Sequence], rhs_columns: Sequence[Sequence]):
    """Solve A x = b for several b sharing the matrix A.

    ``rows`` is the matrix (n_rows x n_unknowns); ``rhs_columns`` holds each
    right-hand side as a length-n_rows vector.  Returns one solution list per
    right-hand side, or None where that system is inconsistent.  Free unknowns
    are set to zero.
    """
    n_rows = len(rows)
    n_unknowns = len(rows[0]) if n_rows else 0
    n_rhs = len(rhs_columns)
    mat = [list(rows[i]) + [col[i] for col in rhs_columns] for i in range(n_rows)]
    pivots = _eliminate(ring, mat, n_unknowns)
    rank = len(pivots)
    solutions = []
    for k in range(n_rhs):
        consistent = all(ring.is_zero(mat[i][n_unknowns + k]) for i in range(rank, n_rows))
        if not consistent:
            solutions.append(None)
            continue
        x = [ring.zero()] * n_unknowns
        for r, c in enumerate(pivots):
            x[c] = mat[r][n_unknowns + k]
        solutions.append(x)
    return solutions


def matrix_rank(ring: Ring, rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    mat = [list(r) for r in rows]
    return len(_eliminate(ring, mat, len(mat[0])))
