"""``canonalg.linalg``'s solver behind dense row-list signatures.

The linalg tests state their systems as dense rows (``n_rows x n_unknowns``)
and right-hand sides as length-``n_rows`` vectors, as the dense oracle takes
them; these helpers turn them into a ``SparseMatrix`` and the solutions back
into dense lists with the free unknowns at zero.
"""

from __future__ import annotations

from typing import Sequence

from canonalg import linalg
from canonalg.rings import Ring


def sparse_matrix(rows: Sequence[Sequence]) -> linalg.SparseMatrix:
    matrix = linalg.SparseMatrix()
    for c in range(len(rows[0]) if rows else 0):
        matrix.append({i: row[c] for i, row in enumerate(rows) if row[c]})
    return matrix


def solve_many(ring: Ring, rows: Sequence[Sequence], rhs_columns: Sequence[Sequence]):
    matrix = sparse_matrix(rows)
    rhs = [matrix.vector({i: v for i, v in enumerate(b) if v}) for b in rhs_columns]
    solutions = []
    for x in linalg.solve_many(ring, matrix, rhs):
        if x is None:
            solutions.append(None)
            continue
        dense = [ring.zero()] * len(matrix.columns)
        for i, c in x.items():
            dense[i] = c
        solutions.append(dense)
    return solutions


def matrix_rank(ring: Ring, rows: Sequence[Sequence]) -> int:
    return linalg.matrix_rank(ring, sparse_matrix(rows))
