"""Sparse exact elimination over a field (Q or F_p).

Matrices arrive as lists of dense row lists -- the form the inverse searches
and the center-slice kernel pass in; :func:`scatter_rows` builds them from
sparse column dicts.  Each row is turned into a dict of its nonzero entries
and inserted into an echelon keyed by leading column: it is reduced by the
echelon row of its leading column until that column is free, then scaled to
a unit pivot and stored there, in the spirit of structured Gaussian
elimination (LaMacchia-Odlyzko 1990) without its pruning pass.  The systems
of the inverse search are about 1% nonzero, and only nonzero entries are
touched.  Arithmetic is on plain ints mod p over F_p and on ``Fraction``
over Q, with no ``Ring`` dispatch.

The pivot columns of any echelon form are the leftmost linearly independent
columns, so they do not depend on the order in which rows are inserted;
with free unknowns set to zero, the solution of a consistent system is
therefore the same as dense Gauss-Jordan elimination gives.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Sequence

from .rings import Ring


def scatter_rows(columns: Sequence[dict], row_keys: Sequence, zero) -> list[list]:
    """Dense rows, one per row key, from one ``{row key: value}`` dict per column."""
    index = {rk: i for i, rk in enumerate(row_keys)}
    rows = [[zero] * len(columns) for _ in row_keys]
    for c, col in enumerate(columns):
        for rk, v in col.items():
            rows[index[rk]][c] = v
    return rows


def _modulus(ring: Ring) -> int:
    """p over F_p, 0 over Q; Z is refused."""
    if not ring.is_field():
        raise ValueError("elimination needs field coefficients")
    return ring.characteristic()


def _nonzeros(row: Sequence) -> dict:
    return {j: row[j] for j in compress(range(len(row)), row)}


def _insert(echelon: dict, row: dict, width: int, p: int) -> dict:
    """Reduce ``row`` until its leading column is free and store it there.

    ``echelon`` maps each pivot column (< width) to its row, whose entries all
    lie at or right of that column and whose pivot is 1.  Columns >= width
    (right-hand sides) are carried along but never pivoted on.  Returns what
    is left of the row when nothing of it remains left of ``width``, else {}.
    """
    while row:
        lead = min(row)
        if lead >= width:
            return row
        f, pivot_row = row[lead], echelon.get(lead)
        if pivot_row is None:
            inv = pow(f, -1, p) if p else 1 / Fraction(f)
            echelon[lead] = {j: (inv * v) % p if p else inv * v for j, v in row.items()}
            return {}
        get = row.get
        for j, v in pivot_row.items():
            w = get(j, 0) - f * v
            if p:
                w %= p
            if w:
                row[j] = w
            else:
                del row[j]
    return row


def solve_many(ring: Ring, rows: Sequence[Sequence], rhs_columns: Sequence[Sequence]):
    """Solve A x = b for several b sharing the matrix A.

    ``rows`` is the matrix (n_rows x n_unknowns); ``rhs_columns`` holds each
    right-hand side as a length-n_rows vector.  Returns one solution list per
    right-hand side, or None where that system is inconsistent.  Free unknowns
    are set to zero.
    """
    p = _modulus(ring)
    zero = ring.zero()
    n_unknowns = len(rows[0]) if rows else 0
    echelon: dict = {}
    inconsistent: set = set()
    for i, dense in enumerate(rows):
        row = _nonzeros(dense)
        for k, col in enumerate(rhs_columns):
            if col[i]:
                row[n_unknowns + k] = col[i]
        inconsistent.update(_insert(echelon, row, n_unknowns, p))
    pivots = sorted(echelon, reverse=True)
    solutions = []
    for k in range(len(rhs_columns)):
        if n_unknowns + k in inconsistent:
            solutions.append(None)
            continue
        x = [zero] * n_unknowns
        for c in pivots:  # back substitution, rightmost pivot first
            pivot_row = echelon[c]
            s = pivot_row.get(n_unknowns + k, zero)
            for j, v in pivot_row.items():
                if c < j < n_unknowns:
                    s -= v * x[j]
            x[c] = s % p if p else s
        solutions.append(x)
    return solutions


def matrix_rank(ring: Ring, rows: Sequence[Sequence]) -> int:
    p = _modulus(ring)
    echelon: dict = {}
    width = len(rows[0]) if rows else 0
    for dense in rows:
        _insert(echelon, _nonzeros(dense), width, p)
    return len(echelon)
