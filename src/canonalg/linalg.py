"""Sparse exact column elimination over a field (Q or F_p).

A matrix is a :class:`SparseMatrix`: columns appended one at a time, each a
dict ``{row key: value}`` of its nonzero entries -- the form in which the
inverse search and the center-slice kernel produce them (the term dicts of
monomial images and of commutators).  :func:`solve_many` and
:func:`matrix_rank` eliminate its columns in a :class:`ColumnEchelon` the
matrix keeps, one echelon for ranking and solving in either order: a new
column is reduced against the stored ones and stored only if something is
left, so the stored columns are the leftmost linearly independent ones.
Each stored column keeps a pivot row key, where it is 1 and every later
stored column is 0, and its combination of the original columns.  This is
structured Gaussian elimination (LaMacchia-Odlyzko 1990) without its
pruning pass, applied to columns; only nonzero entries are touched, with
plain ints mod p over F_p and ``Fraction`` over Q, no ``Ring`` dispatch.

Columns can be appended after a solve and each is eliminated once, so a
search that widens its basis step by step pays for each column once.  A
column that shares no row key with the pivots skips the reduction pass
after one disjointness test, and a column whose lead is already 1 is not
scaled.  A right-hand side is solved by reducing it the same way: a nonzero
remainder means no solution, otherwise the pivot factors times the stored
combinations give x.  x lies on the independent columns only, so it is the
solution dense Gauss-Jordan elimination gives with free unknowns set to
zero.  Every right-hand side is made by :meth:`SparseMatrix.vector` and
carries its remainder and combination from solve to solve, reduced only at
the pivots stored since (:meth:`ColumnEchelon.resolve`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .rings import Ring


class ColumnEchelon:
    """Column echelon of the columns added so far, in order.

    Stored column ``j`` has the pivot row key ``pivots[j]``, holds 1 there,
    and is 0 at the pivots of the stored columns before it; ``combos[j]``
    maps original column indices to the coefficients that give stored
    column ``j``.
    """

    __slots__ = ("p", "added", "pivots", "columns", "combos", "_position")

    def __init__(self, ring: Ring):
        if not ring.is_field():
            raise ValueError("elimination needs field coefficients")
        self.p = ring.characteristic()  # 0 over Q
        self.added = 0
        self.pivots: list = []
        self.columns: list[dict] = []
        self.combos: list[dict] = []
        self._position: dict = {}  # pivot row key -> stored column index

    @property
    def rank(self) -> int:
        return len(self.columns)

    def _reduce(self, column: dict, combo: dict) -> dict:
        """``column`` cleared at every pivot, stored column by stored column.

        Stored column j is 0 at the pivots before its own, so taking the
        pivots in stored order clears each one once.  ``combo`` receives
        minus the factor times each stored combination used.  A column that
        meets no pivot is returned as it is, otherwise a reduced copy.
        """
        p, position, columns, combos = self.p, self._position, self.columns, self.combos
        if position.keys().isdisjoint(column):
            return column
        todo = [position[k] for k in column if k in position]
        heapify(todo)
        v = dict(column)
        get, cget = v.get, combo.get
        while todo:
            j = heappop(todo)
            f = get(self.pivots[j])
            if not f:  # cancelled, or queued twice
                continue
            for k, c in columns[j].items():
                old = get(k)
                w = (old or 0) - f * c
                if p:
                    w %= p
                if w:
                    if old is None and k in position:
                        heappush(todo, position[k])
                    v[k] = w
                elif old is not None:
                    del v[k]
            for i, c in combos[j].items():
                w = cget(i, 0) - f * c
                if p:
                    w %= p
                if w:
                    combo[i] = w
                else:
                    del combo[i]
        return v

    def add(self, column: dict) -> bool:
        """Add the next column; True if it is independent of those before it.

        The pivot is the first key left in the reduced column; another choice
        would change only the fill-in, never the rank or a solution.  A column
        that needs no reducing and leads with 1 is stored as given, so the
        caller must not change it afterwards (term dicts never change).
        """
        index = self.added
        self.added += 1
        combo = {index: 1}
        v = self._reduce(column, combo)
        if not v:
            return False
        p = self.p
        pivot = next(iter(v))
        lead = v[pivot]
        if lead != 1:
            inv = pow(lead, -1, p) if p else 1 / Fraction(lead)
            v = _scaled(v, inv, p)
            combo = _scaled(combo, inv, p)
        self._position[pivot] = len(self.columns)
        self.pivots.append(pivot)
        self.columns.append(v)
        self.combos.append(combo)
        return True

    def solve(self, target: dict) -> dict | None:
        """``{original column index: coefficient}`` with the columns summing
        to ``target``, zero off the independent columns; None if none exists."""
        return self.resolve(target, {})[1]

    def resolve(self, remainder: dict, combo: dict) -> tuple:
        """``(remainder, solution)`` of a right-hand side reduced so far to
        ``remainder``, with ``combo`` (updated in place).  A stored column is
        0 at the pivots stored before it, so a remainder cleared at the first
        r pivots meets only later ones, taken in the order a from-scratch
        :meth:`solve` takes them: the results are equal."""
        remainder = self._reduce(remainder, combo)
        if remainder:
            return remainder, None
        p = self.p
        return remainder, {i: -c % p if p else -c for i, c in combo.items()}


def _scaled(v: dict, f, p: int) -> dict:
    return {k: c * f % p for k, c in v.items()} if p else {k: c * f for k, c in v.items()}


class SparseMatrix(Sequence):
    """A matrix appended column by column, each column ``{row key: value}``
    of its nonzero entries, with the echelon of the columns eliminated so far.

    Read as a sequence, the matrix is its rows: one per row key, in sorted
    order, over the keys of the columns and of the right-hand sides made by
    :meth:`vector`, each row as long as there are columns.  Nothing dense is
    built for that, so a dense reader (the dense oracle of the tests, or a
    count of cells and nonzeros) reads the sparse matrix as it is.
    """

    def __init__(self):
        self.columns: list[dict] = []
        self.echelon: ColumnEchelon | None = None
        self._rhs_keys: set = set()
        self._layout: tuple | None = None  # (columns read, row keys, nonzeros per row key)

    def append(self, column: dict) -> None:
        self.columns.append(column)

    def vector(self, entries: dict) -> "_Column":
        """A right-hand side ``{row key: value}`` (nonzero values), as a column
        of this matrix's rows."""
        self._rhs_keys.update(entries)
        self._layout = None
        return _Column(self, entries)

    def eliminated(self, ring: Ring) -> ColumnEchelon:
        """The echelon, with every column appended so far added to it."""
        if self.echelon is None:
            self.echelon = ColumnEchelon(ring)
        add = self.echelon.add
        for column in self.columns[self.echelon.added :]:
            add(column)
        return self.echelon

    def _rows(self) -> tuple:
        if self._layout is None or self._layout[0] != len(self.columns):
            nonzeros = Counter(k for column in self.columns for k in column)
            self._layout = (len(self.columns), sorted(nonzeros.keys() | self._rhs_keys), nonzeros)
        return self._layout

    def __len__(self) -> int:
        return len(self._rows()[1])

    def __getitem__(self, i: int) -> "_Row":
        _, keys, nonzeros = self._rows()
        return _Row(self.columns, keys[i], nonzeros[keys[i]])


class _Row(Sequence):
    """Row ``key`` of a :class:`SparseMatrix`, read through its columns."""

    __slots__ = ("columns", "key", "nonzeros")

    def __init__(self, columns: list, key, nonzeros: int):
        self.columns, self.key, self.nonzeros = columns, key, nonzeros

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, j: int):
        return self.columns[j].get(self.key, 0)

    def count(self, value) -> int:
        if value == 0:
            return len(self.columns) - self.nonzeros
        return super().count(value)


class _Column(Sequence):
    """A right-hand side of a :class:`SparseMatrix`, read over its rows:
    ``entries`` as given, ``remainder`` and ``combo`` as reduced so far."""

    __slots__ = ("matrix", "entries", "remainder", "combo")

    def __init__(self, matrix: SparseMatrix, entries: dict):
        self.matrix, self.entries = matrix, entries
        self.remainder, self.combo = entries, {}

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, i: int):
        return self.entries.get(self.matrix._rows()[1][i], 0)

    def count(self, value) -> int:
        if value == 0:
            return len(self) - len(self.entries)
        return super().count(value)


def solve_many(ring: Ring, matrix: SparseMatrix, rhs: Sequence[_Column]) -> list[dict | None]:
    """Solve A x = b for each b in ``rhs``, all made by ``matrix.vector``
    (another matrix's are refused with ValueError before anything is reduced).

    Eliminates the columns appended since the last solve, carries each b on
    to the pivots stored since, and returns per b ``{column index:
    coefficient}``, zero off the independent columns, or None where that
    system is inconsistent.
    """
    if any(b.matrix is not matrix for b in rhs):
        raise ValueError("a right-hand side must be made by the matrix it is solved on")
    echelon = matrix.eliminated(ring)
    out = []
    for b in rhs:
        b.remainder, x = echelon.resolve(b.remainder, b.combo)
        out.append(x)
    return out


def matrix_rank(ring: Ring, matrix: SparseMatrix) -> int:
    """Rank of the columns appended so far, read off the echelon that
    :func:`solve_many` fills."""
    return matrix.eliminated(ring).rank
