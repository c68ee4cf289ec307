"""Sparse multivariate polynomial arithmetic over an exact coefficient ring.

A polynomial in m variables is a finite map from exponent vectors (length-m
tuples of naturals) to nonzero ring elements.  Term iteration, printing and
matrix assembly all use one deterministic graded-lexicographic order so that
identical inputs give byte-identical output.

The module also provides polynomial maps (algebra endomorphisms given by
their images of the variables), jacobian matrices, and division-free
determinants -- the commutative substrate everything else builds on.  Its
two base classes are the core the Weyl side shares: :class:`Terms` (sparse
term arithmetic and rendering) and :class:`Endo` (application, composition,
monomial-image caching and the inverse search).
"""

from __future__ import annotations

import random
from operator import add
from typing import Iterable, Iterator, Sequence

from .linalg import SparseMatrix
from .rings import Ring

Exponents = tuple[int, ...]


def compositions(total: int, k: int) -> Iterator[Exponents]:
    """All exponent vectors of length k with the given total, first entry largest."""
    if k == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, k - 1):
            yield (first,) + rest


def monomials_upto(nvars: int, max_degree: int) -> list[Exponents]:
    """Exponent vectors of total degree <= max_degree, graded order, ascending."""
    out: list[Exponents] = []
    for d in range(max_degree + 1):
        out.extend(compositions(d, nvars))
    return out


def monomial_count(nvars: int, max_degree: int) -> int:
    """Number of monomials of degree <= max_degree in nvars variables."""
    from math import comb

    return comb(max_degree + nvars, nvars)


def reduce_sums(ring: Ring, sums: dict) -> dict:
    """Coefficients summed as plain ints (F_p), ``Fraction`` (Q) or ints (Z)
    as ring elements: one reduction mod p per key over F_p, none otherwise.

    The product and substitution kernels accumulate without ``Ring`` calls
    and reduce once here; zeros are left for ``_make`` to drop.
    """
    p = ring.p
    return {key: c % p for key, c in sums.items()} if p else sums


class Terms:
    """Sparse sum of terms: ``terms`` maps keys to nonzero ring elements.

    The base of :class:`Poly` and :class:`canonalg.weyl.WeylElement`.  A
    subclass supplies ``ring``, its space (``_space`` gives the constructor
    arguments before the terms, ``_make`` a value in the same space), its key
    shape (``_key`` checks a key, ``_flat``/``_unflat`` convert it to and
    from one exponent per letter in printing order), ``_one``, its letter
    names and its own ``__mul__``.

    Values are immutable by convention.  The constructor maps every
    coefficient through the ring and drops the zero ones, so equal values
    have equal ``terms``; ``_make`` takes coefficients that arithmetic on
    such values produced, already reduced, and only drops zeros.
    """

    __slots__ = ()

    def _set_terms(self, terms: dict | None):
        coerce = self.ring.coerce
        clean = {}
        for key, c in (terms or {}).items():
            key = self._key(key)
            c = coerce(c)
            if c != 0:
                clean[key] = c
        self.terms = clean

    def _check(self, other):
        if self._space() != other._space():
            raise ValueError(f"{type(self).__name__} operands live in different spaces")

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree in all letters; undefined (error) for zero."""
        if not self.terms:
            raise ValueError("degree of zero is undefined")
        return max(sum(self._flat(key)) for key in self.terms)

    def sorted_terms(self) -> list:
        """Terms in descending graded order: total degree, then the key."""
        return sorted(self.terms.items(), key=lambda kv: (sum(self._flat(kv[0])), kv[0]), reverse=True)

    # -- linear structure and powers -------------------------------------------

    def __add__(self, other):
        self._check(other)
        add, zero = self.ring.add, self.ring.zero()
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = add(out.get(key, zero), c)
        return self._make(out)

    def __neg__(self):
        neg = self.ring.neg
        return self._make({key: neg(c) for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        ring = self.ring
        c = ring.coerce(c)
        return self._make({key: ring.mul(c, v) for key, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = self._one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._space() == other._space() and self.terms == other.terms

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.ring}, {self.to_text()})"

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """Grammar-compatible rendering: graded order, explicit ``*``, ``^`` powers."""
        if not self.terms:
            return "0"
        letters = self._letters(names)
        signed = self.ring.kind != "Fp"
        pieces = []
        for key, c in self.sorted_terms():
            neg = signed and c < 0
            mag = str(-c if neg else c)
            word = [x if e == 1 else f"{x}^{e}" for x, e in zip(letters, self._flat(key)) if e]
            if mag != "1" or not word:
                word.insert(0, mag)
            pieces.append((" - " if neg else " + ") + "*".join(word))
        text = "".join(pieces)  # starts " + " or " - "; the leading sign takes no spaces
        return ("-" if text[1] == "-" else "") + text[3:]


class Poly(Terms):
    """Sparse polynomial: ``terms`` maps exponent tuples to nonzero coefficients."""

    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring: Ring, nvars: int, terms: dict | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        self.ring = ring
        self.nvars = nvars
        self._set_terms(terms)

    def _space(self) -> tuple:
        return (self.ring, self.nvars)

    def _make(self, terms: dict) -> "Poly":
        out = object.__new__(Poly)
        out.ring, out.nvars = self.ring, self.nvars
        out.terms = {key: c for key, c in terms.items() if c}
        return out

    def _key(self, exps) -> Exponents:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"exponent vector {exps} has length != {self.nvars}")
        return exps

    @staticmethod
    def _flat(exps: Exponents) -> Exponents:
        return exps

    _unflat = _flat

    def _one(self) -> "Poly":
        return Poly.one(self.ring, self.nvars)

    def _letters(self, names):
        return list(names) if names is not None else default_names(self.nvars)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring, nvars: int) -> "Poly":
        return cls(ring, nvars, {})

    @classmethod
    def const(cls, ring: Ring, nvars: int, value) -> "Poly":
        return cls(ring, nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, ring: Ring, nvars: int) -> "Poly":
        return cls.const(ring, nvars, ring.one())

    @classmethod
    def variable(cls, ring: Ring, nvars: int, i: int) -> "Poly":
        """The i-th variable, 1-based."""
        if not 1 <= i <= nvars:
            raise IndexError(f"variable index {i} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[i - 1] = 1
        return cls(ring, nvars, {tuple(exps): ring.one()})

    @classmethod
    def monomial(cls, ring: Ring, nvars: int, exps: Iterable[int], coeff=None) -> "Poly":
        c = ring.one() if coeff is None else coeff
        return cls(ring, nvars, {tuple(exps): c})

    # -- basic queries ---------------------------------------------------------

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        """The coefficient of the empty monomial (0 if absent)."""
        return self.terms.get((0,) * self.nvars, self.ring.zero())

    def coeff(self, exps: Exponents):
        return self.terms.get(tuple(exps), self.ring.zero())

    # -- multiplication, calculus and substitution -----------------------------------

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: dict[Exponents, object] = {}
        get = out.get
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return self._make(reduce_sums(self.ring, out))

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to the i-th variable (1-based)."""
        if not 1 <= i <= self.nvars:
            raise IndexError(f"variable index {i} out of range 1..{self.nvars}")
        ring, k = self.ring, i - 1
        # distinct terms stay distinct; the constructor drops those the characteristic kills
        return self._make(
            {
                exps[:k] + (exps[k] - 1,) + exps[k + 1 :]: ring.mul(c, ring.of_int(exps[k]))
                for exps, c in self.terms.items()
                if exps[k]
            }
        )

    def frobenius(self) -> "Poly":
        """p-th power over F_p, one term at a time: c*X^a -> c*X^(p*a)."""
        p = self.ring.characteristic()
        if p == 0:
            raise ValueError("frobenius power needs a prime-field coefficient ring")
        return self._make({tuple(p * e for e in exps): c for exps, c in self.terms.items()})

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Evaluate at the given variable images: f(images[0], ..., images[m-1])."""
        return PolyEndo(self.ring, self.nvars, images).apply(self)

    def evaluate(self, point: Sequence):
        """Value at a point given as ring elements, one per variable."""
        if len(point) != self.nvars:
            raise ValueError("point arity does not match variable count")
        ring = self.ring
        acc = ring.zero()
        for exps, c in self.terms.items():
            v = c
            for e, a in zip(exps, point):
                for _ in range(e):
                    v = ring.mul(v, a)
            acc = ring.add(acc, v)
        return acc


class Endo:
    """Algebra endomorphism given by ``images``, one per generator in order.

    The base of :class:`PolyEndo` and :class:`canonalg.weyl.WeylEndo`.  A
    subclass supplies ``ring``, ``_space`` (the constructor arguments before
    the images), its generators and ``_letter_images`` (the images in the
    letter order of the flattened term keys).

    A monomial's image is the image of the monomial without its last letter
    times that letter's image.  That holds in normal order too: the last
    letter of a normal-ordered word can be split off on the right, because
    the letters of one block commute among themselves.
    """

    __slots__ = ()

    def degree(self) -> int:
        """Max total degree over the nonzero images; rejects the zero map."""
        degs = [im.degree() for im in self.images if not im.is_zero()]
        if not degs:
            raise ValueError("degree of the all-zero endomorphism is undefined")
        return max(degs)

    def is_identity(self) -> bool:
        return list(self.images) == self._generators()

    def _image_cache(self) -> dict:
        """Monomial images by flattened key, seeded with the empty monomial."""
        one = self.images[0]._one()
        return {(0,) * len(self.images): one}

    def _monomial_image(self, flat: Exponents, cache: dict):
        letters = self._letter_images()
        chain = []
        while flat not in cache:
            j = max(k for k, e in enumerate(flat) if e)
            chain.append((flat, j))
            flat = flat[:j] + (flat[j] - 1,) + flat[j + 1 :]
        for key, j in reversed(chain):
            cache[key] = cache[flat] * letters[j]
            flat = key
        return cache[flat]

    def _apply(self, f, cache: dict):
        if f._space() != self._space():
            raise ValueError("element from a different space than the endomorphism")
        out: dict = {}
        get = out.get
        for key, c in f.terms.items():
            for k, v in self._monomial_image(f._flat(key), cache).terms.items():
                out[k] = get(k, 0) + c * v
        return f._make(reduce_sums(self.ring, out))

    def apply(self, f):
        """Image of an element: the sum of its terms' monomial images."""
        return self._apply(f, self._image_cache())

    def compose(self, other):
        """self after other: (self . other)(Y_i) = self(other(Y_i))."""
        if self._space() != other._space():
            raise ValueError("endomorphism mismatch")
        cache = self._image_cache()
        return type(self)(*self._space(), [self._apply(im, cache) for im in other.images])

    def inverse_search(self, degree_cap: int, solve_many):
        """Search for an inverse with image degrees <= degree_cap.

        The inverse's images are unknown combinations of the monomials of
        degree <= cap; applying this map to them is linear in the unknowns,
        so ``self(psi(Y_i)) = Y_i`` is one linear system per generator, with
        one column per basis monomial: the term dict of its image.  The
        basis at cap D is a prefix of the one at D+1 (graded order), so one
        matrix serves every cap: each cap appends its new monomials' images
        and ``solve_many`` (:func:`linalg.solve_many`, passed in by the
        search entry points of ``weyl`` and ``conjectures``) eliminates only
        those before solving the targets again.  Returns (inverse, degree at
        which it was found), or (None, None) once the caps are exhausted.
        """
        ring = self.ring
        if not ring.is_field():
            raise ValueError("inverse search needs field coefficients")
        matrix = SparseMatrix()
        rhs = [matrix.vector(t.terms) for t in self._generators()]
        cache = self._image_cache()
        basis: list = []
        for cap in range(1, degree_cap + 1):
            for b in monomials_upto(len(rhs), cap)[len(basis) :]:
                matrix.append(self._monomial_image(b, cache).terms)
                basis.append(b)
            inverse = self.checked_inverse(basis, solve_many(ring, matrix, rhs))
            if inverse is not None:
                return inverse, cap
        return None, None

    def checked_inverse(self, basis: list, solutions: list):
        """The inverse read off one cap's solutions, None if a system had none.

        Each solution maps basis indices to coefficients.  The candidate is
        built through the subclass constructor (a Weyl one verifies the
        relations) and must compose to the identity on both sides; a failure
        there is an internal bug, never a verdict.
        """
        if any(sol is None for sol in solutions):
            return None
        one = self.images[0]._one()
        images = [one._make({one._unflat(basis[i]): c for i, c in sol.items()}) for sol in solutions]
        inverse = type(self)(*self._space(), images)
        if not self.compose(inverse).is_identity() or not inverse.compose(self).is_identity():
            raise AssertionError("one-sided inverse failed the two-sided check (internal bug)")
        return inverse

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._space() == other._space() and self.images == other.images

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(im.to_text() for im in self.images) + ")"


def compose_random_steps(endo: Endo, rng: random.Random, steps: int, max_degree: int | None, draws: dict) -> Endo:
    """``steps`` elementary maps composed after ``endo``, each made by the
    function in ``draws`` under a kind chosen with ``rng``.  A step that would
    push the degree past max_degree is skipped; at most 8 * steps + 8 are drawn.
    """
    kinds = tuple(draws)
    done = attempts = 0
    while done < steps and attempts < 8 * steps + 8:
        attempts += 1
        candidate = draws[rng.choice(kinds)]().compose(endo)
        if max_degree is None or candidate.degree() <= max_degree:
            endo = candidate
            done += 1
    return endo


def random_unit(rng: random.Random, ring: Ring, rational_pool: Sequence[int]):
    """A seeded unit: any nonzero residue over F_p, +-1 over Z, from the pool over Q."""
    if ring.kind == "Fp":
        return rng.randint(1, ring.p - 1)
    return ring.of_int(rng.choice(rational_pool if ring.kind == "Q" else [1, -1]))


class PolyEndo(Endo):
    """Algebra endomorphism of the polynomial ring, given by variable images."""

    __slots__ = ("ring", "nvars", "images")

    def __init__(self, ring: Ring, nvars: int, images: Sequence[Poly]):
        if len(images) != nvars:
            raise ValueError(f"need {nvars} images, got {len(images)}")
        for im in images:
            if im.ring != ring or im.nvars != nvars:
                raise ValueError("image over wrong ring or variable count")
        self.ring = ring
        self.nvars = nvars
        self.images = tuple(images)

    @classmethod
    def identity(cls, ring: Ring, nvars: int) -> "PolyEndo":
        return cls(ring, nvars, [Poly.variable(ring, nvars, i) for i in range(1, nvars + 1)])

    def _space(self) -> tuple:
        return (self.ring, self.nvars)

    def _generators(self) -> list[Poly]:
        return [Poly.variable(self.ring, self.nvars, i) for i in range(1, self.nvars + 1)]

    def _letter_images(self):
        return self.images

    compose = Endo.compose  # own attribute, so it can be wrapped per class

    def jacobian(self) -> "PolyMatrix":
        rows = [[im.partial(j) for j in range(1, self.nvars + 1)] for im in self.images]
        return PolyMatrix(self.ring, self.nvars, rows)


class PolyMatrix:
    """Rectangular grid of polynomials over one ring and variable count."""

    __slots__ = ("ring", "nvars", "rows")

    def __init__(self, ring: Ring, nvars: int, rows: Sequence[Sequence[Poly]]):
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for entry in row:
                if entry.ring != ring or entry.nvars != nvars:
                    raise ValueError("matrix entry over wrong ring or variable count")
        self.ring = ring
        self.nvars = nvars
        self.rows = tuple(tuple(row) for row in rows)

    @classmethod
    def identity(cls, ring: Ring, nvars: int, size: int) -> "PolyMatrix":
        one = Poly.one(ring, nvars)
        zero = Poly.zero(ring, nvars)
        return cls(ring, nvars, [[one if i == j else zero for j in range(size)] for i in range(size)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = Poly.zero(self.ring, self.nvars)
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.ring, self.nvars, out)

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix(self.ring, self.nvars, [[fn(e) for e in row] for row in self.rows])

    def determinant(self) -> Poly:
        """Cofactor expansion along the first row; division-free, sizes <= 8."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.rows, self.ring, self.nvars)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.ring == other.ring
            and self.nvars == other.nvars
            and self.rows == other.rows
        )

    def __repr__(self):
        body = "; ".join(", ".join(e.to_text() for e in row) for row in self.rows)
        return f"PolyMatrix[{body}]"


def _det(rows, ring: Ring, nvars: int) -> Poly:
    size = len(rows)
    if size == 0:
        return Poly.one(ring, nvars)
    if size == 1:
        return rows[0][0]
    acc = Poly.zero(ring, nvars)
    for j in range(size):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(size) if k != j] for row in rows[1:]]
        cof = entry * _det(minor, ring, nvars)
        acc = acc + (cof if j % 2 == 0 else -cof)
    return acc


def default_names(nvars: int, letter: str = "X") -> list[str]:
    return [f"{letter}{i}" for i in range(1, nvars + 1)]
