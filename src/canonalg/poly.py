"""Sparse multivariate polynomial arithmetic over an exact coefficient ring.

A polynomial in m variables is a finite map from exponent vectors (length-m
tuples of naturals) to nonzero ring elements.  Term iteration, printing and
matrix assembly all use one deterministic graded-lexicographic order so that
identical inputs give byte-identical output.

The module also provides polynomial maps (algebra endomorphisms given by
their images of the variables), jacobian matrices, and division-free
determinants -- the commutative substrate everything else builds on.  Its
two base classes are the core the Weyl side shares: :class:`Terms` (sparse
term arithmetic and rendering) and :class:`Endo` (application, composition
and the inverse search, on the packed-key monomial images of
:class:`_Images`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import add, lshift, mul
from typing import Iterable, Iterator, Sequence

from .linalg import SparseMatrix
from .rings import Ring

Exponents = tuple[int, ...]


def compositions(total: int, k: int) -> Iterator[Exponents]:
    """All exponent vectors of length k >= 1 with the given total, first entry largest."""
    e = [total] + [0] * (k - 1)
    while True:
        yield tuple(e)
        # the last nonzero e[i] with i < k - 1 gives one unit to e[i + 1], which also takes e[-1]
        i = k - 2
        while i >= 0 and not e[i]:
            i -= 1
        if i < 0:
            return
        last, e[-1] = e[-1], 0
        e[i] -= 1
        e[i + 1] = last + 1


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


def power(base, k: int, mul=mul):
    """base^k by repeated squaring, each product formed by ``mul``: the
    parser passes one that checks a term-pair budget before multiplying."""
    if k < 0:
        raise ValueError("negative power")
    result = None  # the first set bit takes the base itself, not a product with one
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return base._one() if result is None else result


_DIGIT_BLOCK = 10**4000  # under the interpreter's int-to-str digit limit, which stays on for the tokenizer


def _decimal(c) -> str:
    """``str`` of a non-negative int or ``Fraction``; an int past the
    interpreter's digit limit is written in 4000-digit blocks."""
    if c.denominator != 1:
        return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"
    n, blocks = c.numerator, []
    while n >= _DIGIT_BLOCK:
        n, low = divmod(n, _DIGIT_BLOCK)
        blocks.append(f"{low:04000d}")
    return str(n) + "".join(reversed(blocks))


class Terms:
    """Sparse sum of terms: ``terms`` maps keys to nonzero ring elements.

    The base of :class:`Poly` and :class:`canonalg.weyl.WeylElement`.  A
    subclass supplies ``ring``, its space (``_space`` gives the constructor
    arguments before the terms, ``_make`` a value in the same space), its key
    shape (``_key`` checks a key, ``_flat``/``_unflat`` convert it to and
    from one exponent per letter in printing order), ``_one``, its letter
    names and its own ``__mul__``.

    Values are immutable by convention, and equal values have equal
    ``terms``.  The constructor coerces outside input through the ring.
    ``_make`` is the one rule for derived values: it takes plain sums (ints
    over F_p and Z, ``Fraction`` over Q), reduces them mod p and drops the
    zeros in one pass, so the arithmetic here only sums and multiplies.
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
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return self._make(out)

    def __neg__(self):
        return self._make({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return self._make(out)

    def scale(self, c):
        c = self.ring.coerce(c)
        return self._make({key: c * v for key, v in self.terms.items()})

    def __pow__(self, k: int):
        return power(self, k)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._space() == other._space() and self.terms == other.terms

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.ring}, {self.to_text()})"

    def to_text(self) -> str:
        """Grammar-compatible rendering: graded order, explicit ``*``, ``^`` powers."""
        if not self.terms:
            return "0"
        letters = self._letters()
        signed = self.ring.kind != "Fp"
        pieces = []
        for key, c in self.sorted_terms():
            neg = signed and c < 0
            mag = _decimal(-c if neg else c)
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
        out.terms = _reduced(terms, self.ring.p)
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

    def _letters(self) -> list[str]:
        return default_names(self.nvars)

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
        return self._make(out)

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to the i-th variable (1-based)."""
        if not 1 <= i <= self.nvars:
            raise IndexError(f"variable index {i} out of range 1..{self.nvars}")
        k = i - 1
        # distinct terms stay distinct; _make drops those the characteristic kills
        return self._make(
            {exps[:k] + (exps[k] - 1,) + exps[k + 1 :]: c * exps[k] for exps, c in self.terms.items() if exps[k]}
        )

    def frobenius(self) -> "Poly":
        """p-th power over F_p, one term at a time: c*X^a -> c*X^(p*a)."""
        p = self.ring.characteristic()
        if p == 0:
            raise ValueError("frobenius power needs a prime-field coefficient ring")
        return self._make({tuple(p * e for e in exps): c for exps, c in self.terms.items()})

    def evaluate(self, point: Sequence):
        """Value at a point given as ring elements, one per variable; powers
        by repeated squaring (``pow``), reduced mod p once per power and once
        at the end."""
        if len(point) != self.nvars:
            raise ValueError("point arity does not match variable count")
        p = self.ring.p
        acc = self.ring.zero()
        for exps, c in self.terms.items():
            for e, a in zip(exps, point):
                if e:
                    c *= pow(a, e, p) if p else a**e
            acc += c
        return acc % p if p else acc


class _Images:
    """Monomial images of one endomorphism, on packed exponent keys.

    A flat exponent vector ``e`` (one exponent per letter, in the order of
    the flattened term keys) is packed into the int
    ``sum(e[k] << (width * k))``.  The width holds ``max_degree`` times the
    top letter-image degree (at least ``max_degree``), which bounds every
    exponent of every monomial of degree <= max_degree and of its image (a
    Weyl product only lowers exponents), so a field never overflows and
    multiplying two monomials adds their keys.  An image is a dict
    ``{packed key: coefficient}``; images are cached by packed monomial key.
    Packing follows Monagan and Pearce (POLY, Maple 17, 2013); public
    ``terms`` keep their tuple keys.  A ``width`` passed in (one that
    bounds the exponents) replaces the one ``max_degree`` sets.
    """

    __slots__ = ("p", "width", "mask", "shifts", "units", "letters", "weights", "cache")

    def __init__(self, endo: "Endo", max_degree: int, width: int | None = None):
        letters = [[(im._flat(key), c) for key, c in im.terms.items()] for im in endo._letter_images()]
        top = max([sum(flat) for terms in letters for flat, _ in terms], default=0)
        self.width = width = width or (max_degree * max(top, 1)).bit_length() or 1
        self.mask = (1 << width) - 1
        self.shifts = shifts = [width * k for k in range(len(letters))]
        self.units = units = [1 << s for s in shifts]
        self.p = p = endo.ring.p
        pairs, self.weights = endo._leibniz()
        self.letters = []
        for terms in letters:
            right = []
            for flat, c in terms:
                # the position exponent b of the right factor lowers the left's
                # derivation exponent, unless b is 0 mod p (every weight vanishes)
                lows = [(shifts[d], flat[g], units[g] + units[d]) for g, d in pairs if (flat[g] % p if p else flat[g])]
                right.append((self.pack(flat), c, lows))
            self.letters.append((right, any([lows for _, _, lows in right])))
        self.cache = {0: {0: endo.ring.one()}}

    def pack(self, flat) -> int:
        return sum(map(lshift, flat, self.shifts))

    def packed(self, elem) -> dict:
        """An element's terms on packed keys."""
        pack, flat = self.pack, elem._flat
        return {pack(flat(key)): c for key, c in elem.terms.items()}

    def unpacked(self, terms: dict, elem):
        """The element of ``elem``'s space with the given packed terms."""
        shifts, mask, unflat = self.shifts, self.mask, elem._unflat
        return elem._make({unflat(tuple([k >> s & mask for s in shifts])): c for k, c in terms.items()})

    def linear(self, pairs) -> dict:
        """The sum of c times the image of each ``(packed key, c)`` pair, reduced."""
        out: dict = {}
        get, image = out.get, self.image
        for key, c in pairs:
            for k, v in image(key).items():
                out[k] = get(k, 0) + c * v
        return _reduced(out, self.p)

    def image(self, key: int) -> dict:
        """The image of the monomial with packed key ``key``: the image of the
        monomial without its last letter times that letter's image."""
        cache = self.cache
        chain = []
        width, units = self.width, self.units
        while key not in cache:
            j = (key.bit_length() - 1) // width
            chain.append((key, j))
            key -= units[j]
        for k, j in reversed(chain):
            cache[k] = self._times(cache[key], *self.letters[j])
            key = k
        return cache[key]

    def graded(self, degree: int) -> list:
        """``(exponents, image)`` of each monomial of total degree ``degree``,
        in graded order, each image cached.

        Asked for the degrees in order, as the search does, every monomial of
        degree - 1 is cached, so each image is one product: its prefix's
        image times its last letter's image.  :meth:`image` walks the chain
        for any other key.  The keys come from :func:`_graded_plan`, which
        depends on the degree, the letter count and the width only.
        """
        cache, times, letters = self.cache, self._times, self.letters
        if not degree:
            return [((0,) * len(letters), cache[0])]
        out = []
        for b, key, prefix, j in _graded_plan(degree, len(letters), self.width):
            cache[key] = image = times(cache[prefix], *letters[j])
            out.append((b, image))
        return out

    def _times(self, left: dict, right: list, lowers: bool) -> dict:
        """``left`` times one letter image, both packed, reduced.

        Left terms outer, right terms inner, so the keys come in the order
        of the element product.  Where a right term's position exponent b
        meets a left derivation exponent a, the Leibniz weights of (a, b)
        expand the term, lowering both exponents by l; a letter with no
        such term (``lowers`` false) only adds keys.  Two loops: over F_p
        such a product reduces each sum as it lands (a new key takes c1*c2
        mod p, a repeated one the sum with it mod p); a key that cancels
        keeps its place as 0 and one filtering pass, run only then, drops
        it, so the keys keep the element product's order.  Every other
        product, over Q and Z too, sums first, then ``_reduced`` reduces.
        """
        p, mask, weights = self.p, self.mask, self.weights
        out: dict = {}
        if not lowers and p:
            cancelled = False
            for k1, c1 in left.items():
                for k2, c2, _ in right:
                    key = k1 + k2
                    if key in out:
                        out[key] = c = (out[key] + c1 * c2) % p
                        if not c:
                            cancelled = True
                    else:
                        out[key] = c1 * c2 % p
            return {k: c for k, c in out.items() if c} if cancelled else out
        get = out.get
        for k1, c1 in left.items():
            for k2, c2, lows in right:
                key = k1 + k2
                c = c1 * c2
                expansion = None
                for shift, b, unit in lows:
                    a = k1 >> shift & mask
                    if a and len(ws := weights(a, b, p)) > 1:
                        expansion = [(k - l * unit, cw * w) for k, cw in expansion or [(key, c)] for l, w in ws]
                if expansion is None:
                    out[key] = get(key, 0) + c
                else:
                    for k, cw in expansion:
                        out[k] = get(k, 0) + cw
        return _reduced(out, p)


@lru_cache(maxsize=256)  # keyed on no map data: every engine with this letter count and width shares it
def _graded_plan(degree: int, letters: int, width: int) -> tuple:
    """``(exponents, packed key, prefix key, last letter)`` of each monomial
    of total degree ``degree`` >= 1 in ``letters`` letters, in graded order,
    keys packed ``width`` bits a letter as :class:`_Images` packs them; the
    prefix is the monomial without one unit of its last letter."""
    shifts = [width * k for k in range(letters)]
    plan = []
    for b in compositions(degree, letters):
        key = sum(map(lshift, b, shifts))
        j = (key.bit_length() - 1) // width
        plan.append((b, key, key - (1 << shifts[j]), j))
    return tuple(plan)


def _reduced(sums: dict, p: int) -> dict:
    """Sums reduced mod p (over F_p), zeros dropped: the one normalization of derived terms."""
    if p:
        return {k: r for k, c in sums.items() if (r := c % p)}
    return {k: c for k, c in sums.items() if c}


class Endo:
    """Algebra endomorphism given by ``images``, one per generator in order.

    The base of :class:`PolyEndo` and :class:`canonalg.weyl.WeylEndo`.  A
    subclass supplies ``ring``, ``_space`` (the constructor arguments before
    the images), its generators, ``_letter_images`` (the images in the
    letter order of the flattened term keys) and, where letters do not
    commute, ``_leibniz``.

    A monomial's image is the image of the monomial without its last letter
    times that letter's image.  That holds in normal order too: the last
    letter of a normal-ordered word can be split off on the right, because
    the letters of one block commute among themselves.  :class:`_Images`
    computes and caches them on packed keys.
    """

    __slots__ = ()

    def degree(self) -> int:
        """Max total degree over the nonzero images; rejects the zero map."""
        degs = [im.degree() for im in self.images if not im.is_zero()]
        if not degs:
            raise ValueError("degree of the all-zero endomorphism is undefined")
        return max(degs)

    def is_identity(self) -> bool:
        """Every image is its generator; public API, the benchmark's inverse check."""
        return list(self.images) == self._generators()

    def _leibniz(self) -> tuple:
        """(letter pairs (position, derivation) of the flat key, their weight
        function): none, the letters commute."""
        return (), None

    def _apply(self, f, images: _Images):
        if f._space() != self._space():
            raise ValueError("element from a different space than the endomorphism")
        pack, flat = images.pack, f._flat
        return images.unpacked(images.linear([(pack(flat(key)), c) for key, c in f.terms.items()]), f)

    def apply(self, f):
        """Image of an element: the sum of its terms' monomial images."""
        return self.apply_each([f])[0]

    def apply_each(self, elems: Sequence) -> list:
        """The images of several elements, on one engine sized for the
        largest of them, so the monomial images they share are made once."""
        images = _Images(self, max([f.degree() for f in elems if f.terms], default=0))
        return [self._apply(f, images) for f in elems]

    def compose(self, other):
        """self after other: (self . other)(Y_i) = self(other(Y_i))."""
        if self._space() != other._space():
            raise ValueError("endomorphism mismatch")
        return type(self)(*self._space(), self.apply_each(other.images))

    def inverse_search(self, degree_cap: int, solve_many):
        """Search for an inverse with image degrees <= degree_cap.

        The inverse's images are unknown combinations of the monomials of
        degree <= cap; applying this map to them is linear in the unknowns,
        so ``self(psi(Y_i)) = Y_i`` is one linear system per generator, with
        one column per basis monomial: its image on packed row keys.  The
        basis at cap D is a prefix of the one at D+1 (graded order), so one
        matrix serves every cap: each cap appends the images of its degree-D
        monomials and ``solve_many`` (:func:`linalg.solve_many`, passed in by
        the search entry points of ``weyl`` and ``conjectures``) eliminates
        only those before solving the targets again.  Every degree-(D-1)
        image is cached by then, so each new column is one product, its
        prefix's image times its last letter's (:meth:`_Images.graded`).
        Returns (inverse, degree at which it was found), or (None, None)
        once the caps are exhausted.
        """
        ring = self.ring
        if not ring.is_field():
            raise ValueError("inverse search needs field coefficients")
        images = _Images(self, degree_cap)
        targets = [images.packed(t) for t in self._generators()]
        matrix = SparseMatrix()
        rhs = [matrix.vector(t) for t in targets]
        basis: list = []
        for cap in range(1, degree_cap + 1):
            for degree in (0, 1) if cap == 1 else (cap,):
                for b, column in images.graded(degree):
                    matrix.append(column)
                    basis.append(b)
            inverse = self.checked_inverse(basis, solve_many(ring, matrix, rhs), images, targets)
            if inverse is not None:
                return inverse, cap
        return None, None

    def checked_inverse(self, basis: list, solutions: list, images: _Images, targets: list):
        """The inverse read off one cap's solutions, None if a system had none.

        Each solution maps basis indices to coefficients.  The candidate psi
        is built through the subclass constructor (a Weyl one verifies the
        relations) and checked two-sided against ``targets``, the packed
        generators: ``self(psi(Y_i))`` sums cached basis images on the
        search's engine ``images``, ``psi(self(Y_i))`` is formed on an engine
        of psi's at that engine's width (deg psi <= cap, so it bounds the
        exponents), and nothing is unpacked.  A one-sided solution makes this map
        surjective, hence injective (the rings are Noetherian), so any
        failure here, the relation check included, is an internal bug.
        """
        if any(sol is None for sol in solutions):
            return None
        one = self.images[0]._one()
        candidate = [one._make({one._unflat(basis[i]): c for i, c in sol.items()}) for sol in solutions]
        try:
            inverse = type(self)(*self._space(), candidate)
        except ValueError as exc:  # a Weyl candidate that breaks the relations
            raise AssertionError(f"inverse candidate is not an endomorphism: {exc} (internal bug)") from exc
        pack, back = images.pack, _Images(inverse, 0, images.width)
        after = [images.linear([(pack(basis[i]), c) for i, c in sol.items()]) for sol in solutions]
        if after != targets or [back.linear(images.linear(t.items()).items()) for t in targets] != targets:
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


def random_block_poly(
    rng: random.Random, ring: Ring, nvars: int, lo: int, hi: int, max_degree: int, pool: Sequence[int]
) -> "Poly":
    """A seeded sum of one or two monomials of degree 1..max_degree in X_lo..X_hi
    (1-based), each with a unit that :func:`random_unit` draws from ``pool``."""
    acc = Poly.zero(ring, nvars)
    for _ in range(rng.randint(1, 2)):
        exps = [0] * nvars
        for _ in range(rng.randint(1, max_degree)):
            exps[rng.randint(lo, hi) - 1] += 1
        acc = acc + Poly.monomial(ring, nvars, exps, random_unit(rng, ring, pool))
    return acc


def pairing_witness(images: Sequence, bracket, n: int):
    """The first pair 1 <= i < j <= 2n, in row order, whose bracket breaks the canonical
    pairing [G_i, G_{i+n}] = 1, every other bracket 0: (i, j, bracket), or None."""
    one = images[0]._one().terms
    for i in range(1, 2 * n + 1):
        for j in range(i + 1, 2 * n + 1):
            c = bracket(images[i - 1], images[j - 1])
            if c.terms != (one if j == i + n else {}):
                return i, j, c
    return None


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


# The most work one determinant may do, in minors expanded plus term pairs
# multiplied.  The expansion visits about e * m! minors: a dense jacobian of
# size 8 takes about 140,000 units (0.6 s), size 9 1.2 million (5 s).
DET_WORK_BUDGET = 300_000


@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular grid of polynomials over one ring and variable count; the
    rows are stored as tuples, whatever sequences they were given as."""

    ring: Ring
    nvars: int
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        for row in rows:
            if len(row) != len(rows[0]):
                raise ValueError("ragged matrix")
            for entry in row:
                if entry.ring != self.ring or entry.nvars != self.nvars:
                    raise ValueError("matrix entry over wrong ring or variable count")
        object.__setattr__(self, "rows", rows)

    def determinant(self) -> Poly:
        """Cofactor expansion along the first row, division-free.  Each minor
        it expands and each term pair its products form is one unit of work;
        past ``DET_WORK_BUDGET`` units it raises ``ValueError``."""
        rows, ring, nvars, left = self.rows, self.ring, self.nvars, DET_WORK_BUDGET
        if rows and len(rows[0]) != len(rows):
            raise ValueError("determinant of a non-square matrix")

        def det(i: int, cols: tuple) -> Poly:  # the minor on rows i.. and columns ``cols``
            nonlocal left
            if len(cols) <= 1:
                return rows[i][cols[0]] if cols else Poly.one(ring, nvars)
            acc = Poly.zero(ring, nvars)
            for t, j in enumerate(cols):
                entry = rows[i][j]
                if entry.is_zero():
                    continue
                minor = det(i + 1, cols[:t] + cols[t + 1 :])
                left -= 1 + len(entry.terms) * len(minor.terms)
                if left < 0:
                    raise ValueError(
                        f"the determinant of a {len(rows)}x{len(rows)} matrix exceeds the budget of "
                        f"{DET_WORK_BUDGET} minors and term pairs"
                    )
                cof = entry * minor
                acc = acc + (cof if t % 2 == 0 else -cof)
            return acc

        return det(0, tuple(range(len(rows))))


def default_names(nvars: int, letter: str = "X") -> list[str]:
    return [f"{letter}{i}" for i in range(1, nvars + 1)]
