"""The canonical Poisson algebra on 2n variables.

The bracket pairs variable i with variable i+n:

    {f, g} = sum_i (df/dX_i * dg/dX_{i+n} - df/dX_{i+n} * dg/dX_i)

computed one term pair at a time, without partials or products (see
:func:`poisson_bracket`).  A polynomial endomorphism is symplectic when it
preserves every pairwise bracket of the coordinates: {F_i, F_{i+n}} = 1 and
every other bracket of images is 0.  The module also reports the
jacobian-determinant consequence (det = 1 whenever the map is symplectic and
n! is a unit) and provides a composable family of elementary
symplectomorphisms for test data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from operator import add

from .poly import Poly, PolyEndo, PolyMatrix, compose_random_steps, pairing_witness, random_block_poly, random_unit
from .rings import Ring


@dataclass(frozen=True)
class PoissonContext:
    """Coefficient ring plus the pairing index n (so 2n variables)."""

    ring: Ring
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("index n must be >= 1")

    @property
    def nvars(self) -> int:
        return 2 * self.n


def poisson_bracket(ctx: PoissonContext, f: Poly, g: Poly) -> Poly:
    """{f, g}, one term pair at a time.

    For terms c X^a of f and b X^e of g the pair-i part of the sum is
    c b (a_i e_{i+n} - a_{i+n} e_i) X^(a + e - 1_i - 1_{i+n}): both products
    of partials land on the same monomial, so one weight per pair and pair
    index, summed as plain ints or ``Fraction`` and reduced once by ``_make``.
    """
    if f.nvars != ctx.nvars or g.nvars != ctx.nvars or f.ring != ctx.ring or g.ring != ctx.ring:
        raise ValueError("bracket operands must live in 2n variables over the context ring")
    n = ctx.n
    out: dict = {}
    get = out.get
    # per right term: the pair indices where it has an exponent to differentiate
    right = [(e, c2, [(i, e[i], e[i + n]) for i in range(n) if e[i] or e[i + n]]) for e, c2 in g.terms.items()]
    for a, c1 in f.terms.items():
        for e, c2, pairs in right:
            for i, ei, ein in pairs:
                w = a[i] * ein - a[i + n] * ei
                if w:  # a nonzero weight needs a_i, e_{i+n} >= 1 or a_{i+n}, e_i >= 1
                    key = list(map(add, a, e))
                    key[i] -= 1
                    key[i + n] -= 1
                    key = tuple(key)
                    out[key] = get(key, 0) + c1 * c2 * w
    return f._make(out)


def bracket_matrix(ctx: PoissonContext, endo: PolyEndo) -> PolyMatrix:
    """All pairwise brackets of the images, antisymmetric by construction;
    public API, where :func:`is_symplectic` stops at the first broken one."""
    if endo.nvars != ctx.nvars or endo.ring != ctx.ring:
        raise ValueError("endomorphism does not match the context")
    m = ctx.nvars
    zero = Poly.zero(ctx.ring, m)
    rows = [[zero] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            b = poisson_bracket(ctx, endo.images[i], endo.images[j])
            rows[i][j] = b
            rows[j][i] = -b
    return PolyMatrix(ctx.ring, m, rows)


def is_symplectic(ctx: PoissonContext, endo: PolyEndo) -> bool:
    """Bracket preservation over all coordinate pairs 1 <= i < j <= 2n:
    {F_i, F_{i+n}} = 1 and every other bracket 0, the canonical pairing."""
    if endo.nvars != ctx.nvars or endo.ring != ctx.ring:
        raise ValueError("endomorphism does not match the context")
    return pairing_witness(endo.images, partial(poisson_bracket, ctx), ctx.n) is None


@dataclass(frozen=True)
class SymplecticReport:
    symplectic: bool
    n_factorial_unit: bool
    det: Poly
    det_is_one: bool

    @property
    def assertion_violated(self) -> bool:
        """Symplectic with n! a unit forces det = 1; anything else is a bug witness."""
        return self.symplectic and self.n_factorial_unit and not self.det_is_one


def check_symplectic(ctx: PoissonContext, endo: PolyEndo) -> SymplecticReport:
    """Symplectic test plus the jacobian determinant and its unit-n! consequence.

    When n! is not a unit the determinant is still reported but nothing is
    asserted about it.
    """
    det = endo.jacobian().determinant()
    return SymplecticReport(
        symplectic=is_symplectic(ctx, endo),
        n_factorial_unit=ctx.ring.factorial_is_unit(ctx.n),
        det=det,
        det_is_one=det == Poly.one(ctx.ring, ctx.nvars),
    )


# -- elementary symplectomorphisms ----------------------------------------------


def _check_block(ctx: PoissonContext, h: Poly, lo: int, hi: int):
    """h may only involve variables with 1-based index in [lo, hi]."""
    for exps in h.terms:
        for k, e in enumerate(exps, start=1):
            if e and not lo <= k <= hi:
                raise ValueError(f"generator polynomial touches X{k} outside block {lo}..{hi}")


def _shear(ctx: PoissonContext, h: Poly, lo: int) -> PolyEndo:
    """Adds dh/dX_{k+n} to X_k (lo = n + 1) or dh/dX_k to X_{k+n} (lo = 1), k = 1..n,
    with h in the block lo..lo+n-1 only: the two shears mirror each other."""
    n = ctx.n
    _check_block(ctx, h, lo, lo + n - 1)
    images = list(PolyEndo.identity(ctx.ring, ctx.nvars).images)
    moved = n if lo == 1 else 0  # 0-based start of the other block
    for k in range(n):
        images[moved + k] = images[moved + k] + h.partial(lo + k)
    return PolyEndo(ctx.ring, ctx.nvars, images)


def coordinate_shear(ctx: PoissonContext, h: Poly) -> PolyEndo:
    """X_i -> X_i + dh/dX_{i+n} with h in the second block X_{n+1}..X_{2n} only."""
    return _shear(ctx, h, ctx.n + 1)


def momentum_shear(ctx: PoissonContext, h: Poly) -> PolyEndo:
    """X_{n+i} -> X_{n+i} + dh/dX_i with h in the first block X_1..X_n only."""
    return _shear(ctx, h, 1)


def _pair_map(ctx: PoissonContext, i: int, pair_images) -> PolyEndo:
    """Identity except (X_i, X_{i+n}) -> pair_images(X_i, X_{i+n})."""
    if not 1 <= i <= ctx.n:
        raise IndexError(f"pair index {i} out of range 1..{ctx.n}")
    images = list(PolyEndo.identity(ctx.ring, ctx.nvars).images)
    images[i - 1], images[i + ctx.n - 1] = pair_images(images[i - 1], images[i + ctx.n - 1])
    return PolyEndo(ctx.ring, ctx.nvars, images)


def pair_swap(ctx: PoissonContext, i: int) -> PolyEndo:
    """X_i -> X_{i+n}, X_{i+n} -> -X_i on one pair, identity elsewhere."""
    return _pair_map(ctx, i, lambda x, y: (y, -x))


def pair_scaling(ctx: PoissonContext, i: int, unit) -> PolyEndo:
    """X_i -> u X_i, X_{i+n} -> u^{-1} X_{i+n} for a unit u."""
    return _pair_map(ctx, i, lambda x, y: (x.scale(unit), y.scale(ctx.ring.inv(unit))))


_UNITS_Q = (1, -1, 2, -2, 3)  # unit pool over Q for coefficients and scalings


def generate_symplectomorphism(
    ctx: PoissonContext, seed: int, steps: int, max_degree: int | None = None
) -> PolyEndo:
    """Deterministic composition of elementary symplectomorphisms.

    Draws shears (both blocks), pair swaps and unit scalings from the seed;
    a step whose composition would exceed max_degree is skipped.  The result
    is verified symplectic before being returned.
    """
    rng = random.Random(seed)
    n = ctx.n
    draws = {
        "shear": lambda: coordinate_shear(ctx, random_block_poly(rng, ctx.ring, 2 * n, n + 1, 2 * n, 3, _UNITS_Q)),
        "dual-shear": lambda: momentum_shear(ctx, random_block_poly(rng, ctx.ring, 2 * n, 1, n, 3, _UNITS_Q)),
        "swap": lambda: pair_swap(ctx, rng.randint(1, n)),
        "scale": lambda: pair_scaling(ctx, rng.randint(1, n), random_unit(rng, ctx.ring, _UNITS_Q)),
    }
    endo = compose_random_steps(PolyEndo.identity(ctx.ring, ctx.nvars), rng, steps, max_degree, draws)
    if not is_symplectic(ctx, endo):
        raise AssertionError("generator produced a non-symplectic map (internal bug)")
    return endo
