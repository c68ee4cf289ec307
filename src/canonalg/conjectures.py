"""Conjecture-instance evaluation and the counterexample suite.

Six instance tags are supported: CJC/NJC (Jacobian conjecture, classical and
naive, for polynomial endomorphisms), CPC/NPC (Poisson analogue, for
symplectic endomorphisms in 2n variables) and CDC/NDC (Dixmier analogue, for
Weyl-algebra endomorphisms, with the hypotheses read off the center
restriction).  A verdict never claims a conjecture: it records, for one
endomorphism, whether "automorphism iff hypotheses" held, with the
automorphism side decided by certified degree-bounded inverse search --
"no" is only reported when the search exhausted the proven degree bound for
inverses (deg^(m-1) for polynomial maps, deg^(2n-1) on the Weyl side).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from . import weyl as weylmod
from .linalg import solve_many
from .poly import Poly, PolyEndo, monomial_count
from .poisson import PoissonContext, is_symplectic
from .reduction import induced_center_endo, check_center_symplectic
from .rings import GF, Ring, primes_upto
from .weyl import WeylEndo

TAGS = ("CJC", "NJC", "CPC", "NPC", "CDC", "NDC")


def gabber_degree_bound(endo: PolyEndo) -> int:
    """Classical degree bound for polynomial automorphism inverses: deg^(m-1)."""
    return endo.degree() ** (endo.nvars - 1)


def inverse_search_poly(endo: PolyEndo, degree_cap: int) -> tuple[PolyEndo | None, int | None]:
    """Search for a compositional inverse with image degrees <= degree_cap.

    One sparse system widened cap by cap, solved by :func:`linalg.solve_many`
    once per cap, in increasing order (see :meth:`Endo.inverse_search`); any
    solution is checked two-sided before being returned.
    """
    return endo.inverse_search(degree_cap, solve_many)


@dataclass(frozen=True)
class AutomorphismDecision:
    """Three-valued outcome of a certified bounded inverse search."""

    status: str  # "yes" | "no" | "unknown"
    found_degree: int | None
    certified_bound: int
    searched_degree: int
    inverse: object | None = None


MONOMIAL_BUDGET = 4000  # basis monomials a degree-bounded search or slice may form


@lru_cache(maxsize=256)  # called once per decision with a handful of distinct keys
def _max_degree_within(nvars: int, monomial_cap: int) -> int:
    d = 0
    while monomial_count(nvars, d + 1) <= monomial_cap:
        d += 1
    return d


def _search_cap(nvars: int, bound: int, monomial_cap: int, quick_cap: int) -> int:
    """Degree to search up to.  When the certified bound fits under the
    monomial budget the search can certify "no"; otherwise only a cheap
    probe for small inverses is worthwhile, since the outcome without a
    find is "unknown" either way."""
    reachable = _max_degree_within(nvars, monomial_cap)
    if bound <= reachable:
        return bound
    return min(reachable, quick_cap)


def _decide(endo, bound: int, search, monomial_cap: int, quick_cap: int) -> AutomorphismDecision:
    """Search as far as the budget allows; "no" only once the bound is exhausted."""
    search_cap = _search_cap(len(endo.images), bound, monomial_cap, quick_cap)
    inverse, found = search(endo, search_cap)
    if inverse is not None:
        return AutomorphismDecision("yes", found, bound, search_cap, inverse)
    status = "no" if search_cap >= bound else "unknown"
    return AutomorphismDecision(status, None, bound, search_cap)


def decide_poly_automorphism(
    endo: PolyEndo, monomial_cap: int = MONOMIAL_BUDGET, quick_cap: int = 4
) -> AutomorphismDecision:
    if all(im.is_zero() or im.is_constant() for im in endo.images):
        return AutomorphismDecision("no", None, 0, 0)
    return _decide(endo, gabber_degree_bound(endo), inverse_search_poly, monomial_cap, quick_cap)


def decide_weyl_automorphism(
    endo: WeylEndo, monomial_cap: int = MONOMIAL_BUDGET, quick_cap: int = 4
) -> AutomorphismDecision:
    return _decide(endo, weylmod.inverse_degree_bound(endo), weylmod.inverse_search, monomial_cap, quick_cap)


# -- field-extension degree estimation ------------------------------------------------

FIBER_POINT_BUDGET = 1 << 18  # points of F_p^m a fiber count may enumerate (p <= 509 for m = 2)


@dataclass(frozen=True)
class ExtensionDegreeReport:
    estimate: int | None
    exact: bool
    separable: bool | None
    max_fiber: int | None
    fibers_sampled: int
    blowup_fibers: int
    not_finite: bool


def _uni_coeffs(f: Poly) -> list:
    """Dense coefficient list of a univariate polynomial, low degree first."""
    if f.is_zero():
        return []
    out = [f.ring.zero()] * (f.degree() + 1)
    for exps, c in f.terms.items():
        out[exps[0]] = c
    return out


def _uni_gcd_is_trivial(ring: Ring, a: list, b: list) -> bool:
    """Euclidean gcd over a field; True when the gcd is a nonzero constant."""

    def trim(v):
        while v and ring.is_zero(v[-1]):
            v.pop()
        return v

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv_lead = ring.inv(b[-1])
        r = list(a)
        while len(r) >= len(b) and trim(r):
            shift = len(r) - len(b)
            factor = ring.mul(r[-1], inv_lead)
            for i, bc in enumerate(b):
                r[shift + i] = ring.sub(r[shift + i], ring.mul(factor, bc))
            trim(r)
        a, b = b, trim(r)
    return len(a) == 1


def extension_degree_estimate(endo: PolyEndo) -> ExtensionDegreeReport:
    """Degree of the induced function-field extension, by fiber counting.

    For one variable the degree is exactly the polynomial degree (reported
    with a separability flag from gcd(F, F')); its fibers are counted only
    while p is within ``FIBER_POINT_BUDGET``, else ``max_fiber`` is None.
    For two variables all fibers over the base field are enumerated; fibers
    larger than the Bezout bound are treated as blowups and the estimate is
    the largest remaining fiber, a lower-bound heuristic only.  More than 2
    variables, or a plane F_p^2 of more than ``FIBER_POINT_BUDGET`` points,
    raise ``ValueError``.
    """
    ring = endo.ring
    p = ring.characteristic()
    if p == 0:
        raise ValueError("fiber counting needs a prime field")
    m = endo.nvars
    if m > 2:
        raise ValueError("fiber counting supported for at most 2 variables")
    images = endo.images
    if any(im.is_zero() or im.is_constant() for im in images):
        return ExtensionDegreeReport(None, False, None, None, 0, 0, True)
    counted = p**m <= FIBER_POINT_BUDGET
    if m == 2 and not counted:
        raise ValueError(f"fiber counting over F{p}^2 needs {p * p} points, over the budget of {FIBER_POINT_BUDGET}")
    points = product(range(p), repeat=m) if counted else ()  # residues 0..p-1 are the elements of F_p
    fibers = Counter(tuple(f.evaluate(pt) for f in images) for pt in points)

    if m == 1:
        f = images[0]
        fp = f.partial(1)
        separable = not fp.is_zero() and _uni_gcd_is_trivial(ring, _uni_coeffs(f), _uni_coeffs(fp))
        top = max(fibers.values(), default=None)
        return ExtensionDegreeReport(f.degree(), True, separable, top, len(fibers), 0, False)

    bezout = images[0].degree() * images[1].degree()
    finite = [size for size in fibers.values() if size <= bezout]
    blowups = len(fibers) - len(finite)
    if not finite:
        return ExtensionDegreeReport(None, False, None, None, len(fibers), blowups, True)
    return ExtensionDegreeReport(max(finite), False, None, max(finite), len(fibers), blowups, False)


# -- instance verdicts ------------------------------------------------------------------


@dataclass
class InstanceVerdict:
    tag: str
    n: int
    p: int
    d: int
    automorphism: str
    inverse_degree: int | None
    certified_bound: int
    searched_degree: int
    flags: dict
    hypothesis_holds: bool | None
    biconditional_holds: bool | None
    estimated: bool
    witnesses: list = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "tag": self.tag,
            "params": {"n": self.n, "p": self.p, "d": self.d},
            "automorphism": self.automorphism,
            "inverse_degree": self.inverse_degree,
            "certified_bound": self.certified_bound,
            "searched_degree": self.searched_degree,
            "flags": dict(self.flags),
            "hypothesis_holds": self.hypothesis_holds,
            "biconditional_holds": self.biconditional_holds,
            "estimated": self.estimated,
            "witnesses": list(self.witnesses),
        }


def _and3(parts: list) -> bool | None:
    """Three-valued conjunction: False dominates, then unknown, then True."""
    if any(v is False for v in parts):
        return False
    if any(v is None for v in parts):
        return None
    return True


def _jacobian_nonzero_const(endo: PolyEndo) -> bool:
    det = endo.jacobian().determinant()
    return det.is_constant() and not det.is_zero()


def _extension_flag(endo: PolyEndo, witnesses: list) -> tuple[bool | None, bool]:
    """(degree not a multiple of p, came-from-estimator)."""
    p = endo.ring.characteristic()
    if p == 0:
        return True, False  # no nonzero degree is a multiple of 0
    try:
        rep = extension_degree_estimate(endo)
    except ValueError as exc:
        witnesses.append(f"extension degree not evaluated: {exc}")
        return None, True
    if rep.not_finite:
        witnesses.append("map not generically finite over the sample")
        return False, not rep.exact
    return rep.estimate % p != 0, not rep.exact


def check_instance(tag: str, endo) -> InstanceVerdict:
    """Evaluate one conjecture instance; see the module docstring for semantics.

    Each family decides the map and names the polynomial map its hypotheses
    are read off: the map itself for JC and PC, the center restriction for
    DC over F_p, and none for DC over Q, whose center is just the scalars,
    so that the restriction clauses hold vacuously.
    """
    if tag not in TAGS:
        raise ValueError(f"unknown tag {tag!r}; expected one of {TAGS}")
    witnesses: list = []
    flags: dict = {}

    if tag in ("CJC", "NJC"):
        if not isinstance(endo, PolyEndo):
            raise ValueError(f"{tag} expects a polynomial endomorphism")
        ring, n = endo.ring, endo.nvars
        decision = decide_poly_automorphism(endo)
        hyp_map = endo
    elif tag in ("CPC", "NPC"):
        if not isinstance(endo, PolyEndo) or endo.nvars % 2:
            raise ValueError(f"{tag} expects a polynomial endomorphism in 2n variables")
        ring, n = endo.ring, endo.nvars // 2
        if not is_symplectic(PoissonContext(ring, n), endo):
            raise ValueError(f"{tag} expects a symplectic endomorphism")
        flags["symplectic"] = True
        decision = decide_poly_automorphism(endo)
        hyp_map = endo
    else:  # CDC / NDC
        if not isinstance(endo, WeylEndo):
            raise ValueError(f"{tag} expects a relation-verified Weyl endomorphism")
        ring, n = endo.algebra.ring, endo.algebra.n
        decision = decide_weyl_automorphism(endo)
        hyp_map = None
        if ring.characteristic():
            hyp_map = induced_center_endo(endo).endo
            flags["symplectic"] = is_symplectic(PoissonContext(ring, n), hyp_map)

    hyp_parts = []
    estimated = False
    if tag[0] == "C":
        ext, estimated = (True, False) if hyp_map is None else _extension_flag(hyp_map, witnesses)
        flags["extension_degree_ok"] = ext
        hyp_parts.append(ext)
    if tag[1:] == "JC" or (tag[0] == "C" and ring.characteristic() <= n):
        flags["jacobian_nonzero"] = hyp_map is None or _jacobian_nonzero_const(hyp_map)
        hyp_parts.append(flags["jacobian_nonzero"])

    hypothesis = _and3(hyp_parts)
    if decision.status == "unknown" or hypothesis is None:
        biconditional = None
    else:
        biconditional = (decision.status == "yes") == hypothesis
        if not biconditional:
            direction = (
                "hypotheses hold but the map is proven not an automorphism"
                if hypothesis
                else "automorphism found although a hypothesis fails"
            )
            witnesses.append(direction)

    d = 0
    try:
        d = endo.degree()
    except ValueError:
        pass
    return InstanceVerdict(
        tag=tag,
        n=n,
        p=ring.characteristic(),
        d=d,
        automorphism=decision.status,
        inverse_degree=decision.found_degree,
        certified_bound=decision.certified_bound,
        searched_degree=decision.searched_degree,
        flags=flags,
        hypothesis_holds=hypothesis,
        biconditional_holds=biconditional,
        estimated=estimated,
        witnesses=witnesses,
    )


# -- cross-consistency probe of the implication chain ------------------------------------


@dataclass
class ChainProbeReport:
    weyl_status: str
    center_status: str
    center_symplectic: bool
    events: list

    @property
    def consistent(self) -> bool:
        return not self.events

    def to_payload(self) -> dict:
        return {
            "weyl_status": self.weyl_status,
            "center_status": self.center_status,
            "center_symplectic": self.center_symplectic,
            "consistent": self.consistent,
            "events": list(self.events),
        }


def chain_probe(endo: WeylEndo) -> ChainProbeReport:
    """Instance-level consistency between an endomorphism and its center restriction.

    Checks: an invertible endomorphism must have an invertible restriction
    (equivalently, a proven-non-invertible restriction forbids invertibility
    upstairs), and the restriction must be symplectic.  Any violation is a
    falsification event carrying witnesses.
    """
    events: list = []
    sym = check_center_symplectic(endo)
    if not sym.symplectic:
        events.append("center restriction is not symplectic: " + repr(sym.center.endo))
    wd = decide_weyl_automorphism(endo)
    cd = decide_poly_automorphism(sym.center.endo)
    if wd.status == "yes" and cd.status == "no":
        events.append(
            "endomorphism invertible but center restriction proven non-invertible "
            f"(inverse degree {wd.found_degree}, center bound {cd.certified_bound})"
        )
    return ChainProbeReport(wd.status, cd.status, sym.symplectic, events)


# -- the quartic reducibility check -------------------------------------------------------

KRAUS_P_MAX_BUDGET = 20_000  # largest p_max the scan accepts; its time grows as p_max^2


@dataclass
class KrausReport:
    p_max: int
    z_irreducible: bool
    all_reducible: bool
    factorizations: dict  # prime -> (factor text, factor text)

    def to_payload(self) -> dict:
        return {
            "p_max": self.p_max,
            "z_irreducible": self.z_irreducible,
            "all_reducible": self.all_reducible,
            "factorizations": {str(p): list(f) for p, f in sorted(self.factorizations.items())},
        }


def _mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


_QUARTIC = [1, 0, 0, 0, 1]  # X^4 + 1, low degree first


def _factor_quartic_mod(p: int) -> tuple[list[int], list[int]] | None:
    """A monic factorization of X^4 + 1 over F_p, linear*cubic or quadratic pair."""
    for a in range(p):
        if (pow(a, 4, p) + 1) % p == 0:
            # synthetic division of X^4 + 1 by (X - a)
            acc = 0
            out = []
            for c in reversed(_QUARTIC):
                acc = (acc * a + c) % p
                out.append(acc)
            cubic = list(reversed(out[:-1]))
            return ([(-a) % p, 1], cubic)
    for b in range(p):  # (X^2 + b)(X^2 - b), needs b^2 = -1
        if (b * b + 1) % p == 0:
            return ([b, 0, 1], [(-b) % p, 0, 1])
    for a in range(p):  # (X^2 + aX + 1)(X^2 - aX + 1), needs a^2 = 2
        if (a * a - 2) % p == 0:
            return ([1, a, 1], [1, (-a) % p, 1])
    for a in range(p):  # (X^2 + aX - 1)(X^2 - aX - 1), needs a^2 = -2
        if (a * a + 2) % p == 0:
            return ([(-1) % p, a, 1], [(-1) % p, (-a) % p, 1])
    return None  # unreachable for prime p: one of -1, 2, -2 is a square mod p


def kraus_check(p_max: int) -> KrausReport:
    """X^4 + 1 factors modulo every prime yet is irreducible over the integers.

    Per prime a monic factorization is found and re-verified by exact
    multiplication; over Z irreducibility is certified by the rational-root
    test plus a bounded search over monic quadratic factor pairs (any such
    factor has coefficients of magnitude at most 2, since all complex roots
    lie on the unit circle).
    """
    if p_max < 2:
        raise ValueError("p_max must be at least 2")
    if p_max > KRAUS_P_MAX_BUDGET:
        raise ValueError(f"p_max {p_max} is over the budget of {KRAUS_P_MAX_BUDGET}")
    factorizations = {}
    all_reducible = True
    for p in primes_upto(p_max):
        pair = _factor_quartic_mod(p)
        if pair is None or _mul_mod(pair[0], pair[1], p) != [x % p for x in _QUARTIC]:
            all_reducible = False
            continue
        ring = GF(p)
        factorizations[p] = tuple(Poly(ring, 1, {(e,): c for e, c in enumerate(f)}).to_text() for f in pair)

    no_root = all(r**4 + 1 != 0 for r in (1, -1))
    no_quadratic = True
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                for d in range(-2, 3):
                    prod = [b * d, a * d + b * c, b + d + a * c, a + c, 1]
                    if prod == _QUARTIC:
                        no_quadratic = False
    return KrausReport(
        p_max=p_max,
        z_irreducible=no_root and no_quadratic,
        all_reducible=all_reducible,
        factorizations=factorizations,
    )


# -- naive-counterexample suite -------------------------------------------------------------


@dataclass
class SuiteReport:
    cases: list
    kraus: KrausReport
    all_expected: bool

    def to_payload(self) -> dict:
        return {
            "cases": [dict(c) for c in self.cases],
            "kraus": self.kraus.to_payload(),
            "all_expected": self.all_expected,
        }


def frobenius_deficit_poly(ring: Ring, nvars: int) -> PolyEndo:
    """The map (X_1 - X_1^p, X_2, ..., X_m) over F_p."""
    x = PolyEndo.identity(ring, nvars).images
    return PolyEndo(ring, nvars, [x[0] - x[0] ** ring.characteristic(), *x[1:]])


def frobenius_deficit_weyl(algebra) -> WeylEndo:
    """The map (Y_1 - Y_1^p, Y_2, ..., Y_2n) over F_p, quantized from 2n variables."""
    return weylmod.quantized(algebra, frobenius_deficit_poly(algebra.ring, algebra.ngens))


def counterexample_suite(kraus_p_max: int = 1000) -> SuiteReport:
    """The three naive-conjecture counterexample families at p = 2, 3, 5 plus
    the quartic reducibility table; every golden expectation is re-checked.

    Each case is expected to falsify its naive conjecture: the hypotheses
    hold (for NPC they include being symplectic, which ``check_instance``
    refuses to evaluate without) yet the map is proven not an automorphism.
    """
    kraus = kraus_check(kraus_p_max)  # refuses an over-budget p_max before any case runs
    cases = []
    for p in (2, 3, 5):
        ring = GF(p)
        maps = {
            "NJC": frobenius_deficit_poly(ring, 1),
            "NPC": frobenius_deficit_poly(ring, 2),
            "NDC": frobenius_deficit_weyl(weylmod.WeylAlgebra(ring, 1)),
        }
        for name, endo in maps.items():
            verdict = check_instance(name, endo)
            expected = (
                verdict.automorphism == "no"
                and verdict.hypothesis_holds is True
                and verdict.biconditional_holds is False
            )
            cases.append({"name": name, "p": p, "verdict": verdict.to_payload(), "expected_falsification": expected})
    ok = all(case["expected_falsification"] for case in cases) and kraus.z_irreducible and kraus.all_reducible
    return SuiteReport(cases=cases, kraus=kraus, all_expected=ok)
