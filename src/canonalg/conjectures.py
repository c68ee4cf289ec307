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

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

from . import weyl as weylmod
from .linalg import solve_many
from .poly import Poly, PolyEndo, monomial_count
from .poisson import PoissonContext, is_symplectic
from .reduction import check_center_symplectic
from .report import record_fields
from .rings import GF, Ring, primes_upto
from .weyl import WeylEndo

TAGS = ("CJC", "NJC", "CPC", "NPC", "CDC", "NDC")


def gabber_degree_bound(endo: PolyEndo) -> int:
    """Classical inverse degree bound deg^(m-1); 0 for a constant map, which has no inverse."""
    return 0 if all(im.is_constant() for im in endo.images) else endo.degree() ** (endo.nvars - 1)


def inverse_search_poly(endo: PolyEndo, degree_cap: int) -> tuple[PolyEndo | None, int | None]:
    """Search for a compositional inverse with image degrees <= degree_cap.

    A unitriangular map (each image c * X_i plus terms of degree >= 2) has
    its inverse read off by reducing each generator (see
    :meth:`Endo.triangular_search`).  Any other map gets one sparse system
    widened cap by cap, solved by :func:`linalg.solve_many` once per cap, in
    increasing order (see :meth:`Endo.inverse_search`).  Both return the same
    inverse at the same cap, checked two-sided.
    """
    if endo.unitriangular():
        return endo.triangular_search(degree_cap)
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
QUICK_CAP = 4  # the probe's degree cap when the certified bound lies past the budget


@lru_cache(maxsize=256)  # keyed by the budget too, so a changed budget reads no stale entry
def _max_degree_within(nvars: int, budget: int) -> int:
    d = 0
    while monomial_count(nvars, d + 1) <= budget:
        d += 1
    return d


def _search_cap(nvars: int, bound: int) -> int:
    """Degree to search up to.  When the certified bound fits under the
    monomial budget the search can certify "no"; otherwise only a cheap
    probe for small inverses is worthwhile, since the outcome without a
    find is "unknown" either way."""
    reachable = _max_degree_within(nvars, MONOMIAL_BUDGET)
    if bound <= reachable:
        return bound
    return min(reachable, QUICK_CAP)


def _decide(endo, bound: int, search, degree_cap: int | None) -> AutomorphismDecision:
    """Search to ``degree_cap``, or as far as the budget allows; "no" only once
    the bound is exhausted.  Bound 0 is a constant map: "no" without a search,
    over Z too."""
    if degree_cap is None:
        degree_cap = _search_cap(len(endo.images), bound)
    if not bound:
        return AutomorphismDecision("no", None, 0, degree_cap)
    inverse, found = search(endo, degree_cap)
    if inverse is not None:
        return AutomorphismDecision("yes", found, bound, degree_cap, inverse)
    status = "no" if degree_cap >= bound else "unknown"
    return AutomorphismDecision(status, None, bound, degree_cap)


def decide_poly_automorphism(endo: PolyEndo, degree_cap: int | None = None) -> AutomorphismDecision:
    return _decide(endo, gabber_degree_bound(endo), inverse_search_poly, degree_cap)


def decide_weyl_automorphism(endo: WeylEndo, degree_cap: int | None = None) -> AutomorphismDecision:
    return _decide(endo, weylmod.inverse_degree_bound(endo), weylmod.inverse_search, degree_cap)


# -- the extension degree -------------------------------------------------------------


def extension_degree_estimate(endo: PolyEndo) -> int:
    """Exact degree [K(X) : K(F)] of a separated map: each image a polynomial
    in one variable and no variable read twice, so the extension is a tower
    of one-variable ones and its degree is the product of the image degrees.
    No point is evaluated.  Any other map, a constant image included, raises
    ``ValueError``."""
    used = [{i for exps in im.terms for i, e in enumerate(exps) if e} for im in endo.images]
    if any(len(letters) != 1 for letters in used) or len(set().union(*used)) != endo.nvars:
        raise ValueError("the map is not separated")
    return prod(im.degree() for im in endo.images)


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
    witnesses: list = field(default_factory=list)

    def to_payload(self) -> dict:
        payload = record_fields(self)
        params = {key: payload.pop(key) for key in ("n", "p", "d")}
        return {"tag": payload.pop("tag"), "params": params, **payload}


def _and3(parts: list) -> bool | None:
    """Three-valued conjunction: False dominates, then unknown, then True."""
    if any(v is False for v in parts):
        return False
    if any(v is None for v in parts):
        return None
    return True


def _extension_flag(
    endo: PolyEndo | None, p: int, decided_yes: bool, det: Poly | None, witnesses: list
) -> bool | None:
    """Whether [K(X) : K(F)] is not a multiple of p, by the first exact rule
    that applies; None, with a witness, where none does.  ``det`` is the
    jacobian determinant where the jacobian clause computed it."""
    if p == 0 or decided_yes:
        return True  # no nonzero degree is a multiple of 0; an automorphism has degree 1
    if any(im.is_constant() for im in endo.images):
        return False  # the extension is not finite
    try:
        return extension_degree_estimate(endo) % p != 0
    except ValueError:
        pass
    if det is not None and det.is_zero():
        return False  # infinite or inseparable, and an inseparable degree is a multiple of p
    witnesses.append("extension degree not evaluated")
    return None


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
            sym = check_center_symplectic(endo)
            hyp_map, flags["symplectic"] = sym.center.endo, sym.symplectic

    p = ring.characteristic()
    jacobian_clause = tag[1:] == "JC" or (tag[0] == "C" and p <= n)
    det = hyp_map.jacobian().determinant() if jacobian_clause and hyp_map is not None else None
    if tag[0] == "C":
        flags["extension_degree_ok"] = _extension_flag(hyp_map, p, decision.status == "yes", det, witnesses)
    if jacobian_clause:
        flags["jacobian_nonzero"] = det is None or (det.is_constant() and not det.is_zero())

    hypothesis = _and3([flags[k] for k in ("extension_degree_ok", "jacobian_nonzero") if k in flags])
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
        p=p,
        d=d,
        automorphism=decision.status,
        inverse_degree=decision.found_degree,
        certified_bound=decision.certified_bound,
        searched_degree=decision.searched_degree,
        flags=flags,
        hypothesis_holds=hypothesis,
        biconditional_holds=biconditional,
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
        """The fields in order, ``consistent`` ahead of ``events`` (the summary lines keep this order)."""
        payload = record_fields(self)
        events = payload.pop("events")
        return {**payload, "consistent": self.consistent, "events": events}


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
        factorizations = {str(p): list(f) for p, f in sorted(self.factorizations.items())}
        return {**record_fields(self), "factorizations": factorizations}


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
        ring = GF(p)
        pair = _factor_quartic_mod(p) or ()
        quartic, *factors = (Poly(ring, 1, {(e,): c for e, c in enumerate(f)}) for f in (_QUARTIC, *pair))
        if not factors or factors[0] * factors[1] != quartic:
            all_reducible = False
            continue
        factorizations[p] = tuple(f.to_text() for f in factors)

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
        return {**record_fields(self), "kraus": self.kraus.to_payload()}


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
