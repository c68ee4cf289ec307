import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from canonalg import conjectures
from canonalg.conjectures import (
    chain_probe,
    check_instance,
    counterexample_suite,
    decide_poly_automorphism,
    decide_weyl_automorphism,
    extension_degree_estimate,
    frobenius_deficit_poly,
    frobenius_deficit_weyl,
    gabber_degree_bound,
    inverse_search_poly,
    kraus_check,
)
from canonalg.poly import Poly, PolyEndo, PolyMatrix
from canonalg.rings import GF, QQ, ZZ
from canonalg.weyl import WeylAlgebra, WeylEndo, generate_weyl_automorphism


def test_inverse_search_poly_examples():
    F5 = GF(5)
    x1, x2 = Poly.variable(F5, 2, 1), Poly.variable(F5, 2, 2)
    shear = PolyEndo(F5, 2, [x1 + x2**2, x2])
    assert gabber_degree_bound(shear) == 2
    inv, d = inverse_search_poly(shear, 2)
    assert d == 2
    assert inv.images == (x1 - x2**2, x2)

    ident = PolyEndo.identity(QQ, 2)
    inv, d = inverse_search_poly(ident, 1)
    assert inv == ident and d == 1

    F2 = GF(2)
    x = Poly.variable(F2, 1, 1)
    frob = PolyEndo(F2, 1, [x - x**2])
    assert gabber_degree_bound(frob) == 1
    inv, d = inverse_search_poly(frob, 1)
    assert inv is None and d is None


def test_inverse_search_poly_rational_scaling():
    two = PolyEndo(QQ, 1, [Poly.variable(QQ, 1, 1).scale(QQ.of_int(2))])
    inv, d = inverse_search_poly(two, 1)
    assert d == 1
    assert inv.images[0] == Poly.variable(QQ, 1, 1).scale(QQ.of_fraction(Fraction(1, 2)))


def test_inverse_search_needs_field():
    with pytest.raises(ValueError):
        inverse_search_poly(PolyEndo.identity(ZZ, 1), 1)


def test_extension_degree_m1():
    # one variable: the degree of the image, over any field
    F5 = GF(5)
    squaring = PolyEndo(F5, 1, [Poly.variable(F5, 1, 1) ** 2])
    assert extension_degree_estimate(squaring) == 2

    degree = extension_degree_estimate(frobenius_deficit_poly(GF(2), 1))
    assert degree == 2 and degree % 2 == 0  # the hypothesis CJC drops fails here

    assert extension_degree_estimate(PolyEndo.identity(GF(7), 1)) == 1
    assert extension_degree_estimate(PolyEndo.identity(QQ, 1)) == 1
    with pytest.raises(ValueError, match="not separated"):
        extension_degree_estimate(PolyEndo(F5, 1, [Poly.one(F5, 1)]))  # a constant reads no variable


def test_extension_degree_m2_and_blowup():
    # a separated map's degree is the product of its image degrees
    F3 = GF(3)
    x1, x2 = Poly.variable(F3, 2, 1), Poly.variable(F3, 2, 2)
    assert extension_degree_estimate(PolyEndo(F3, 2, [x1, x2**2])) == 2
    assert extension_degree_estimate(PolyEndo(F3, 2, [x2**2 + x2, x1**3 + x1])) == 6
    assert extension_degree_estimate(PolyEndo.identity(F3, 4)) == 1

    # a letter read twice, two letters in one image, a constant image
    for images in ([x1, x1], [x1 + x2, x2], [x1, Poly.one(F3, 2)]):
        with pytest.raises(ValueError, match="not separated"):
            extension_degree_estimate(PolyEndo(F3, 2, images))

    # the collapse (X1, X1) blows the plane down: det JF = 0 decides the clause
    verdict = check_instance("CJC", PolyEndo(F3, 2, [x1, x1]))
    assert verdict.flags == {"extension_degree_ok": False, "jacobian_nonzero": False}
    assert verdict.witnesses == []


def test_decide_poly_automorphism_statuses(monkeypatch):
    F2 = GF(2)
    x = Poly.variable(F2, 1, 1)
    assert decide_poly_automorphism(PolyEndo(F2, 1, [x])).status == "yes"
    assert decide_poly_automorphism(PolyEndo(F2, 1, [x - x**2])).status == "no"
    assert decide_poly_automorphism(PolyEndo(F2, 1, [Poly.one(F2, 1)])).status == "no"

    # certified bound far beyond the monomial budget: only unknown is honest
    F5 = GF(5)
    vars4 = [Poly.variable(F5, 4, i) for i in range(1, 5)]
    big = PolyEndo(F5, 4, [vars4[0] - vars4[0] ** 5] + vars4[1:])
    monkeypatch.setattr(conjectures, "MONOMIAL_BUDGET", 100)
    monkeypatch.setattr(conjectures, "QUICK_CAP", 2)
    decision = decide_poly_automorphism(big)
    assert decision.status == "unknown"
    assert decision.searched_degree < decision.certified_bound


def test_check_instance_njc_counterexample():
    verdict = check_instance("NJC", frobenius_deficit_poly(GF(2), 1))
    assert verdict.automorphism == "no"
    assert verdict.flags["jacobian_nonzero"] is True
    assert verdict.hypothesis_holds is True
    assert verdict.biconditional_holds is False
    assert verdict.witnesses


def test_check_instance_cjc_same_map_is_consistent():
    # CJC keeps the extension-degree hypothesis; deg = p kills it, so the
    # classical statement survives the classical counterexample
    verdict = check_instance("CJC", frobenius_deficit_poly(GF(2), 1))
    assert verdict.flags["extension_degree_ok"] is False
    assert verdict.hypothesis_holds is False
    assert verdict.biconditional_holds is True
    assert "estimated" not in verdict.to_payload()  # every clause is exact or not evaluated


def test_check_instance_npc_counterexample():
    verdict = check_instance("NPC", frobenius_deficit_poly(GF(2), 2))
    assert verdict.flags["symplectic"] is True
    assert verdict.automorphism == "no"
    assert verdict.biconditional_holds is False


def test_check_instance_ndc_counterexample():
    verdict = check_instance("NDC", frobenius_deficit_weyl(WeylAlgebra(GF(2), 1)))
    assert verdict.automorphism == "no"
    assert verdict.biconditional_holds is False
    assert verdict.certified_bound == 2


def test_check_instance_rejects_mismatches():
    with pytest.raises(ValueError):
        check_instance("XYZ", frobenius_deficit_poly(GF(2), 1))
    with pytest.raises(ValueError):
        check_instance("NDC", frobenius_deficit_poly(GF(2), 1))
    with pytest.raises(ValueError):
        check_instance("NPC", PolyEndo(GF(2), 2, [Poly.variable(GF(2), 2, 1).scale(0) , Poly.variable(GF(2), 2, 2)]))


def test_cpc_jacobian_condition_is_gated_on_p_le_n():
    # p = 5 > n = 1: the jacobian clause is skipped entirely
    F5 = GF(5)
    x1, x2 = Poly.variable(F5, 2, 1), Poly.variable(F5, 2, 2)
    shear = PolyEndo(F5, 2, [x1 + x2**2, x2])
    verdict = check_instance("CPC", shear)
    assert verdict.flags == {"symplectic": True, "extension_degree_ok": True}  # a "yes" map has degree 1

    # p = 2 <= n = 2: the clause is evaluated
    F2 = GF(2)
    ident = PolyEndo.identity(F2, 4)
    verdict = check_instance("CPC", ident)
    assert verdict.flags.get("jacobian_nonzero") is True


def test_micro_exhaustive_njc_sweep_over_f2():
    # all univariate endomorphisms of degree <= 2 over F2; the naive statement
    # fails exactly on the two jacobian-1 quadratics
    F2 = GF(2)
    x = Poly.variable(F2, 1, 1)
    falsifiers = []
    for c0, c1, c2 in itertools.product(range(2), repeat=3):
        img = Poly.const(F2, 1, c0) + x.scale(c1) + (x**2).scale(c2)
        verdict = check_instance("NJC", PolyEndo(F2, 1, [img]))
        assert verdict.automorphism in ("yes", "no")  # micro scale: always decided
        if verdict.biconditional_holds is False:
            falsifiers.append(img)
    assert falsifiers == [x + x**2, Poly.one(F2, 1) + x + x**2]


def test_chain_probe_consistency():
    F5 = GF(5)
    A = WeylAlgebra(F5, 1)
    shear = WeylEndo(A, [A.generator(1), A.generator(2) + A.generator(1) ** 2])
    rep = chain_probe(shear)
    assert rep.consistent and rep.weyl_status == "yes" and rep.center_status == "yes"

    F2 = GF(2)
    pert = frobenius_deficit_weyl(WeylAlgebra(F2, 1))
    rep = chain_probe(pert)
    assert rep.consistent and rep.weyl_status == "no" and rep.center_status == "no"
    assert rep.center_symplectic

    rep = chain_probe(WeylEndo.identity(A))
    assert rep.consistent


def run_cli(tmp_path, argv: list, text: str) -> tuple[int, dict]:
    """Exit code and payload of one CLI call on an endo file holding ``text``."""
    from canonalg.cli import main

    f, out = tmp_path / "map.endo", tmp_path / "report.json"
    f.write_text(text)
    code = main([*argv, "--input", str(f), "--json", str(out)])
    return code, json.loads(out.read_text())["payload"]


SHEAR_F5 = "ring=F5 kind=weyl n=1\nY1 -> Y1\nY2 -> Y2 + Y1^2\n"


# The falsifications below cannot happen on correct code, so each forces the
# stage it rests on and checks the event, the flag and the exit code.


def test_chain_probe_reports_a_non_symplectic_center(tmp_path, monkeypatch):
    checked = conjectures.check_center_symplectic
    monkeypatch.setattr(
        conjectures, "check_center_symplectic", lambda endo: dataclasses.replace(checked(endo), symplectic=False)
    )
    code, payload = run_cli(tmp_path, ["probe-chain"], SHEAR_F5)
    assert code == 1
    assert payload["consistent"] is False and payload["center_symplectic"] is False
    assert payload["events"] == ["center restriction is not symplectic: PolyEndo(X1, X1^2 + X2)"]


def test_chain_probe_reports_an_invertible_map_over_a_non_invertible_center(tmp_path, monkeypatch):
    monkeypatch.setattr(
        conjectures, "decide_poly_automorphism", lambda endo: conjectures.AutomorphismDecision("no", None, 7, 7)
    )
    code, payload = run_cli(tmp_path, ["probe-chain"], SHEAR_F5)
    assert code == 1
    assert (payload["weyl_status"], payload["center_status"], payload["consistent"]) == ("yes", "no", False)
    assert payload["events"] == [
        "endomorphism invertible but center restriction proven non-invertible (inverse degree 2, center bound 7)"
    ]


def test_check_instance_reports_an_automorphism_whose_hypothesis_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(PolyMatrix, "determinant", lambda matrix: Poly.zero(matrix.ring, matrix.nvars))
    code, payload = run_cli(tmp_path, ["check-instance", "--tag", "CJC"], "ring=F3 kind=poly m=1\nX1 -> X1\n")
    assert code == 1
    assert (payload["automorphism"], payload["hypothesis_holds"], payload["biconditional_holds"]) == ("yes", False, False)
    assert payload["witnesses"] == ["automorphism found although a hypothesis fails"]


def test_kraus_examples():
    rep = kraus_check(53)
    assert rep.z_irreducible and rep.all_reducible
    assert rep.factorizations[2] == ("X1 + 1", "X1^3 + X1^2 + X1 + 1")
    assert rep.factorizations[3] == ("X1^2 + X1 + 2", "X1^2 + 2*X1 + 2")
    assert set(rep.factorizations) == {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}
    with pytest.raises(ValueError):
        kraus_check(1)


def test_kraus_refuses_a_factorization_whose_product_is_not_the_quartic(monkeypatch):
    monkeypatch.setattr(conjectures, "_factor_quartic_mod", lambda p: ([1, 1], [1, 0, 0, 1]))  # X^4 + X^3 + X + 1
    rep = kraus_check(7)
    assert not rep.all_reducible and rep.factorizations == {}


def test_kraus_p_max_budget(monkeypatch):
    monkeypatch.setattr(conjectures, "KRAUS_P_MAX_BUDGET", 53)
    assert kraus_check(53).all_reducible  # at the budget
    with pytest.raises(ValueError, match="budget"):
        kraus_check(54)  # past it
    with pytest.raises(ValueError, match="budget"):
        counterexample_suite(kraus_p_max=54)


def test_suite_smoke():
    rep = counterexample_suite(kraus_p_max=50)
    assert rep.all_expected
    assert len(rep.cases) == 9  # three families at three primes
    names = {(c["name"], c["p"]) for c in rep.cases}
    assert names == {(f, p) for f in ("NJC", "NPC", "NDC") for p in (2, 3, 5)}


def test_cdc_over_q_treats_center_clauses_as_vacuous():
    A = WeylAlgebra(QQ, 1)
    shear = WeylEndo(A, [A.generator(1), A.generator(2) + A.generator(1) ** 2])
    verdict = check_instance("CDC", shear)
    assert verdict.flags["extension_degree_ok"] is True
    assert verdict.automorphism == "yes"
    assert verdict.biconditional_holds is True

    ndc = check_instance("NDC", shear)
    assert ndc.biconditional_holds is True


def test_cjc_over_q_has_vacuous_extension_condition():
    x = Poly.variable(QQ, 1, 1)
    verdict = check_instance("CJC", PolyEndo(QQ, 1, [x + Poly.one(QQ, 1)]))
    assert verdict.p == 0
    assert verdict.flags["extension_degree_ok"] is True
    assert verdict.witnesses == []
    assert verdict.automorphism == "yes" and verdict.biconditional_holds is True


def test_jc_over_q_proven_invertible_implies_unit_constant_jacobian():
    # over Q every nonzero constant is a unit; the sweep confirms the search
    # never certifies an automorphism whose jacobian fails the hypothesis
    from util import random_poly

    rng = random.Random(41)
    seen_yes = 0
    for _ in range(40):
        m = rng.choice((1, 2))
        endo = PolyEndo(QQ, m, [random_poly(rng, QQ, m, 3, 2) for _ in range(m)])
        decision = decide_poly_automorphism(endo)
        if decision.status != "yes":
            continue
        seen_yes += 1
        det = endo.jacobian().determinant()
        assert det.is_constant() and not det.is_zero()
        assert QQ.is_unit(det.terms.get((0,) * m, 0))
    assert seen_yes > 0


def test_decide_weyl_unknown_when_bound_unreachable(monkeypatch):
    A = WeylAlgebra(GF(5), 2)
    pert = frobenius_deficit_weyl(A)  # degree 5, bound 125
    monkeypatch.setattr(conjectures, "MONOMIAL_BUDGET", 400)
    monkeypatch.setattr(conjectures, "QUICK_CAP", 2)
    decision = decide_weyl_automorphism(pert)
    assert decision.status == "unknown"
    assert decision.certified_bound == 125
    assert decision.searched_degree <= 2


_NOT_EVALUATED = ["extension degree not evaluated"]
_SYMPLECTIC = {"symplectic": True}


def _f3_plane(*images):
    """The map (images[0], images[1]) of the plane over F3, each image a function of X1, X2."""
    F3 = GF(3)
    x1, x2 = Poly.variable(F3, 2, 1), Poly.variable(F3, 2, 2)
    return PolyEndo(F3, 2, [image(x1, x2) for image in images])


# tag, map, automorphism, flags, hypothesis_holds, biconditional_holds,
# witnesses; at each boundary where a clause starts or stops applying: p <= n
# (a jacobian clause on CPC and CDC) and p = 0 (vacuous clauses for DC, none
# read off a center); and once for each rule of the extension-degree clause:
# p = 0, a "yes" map, a constant image, a separated map, det JF = 0, and
# none of these (not evaluated).
CLAUSE_ROWS = [
    # F2, n = 2: p <= n, so the jacobian of sigma|Z is a hypothesis; sigma|Z is
    # the separated (X1 - X1^2, X2, X3, X4), of degree 2 = p
    (
        "CDC", lambda: frobenius_deficit_weyl(WeylAlgebra(GF(2), 2)), "no",
        {**_SYMPLECTIC, "extension_degree_ok": False, "jacobian_nonzero": True}, False, True, [],
    ),
    ("CDC", lambda: WeylEndo.identity(WeylAlgebra(GF(3), 2)), "yes", {**_SYMPLECTIC, "extension_degree_ok": True}, True, True, []),
    ("CDC", lambda: frobenius_deficit_weyl(WeylAlgebra(GF(2), 1)), "no", {**_SYMPLECTIC, "extension_degree_ok": False}, False, True, []),
    (
        "CPC", lambda: frobenius_deficit_poly(GF(2), 4), "no",
        {**_SYMPLECTIC, "extension_degree_ok": False, "jacobian_nonzero": True}, False, True, [],
    ),
    ("CPC", lambda: PolyEndo.identity(GF(3), 4), "yes", {**_SYMPLECTIC, "extension_degree_ok": True}, True, True, []),
    # NDC over F_p records the center's symplectic flag and nothing else
    (
        "NDC", lambda: frobenius_deficit_weyl(WeylAlgebra(GF(3), 1)), "no", _SYMPLECTIC, True, False,
        ["hypotheses hold but the map is proven not an automorphism"],
    ),
    # over Q: p = 0 <= n, and no nonzero degree is a multiple of 0
    ("CJC", lambda: PolyEndo.identity(QQ, 2), "yes", {"extension_degree_ok": True, "jacobian_nonzero": True}, True, True, []),
    ("CDC", lambda: WeylEndo.identity(WeylAlgebra(QQ, 1)), "yes", {"extension_degree_ok": True, "jacobian_nonzero": True}, True, True, []),
    ("NDC", lambda: WeylEndo.identity(WeylAlgebra(QQ, 1)), "yes", {}, True, True, []),
    (
        "CPC", lambda: PolyEndo.identity(QQ, 2), "yes",
        {**_SYMPLECTIC, "extension_degree_ok": True, "jacobian_nonzero": True}, True, True, [],
    ),
    ("NPC", lambda: PolyEndo.identity(QQ, 2), "yes", _SYMPLECTIC, True, True, []),
    # the rules past "yes" and separated maps: a constant image, det JF = 0, none
    (
        "CJC", lambda: _f3_plane(lambda x1, x2: x1, lambda x1, x2: Poly.one(GF(3), 2)), "no",
        {"extension_degree_ok": False, "jacobian_nonzero": False}, False, True, [],
    ),
    (
        "CJC", lambda: _f3_plane(lambda x1, x2: x1**3 + x2, lambda x1, x2: x2), "no",
        {"extension_degree_ok": False, "jacobian_nonzero": False}, False, True, [],
    ),
    (
        "CJC", lambda: _f3_plane(lambda x1, x2: x1 + x1**3 + x2**2, lambda x1, x2: x2), "no",
        {"extension_degree_ok": None, "jacobian_nonzero": True}, None, None, _NOT_EVALUATED,
    ),
]
CLAUSE_IDS = [
    "CDC-F2-n2", "CDC-F3-n2", "CDC-F2-n1", "CPC-F2-n2", "CPC-F3-n2", "NDC-F3",
    "CJC-Q", "CDC-Q", "NDC-Q", "CPC-Q", "NPC-Q", "CJC-F3-constant", "CJC-F3-det-zero", "CJC-F3-not-evaluated",
]


@pytest.mark.parametrize("tag,make,status,flags,hypothesis,biconditional,witnesses", CLAUSE_ROWS, ids=CLAUSE_IDS)
def test_check_instance_clauses_per_tag(tag, make, status, flags, hypothesis, biconditional, witnesses):
    verdict = check_instance(tag, make())
    assert verdict.automorphism == status
    assert verdict.flags == flags
    assert verdict.hypothesis_holds is hypothesis
    assert verdict.biconditional_holds is biconditional
    assert verdict.witnesses == witnesses


def test_suite_refuses_an_over_budget_p_max_before_any_case(monkeypatch, capsys):
    from canonalg.cli import main

    def no_case(*args, **kwargs):
        raise AssertionError("a suite case ran before the p_max budget check")

    monkeypatch.setattr(conjectures, "check_instance", no_case)
    over = conjectures.KRAUS_P_MAX_BUDGET + 1
    with pytest.raises(ValueError, match="over the budget"):
        counterexample_suite(kraus_p_max=over)
    assert main(["suite", "--p-max", str(over)]) == 2
    assert capsys.readouterr().err.startswith(f"error: p_max {over} is over the budget")
