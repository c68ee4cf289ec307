import json
from fractions import Fraction
from pathlib import Path

import pytest

from canonalg.cli import main
from canonalg.parsing import (
    EndoFile,
    ParseError,
    parse_endo_file,
    parse_poly,
    print_endo_file,
)
from canonalg.poisson import PoissonContext, generate_symplectomorphism
from canonalg.poly import Poly
from canonalg.report import build_report, validate_report
from canonalg.rings import GF, QQ
from canonalg.weyl import WeylAlgebra, generate_central_perturbation, generate_weyl_automorphism
from util import weyl_corpus


def test_expression_basics():
    f = parse_poly("X1^2 + 2*X1 + 1", QQ, 2)
    x1 = Poly.variable(QQ, 2, 1)
    assert f == x1**2 + x1.scale(QQ.of_int(2)) + Poly.one(QQ, 2)

    g = parse_poly("-(X1 - X2)^2", QQ, 2)
    x2 = Poly.variable(QQ, 2, 2)
    assert g == -((x1 - x2) ** 2)

    h = parse_poly("1/2*X1", QQ, 1)
    assert h == Poly.variable(QQ, 1, 1).scale(QQ.of_fraction(Fraction(1, 2)))

    assert parse_poly("3", GF(5), 1) == Poly.const(GF(5), 1, 3)


def test_expression_precedence():
    f = parse_poly("X1 + X2 * X1^2", QQ, 2)
    x1, x2 = Poly.variable(QQ, 2, 1), Poly.variable(QQ, 2, 2)
    assert f == x1 + x2 * x1**2


@pytest.mark.parametrize(
    "text",
    ["2X1", "X1 +", "(X1", "X1 ^ X2", "X1 // 2", "1/0", "X1 $ X2", "X3"],
)
def test_expression_errors(text):
    with pytest.raises(ParseError):
        parse_poly(text, QQ, 2)


def test_weyl_words_normal_order_on_ingestion():
    ef = parse_endo_file("ring=Q kind=weyl n=1\nY1 -> Y1\nY2 -> Y2 + Y1*Y2\n")
    A = WeylAlgebra(QQ, 1)
    d, x = A.generator(1), A.generator(2)
    # Y1*Y2 is the word d x = x d + 1
    assert ef.images[1] == x + x * d + A.one()


def test_parse_endo_file_examples():
    ef = parse_endo_file("ring=F2 kind=weyl n=1\nY1 -> Y1\nY2 -> Y2 + Y1^2\n")
    assert ef.kind == "weyl" and ef.n == 1 and str(ef.ring) == "F2"

    ef = parse_endo_file("ring=Q kind=poisson n=1\nX1 -> X1 + X2^2\nX2 -> X2\n")
    assert ef.endo().degree() == 2

    ef = parse_endo_file("# comment\nring=Q kind=poly m=3\nX1 -> X2\nX2 -> X3\nX3 -> X1\n")
    assert ef.nvars == 3 and ef.n is None


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("ring=F4 kind=weyl n=1\nY1 -> Y1\nY2 -> Y2\n", "not prime"),
        ("ring=F2 kind=weyl n=1\nY1 -> Y1\n", "image lines"),
        ("ring=F2 kind=weyl n=1\nY2 -> Y2\nY1 -> Y1\n", "expected image"),
        ("ring=F2 kind=weyl n=1\nY1 -> Y3\nY2 -> Y2\n", "undeclared"),
        ("ring=F2 kind=banana n=1\nY1 -> Y1\nY2 -> Y2\n", "kind"),
        ("ring=F2 kind=poly n=1\nX1 -> X1\n", "m="),
        ("ring=F2 kind=weyl n=1\nY1 Y1\nY2 -> Y2\n", "->"),
        ("# only a comment\n\n", "empty input"),
        ("ring=F2 kind=weyl n\nY1 -> Y1\nY2 -> Y2\n", "malformed header entry"),
        ("ring=F2 kind=weyl\nY1 -> Y1\nY2 -> Y2\n", "needs n="),
        ("ring=F3 kind=poly m=1 m=2\nX1 -> X1\nX2 -> X2\n", "kind=poly takes the header keys ring, kind and m once each"),
        ("ring=F2 ring=F3 kind=weyl n=1\nY1 -> Y1\nY2 -> Y2\n", "kind=weyl takes the header keys ring, kind and n once each"),
        ("ring=F2 kind=weyl n=1 m=9\nY1 -> Y1\nY2 -> Y2\n", "kind=weyl takes the header keys ring, kind and n once each"),
        ("ring=F2 kind=poly m=1 n=1\nX1 -> X1\n", "kind=poly takes the header keys ring, kind and m once each"),
        ("ring=Q kind=poisson n=1 seed=3\nX1 -> X1\nX2 -> X2\n", "kind=poisson takes the header keys ring, kind and n once each"),
        # every numeral is ASCII digits: a superscript or Arabic-Indic digit is no numeral
        ("ring=F2 kind=poly m=\u00b2\nX1 -> X1\n", "line 1, col 1: kind=poly needs m=<variable count>"),
        ("ring=F2 kind=poly m=\u0661\nX1 -> X1\n", "line 1, col 1: kind=poly needs m=<variable count>"),
        ("ring=F\u0665 kind=poly m=1\nX1 -> X1\n", "line 1, col 1: unknown ring literal"),
        ("ring=F5 kind=poly m=1\nX1 -> X1 + \u0663\n", "line 2, col 12: unexpected character '\u0663'"),
        # an expression's columns count from the start of its line as written
        ("ring=F5 kind=poly m=1\n   X1 -> X1 + \u0663\n", "line 2, col 15: unexpected character '\u0663'"),
        ("ring=F5 kind=poly m=1\nX1 -> X1 + X2\n", "line 2, col 12: undeclared variable 'X2'"),
        ("ring=F5 kind=poly m=1\nX1 -> (X1\n", "line 2, col 10: expected ')', found 'end of line'"),
    ],
)
def test_parse_endo_file_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_endo_file(text)
    assert fragment in str(err.value)


def test_round_trip_corpus():
    corpus = [
        "ring=F2 kind=weyl n=1\nY1 -> Y1\nY2 -> Y2 + Y1^2\n",
        "ring=Q kind=poisson n=1\nX1 -> X1 + X2^2\nX2 -> X2\n",
        "ring=Q kind=poly m=2\nX1 -> 1/2*X1 - 3\nX2 -> X2 + X1^4\n",
        "ring=F5 kind=poisson n=2\nX1 -> X1 + X3^2\nX2 -> X2\nX3 -> X3\nX4 -> X4 + 4*X3\n",
        "ring=Z kind=poly m=1\nX1 -> X1 - X1^2\n",
    ]
    for text in corpus:
        ef = parse_endo_file(text)
        assert parse_endo_file(print_endo_file(ef)) == ef


def _generated_maps():
    """(kind, map) pairs: a symplectomorphism written as kind poly and as kind
    poisson, a Weyl automorphism and (over a prime field, where they exist) a
    central perturbation, at each ring and n = 1, 2, 3; then the Weyl corpus."""
    for ring in (QQ, GF(2), GF(3), GF(5), GF(10007)):
        for n in (1, 2, 3):
            seed = 1000 * n + ring.p
            symplectic = generate_symplectomorphism(PoissonContext(ring, n), seed, steps=3, max_degree=3)
            yield "poly", symplectic
            yield "poisson", symplectic
            algebra = WeylAlgebra(ring, n)
            yield "weyl", generate_weyl_automorphism(algebra, seed, steps=3, max_degree=3)
            if ring.p:
                yield "weyl", generate_central_perturbation(algebra, seed)
    for endo in weyl_corpus():
        yield "weyl", endo


def test_round_trip_at_every_kind():
    """Printing writes the header and letters that parsing declares, for every kind."""
    for kind, endo in _generated_maps():
        nvars = len(endo.images)
        ef = EndoFile(endo.ring, kind, None if kind == "poly" else nvars // 2, nvars, endo.images)
        text = print_endo_file(ef)
        back = parse_endo_file(text)
        assert back == ef, text
        got = back.endo()
        assert type(got) is type(endo) and got.images == endo.images, text


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SHEAR_WEYL = "ring=F2 kind=weyl n=1\nY1 -> Y1\nY2 -> Y2 + Y1^2\n"
SCALE_POISSON = "ring=Q kind=poisson n=1\nX1 -> 2*X1\nX2 -> X2\n"
BAD_WEYL = "ring=Q kind=weyl n=1\nY1 -> Y2\nY2 -> Y1\n"
NJC_POLY = "ring=F2 kind=poly m=1\nX1 -> X1 - X1^2\n"


def test_cli_reduce_and_report_schema(tmp_path, monkeypatch):
    from canonalg import reduction

    calls = []  # sigma|Z is computed once and shared by both checks
    induced = reduction.induced_center_endo
    monkeypatch.setattr(reduction, "induced_center_endo", lambda endo: calls.append(endo) or induced(endo))
    f = write(tmp_path, "shear.endo", SHEAR_WEYL)
    out = str(tmp_path / "report.json")
    assert main(["reduce", "--input", f, "--json", out]) == 0
    assert len(calls) == 1
    report = json.loads(Path(out).read_text())
    validate_report(report)
    assert report["payload"]["center_images"] == ["X1", "X1^2 + X2"]
    assert report["payload"]["center_symplectic"] is True
    assert report["payload"]["degree"]["equal"] is True


@pytest.mark.parametrize(
    "edit,fragment",
    [
        (lambda report: report.update(tool=3), "$.tool: expected type string"),
        (lambda report: report.update(schema_version=True), "$.schema_version: expected type integer"),
        (lambda report: report.pop("seed"), "$: missing required key 'seed'"),
        (lambda report: report.update(extra=1), "$: unexpected keys ['extra']"),
        (lambda report: [report], "$: expected type object, got list"),
        (lambda report: report.update(seed="3"), "$.seed: expected type ['integer', 'null'], got str"),
    ],
    ids=["wrong-type", "bool-for-integer", "missing-key", "extra-key", "not-an-object", "string-seed"],
)
def test_validate_report_refuses_a_malformed_envelope(edit, fragment):
    report = build_report("kraus", "0" * 64, {}, 0)
    validate_report(report)
    replaced = edit(report)  # an edit works in place, or returns a list to stand for the report
    with pytest.raises(ValueError) as err:
        validate_report(replaced if isinstance(replaced, list) else report)
    assert fragment in str(err.value)


def test_cli_reports_are_byte_identical(tmp_path):
    f = write(tmp_path, "shear.endo", SHEAR_WEYL)
    o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["reduce", "--input", f, "--seed", "7", "--json", o1])
    main(["reduce", "--input", f, "--seed", "7", "--json", o2])
    assert Path(o1).read_bytes() == Path(o2).read_bytes()


def test_cli_check_symplectic_nonsymplectic_is_not_a_falsification(tmp_path):
    f = write(tmp_path, "scale.endo", SCALE_POISSON)
    out = str(tmp_path / "report.json")
    assert main(["check-symplectic", "--input", f, "--json", out]) == 0
    payload = json.loads(Path(out).read_text())["payload"]
    assert payload["symplectic"] is False
    assert payload["det"] == "2"


def test_cli_check_weyl_endo(tmp_path):
    good = write(tmp_path, "good.endo", SHEAR_WEYL)
    out = str(tmp_path / "r.json")
    assert main(["check-weyl-endo", "--input", good, "--json", out]) == 0
    assert json.loads(Path(out).read_text())["payload"]["relations_hold"] is True

    bad = write(tmp_path, "bad.endo", BAD_WEYL)
    assert main(["check-weyl-endo", "--input", bad, "--json", out]) == 0
    payload = json.loads(Path(out).read_text())["payload"]
    assert payload["relations_hold"] is False
    assert payload["witness"] == {"i": 1, "j": 2, "commutator": "-1"}


def test_cli_invert_both_kinds(tmp_path):
    f = write(tmp_path, "scale.endo", SCALE_POISSON)
    out = str(tmp_path / "r.json")
    assert main(["invert", "--input", f, "--json", out]) == 0
    payload = json.loads(Path(out).read_text())["payload"]
    assert payload["status"] == "found"
    assert payload["inverse_images"] == ["1/2*X1", "X2"]

    g = write(tmp_path, "njc.endo", NJC_POLY)
    assert main(["invert", "--input", g, "--json", out]) == 0
    payload = json.loads(Path(out).read_text())["payload"]
    assert payload["status"] == "none" and payload["certified_non_automorphism"] is True

    w = write(tmp_path, "shear.endo", SHEAR_WEYL)
    assert main(["invert-weyl", "--input", w, "--json", out]) == 0
    payload = json.loads(Path(out).read_text())["payload"]
    assert payload["status"] == "found"
    assert payload["inverse_images"] == ["Y1", "Y1^2 + Y2"]  # -1 = 1 mod 2


@pytest.mark.parametrize(
    "ring,text", [("F3", "X1 -> 2\n"), ("F3", "X1 -> 0\nX2 -> 0\n"), ("Z", "X1 -> 2\n")], ids=["two", "all-zero", "two-Z"]
)
def test_cli_invert_certifies_a_constant_map_at_bound_0(ring, text, tmp_path):
    # a constant map has no inverse, so bound 0 certifies it, as check-instance already reports;
    # no search runs, so integer coefficients need no field
    f = write(tmp_path, "const.endo", f"ring={ring} kind=poly m={text.count('->')}\n{text}")
    out = str(tmp_path / "r.json")
    for cap in ([], ["--degree-cap", "2"]):
        assert main(["invert", "--input", f, *cap, "--json", out]) == 0
        payload = json.loads(Path(out).read_text())["payload"]
        assert (payload["status"], payload["degree_bound"]) == ("none", 0)
        assert payload["certified_non_automorphism"] is True
        assert payload["searched_degree"] == (2 if cap else 0)
    assert main(["check-instance", "--tag", "CJC", "--input", f, "--json", out]) == 0
    payload = json.loads(Path(out).read_text())["payload"]
    assert (payload["automorphism"], payload["certified_bound"], payload["searched_degree"]) == ("no", 0, 0)


def test_cli_check_instance_exit_codes(tmp_path):
    g = write(tmp_path, "njc.endo", NJC_POLY)
    out = str(tmp_path / "r.json")
    assert main(["check-instance", "--tag", "NJC", "--input", g, "--json", out]) == 1
    payload = json.loads(Path(out).read_text())["payload"]
    assert payload["biconditional_holds"] is False

    assert main(["check-instance", "--tag", "CJC", "--input", g, "--json", out]) == 0

    ident = write(tmp_path, "id.endo", "ring=F3 kind=poly m=1\nX1 -> X1\n")
    assert main(["check-instance", "--tag", "NJC", "--input", ident, "--json", out]) == 0

    # tag/kind mismatch is an input error
    assert main(["check-instance", "--tag", "NDC", "--input", g]) == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check-symplectic"], "check-symplectic needs kind=poisson input, got kind=weyl"),
        (["invert"], "invert needs kind=poly or kind=poisson input, got kind=weyl"),
        (["check-instance", "--tag", "NJC"], "check-instance needs kind=poly input, got kind=weyl"),
    ],
    ids=["check-symplectic", "invert", "check-instance"],
)
def test_cli_kind_mismatch_exits_2_with_one_message(argv, message, tmp_path, capsys):
    w = write(tmp_path, "shear.endo", SHEAR_WEYL)
    out = tmp_path / "r.json"
    assert main(argv + ["--input", w, "--json", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    g = write(tmp_path, "njc.endo", NJC_POLY)
    for command in ("check-weyl-endo", "reduce", "invert-weyl", "probe-chain"):
        assert main([command, "--input", g]) == 2
        assert capsys.readouterr().err == f"error: {command} needs kind=weyl input, got kind=poly\n"


def test_cli_seed_spans_the_u64_range(tmp_path):
    out = tmp_path / "r.json"
    for seed in (0, 2**64 - 1):
        assert main(["kraus", "--p-max", "10", "--seed", str(seed), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == seed


def test_cli_input_errors_exit_2(tmp_path):
    missing = str(tmp_path / "nope.endo")
    assert main(["reduce", "--input", missing]) == 2

    f4 = write(tmp_path, "f4.endo", "ring=F4 kind=weyl n=1\nY1 -> Y1\nY2 -> Y2\n")
    assert main(["reduce", "--input", f4]) == 2

    bad = write(tmp_path, "bad.endo", BAD_WEYL)
    assert main(["reduce", "--input", bad]) == 2  # not relation-verified


def test_cli_center_slice_kraus_suite_probe(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["center-slice", "--ring", "F2", "--n", "1", "--degree-cap", "4", "--json", out]) == 0
    payload = json.loads(Path(out).read_text())["payload"]
    assert payload["match"] is True and payload["dimension_found"] == 6

    assert main(["kraus", "--p-max", "60", "--json", out]) == 0
    payload = json.loads(Path(out).read_text())["payload"]
    assert payload["z_irreducible"] is True and payload["all_reducible"] is True

    assert main(["suite", "--p-max", "60", "--json", out]) == 0
    assert json.loads(Path(out).read_text())["payload"]["all_expected"] is True

    w = write(tmp_path, "shear.endo", SHEAR_WEYL)
    assert main(["probe-chain", "--input", w, "--json", out]) == 0
    assert json.loads(Path(out).read_text())["payload"]["consistent"] is True


def test_cli_report_envelope_fields(tmp_path):
    f = write(tmp_path, "shear.endo", SHEAR_WEYL)
    out = str(tmp_path / "r.json")
    main(["reduce", "--input", f, "--seed", "42", "--json", out])
    report = json.loads(Path(out).read_text())
    assert report["tool"] == "canonalg"
    assert report["command"] == "reduce"
    assert report["seed"] == 42
    assert len(report["input_digest"]) == 64


def test_cli_long_and_deeply_nested_input_is_read(tmp_path):
    # evaluation is one pass over the tokens: neither length nor nesting depth is limited
    text = "ring=F2 kind=poly m=1\nX1 -> " + " + ".join(["X1"] * 3000) + "\n"
    f = write(tmp_path, "long.endo", text)
    assert main(["invert", "--input", f]) == 0
    assert parse_endo_file(text).images == (Poly.zero(GF(2), 1),)
    depth = 10**5
    x1 = Poly.variable(QQ, 1, 1)
    assert parse_poly("(" * depth + "X1" + ")" * depth, QQ, 1) == x1
    assert parse_poly("-" * (depth + 1) + "X1", QQ, 1) == -x1


def test_cli_internal_errors_exit_3(tmp_path, monkeypatch, capsys):
    import canonalg.cli as cli
    from canonalg.reduction import CenterReductionError

    def broken(args):
        raise CenterReductionError("p-th power is not central")

    monkeypatch.setitem(cli._HANDLERS, "kraus", broken)
    out = tmp_path / "r.json"
    assert main(["kraus", "--json", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["internal error: CenterReductionError: p-th power is not central"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command,text,module",
    [
        ("invert-weyl", "ring=F3 kind=weyl n=1\nY1 -> Y1\nY2 -> Y2 + Y1^2\n", "weyl"),
        ("invert", "ring=F3 kind=poly m=2\nX1 -> X1 + 2*X2^2\nX2 -> X2 + 1\n", "conjectures"),
    ],
    ids=["weyl", "poly"],
)
def test_cli_corrupted_solution_exits_3(command, text, module, tmp_path, monkeypatch, capsys):
    """A solver fault is an internal error on both sides, not ill-formed input
    (the Weyl candidate fails its relation check, which raises a ValueError)."""
    import importlib

    from canonalg.linalg import solve_many

    def corrupting(ring, matrix, rhs):
        solutions = solve_many(ring, matrix, rhs)
        if None not in solutions:
            i = next(iter(solutions[0]))
            solutions[0][i] = ring.add(solutions[0][i], ring.one())
        return solutions

    monkeypatch.setattr(importlib.import_module(f"canonalg.{module}"), "solve_many", corrupting)
    out = tmp_path / "r.json"
    assert main([command, "--input", write(tmp_path, "map.endo", text), "--json", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: AssertionError: ") and "(internal bug)" in err[0]
    assert not out.exists()


def test_cli_corrupted_reduction_exits_3(tmp_path, monkeypatch, capsys):
    """A unitriangular map's inverse, read off by reduction rather than a
    solve, is checked two-sided too: a wrong coefficient is an internal error."""
    from canonalg.poly import Endo

    check = Endo.checked_inverse

    def corrupting(self, basis, solutions, images, targets):
        i = next(iter(solutions[0]))
        solutions[0][i] = self.ring.add(solutions[0][i], self.ring.one())
        return check(self, basis, solutions, images, targets)

    text = "ring=F3 kind=poly m=2\nX1 -> X1 + 2*X2^2\nX2 -> 2*X2\n"
    assert parse_endo_file(text).endo().unitriangular()
    path = write(tmp_path, "map.endo", text)
    assert main(["invert", "--input", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(Endo, "checked_inverse", corrupting)
    out = tmp_path / "r.json"
    assert main(["invert", "--input", path, "--json", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: AssertionError: ") and "(internal bug)" in err[0]
    assert not out.exists()


def test_cli_unwritable_report_path_exits_2(tmp_path, capsys):
    assert main(["kraus", "--p-max", "10", "--json", str(tmp_path / "missing-dir" / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["kraus", "suite"])
def test_cli_p_max_over_budget_exits_2(command, tmp_path, capsys):
    from canonalg.conjectures import KRAUS_P_MAX_BUDGET

    out = tmp_path / "r.json"
    assert main([command, "--p-max", str(KRAUS_P_MAX_BUDGET + 1), "--json", str(out)]) == 2
    assert capsys.readouterr().err == f"error: p_max {KRAUS_P_MAX_BUDGET + 1} is over the budget of {KRAUS_P_MAX_BUDGET}\n"
    assert not out.exists()


def test_cli_negative_degree_cap_exits_2(tmp_path, capsys):
    w = write(tmp_path, "shear.endo", SHEAR_WEYL)
    out = tmp_path / "r.json"
    assert main(["invert-weyl", "--input", w, "--degree-cap", "-3", "--json", str(out)]) == 2
    assert "--degree-cap must be >= 0" in capsys.readouterr().err
    assert main(["center-slice", "--ring", "F2", "--n", "1", "--degree-cap", "-2", "--json", str(out)]) == 2
    assert "--degree-cap must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    # cap 0 is a legitimate, empty search
    assert main(["invert-weyl", "--input", w, "--degree-cap", "0"]) == 0


def test_cli_degree_cap_over_monomial_budget_exits_2(tmp_path, capsys):
    # The budget is 4000 basis monomials: C(87 + 2, 2) = 3916 in two variables
    # is within it, C(88 + 2, 2) = 4005 is not.  This map's inverse is found at
    # cap 2, so the largest allowed cap stays cheap.
    g = write(tmp_path, "g.endo", "ring=F3 kind=poly m=2\nX1 -> X1 + X2^2\nX2 -> X2\n")
    assert main(["invert", "--input", g, "--degree-cap", "87"]) == 0
    capsys.readouterr()
    assert main(["invert", "--input", g, "--degree-cap", "88"]) == 2
    assert "4005 monomials in 2 variables" in capsys.readouterr().err
    w = write(tmp_path, "shear.endo", SHEAR_WEYL)
    assert main(["invert-weyl", "--input", w, "--degree-cap", "88"]) == 2
    assert "4005 monomials in 2 variables" in capsys.readouterr().err
    # center-slice counts 2n = 4 variables: C(16 + 4, 4) = 4845
    assert main(["center-slice", "--ring", "F2", "--n", "2", "--degree-cap", "16"]) == 2
    assert "4845 monomials in 4 variables" in capsys.readouterr().err
    assert main(["invert-weyl", "--input", w, "--degree-cap", str(10**12)]) == 2


def test_cli_oversized_product_exits_2(tmp_path, capsys):
    # 40 bytes of input whose expansion has 80,601 terms: refused before the
    # first product past the term-pair budget is formed, over Q and for Weyl words
    f = write(tmp_path, "big.endo", "ring=Q kind=poly m=2\nX1 -> (X1 + X2 + 1)^400\nX2 -> X2\n")
    assert main(["check-instance", "--tag", "CJC", "--input", f]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "term pairs" in err
    w = write(tmp_path, "big-weyl.endo", "ring=Q kind=weyl n=1\nY1 -> Y1\nY2 -> Y2 + (Y1 + Y2 + 1)^400\n")
    assert main(["check-weyl-endo", "--input", w]) == 2
    assert "term pairs" in capsys.readouterr().err


def test_term_pair_budget_checks_each_product(monkeypatch):
    import canonalg.parsing as parsing

    monkeypatch.setattr(parsing, "TERM_PAIR_BUDGET", 6)
    x1, x2 = Poly.variable(QQ, 2, 1), Poly.variable(QQ, 2, 2)
    assert parse_poly("(X1 + X2) * (X1 + X2 + 1)", QQ, 2) == (x1 + x2) * (x1 + x2 + Poly.one(QQ, 2))
    with pytest.raises(ParseError, match="a product of 2 by 4 terms"):
        parse_poly("(X1 + X2) * (X1 + X2 + X1^2 + 1)", QQ, 2)
    # (X1 + X2)^3 multiplies 2 x 2, then 2 x 3 pairs; the 4th power squares 3 terms
    assert parse_poly("(X1 + X2)^3", QQ, 2) == (x1 + x2) ** 3
    with pytest.raises(ParseError, match="a product of 3 by 3 terms"):
        parse_poly("(X1 + X2)^4", QQ, 2)


def test_large_exponents_of_small_operands_stay_accepted():
    F = GF(10007)
    x1 = Poly.variable(F, 1, 1)
    ef = parse_endo_file("ring=F10007 kind=poly m=1\nX1 -> X1 - X1^10007\n")
    assert ef.images[0] == x1 - Poly.monomial(F, 1, (10007,))
    x = Poly.variable(QQ, 1, 1)
    big = Poly.monomial(QQ, 1, (100000,))
    assert parse_poly("(X1 + 1)^2 * X1^100000", QQ, 1) == (x + Poly.one(QQ, 1)) ** 2 * big
