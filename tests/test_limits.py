"""Input limits that keep one call bounded: the prime-field modulus, the
extension degree (exact rules, no point evaluated, at any prime), the
Weyl degree over Q or Z, the center-slice commutators, the shared monomial
budget, an endo header's generator count, the determinant's work and the
center restriction's work."""

from __future__ import annotations

import inspect
import json
import random
from pathlib import Path

import pytest

from canonalg import cli, parsing, poly, reduction, weyl
from canonalg.cli import main
from canonalg.conjectures import (
    MONOMIAL_BUDGET,
    QUICK_CAP,
    chain_probe,
    check_instance,
    decide_poly_automorphism,
    decide_weyl_automorphism,
    extension_degree_estimate,
)
from canonalg.parsing import GENERATOR_LIMIT, WEYL_DEGREE_LIMIT, ParseError, parse_endo_file
from canonalg.poly import DET_WORK_BUDGET, Poly, PolyEndo, PolyMatrix, _Images
from canonalg.reduction import CENTER_WORK_BUDGET, induced_center_endo
from canonalg.rings import GF, MODULUS_LIMIT, is_prime, ring_from_text
from canonalg.weyl import (
    WeylAlgebra,
    WeylElement,
    WeylEndo,
    generate_weyl_automorphism,
    leibniz_terms,
    relation_check_terms,
)
from test_conjectures import CLAUSE_ROWS

LARGEST_PRIME_BELOW_LIMIT = 2**40 - 87
GOLDEN = Path(__file__).parent / "golden"


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- the modulus limit --------------------------------------------------------------------


def test_modulus_limit_boundary():
    assert MODULUS_LIMIT == 2**40
    assert is_prime(LARGEST_PRIME_BELOW_LIMIT)
    assert not any(is_prime(m) for m in range(LARGEST_PRIME_BELOW_LIMIT + 1, MODULUS_LIMIT))
    assert GF(LARGEST_PRIME_BELOW_LIMIT).p == LARGEST_PRIME_BELOW_LIMIT  # accepted: just below the limit
    for modulus in (MODULUS_LIMIT, MODULUS_LIMIT + 15, 10**18 + 3):
        with pytest.raises(ValueError, match="not below the limit of 2\\^40"):
            GF(modulus)
    with pytest.raises(ValueError, match="limit"):
        ring_from_text("F1000000000000000003")


def test_trial_division_agrees_with_a_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for d in range(2, 2000):
        for k in range(2 * d, 2000, d):
            sieve[k] = False
    assert [m for m in range(-5, 2000) if is_prime(m)] == [m for m in range(2000) if sieve[m]]


def test_huge_modulus_input_exits_2(tmp_path, capsys):
    with pytest.raises(ParseError, match="limit"):
        parse_endo_file("ring=F1000000000000000003 kind=poly m=1\nX1 -> X1\n")
    f = _write(tmp_path, "huge.endo", "ring=F1000000000000000003 kind=poly m=1\nX1 -> X1\n")
    assert main(["invert", "--input", f]) == 2
    assert "modulus 1000000000000000003 is not below the limit of 2^40" in capsys.readouterr().err
    assert main(["center-slice", "--ring", "F1000000000000000003", "--n", "1", "--degree-cap", "1"]) == 2
    assert "not below the limit" in capsys.readouterr().err
    big = _write(tmp_path, "big.endo", f"ring=F{LARGEST_PRIME_BELOW_LIMIT} kind=poly m=1\nX1 -> 2*X1 + 1\n")
    assert main(["invert", "--input", big]) == 0


# -- the extension degree -------------------------------------------------------------------


def _univariate(ring, *coeffs):
    return PolyEndo(ring, 1, [Poly(ring, 1, {(e,): c for e, c in enumerate(coeffs)})])


@pytest.mark.parametrize("tag", ["CJC", "NJC"])
def test_one_variable_extension_degree_evaluates_no_point(monkeypatch, tag):
    maps = [
        _univariate(GF(5), 0, 1, 1),  # X + X^2
        _univariate(GF(7), 3, 2),  # an automorphism
        _univariate(GF(7), 0, 0, 0, 0, 0, 0, 0, 1),  # X^7, inseparable, degree a multiple of p
        _univariate(GF(3), 0, 1, 0, 2),  # X + 2 X^3
    ]

    def no_point(*args):
        raise AssertionError("a point of F_p was evaluated")

    monkeypatch.setattr(Poly, "evaluate", no_point)
    for endo in maps:
        degree = endo.degree()
        assert extension_degree_estimate(endo) == degree
        verdict = check_instance(tag, endo)
        assert verdict.automorphism == ("yes" if degree == 1 else "no")
        assert "estimated" not in verdict.to_payload()
        assert not any("not evaluated" in w for w in verdict.witnesses)
        if tag == "CJC":
            assert verdict.flags["extension_degree_ok"] is (degree % endo.ring.p != 0)


def test_extension_clauses_evaluate_no_point_at_any_prime(monkeypatch, tmp_path):
    def no_point(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(Poly, "evaluate", no_point)
    for tag, make, _, flags, *_ in CLAUSE_ROWS:
        if tag[0] == "C":
            assert check_instance(tag, make()).flags == flags, tag

    # the shear over F1009: a million points of the plane, and a "yes" map of degree 1
    ring = GF(1009)
    x1, x2 = Poly.variable(ring, 2, 1), Poly.variable(ring, 2, 2)
    verdict = check_instance("CPC", PolyEndo(ring, 2, [x1 + x2**3, x2]))
    assert verdict.flags == {"symplectic": True, "extension_degree_ok": True}
    assert verdict.hypothesis_holds is True and verdict.witnesses == []

    # two variables over F1000003, decided by the jacobian clause
    p = 1000003
    m2 = _write(tmp_path, "m2.endo", f"ring=F{p} kind=poly m=2\nX1 -> X1 + X1^2 + X2^2\nX2 -> X2\n")
    assert main(["check-instance", "--tag", "CJC", "--input", m2]) == 0


def test_one_variable_fibers_over_a_large_prime_are_not_enumerated(tmp_path):
    p = 1000003
    assert extension_degree_estimate(_univariate(GF(p), 0, 1, 1)) == 2
    f = _write(tmp_path, "m1.endo", f"ring=F{p} kind=poly m=1\nX1 -> X1 + X1^2\n")
    assert main(["check-instance", "--tag", "CJC", "--input", f]) == 0


# -- large exponents over a small prime ---------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [["check-weyl-endo"], ["reduce"], ["invert-weyl"], ["probe-chain"], ["check-instance", "--tag", "CDC"]],
    ids=lambda argv: argv[0],
)
def test_weyl_commands_answer_a_file_with_exponent_a_million_over_f2(argv, tmp_path):
    # x^M and d^M are central for even M; each Leibniz weight table stops at l = p - 1 = 1
    text = "ring=F2 kind=weyl n=1\nY1 -> Y1 + Y2^1000000\nY2 -> Y2 + Y1^1000000\n"
    assert main([*argv, "--input", _write(tmp_path, "big.endo", text)]) == 0


# -- the Weyl degree over Q or Z -----------------------------------------------------------


def _exponent_pair(m: int, ring: str = "Q") -> str:
    return f"ring={ring} kind=weyl n=1\nY1 -> Y1 + Y2^{m}\nY2 -> Y2 + Y1^{m}\n"


def test_weyl_degree_limit_boundary(tmp_path, capsys):
    # the relation check forms d^M x^M, whose M + 1 exact weights reach M!
    assert WEYL_DEGREE_LIMIT == 1000
    out = tmp_path / "r.json"
    at = _write(tmp_path, "at.endo", _exponent_pair(1000))
    assert main(["check-weyl-endo", "--input", at, "--json", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["relations_hold"] is False and (payload["witness"]["i"], payload["witness"]["j"]) == (1, 2)
    for ring in ("Q", "Z"):
        past = _write(tmp_path, "past.endo", _exponent_pair(1001, ring))
        assert main(["check-weyl-endo", "--input", past]) == 2
        assert capsys.readouterr().err == (
            f"error: line 2, col 1: a Weyl product of degree 1001 over {ring} exceeds the limit of degree 1000\n"
        )


def test_witness_with_coefficients_past_the_int_digit_limit_is_written(tmp_path):
    # the commutator carries 4000-digit and longer coefficients; the tokenizer's limit stays on
    text = f"ring=Q kind=weyl n=1\nY1 -> Y1 + {'7' * 2000}*Y2^1000\nY2 -> Y2 + Y1^1000\n"
    out = tmp_path / "r.json"
    assert main(["check-weyl-endo", "--input", _write(tmp_path, "big.endo", text), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["payload"]["relations_hold"] is False


def test_summary_cuts_a_long_witness_and_the_report_keeps_it(tmp_path, capsys):
    text = f"ring=Q kind=weyl n=1\nY1 -> Y1 + {'7' * 2000}*Y2^1000\nY2 -> Y2 + Y1^1000\n"
    path = _write(tmp_path, "big.endo", text)
    out = tmp_path / "r.json"
    assert main(["check-weyl-endo", "--input", path, "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    reported = json.loads(out.read_text())["payload"]["witness"]  # the report sorts its keys
    witness = str({key: reported[key] for key in ("i", "j", "commutator")})
    assert len(witness) > 10**6
    assert lines == [
        "check-weyl-endo:",
        "  relations_hold = False",
        f"  witness = {witness[: cli.SUMMARY_WIDTH]}... ({len(witness)} characters)",
        "  degree = 1000",
    ]


def test_weyl_degree_limit_spares_zero_operands_and_prime_fields():
    ef = parse_endo_file("ring=Z kind=weyl n=1\nY1 -> 0 * Y1^1000 * Y2^1000\nY2 -> Y2\n")
    assert ef.images[0].is_zero()
    ef = parse_endo_file("ring=F3 kind=weyl n=1\nY1 -> Y1^1000 * Y2^1000\nY2 -> Y2\n")
    assert ef.images[0].degree() == 2000
    with pytest.raises(ParseError, match="degree 2000 over Q"):
        parse_endo_file("ring=Q kind=weyl n=1\nY1 -> Y1^1000 * Y2^1000\nY2 -> Y2\n")


# -- the center-slice commutators ---------------------------------------------------------


def test_center_slice_refuses_too_many_commutator_exponents(capsys):
    # cap 0 is one monomial, but its 2n commutators each carry 2n exponents
    assert main(["center-slice", "--ring", "F2", "--n", "100000", "--degree-cap", "0"]) == 2
    assert "needs 40000000000 commutator exponents, over the budget of 64000" in capsys.readouterr().err
    # (2 * 126)^2 = 63504 is within it, (2 * 127)^2 = 64516 is not
    assert main(["center-slice", "--ring", "F2", "--n", "126", "--degree-cap", "0"]) == 0
    capsys.readouterr()
    assert main(["center-slice", "--ring", "F2", "--n", "127", "--degree-cap", "0"]) == 2
    assert "--n 127 needs 64516 commutator exponents" in capsys.readouterr().err
    assert main(["center-slice", "--ring", "F2", "--n", "43", "--degree-cap", "2"]) == 2
    assert main(["center-slice", "--ring", "F2", "--n", "400", "--degree-cap", "1"]) == 2


def test_center_slice_keeps_every_cap_the_basis_allows_up_to_n_2(capsys):
    # n = 2, cap 15: C(19, 4) = 3876 monomials, 3876 * 4^2 = 62016 exponents
    assert main(["center-slice", "--ring", "F2", "--n", "2", "--degree-cap", "15"]) == 0
    # n = 1, cap 87: C(89, 2) = 3916 monomials, the largest basis within the budget
    assert main(["center-slice", "--ring", "F3", "--n", "1", "--degree-cap", "87"]) == 0
    capsys.readouterr()
    # where the basis binds, its message is the one given
    assert main(["center-slice", "--ring", "F2", "--n", "2", "--degree-cap", "16"]) == 2
    assert "--degree-cap 16 needs 4845 monomials in 4 variables, over the budget of 4000" in capsys.readouterr().err


# -- one monomial budget --------------------------------------------------------------------


def test_one_monomial_budget():
    assert MONOMIAL_BUDGET == 4000 and QUICK_CAP == 4
    for entry in (decide_poly_automorphism, decide_weyl_automorphism, check_instance, chain_probe):
        parameters = inspect.signature(entry).parameters
        assert "monomial_cap" not in parameters and "quick_cap" not in parameters
    assert not hasattr(cli, "_MONOMIAL_CAP")


# -- an endo header's generator count -------------------------------------------------------


@pytest.mark.parametrize(
    "header, command",
    [(f"ring=F2 kind=poly m={10**15}", "invert"), (f"ring=F2 kind=weyl n={10**15}", "check-weyl-endo")],
    ids=["poly-m", "weyl-n"],
)
def test_a_huge_header_count_is_refused_before_any_name_is_made(header, command, monkeypatch, tmp_path, capsys):
    default_names = parsing.default_names

    def names(nvars, letter="X"):  # fails at once where the header's count alone would size the list
        assert nvars < 10**6, f"default_names({nvars}) called before the lines were counted"
        return default_names(nvars, letter)

    monkeypatch.setattr(parsing, "default_names", names)
    count = 10**15 * (1 if "poly" in header else 2)
    text = f"{header}\nY1 -> Y1\n"
    with pytest.raises(ParseError, match=f"expected {count} image lines for kind=\\w+, found 1"):
        parse_endo_file(text)
    assert main([command, "--input", _write(tmp_path, "huge.endo", text)]) == 2
    assert f"expected {count} image lines" in capsys.readouterr().err


def _identity_file(kind: str, count: int) -> str:
    size, letter = (f"m={count}", "X") if kind == "poly" else (f"n={count // 2}", "Y")
    return f"ring=F3 kind={kind} {size}\n" + "".join(f"{letter}{i} -> {letter}{i}\n" for i in range(1, count + 1))


@pytest.mark.parametrize("kind, command, past", [("poly", "invert", 201), ("weyl", "check-weyl-endo", 202)])
def test_generator_limit_boundary(kind, command, past, tmp_path, capsys):
    # pair checks grow as the cube of the count; the identity at the limit answers in about a second
    assert GENERATOR_LIMIT == 200
    assert main([command, "--input", _write(tmp_path, "at.endo", _identity_file(kind, 200))]) == 0
    capsys.readouterr()
    assert main([command, "--input", _write(tmp_path, "past.endo", _identity_file(kind, past))]) == 2
    assert capsys.readouterr().err == f"error: line 1, col 1: {past} generators exceed the limit of 200\n"


# -- the relation check's terms ---------------------------------------------------------------

# a linear automorphism of n = 2 over F3 written without a product: image term counts 3, 2, 1, 1
_LINEAR_WEYL = "ring=F3 kind=weyl n=2\nY1 -> Y1 + Y3 + Y4\nY2 -> Y2 + Y3\nY3 -> Y3\nY4 -> Y4\n"


def _relation_terms(text: str) -> int:
    """The terms both products of every image pair form, counted pair by pair: image i by
    image j forms, per term of image i, the Leibniz expansions of image j's terms."""
    images = parse_endo_file(text).images
    return sum(
        len(images[i].terms) * leibniz_terms(images[j])
        for i in range(len(images))
        for j in range(len(images))
        if i != j
    )


@pytest.mark.parametrize(
    "argv",
    [["check-weyl-endo"], ["reduce"], ["invert-weyl"], ["probe-chain"], ["check-instance", "--tag", "CDC"]],
    ids=lambda argv: argv[-1],
)
def test_relation_check_budget_boundary(argv, monkeypatch, tmp_path, capsys):
    count = _relation_terms(_LINEAR_WEYL)
    # each position letter Y3, Y4 expands to 2 terms, so the images count 5, 3, 2, 2 terms a left term:
    # 59 terms, where the term pairs are 2 * (3 * 2 + 3 + 3 + 2 + 2 + 1) = 34
    assert count == 3 * (3 + 2 + 2) + 2 * (5 + 2 + 2) + 1 * (5 + 3 + 2) + 1 * (5 + 3 + 2) == 59
    assert relation_check_terms(parse_endo_file(_LINEAR_WEYL).images) == count
    f = _write(tmp_path, "linear.endo", _LINEAR_WEYL)
    monkeypatch.setattr(parsing, "TERM_PAIR_BUDGET", count)
    assert main([*argv, "--input", f]) == 0
    capsys.readouterr()

    def no_product(self, other):
        raise AssertionError("a Weyl product was formed")

    monkeypatch.setattr(parsing, "TERM_PAIR_BUDGET", count - 1)
    monkeypatch.setattr(WeylElement, "__mul__", no_product)
    assert main([*argv, "--input", f]) == 2
    assert capsys.readouterr().err == (
        f"error: line 1, col 1: the relation check forms up to {count} terms, past the budget of {count - 1}\n"
    )


def test_relation_check_budget_spares_the_largest_identity_and_refuses_two_dense_images(monkeypatch, tmp_path, capsys):
    assert parsing.TERM_PAIR_BUDGET == 100_000
    # the 200-generator identity counts 200 * 300 - 300 terms: test_generator_limit_boundary shows that it answers
    assert _relation_terms(_identity_file("weyl", 200)) == 59_700
    # two images of 250 terms, each a letter plus powers 2..250 of the other: Y2^k expands to k + 1 terms
    sums = [" + ".join(f"{letter}^{k}" for k in range(2, 251)) for letter in ("Y2", "Y1")]
    past = f"ring=F1009 kind=weyl n=1\nY1 -> Y1 + {sums[0]}\nY2 -> Y2 + {sums[1]}\n"
    with monkeypatch.context() as patch:
        patch.setattr(parsing, "TERM_PAIR_BUDGET", 10**9)
        assert _relation_terms(past) == 250 * 251 + 250 * (1 + sum(k + 1 for k in range(2, 251))) == 7_968_750
    assert main(["check-weyl-endo", "--input", _write(tmp_path, "past.endo", past)]) == 2
    assert capsys.readouterr().err == (
        "error: line 1, col 1: the relation check forms up to 7968750 terms, past the budget of 100000\n"
    )


def _dense_leibniz_file(ring: str, top: int) -> str:
    """Two images, each its own letter plus 220 seeded words Y2^a*Y1^b with a, b <= top."""
    r = random.Random(1)
    words = lambda: " + ".join(f"Y2^{r.randint(0, top)}*Y1^{r.randint(0, top)}" for _ in range(220))
    return f"ring={ring} kind=weyl n=1\nY1 -> Y1 + {words()}\nY2 -> Y2 + {words()}\n"


@pytest.mark.parametrize("ring", ["F1009", "Q"])
@pytest.mark.parametrize("top, pairs, terms", [(400, 97_682, 19_673_641), (60, 90_736, 2_958_588)])
def test_a_relation_check_within_the_pairs_but_past_the_terms_exits_2_at_parse_time(
    ring, top, pairs, terms, monkeypatch, tmp_path, capsys
):
    # at exponents <= 400 the relation check took about 30 s over F1009 and longer over Q when it counted pairs
    text = _dense_leibniz_file(ring, top)
    monkeypatch.setattr(parsing, "TERM_PAIR_BUDGET", 10**9)
    images = parse_endo_file(text).images
    sizes = [len(image.terms) for image in images]
    assert sum(sizes) ** 2 - sum(s * s for s in sizes) == pairs <= 100_000
    assert relation_check_terms(images) == _relation_terms(text) == terms
    monkeypatch.setattr(parsing, "TERM_PAIR_BUDGET", 100_000)

    def no_commutator(a, b):
        raise AssertionError("a relation-check product was formed")

    monkeypatch.setattr(weyl, "commutator", no_commutator)
    assert main(["check-weyl-endo", "--input", _write(tmp_path, "dense.endo", text)]) == 2
    assert capsys.readouterr().err == (
        f"error: line 1, col 1: the relation check forms up to {terms} terms, past the budget of 100000\n"
    )


# -- the determinant's work -------------------------------------------------------------------


def _dense_jacobian_map(m: int) -> str:
    """Each image X1 + ... + Xm + Xi^2 over F3: every jacobian entry is nonzero."""
    total = " + ".join(f"X{i}" for i in range(1, m + 1))
    return f"ring=F3 kind=poly m={m}\n" + "".join(f"X{i} -> {total} + X{i}^2\n" for i in range(1, m + 1))


def test_determinant_work_budget_boundary(monkeypatch):
    # each of the two 1x1 minors costs one unit plus its entry's terms times the minor's terms
    ring = GF(5)
    x1, x2 = Poly.variable(ring, 2, 1), Poly.variable(ring, 2, 2)
    a, b, c, d = x1 + x2, x1, x2, x1 + x2 + Poly.one(ring, 2)
    matrix = PolyMatrix(ring, 2, [[a, b], [c, d]])
    work = (1 + 2 * 3) + (1 + 1 * 1)
    monkeypatch.setattr(poly, "DET_WORK_BUDGET", work)
    assert matrix.determinant() == a * d - b * c
    monkeypatch.setattr(poly, "DET_WORK_BUDGET", work - 1)
    with pytest.raises(ValueError, match=f"determinant of a 2x2 matrix exceeds the budget of {work - 1}"):
        matrix.determinant()


def test_dense_jacobian_of_size_8_keeps_its_report_and_size_10_exits_2(tmp_path, capsys):
    assert DET_WORK_BUDGET == 300_000
    out = tmp_path / "r.json"
    dense8 = GOLDEN / "inputs" / "poly-dense8-F3.endo"
    assert dense8.read_text() == _dense_jacobian_map(8)
    assert main(["check-instance", "--tag", "CJC", "--input", str(dense8), "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "check-instance-CJC-dense8-F3.json").read_bytes()
    capsys.readouterr()
    dense10 = _write(tmp_path, "dense10.endo", _dense_jacobian_map(10))
    assert main(["check-instance", "--tag", "CJC", "--input", dense10]) == 2
    assert capsys.readouterr().err == (
        "error: the determinant of a 10x10 matrix exceeds the budget of 300000 minors and term pairs\n"
    )


def test_sparse_jacobians_of_size_12_still_answer(tmp_path):
    identity = "ring=F3 kind=poly m=12\n" + "".join(f"X{i} -> X{i}\n" for i in range(1, 13))
    assert main(["check-instance", "--tag", "CJC", "--input", _write(tmp_path, "id12.endo", identity)]) == 0
    triangular = PolyEndo(
        GF(3), 12, [Poly.variable(GF(3), 12, i) + Poly.variable(GF(3), 12, i + 1) ** 2 for i in range(1, 12)]
        + [Poly.variable(GF(3), 12, 12)]
    )
    assert triangular.jacobian().determinant() == Poly.one(GF(3), 12)


# -- the center restriction's work ----------------------------------------------------------


def test_center_work_budget_boundary(monkeypatch):
    # before each product by sigma(Y_i), each left term counts the terms it can form with the
    # image's terms: one with Y1, min(2, p - 1) + 1 = 3 with Y2^2 (its Leibniz expansion), 2 with Y2
    ef = parse_endo_file("ring=F5 kind=weyl n=1\nY1 -> Y1 + Y2^2\nY2 -> Y2\n")
    endo = ef.endo()
    one = endo.algebra.one()
    powers = [[image**k if k else one for k in range(5)] for image in endo.images]
    work = 4 * sum(len(f.terms) for f in powers[0]) + 2 * sum(len(f.terms) for f in powers[1])
    expected = induced_center_endo(endo).endo
    monkeypatch.setattr(reduction, "CENTER_WORK_BUDGET", work)
    assert induced_center_endo(endo).endo == expected
    monkeypatch.setattr(reduction, "CENTER_WORK_BUDGET", work - 1)
    with pytest.raises(ValueError, match=f"^the center restriction over F5 exceeds the budget of {work - 1} terms$"):
        induced_center_endo(endo)


def test_the_restriction_caches_no_power_below_the_p_th(monkeypatch):
    endo = generate_weyl_automorphism(WeylAlgebra(GF(7), 2), 11, 3, 2)
    times = _Images._times
    cached = []
    monkeypatch.setattr(_Images, "_times", lambda self, *args: cached.append(set(self.cache)) or times(self, *args))
    induced_center_endo(endo)
    # p = 7 products for each of the 4 generators, and at each the engine holds 1, nothing else
    assert cached == [{0}] * 28


@pytest.mark.parametrize(
    "argv",
    [["reduce"], ["probe-chain"], ["check-instance", "--tag", "CDC"], ["check-instance", "--tag", "NDC"]],
    ids=lambda argv: argv[-1],
)
def test_a_restriction_over_the_budget_exits_2_and_one_within_it_answers(argv, tmp_path, capsys):
    assert CENTER_WORK_BUDGET == 4_500_000
    # over F101, Y1 -> Y1 + Y2^2 counts about 470,000 terms; Y2^500 over F1009 counts 501 a left term
    within = _write(tmp_path, "within.endo", "ring=F101 kind=weyl n=1\nY1 -> Y1 + Y2^2\nY2 -> Y2\n")
    assert main([*argv, "--input", within]) == 0
    capsys.readouterr()
    past = _write(tmp_path, "past.endo", "ring=F1009 kind=weyl n=1\nY1 -> Y1 + Y2^500\nY2 -> Y2\n")
    assert main([*argv, "--input", past]) == 2
    assert capsys.readouterr().err == "error: the center restriction over F1009 exceeds the budget of 4500000 terms\n"


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("command", ["reduce", "probe-chain"])
def test_the_identity_over_a_large_prime_is_read_off_within_the_budget(command, n, tmp_path, capsys):
    # p products per generator would form 2 million terms for n = 1 and pass the budget for n = 2
    text = f"ring=F1000003 kind=weyl n={n}\n" + "".join(f"Y{i} -> Y{i}\n" for i in range(1, 2 * n + 1))
    report = tmp_path / "report.json"
    assert main([command, "--input", _write(tmp_path, "identity.endo", text), "--json", str(report)]) == 0
    assert capsys.readouterr().err == ""
    if command == "reduce":
        payload = json.loads(report.read_text(encoding="utf-8"))["payload"]
        assert payload["center_images"] == [f"X{i}" for i in range(1, 2 * n + 1)]
