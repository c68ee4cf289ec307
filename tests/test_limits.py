"""Input limits that keep one call bounded: the prime-field modulus, the
one-variable fiber count, the center-slice commutators and the shared
monomial budget."""

from __future__ import annotations

import inspect

import pytest

from canonalg import cli, conjectures
from canonalg.cli import main
from canonalg.conjectures import (
    FIBER_POINT_BUDGET,
    MONOMIAL_BUDGET,
    chain_probe,
    check_instance,
    decide_poly_automorphism,
    decide_weyl_automorphism,
    extension_degree_estimate,
)
from canonalg.parsing import ParseError, parse_endo_file
from canonalg.poly import Poly, PolyEndo
from canonalg.rings import GF, MODULUS_LIMIT, is_prime, ring_from_text

LARGEST_PRIME_BELOW_LIMIT = 2**40 - 87


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


# -- the one-variable fiber count ---------------------------------------------------------


def _univariate(ring, *coeffs):
    return PolyEndo(ring, 1, [Poly(ring, 1, {(e,): c for e, c in enumerate(coeffs)})])


@pytest.mark.parametrize("tag", ["CJC", "NJC"])
def test_one_variable_fiber_count_respects_the_budget(monkeypatch, tag):
    maps = [
        _univariate(GF(5), 0, 1, 1),  # X + X^2
        _univariate(GF(7), 3, 2),  # an automorphism
        _univariate(GF(7), 0, 0, 0, 0, 0, 0, 0, 1),  # X^7, inseparable, degree a multiple of p
        _univariate(GF(3), 0, 1, 0, 2),  # X + 2 X^3
    ]
    before = [(extension_degree_estimate(endo), check_instance(tag, endo).to_payload()) for endo in maps]
    assert all(rep.max_fiber is not None and rep.fibers_sampled for rep, _ in before)
    monkeypatch.setattr(conjectures, "FIBER_POINT_BUDGET", 2)  # below every p here
    for endo, (rep, payload) in zip(maps, before):
        capped = extension_degree_estimate(endo)
        assert (capped.max_fiber, capped.fibers_sampled) == (None, 0)
        assert (capped.estimate, capped.exact, capped.separable, capped.not_finite) == (
            rep.estimate, rep.exact, rep.separable, rep.not_finite
        )
        assert check_instance(tag, endo).to_payload() == payload
    monkeypatch.setattr(conjectures, "FIBER_POINT_BUDGET", 5)  # p = 5 is at the budget: counted
    assert extension_degree_estimate(maps[0]) == before[0][0]


def test_one_variable_fibers_over_a_large_prime_are_not_enumerated(tmp_path):
    p = 1000003
    assert p > FIBER_POINT_BUDGET
    rep = extension_degree_estimate(_univariate(GF(p), 0, 1, 1))
    assert (rep.estimate, rep.exact, rep.separable, rep.max_fiber, rep.fibers_sampled) == (2, True, True, None, 0)
    f = _write(tmp_path, "m1.endo", f"ring=F{p} kind=poly m=1\nX1 -> X1 + X1^2\n")
    assert main(["check-instance", "--tag", "CJC", "--input", f]) == 0


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
    assert MONOMIAL_BUDGET == 4000
    for decide in (decide_poly_automorphism, decide_weyl_automorphism):
        assert inspect.signature(decide).parameters["monomial_cap"].default == MONOMIAL_BUDGET
    for entry in (check_instance, chain_probe):
        assert "monomial_cap" not in inspect.signature(entry).parameters
    assert not hasattr(cli, "_MONOMIAL_CAP")
