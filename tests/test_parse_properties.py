"""The one-pass expression evaluator against the recursive tree parser it
replaced (``parse_oracle``): equal values, or both refuse."""

from __future__ import annotations

from unittest.mock import patch

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import parse_oracle  # noqa: E402
from canonalg import parsing  # noqa: E402
from canonalg.parsing import ParseError  # noqa: E402
from canonalg.poly import Poly, PolyEndo  # noqa: E402
from canonalg.rings import GF, QQ, ZZ  # noqa: E402
from canonalg.weyl import WeylAlgebra  # noqa: E402


def poly_space(ring):
    return dict(zip(["X1", "X2"], PolyEndo.identity(ring, 2).images)), Poly.one(ring, 2)


def weyl_space(ring):
    algebra = WeylAlgebra(ring, 1)
    return dict(zip(["X1", "X2"], algebra.generators())), algebra.one()


SPACES = [(poly_space, QQ), (poly_space, ZZ), (poly_space, GF(3)), (weyl_space, QQ), (weyl_space, GF(3))]

# undeclared names, zero denominators and fractions with no image in Z or F3 come up too
ATOMS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["X1", "X2"]),
    st.sampled_from(["X1", "X2", "X3", "1/2", "2/3", "3/0", "4/1"]),
)


def expressions(depth: int):
    """Expressions of the grammar with groups nested at most ``depth``
    levels deep, so that the recursive oracle stays far from the recursion
    limit: chains of up to four signed operands joined by ``+ - *``."""
    if depth == 0:
        return ATOMS
    group = expressions(depth - 1).map("({})".format)
    operand = st.tuples(st.one_of(ATOMS, group), st.sampled_from(["", "^0", "^1", "^2", "^3"])).map("".join)
    signed = st.tuples(st.sampled_from(["", "-", "--"]), operand).map("".join)
    step = st.tuples(st.sampled_from([" + ", " - ", " * "]), signed).map("".join)
    return st.tuples(signed, st.lists(step, max_size=3).map("".join)).map("".join)


TOKEN_STRINGS = st.tuples(
    st.sampled_from([" ", ""]),
    st.lists(st.sampled_from(["+", "-", "*", "^", "/", "(", ")", "0", "1", "2", "12", "X1", "X2", "X3"]), max_size=24),
).map(lambda t: t[0].join(t[1]))


def outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except (ParseError, ArithmeticError):
        return None


@pytest.mark.parametrize("space,ring", SPACES, ids=[f"{space.__name__}-{ring}" for space, ring in SPACES])
@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(text=st.one_of(expressions(6), TOKEN_STRINGS))
def test_one_pass_evaluator_agrees_with_the_tree_parser(space, ring, text):
    variables, one = space(ring)  # the Weyl generators are named X1, X2 here too
    # small limits keep every product cheap and let both sides meet them
    with patch.object(parsing, "TERM_PAIR_BUDGET", 400), patch.object(parsing, "WEYL_DEGREE_LIMIT", 24):
        new = outcome(parsing._evaluate, text, 0, variables, one)
        old = outcome(parse_oracle.oracle_value, text, variables, one)
    assert new == old
