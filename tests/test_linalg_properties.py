"""Property-based version of the sparse-solver comparison with the dense oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from canonalg.rings import GF, QQ  # noqa: E402
from test_linalg import check_against_oracle  # noqa: E402

RINGS = [GF(2), GF(3), GF(5), GF(10007), QQ]


def entries(ring):
    if ring.kind == "Fp":
        # mostly zeros, so that the systems are sparse and often singular
        return st.one_of(st.just(0), st.just(0), st.integers(0, ring.p - 1))
    return st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    )


@st.composite
def systems(draw):
    ring = draw(st.sampled_from(RINGS))
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(entries(ring), min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    # linear combinations of the columns are consistent; free draws usually are not
    combos = draw(st.lists(st.lists(entries(ring), min_size=n_cols, max_size=n_cols), max_size=2))
    rhs = [[ring.coerce(sum(a * x for a, x in zip(row, combo))) for row in rows] for combo in combos]
    rhs += draw(st.lists(st.lists(entries(ring), min_size=n_rows, max_size=n_rows), max_size=2))
    return ring, rows, draw(st.permutations(rhs))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(systems())
def test_sparse_solver_agrees_with_the_dense_oracle(system):
    check_against_oracle(*system)
