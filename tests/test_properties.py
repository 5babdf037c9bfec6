"""Property tests on random labels and matrices (skipped when hypothesis is missing)."""

import pytest

pytest.importorskip("hypothesis")

from fractions import Fraction  # noqa: E402

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from oracle_utils import (  # noqa: E402
    det_reference,
    ideal_rows,
    ideal_rows_reference,
    laurent_det_reference,
)

from slfusion.dual import oracle_character  # noqa: E402
from slfusion.laurent import Laurent, _bareiss, laurent_det  # noqa: E402
from slfusion.modules import FusionModule  # noqa: E402

# sorted labels with n <= 4 and entries <= 5; (5,5,5,5) is the costliest
labels = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(lambda xs: tuple(sorted(xs)))


@settings(max_examples=15, deadline=None)
@given(labels)
def test_build_matches_reference_and_dual_oracle(a):
    module = FusionModule(a)
    assert ideal_rows(module) == ideal_rows_reference(a)
    assert module.character() == oracle_character(a)


scalars = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=5)
)


@st.composite
def rational_matrices(draw):
    """Square matrices of ``int``/``Fraction`` entries, size 1..6, some with
    a zero leading pivot and some singular by construction."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["plain", "zero-pivot", "singular"]))
    if shape == "zero-pivot":
        rows[0][0] = 0
    elif shape == "singular":
        a, b = draw(scalars), draw(scalars)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[(n - 1) // 2])]
    return rows


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
@example([[Fraction(3, 7)]])
@example([[0]])
@example([[0, 1], [1, 0]])
@example([[0, 2, 1], [0, 1, 1], [3, 0, 1]])
def test_bareiss_matches_gaussian_reference(rows):
    # constant Laurent entries: Bareiss over Q[y, 1/y] with exact division
    det = laurent_det([[Laurent.const(x) for x in row] for row in rows])
    assert det == Laurent.const(det_reference(rows))
    if all(type(x) is int for row in rows for x in row):  # the integer route
        assert _bareiss([list(row) for row in rows]) == det_reference(rows)


def laurents(coeffs):
    return st.dictionaries(st.integers(-3, 3), coeffs, max_size=4).map(Laurent)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([st.integers(-5, 5), scalars]).flatmap(
    lambda c: st.tuples(laurents(c), laurents(c).filter(bool))))
def test_laurent_exact_division_inverts_multiplication(pair):
    f, g = pair
    assert (f * g) // g == f


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(laurents(scalars), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_laurent_det_matches_interpolation_reference(matrix):
    assert laurent_det(matrix) == laurent_det_reference(matrix)
