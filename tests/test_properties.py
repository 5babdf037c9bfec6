"""Property tests on random labels and matrices (skipped when hypothesis is missing)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from oracle_utils import (  # noqa: E402
    det_reference,
    ideal_rows,
    ideal_rows_reference,
    laurent_det_reference,
)

from slfusion.dual import oracle_character  # noqa: E402
from slfusion.laurent import Laurent, _bareiss, laurent_det  # noqa: E402
from slfusion.linalg import IntegrityError  # noqa: E402
from slfusion.modules import FusionModule  # noqa: E402

# sorted labels with n <= 4 and entries <= 5; (5,5,5,5) is the costliest
labels = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(lambda xs: tuple(sorted(xs)))


@settings(max_examples=15, deadline=None)
@given(labels)
def test_build_matches_reference_and_dual_oracle(a):
    module = FusionModule(a)
    assert ideal_rows(module) == ideal_rows_reference(a)
    assert module.character() == oracle_character(a)


scalars = st.integers(-9, 9)


@st.composite
def integer_matrices(draw):
    """Square matrices of ``int`` entries, size 1..6, some with a zero
    leading pivot and some singular by construction."""
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
@given(integer_matrices())
@example([[-7]])
@example([[0]])
@example([[0, 1], [1, 0]])
@example([[0, 2, 1], [0, 1, 1], [3, 0, 1]])
def test_bareiss_matches_gaussian_reference(rows):
    # constant Laurent entries: Bareiss over Q[y, 1/y] with exact division
    det = laurent_det([[Laurent.const(x) for x in row] for row in rows])
    assert det == Laurent.const(int(det_reference(rows)))
    assert _bareiss([list(row) for row in rows]) == det_reference(rows)  # the integer route


def laurents(coeffs):
    return st.dictionaries(st.integers(-3, 3), coeffs, max_size=4).map(Laurent)


@settings(max_examples=200, deadline=None)
@given(st.tuples(laurents(scalars), laurents(scalars).filter(bool)))
def test_laurent_exact_division_inverts_multiplication(pair):
    f, g = pair
    assert (f * g) // g == f


@settings(max_examples=200, deadline=None)
@given(st.tuples(laurents(scalars), laurents(scalars).filter(bool)))
@example((Laurent({0: 2}), Laurent({0: 4})))
@example((Laurent({1: 6, 0: 3}), Laurent({0: 2, -1: 1})))
def test_laurent_division_is_exact_or_refused(pair):
    # over Z[y, 1/y]: an integer quotient with q * b == a, or IntegrityError
    a, b = pair
    try:
        q = a // b
    except IntegrityError:
        return
    assert all(type(c) is int for c in q.coeffs.values()) and q * b == a


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(laurents(scalars), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_laurent_det_matches_interpolation_reference(matrix):
    assert laurent_det(matrix) == laurent_det_reference(matrix)
