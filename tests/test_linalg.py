"""Exact arithmetic, monomial enumeration and row reduction."""

from fractions import Fraction
from math import gcd, lcm
from random import Random

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # optional test dependency: the seeded loops still run
    given = None

import pytest
from oracle_utils import dense_rows, int_row, rref_kernel

from slfusion.linalg import (
    IntEchelon,
    enumerate_monomials,
    kernel_basis,
    parse_scalar,
    rref,
)


def test_enumerate_single_slot():
    assert enumerate_monomials(2, 1, 0) == [(1, 0)]


def test_enumerate_forced_composition():
    assert enumerate_monomials(2, 2, 1) == [(1, 1)]


def bruteforce_monomials(n, k, s):
    # independent oracle: walk every exponent tuple with entries up to k
    out = []
    def rec(prefix):
        if len(prefix) == n:
            if sum(prefix) == k and sum(i * e for i, e in enumerate(prefix)) == s:
                out.append(tuple(prefix))
            return
        for e in range(k + 1):
            rec(prefix + [e])
    rec([])
    out.sort(key=lambda m: tuple(-e for e in m))
    return out


def test_enumerate_matches_bruteforce_ordering():
    # expected value computed by the exhaustive oracle above
    assert bruteforce_monomials(3, 2, 2) == [(1, 0, 1), (0, 2, 0)]
    assert enumerate_monomials(3, 2, 2) == [(1, 0, 1), (0, 2, 0)]
    for n in range(1, 5):
        for k in range(0, 5):
            for s in range(0, (n - 1) * k + 1):
                assert enumerate_monomials(n, k, s) == bruteforce_monomials(n, k, s)


def test_enumerate_out_of_cone():
    assert enumerate_monomials(2, 2, 3) == []
    assert enumerate_monomials(3, 1, 4) == []
    assert enumerate_monomials(0, 0, 0) == [()]


def series_coefficients(n, kmax):
    """Power-series oracle: prod over i<n of 1/(1 - u q^i) up to u^kmax."""
    table = {(0, 0): 1}
    for i in range(n):
        # multiply by 1/(1 - u q^i): repeatedly convolve the geometric series
        new = {}
        for (k, s), c in table.items():
            j = 0
            while k + j <= kmax:
                key = (k + j, s + i * j)
                new[key] = new.get(key, 0) + c
                j += 1
        table = new
    return table


def test_counts_match_series_expansion():
    for n in range(1, 6):
        table = series_coefficients(n, 12)
        for k in range(0, 13):
            for s in range(0, (n - 1) * k + 1):
                assert len(enumerate_monomials(n, k, s)) == table.get((k, s), 0), (n, k, s)


def test_rref_trivial_cases():
    rank, _, pivots = rref([[0, 0], [0, 0]], 2)
    assert rank == 0 and pivots == []
    rank, red, pivots = rref([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert rank == 3 and pivots == [0, 1, 2]
    rank, _, pivots = rref([[1, 2], [2, 4]], 2)
    assert rank == 1 and pivots == [0]


def test_rref_idempotent_and_rank_nullity():
    rng = Random(20240817)
    for rows_n, cols_n in [(3, 5), (10, 7), (25, 40), (40, 60)]:
        mat = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols_n)]
            for _ in range(rows_n)
        ]
        rank, red, pivots = rref(mat, cols_n)
        rank2, red2, pivots2 = rref(red, cols_n)
        assert (rank, pivots) == (rank2, pivots2)
        assert red == red2
        assert rank + len(kernel_basis([int_row(r) for r in mat], cols_n)) == cols_n


def test_kernel_examples():
    assert kernel_basis([{0: 1}, {1: 1}], 2) == []
    (vec,) = kernel_basis([{0: 1, 1: 1}], 2)
    assert vec[0] == -vec[1] != 0
    (vec,) = kernel_basis([{0: 1, 1: 2}, {0: 2, 1: 4}], 2)
    assert vec[0] == -2 * vec[1] != 0


def test_kernel_vectors_annihilate():
    rng = Random(7)
    mat = [[Fraction(rng.randint(-4, 4)) for _ in range(8)] for _ in range(5)]
    for vec in kernel_basis([int_row(r) for r in mat], 8):
        for row in mat:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_scalar_roundtrip():
    rng = Random(99)
    values = [Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6)) for _ in range(50)]
    values += [Fraction(0), Fraction(-3), Fraction(7, 3)]
    for x in values:
        assert parse_scalar(str(x)) == x
    assert str(Fraction(2, -4)) == "-1/2"


def check_echelon_against_rref(mat, cols_n):
    """IntEchelon must equal rref up to primitive scaling, from the primitive
    row and from the raw integer map, zero entries kept."""
    ech, raw = IntEchelon(cols_n), IntEchelon(cols_n)
    for row in mat:
        ech.insert(int_row(row))
        raw.insert(dict(enumerate(row)))
    rank, red, pivots = rref(mat, cols_n)
    assert ech.dim == rank
    assert ech.pivots == pivots
    assert ech.sparse_rows() == [int_row(r) for r in red]
    assert dense_rows(raw) == dense_rows(ech) and raw == ech
    for row in mat:
        assert ech.contains(int_row(row)) and raw.contains(dict(enumerate(row)))


def random_matrix(rng, rows_n, cols_n, lo=-5, hi=5, density=1.0):
    return [
        [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(cols_n)]
        for _ in range(rows_n)
    ]


def test_int_echelon_matches_rref_rank():
    rng = Random(31337)
    for _ in range(20):
        rows_n, cols_n = rng.randint(1, 8), rng.randint(1, 8)
        check_echelon_against_rref(random_matrix(rng, rows_n, cols_n), cols_n)
    for _ in range(10):  # wide
        cols_n = rng.randint(15, 40)
        check_echelon_against_rref(random_matrix(rng, rng.randint(2, 10), cols_n), cols_n)
    for _ in range(10):  # sparse
        rows_n, cols_n = rng.randint(5, 25), rng.randint(5, 30)
        mat = random_matrix(rng, rows_n, cols_n, density=rng.choice((0.05, 0.1, 0.2)))
        check_echelon_against_rref(mat, cols_n)
    for _ in range(10):  # near full rank: one row a combination of two others
        size = rng.randint(3, 12)
        mat = random_matrix(rng, size - 1, size)
        i, j = rng.sample(range(size - 1), 2)
        mat.insert(rng.randrange(size), [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y
                                         for x, y in zip(mat[i], mat[j])])
        check_echelon_against_rref(mat, size)
    for _ in range(10):  # large entries
        rows_n, cols_n = rng.randint(2, 8), rng.randint(2, 8)
        check_echelon_against_rref(random_matrix(rng, rows_n, cols_n, -10**12, 10**12), cols_n)


if given is not None:

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda cols_n: st.lists(
                st.lists(
                    st.one_of(st.just(0), st.integers(-10**6, 10**6)),
                    min_size=cols_n,
                    max_size=cols_n,
                ),
                min_size=1,
                max_size=12,
            )
        )
    )
    def test_int_echelon_matches_rref_property(mat):
        check_echelon_against_rref(mat, len(mat[0]))


def primitive_rref_kernel(mat, cols_n):
    """The rref kernel with each vector scaled by a positive rational to a
    primitive integer vector; it stays positive at its free column, where
    rref puts a 1.  Returns ``(free columns, vectors)``."""
    _, _, pivots = rref(mat, cols_n)
    vecs = []
    for vec in rref_kernel(mat, cols_n):
        den = lcm(*(x.denominator for x in vec))
        ints = [x.numerator * (den // x.denominator) for x in vec]
        g = gcd(*ints)
        vecs.append(tuple(x // g for x in ints))
    return [c for c in range(cols_n) if c not in pivots], vecs


def check_kernel_against_rref(mat, cols_n):
    """The integer kernel is exactly the scaled rref kernel, from the
    primitive rows, from the raw integer maps of an integer matrix and from
    a one-pass iterator: primitive integer vectors, each positive at its
    free column."""
    free, want = primitive_rref_kernel(mat, cols_n)
    got = kernel_basis([int_row(r) for r in mat], cols_n)
    assert got == want
    assert all(type(x) is int for vec in got for x in vec)
    assert all(gcd(*vec) == 1 and vec[fc] > 0 for fc, vec in zip(free, got))
    if all(type(x) is int for r in mat for x in r):
        assert kernel_basis([dict(enumerate(r)) for r in mat], cols_n) == want
    assert kernel_basis(map(int_row, mat), cols_n) == want


def test_kernel_basis_stops_reading_at_a_full_span():
    def rows(tail):
        yield {0: 1, 1: 1}
        yield {1: 2, 2: 1}
        yield {2: 5}
        yield from tail

    def poisoned():
        raise AssertionError("read past a full span")
        yield

    assert kernel_basis(rows(poisoned()), 3) == []
    assert kernel_basis(rows([]), 4) == [(0, 0, 0, 1)]
    assert kernel_basis(rows([]), 5) == [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]


def random_fraction_matrix(rng, rows_n, cols_n):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(cols_n)]
            for _ in range(rows_n)]


def test_kernel_basis_matches_rref_kernel():
    rng = Random(4242)
    check_kernel_against_rref([], 0)
    for cols_n in (1, 4, 9):
        check_kernel_against_rref([], cols_n)  # the identity basis
        check_kernel_against_rref([[0] * cols_n for _ in range(3)], cols_n)
        full = [[int(r == c) + rng.randint(0, 1) * (c > r) for c in range(cols_n)]
                for r in range(cols_n)]
        assert kernel_basis([int_row(r) for r in full], cols_n) == []
        check_kernel_against_rref(full + random_matrix(rng, 2, cols_n), cols_n)
    for _ in range(20):  # small, integer and rational entries
        rows_n, cols_n = rng.randint(1, 8), rng.randint(1, 8)
        check_kernel_against_rref(random_matrix(rng, rows_n, cols_n), cols_n)
        check_kernel_against_rref(random_fraction_matrix(rng, rows_n, cols_n), cols_n)
    for _ in range(10):  # wide
        rows_n, cols_n = rng.randint(2, 10), rng.randint(15, 40)
        check_kernel_against_rref(random_matrix(rng, rows_n, cols_n, density=0.3), cols_n)
        check_kernel_against_rref(random_fraction_matrix(rng, rows_n, cols_n), cols_n)
    for _ in range(10):  # tall, low rank: rows are combinations of a few
        cols_n, rank = rng.randint(3, 12), rng.randint(1, 3)
        gens = random_matrix(rng, rank, cols_n)
        mat = [[sum(c * g[j] for c, g in zip(coefs, gens)) for j in range(cols_n)]
               for coefs in random_matrix(rng, rng.randint(10, 30), rank)]
        check_kernel_against_rref(mat, cols_n)
    for _ in range(10):  # large entries
        rows_n, cols_n = rng.randint(2, 8), rng.randint(2, 8)
        check_kernel_against_rref(random_matrix(rng, rows_n, cols_n, -10**12, 10**12), cols_n)
        mat = [[Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)) for _ in range(cols_n)]
               for _ in range(rows_n)]
        check_kernel_against_rref(mat, cols_n)


if given is not None:

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda cols_n: st.lists(
                st.lists(
                    st.one_of(
                        st.just(0),
                        st.integers(-10**6, 10**6),
                        st.fractions(min_value=-100, max_value=100, max_denominator=50),
                    ),
                    min_size=cols_n,
                    max_size=cols_n,
                ),
                max_size=12,
            ).map(lambda mat: (mat, cols_n))
        )
    )
    def test_kernel_basis_matches_rref_kernel_property(case):
        check_kernel_against_rref(*case)


def test_int_echelon_membership():
    ech = IntEchelon(3)
    ech.insert({0: 1, 1: 2, 2: 3})
    ech.insert({1: 1, 2: 1})
    assert ech.contains({0: 2, 1: 5, 2: 7})  # sum of the two rows
    assert not ech.contains({2: 1})
    assert int_row([Fraction(1, 2), Fraction(-1, 3)]) == {0: 3, 1: -2}


def test_int_echelon_rejects_dense_rows():
    # the one row format is the sparse map: a dense list is never accepted
    ech = IntEchelon(2)
    with pytest.raises(AttributeError):
        ech.insert([1, 2])
    with pytest.raises(AttributeError):
        ech.contains([1, 2])
    with pytest.raises(AttributeError):
        kernel_basis([[1, 2]], 2)
    assert ech.dim == 0


def primitive_multiple(row):
    """Reference primitive integer multiple of a rational row as a sparse
    map (None if zero)."""
    den = lcm(*(Fraction(x).denominator for x in row))
    ints = [int(Fraction(x) * den) for x in row]
    g = gcd(*ints)
    if not g:
        return None
    if next(x for x in ints if x) < 0:
        g = -g
    return {c: x // g for c, x in enumerate(ints) if x}


def random_rational_row(rng, cols_n):
    """Fraction entries, a mix of int and Fraction, or Fraction(k, 1) entries."""
    kind = rng.choice(("fraction", "mixed", "whole"))
    row = []
    for _ in range(cols_n):
        num = rng.randint(-6, 6) if rng.random() < 0.7 else 0
        if kind == "whole" or (kind == "mixed" and rng.random() < 0.5):
            row.append(Fraction(num) if kind == "whole" else num)
        else:
            row.append(Fraction(num, rng.randint(1, 5)))
    return row


def test_int_echelon_takes_rational_rows():
    # a dense rational row, converted by int_row, acts exactly as its
    # primitive integer multiple
    ech = IntEchelon(2)
    assert not ech.contains(int_row([Fraction(1, 3), 0]))
    assert ech.insert(int_row([Fraction(1, 2), Fraction(1, 3)]))
    assert dense_rows(ech) == [(3, 2)]
    assert ech.contains(int_row([Fraction(-3, 7), Fraction(-2, 7)]))
    assert not ech.contains(int_row([Fraction(1, 3), 0]))
    assert ech.insert(int_row([Fraction(1, 3), 0]))
    assert dense_rows(ech) == [(1, 0), (0, 1)]
    rng = Random(2718)
    for _ in range(40):
        rows_n, cols_n = rng.randint(1, 7), rng.randint(1, 7)
        mat = [random_rational_row(rng, cols_n) for _ in range(rows_n)]
        rational, scaled = IntEchelon(cols_n), IntEchelon(cols_n)
        for row in mat:
            want = primitive_multiple(row)
            assert int_row(row) == (want or {})
            grew = rational.insert(int_row(row))
            assert grew == (want is not None and scaled.insert(want))
        assert rational == scaled
        assert rational.dim == rref(mat, cols_n)[0]
        for row in mat + [random_rational_row(rng, cols_n) for _ in range(5)]:
            want = primitive_multiple(row) or {}
            assert int_row(row) == want
            assert rational.contains(int_row(row)) == scaled.contains(want)


def test_int_echelon_sparse_integer_maps_unchanged():
    ech = IntEchelon(4)
    assert ech.insert({1: -4, 3: 6})
    assert dense_rows(ech) == [(0, 2, 0, -3)]
    assert not ech.insert({1: 2, 3: -3})
    assert ech.insert({0: 5, 1: 2})
    assert dense_rows(ech) == [(5, 0, 0, 3), (0, 2, 0, -3)]
    assert ech.contains({0: 5, 3: 3}) and not ech.contains({2: 1})
    assert ech.insert({2: -7})  # the residual is primitive, lead positive
    assert dense_rows(ech) == [(5, 0, 0, 3), (0, 2, 0, -3), (0, 0, 1, 0)]


def test_int_echelon_canonical_form_is_order_independent():
    rows = [{0: 1, 1: 2}, {1: 3, 2: 1}, {0: 1, 1: 5, 2: 1}]
    a, b = IntEchelon(3), IntEchelon(3)
    for r in rows:
        a.insert(r)
    for r in reversed(rows):
        b.insert(r)
    assert a.sparse_rows() == b.sparse_rows()
    assert a == b


def test_int_echelon_equality_is_order_independent_and_sees_ncols():
    rng = Random(99)
    for _ in range(20):
        cols_n = rng.randint(1, 8)
        rows = [int_row(r) for r in random_matrix(rng, rng.randint(1, 6), cols_n, density=0.5)]
        a, b = IntEchelon(cols_n), IntEchelon(cols_n)
        for r in rows:
            a.insert(r)
        for r in rng.sample(rows, len(rows)):
            b.insert({c: 3 * x for c, x in r.items()})  # scaling is invisible
        assert a == b and dense_rows(a) == dense_rows(b)
    wide, narrow = IntEchelon(4), IntEchelon(3)
    assert IntEchelon(3) != IntEchelon(4)
    wide.insert({0: 1, 2: 1})
    narrow.insert({0: 1, 2: 1})
    assert wide.sparse_rows() == narrow.sparse_rows() and wide != narrow
    narrow.insert({1: 1})
    assert narrow != IntEchelon(3)

