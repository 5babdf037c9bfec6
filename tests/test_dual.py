"""The symmetric-polynomial dual realization and the shuffle ring."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, prod
from random import Random

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # optional test dependency: the seeded checks still run
    given = None

from oracle_utils import (
    constraint_rows,
    dual_by_degree_reference,
    expand,
    from_monomials,
    shuffle_reference,
)

from slfusion import cli, dual
from slfusion.dual import (
    DualSpace,
    SymPoly,
    coordinate_ring_component,
    dual_dimension_table,
    oracle_character,
    partitions_bounded,
    satisfies_constraints,
    shuffle_product,
    stretched_label,
)
from slfusion.modules import fusion_module, relation_exponent


def test_partitions_bounded():
    assert partitions_bounded(0, 3, 2) == [()]
    assert partitions_bounded(3, 2, 2) == [(2, 1)]
    assert partitions_bounded(4, 3, 1) == []
    assert partitions_bounded(4, 4, 1) == [(1, 1, 1, 1)]
    assert set(partitions_bounded(4, 3, 3)) == {(3, 1), (2, 2), (2, 1, 1)}


def test_dual_space_examples():
    assert DualSpace((2, 2), 0).dim == 1
    space = DualSpace((2, 2), 1)
    assert space.dim == 2  # f = 1 and f = z_1; no constraint at one variable
    assert space.dim_degree(0) == 1 and space.dim_degree(1) == 1
    space = DualSpace((2, 2), 2)
    assert space.dim == 1  # the double-substitution constraint kills all but z1 z2
    assert space.dim_degree(2) == 1


@pytest.mark.parametrize("s", [True, False, 2.7, 2.0, "1", None, -1])
def test_dual_space_takes_only_an_int_variable_count(s):
    # a variable count is a memo key and a recursion index
    with pytest.raises(ValueError, match="variable count"):
        DualSpace((2, 2), s)


def dual_grid():
    labels = [a for n in range(1, 5) for a in combinations_with_replacement(range(1, 5), n)]
    return labels + [(2, 3, 4, 5, 6), (3, 3, 3, 3, 3)]


def test_restriction_skip_matches_every_degree_solved():
    # the skip of every slice whose predecessors are all zero leaves the
    # bases and the solutions exactly as the unskipped solve gives them,
    # one variable count past the top included
    skipped = 0
    for a in dual_grid():
        for s in range(sum(x - 1 for x in a) + 2):
            want = dual_by_degree_reference(a, s)
            assert dual._dual_space(a, s).by_degree == want, (a, s)
            if s:
                below = dual._dual_space(a, s - 1).by_degree
                live = {d + j for d in below for j in range(len(a))}
                skipped += sum(d not in live for d in range(s * (len(a) - 1) + 1))
    assert skipped > 500


@pytest.fixture
def empty_memo():
    dual._dual_space.cache_clear()
    yield
    dual._dual_space.cache_clear()


def test_standalone_space_equals_the_table_space(empty_memo):
    # built on its own, a space builds its predecessors through the memo
    for a, s in [((2, 3, 4), 4), ((3, 3, 4, 4), 6), ((2, 2, 4, 5), 7)]:
        dual._dual_space.cache_clear()
        alone = DualSpace(a, s)
        assert dual._dual_space.cache_info().currsize == s
        table = dual_dimension_table(a)
        assert alone.by_degree == dual._dual_space(a, s).by_degree
        assert {d: alone.dim_degree(d) for d in alone.by_degree} == {
            d: dim for (t, d), dim in table.items() if t == s
        }


def test_each_space_is_solved_once(monkeypatch, empty_memo):
    solved = []
    real = DualSpace.__init__

    def counted(self, a, s):
        solved.append((tuple(a), s))
        real(self, a, s)

    monkeypatch.setattr(DualSpace, "__init__", counted)
    for a in [(2, 2), (2, 3, 4), (3, 3)]:
        assert oracle_character(a) == fusion_module(a).character()
        dual_dimension_table(a)
    # the ring reads the (3, 3) table and the (2, 2) degree-one spaces again
    assert coordinate_ring_component((2, 2), 2)["generated"]
    assert DualSpace((2, 3, 4), 3).by_degree == dual._dual_space((2, 3, 4), 3).by_degree
    # only the standalone space is solved a second time
    assert len(solved) == len(set(solved)) + 1
    assert set(solved) == {(a, s) for a in [(2, 2), (2, 3, 4), (3, 3)]
                           for s in range(sum(x - 1 for x in a) + 1)}


def test_planted_predecessor_fault_is_caught(monkeypatch, empty_memo):
    # the top nonzero degree of the space at one variable fewer read as zero
    real = dual._live_degrees

    def planted(below, part):
        if len(below) > 1:
            below = {d: e for d, e in below.items() if d != max(below)}
        return real(below, part)

    monkeypatch.setattr(dual, "_live_degrees", planted)
    with pytest.raises(AssertionError):
        test_oracle_equals_module_character()


def test_oracle_character_small():
    assert oracle_character((1,)).poly_str() == "1"
    assert oracle_character((2, 2)).poly_str() == "1 + u + u q + u^2"


def test_oracle_equals_module_character():
    # two fully independent routes to the same bigraded table; the full
    # grid runs in the acceptance suite, the last three labels lie beyond it
    for a in [(2,), (3,), (2, 2), (2, 3), (1, 2), (3, 3), (2, 3, 4),
              (2, 2, 4, 5), (3, 3, 4, 4), (4, 4, 4, 4)]:
        assert oracle_character(a) == fusion_module(a).character(), a


def multiset_minus(lam, tau):
    """lam minus tau as a list of parts, or None if tau is not contained."""
    rest = list(lam)
    for p in tau:
        if p not in rest:
            return None
        rest.remove(p)
    return rest


def reference_constraint_rows(a, s, d, basis):
    """Unmemoized reference: scan the whole basis for every (i, m, tau)."""
    n = len(a)
    rows = []
    for i in range(1, s + 1):
        for m in range(min(relation_exponent(a, i), d + 1)):
            for tau in partitions_bounded(d - m, s - i, n - 1):
                row = {}
                for c, lam in enumerate(basis):
                    rest = multiset_minus(lam, tau)
                    if rest is None or sum(rest) != m or len(rest) > i:
                        continue
                    # arrangements of lam - tau padded with zeros to i slots
                    padded = rest + [0] * (i - len(rest))
                    count = factorial(i)
                    for v in set(padded):
                        count //= factorial(padded.count(v))
                    row[c] = count
                if row:
                    rows.append(row)
    return rows


def constraint_grid():
    labels = [a for n in range(1, 5) for a in combinations_with_replacement(range(1, 5), n)]
    for a in labels + [(1, 2, 6)]:
        n = len(a)
        for s in range(sum(x - 1 for x in a) + 1):
            for d in range(s * (n - 1) + 1):
                yield a, s, d, partitions_bounded(d, s, n - 1)


def test_constraint_rows_match_reference():
    checked = 0
    for a, s, d, basis in constraint_grid():
        assert constraint_rows(a, s, d, basis) == reference_constraint_rows(a, s, d, basis), (a, s, d)
        assert constraint_rows(a, s, d, list(basis)) == constraint_rows(a, s, d, basis)
        checked += 1
    assert checked > 3000


def test_constraint_rows_are_fresh_copies():
    a, s, d = (2, 3, 3), 4, 4
    basis = partitions_bounded(d, s, 2)
    want = reference_constraint_rows(a, s, d, basis)
    rows = constraint_rows(a, s, d, basis)
    assert rows == want and rows
    rows[0][0] = 999
    rows[-1].clear()
    rows.append({1: 1})
    assert constraint_rows(a, s, d, basis) == want
    with pytest.raises(ValueError):
        constraint_rows(a, s, d, basis[::-1])
    # a reader of the stream may mutate the row it holds; the next row and
    # the next read of the slice are unchanged
    stream = dual._SliceRows(len(a), dual._exponents(a, s), s, d)
    for got, row in zip(stream, want, strict=True):
        assert got == row
        got[0] = 999
        got.clear()
    assert len(stream) == len(want) > 1
    assert list(dual._SliceRows(len(a), dual._exponents(a, s), s, d)) == want


def drop_block(monkeypatch):
    """Plant the loss of one constraint block in the shared row stream: the
    (2, 2) constant term at two variables, (n, s, d, i, m) = (2, 2, 0, 2, 0)."""
    real = dual._constraint_block

    def planted(n, s, d, i, m):
        coeffs, rows = real(n, s, d, i, m)
        return (coeffs, ()) if (n, s, d, i, m) == (2, 2, 0, 2, 0) else (coeffs, rows)

    monkeypatch.setattr(dual, "_constraint_block", planted)


def test_dropped_block_fails_the_oracle(monkeypatch, empty_memo):
    drop_block(monkeypatch)
    with pytest.raises(AssertionError):
        test_oracle_equals_module_character()


def test_dropped_block_passes_a_rejected_polynomial(monkeypatch):
    # the constant at two variables breaks the (2, 2) double substitution
    const2 = SymPoly(2, {(): 1})
    assert not satisfies_constraints((2, 2), const2)
    drop_block(monkeypatch)
    assert satisfies_constraints((2, 2), const2)


def random_sympoly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        lam = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, nvars))), reverse=True))
        terms[lam] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return SymPoly(nvars, terms)


def test_shuffle_matches_reference():
    # the closed form against the expanding route
    rng = Random(17)
    polys = [p for a in [(2, 3), (2, 2, 2)] for s in range(4) for p in DualSpace(a, s).solution_polys()]
    polys.append(SymPoly(2, {(1,): Fraction(-3, 4), (1, 1): Fraction(5, 6)}))
    polys += [random_sympoly(rng, rng.randint(0, 3)) for _ in range(20)]
    for _ in range(60):
        f, g = rng.choice(polys), rng.choice(polys)
        assert shuffle_product(f, g) == shuffle_reference(f, g), (f, g)


if given is not None:

    def _partitions(nvars):
        return st.lists(st.integers(1, 3), max_size=nvars).map(
            lambda parts: tuple(sorted(parts, reverse=True))
        )

    _coeffs = st.one_of(
        st.integers(-5, 5), st.fractions(min_value=-3, max_value=3, max_denominator=4)
    )
    _sympolys = st.integers(0, 3).flatmap(
        lambda nvars: st.dictionaries(_partitions(nvars), _coeffs, max_size=3).map(
            lambda terms: SymPoly(nvars, terms)
        )
    )

    @settings(max_examples=150, deadline=None, database=None)
    @given(_sympolys, _sympolys)
    def test_shuffle_closed_form_property(f, g):
        assert shuffle_product(f, g) == shuffle_reference(f, g)


@pytest.fixture
def wrong_binomial(monkeypatch):
    """binom(n, k) + 1 for 0 < k < n, planted in the shuffle's closed form."""
    monkeypatch.setattr(dual, "comb", lambda n, k: comb(n, k) + (0 < k < n))
    dual._shuffle_term.cache_clear()
    yield
    dual._shuffle_term.cache_clear()


def test_planted_wrong_binomial_is_caught(wrong_binomial):
    rng = Random(29)
    pairs = [(random_sympoly(rng, 2), random_sympoly(rng, 2)) for _ in range(20)]
    assert any(shuffle_product(f, g) != shuffle_reference(f, g) for f, g in pairs)
    if given is not None:
        with pytest.raises(AssertionError):
            test_shuffle_closed_form_property()
    # the ring claim catches it through the merged constraints; the n <= 2
    # claims do not, since their degree-one bases are single m-terms
    rep = cli.run_claim("ring", ((2, 2, 2), 2), cli.RunConfig())
    assert rep["status"] == "fail" and not rep["got"]["generated"]
    # the dual spaces do not use the coefficient, so the dimension holds and
    # only the shuffled products leave the A(2) constraints
    rep = coordinate_ring_component((2, 2, 2), 2)
    assert rep["dim_ok"] and rep["generated"] is False
    assert rep["constraint_failures"] > 0


def test_shuffle_constants():
    one1 = SymPoly(1, {(): 1})
    assert shuffle_product(one1, one1).coeffs == {(): Fraction(2)}
    z1 = SymPoly(1, {(1,): 1})
    assert shuffle_product(z1, one1).coeffs == {(1,): Fraction(1)}
    # z_1 z_2 comes from both splittings of two variables
    assert shuffle_product(z1, z1).coeffs == {(1, 1): 2}
    # m_(2) in 2 variables times 1 in 2 variables: one of the three zeros of
    # nu = (2) padded to 4 parts goes to lam, binom(3, 1) * binom(1, 1)
    assert shuffle_product(SymPoly(2, {(2,): 1}), SymPoly(2, {(): 1})).coeffs == {(2,): 3}
    # m_(2,1) * m_(1) in 2 + 1 variables: nu = (2,1,1), binom(2,1) for the 1s
    h = shuffle_product(SymPoly(2, {(2, 1): 5}), SymPoly(1, {(1,): Fraction(1, 2)}))
    assert h.coeffs == {(2, 1, 1): 5} and type(h.coeffs[(2, 1, 1)]) is int


def test_shuffle_commutative_and_bilinear():
    rng = Random(5)
    polys = [s for a in [(2, 2), (2, 3)] for sp in range(3) for s in DualSpace(a, sp).solution_polys()]
    for _ in range(10):
        f, g = rng.choice(polys), rng.choice(polys)
        assert shuffle_product(f, g) == shuffle_product(g, f)
        c = Fraction(rng.randint(-3, 3))
        left = shuffle_product(c * f, g)
        right = c * shuffle_product(f, g)
        assert left == right
    f, g, h = polys[0], polys[1], polys[2]
    if f.nvars == g.nvars:
        assert shuffle_product(f + g, h) == shuffle_product(f, h) + shuffle_product(g, h)


def test_shuffle_closure_into_merged_constraints():
    # pairs from the dual of (2,2) must satisfy the (3,3) constraints
    rng = Random(11)
    basis = []
    for s in range(0, 3):
        basis.extend(DualSpace((2, 2), s).solution_polys())
    for _ in range(12):
        f, g = rng.choice(basis), rng.choice(basis)
        h = shuffle_product(f, g)
        assert satisfies_constraints((3, 3), h)


def test_stretched_label():
    assert stretched_label((2, 2), 1) == (2, 2)
    assert stretched_label((2, 2), 2) == (3, 3)
    assert stretched_label((2, 3), 2) == (3, 5)


def test_coordinate_ring_components():
    rep = coordinate_ring_component((2, 2), 1)
    assert rep["dim"] == 4 and rep["dim_ok"] and "generated" not in rep
    rep = coordinate_ring_component((2, 2), 2)
    assert rep["dim"] == 9 and rep["dim_ok"] and rep["generated"]
    rep = coordinate_ring_component((2, 3), 2)
    assert rep["dim"] == 15 and rep["generated"]
    rep = coordinate_ring_component((2, 2), 3)
    assert rep["dim"] == 16 and rep["generated"]


def test_ring_reach():
    # beyond the pinned suite's n <= 2, k <= 2 ring claims
    for a in [(2, 3, 3), (2, 2, 2, 2)]:
        rep = coordinate_ring_component(a, 3)
        assert rep["dim_ok"] and rep["generated"], a
    # the component dimensions follow the Hilbert polynomial prod(k a_i - k + 1)
    for a in [(2, 3), (2, 2, 2)]:
        for k in range(1, 5):
            rep = coordinate_ring_component(a, k)
            assert rep["dim"] == prod(k * x - k + 1 for x in a) and rep["dim_ok"], (a, k)
            # generation is checked at k = 2 and 3 only
            assert rep.get("generated", k not in (2, 3)), (a, k)


def test_constraint_membership_rejects():
    # z_1 z_2 passes the (2,2) constraints, z_1 + z_2 does not pass at (3,3)...
    # use a concrete failing slice: the constant violates the (2,2) s=2 rule
    const2 = SymPoly(2, {(): 1})
    assert not satisfies_constraints((2, 2), const2)
    prod2 = SymPoly(2, {(1, 1): 1})
    assert satisfies_constraints((2, 2), prod2)


def test_sympoly_expand_symmetry_roundtrip():
    p = SymPoly(3, {(2, 1): Fraction(3), (1,): Fraction(-1, 2)})
    assert from_monomials(3, expand(p)) == p
    with pytest.raises(ValueError):
        from_monomials(2, {(1, 0): Fraction(1)})  # not symmetric
