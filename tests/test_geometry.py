"""Charts, vector fields, transition matrices, splitting, section counts."""

from fractions import Fraction
from random import Random

import pytest

from oracle_utils import (
    chart_change_failures_reference,
    det_reference,
    factorization_failure_reference,
    jacobian_reference,
    laurent_det_reference,
    primed_field_reference,
    scrambled_diagonal,
    splitting_via_sections,
)

from slfusion import cli, geometry, laurent
from slfusion._goldens import TRANSITION_GOLDEN
from slfusion.geometry import (
    PolyVectorField,
    _series_product,
    bracket,
    cohomology_dim,
    expected_splitting,
    invert_series,
    jacobian_identity,
    primed_field,
    primed_labels,
    pullback_degree,
    rational_point,
    standard_field,
    standard_fields,
    transition_matrix,
    verify_chart_identities,
    verify_transition_matrix,
    verify_vect_algebra,
)
from slfusion.laurent import Laurent, laurent_det, splitting_type
from slfusion.linalg import IntEchelon, IntegrityError


def test_series_inversion_examples():
    assert invert_series([1, 0, 0]) == [1, 0, 0]
    assert invert_series([1, 1, 0]) == [1, -1, 1]
    assert invert_series([2, 0]) == [Fraction(1, 2), 0]
    assert invert_series(["1/3", Fraction(1, 2)]) == [3, Fraction(-9, 2)]
    for bad in ([0, 1], []):
        with pytest.raises(ValueError, match="chart"):
            invert_series(bad)


def test_series_inversion_involution():
    rng = Random(2)
    for n in range(1, 6):
        for _ in range(10):
            x = rational_point(rng, n)
            y = invert_series(x)
            assert _series_product(x, y) == [1] + [0] * (n - 1)
            assert invert_series(y) == x


def test_standard_fields_smallest():
    f1 = standard_fields(1)
    assert repr(f1[("e", 0)]) == "(1) d0"
    assert repr(f1[("h", 0)]) == "(-2*x0) d0"
    assert repr(f1[("f", 0)]) == "(-1*x0^2) d0"
    f2 = standard_fields(2)
    assert repr(f2[("L", 0)]) == "(1*x1) d1"
    for i in range(2):
        comps = f2[("e", i)].comps
        assert all(m == (0, 0) for poly in comps.values() for m in poly)


def test_standard_field_out_of_range_and_unknown_kind():
    for n in range(1, 5):
        fields = standard_fields(n)
        for kind in ("e", "h", "f", "L"):
            for i in range(-1, n + 2):
                want = fields.get((kind, i), PolyVectorField(n))
                assert standard_field(n, kind, i) == want, (n, kind, i)
    assert len(standard_fields(4)) == 15
    for n in (1, 3):
        with pytest.raises(ValueError, match="unknown field kind"):
            standard_field(n, "g", 0)
        with pytest.raises(ValueError, match="unknown field kind"):
            primed_field(n, "g", 99)


def test_primed_field_is_the_shifted_smaller_frame():
    # the explicitly written primed frame, field by field, equals the
    # (n-1)-cell's standard frame moved one slot up, zeros included
    nonzero = 0
    for n in range(1, 11):
        for kind in ("e", "h", "f", "L"):
            for i in range(-1, n + 2):
                got = primed_field(n, kind, i)
                assert got == primed_field_reference(n, kind, i), (n, kind, i)
                assert got.n == n
                nonzero += not got.is_zero()
    # 4(n-1) - 1 fields per n = 2..10
    assert nonzero == sum(4 * (n - 1) - 1 for n in range(2, 11))
    assert {lab for lab in primed_labels(5)} == {
        (kind, i) for kind in ("e", "h", "f", "L") for i in range(-1, 7)
        if not primed_field(5, kind, i).is_zero()
    }


def _claims_under_primed_shift(monkeypatch, n, shift):
    """The chart[n] and transition[n] records with every primed field taken
    from the smaller frame at index i - 1 + shift instead of i - 1."""
    real = geometry.primed_field
    monkeypatch.setattr(geometry, "primed_field", lambda n, kind, i: real(n, kind, i + shift))
    cfg = cli.RunConfig(samples=3)
    return cli.run_claim("chart", (n,), cfg), cli.run_claim("transition", (n,), cfg)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_primed_index_fault_fails_the_chart_claim(monkeypatch, n):
    # the smaller frame's field taken at index i instead of i-1
    chart, trans = _claims_under_primed_shift(monkeypatch, n, 1)
    assert (chart["claim"], chart["status"]) == (f"chart[{n}]", "fail")
    assert chart["got"]["symbolic_failures"] and not chart.get("integrity")
    # the y-frame expansions do not depend on the index, so a frame shifted
    # up by one satisfies every sampled chart change; the frame gate sees
    # its top fields vanish, in chart[n] and in transition[n]
    zero = [("e", n - 1), ("h", n - 1), ("L", n - 2), ("f", n - 1)]
    assert chart["got"]["sample_failures"] == [
        {"field": lab, "point": None} for lab in zero
    ]
    assert (trans["claim"], trans["status"]) == (f"transition[{n}]", "fail")
    assert trans["got"] == {"sampled_ok": False, "golden_ok": True}
    assert not trans.get("integrity")
    cols = geometry.verify_transition_matrix(n, samples=3)["failures"]
    assert cols == [{"column": lab, "point": None} for lab in zero]


def test_no_primed_field_is_zero():
    # on working code the frame gate records nothing
    for n in range(2, 9):
        assert not any(primed_field(n, *lab).is_zero() for lab in primed_labels(n)), n


@pytest.mark.parametrize("n", [3, 4, 5])
def test_primed_index_fault_below_fails_chart_and_transition_claims(monkeypatch, n):
    # the smaller frame's field taken at index i-2 instead of i-1: the
    # expansion of the top field now reaches past the frame
    chart, trans = _claims_under_primed_shift(monkeypatch, n, -1)
    assert (chart["claim"], chart["status"]) == (f"chart[{n}]", "fail")
    assert chart["got"]["symbolic_failures"] and chart["got"]["sample_failures"]
    assert (trans["claim"], trans["status"]) == (f"transition[{n}]", "fail")
    assert trans["got"] == {"sampled_ok": False, "golden_ok": True}
    assert not chart.get("integrity") and not trans.get("integrity")


def test_bracket_relations():
    fields = standard_fields(3)
    v = fields[("h", 1)]
    assert bracket(v, v).is_zero()
    # [e_i, h_j] = -2 e_{i+j}, and zero past the truncation order
    got = bracket(fields[("e", 1)], fields[("h", 1)])
    assert got == fields[("e", 2)].scale(-2)
    assert bracket(fields[("e", 2)], fields[("h", 2)]).is_zero()
    got = bracket(fields[("L", 1)], fields[("e", 1)])
    assert got == fields[("e", 2)].scale(-1)


def test_vect_algebra_small():
    for n in range(1, 5):
        rep = verify_vect_algebra(n)
        assert rep["ok"], rep["failures"]
        assert rep["rank"] == 4 * n - 1


def test_chart_identities_sampled():
    for n in (2, 3, 4):
        rep = verify_chart_identities(n, samples=6, seed=20240817)
        assert rep["ok"], rep


def test_jacobian_identity():
    for n in (1, 2, 3):
        assert jacobian_identity(n, samples=8, seed=5)["ok"]


def test_jacobian_two_by_two_at_unit_point():
    # hand check: at x = (1, 1) the 2x2 determinant is +1
    jac = jacobian_reference([Fraction(1), Fraction(1)])
    assert jac == [[-1, 2], [0, -1]]
    assert det_reference(jac) == 1


def test_jacobian_integer_route_matches_dual_numbers():
    # dy_k/dx_j = D^2 N[j][k] / p0^(k+2), N from the recurrence on integer pairs
    rng = Random(31)
    for n in range(1, 6):
        for _ in range(4):
            xpt = rational_point(rng, n)
            den, p = geometry.integer_point(xpt)
            ref = jacobian_reference(xpt)
            for j in range(n):
                jets = [(v, int(i == j)) for i, v in enumerate(p)]
                pairs = geometry.inverse_numerators(jets, *geometry._JETS)
                for k, (r, dr) in enumerate(pairs):
                    entry = dr * p[0] - (k + 1) * r * int(j == 0)
                    assert Fraction(den**2 * entry, p[0] ** (k + 2)) == ref[j][k]


def test_jacobian_gate_fires_on_a_recurrence_fault(monkeypatch):
    real = geometry.inverse_numerators

    def planted(p, *ring):
        r = real(p, *ring)
        if ring and len(r) > 1:  # value-derivative pairs: one derivative off by one
            r[-1] = (r[-1][0], r[-1][1] + 1)
        return r

    monkeypatch.setattr(geometry, "inverse_numerators", planted)
    rep = jacobian_identity(3, samples=5, seed=2)
    assert not rep["ok"] and len(rep["failures"]) == 5
    assert all(set(f) == {"point", "det"} for f in rep["failures"])


def test_vect_algebra_gate_fires_on_a_planted_structure_constant(monkeypatch):
    real = geometry.standard_fields

    def planted(n):
        fields = real(n)
        # f_0 = -x_0^2 d_0 - 2 x_0 x_1 d_1 - ...: make the x_0 x_1 term -3
        poly = fields[("f", 0)].comps[1]
        (m,) = [m for m in poly if m[0] == m[1] == 1]
        fields[("f", 0)] = fields[("f", 0)] + PolyVectorField(n, {1: {m: -1}})
        return fields

    monkeypatch.setattr(geometry, "standard_fields", planted)
    rep = verify_vect_algebra(3)
    assert rep["independent"] and not rep["relations_ok"] and not rep["ok"]
    assert rep["failures"]


def test_bracket_is_antisymmetric():
    # the closure check reads one bracket per unordered pair of fields
    for n in range(1, 5):
        fields = standard_fields(n)
        for a in fields.values():
            for b in fields.values():
                assert (bracket(a, b) + bracket(b, a)).is_zero()


def test_vect_algebra_computes_only_the_relation_brackets(monkeypatch):
    # 6n^2 + 3n(n-1) + (n-1)^2 ordered brackets, 331 of the 529 at n = 6
    calls = []
    real = geometry.bracket

    def counted(v, w):
        calls.append((v, w))
        return real(v, w)

    monkeypatch.setattr(geometry, "bracket", counted)
    rep = verify_vect_algebra(6)
    assert len(calls) == 331
    assert (rep["rank"], rep["closed"], rep["relations_ok"]) == (23, True, True)


def test_vect_algebra_tests_span_membership_only_for_failed_relations(monkeypatch):
    # a bracket that meets its relation is an integer multiple of a basis
    # field, so on a pass no bracket is reduced against the span
    calls = []
    real = IntEchelon.contains

    def counted(self, row):
        calls.append(row)
        return real(self, row)

    monkeypatch.setattr(IntEchelon, "contains", counted)
    rep = verify_vect_algebra(6)
    assert rep["ok"] and rep["closed"]
    assert calls == []


@pytest.mark.parametrize(
    "extra",
    [
        {0: {(1, 0, 0): 1}},  # x_0 d_0: a coordinate of h_0, but not in the span
        {0: {(5, 0, 0): 1}},  # x_0^5 d_0: off every field's coordinates
    ],
    ids=["in-coordinates", "off-coordinates"],
)
def test_vect_algebra_closure_fires_on_a_bracket_leaving_the_span(monkeypatch, extra):
    real = geometry.bracket

    def planted(v, w):
        out = real(v, w)
        return out + PolyVectorField(3, extra) if v == w else out

    monkeypatch.setattr(geometry, "bracket", planted)
    rep = verify_vect_algebra(3)
    assert rep["independent"] and not rep["closed"] and not rep["ok"]


def test_transition_matrix_n3_hand_derivation():
    # frozen by hand from the chart-change relations; frame order
    # e'_1, e'_2, h'_1, h'_2, L'_1, f'_1, f'_2
    labels = primed_labels(3)
    assert labels == [("e", 1), ("e", 2), ("h", 1), ("h", 2), ("L", 1), ("f", 1), ("f", 2)]
    got = [[str(x) for x in row] for row in transition_matrix(3)]
    assert got == [
        ["-y^2", "0", "0", "0", "0", "0", "0"],
        ["0", "-y^2", "0", "0", "0", "0", "0"],
        ["0", "0", "1", "0", "0", "0", "0"],
        ["y", "0", "0", "1", "0", "0", "0"],
        ["0", "0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "0", "-y^-2", "0"],
        ["0", "0", "2*y^-1", "0", "y^-1", "0", "-y^-2"],
    ]


def test_transition_matrix_matches_goldens():
    for n, golden in TRANSITION_GOLDEN.items():
        got = [[str(x) for x in row] for row in transition_matrix(n)]
        assert got == golden, f"n={n}"
        assert len(golden) == 4 * n - 5


def test_transition_matrix_alphabet():
    allowed = {"0", "1", "-y^2", "y", "2*y^-1", "y^-1", "-y^-2"}
    for n in (3, 4, 5):
        for row in transition_matrix(n):
            for entry in row:
                assert str(entry) in allowed


def test_transition_matrix_sampled_certification():
    for n in (2, 3, 4, 5):
        assert verify_transition_matrix(n, samples=4, seed=99)["ok"]


def test_chart_change_failures_are_reported(monkeypatch):
    real = geometry.chart_change_terms

    def planted(kind, i):
        # h'_1 -> 2 h'_1 + ...: a wrong coefficient on the diagonal term
        terms = real(kind, i)
        if (kind, i) == ("h", 1):
            terms = [("h", 1, Laurent.const(2))] + terms[1:]
        return terms

    monkeypatch.setattr(geometry, "chart_change_terms", planted)
    chart = verify_chart_identities(3, samples=4, seed=7)
    trans = verify_transition_matrix(3, samples=4, seed=7)
    assert not chart["ok"] and not chart["symbolic_failures"]
    assert chart["identities_checked"] == 4 * len(primed_labels(3))
    assert [f["field"] for f in chart["sample_failures"]] == [("h", 1)] * 4
    assert not trans["ok"]
    assert [f["column"] for f in trans["failures"]] == [("h", 1)] * 4
    # one sampler: both claims fail at the same rational points
    assert [f["point"] for f in chart["sample_failures"]] == [
        f["point"] for f in trans["failures"]
    ]
    assert all(set(f) == {"field", "point"} for f in chart["sample_failures"])
    assert all(set(f) == {"column", "point"} for f in trans["failures"])


def _planted_expansions():
    real = geometry.chart_change_terms

    def wrong_constant(kind, i):
        terms = real(kind, i)
        return [("h", 1, Laurent.const(2))] + terms[1:] if (kind, i) == ("h", 1) else terms

    def wrong_power(kind, i):
        terms = real(kind, i)
        return [("e", i, Laurent.term(-1, 1))] + terms[1:] if kind == "e" else terms

    def doubled_coefficient(kind, i):
        return [("f", i, Laurent.term(-2, -2))] if kind == "f" else real(kind, i)

    def dropped_term(kind, i):
        return real(kind, i)[1:] if kind == "h" else real(kind, i)

    def extra_binomial(kind, i):
        extra = [("e", i, Laurent({-1: 1, 1: 3}))] if kind in "hL" else []
        return real(kind, i) + extra

    return [real, wrong_constant, wrong_power, doubled_coefficient, dropped_term, extra_binomial]


def test_chart_sampler_matches_fraction_route(monkeypatch):
    # the integer sampler on the transition matrix and the Fraction sampler
    # on the expansion fail at the same (field, point) pairs, planted or not
    plants = _planted_expansions()
    real = plants[0]
    for plant in plants:
        monkeypatch.setattr(geometry, "chart_change_terms", plant)
        for n in range(2, 6):
            mat = transition_matrix(n)
            got = geometry._chart_change_failures(n, 6, 40 + n, mat, "field")
            want = chart_change_failures_reference(n, 6, 40 + n, plant, "field")
            assert got == want, (n, plant.__name__)
            assert bool(got) == (plant is not real)


@pytest.mark.parametrize(
    "poly", [{(0, 1, 0): Fraction(1, 2)}, {(0, 1, 2): 1}], ids=["half", "cubic"]
)
def test_chart_sampler_rejects_primed_fields_it_cannot_clear(monkeypatch, poly):
    # a rational coefficient is refused by the field itself; a cubic term
    # reaches the sampler, which evaluates degree <= 2 only
    if any(type(c) is not int for c in poly.values()):
        with pytest.raises(ValueError, match="PolyVectorField"):
            PolyVectorField(3, {1: poly})
        return
    real = geometry.primed_field

    def planted(n, kind, i):
        field = real(n, kind, i)
        return field + PolyVectorField(n, {1: poly}) if (kind, i) == ("h", 1) else field

    monkeypatch.setattr(geometry, "primed_field", planted)
    with pytest.raises(IntegrityError, match="degree <= 2"):
        verify_transition_matrix(3, samples=2, seed=1)
    with pytest.raises(IntegrityError, match="degree <= 2"):
        verify_chart_identities(3, samples=2, seed=1)


def test_laurent_det_matches_reference():
    for n in range(2, 9):
        mat = transition_matrix(n)
        assert laurent_det(mat) == laurent_det_reference(mat), n
    rng = Random(12)
    for _ in range(40):
        size = rng.randint(1, 4)
        mat = [
            [
                Laurent({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(0, 2))})
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        assert laurent_det(mat) == laurent_det_reference(mat), mat


def test_splitting_factor_determinants_match_reference(monkeypatch):
    # the M of every certified factorization, n = 2..8: the one determinant
    # taken, since det X and det P both follow from it and the certificate;
    # the twist rows are built once per splitting as well
    seen, built = [], []
    real, real_rows = laurent.laurent_det, laurent._twist_rows

    def recording(matrix):
        seen.append(matrix)
        return real(matrix)

    monkeypatch.setattr(laurent, "laurent_det", recording)
    monkeypatch.setattr(laurent, "_twist_rows", lambda *args: built.append(args) or real_rows(*args))
    for n in range(2, 9):
        splitting_type(transition_matrix(n))
    assert len(seen) == len(built) == 7
    for mat in seen:
        assert real(mat) == laurent_det_reference(mat)


def test_splitting_certificate_agrees_with_the_det_x_reference(monkeypatch):
    # the rank test of X at 1/y = 0 and the reference's interpolated det X
    # accept the same factorizations: n = 2..8 and the planted diagonals
    real = laurent._check_factorization
    seen = []

    def recording(matrix, cols, exps, det):
        real(matrix, cols, exps, det)
        seen.append((matrix, cols, exps))

    monkeypatch.setattr(laurent, "_check_factorization", recording)
    for n in range(2, 9):
        splitting_type(transition_matrix(n))
    rng = Random(424242)
    for _ in range(20):
        size = rng.randint(2, 4)
        splitting_type(scrambled_diagonal(rng, size, ops=4)[1])
    assert len(seen) == 7 + 20
    for matrix, cols, exps in seen:
        assert factorization_failure_reference(matrix, cols, exps) is None
    # and both reject M = I with X = [[1, 1], [0, 0]], exponents (0, 0): X is
    # polynomial in 1/y, P = X is polynomial in y and sum(e) = ord det M, so
    # only the det X gate can fire
    one, zero = Laurent.const(1), Laurent()
    matrix, cols, exps = [[one, zero], [zero, one]], [[one, zero], [one, zero]], [0, 0]
    assert factorization_failure_reference(matrix, cols, exps) == "det X = 0 is not a nonzero constant"
    with pytest.raises(IntegrityError, match=r"X at 1/y = 0 is singular"):
        real(matrix, cols, exps, laurent_det(matrix))


def test_laurent_floordiv_is_exact_or_raises():
    y = Laurent.term(1, 1)
    one = Laurent.const(1)
    assert ((y + one) * (y * y + one)) // (y * y + one) == y + one
    assert Laurent.term(6, -2) // Laurent.term(3, 1) == Laurent.term(2, -3)
    with pytest.raises(IntegrityError, match="does not divide"):
        Laurent.term(6, -2) // Laurent.term(4, 1)  # 3/2 is not an integer
    with pytest.raises(IntegrityError, match="does not divide"):
        (y + one) // (y * y + one)
    with pytest.raises(IntegrityError, match="does not divide"):
        (y * y + one) // (y + one)
    with pytest.raises(ZeroDivisionError):
        y // Laurent()
    assert not Laurent() and y


def test_transition_determinant_is_monomial():
    for n in (2, 3, 4, 5):
        det = laurent_det(transition_matrix(n))
        assert det.is_monomial()
        assert det.ord == 0  # splitting degrees sum to zero


def test_splitting_already_diagonal():
    mat = [
        [Laurent.term(1, 2), Laurent(), Laurent()],
        [Laurent(), Laurent.const(1), Laurent()],
        [Laurent(), Laurent(), Laurent.term(1, -2)],
    ]
    assert splitting_type(mat) == [2, 0, -2]


def test_splitting_rejects_non_unit_determinant():
    mat = [[Laurent({0: 1, 1: 1})]]
    with pytest.raises(ValueError, match="unit"):
        splitting_type(mat)


def test_splitting_small_cases_match_formula():
    assert splitting_type(transition_matrix(2)) == expected_splitting(2) == [2, 0, -2]
    assert splitting_type(transition_matrix(3)) == expected_splitting(3)


def test_splitting_verified_multiset_n4_n5():
    # the certified factorization and the section-count ladder agree; the
    # greedy reduction (acceptance suite) and the field-algebra count below
    # are two more routes, and the closed-form claim diverges at n >= 4
    for n, zeros in ((4, 5), (5, 9)):
        truth = [2, 1, 1] + [0] * zeros + [-1, -1, -2]
        mat = transition_matrix(n)
        assert splitting_type(mat) == truth
        assert splitting_via_sections(mat) == truth


def test_vertical_fields_vanishing_on_a_fiber():
    # the twist-by-a-point section count: global fields tangent to the
    # fibers that vanish identically on the fiber over x_0 = 0
    from slfusion.linalg import rref

    for n in (3, 4, 5):
        fields = standard_fields(n)
        basis = [fields[(k, i)] for k in ("e", "h", "f") for i in range(1, n)]
        basis += [fields[("L", i)] for i in range(0, n - 1)]
        coords = set()
        restricted = []
        for f in basis:
            comp = {}
            for i, poly in f.comps.items():
                for m, c in poly.items():
                    if m[0] == 0:
                        comp[(i, m)] = c
                        coords.add((i, m))
            restricted.append(comp)
        coords = sorted(coords)
        idx = {cm: i for i, cm in enumerate(coords)}
        mat = [[Fraction(0)] * len(coords) for _ in basis]
        for r, comp in enumerate(restricted):
            for cm, c in comp.items():
                mat[r][idx[cm]] = c
        rank, _, _ = rref(mat, len(coords))
        vanishing = len(basis) - rank
        assert vanishing == 4  # = sum of the positive splitting exponents


def test_splitting_planted_diagonals():
    rng = Random(424242)
    for _ in range(20):
        size = rng.randint(2, 4)
        diag, mat = scrambled_diagonal(rng, size, ops=4)
        assert splitting_via_sections(mat) == diag
        assert splitting_type(mat) == diag


def test_splitting_takes_integer_coefficients_only():
    # the twist rows go to the integer elimination as they are: a rational
    # coefficient is refused by Laurent itself, and a constant row scaling
    # (what clearing a row's denominators would be) keeps the splitting type
    rng = Random(5150)
    for _ in range(10):
        diag, mat = scrambled_diagonal(rng, 3, ops=3)
        den = rng.choice((2, 5, 7))
        with pytest.raises(ValueError, match="Laurent"):
            Laurent.const(Fraction(1, den))
        scaled = [[x * Laurent.const(den) for x in mat[0]]] + mat[1:]
        assert splitting_via_sections(scaled) == diag == splitting_type(mat) == splitting_type(scaled)


def test_splitting_degree_conservation():
    rng = Random(777)
    for _ in range(6):
        diag, mat = scrambled_diagonal(rng, 3, ops=3)
        det = laurent_det(mat)
        assert det.is_monomial() and det.ord == sum(diag)
        assert sum(splitting_type(mat)) == det.ord


def _drop_first_sections(kernel_basis, size):
    # the first twist with sections loses them: its columns are found one
    # twist late, with an exponent one too small
    dropped = []

    def planted(rows, ncols):
        vecs = kernel_basis(rows, ncols)
        if vecs and not dropped:
            dropped.append(vecs)
            return []
        return vecs

    return planted


def _perturb_sections(kernel_basis, size):
    # every section gets a wrong y^-1 coefficient; its constant terms, and so
    # the ladder's exponents, are unchanged
    def planted(rows, ncols):
        width = ncols // size
        return [
            tuple(x + 1 if i % width == 1 else x for i, x in enumerate(vec))
            for vec in kernel_basis(rows, ncols)
        ]

    return planted


@pytest.mark.parametrize(
    "plant, gate",
    [(_drop_first_sections, "det P"), (_perturb_sections, "not polynomial in y")],
)
def test_splitting_certificate_gate_fires(capsys, monkeypatch, plant, gate):
    mat = transition_matrix(3)
    kernel_basis = laurent.kernel_basis

    def replant():  # a fresh planting for each splitting run
        monkeypatch.setattr(laurent, "kernel_basis", plant(kernel_basis, len(mat)))

    replant()
    with pytest.raises(IntegrityError, match=gate):
        splitting_type(mat)
    replant()
    rep = cli.run_claim("splitting", (3,), cli.RunConfig())
    assert rep["integrity"] and rep["anchor"] == "integrity" and rep["status"] == "fail"
    assert gate in rep["got"]
    replant()
    capsys.readouterr()
    assert cli.main(["splitting", "--n", "3"]) == cli.EXIT_INTEGRITY
    assert gate in capsys.readouterr().err


def test_cohomology_dim_examples():
    assert cohomology_dim((0, 0, 0))["dim"] == 1
    assert cohomology_dim(())["dim"] == 1
    rep = cohomology_dim((2, 3, 4))
    assert rep["dim"] == rep["expected"] == 60 and rep["ok"]
    assert rep["trace"][0] == "d(2, 3, 4)"
    assert rep["trace"][-1] == "= 60"
    rep = cohomology_dim((1, 1))
    assert rep["dim"] == 4
    assert any("swap" in line for line in rep["trace"])


def test_cohomology_dim_guards():
    with pytest.raises(ValueError, match="nondecreasing"):
        cohomology_dim((2, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        cohomology_dim((-1, 2))


def test_cohomology_dim_at_the_sum_limit():
    # one R1 step per unit of the entry sum: 10,000 steps are a valid chain
    assert cohomology_dim((4999, 5001))["dim"] == 5000 * 5002
    with pytest.raises(ValueError, match="sum to at most 10000"):
        cohomology_dim((10001,))
    with pytest.raises(ValueError, match="sum to at most 10000"):
        cohomology_dim((3000, 3000, 3000, 3001))


def test_pullback_examples():
    rep = pullback_degree((1, 1, 1))
    assert rep["label"] == (0, 0, 0) and rep["sections"] == 1 and rep["ok"]
    rep = pullback_degree((2, 3, 4))
    assert rep["label"] == (1, 2, 3) and rep["sections"] == 24 and rep["ok"]
    rep = pullback_degree((2, 2))
    assert rep["label"] == (1, 1) and rep["sections"] == 4
    assert rep["restriction_degrees"] == [2, 1]


def test_field_coefficient_validation():
    with pytest.raises(ValueError, match="monomial"):
        PolyVectorField(2, {0: {(0, -1): 1}})
    # no slot is exempt: slot 0 takes no negative exponent either
    with pytest.raises(ValueError, match="monomial"):
        PolyVectorField(2, {0: {(-1, 0): 1}})


@pytest.mark.parametrize(
    "c", [Fraction(1, 2), Fraction(2, 1), 0.5, True], ids=["half", "whole-fraction", "float", "bool"]
)
def test_laurent_and_field_take_int_coefficients_only(c):
    with pytest.raises(ValueError, match="Laurent"):
        Laurent({0: c})
    with pytest.raises(ValueError, match="PolyVectorField"):
        PolyVectorField(2, {0: {(1, 0): c}})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_doubled_L_identity_catches_an_off_by_one(monkeypatch, n):
    # 2 L_i = 2 L'_{i+1} - h'_{i+1} is compared doubled; doubling is
    # injective, so one coefficient of L_i off by one still fails it
    real = geometry.standard_fields
    for i in range(n - 1):

        def planted(m, i=i):
            fields = real(m)
            comp, poly = min(fields[("L", i)].comps.items())
            fields[("L", i)] += PolyVectorField(m, {comp: {min(poly): 1}})
            return fields

        monkeypatch.setattr(geometry, "standard_fields", planted)
        assert verify_chart_identities(n)["symbolic_failures"] == [("L", i)]
