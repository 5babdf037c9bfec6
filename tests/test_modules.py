"""Quotient modules: generators, dimensions, characters, spans, tensors."""

from itertools import combinations_with_replacement
from math import lcm, prod

import pytest
from oracle_utils import quotient_reference

from slfusion.linalg import (
    IntegrityError,
    enumerate_monomials,
    mono_mul,
    poly_var,
    rref,
    scale_to_int,
)
from slfusion import modules
from slfusion.modules import (
    FusionModule,
    GradedCharacter,
    Subspace,
    TensorModule,
    cyclic_span,
    fusion_module,
    ideal_generators,
    label_character,
    match_characters,
    relation_exponent,
    tensor,
    validate_composition,
    verify_demazure,
    verify_tensor_embedding,
)


def gens_at_degree(a, k):
    return [(zpow, poly) for kk, zpow, poly in ideal_generators(a) if kk == k]


def test_generators_two_two():
    # symbolic expansion of (e_0 z + e_1)^2: z^0 -> e_1^2, z^1 -> 2 e_0 e_1
    got = gens_at_degree((2, 2), 2)
    assert got == [(0, {(0, 2): 1}), (1, {(1, 1): 2})]


def test_generators_single_entry():
    # n = 1: N(k) = k, so every pure power beyond the box dies
    assert gens_at_degree((1,), 1) == [(0, {(1,): 1})]
    assert fusion_module((1,)).total_dim == 1
    assert gens_at_degree((3,), 3) == [(0, {(3,): 1})]
    assert fusion_module((3,)).total_dim == 3


def test_generator_bidegrees_recorded():
    n = 2
    for k, zpow, poly in ideal_generators((2, 3)):
        for m in poly:
            assert sum(m) == k
            assert sum(i * e for i, e in enumerate(m)) == k * (n - 1) - zpow


def test_relation_exponent():
    assert relation_exponent((2, 3), 1) == 0
    assert relation_exponent((2, 3), 2) == 1
    assert relation_exponent((1,), 5) == 5


def test_validate_composition():
    with pytest.raises(ValueError, match="nondecreasing"):
        validate_composition((2, 1))
    with pytest.raises(ValueError, match="positive"):
        validate_composition((0, 2))
    assert validate_composition(()) == ()
    with pytest.raises(ValueError):
        validate_composition((), allow_empty=False)


def test_dimension_examples():
    assert fusion_module((1, 1, 1)).total_dim == 1
    assert fusion_module((2, 3, 4)).total_dim == 24
    assert fusion_module(()).total_dim == 1


@pytest.mark.parametrize("a", [(2, 3), (2, 2, 3), (1, 3, 4), (2, 2, 2, 2)])
def test_ideal_rows_match_generator_multiples(a):
    # reference sharing no code with the degree recursion: in every bidegree,
    # row-reduce all monomial multiples m*g of the generators over Q
    module = FusionModule(a)
    n, gens = len(a), ideal_generators(a)
    for k in range(module.kmax + 2):
        for s in range((n - 1) * k + 1):
            monos = enumerate_monomials(n, k, s)
            if not monos:
                continue
            rows = []
            for gk, zpow, poly in gens:
                gs = gk * (n - 1) - zpow
                for m in enumerate_monomials(n, k - gk, s - gs):
                    product = {mono_mul(m, g): c for g, c in poly.items()}
                    rows.append([product.get(x, 0) for x in monos])
            _, red, _ = rref(rows, len(monos))
            assert module.ideal_rows[(k, s)] == [scale_to_int(r) for r in red], (k, s)


REFERENCE_LABELS = [
    a for n in range(1, 5) for a in combinations_with_replacement(range(1, 5), n)
] + [(4, 5, 6, 9), (4, 4, 4, 4, 4), (2, 3, 4, 5, 6)]


@pytest.mark.parametrize("a", REFERENCE_LABELS)
def test_build_matches_reference_route(a):
    # the unit-column build against one echelon insert per shifted row
    module = fusion_module(a)
    rows, bases, nf = quotient_reference(a)
    assert module.ideal_rows == rows
    assert {ks: p.basis for ks, p in module.pieces.items()} == bases
    n = len(a)
    # every ambient monomial through the certified-zero band kmax + 1, and
    # one band above it, where everything reduces to zero
    for k in range(module.kmax + 3):
        for s in range((n - 1) * k + 1):
            for m in enumerate_monomials(n, k, s):
                want = nf[m] if k <= module.kmax + 1 else None
                assert module.reduce_monomial(m) == want, m


def reset_shift_memo():
    modules.shift_columns.cache_clear()
    modules._shift_memo.update(entries=0, clears=0)


def test_shift_columns_memo_is_bounded_by_entries():
    memo, bound = modules._shift_memo, modules.SHIFT_MEMO_ENTRIES
    reset_shift_memo()
    try:
        # the frontier labels of the benchmark's build phase fit without a clear
        for a in [(4, 4, 4, 4, 4), (3, 4, 4, 4, 5)]:
            assert FusionModule(a).total_dim == prod(a)
        assert memo["clears"] == 0 and 0 < memo["entries"] <= bound
        # one n = 6 build needs about 0.8 M entries over 970 bidegrees: the
        # memo is emptied on the way and ends under the bound
        assert FusionModule((4, 4, 4, 4, 4, 4)).total_dim == 4**6
        assert memo["clears"] > 0 and 0 < memo["entries"] <= bound
        assert modules.shift_columns.cache_info().currsize < 970
    finally:
        reset_shift_memo()


def test_action_tables_match_dense_normal_forms():
    # the integer images of the dense Fraction normal forms, as the action
    # tables were first built; reduce_monomial itself is pinned to the
    # reference route above
    def integer_image(vec):
        nonzero = [(i, x) for i, x in enumerate(vec) if x]
        den = lcm(*(x.denominator for _, x in nonzero))
        return tuple((i, x.numerator * (den // x.denominator)) for i, x in nonzero), den

    grid = [a for n in range(1, 5) for a in combinations_with_replacement(range(1, 5), n)]
    for a in grid:
        module = fusion_module(a)
        for ks, piece in module.pieces.items():
            for j in range(module.n):
                want = []
                for b in piece.basis:
                    red = module.reduce_monomial(b[:j] + (b[j] + 1,) + b[j + 1:])
                    want.append(None if red is None else integer_image(red[1]))
                assert module.action(j, ks) == tuple(want), (a, j, ks)


def test_reduce_monomial_rejects_wrong_length():
    mod = fusion_module((2, 3))
    for m in [(1,), (0, 1, 0), ()]:
        with pytest.raises(ValueError, match="variables"):
            mod.reduce_monomial(m)
    with pytest.raises(ValueError, match="variables"):
        mod.poly_class({(1, 0, 0): 1})


def test_two_two_graded_dimensions():
    # cross-checked against the dual-functional oracle in test_dual
    table = fusion_module((2, 2)).character().table
    assert table == {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 0): 1}


def test_character_examples():
    assert fusion_module((1,)).character().poly_str() == "1"
    assert fusion_module((2,)).character().poly_str() == "1 + u"
    assert fusion_module((2, 2)).character().poly_str() == "1 + u + u q + u^2"


def test_character_total_is_dimension():
    for a in [(2, 2), (2, 3), (2, 3, 4), (1, 2, 2)]:
        mod = fusion_module(a)
        assert mod.character().total() == mod.total_dim == prod(a)


def test_h0_grading_bookkeeping():
    mod = fusion_module((2, 3))
    assert mod.lowest_h0 == -3
    assert mod.h0_eigenvalue(0) == -3
    assert mod.h0_eigenvalue(mod.kmax) == 3


def test_act_examples():
    mod = fusion_module((2, 2))
    v = mod.cyclic_vector()
    one = {(0, 0): 1}
    assert v.apply(one).coords == v.coords
    assert v.apply({(0, 2): 1}).is_zero()  # e_1^2 lies in the ideal
    mod23 = fusion_module((2, 3))
    v23 = mod23.cyclic_vector()
    top = sum(x - 1 for x in (2, 3))
    assert not v23.apply({(top, 0): 1}).is_zero()
    assert v23.apply({(top + 1, 0): 1}).is_zero()


def test_nilpotency_of_first_variable():
    for a in [(2,), (2, 2), (2, 3), (2, 3, 4), (1, 2)]:
        mod = fusion_module(a)
        v = mod.cyclic_vector()
        e0 = poly_var(mod.n, 0)
        count = 0
        while not v.is_zero():
            v = v.apply(e0)
            count += 1
        assert count == 1 + sum(x - 1 for x in a)


def test_variable_count_mismatch():
    mod = fusion_module((2, 2))
    with pytest.raises(ValueError, match="variables"):
        mod.cyclic_vector().apply({(1, 0, 0): 1})


def test_top_class_is_a_line():
    mod = fusion_module((2, 3))
    top = mod.top_class()
    assert top.support() == [(mod.kmax, 0)]


def test_cyclic_span_trivial_and_full():
    mod = fusion_module((2, 3))
    v = mod.cyclic_vector()
    assert cyclic_span(mod, [], [v]).dim == 1
    ops = [poly_var(2, j) for j in range(2)]
    assert cyclic_span(mod, ops, [v]).dim == mod.total_dim


def test_cyclic_span_partial_variables():
    mod = fusion_module((2, 3, 4))
    ops = [poly_var(3, j) for j in (1, 2)]
    span = cyclic_span(mod, ops, [mod.cyclic_vector()])
    assert span.dim == 6  # the two shorter entries generate their own module
    ok, shift = match_characters(
        span.character(), fusion_module((2, 3)).character(), reindex=1
    )
    assert ok and shift == (0, 0)


def test_cyclic_span_dimension_gate_fires():
    mod = fusion_module((2, 3))
    ops = [poly_var(2, j) for j in range(2)]
    assert cyclic_span(mod, ops, [mod.cyclic_vector()], max_dim=mod.total_dim).dim == 6
    with pytest.raises(IntegrityError, match="exceeded the expected dimension"):
        cyclic_span(mod, ops, [mod.cyclic_vector()], max_dim=mod.total_dim - 1)
    t = tensor([fusion_module((2, 2)), fusion_module((2, 2))])
    ops = [t.op_diag(j) for j in range(2)]
    with pytest.raises(IntegrityError, match="exceeded the expected dimension"):
        cyclic_span(t, ops, [t.cyclic_tensor()], max_dim=3)


@pytest.mark.parametrize(
    "op",
    [
        {(1, 1): 1},  # e_0 e_1 raises the degree by two
        {(1, 0): 1, (0, 1): 1},  # e_0 + e_1
        {(1, 0): 2},  # a multiple of a variable
        {(0, 0): 1},  # the identity
        {(1, 0, 0): 1},  # a variable of another ring
        ("diag", 0),  # a tensor operator on a plain module
    ],
)
def test_cyclic_span_rejects_non_variable_operators(op):
    mod = fusion_module((2, 3))
    with pytest.raises(ValueError, match="variable operators"):
        cyclic_span(mod, [op], [mod.cyclic_vector()])


def test_cyclic_span_rejects_non_tensor_operators():
    t = TensorModule([fusion_module((2, 2)), fusion_module((2,))], require_same_n=False)
    with pytest.raises(ValueError, match="variable operators"):
        cyclic_span(t, [poly_var(2, 0)], [t.cyclic_tensor()])
    with pytest.raises(ValueError, match="misses every factor"):
        cyclic_span(t, [("diag", 2)], [t.cyclic_tensor()])
    with pytest.raises(ValueError, match="has no variable"):
        cyclic_span(t, [("factor", 1, 1)], [t.cyclic_tensor()])


def test_elements_of_another_module_are_rejected():
    m22, m23 = fusion_module((2, 2)), fusion_module((2, 3))
    span = cyclic_span(m23, [poly_var(2, 0)], [m23.cyclic_vector()])
    with pytest.raises(ValueError, match="different module"):
        span.insert(m22.cyclic_vector())
    with pytest.raises(ValueError, match="different module"):
        span.contains(m22.cyclic_vector())
    with pytest.raises(ValueError, match="different module"):
        span.contains(m22.zero())
    with pytest.raises(ValueError, match="different modules"):
        m22.cyclic_vector() + m23.cyclic_vector()
    t1, t2 = tensor([m22, m23]), tensor([m22, m23])
    with pytest.raises(ValueError, match="different modules"):
        t1.cyclic_tensor() + t2.cyclic_tensor()
    with pytest.raises(ValueError, match="different module"):
        Subspace(t1).insert(t2.cyclic_tensor())
    with pytest.raises(ValueError, match="different modules"):
        Subspace(m22).includes(span)


def test_tensor_dims():
    one = tensor([fusion_module((1,)), fusion_module((1,))])
    assert one.total_dim == 1
    t = tensor([fusion_module((2, 3)), fusion_module((2, 2))])
    assert t.total_dim == 24
    assert t.character().total() == 24


def test_tensor_same_n_required():
    with pytest.raises(ValueError, match="variable count"):
        tensor([fusion_module((2,)), fusion_module((2, 2))])


def test_tensor_merge_example():
    rep = verify_tensor_embedding((2, 3), (2, 2))
    assert rep["ok"]
    assert rep["merged"] == (3, 4)
    assert rep["span_dim"] == 12
    assert rep["shift"] == (0, 0)


def test_tensor_merge_shorter_factor():
    rep = verify_tensor_embedding((2, 2), (2,))
    assert rep["ok"]
    assert rep["merged"] == (2, 3)


def test_tensor_merge_law_small_grid():
    # the full grid runs in the acceptance suite
    for a in [(2,), (2, 2), (2, 3)]:
        for b in [(2,), (3,), (2, 2)]:
            if len(b) <= len(a):
                assert verify_tensor_embedding(a, b)["ok"], (a, b)


def test_demazure_examples():
    rep = verify_demazure((2, 3))
    assert rep["ok"] and rep["span_dim"] == 2 and rep["quotient_dim"] == 4
    rep = verify_demazure((1, 1))
    assert rep["ok"] and rep["span_dim"] == 1 and rep["quotient_dim"] == 0
    rep = verify_demazure((2, 3, 4))
    assert rep["ok"] and rep["span_dim"] == 6 and rep["quotient_dim"] == 18
    assert label_character((2, 3, 3)).total() == 18


def test_deletion_of_leading_ones():
    for a in [(2,), (2, 2), (2, 3), (3,), (2, 2, 3)]:
        padded = (1,) + a
        ok, shift = match_characters(
            fusion_module(padded).character(), fusion_module(a).character()
        )
        assert ok, (a, shift)
        assert shift == (0, 0)


def test_label_character_handles_zero_and_order():
    assert label_character((2, 0)).total() == 0
    assert label_character((3, 1)) == fusion_module((1, 3)).character()


def test_match_characters_shift_and_reindex():
    c = GradedCharacter({(1, 1): 1, (2, 1): 2})
    base = GradedCharacter({(0, 0): 1, (1, 0): 2})
    ok, shift = match_characters(c, base)
    assert ok and shift == (1, 1)
    ok, _ = match_characters(c, GradedCharacter({(0, 0): 1, (1, 1): 2}))
    assert not ok
    reind = GradedCharacter({(1, 1): 1, (2, 2): 2})
    ok, shift = match_characters(reind, base, reindex=1)
    assert ok and shift == (1, 1)


def test_character_subtraction_guards():
    a = GradedCharacter({(0, 0): 1})
    b = GradedCharacter({(0, 0): 2})
    with pytest.raises(IntegrityError):
        _ = a - b


def test_dimension_law_small_grid():
    for n in range(1, 4):
        stack = [()]
        for _ in range(n):
            stack = [t + (v,) for t in stack for v in range((t[-1] if t else 1), 4)]
        for a in stack:
            assert fusion_module(a).total_dim == prod(a)
