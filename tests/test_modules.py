"""Quotient modules: generators, dimensions, characters, spans, tensors."""

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm, prod

import pytest
from oracle_utils import (
    apply_reference,
    cyclic_span_reference,
    element_form,
    element_from_fractions,
    ideal_generators,
    ideal_rows,
    mono_mul,
    quotient_reference,
    int_row,
    reduce_monomial,
    surviving_generator_reference,
)

from slfusion.linalg import (
    IntEchelon,
    IntegrityError,
    enumerate_monomials,
    rref,
)
from slfusion import modules
from slfusion.cli import RunConfig, composition_grid, suite_claims, valid_adjacent_moves
from slfusion.modules import (
    FusionModule,
    GradedCharacter,
    ModuleElement,
    Subspace,
    TensorModule,
    cyclic_span,
    fusion_module,
    label_character,
    label_module,
    match_characters,
    relation_exponent,
    validate_composition,
    verify_demazure,
    verify_tensor_embedding,
)
from slfusion.submodules import move_composition


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
    dense = ideal_rows(module)
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
            assert [int_row(r) for r in dense[(k, s)]] == [int_row(r) for r in red], (k, s)


REFERENCE_LABELS = [
    a for n in range(1, 5) for a in combinations_with_replacement(range(1, 5), n)
] + [(4, 5, 6, 9), (4, 4, 4, 4, 4), (2, 3, 4, 5, 6)]


@pytest.mark.parametrize("a", REFERENCE_LABELS)
def test_build_matches_reference_route(a):
    # the unit-column build against one echelon insert per shifted row
    assert_matches_reference(fusion_module(a))


def assert_matches_reference(module):
    """The module's rows, pieces and every normal form against the
    reference route's."""
    a = module.a
    rows, bases, nf = quotient_reference(a)
    assert ideal_rows(module) == rows
    # a wholly-ideal bidegree holds no piece
    assert module.pieces == {ks: basis for ks, basis in bases.items() if basis}
    n = len(a)
    # every ambient monomial through the certified-zero band kmax + 1, and
    # one band above it, where everything reduces to zero
    for k in range(module.kmax + 3):
        for s in range((n - 1) * k + 1):
            for m in enumerate_monomials(n, k, s):
                want = nf[m] if k <= module.kmax + 1 else None
                assert reduce_monomial(module, m) == want, m


def reset_shift_memo():
    modules.shift_columns.cache_clear()
    modules._shift_memo.update(entries=0, clears=0)


def test_shift_columns_memo_is_bounded_by_entries(monkeypatch):
    memo, bound = modules._shift_memo, modules.SHIFT_MEMO_ENTRIES
    reset_shift_memo()
    try:
        # the frontier labels of the benchmark's build phase fit without a clear
        for a in [(4, 4, 4, 4, 4), (3, 4, 4, 4, 5)]:
            assert FusionModule(a).total_dim == prod(a)
        assert memo["clears"] == 0 and 0 < memo["entries"] <= bound
        # so does one n = 6 build: it shifts only the slices that are not
        # forced wholly ideal, about 91k entries
        reset_shift_memo()
        assert FusionModule((4, 4, 4, 4, 4, 4)).total_dim == 4**6
        assert memo["clears"] == 0 and 80_000 < memo["entries"] <= 100_000
        # under a lower bound the same build empties the memo on the way
        # and ends under the bound
        reset_shift_memo()
        monkeypatch.setattr(modules, "SHIFT_MEMO_ENTRIES", 1 << 14)
        assert FusionModule((4, 4, 4, 4, 4, 4)).total_dim == 4**6
        assert memo["clears"] > 0 and 0 < memo["entries"] <= 1 << 14
        assert modules.shift_columns.cache_info().currsize < 429
    finally:
        reset_shift_memo()


def reset_lead_table():
    modules._leads.clear()
    modules._lead_memo.update(clears=0)


@pytest.mark.parametrize("a, built", [((3, 3, 3, 3), 78), ((4, 4, 4, 4, 4), 930)])
def test_a_wrong_build_shares_no_wrong_value_with_later_builds(monkeypatch, a, built):
    # the planted build of the dimension-gate test fills the shared basis
    # forms and lead table with the values of a wrong ideal; sharing is by
    # equality, so the builds after it still match the reference
    reset_lead_table()
    with monkeypatch.context() as patch:
        test_wrong_generator_coefficient_trips_the_dimension_gate(patch, a, built)
    assert modules._leads
    for b in composition_grid(3, 4) + [(4, 4, 4, 4, 4)]:
        assert_matches_reference(FusionModule(b))


def test_lead_table_is_bounded_by_entries(monkeypatch):
    # one (4,4,4,4,4) build makes 1,000 distinct leads; under a bound of
    # 256 it empties the table on the way, ends under the bound, and its
    # normal forms are still the reference's
    reset_lead_table()
    try:
        FusionModule((4, 4, 4, 4, 4))
        assert modules._lead_memo["clears"] == 0 and len(modules._leads) == 1000
        reset_lead_table()
        monkeypatch.setattr(modules, "LEAD_TABLE_ENTRIES", 256)
        module = FusionModule((4, 4, 4, 4, 4))
        assert modules._lead_memo["clears"] > 0 and 0 < len(modules._leads) <= 256
        assert_matches_reference(module)
    finally:
        reset_lead_table()


def cold_build_counts(a) -> dict:
    """Memo misses of one build of ``a`` with every shared memo emptied first."""
    memos = {
        "enumerate_monomials": modules.enumerate_monomials,
        "shift_columns": modules.shift_columns,
        "generating_slice": modules.generating_slice,
    }
    for memo in memos.values():
        memo.cache_clear()
    modules._shift_memo.update(entries=0, clears=0)
    try:
        assert FusionModule(a).total_dim == prod(a)
        return {name: memo.cache_info().misses for name, memo in memos.items()}
    finally:
        reset_shift_memo()


def test_wholly_ideal_slices_skip_their_work():
    # a slice whose predecessors are all wholly ideal is marked ALL_IDEAL:
    # no monomial list, column map or generator is formed for it (a build
    # that lists every slice misses 694, 561 and 455 times)
    assert cold_build_counts((4, 4, 4, 4, 4)) == {
        "enumerate_monomials": 347,
        "shift_columns": 260,
        "generating_slice": 95,
    }
    # 561 bidegrees: (0, 0) and the 260 shifted slices are computed, the
    # other 300 are forced wholly ideal; they hold 16,363 of the 20,349
    # ambient monomials.  A wholly-ideal slice holds no piece: 196 of the
    # 561 bidegrees have one
    module, n = fusion_module((4, 4, 4, 4, 4)), 5
    grid = [(k, s) for k in range(module.kmax + 2) for s in range((n - 1) * k + 1)]
    forced = [
        (k, s)
        for k, s in grid
        if k and not any(module.dim_piece(k - 1, s - j) for j in range(n))
    ]
    assert len(grid) == 561 and len(forced) == 300
    assert sum(len(enumerate_monomials(n, *ks)) for ks in forced) == 16_363
    assert not any(ks in module.pieces for ks in forced)
    assert len(module.pieces) == 196


def test_all_ideal_rule_misfire_trips_the_dimension_gate(monkeypatch):
    # (1, 0) of (2, 3) holds e_0, a basis monomial; its one predecessor
    # (0, 0) is not wholly ideal, so the rule never marks it
    real = FusionModule._slice
    seen = []

    def forced(self, k, s, below, has_gen):
        if (k, s) != (1, 0):
            return real(self, k, s, below, has_gen)
        seen.append(below)
        return modules.ALL_IDEAL

    monkeypatch.setattr(FusionModule, "_slice", forced)
    with pytest.raises(IntegrityError, match="dim mismatch"):
        FusionModule((2, 3))
    (below,) = seen
    assert [state is modules.ALL_IDEAL for _, state in below] == [False]


@pytest.mark.parametrize("a", REFERENCE_LABELS)
def test_build_visits_only_the_bidegrees_a_piece_reaches(monkeypatch, a):
    # (0, 0) and every bidegree one e_j above a piece, each once: a bidegree
    # whose predecessors are all wholly ideal is never visited (the labels
    # include all of composition_grid(3, 4))
    real = FusionModule._slice
    visited = []

    def recording(self, k, s, below, has_gen):
        visited.append((k, s))
        return real(self, k, s, below, has_gen)

    monkeypatch.setattr(FusionModule, "_slice", recording)
    module, n = FusionModule(a), len(a)
    grid = [(k, s) for k in range(1, module.kmax + 2) for s in range((n - 1) * k + 1)]
    reached = {(k, s) for k, s in grid if any((k - 1, s - j) in module.pieces for j in range(n))}
    assert len(visited) == len(set(visited))
    assert set(visited) == {(0, 0)} | reached


def test_surviving_generator_matches_reducing_every_generator_on_the_default_grid():
    # each label in its own module (no survivor), and each adjacent move of
    # the default grid both ways: the source relations in the target (none
    # survive) and the target relations in the source (one does)
    for a in composition_grid(4, 5):
        source = fusion_module(a)
        pairs = [(source, a)]
        for i in valid_adjacent_moves(a):
            target = fusion_module(move_composition(a, i, i + 1))
            pairs += [(target, a), (source, target.a)]
        for module, label in pairs:
            want = surviving_generator_reference(module, label)
            assert module.surviving_generator(label) == want, (module.a, label)
            assert (want is None) == (module is not source or label == a)


@pytest.mark.parametrize("a, built", [((3, 3, 3, 3), 78), ((4, 4, 4, 4, 4), 930)])
def test_wrong_generator_coefficient_trips_the_dimension_gate(monkeypatch, a, built):
    # every generator with its first coefficient plus one: the build must
    # not pass the gate on a wrong ideal
    real = modules.generating_slice

    def planted(n, k, zpow):
        gen = dict(real(n, k, zpow))
        gen[next(iter(gen))] += 1
        return gen

    monkeypatch.setattr(modules, "generating_slice", planted)
    with pytest.raises(IntegrityError, match=re.escape(f"dim mismatch for {a}: built {built},")):
        FusionModule(a)


@pytest.mark.parametrize("a", composition_grid(3, 4) + [(4, 4, 4, 4, 4)])
def test_pieces_hold_exactly_the_bidegrees_of_positive_dimension(a):
    # a wholly-ideal bidegree is recorded by its absence, against the
    # reference route's bases; every normal form lies in a piece
    module, n = fusion_module(a), len(a)
    _, bases, _ = quotient_reference(a)
    assert set(module.pieces) == {ks for ks, basis in bases.items() if basis}
    assert all(module.pieces.values())
    for m, (ks, _, _) in module._nf.items():
        assert ks == (sum(m), sum(j * e for j, e in enumerate(m))) and ks in module.pieces, m


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
                for b in piece:
                    red = reduce_monomial(module, b[:j] + (b[j] + 1,) + b[j + 1:])
                    want.append(None if red is None else integer_image(red[1]))
                assert module.action(j, ks) == tuple(want), (a, j, ks)


def test_reduce_monomial_rejects_wrong_length():
    mod = fusion_module((2, 3))
    for m in [(1,), (0, 1, 0), ()]:
        with pytest.raises(ValueError, match="variables"):
            reduce_monomial(mod, m)
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


def test_act_examples():
    mod = fusion_module((2, 2))
    v = mod.cyclic_vector()
    e0, e1 = 0, 1
    assert element_form(v.apply(e1)) == element_form(mod.poly_class({(0, 1): 1}))
    assert v.apply(e1).apply(e1).is_zero()  # e_1^2 lies in the ideal
    mod23 = fusion_module((2, 3))
    v23 = mod23.cyclic_vector()
    top = sum(x - 1 for x in (2, 3))
    for _ in range(top):
        v23 = v23.apply(e0)
    assert element_form(v23) == element_form(mod23.poly_class({(top, 0): 1}))
    assert not v23.is_zero()
    assert v23.apply(e0).is_zero()


def test_nilpotency_of_first_variable():
    for a in [(2,), (2, 2), (2, 3), (2, 3, 4), (1, 2)]:
        mod = fusion_module(a)
        v = mod.cyclic_vector()
        count = 0
        while not v.is_zero():
            v = v.apply(0)
            count += 1
        assert count == 1 + sum(x - 1 for x in a)


def test_variable_count_mismatch():
    mod = fusion_module((2, 2))
    with pytest.raises(ValueError, match="variable operators e_j"):
        mod.cyclic_vector().apply({(1, 0, 0): 1})


def test_top_class_is_a_line():
    mod = fusion_module((2, 3))
    top = {ks: d for ks, d in mod.character().table.items() if ks[0] == mod.kmax}
    assert top == {(mod.kmax, 0): 1}


def test_cyclic_span_trivial_and_full():
    mod = fusion_module((2, 3))
    v = mod.cyclic_vector()
    assert cyclic_span(mod, [], [v]).dim == 1
    assert cyclic_span(mod, [0, 1], [v]).dim == mod.total_dim


def test_cyclic_span_partial_variables():
    mod = fusion_module((2, 3, 4))
    span = cyclic_span(mod, [1, 2], [mod.cyclic_vector()])
    assert span.dim == 6  # the two shorter entries generate their own module
    ok, shift = match_characters(
        span.character(), fusion_module((2, 3)).character(), reindex=1
    )
    assert ok and shift == (0, 0)


def test_cyclic_span_dimension_gate_fires():
    mod = fusion_module((2, 3))
    ops = [0, 1]
    assert cyclic_span(mod, ops, [mod.cyclic_vector()], max_dim=mod.total_dim).dim == 6
    with pytest.raises(IntegrityError, match="exceeded the expected dimension"):
        cyclic_span(mod, ops, [mod.cyclic_vector()], max_dim=mod.total_dim - 1)
    t = TensorModule([fusion_module((2, 2)), fusion_module((2, 2))])
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
        -1,  # below the first variable
        2,  # past the last variable
        True,  # a bool is not a variable index
        "e0",  # a name, not an index
        {(1, 0): 1},  # the polynomial e_0: operators are indices now
        1.0,  # a float index
    ],
)
def test_cyclic_span_rejects_non_variable_operators(op):
    mod = fusion_module((2, 3))
    with pytest.raises(ValueError, match="variable operators"):
        cyclic_span(mod, [op], [mod.cyclic_vector()])
    with pytest.raises(ValueError, match="variable operators"):
        mod.cyclic_vector().apply(op)
    with pytest.raises(ValueError, match="variable operators"):
        Subspace(mod).closed_under(op)


def test_cyclic_span_rejects_non_tensor_operators():
    t = TensorModule([fusion_module((2, 2)), fusion_module((2,))])
    cases = [
        (0, "variable operators"),
        ({(1, 0): 1}, "variable operators"),
        (("diag", 2), "misses every factor"),
        (("factor", 1, 1), "has no variable"),
        (("diag", -1), "indices start at 0"),
        (("factor", 0, -1), "indices start at 0"),
    ]
    for op, message in cases:
        with pytest.raises(ValueError, match=message):
            cyclic_span(t, [op], [t.cyclic_tensor()])
        with pytest.raises(ValueError, match=message):
            t.cyclic_tensor().apply(op)
    with pytest.raises(ValueError, match="indices start at 0"):
        t.op_diag(-1)
    with pytest.raises(ValueError, match="indices start at 0"):
        t.op_factor(0, -1)


def full_element(owner, pieces):
    """An element with a distinct nonzero value at every basis position."""
    return element_from_fractions(
        owner,
        {(k, s): {i: Fraction(i + 1, k + 1) for i in range(d)} for (k, s), d in pieces.items()},
    )


def tg_tensors():
    """The tensor products that the default ``tg`` claims build."""
    for kind, params in suite_claims("descriptions", RunConfig()):
        if kind == "tg":
            a, b = params
            yield TensorModule([fusion_module(a), fusion_module((1,) * (len(a) - len(b)) + b)])


def tensor_ops(t):
    ops = [t.op_diag(j) for j in range(t.n)]
    ops += [t.op_factor(m, j) for m, f in enumerate(t.factors) for j in range(f.n)]
    return ops


def test_apply_matches_reference_on_fusion_modules():
    # the action tables against the per-monomial Fraction route, with every
    # basis vector of every piece in one element
    grid = [a for n in range(1, 4) for a in combinations_with_replacement(range(1, 5), n)]
    for a in grid:
        mod = fusion_module(a)
        el = full_element(mod, mod.character().table)
        for j in range(mod.n):
            assert element_form(el.apply(j)) == element_form(apply_reference(el, j)), (a, j)


def test_apply_matches_reference_on_tg_tensors():
    count = 0
    for t in tg_tensors():
        el = full_element(t, t.character().table)
        for op in tensor_ops(t):
            assert element_form(el.apply(op)) == element_form(apply_reference(el, op)), (t, op)
        count += 1
    assert count == 253  # every default tg claim


def test_reference_catches_a_corrupted_tensor_table(monkeypatch):
    t = TensorModule([fusion_module((2, 2)), fusion_module((2, 2))])
    ops = [t.op_diag(j) for j in range(2)]
    v = t.cyclic_tensor()
    want = cyclic_span_reference(t, ops, [v])
    assert want == cyclic_span(t, ops, [v]) and want.dim == 9
    real = TensorModule.action

    def planted(self, op, ks):
        # e_0 (v (x) v) loses its second-factor term
        table = real(self, op, ks)
        if op == ("diag", 0) and ks == (0, 0):
            entries, den = table[0]
            table = [(entries[:1], den)] + table[1:]
        return table

    monkeypatch.setattr(TensorModule, "action", planted)
    assert element_form(v.apply(ops[0])) != element_form(apply_reference(v, ops[0]))
    assert cyclic_span(t, ops, [v]) != want
    assert cyclic_span_reference(t, ops, [v]) == want


def test_reference_catches_a_corrupted_fusion_table(monkeypatch):
    # most images are single entries; (3, 3, 4) is the first label on the
    # n <= 4, entries <= 4 grid with an image of two entries, and that image
    # gets one sign flipped, which turns it off its line
    mod = fusion_module((3, 3, 4))
    j, ks, i = next(
        (j, ks, i)
        for ks in sorted(mod.pieces)
        for j in range(mod.n)
        for i, img in enumerate(mod.action(j, ks))
        if img is not None and len(img[0]) > 1
    )
    op, seed = j, ModuleElement(mod, {ks: {i: 1}})
    want = cyclic_span_reference(mod, [op], [seed])
    assert want == cyclic_span(mod, [op], [seed])
    real = FusionModule.action

    def planted(self, var, at):
        table = real(self, var, at)
        if self is mod and (var, at) == (j, ks):
            entries, den = table[i]
            flipped = ((entries[0][0], -entries[0][1]),) + entries[1:]
            table = table[:i] + ((flipped, den),) + table[i + 1:]
        return table

    monkeypatch.setattr(FusionModule, "action", planted)
    el = full_element(mod, mod.character().table)
    assert element_form(el.apply(op)) != element_form(apply_reference(el, op))
    assert cyclic_span(mod, [op], [seed]) != want
    assert cyclic_span_reference(mod, [op], [seed]) == want


def test_subspace_takes_a_slice_over_its_denominator_as_its_numerators():
    # a slice enters the echelon as its numerators, which span its line:
    # {0: 3, 1: 2} over 6 is x/2 + y/3 and spans the line of 3x + 2y; every
    # slice a verify run inserts has denominator 1, so this test is the one
    # that sees a larger one
    mod = fusion_module((2, 3, 3))
    ks = next(ks for ks, p in sorted(mod.pieces.items()) if len(p) >= 2)
    rational, whole = Subspace(mod), Subspace(mod)
    half_third = ModuleElement(mod, {ks: {0: 3, 1: 2}}, 6)
    assert element_form(half_third) == ({ks: {0: 3, 1: 2}}, 6)
    assert rational.insert(half_third)
    assert whole.insert(ModuleElement(mod, {ks: {0: 3, 1: 2}}))
    assert rational == whole and rational.dim == 1
    assert rational.spans[ks].sparse_rows() == [{0: 3, 1: 2}]
    assert rational.contains(ModuleElement(mod, {ks: {0: 3, 1: 2}}))
    assert whole.contains(ModuleElement(mod, {ks: {0: -3, 1: -2}}, 7))
    assert not rational.contains(ModuleElement(mod, {ks: {0: 1, 1: 1}}))
    assert not rational.contains(ModuleElement(mod, {ks: {0: 1, 1: 1}}, 2))
    assert not rational.insert(ModuleElement(mod, {ks: {0: 3, 1: 2}}, 5))


def test_subspace_equality_ignores_empty_slices_and_needs_one_owner():
    mod = fusion_module((2, 3))
    span = cyclic_span(mod, [0], [mod.cyclic_vector()])
    padded = cyclic_span(mod, [0], [mod.cyclic_vector()])
    ks = next(ks for ks, p in mod.pieces.items() if p and ks not in span.spans)
    padded.spans[ks] = IntEchelon(mod.dim_piece(*ks))  # an empty slice
    assert span == padded and padded == span
    assert Subspace(mod) == cyclic_span(mod, [0], [])
    padded.spans[ks].insert({0: 1})
    assert span != padded
    twin = FusionModule((2, 3))  # the same label, another module object
    assert twin is not mod
    other = cyclic_span(twin, [0], [twin.cyclic_vector()])
    assert other.spans == span.spans  # the same echelons
    assert span != other and other != span
    assert Subspace(mod) != Subspace(twin)


def test_elements_of_another_module_are_rejected():
    m22, m23 = fusion_module((2, 2)), fusion_module((2, 3))
    span = cyclic_span(m23, [0], [m23.cyclic_vector()])
    with pytest.raises(ValueError, match="different module"):
        span.insert(m22.cyclic_vector())
    with pytest.raises(ValueError, match="different module"):
        span.contains(m22.cyclic_vector())
    with pytest.raises(ValueError, match="different module"):
        span.contains(ModuleElement(m22, {}))
    t1, t2 = TensorModule([m22, m23]), TensorModule([m22, m23])
    with pytest.raises(ValueError, match="different module"):
        Subspace(t1).insert(t2.cyclic_tensor())
    with pytest.raises(ValueError, match="different modules"):
        Subspace(m22).includes(span)


def test_tensor_module_takes_two_factors():
    m = fusion_module((2, 2))
    for factors in ([m], [m, m, m]):
        with pytest.raises(ValueError, match="takes two factors"):
            TensorModule(factors)


def test_tensor_dims():
    one = TensorModule([fusion_module((1,)), fusion_module((1,))])
    assert one.total_dim == 1
    t = TensorModule([fusion_module((2, 3)), fusion_module((2, 2))])
    assert t.total_dim == 24
    assert t.character().total() == 24


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


def test_label_module_names_every_label():
    # a negative entry names no module, for either routine
    for name in (label_module, label_character):
        with pytest.raises(ValueError, match="negative entry"):
            name((2, -1))
    # an unsorted label names the memoized module of its sorted label
    assert label_module((3, 2)) is fusion_module((2, 3))
    assert label_character((3, 2)) == fusion_module((2, 3)).character()
    # a zero entry names a fresh zero module that keeps the label as given
    zero = label_module((2, 0))
    assert zero.a == (2, 0) and zero.n == 2 and zero.total_dim == 0
    assert not zero.pieces and zero.character() == GradedCharacter({})
    assert zero.normal_form((1, 0)) is None
    assert label_module((2, 0)) is not zero
    assert label_character((2, 0)) == GradedCharacter({})


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


@pytest.mark.parametrize(
    "value, den",
    [
        (Fraction(1, 2), 1), (Fraction(2), 1), (0.5, 1), (0.0, 1), (True, 1),
        (1, Fraction(2)), (1, 2.0), (1, True), (1, 0), (1, -2),
    ],
    ids=[
        "fraction", "whole-fraction", "float", "zero-float", "bool",
        "fraction-den", "float-den", "bool-den", "zero-den", "negative-den",
    ],
)
def test_module_element_takes_int_numerators_over_a_positive_int_only(value, den):
    mod = fusion_module((2, 2))
    with pytest.raises(ValueError, match="ModuleElement"):
        ModuleElement(mod, {(1, 1): {0: value}}, den)


@pytest.mark.parametrize("dim", [1.5, Fraction(3, 2), True], ids=["float", "fraction", "bool"])
def test_graded_character_takes_int_dimensions_only(dim):
    with pytest.raises(ValueError, match="GradedCharacter"):
        GradedCharacter({(0, 0): dim})
