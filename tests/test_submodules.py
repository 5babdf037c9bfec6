"""Move surjections, their kernels, and the three kernel descriptions."""

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest

from oracle_utils import (
    apply_reference,
    cyclic_span_reference,
    element_form,
    element_from_fractions,
    ideal_generators,
    reduce_monomial,
    rref_kernel,
    subspace_intersection,
    verify_sum_decomposition,
)

from slfusion import cli, modules, submodules
from slfusion.linalg import IntegrityError, rref
from slfusion.modules import (
    ModuleElement,
    Subspace,
    fusion_module,
    label_character,
    match_characters,
)
from slfusion.submodules import (
    QuotientMap,
    eq_first_dim,
    generators_w,
    move_composition,
    move_rejection,
    nilpotency_e1,
    submodule_S,
    verify_emb,
    verify_exactness,
    verify_filtration,
    verify_inductive_description,
    verify_second_description,
    verify_w_generators,
)


def test_move_composition():
    assert move_composition((2, 2), 1, 2) == (1, 3)
    assert move_composition((2, 3, 4), 1, 3) == (1, 3, 5)
    with pytest.raises(ValueError):
        move_composition((2, 2), 2, 2)


def test_quotient_map_examples():
    qm = QuotientMap((2, 2), 1, 2)
    assert qm.source.total_dim == 4 and qm.target.total_dim == 3
    qm = QuotientMap((2, 3), 1, 2)
    assert (qm.source.total_dim, qm.target.total_dim) == (6, 4)
    # rank-nullity at every move on a bigger module
    sub = submodule_S((2, 3, 4), 1)
    assert sub.dim == 24 - 16


def test_move_guards():
    assert move_rejection((1, 1), 1, 2) == "move produces a nonpositive entry"
    assert move_rejection((2, 2, 2), 2, 3) == (
        "move (2,3) on (2, 2, 2) gives the unsorted label (2, 1, 3)"
    )
    assert move_rejection((2, 2, 3, 3), 2, 3) is not None
    assert move_rejection((2, 3, 4), 2, 3) is None
    with pytest.raises(ValueError, match="need 1 <= i < j"):
        move_rejection((2, 2), 2, 2)
    # the library takes the rejected moves: a zero entry names the zero
    # module, an unsorted label the ring of its sorted label
    assert submodule_S((1, 1), 1).target.total_dim == 0
    assert submodule_S((1, 1), 1).dim == eq_first_dim((1, 1), 1) == 1
    sub = submodule_S((2, 2, 2), 2)
    assert sub.target.a == (1, 2, 3) and sub.target_label == (2, 1, 3)
    assert sub.dim == eq_first_dim((2, 2, 2), 2) == 2
    sub = submodule_S((2, 2, 3, 3), 2)
    assert sub.dim == eq_first_dim((2, 2, 3, 3), 2) == 12


def adjacent_moves():
    """(a, i) for every positive adjacent move with n <= 3 and entries <= 4,
    plus two larger labels."""
    labels = [a for n in (2, 3) for a in combinations_with_replacement(range(1, 5), n)]
    labels += [(2, 3, 4, 5), (2, 2, 3, 3)]
    for a in labels:
        for i in range(1, len(a)):
            if a[i - 1] > 1:
                yield a, i


def test_move_map_kernel_matches_rref_reference():
    for a, i in adjacent_moves():
        qmap = QuotientMap(a, i, i + 1)
        want = Subspace(qmap.source)
        for ks, piece in qmap.source.pieces.items():
            if not piece:
                continue
            # the dense map matrix: row r is the image of source monomial r
            tdim = qmap.target.dim_piece(*ks)
            rows = []
            for m in piece:
                red = reduce_monomial(qmap.target, m)
                rows.append(list(red[1]) if red else [0] * tdim)
            assert rref(rows, tdim)[0] == tdim, (a, i, ks)
            for vec in rref_kernel([list(col) for col in zip(*rows)], len(piece)):
                sparse = {r: x for r, x in enumerate(vec) if x}
                want.insert(element_from_fractions(qmap.source, {ks: sparse}))
        assert qmap.kernel() == want, (a, i)
        assert want.dim == qmap.source.total_dim - qmap.target.total_dim


def quotient_image_reference(qmap, el):
    """The image of an element under a move map, one basis monomial at a
    time: each is reduced in the target to its dense ``Fraction`` form."""
    sums = {}
    for ks, vec in el.coords.items():
        for i, c in vec.items():
            red = reduce_monomial(qmap.target, qmap.source.pieces[ks][i])
            if red is not None:
                acc = sums.setdefault(red[0], {})
                for t, x in enumerate(red[1]):
                    acc[t] = acc.get(t, 0) + Fraction(c, el.den) * x
    return element_from_fractions(qmap.target, sums)


def test_an_element_denominator_above_one_stays_exact():
    # in (2,3,3) the class of e_0 e_1 e_2 is -1/6 times the basis monomial
    # e_1^3, and that of e_0^3 e_2 is -3/2 times a basis monomial of (4, 2)
    mod = fusion_module((2, 3, 3))
    assert mod.normal_form((1, 1, 1)) == ((3, 3), ((0, -1),), 6)
    assert mod.normal_form((3, 0, 1)) == ((4, 2), ((0, -3),), 2)
    el = mod.poly_class({(1, 1, 1): 1})
    assert element_form(el) == ({(3, 3): {0: -1}}, 6)
    mixed = mod.poly_class({(1, 1, 1): 1, (1, 1, 0): 1, (3, 0, 1): 1})
    assert mixed.den == 6
    for x in (el, mixed):
        for j in range(mod.n):
            assert element_form(x.apply(j)) == element_form(apply_reference(x, j)), j
        for i in (1, 2):
            qmap = submodule_S((2, 3, 3), i)
            assert qmap.kernel().contains(x) == quotient_image_reference(qmap, x).is_zero(), i
    # e_2 e_0 e_1 = e_0 e_1 e_2 keeps the 6
    assert mixed.apply(2).den == 6
    # an element and its multiple by 5 span one line
    ((ks, vec),) = el.coords.items()
    five = ModuleElement(mod, {ks: {i: 5 * x for i, x in vec.items()}}, el.den)
    assert element_form(five) == ({(3, 3): {0: -5}}, 6)
    one, other = Subspace(mod), Subspace(mod)
    assert one.insert(el) and other.insert(five) and one == other
    assert not one.insert(five) and other.contains(el)


def test_move_map_surjectivity_gate_fires(monkeypatch):
    target = fusion_module((1, 4))
    real = target.normal_form
    # zero the images in one bidegree where the target is nonzero
    ks = next(ks for ks, p in sorted(target.pieces.items()) if ks[0] and p)

    def planted(m):
        return None if (sum(m), sum(i * e for i, e in enumerate(m))) == ks else real(m)

    monkeypatch.setattr(target, "normal_form", planted)
    with pytest.raises(IntegrityError, match="not surjective"):
        QuotientMap((2, 3), 1, 2)


def test_move_map_surjectivity_gate_fires_on_a_missing_source_monomial(monkeypatch):
    source, target = fusion_module((2, 3, 4)), fusion_module((2, 2, 5))
    # a target basis monomial dropped from a source basis that keeps others
    ks, tpiece = next(
        (ks, p) for ks, p in sorted(target.pieces.items()) if p and source.dim_piece(*ks) > 1
    )
    monkeypatch.setitem(source.pieces, ks, [m for m in source.pieces[ks] if m != tpiece[0]])
    with pytest.raises(IntegrityError, match=re.escape(f"not surjective at {ks}")):
        QuotientMap((2, 3, 4), 2, 3)


def test_move_map_well_definedness_gate_fires(monkeypatch):
    fusion_module((2, 3)), fusion_module((1, 4))  # built before the plant
    real = modules.generator_keys
    # a planted source relation e_0 (the z^1 coefficient of E(z) at n = 2)
    # that does not vanish in the target
    assert modules.generating_slice(2, 1, 1) == {(1, 0): 1}
    monkeypatch.setattr(modules, "generator_keys", lambda a: real(a) + [(1, 1)])
    with pytest.raises(IntegrityError, match="not well defined: source relation at degree 1, z"):
        QuotientMap((2, 3), 1, 2)


ZERO_TARGET_MOVES = [
    (a, i, j)
    for n in range(2, 5)
    for a in combinations_with_replacement(range(1, 5), n)
    for i in range(1, n)
    for j in range(i + 1, n + 1)
    if a[i - 1] == 1
]


def all_unit_subspace(module):
    """The whole module as a subspace: one unit vector per basis position."""
    whole = Subspace(module)
    for ks, piece in module.pieces.items():
        for r in range(len(piece)):
            whole.insert(ModuleElement(module, {ks: {r: 1}}))
    return whole


def test_zero_target_move_kernel_is_the_whole_module():
    # a move onto a zero entry maps onto the zero module: the closed form
    # makes every source monomial a unit kernel row, and the kernel passes
    # the closure gate (and, on adjacent moves, the dimension gate)
    assert len(ZERO_TARGET_MOVES) == 112
    for a, i, j in ZERO_TARGET_MOVES:
        assert move_rejection(a, i, j) == "move produces a nonpositive entry"
        sub = submodule_S(a, i, j)
        assert sub.target.total_dim == 0 and not sub.target.pieces, (a, i, j)
        assert sub.dim == prod(a), (a, i, j)
        assert sub.kernel() == all_unit_subspace(sub.source), (a, i, j)
        top = max(ks for ks, piece in sub.source.pieces.items() if piece)
        x = ModuleElement(sub.source, {top: {0: 1}})
        assert sub.kernel().contains(x) == quotient_image_reference(sub, x).is_zero()
        assert verify_exactness(sub)["ok"]


def planted_kernel(monkeypatch, plant):
    """Make QuotientMap.kernel hand its gates the kernel as ``plant`` edits it."""
    real = QuotientMap.kernel

    def kernel(self):
        sub = real(self)
        plant(sub)
        return sub

    monkeypatch.setattr(QuotientMap, "kernel", kernel)


def test_zero_target_dimension_gate_fires(monkeypatch):
    assert QuotientMap((1, 2, 3), 1, 2).dim == eq_first_dim((1, 2, 3), 1) == 6
    # the cyclic vector's unit row dropped: what is left is still closed
    # under every e_l, so only the dimension gate can see it
    planted_kernel(monkeypatch, lambda sub: sub.spans.pop((0, 0), None))
    with pytest.raises(IntegrityError, match="got 5, formula gives 6"):
        QuotientMap((1, 2, 3), 1, 2)


MOVES = [
    (a, i, j)
    for n in range(2, 5)
    for a in combinations_with_replacement(range(1, 5), n)
    for i in range(1, n)
    for j in range(i + 1, n + 1)
    if a[i - 1] > 1
]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_surviving_generator_matches_reducing_every_generator(n):
    # the certificate skips the bidegrees where the module's piece is zero;
    # it must name the same first survivor as reducing every generator, on
    # each move (no survivor) and on each reversed move (survivors)
    for a, i, j in (m for m in MOVES if len(m[0]) == n):
        source = fusion_module(a)
        target = fusion_module(tuple(sorted(move_composition(a, i, j))))
        for here, label in [(target, source.a), (source, target.a)]:
            survivors = [
                (k, zpow)
                for k, zpow, poly in ideal_generators(label)
                if not here.poly_class(poly).is_zero()
            ]
            assert bool(survivors) == (here is source)
            assert here.surviving_generator(label) == (survivors[0] if survivors else None)


def test_kernel_closure_gate_fires(monkeypatch):
    assert QuotientMap((2, 3, 4), 2, 3).dim == eq_first_dim((2, 3, 4), 2)
    # the kernel with its top bidegree removed: e_l maps the bidegrees
    # just below it out of the planted subspace
    planted_kernel(monkeypatch, lambda sub: sub.spans.pop(max(sub.spans)))
    with pytest.raises(IntegrityError, match=r"not closed under e_\d"):
        QuotientMap((2, 3, 4), 2, 3)


GRID = [a for n in range(1, 5) for a in combinations_with_replacement(range(1, 5), n)]


def test_cyclic_span_matches_reference(monkeypatch):
    """Every span the claims take on the n <= 4, entries <= 4 grid equals
    the breadth-first reference span."""
    # fresh modules, whose move-map and merge memos are empty, so that every
    # distinct span is taken here: tg[a, b] and tg[a, (1,) + b] share one
    monkeypatch.setattr(modules, "_MODULE_CACHE", {})
    real = modules.cyclic_span
    seen = {}

    def checked(owner, ops, seeds, max_dim=None):
        span = real(owner, ops, seeds, max_dim=max_dim)
        assert span == cyclic_span_reference(owner, ops, seeds), (owner, ops)
        seen[kind] = seen.get(kind, 0) + 1
        return span

    monkeypatch.setattr(modules, "cyclic_span", checked)
    monkeypatch.setattr(submodules, "cyclic_span", checked)
    kind = "w"
    for a in GRID:
        for i in range(1, len(a)):
            verify_w_generators(submodule_S(a, i))
    kind = "peel"
    for a in GRID:
        for i in range(1, len(a)):
            if a[i - 1] >= 2:
                assert verify_filtration(a, i)["ok"], (a, i)
    kind = "demazure"
    for a in GRID:
        if len(a) >= 2:
            assert modules.verify_demazure(a)["ok"], a
    # merged labels stay on the grid; n = 4 pairs would add seconds of
    # reference work for no new code path
    kind = "tg"
    for a in GRID:
        for b in GRID:
            bpad = (1,) * (len(a) - len(b)) + b
            if len(b) <= len(a) <= 3 and max(x + y - 1 for x, y in zip(a, bpad)) <= 4:
                assert modules.verify_tensor_embedding(a, b)["ok"], (a, b)
    kind = "descriptions"
    for a in GRID:
        n = len(a)
        if n < 2 or any(x >= y for x, y in zip(a, a[1:])):
            continue
        for i in range(1, n):
            assert verify_second_description(a, i)["ok"], (a, i)
            assert verify_inductive_description(a, i)["ok"], (a, i)
            if all(a[j] - a[j - 1] > 1 for j in range(i + 1, n)):
                assert verify_emb(a, i)["ok"], (a, i)
    assert seen == {"w": 155, "peel": 19, "demazure": 65, "tg": 129, "descriptions": 46}


def test_kernel_dimension_formula():
    assert submodule_S((2, 3), 1).dim == 2
    assert submodule_S((2, 2), 1).dim == 1
    assert eq_first_dim((4, 5, 6, 9), 3) == 80
    for a, i in [((2, 3), 1), ((2, 2), 1), ((2, 3, 4), 2), ((2, 2, 3), 1)]:
        assert submodule_S(a, i).dim == eq_first_dim(a, i)


def test_first_kernel_matches_smaller_module():
    sub = submodule_S((2, 3), 1)
    ok, shift = match_characters(sub.character(), label_character((2,)))
    assert ok and shift == (1, 1)
    sub = submodule_S((2, 2), 1)
    ok, shift = match_characters(sub.character(), label_character(()))
    assert ok and shift == (1, 1)


def test_exactness_character_additivity():
    for a, i in [((2, 3), 1), ((2, 3, 4), 1), ((2, 3, 4), 2), ((2, 2, 3), 1)]:
        assert verify_exactness(submodule_S(a, i))["ok"]


def test_w_generator_values():
    # single generator at index 1: the z^0 slice of E(z) applied to the
    # cyclic vector, i.e. the class of e_1 (the kernel is the line at (1,1))
    mod = fusion_module((2, 2))
    (w1,) = generators_w((2, 2), 1)
    assert element_form(w1) == element_form(mod.poly_class({(0, 1): 1}))
    assert submodule_S((2, 2), 1).character().table == {(1, 1): 1}
    ws = generators_w((2, 3), 1)
    assert len(ws) == 2
    assert verify_w_generators(submodule_S((2, 3), 1))["span_dim"] == 2


def test_w_zero_index_is_cyclic_vector():
    mod = fusion_module((1, 2))
    ws = generators_w((1, 2), 1)
    assert element_form(ws[0]) == element_form(mod.cyclic_vector())


def test_w_generators_span_kernel():
    for a, i in [((2, 2), 1), ((2, 3), 1), ((2, 3, 4), 1), ((2, 3, 4), 2)]:
        rep = verify_w_generators(submodule_S(a, i))
        assert rep["ok"], (a, i, rep)
        assert all(rep["membership"])


@pytest.mark.parametrize("planted", [False, True], ids=["plain", "w-exponent"])
def test_w_membership_matches_the_quotient_image(monkeypatch, planted):
    # read off the kernel's spans, membership agrees with the image of each
    # w_j, reduced monomial by monomial in the target, on the default grid;
    # a w_j taken one z-power past N_A(j) lies outside the kernel
    if planted:
        real = submodules.relation_exponent
        monkeypatch.setattr(submodules, "relation_exponent", lambda a, k: real(a, k) + 1)
    grid = cli.CLAIM_KINDS["submodule"][3](cli.RunConfig())
    checked = 0
    for a, i in grid:
        sub = submodule_S(a, i)
        rep = verify_w_generators(sub)
        want = [quotient_image_reference(sub, w).is_zero() for w in generators_w(a, i)]
        assert rep["membership"] == want == [not planted] * len(want), (a, i)
        checked += len(want)
    assert len(grid) > 100 and checked > len(grid)


def test_w_generators_are_formed_once(monkeypatch):
    real = submodules.generators_w
    calls = []

    def counted(a, i):
        calls.append((a, i))
        return real(a, i)

    monkeypatch.setattr(submodules, "generators_w", counted)
    assert verify_w_generators(submodule_S((2, 3, 4), 2))["ok"]
    assert calls == [((2, 3, 4), 2)]


def test_sum_decomposition():
    rep = verify_sum_decomposition((2, 3, 4), 1, 3)
    assert rep["ok"] and rep["sum_dim"] == 9
    rep = verify_sum_decomposition((2, 3, 4), 1, 2)
    assert rep["ok"]


def test_intersection_inclusion_exclusion():
    s12 = submodule_S((2, 3, 4), 1)
    s23 = submodule_S((2, 3, 4), 2)
    s13 = submodule_S((2, 3, 4), 1, 3)
    meet = subspace_intersection(s12.kernel(), s23.kernel())
    assert meet.dim == s12.dim + s23.dim - s13.dim == 3
    assert label_character((3,)).total() == 3


def test_filtration_single_step():
    rep = verify_filtration((2, 2, 3), 1)
    assert rep["ok"]
    assert [l["label"] for l in rep["layers"]] == [(1, 3)]
    assert rep["cokernel"]["label"] == (1, 3, 3)


def test_filtration_stop_rule_one():
    rep = verify_filtration((1, 2, 3), 2)
    assert rep["ok"]
    assert rep["layers"][0]["action"] == "stop-rule-1"
    assert rep["layers"][0]["label"] == (2,)


def test_filtration_recursive_step():
    rep = verify_filtration((2, 3, 4), 2)
    assert rep["ok"]
    actions = [l["action"] for l in rep["layers"]]
    assert actions[0] == "peel"
    total = sum(l["dim"] for l in rep["layers"]) + rep["cokernel"]["dim"]
    assert total == 24


def test_filtration_worked_example_shape():
    # dedicated acceptance test re-runs this with timing
    rep = verify_filtration((4, 5, 6, 9), 3)
    assert rep["ok"]
    assert [l["label"] for l in rep["layers"]] == [(4, 8), (4, 6), (3, 5), (3, 3)]
    assert [l["dim"] for l in rep["layers"]] == [32, 24, 15, 9]
    assert rep["cokernel"] == {"label": (4, 5, 5, 10), "dim": 1000}
    assert rep["total"] == 1080
    assert set(rep) == {"ok", "layers", "cokernel", "telescoped", "total", "dim"}
    assert [(l["composition"], l["action"]) for l in rep["layers"]] == [
        ((4, 5, 6, 9), "peel"),
        ((4, 4, 7, 9), "peel"),
        ((3, 4, 8, 9), "peel"),
        ((3, 3, 9, 9), "stop-rule-2"),
    ]
    assert all(set(l) == {"composition", "action", "label", "dim", "shift"} for l in rep["layers"])


def _plant_filtration_fault(monkeypatch, plant):
    """Break one check of the peeling chain of S_{3,4}(2,2,3,4): a peel to
    (1,2,4,4) with layer M^(2,3), then stop rule 2 with layer M^(1,2)."""
    real_label, real_w = submodules._peel_label, submodules.generators_w
    if plant == "peel-label":
        monkeypatch.setattr(
            submodules, "_peel_label", lambda b, i: real_label(b, i)[:-1] + (real_label(b, i)[-1] + 1,)
        )
    elif plant == "cyclic-seed":
        # the cyclic vector in place of w_2: its span is all of M^A
        monkeypatch.setattr(submodules, "generators_w", lambda b, i: [fusion_module(b).cyclic_vector()])
    elif plant == "seed-outside-kernel":
        # a basis vector outside the kernel whose span has the character of
        # the span of w_2, so that only the containment check sees it
        def seed(b, i):
            if b != (2, 2, 3, 4):
                return real_w(b, i)
            return [ModuleElement(fusion_module(b), {(2, 4): {0: 1}})]

        monkeypatch.setattr(submodules, "generators_w", seed)
    elif plant == "quotient":
        # the quotient character taken without removing the layer
        monkeypatch.setattr(modules.GradedCharacter, "__sub__", lambda self, other: self)


@pytest.mark.parametrize("plant", ["peel-label", "cyclic-seed", "seed-outside-kernel", "quotient"])
def test_planted_filtration_faults_fail(monkeypatch, plant):
    a, i = (2, 2, 3, 4), 3
    assert verify_filtration(a, i)["ok"]
    _plant_filtration_fault(monkeypatch, plant)
    rep = verify_filtration(a, i)
    assert not rep["ok"]
    if plant in ("seed-outside-kernel", "quotient"):
        # every layer character and the telescoping still hold
        assert rep["telescoped"] and [l["label"] for l in rep["layers"]] == [(2, 3), (1, 2)]
    record = cli.run_claim("filtration", (a, i), cli.RunConfig())
    assert (record["claim"], record["status"]) == ("filtration[(2, 2, 3, 4), 3]", "fail")
    assert not record.get("integrity")


def test_second_description_smallest():
    rep = verify_second_description((2, 3), 1)
    assert rep["ok"]
    assert rep["factors"] == ((), (2,))
    assert rep["span_dim"] == rep["kernel_dim"] == 2
    assert rep["string_ok"]


def test_second_description_middle_slot():
    rep = verify_second_description((2, 3, 4), 2)
    assert rep["ok"] and rep["kernel_dim"] == 4


def test_second_description_requires_strict_gap():
    with pytest.raises(ValueError, match="a_i"):
        verify_second_description((2, 2, 3), 1)


def test_emb_examples():
    rep = verify_emb((2, 5), 1)
    assert rep["ok"] and rep["span_dim"] == 4
    rep = verify_emb((2, 4, 7), 2)
    assert rep["ok"]
    with pytest.raises(ValueError, match="gap"):
        verify_emb((2, 3, 4), 1)
    with pytest.raises(ValueError, match="strictly"):
        verify_emb((2, 2, 3), 1)


def test_inductive_description():
    rep = verify_inductive_description((2, 3, 4), 1)
    assert rep["ok"] and rep["mode"] == "e0-span"
    rep = verify_inductive_description((2, 3), 1)
    assert rep["ok"] and rep["mode"] == "string-tensor" and rep["kernel_dim"] == 2
    rep = verify_inductive_description((2, 3, 4), 2)
    assert rep["ok"] and rep["kernel_dim"] == 4


def test_nilpotency_measurement():
    # the closed form undercounts by one on every tested input; the
    # measured order and the kill check are what the reports assert
    rep = nilpotency_e1((2, 2))
    assert rep["measured"] == 2 and rep["formula"] == 1 and rep["deviation"] == 1
    assert rep["kills_last"]
    assert nilpotency_e1((2, 3))["measured"] == 2
    assert nilpotency_e1((3, 3))["measured"] == 3
    for a in [(2, 2), (2, 3), (3, 3), (2, 3, 4), (1, 2, 3)]:
        rep = nilpotency_e1(a)
        assert rep["deviation"] == 1, (a, rep)
        assert rep["kills_last"]


def test_kernel_closure_under_all_variables():
    sub = submodule_S((2, 3, 4), 2)
    for el in sub.kernel().basis_elements():
        for j in range(3):
            assert sub.kernel().contains(el.apply(j))
