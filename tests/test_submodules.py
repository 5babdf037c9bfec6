"""Move surjections, their kernels, and the three kernel descriptions."""

import re
from itertools import combinations_with_replacement

import pytest

from oracle_utils import cyclic_span_reference, rref_kernel, subspace_intersection

from slfusion import modules, submodules
from slfusion.linalg import IntegrityError, mono_degree, mono_weight, poly_var, rref
from slfusion.modules import (
    ModuleElement,
    Subspace,
    fusion_module,
    label_character,
    match_characters,
)
from slfusion.submodules import (
    QuotientMap,
    Submodule,
    eq_first_dim,
    generators_w,
    move_composition,
    nilpotency_e1,
    span_of_w,
    submodule_S,
    verify_emb,
    verify_exactness,
    verify_filtration,
    verify_inductive_description,
    verify_second_description,
    verify_sum_decomposition,
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
    with pytest.raises(ValueError, match="nonpositive"):
        QuotientMap((1, 1), 1, 2)
    with pytest.raises(ValueError, match="unsorted"):
        QuotientMap((2, 2, 2), 2, 3)
    # the non-strict path names the same ideal through the sorted label
    sub = submodule_S((2, 2, 3, 3), 2, strict=False)
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
        qmap = QuotientMap(a, i, i + 1, strict=False)
        want = Subspace(qmap.source)
        for ks, piece in qmap.source.pieces.items():
            if not piece.dim:
                continue
            # the dense map matrix: row r is the image of source monomial r
            tdim = qmap.target.dim_piece(*ks)
            rows = []
            for m in piece.basis:
                red = qmap.target.reduce_monomial(m)
                rows.append(list(red[1]) if red else [0] * tdim)
            assert rref(rows, tdim)[0] == tdim, (a, i, ks)
            for vec in rref_kernel([list(col) for col in zip(*rows)], piece.dim):
                want.insert(ModuleElement(qmap.source, {ks: vec}))
        assert qmap.kernel() == want, (a, i)
        assert want.dim == qmap.source.total_dim - qmap.target.total_dim


def test_move_map_surjectivity_gate_fires(monkeypatch):
    target = fusion_module((1, 4))
    real = target.normal_form
    # zero the images in one bidegree where the target is nonzero
    ks = next(ks for ks, p in sorted(target.pieces.items()) if ks[0] and p.dim)

    def planted(m):
        return None if (mono_degree(m), mono_weight(m)) == ks else real(m)

    monkeypatch.setattr(target, "normal_form", planted)
    with pytest.raises(IntegrityError, match="not surjective"):
        QuotientMap((2, 3), 1, 2)


def test_move_map_surjectivity_gate_fires_on_a_missing_source_monomial(monkeypatch):
    source, target = fusion_module((2, 3, 4)), fusion_module((2, 2, 5))
    # a target basis monomial dropped from a source basis that keeps others
    ks, tpiece = next(
        (ks, p) for ks, p in sorted(target.pieces.items()) if p.dim and source.dim_piece(*ks) > 1
    )
    piece = source.pieces[ks]
    monkeypatch.setattr(piece, "basis", [m for m in piece.basis if m != tpiece.basis[0]])
    with pytest.raises(IntegrityError, match=re.escape(f"not surjective at {ks}")):
        QuotientMap((2, 3, 4), 2, 3)


def test_move_map_well_definedness_gate_fires(monkeypatch):
    fusion_module((2, 3)), fusion_module((1, 4))  # built before the plant
    real = modules.ideal_generators
    # a planted source relation e_0 that does not vanish in the target
    monkeypatch.setattr(
        modules, "ideal_generators", lambda a: real(a) + [(1, 0, poly_var(len(a), 0))]
    )
    with pytest.raises(IntegrityError, match="not well defined"):
        QuotientMap((2, 3), 1, 2)


def test_kernel_closure_gate_fires():
    qmap = QuotientMap((2, 3, 4), 2, 3)
    assert Submodule.from_map(qmap).dim == eq_first_dim((2, 3, 4), 2)
    # the kernel with its top bidegree removed: e_l maps the bidegrees
    # just below it out of the planted subspace
    planted = qmap.kernel()
    del planted.spans[max(planted.spans)]
    with pytest.raises(IntegrityError, match=r"not closed under e_\d"):
        Submodule((2, 3, 4), (2, 3), qmap.source, planted, qmap)


GRID = [a for n in range(1, 5) for a in combinations_with_replacement(range(1, 5), n)]


def test_cyclic_span_matches_reference(monkeypatch):
    """Every span the claims take on the n <= 4, entries <= 4 grid equals
    the breadth-first reference span."""
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
            span_of_w(a, i)
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
    assert seen == {"w": 155, "peel": 19, "demazure": 65, "tg": 240, "descriptions": 46}


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
    assert w1.coords == mod.poly_class({(0, 1): 1}).coords
    assert submodule_S((2, 2), 1).character().table == {(1, 1): 1}
    ws = generators_w((2, 3), 1)
    assert len(ws) == 2
    assert span_of_w((2, 3), 1).dim == 2


def test_w_zero_index_is_cyclic_vector():
    mod = fusion_module((1, 2))
    ws = generators_w((1, 2), 1)
    assert ws[0].coords == mod.cyclic_vector().coords


def test_w_generators_span_kernel():
    for a, i in [((2, 2), 1), ((2, 3), 1), ((2, 3, 4), 1), ((2, 3, 4), 2)]:
        rep = verify_w_generators(submodule_S(a, i))
        assert rep["ok"], (a, i, rep)
        assert all(rep["membership"])


def test_sum_decomposition():
    rep = verify_sum_decomposition((2, 3, 4), 1, 3)
    assert rep["ok"] and rep["sum_dim"] == 9
    rep = verify_sum_decomposition((2, 3, 4), 1, 2)
    assert rep["ok"]


def test_intersection_inclusion_exclusion():
    s12 = submodule_S((2, 3, 4), 1)
    s23 = submodule_S((2, 3, 4), 2)
    s13 = submodule_S((2, 3, 4), 1, 3, strict=False)
    meet = subspace_intersection(s12.subspace, s23.subspace)
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
    assert rep["steps"][0]["action"] == "stop-rule-1"
    assert rep["layers"][0]["label"] == (2,)


def test_filtration_recursive_step():
    rep = verify_filtration((2, 3, 4), 2)
    assert rep["ok"]
    actions = [s["action"] for s in rep["steps"]]
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
    for el in sub.subspace.basis_elements():
        for j in range(3):
            assert sub.subspace.contains(el.apply(poly_var(3, j)))
