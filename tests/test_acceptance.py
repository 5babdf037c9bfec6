"""Acceptance gate: every stated claim at desk scale, exact arithmetic.

One test per criterion; each prints a single pass line on success (run with
-s or -v to see them).  Everything is compared exactly (tolerance zero).
The closed-form splitting multisets for n = 4, 5 are asserted faithfully in
a strict expected-failure test: three independent computations (the
legal-operations reduction, the section-count ladder and the vanishing-field
count) agree with each other and refute the stated formula there, while
matching it for n = 2, 3; the verified multiset has its own passing test.
"""

import io
import json
import re
import time
from itertools import combinations_with_replacement
from math import prod

import pytest

from oracle_utils import splitting_via_reduction, splitting_via_sections

from slfusion.cli import (
    RunConfig,
    composition_grid,
    emit,
    run_suite,
    valid_adjacent_moves,
)
from slfusion.dual import oracle_character
from slfusion.geometry import (
    cohomology_dim,
    expected_splitting,
    jacobian_identity,
    pullback_degree,
    transition_matrix,
    verify_transition_matrix,
    verify_vect_algebra,
)
from slfusion._goldens import TRANSITION_GOLDEN
from slfusion.laurent import splitting_type
from slfusion.modules import (
    fusion_module,
    label_character,
    match_characters,
    verify_tensor_embedding,
)
from slfusion.submodules import (
    eq_first_dim,
    submodule_S,
    verify_emb,
    verify_exactness,
    verify_filtration,
    verify_inductive_description,
    verify_second_description,
)


def test_c01_dimension_law():
    """dim M^A = prod a_i, exhaustively for n <= 4, entries <= 5."""
    start = time.perf_counter()
    grid = composition_grid(4, 5)
    assert len(grid) >= 125
    for a in grid:
        mod = fusion_module(a)
        assert mod.total_dim == prod(a), a
        assert mod.character().total() == prod(a), a
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"dimension grid took {elapsed:.0f}s"
    print(f"criterion 1 PASS: dimension law on {len(grid)} compositions "
          f"({elapsed:.1f}s)")


def test_c02_dual_oracle_equality():
    """Quotient characters equal the constrained-symmetric-function oracle."""
    cases = composition_grid(3, 5) + [a for a in composition_grid(4, 3) if len(a) == 4]
    for a in cases:
        assert oracle_character(a) == fusion_module(a).character(), a
    print(f"criterion 2 PASS: dual-oracle equality on {len(cases)} compositions")


def test_c03_kernel_dimensions():
    """Kernel dims match the closed product, with the first-slot model."""
    checked = 0
    for a in composition_grid(4, 5):
        for i in valid_adjacent_moves(a):
            sub = submodule_S(a, i)
            assert sub.dim == eq_first_dim(a, i), (a, i)
            assert verify_exactness(sub)["ok"], (a, i)
            if i == 1:
                ok, shift = match_characters(
                    sub.character(), label_character((a[1] - a[0] + 1,) + a[2:])
                )
                assert ok, (a, shift)
            checked += 1
    print(f"criterion 3 PASS: kernel dimensions on {checked} moves")


def test_c04_worked_filtration():
    """The four-step peeling chain with its exact layer labels and sizes."""
    start = time.perf_counter()
    rep = verify_filtration((4, 5, 6, 9), 3)
    elapsed = time.perf_counter() - start
    assert rep["ok"]
    assert [tuple(l["label"]) for l in rep["layers"]] == [
        (4, 8), (4, 6), (3, 5), (3, 3)]
    assert [l["dim"] for l in rep["layers"]] == [32, 24, 15, 9]
    assert rep["cokernel"] == {"label": (4, 5, 5, 10), "dim": 1000}
    assert sum(l["dim"] for l in rep["layers"]) + 1000 == 1080 == rep["dim"]
    assert elapsed < 300, f"filtration took {elapsed:.0f}s"
    print(f"criterion 4 PASS: worked filtration 32+24+15+9+1000 = 1080 "
          f"({elapsed:.1f}s)")


def test_c05_tensor_merge_law():
    """Diagonal spans of cyclic tensors match the merged composition."""
    checked = 0
    for a in composition_grid(3, 3):
        for b in composition_grid(len(a), 3):
            if len(b) <= len(a):
                rep = verify_tensor_embedding(a, b)
                assert rep["ok"], (a, b, rep)
                checked += 1
    print(f"criterion 5 PASS: tensor merge law on {checked} pairs")


def test_c06_descriptions_agree():
    """Both tensor descriptions match the kernel character up to one shift."""
    checked = 0
    for a in composition_grid(3, 5):
        n = len(a)
        if n < 2 or any(x >= y for x, y in zip(a, a[1:])):
            continue
        for i in range(1, n):
            rep = verify_second_description(a, i)
            assert rep["ok"], (a, i, rep)
            assert verify_inductive_description(a, i)["ok"], (a, i)
            checked += 2
            if all(a[j] - a[j - 1] > 1 for j in range(i + 1, n)):
                rep = verify_emb(a, i)
                assert rep["ok"], (a, i, rep)
                checked += 1
    print(f"criterion 6 PASS: descriptions agree on {checked} instances")


def test_c07_fields_transition_and_small_splitting():
    """Field algebra for n <= 6; matrix re-derivation; splitting for n = 2, 3."""
    for n in range(1, 7):
        rep = verify_vect_algebra(n)
        assert rep["ok"] and rep["rank"] == 4 * n - 1, (n, rep["failures"])
    for n, golden in TRANSITION_GOLDEN.items():
        got = [[str(x) for x in row] for row in transition_matrix(n)]
        assert got == golden, f"transition matrix n={n}"
        assert verify_transition_matrix(n, samples=8, seed=20240817)["ok"]
    assert splitting_type(transition_matrix(2)) == [2, 0, -2]
    assert splitting_type(transition_matrix(3)) == [2, 1, 1, 0, -1, -1, -2]
    print("criterion 7 PASS: field algebra n=1..6, matrix goldens n=3..5, "
          "splitting n=2,3")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated closed-form splitting is refuted at n >= 4 by four agreeing "
        "independent computations (certified factorization, greedy reduction, "
        "section ladder, vanishing-field count); see test_c07_splitting_verified_multiset"
    ),
)
def test_c07_splitting_stated_formula_n4_n5():
    """The literal closed-form multisets for n = 4, 5 (known-defective)."""
    for n in (4, 5):
        assert splitting_type(transition_matrix(n)) == expected_splitting(n), n


def test_c07_splitting_verified_multiset():
    """The splitting that the matrix actually has, agreed by three routes here."""
    for n, zeros in ((4, 5), (5, 9)):
        truth = [2, 1, 1] + [0] * zeros + [-1, -1, -2]
        mat = transition_matrix(n)
        factorization = splitting_type(mat)
        reduction = splitting_via_reduction(mat)
        sections = splitting_via_sections(mat)
        assert factorization == reduction == sections == truth, n
        # section count 4n-4 and degree sum 0, the two consequences the
        # downstream dimension argument needs, hold for the true multiset
        assert sum(max(0, d + 1) for d in truth) == 4 * n - 4
        assert sum(truth) == 0
    print("criterion 7 note: verified splitting multiset pinned for n=4,5")


def test_c08_jacobian_of_inversion():
    """det J(x -> 1/x) = (-1)^n / x_0^(2n) at 20 random rational points."""
    for n in range(1, 7):
        rep = jacobian_identity(n, samples=20, seed=8_100 + n)
        assert rep["ok"], (n, rep["failures"])
    print("criterion 8 PASS: inversion Jacobian n=1..6, 20 points each")


def test_c09_cohomology_recursion():
    """Recursion terminates at prod(a_i + 1); worked chain; pullback counts."""
    checked = 0
    for n in range(1, 5):
        for label in combinations_with_replacement(range(5), n):
            rep = cohomology_dim(label)
            assert rep["dim"] == prod(x + 1 for x in label), label
            checked += 1
    rep = cohomology_dim((2, 3, 4))
    assert rep["dim"] == 60
    assert rep["trace"][-1] == "= 60"
    for a in composition_grid(4, 5):
        pb = pullback_degree(a)
        assert pb["ok"] and pb["sections"] == prod(a), a
    print(f"criterion 9 PASS: recursion on {checked} labels, chain (2,3,4) -> 60, "
          "pullback counts over the dimension grid")


def _verify_all_json(seed: int) -> str:
    cfg = RunConfig(max_n=2, max_entry=3, samples=4, seed=seed)
    reports = run_suite("all", cfg)
    buf = io.StringIO()
    emit(reports, "json", out=buf)
    return buf.getvalue()


def test_c10_determinism():
    """Two runs of the full suite with one seed agree modulo timing."""
    first = _verify_all_json(7)
    second = _verify_all_json(7)
    strip = lambda s: re.sub(r'"ms": \d+', '"ms": 0', s)
    assert strip(first) == strip(second)
    records = [json.loads(line) for line in first.strip().splitlines()]
    assert all(
        set(r) >= {"claim", "anchor", "inputs", "expected", "got", "shift", "status", "ms"}
        for r in records
    )
    print(f"criterion 10 PASS: deterministic verify-all stream "
          f"({len(records)} reports)")
