"""Command-line interface: commands, exit codes, reports, caching."""

import argparse
import hashlib
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from oracle_utils import ideal_generators, ideal_rows
from test_submodules import _plant_filtration_fault

from slfusion import cache as cache_mod
from slfusion import cli, dual, geometry, laurent, modules, submodules
from slfusion.cache import ModuleCache
from slfusion.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    RunConfig,
    claim_seed,
    main,
    run_suite,
)
from slfusion.linalg import IntegrityError
from slfusion.modules import FusionModule


def subprocess_env() -> dict:
    """The environment, with this checkout's sources first on PYTHONPATH."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_output(capsys):
    code, out, _ = run(capsys, "build", "--a", "2,2")
    assert code == EXIT_OK
    assert "dim = 4" in out
    assert "character = 1 + u + u q + u^2" in out


def test_build_rejects_unsorted(capsys):
    code, _, err = run(capsys, "build", "--a", "2,1")
    assert code == 2
    assert "nondecreasing" in err


def test_character_command(capsys):
    code, out, _ = run(capsys, "character", "--a", "1")
    assert code == EXIT_OK and "dim = 1" in out


def test_submodule_command(capsys):
    code, out, _ = run(capsys, "submodule", "--a", "2,3", "--i", "1")
    assert code == EXIT_OK
    assert "dim = 2" in out


def test_submodule_move_errors_are_usage_errors(capsys):
    code, _, err = run(capsys, "submodule", "--a", "1,2", "--i", "1")
    assert code == 2 and "move produces a nonpositive entry" in err
    code, _, err = run(capsys, "submodule", "--a", "2,2,2", "--i", "2")
    assert code == 2 and "gives the unsorted label (2, 1, 3)" in err
    assert "Traceback" not in err


def test_filtration_command(capsys):
    code, out, _ = run(capsys, "filtration", "--a", "2,2,3", "--i", "1")
    assert code == EXIT_OK
    assert "M^(1,3)" in out
    code, _, err = run(capsys, "filtration", "--a", "2,2,3", "--i", "5")
    assert code == 2


def test_filtration_command_prints_the_worked_chain(capsys):
    code, out, _ = run(capsys, "filtration", "--a", "4,5,6,9", "--i", "3")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "peeling chain for the kernel at slot 3 of (4, 5, 6, 9):",
        "  (4, 5, 6, 9) -> layer M^(4,8)  [peel]",
        "  (4, 4, 7, 9) -> layer M^(4,6)  [peel]",
        "  (3, 4, 8, 9) -> layer M^(3,5)  [peel]",
        "  (3, 3, 9, 9) -> layer M^(3,3)  [stop-rule-2]",
        "layer dims: 32 + 24 + 15 + 9 + cokernel 1000 = 1080",
        "parent dim: 1080  telescoped: True",
        "shifts: [(5, 12), (6, 12), (7, 12), (8, 12)]",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--a", "99999999999"],
        ["character", "--a", "99999999999"],
        ["submodule", "--a", "2,99999999999", "--i", "1"],
        ["filtration", "--a", "2,99999999999", "--i", "1"],
        ["verify", "dims", "--max-n", "13", "--max-entry", "2"],
    ],
)
def test_label_over_the_size_guard_is_a_usage_error(capsys, monkeypatch, argv):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a module build was started")

    monkeypatch.setattr(FusionModule, "__init__", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"more than {cli.MAX_AMBIENT_MONOMIALS} ambient monomials" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["cohomology", "all"])
def test_pullback_label_over_the_section_recursion_bound_is_a_usage_error(capsys, monkeypatch, suite):
    # pullback[[12]] counts the sections of the label (11,), past a bound of 10
    monkeypatch.setattr(geometry, "MAX_LABEL_SUM", 10)
    code, out, err = run(capsys, "verify", suite, "--max-n", "1", "--max-entry", "12",
                         "--format", "json")
    assert code == 2 and out == ""
    assert "--max-entry 12" in err and "more than 10" in err
    assert "Traceback" not in err


def test_pullback_grid_over_the_summed_step_bound_is_a_usage_error():
    # the labels (1), .., (10001) each pass the label bound, but together
    # their claims take 50,005,000 R1 steps: refused before any claim runs,
    # in a subprocess under a timeout, since running them would not finish
    done = subprocess.run(
        [sys.executable, "-m", "slfusion.cli", "verify", "cohomology", "--max-n", "1",
         "--max-entry", "10001", "--format", "json"],
        capture_output=True, env=subprocess_env(), text=True, timeout=30,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "--max-entry 10001" in done.stderr and "50005000" in done.stderr
    assert f"more than {cli.MAX_PULLBACK_STEPS}" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("bound, code", [(65, 2), (66, EXIT_OK)])
def test_pullback_step_bound_counts_every_claim_of_the_grid(capsys, monkeypatch, bound, code):
    # pullback[(1)] .. pullback[(12)] take 0 + 1 + .. + 11 = 66 steps
    monkeypatch.setattr(cli, "MAX_PULLBACK_STEPS", bound)
    got, out, err = run(capsys, "verify", "cohomology", "--max-n", "1", "--max-entry", "12",
                        "--format", "json")
    assert got == code
    if code == 2:
        assert out == "" and "give pullback claims of 66 section-recursion steps" in err
    else:
        assert sum('"claim": "pullback' in line for line in out.splitlines()) == 12


def test_suites_without_pullback_ignore_the_section_recursion_bound(capsys, monkeypatch):
    monkeypatch.setattr(geometry, "MAX_LABEL_SUM", 10)
    code, out, _ = run(capsys, "verify", "dims", "--max-n", "1", "--max-entry", "12",
                       "--format", "json")
    assert code == EXIT_OK and len(out.splitlines()) == 12


def test_size_guard_passes_the_largest_labels_in_use():
    # (2^12) has C(25, 12) = 5,200,300 ambient monomials, (2^13) has C(27, 13)
    for a in [(2,) * 12, (3,) * 8, (4,) * 6, (5,) * 5, (99999,)]:
        assert cli.sized_label(a) == a
    with pytest.raises(argparse.ArgumentTypeError, match="ambient monomials"):
        cli.sized_label((2,) * 13)


def test_cohomology_command(capsys):
    code, out, _ = run(capsys, "cohomology", "--a", "2,3,4")
    assert code == EXIT_OK
    assert "dim = 60" in out


def test_a_wrong_section_count_exits_1(capsys, monkeypatch):
    # a recursion that misses the product formula is a verdict, not an
    # integrity error
    _plant_section_product(monkeypatch)
    code, out, _ = run(capsys, "cohomology", "--a", "1,2")
    assert code == EXIT_FAIL
    assert "dim = 9 (product formula 7)" in out


def test_splitting_command(capsys):
    code, out, _ = run(capsys, "splitting", "--n", "3")
    assert code == EXIT_OK
    assert "[2, 1, 1, 0, -1, -1, -2]" in out
    code, out, _ = run(capsys, "splitting", "--n", "4")
    assert code == EXIT_FAIL  # honest divergence from the closed-form claim
    assert "differs" in out
    code, out, _ = run(capsys, "splitting", "--n", "6")
    assert code == EXIT_FAIL
    assert str([2, 1, 1] + [0] * 13 + [-1, -1, -2]) in out
    assert "differs" in out


def test_splitting_over_the_cap_is_a_usage_error(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"transition_matrix({n}) was called")

    monkeypatch.setattr(geometry, "transition_matrix", refuse)
    code, out, err = run(capsys, "splitting", "--n", str(cli.MAX_SPLITTING_N + 1))
    assert code == 2 and out == ""
    assert f"need --n at most {cli.MAX_SPLITTING_N}" in err


def test_transition_claim_builds_the_matrix_once(monkeypatch):
    calls = []
    build = geometry.transition_matrix

    def counted(n):
        calls.append(n)
        return build(n)

    monkeypatch.setattr(geometry, "transition_matrix", counted)
    for n in (2, 3, 4):
        calls.clear()
        rep = cli.run_claim("transition", (n,), RunConfig())
        assert rep["status"] == "pass"
        assert calls == [n]


def test_invert_command(capsys):
    code, out, _ = run(capsys, "invert", "--a", "1,1,0")
    assert code == EXIT_OK
    assert out.strip() == "1,-1,1"
    code, _, err = run(capsys, "invert", "--a", "0,1")
    assert code == 2


def test_invert_rejects_zero_denominator(capsys):
    code, _, err = run(capsys, "invert", "--a", "1,1/0")
    assert code == 2
    assert "Traceback" not in err


def test_cohomology_over_the_sum_limit_is_a_usage_error(capsys):
    code, _, err = run(capsys, "cohomology", "--a", "10001")
    assert code == 2
    assert "sum to at most 10000" in err


def test_unknown_suite_usage_error(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2


def test_jobs_out_of_range_usage_error(capsys):
    # only the two edges: a large value would fork that many workers
    for jobs in (0, (os.cpu_count() or 1) + 1):
        code, out, err = run(capsys, "verify", "dims", "--max-n", "1", "--jobs", str(jobs))
        assert code == 2 and out == ""
        assert "--jobs" in err


@pytest.mark.parametrize("jobs", [0, -3, (os.cpu_count() or 1) + 1])
def test_run_suite_rejects_jobs_out_of_range(monkeypatch, jobs):
    # the bound is checked before the pool starts, so no worker is ever forked
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(cli.os, "fork", no_fork)
    with pytest.raises(ValueError, match="jobs must be between 1 and the CPU count"):
        run_suite("dims", RunConfig(max_n=1, max_entry=2, jobs=jobs))


def test_jobs_above_one_without_fork_is_a_usage_error(capsys, monkeypatch):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs as many CPUs as workers")
    monkeypatch.delattr(cli.os, "fork", raising=False)
    with pytest.raises(ValueError, match="os.fork"):
        run_suite("dims", RunConfig(max_n=1, max_entry=2, jobs=2))
    code, out, err = run(capsys, "verify", "dims", "--max-n", "1", "--jobs", "2")
    assert code == EXIT_USAGE and out == ""
    assert "--jobs above 1 needs os.fork" in err
    assert run_suite("dims", RunConfig(max_n=1, max_entry=2))  # one job needs no fork


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv", [["verify", "dims", "--max-n", "3", "--format", "json"], ["build", "--a", "2,2"]]
)
def test_closed_stdout_pipe_exits_141_without_traceback(argv, unbuffered):
    # the read end is closed before the command writes, as when ``head`` has
    # already left: buffered output meets the broken pipe at the final flush,
    # unbuffered output at its first write
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "slfusion.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_PIPE == 141
    assert done.stderr == ""


def test_cache_dir_only_on_commands_that_use_it(capsys, tmp_path):
    code, _, err = run(capsys, "submodule", "--a", "2,3", "--i", "1", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "--cache-dir" in err


def test_verify_dims_small(capsys):
    code, out, _ = run(capsys, "verify", "dims", "--max-n", "2", "--max-entry", "3")
    assert code == EXIT_OK
    assert "failed" not in out.split("\n")[-2] or "0 failed" in out


def test_verify_json_deterministic(capsys):
    args = ["verify", "dual-oracle", "--max-n", "2", "--max-entry", "2",
            "--seed", "7", "--format", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    strip = lambda s: re.sub(r'"ms": \d+', '"ms": 0', s)
    assert strip(out1) == strip(out2)
    for line in out1.strip().splitlines():
        rec = json.loads(line)
        assert set(rec) >= {"claim", "anchor", "inputs", "expected", "got", "shift", "status", "ms"}


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "vectorfields", "--format", "csv")
    assert code == EXIT_OK
    header = out.splitlines()[0]
    assert header == "claim,anchor,status,expected,got,shift,ms"


def test_claim_seed_stability():
    assert claim_seed(7, "chart[3]") == claim_seed(7, "chart[3]")
    assert claim_seed(7, "chart[3]") != claim_seed(8, "chart[3]")


def test_run_suite_reports_sorted():
    cfg = RunConfig(max_n=2, max_entry=2)
    reports = run_suite("dims", cfg)
    claims = [r["claim"] for r in reports]
    assert claims == sorted(claims)
    assert all(r["status"] == "pass" for r in reports)


def test_records_do_not_depend_on_claim_order(monkeypatch):
    # the move-map and tensor-merge memos fill up in claim order; run from
    # empty memos with the claims reversed, every record must come out the
    # same apart from ms
    cfg = RunConfig(max_n=3, max_entry=3)

    def records():
        monkeypatch.setattr(submodules, "_MAP_CACHE", {})
        monkeypatch.setattr(modules, "_MERGE_CACHE", {})
        return [{k: v for k, v in r.items() if k != "ms"} for r in run_suite("all", cfg)]

    forward = records()
    real = cli.suite_claims
    monkeypatch.setattr(cli, "suite_claims", lambda suite, cfg: real(suite, cfg)[::-1])
    assert cli.suite_claims("all", cfg) == real("all", cfg)[::-1]
    assert len(forward) == 456 and records() == forward


def test_verify_all_stream_matches_benchmark_reference():
    # the byte-identity contract of the verify-all stream, at the benchmark's
    # tiny bounds; the reference and its normalization live in perfbench/
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    want = json.loads((bench / "reference.json").read_text())["verify-all-tiny"]
    seed = 5
    reports = run_suite("all", RunConfig(max_n=2, max_entry=2, samples=2, seed=seed))
    assert workloads.stream_reference(reports, seed)["stream_sha256"] == want["stream_sha256"]


def test_every_kind_names_a_suite():
    assert cli.SUITES == ("dims", "dual-oracle", "submodules", "filtration", "descriptions",
                          "vectorfields", "transition", "splitting", "cohomology", "all")
    for kind, (anchor, suite, check, params) in cli.CLAIM_KINDS.items():
        assert suite in cli.SUITES, kind
        assert callable(check) and callable(params), kind


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(max_n=2, max_entry=3)])
def test_named_suites_partition_verify_all(cfg):
    named = [claim for suite in cli.SUITES if suite != "all" for claim in cli.suite_claims(suite, cfg)]
    everything = cli.suite_claims("all", cfg)
    assert sorted(map(repr, named + [("cache-spot", ())])) == sorted(map(repr, everything))
    assert len(set(map(repr, everything))) == len(everything)


def test_only_n_restricts_the_n_indexed_kinds():
    claims = cli.suite_claims("all", RunConfig(max_n=1, max_entry=1, only_n=3))
    n_indexed = {"vect", "jacobian", "chart", "transition", "splitting"}
    assert sorted(c for c in claims if c[0] in n_indexed) == sorted(
        (kind, (3,)) for kind in n_indexed
    )


def test_every_claim_kind_has_a_benchmark_group():
    # perfbench's layer_metrics looks every traced claim kind up in CLAIM_GROUPS
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", bench / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(cli.CLAIM_KINDS) <= set(tracing.CLAIM_GROUPS)


def test_check_without_verdict_fails_not_skips(monkeypatch):
    # only the explicit SKIPPED marker skips a claim
    verdictless = lambda cfg, claim, a: ({"a": a}, 1, 1, None, None)
    anchor, suite, _, params = cli.CLAIM_KINDS["dims"]
    monkeypatch.setitem(cli.CLAIM_KINDS, "dims", (anchor, suite, verdictless, params))
    (rep,) = run_suite("dims", RunConfig(max_n=1, max_entry=1))
    assert rep["status"] == "fail"


def _plant_w_exponent(monkeypatch):
    # generators_w takes the slice one z-power past N_A(j)
    real = submodules.relation_exponent
    monkeypatch.setattr(submodules, "relation_exponent", lambda a, k: real(a, k) + 1)


def _plant_reindex(monkeypatch):
    # the reindexed kernel elements land at (1,) + m instead of (0,) + m
    real = FusionModule.poly_class

    def poly_class(self, p):
        return real(self, {(m[0] + 1,) + m[1:]: c for m, c in p.items()})

    monkeypatch.setattr(FusionModule, "poly_class", poly_class)


def _plant_string_rung(monkeypatch):
    # the second factor's e-string gets one rung too many
    real = submodules._span_vs_kernel

    def span_vs_kernel(a, i, factor1, factor2):
        return real(a, i, factor1, (factor2[0] + 1,) + factor2[1:])

    monkeypatch.setattr(submodules, "_span_vs_kernel", span_vs_kernel)


def _plant_first_factor(monkeypatch):
    # the first factor's top entry one too large
    real = submodules._span_vs_kernel

    def span_vs_kernel(a, i, factor1, factor2):
        return real(a, i, factor1[:-1] + (factor1[-1] + 1,), factor2)

    monkeypatch.setattr(submodules, "_span_vs_kernel", span_vs_kernel)


def _plant_dropped_operator(monkeypatch):
    # the demazure span loses its last operator
    real = modules.cyclic_span
    monkeypatch.setattr(modules, "cyclic_span", lambda owner, ops, seeds: real(owner, list(ops)[:-1], seeds))


def _plant_e1_squared(monkeypatch):
    # e_1 acts as e_1^2, which halves the measured nilpotency order
    real = modules.ModuleElement.apply

    def apply(self, op):
        return real(real(self, op), op) if op == 1 else real(self, op)

    monkeypatch.setattr(modules.ModuleElement, "apply", apply)


def _planted_record(monkeypatch, kind, params, plant):
    """(status, integrity) of the claim on a default-grid parameter, run once
    to pass and once more under the plant, with every memo it reads fresh."""
    cfg = RunConfig()
    assert params in cli.CLAIM_KINDS[kind][3](cfg)
    assert cli.run_claim(kind, params, cfg)["status"] == "pass"
    monkeypatch.setattr(modules, "_MODULE_CACHE", {})
    monkeypatch.setattr(submodules, "_MAP_CACHE", {})
    monkeypatch.setattr(modules, "_MERGE_CACHE", {})
    _clear_dual_memos()
    try:
        plant(monkeypatch)
        record = cli.run_claim(kind, params, cfg)
    finally:
        _clear_dual_memos()
    return record["status"], record.get("integrity")


def _clear_dual_memos():
    for f in vars(dual).values():
        if hasattr(f, "cache_clear") and f.__module__ == dual.__name__:
            f.cache_clear()


def _wrap(monkeypatch, owner, name, wrapper):
    """Replace ``owner.name`` by ``wrapper(real, *args)``."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: wrapper(real, *args))


def _plant_generator_exponent(monkeypatch):
    # the build takes one z-power of E(z)^k past N_A(k) into the ideal
    _wrap(monkeypatch, modules, "relation_exponent", lambda real, a, k: real(a, k) + 1)


def _plant_dual_cap(monkeypatch):
    # the dual constraints z^m with m < N_A(i) + 1: one cap too many
    _wrap(monkeypatch, dual, "relation_exponent", lambda real, a, k: real(a, k) + 1)


def _plant_dropped_degree_one(monkeypatch):
    # the shuffle products leave out the last degree-one basis element
    _wrap(monkeypatch, dual, "_shuffle_powers", lambda real, base, k: real(base[:-1], k))


def _plant_wrong_binomial(monkeypatch):
    # binom(n, k) + 1 for 0 < k < n in the closed shuffle coefficient
    _wrap(monkeypatch, dual, "comb", lambda real, n, k: real(n, k) + (0 < k < n))


def _plant_diag_on_first_factor(monkeypatch):
    # the diagonal e_j acts on the first tensor factor only
    monkeypatch.setattr(modules.TensorModule, "op_diag", lambda self, j: ("factor", 0, j))


def _plant_swapped_bracket(monkeypatch):
    # [v, w] computed as [w, v]
    _wrap(monkeypatch, geometry, "bracket", lambda real, v, w: real(w, v))


def _plant_dropped_chart_term(monkeypatch):
    # the y-frame expansion of h_i loses its 2 y^-1 f_{i+1} term
    _wrap(monkeypatch, geometry, "chart_change_terms",
          lambda real, kind, i: real(kind, i)[:1] if kind == "h" else real(kind, i))


def _plant_doubled_inverse_coefficient(monkeypatch):
    # the inversion recurrence doubles its second coefficient
    def doubled(real, p, *ops):
        out = real(p, *ops)
        add = ops[2] if len(ops) > 2 else (lambda x, y: x + y)
        out[1] = add(out[1], out[1])
        return out

    _wrap(monkeypatch, geometry, "inverse_numerators", doubled)


def _plant_doubled_matrix_entry(monkeypatch):
    # the (0, 0) entry of the transition matrix doubled
    def doubled(real, n):
        mat = real(n)
        mat[0][0] = mat[0][0] + mat[0][0]
        return mat

    _wrap(monkeypatch, geometry, "transition_matrix", doubled)


def _plant_twist_off_by_one(monkeypatch):
    # every twist row's b shifted by one: the rung recorded as k takes the
    # rows b < -(k + 1) and so solves for y^(k+1) M g
    _wrap(
        monkeypatch, laurent, "_twist_rows",
        lambda real, m, bound: {(b + 1, r): row for (b, r), row in real(m, bound).items()},
    )


def _plant_section_product(monkeypatch):
    # every product in the section recursion one too large
    _wrap(monkeypatch, geometry, "prod", lambda real, values: real(values) + 1)


# one planted fault per claim kind but cache-spot, which checks a store and
# load round trip rather than a layer of its own
PLANTED_FAULTS = [
    pytest.param("dims", ((2, 3),), _plant_generator_exponent, True, id="dims"),
    pytest.param("dual", ((2, 3, 3),), _plant_dual_cap, None, id="dual"),
    pytest.param("ring", ((2, 3), 2), _plant_dropped_degree_one, None, id="ring"),
    pytest.param(
        "ring", ((2, 3), 2), _plant_wrong_binomial, None, id="ring-binomial",
        marks=pytest.mark.xfail(
            strict=True,
            reason="every degree-one basis element at n <= 2 is a single m-term, so a wrong "
            "shuffle coefficient only rescales a product; (2, 2, 2) at k = 2 is the first "
            "label that sees it, and the pinned ring grid stops at n = 2",
        ),
    ),
    pytest.param("tg", ((2, 3), (2, 3)), _plant_diag_on_first_factor, None, id="tg"),
    pytest.param("vect", (3,), _plant_swapped_bracket, None, id="vect"),
    pytest.param("chart", (3,), _plant_dropped_chart_term, None, id="chart"),
    pytest.param("jacobian", (3,), _plant_doubled_inverse_coefficient, None, id="jacobian"),
    pytest.param("transition", (3,), _plant_doubled_matrix_entry, None, id="transition"),
    # the Birkhoff certificate turns a wrong ladder into an integrity
    # fault: a wrong exponent is never returned
    pytest.param("splitting", (3,), _plant_twist_off_by_one, True, id="splitting"),
    pytest.param(
        "filtration", ((2, 2, 3, 4), 3),
        lambda mp: _plant_filtration_fault(mp, "seed-outside-kernel"), None, id="filtration",
    ),
    pytest.param("cohomology", ((1, 2),), _plant_section_product, None, id="cohomology"),
    pytest.param("pullback", ((2, 3),), _plant_section_product, None, id="pullback"),
    pytest.param("submodule", ((2, 3, 4), 2), _plant_w_exponent, None, id="submodule"),
    pytest.param("inductive", ((2, 3, 4), 1), _plant_reindex, None, id="inductive"),
    pytest.param("mprop", ((2, 3, 4), 1), _plant_string_rung, None, id="mprop"),
    pytest.param("emb", ((1, 2, 4), 1), _plant_first_factor, None, id="emb"),
    pytest.param("demazure", ((2, 3, 3),), _plant_dropped_operator, None, id="demazure"),
    pytest.param(
        "nilpotency", ((2, 3, 3),), _plant_e1_squared, None, id="nilpotency",
        marks=pytest.mark.xfail(
            strict=True,
            reason="nilpotency passes on kills_last, which the measuring loop makes true by "
            "construction; the stated order is reported as a deviation, not asserted",
        ),
    ),
]


@pytest.mark.parametrize("kind, params, plant, integrity", PLANTED_FAULTS)
def test_claim_kinds_fail_on_a_planted_fault(monkeypatch, kind, params, plant, integrity):
    # one fault in the layer each kind checks fails its claim on one
    # default-grid parameter: a fail record, or an integrity record where a
    # self-check of the layer sees the fault first
    assert _planted_record(monkeypatch, kind, params, plant) == ("fail", integrity)


def test_every_claim_kind_has_a_planted_fault():
    assert {row.values[0] for row in PLANTED_FAULTS} == set(cli.CLAIM_KINDS) - {"cache-spot"}


@pytest.mark.parametrize("jobs", [1, 2])
def test_crashing_claim_is_reported_as_error(capsys, monkeypatch, jobs):
    if jobs > 1 and not hasattr(os, "fork"):
        pytest.skip("the patched claim table reaches workers only through fork")
    if jobs > (os.cpu_count() or 1):
        pytest.skip("needs as many CPUs as workers")
    anchor, suite, real, params = cli.CLAIM_KINDS["dims"]

    def crash_on_2_3(cfg, claim, a):
        if a == (2, 3):
            raise ZeroDivisionError("planted")
        return real(cfg, claim, a)

    monkeypatch.setitem(cli.CLAIM_KINDS, "dims", (anchor, suite, crash_on_2_3, params))
    code, out, err = run(capsys, "verify", "dims", "--max-n", "2", "--max-entry", "3",
                         "--format", "json", "--jobs", str(jobs))
    assert code == EXIT_ERROR == 4
    records = {r["claim"]: r for r in map(json.loads, out.splitlines())}
    assert len(records) == len(cli.suite_claims("dims", RunConfig(max_n=2, max_entry=3)))
    crashed = records.pop("dims[(2, 3)]")
    assert crashed["status"] == "error"
    assert crashed["got"] == "ZeroDivisionError: planted"
    assert all(r["status"] == "pass" for r in records.values())
    if jobs == 1:  # worker processes write to the real stderr
        assert "ZeroDivisionError" in err

    code, out, _ = run(capsys, "verify", "dims", "--max-n", "2", "--max-entry", "3",
                       "--jobs", str(jobs))
    assert code == EXIT_ERROR
    assert out.splitlines()[-1].endswith(", 1 error")


def test_worker_dying_mid_batch_reports_every_claim(capsys, monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("the patched claim table reaches workers only through fork")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs as many CPUs as workers")
    anchor, suite, real, params = cli.CLAIM_KINDS["dims"]

    def exit_on_2_2(cfg, claim, a):
        if a == (2, 2):  # the second claim of the |A| = 4 batch
            os._exit(1)
        return real(cfg, claim, a)

    def overdue(signum, frame):
        raise TimeoutError("the pool did not finish after a worker died")

    monkeypatch.setitem(cli.CLAIM_KINDS, "dims", (anchor, suite, exit_on_2_2, params))
    old = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(60)
    try:
        code, out, _ = run(capsys, "verify", "dims", "--max-n", "2", "--max-entry", "3",
                           "--format", "json", "--jobs", "2")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert code == EXIT_ERROR == 4
    records = [json.loads(line) for line in out.splitlines()]
    want = cli.suite_claims("dims", RunConfig(max_n=2, max_entry=3))
    assert sorted(r["claim"] for r in records) == sorted(cli.claim_id(*c) for c in want)
    # the planted claim's |A| = 4 batch is rerun alone and its worker dies
    # again; every other batch comes back from a live worker and passes
    batch = {cli.claim_id(*c) for c in want if sum(c[1][0]) == 4}
    assert batch == {"dims[(1, 3)]", "dims[(2, 2)]"}
    for r in records:
        assert r["status"] == ("error" if r["claim"] in batch else "pass"), r


def _pool_needed():
    if not hasattr(os, "fork") or (os.cpu_count() or 1) < 2:
        pytest.skip("needs os.fork and as many CPUs as workers")


def _run_pool(suite: str, cfg: RunConfig) -> list[dict]:
    """``run_suite(suite, cfg)``, failing with TimeoutError if the pool hangs."""
    def overdue(signum, frame):
        raise TimeoutError("the pool did not finish")

    old = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(60)
    try:
        return run_suite(suite, cfg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _plant_dims(monkeypatch, plant):
    """Run ``plant(a, record fields)`` in the dims check; it may act or replace them."""
    anchor, suite, real, params = cli.CLAIM_KINDS["dims"]
    check = lambda cfg, claim, a: plant(a, real(cfg, claim, a))
    monkeypatch.setitem(cli.CLAIM_KINDS, "dims", (anchor, suite, check, params))


# the |A| = 4 batch of the dims claims at --max-n 2 --max-entry 3
DIMS_BATCH_4 = {"dims[(1, 3)]", "dims[(2, 2)]"}


def test_a_worker_killed_mid_batch_costs_only_its_batch(monkeypatch):
    _pool_needed()

    def kill_on_2_2(a, fields):
        if a == (2, 2):
            os.kill(os.getpid(), signal.SIGKILL)
        return fields

    _plant_dims(monkeypatch, kill_on_2_2)
    records = _run_pool("dims", RunConfig(max_n=2, max_entry=3, jobs=2))
    assert len(records) == len(cli.suite_claims("dims", RunConfig(max_n=2, max_entry=3)))
    killed = f"RuntimeError: its worker was killed by signal {int(signal.SIGKILL)}"
    for r in records:
        assert r["status"] == ("error" if r["claim"] in DIMS_BATCH_4 else "pass"), r
        if r["claim"] in DIMS_BATCH_4:
            assert r["got"] == killed
    _assert_no_child_left()


def test_no_worker_outlives_a_pool_run():
    _pool_needed()
    records = _run_pool("dims", RunConfig(max_n=2, max_entry=3, jobs=2))
    assert {r["status"] for r in records} == {"pass"}
    _assert_no_child_left()


@pytest.mark.parametrize("planted", [RuntimeError, KeyboardInterrupt])
def test_no_worker_outlives_a_raising_parent(monkeypatch, planted):
    _pool_needed()
    real_select, calls = cli.select.select, []

    def select_then_raise(*args):
        calls.append(args)
        if len(calls) == 2:
            raise planted("planted")
        return real_select(*args)

    monkeypatch.setattr(cli.select, "select", select_then_raise)
    with pytest.raises(planted, match="planted"):
        _run_pool("dims", RunConfig(max_n=2, max_entry=3, jobs=2))
    _assert_no_child_left()


def test_records_marshal_cannot_carry_fail_only_their_batch(monkeypatch):
    _pool_needed()

    def fraction_on_2_2(a, fields):  # a Fraction is not a marshal type
        inputs, expected, got, shift, ok = fields
        return inputs, expected, Fraction(got) if a == (2, 2) else got, shift, ok

    _plant_dims(monkeypatch, fraction_on_2_2)
    records = _run_pool("dims", RunConfig(max_n=2, max_entry=3, jobs=2))
    for r in records:
        assert r["status"] == ("error" if r["claim"] in DIMS_BATCH_4 else "pass"), r
        if r["claim"] in DIMS_BATCH_4:
            assert r["got"] == "ValueError: unmarshallable object"
    _assert_no_child_left()


def test_pool_records_equal_serial_records():
    # as Python objects, tuples included, and not only once written as JSON
    _pool_needed()
    strip = lambda reports: [{k: v for k, v in r.items() if k != "ms"} for r in reports]
    serial = strip(run_suite("all", RunConfig(max_n=3, max_entry=3)))
    pooled = strip(_run_pool("all", RunConfig(max_n=3, max_entry=3, jobs=2)))
    assert pooled == serial
    assert repr(pooled) == repr(serial)


def _run_python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter, stdout a buffered pipe."""
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_text_buffered_before_the_pool_is_written_once():
    _pool_needed()
    out = _run_python(
        "import sys\n"
        "from slfusion.cli import RunConfig, run_suite\n"
        "sys.stdout.write('before the pool\\n')\n"
        "run_suite('dims', RunConfig(max_n=2, max_entry=2, jobs=2))\n"
    )
    assert out == "before the pool\n"


def test_the_pool_loads_no_executor_module():
    _pool_needed()
    out = _run_python(
        "import sys\n"
        "from slfusion.cli import RunConfig, run_suite\n"
        "assert run_suite('dims', RunConfig(max_n=2, max_entry=2, jobs=2))\n"
        "print(*sorted(m for m in ('concurrent.futures', 'multiprocessing', 'dataclasses')\n"
        "              if m in sys.modules))\n"
    )
    assert out == "\n"


def test_claim_batches_hold_each_claim_once():
    claims = cli.suite_claims("all", RunConfig())
    batches = cli.claim_batches(claims)
    position = {claim: i for i, claim in enumerate(claims)}
    assert len(position) == len(claims)
    assert sorted(position[c] for batch in batches for c in batch) == list(range(len(claims)))
    for batch in batches:
        assert [position[c] for c in batch] == sorted(position[c] for c in batch)

    def size(claim):  # |A| of a composition claim, None for any other
        params = claim[1]
        return sum(params[0]) if params and isinstance(params[0], tuple) else None

    # the singletons first, then one batch per |A|, largest first
    sizes = [{size(c) for c in batch} for batch in batches]
    singles = [batch for batch, s in zip(batches, sizes) if s == {None}]
    assert all(len(batch) == 1 for batch in singles)
    assert batches[: len(singles)] == singles
    rest = [s.pop() for s in sizes[len(singles):] if len(s) == 1]
    assert rest == sorted({size(c) for c in claims} - {None}, reverse=True)
    assert len(singles) + len(rest) == len(batches)


def _as_loaded(value):
    """What ``json.loads(json.dumps(value))`` gives back: tuples as lists."""
    if isinstance(value, (list, tuple)):
        return [_as_loaded(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_loaded(v) for k, v in value.items()}
    return value


def test_every_record_is_json_ready(tmp_path, monkeypatch):
    cfg = RunConfig(max_n=2, max_entry=2, samples=2, cache_dir=str(tmp_path))
    records = run_suite("all", cfg)
    assert {r["claim"]: r["status"] for r in records}["cache-spot"] == "pass"
    anchor, suite, _, params = cli.CLAIM_KINDS["dims"]

    def integrity(cfg, claim, a):
        raise IntegrityError("planted")

    monkeypatch.setitem(cli.CLAIM_KINDS, "dims", (anchor, suite, integrity, params))
    records.append(cli.run_claim("dims", ((2, 3),), cfg))
    monkeypatch.setitem(cli.CLAIM_KINDS, "dims", (anchor, suite, lambda cfg, claim, a: 1 / 0, params))
    records.append(cli.run_claim("dims", ((2, 3),), cfg))
    assert [r["status"] for r in records[-2:]] == ["fail", "error"] and records[-2]["integrity"]
    for rep in records:
        assert json.loads(json.dumps(rep)) == _as_loaded(rep), rep["claim"]


def test_pool_stream_equals_serial_stream(capsys):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs as many CPUs as workers")
    args = ["verify", "all", "--max-n", "3", "--max-entry", "3", "--format", "json"]
    code1, out1, _ = run(capsys, *args, "--jobs", "1")
    code2, out2, _ = run(capsys, *args, "--jobs", "2")
    strip = lambda s: re.sub(r'"ms": \d+', '"ms": 0', s)
    assert code1 == code2
    assert strip(out1) == strip(out2)


def test_cache_roundtrip(tmp_path):
    cache = ModuleCache(tmp_path)
    mod = cache.get((2, 3))
    assert cache.path_for((2, 3)).exists()
    loaded = cache.load((2, 3))
    assert loaded is not None
    assert loaded.character() == mod.character()
    fresh = FusionModule((2, 3))
    assert loaded.character() == fresh.character()


def test_cache_version_mismatch_rebuilds(tmp_path):
    cache = ModuleCache(tmp_path)
    cache.get((2, 2))
    path = cache.path_for((2, 2))
    data = json.loads(path.read_text())
    data["version"] = 999
    path.write_text(json.dumps(data))
    assert cache.load((2, 2)) is None  # triggers rebuild, never partial read


def test_cache_version_1_payload_loads_as_none(tmp_path):
    # a dense-row payload of the old format, written where the current format looks
    a = (2, 2, 3)
    cache = ModuleCache(tmp_path)
    module = FusionModule(a)
    dense = ideal_rows(module)
    data = {
        "version": 1,
        "a": list(a),
        "total_dim": module.total_dim,
        "pieces": [[k, s, [list(r) for r in rows]] for (k, s), rows in sorted(dense.items()) if rows],
    }
    cache.path_for(a).write_text(json.dumps(data))
    assert cache.load(a) is None


# (2, 3, 4, 5) stores at (6, 7), width 7, free [5], rows [[2, 3, 5, -1],
# [3, 1, 5, 1], [4, 1, 5, 2]]: columns 0, 1 and 6 are units, and (6, 7) is
# the bidegree of a generator
PLANT_LABEL, PLANT_PIECE = (2, 3, 4, 5), (6, 7)


def _set_entry(row, i, x):
    row[i] = x


# each plant edits the stored piece [k, s, free, rows] in place
@pytest.mark.parametrize(
    "plant, match",
    [
        (lambda p: _set_entry(p[3][0], 3, 0), "zero entry"),
        (lambda p: p[3].__setitem__(0, [x / 2 if i % 2 else x for i, x in enumerate(p[3][0])]),
         "non-integer"),
        (lambda p: _set_entry(p[3][0], 3, True), "non-integer entry"),
        (lambda p: _set_entry(p[3][2], 2, 7), "out of range"),
        (lambda p: p[3].insert(1, list(p[3][0])), "leads are not distinct"),
        (lambda p: p[2].insert(0, p[3][0][0]), "lead is a free column"),
        (lambda p: p[3][0].extend([6, 1]), "not reduced"),
        (lambda p: p[3].__setitem__(0, p[3][0][:2]), "two or more"),
        (lambda p: p[2].append(5), "free columns are not ascending"),
        (lambda p: p[3].__setitem__(1, [2 * x if i % 2 else x for i, x in enumerate(p[3][1])]),
         "not primitive"),
        (lambda p: _set_entry(p[3][1], 1, -1), "positive lead"),
        (lambda p: _set_entry(p, 0, 99), "outside the bidegrees"),
        # a bidegree that is not a pair of ints is outside them too
        (lambda p: _set_entry(p, 0, "6"), "stored pieces outside the bidegrees"),
        (lambda p: _set_entry(p, 1, 7.0), "outside the bidegrees of"),
        # [2, 3, 5, -1] -> [2, 3, 5, 2] keeps the layout, the dimension and the
        # zero band, so only the generator certificate can see it
        (lambda p: _set_entry(p[3][0], 3, 2), "do not contain the generator"),
        # an entry with no free column: the store never writes one, since a
        # wholly-ideal bidegree is one with no entry
        (lambda p: p.__setitem__(slice(2, None), [[], []]), "free columns are an empty list"),
        # layout faults, not silent misses
        (lambda p: p.pop(), r"not a list of \[k, s, free, rows\] entries"),
        (lambda p: p[3].__setitem__(0, 5), r"stored row is not a list at \(6, 7\)"),
        (lambda p: p.__setitem__(2, {}), "stored free columns are not a list"),
        (lambda p: p.__setitem__(3, {}), "stored rows are not a list"),
    ],
)
def test_cache_load_rejects_bad_rows(tmp_path, plant, match):
    cache = ModuleCache(tmp_path)
    cache.get(PLANT_LABEL)
    path = cache.path_for(PLANT_LABEL)
    data = json.loads(path.read_text())
    piece = next(p for p in data["pieces"] if tuple(p[:2]) == PLANT_PIECE)
    assert piece[2:] == [[5], [[2, 3, 5, -1], [3, 1, 5, 1], [4, 1, 5, 2]]]
    assert PLANT_PIECE in {(k, 3 * k - zpow) for k, zpow, _ in ideal_generators(PLANT_LABEL)}
    plant(piece)
    path.write_text(json.dumps(data))
    with pytest.raises(IntegrityError, match=match):
        cache.load(PLANT_LABEL)


def _repeat_plant_piece(data, first):
    # the plant piece twice; ``first`` goes in ahead of the true entry
    piece = next(p for p in data["pieces"] if tuple(p[:2]) == PLANT_PIECE)
    data["pieces"].insert(data["pieces"].index(piece), first(piece))


# each plant edits the whole stored object of PLANT_LABEL in place
@pytest.mark.parametrize(
    "plant, match",
    [
        (lambda d: d.__setitem__("pieces", 5), "not a list of"),
        (lambda d: d.pop("pieces"), "not a list of"),
        (lambda d: d.__setitem__("pieces", {}), "not a list of"),
        (lambda d: _repeat_plant_piece(d, list), r"stored bidegree \(6, 7\) repeated"),
        # a conflicting well-formed entry first (every column free, no
        # rows), the true one last
        (lambda d: _repeat_plant_piece(d, lambda p: [*p[:2], list(range(7)), []]), "repeated"),
    ],
    ids=["int", "missing", "dict", "repeated", "conflicting"],
)
def test_cache_load_rejects_a_bad_pieces_list(tmp_path, plant, match):
    cache = ModuleCache(tmp_path)
    cache.get(PLANT_LABEL)
    path = cache.path_for(PLANT_LABEL)
    data = json.loads(path.read_text())
    plant(data)
    path.write_text(json.dumps(data))
    with pytest.raises(IntegrityError, match=match):
        cache.load(PLANT_LABEL)


def test_a_load_lists_monomials_only_where_a_piece_is(tmp_path, monkeypatch):
    # a wholly-ideal bidegree has no entry, so its monomials are never
    # listed: 196 of the 561 grid bidegrees of (4,4,4,4,4) hold a piece
    a = (4, 4, 4, 4, 4)
    cache = ModuleCache(tmp_path)
    cache.store(modules.fusion_module(a))
    listed, real = set(), modules.enumerate_monomials

    def spy(n, k, s):
        listed.add((k, s))
        return real(n, k, s)

    for owner in (modules, cache_mod):
        monkeypatch.setattr(owner, "enumerate_monomials", spy)
    loaded = cache.load(a)
    assert listed == set(loaded.pieces) and len(listed) == 196
    assert sum(4 * k + 1 for k in range(loaded.kmax + 2)) == 561


def test_cache_spot_check(tmp_path):
    from random import Random

    cache = ModuleCache(tmp_path)
    cache.get((2, 2))
    cache.get((1, 3))
    result = cache.spot_check(Random(3))
    assert result is not None and result["ok"]


def test_cache_spot_check_draws_by_label_not_file_name(tmp_path, monkeypatch):
    from random import Random

    # file names hash FORMAT_VERSION, so a format bump reorders them; the
    # label a seed draws must not move with it
    labels = [(2, 2), (1, 3), (2, 3), (1, 1, 2), (3, 3), (1, 2, 2)]
    want = [sorted(labels)[Random(seed).randrange(len(labels))] for seed in range(10)]
    for version in (2, 3, 4):
        monkeypatch.setattr(cache_mod, "FORMAT_VERSION", version)
        cache = ModuleCache(tmp_path / f"v{version}")
        for a in labels:
            cache.get(a)
        assert cache.stored_labels() == sorted(labels)
        assert [cache.spot_check(Random(seed))["label"] for seed in range(10)] == want


# valid JSON that is not a current-format object naming a label
NOT_A_LABEL_OBJECT = [
    [], 5, "x", None,
    {"version": cache_mod.FORMAT_VERSION},
    {"version": cache_mod.FORMAT_VERSION, "a": 5},
    {"version": cache_mod.FORMAT_VERSION, "a": ["x"]},
    {"version": cache_mod.FORMAT_VERSION, "a": [1.0, 2]},
    {"version": cache_mod.FORMAT_VERSION, "a": [True, 2]},
    {"version": cache_mod.FORMAT_VERSION, "a": [0, 2]},
    {"version": cache_mod.FORMAT_VERSION, "a": [2, 1]},
]


@pytest.mark.parametrize("payload", NOT_A_LABEL_OBJECT)
def test_cache_payload_that_is_not_a_label_object_is_a_miss(tmp_path, monkeypatch, payload):
    from random import Random

    a = (1, 2)
    cache = ModuleCache(tmp_path)
    cache.get((2, 2))
    cache.store(FusionModule(a))
    path = cache.path_for(a)
    path.write_text(json.dumps(payload))
    assert cache.load(a) is None
    assert cache.stored_labels() == [(2, 2)]
    assert all(cache.spot_check(Random(seed)) == {"label": (2, 2), "ok": True} for seed in range(3))
    # get goes to disk only on an in-memory miss; it rebuilds and overwrites
    monkeypatch.delitem(modules._MODULE_CACHE, a, raising=False)
    assert cache.get(a).total_dim == 2
    assert_same_module(cache.load(a), FusionModule(a))
    assert cache.stored_labels() == [(1, 2), (2, 2)]


@pytest.mark.parametrize("other_label", [False, True])
def test_get_of_a_memoized_module_stores_over_a_rejected_file(tmp_path, other_label):
    a = (1, 2)
    cache = ModuleCache(tmp_path)
    cache.get((2, 2))
    module = cache.get(a)
    assert modules._MODULE_CACHE[a] is module
    path = cache.path_for(a)
    # a file _payload rejects, or a current-format file of another label
    path.write_text(cache.path_for((2, 2)).read_text() if other_label else "[]")
    assert cache.get(a) is module
    assert json.loads(path.read_text())["a"] == list(a)
    assert_same_module(cache.load(a), module)
    assert cache.stored_labels() == [(1, 2), (2, 2)]


def test_cli_rebuilds_over_a_payload_that_is_not_an_object(capsys, tmp_path, monkeypatch):
    a = (1, 2)
    path = ModuleCache(tmp_path).path_for(a)
    for argv in (["build", "--a", "1,2"], ["verify", "dims", "--max-n", "2", "--max-entry", "2"]):
        path.write_text("[]")
        monkeypatch.delitem(modules._MODULE_CACHE, a, raising=False)
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == EXIT_OK and out and not err, (argv, err)
        assert json.loads(path.read_text())["a"] == list(a)


def test_build_with_cache_dir(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "--a", "3,3", "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert any(tmp_path.glob("module-*.json"))
    code2, out2, _ = run(capsys, "build", "--a", "3,3", "--cache-dir", str(tmp_path))
    assert "dim = 9" in out2


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SLFUSION_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "build", "--a", "2,4")
    assert code == EXIT_OK
    assert any(tmp_path.glob("module-*.json"))


BAD_CACHE_ARGV = [
    ["build", "--a", "2,3"],
    ["character", "--a", "2,3"],
    ["verify", "dims", "--max-n", "1", "--max-entry", "2"],
]


@pytest.mark.parametrize("argv", BAD_CACHE_ARGV, ids=lambda argv: argv[0])
def test_a_cache_dir_that_cannot_be_a_directory_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    afile = tmp_path / "F"
    afile.write_text("")
    for path in (afile, afile / "below"):
        code, out, err = run(capsys, *argv, "--cache-dir", str(path))
        assert code == EXIT_USAGE and not out, (argv, path)
        assert str(path) in err and "Traceback" not in err, err
    monkeypatch.setenv("SLFUSION_CACHE_DIR", str(afile))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and not out and str(afile) in err and "Traceback" not in err
    assert afile.read_text() == ""


# each plant edits the stored pieces of (2, 3); the record names the fault
TAMPERS = [
    # a nonzero piece claimed wholly ideal: its (1, 0) entry left out
    (lambda pieces: pieces.remove(next(p for p in pieces if p[:2] == [1, 0])),
     "dim mismatch for (2, 3)"),
    # a piece cut to three fields: a layout fault, not a miss to write over
    (lambda pieces: pieces[0].pop(), "stored pieces of (2, 3) are not a list"),
]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_tampered_cache_entry_fails_only_its_own_claims(capsys, tmp_path, monkeypatch, jobs):
    # the load certifies the entry inside each claim that reads it: the
    # tampered label gets an integrity record, every other claim reports
    if jobs > (os.cpu_count() or 1):
        pytest.skip("needs as many CPUs as workers")
    for plant, (tamper, got) in enumerate(TAMPERS):
        cache_dir = tmp_path / str(plant)
        cache = ModuleCache(cache_dir)
        cache.get((2, 3))
        path = cache.path_for((2, 3))
        data = json.loads(path.read_text())
        tamper(data["pieces"])
        path.write_text(json.dumps(data))
        monkeypatch.delitem(modules._MODULE_CACHE, (2, 3))
        code, out, err = run(capsys, "verify", "dims", "--max-n", "2", "--max-entry", "3",
                             "--cache-dir", str(cache_dir), "--format", "json", "--jobs", str(jobs))
        records = [json.loads(line) for line in out.splitlines()]
        assert code == EXIT_INTEGRITY and len(records) == 9, (got, code, out, err)
        bad = [r for r in records if r.get("integrity")]
        assert [r["claim"] for r in bad] == ["dims[(2, 3)]"]
        assert got in bad[0]["got"]
        assert all(r["status"] == "pass" for r in records if r is not bad[0])
        assert path.read_text() == json.dumps(data)  # not written over
        assert "Traceback" not in err


def test_cache_store_is_atomic(tmp_path, monkeypatch):
    cache = ModuleCache(tmp_path)
    module = FusionModule((2, 3))

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(cache_mod.os, "replace", killed)
    with pytest.raises(OSError):
        cache.store(module)
    assert list(tmp_path.iterdir()) == []  # neither a truncated entry nor a temp file
    monkeypatch.undo()
    cache.store(module)
    assert [p.name for p in tmp_path.iterdir()] == [cache.path_for((2, 3)).name]


def assert_same_module(loaded, built):
    assert loaded is not None
    assert loaded._nf == built._nf
    assert loaded.pieces == built.pieces
    assert {ks: loaded.ideal_part(*ks) for ks in loaded.pieces} == {
        ks: built.ideal_part(*ks) for ks in built.pieces
    }
    assert loaded.character() == built.character()


# 71 labels, up to the n = 5 frontier
PINNED_LABELS = cli.composition_grid(4, 4) + [(4, 5, 6, 9), (4, 4, 4, 4, 4)]


def test_cache_files_are_pinned_bytes(tmp_path):
    # the format-3 bytes of 71 labels, written in this order: one entry per
    # piece, its rows read back from the normal forms
    cache, digest = ModuleCache(tmp_path), hashlib.sha256()
    for a in PINNED_LABELS:
        cache.store(FusionModule(a))
        digest.update(cache.path_for(a).read_bytes())
    assert len(PINNED_LABELS) == 71
    assert digest.hexdigest() == "2c7f826e2a4eae4fea842ca20aeb7e907fb69d0d7a1b37c7516fe810acd7640b"


def test_a_restored_module_shares_the_values_of_the_built_one(tmp_path):
    # normal forms are shared by equality: a load holds the built module's
    # very basis forms, interned leads and pieces keys, not copies (the lead
    # table is emptied first, so no clear falls between a build and its load)
    modules._leads.clear()
    cache = ModuleCache(tmp_path)
    for a in PINNED_LABELS:
        built = FusionModule(a)
        cache.store(built)
        loaded = cache.load(a)
        assert_same_module(loaded, built)
        keys = {ks: ks for ks in loaded.pieces}
        assert all(keys[ks] is ks for ks in built.pieces), a
        assert all(loaded._nf[m] is form for m, form in built._nf.items()), a
        assert all(form[0] is keys[form[0]] for form in loaded._nf.values()), a


def test_a_cache_file_lists_exactly_the_pieces(tmp_path):
    # one entry per key of FusionModule.pieces, in key order, none with an
    # empty free list: a bidegree with no entry is wholly ideal, in the file
    # as in the module
    cache = ModuleCache(tmp_path)
    for a in PINNED_LABELS:
        built = FusionModule(a)
        cache.store(built)
        data = json.loads(cache.path_for(a).read_text())
        assert sorted(data) == ["a", "pieces", "version"], a
        assert [tuple(p[:2]) for p in data["pieces"]] == sorted(built.pieces), a
        assert all(p[2] for p in data["pieces"]), a
        assert_same_module(cache.load(a), built)


@pytest.mark.parametrize("a", [(2, 3), (2, 3, 4, 5), (4, 4, 4, 4, 4)])
def test_cache_load_rejects_an_entry_with_no_free_column(tmp_path, a):
    # the old placeholder of a wholly-ideal bidegree, at the first grid
    # bidegree that holds no piece: a layout fault, not a piece to skip
    module = FusionModule(a)
    n = len(a)
    k, s = min((k, s) for k in range(module.kmax + 2) for s in range((n - 1) * k + 1)
               if (k, s) not in module.pieces)
    cache = ModuleCache(tmp_path)
    cache.store(module)
    path = cache.path_for(a)
    data = json.loads(path.read_text())
    data["pieces"].append([k, s, [], []])
    path.write_text(json.dumps(data))
    with pytest.raises(IntegrityError, match=rf"free columns are an empty list at \({k}, {s}\)"):
        cache.load(a)


def test_cache_load_rejects_a_piece_in_the_zero_band(tmp_path):
    # two well-formed entries at kmax + 1; the zero band names the smaller
    a = (2, 3, 4, 5)
    band = sum(x - 1 for x in a) + 1
    cache = ModuleCache(tmp_path)
    cache.store(FusionModule(a))
    path = cache.path_for(a)
    data = json.loads(path.read_text())
    data["pieces"] += [[band, 5, [0], []], [band, 3, [0], []]]
    path.write_text(json.dumps(data))
    with pytest.raises(IntegrityError, match=rf"certified-zero bidegree \({band}, 3\) for"):
        cache.load(a)


def test_a_format_2_file_is_a_miss_written_over(tmp_path, monkeypatch):
    # the previous layout: a placeholder [k, s, [], []] for each wholly-ideal
    # bidegree of the grid, an entry only for a piece with an ideal part, and
    # a total_dim; written where the current format looks, it is a miss
    a = (2, 3, 4, 5)
    module = FusionModule(a)
    n, pieces = len(a), []
    for k in range(module.kmax + 2):
        for s in range((n - 1) * k + 1):
            free, rows = module.ideal_part(k, s)
            if not free or len(free) < len(modules.enumerate_monomials(n, k, s)):
                flat = [[v for c in sorted(row) for v in (c, row[c])] for row in rows]
                pieces.append([k, s, free, flat])
    cache = ModuleCache(tmp_path)
    path = cache.path_for(a)
    path.write_text(json.dumps({"version": 2, "a": list(a), "total_dim": 120, "pieces": pieces}))
    assert cache.load(a) is None and cache.stored_labels() == []
    monkeypatch.delitem(modules._MODULE_CACHE, a, raising=False)
    cache.get(a)
    data = json.loads(path.read_text())
    assert data["version"] == cache_mod.FORMAT_VERSION == 3 and "total_dim" not in data
    assert [tuple(p[:2]) for p in data["pieces"]] == sorted(module.pieces)
    assert_same_module(cache.load(a), module)
    assert cache.stored_labels() == [a]


@pytest.mark.parametrize("a", [(2, 3, 4), (3, 3, 3), (2, 2, 3, 4), (4, 5, 6, 9)])
def test_cache_load_rejects_a_negated_row_entry(tmp_path, a):
    # one entry of the first row-lead normal form negated: the stored row
    # keeps its layout, dimension and zero band, and the generator
    # certificate of the load must see it
    module = FusionModule(a)
    m = min(
        (m for m, (ks, _, _) in module._nf.items() if m not in module.pieces[ks]),
        key=lambda m: (module._nf[m][0], m),
    )
    ks, ((i, x), *rest), den = module._nf[m]
    module._nf[m] = (ks, ((i, -x), *rest), den)
    cache = ModuleCache(tmp_path)
    cache.store(module)
    with pytest.raises(IntegrityError, match="stored rows do not contain the generator"):
        cache.load(a)


@pytest.mark.parametrize("a", cli.composition_grid(3, 4) + [(4, 4, 4, 4, 4)])
def test_cache_load_rejects_a_zero_piece_off_the_grid(tmp_path, a):
    # s = n is past the degree-1 weights 0..n-1; the module holds no piece
    # there, but the load must still refuse the stored bidegree
    cache = ModuleCache(tmp_path)
    cache.store(FusionModule(a))
    path = cache.path_for(a)
    data = json.loads(path.read_text())
    data["pieces"].append([1, len(a), [], []])
    path.write_text(json.dumps(data))
    with pytest.raises(IntegrityError, match="outside the bidegrees"):
        cache.load(a)


def test_frontier_module_cache_roundtrip(tmp_path):
    # n = 5 frontier label, dim 1024
    a = (4, 4, 4, 4, 4)
    built = FusionModule(a)
    assert built.total_dim == 1024
    cache = ModuleCache(tmp_path)
    cache.store(built)
    loaded = cache.load(a)
    assert_same_module(loaded, built)
    assert ideal_rows(loaded) == ideal_rows(built)
    assert cache.path_for(a).stat().st_size < 100_000


def test_module_cache_roundtrip_small_labels(tmp_path):
    # every n <= 4, entries <= 4 label comes back with the built module's
    # normal forms, piece bases and piece rows
    cache = ModuleCache(tmp_path)
    for n in range(1, 5):
        for a in combinations_with_replacement(range(1, 5), n):
            built = FusionModule(a)
            cache.store(built)
            assert_same_module(cache.load(a), built)


def test_verify_with_no_claim_is_a_usage_error(capsys):
    # a request that checks nothing must not report success
    for argv in (["vectorfields", "--n", "0"], ["vectorfields", "--n", "-2"],
                 ["splitting", "--n", "99"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert "selects no claim" in err, argv
    code, out, _ = run(capsys, "verify", "vectorfields", "--n", "2")
    assert code == EXIT_OK and "1 passed, 0 failed" in out


def test_files_of_another_format_are_never_parsed(tmp_path, monkeypatch):
    # a file name carries its format version: the unversioned names of
    # formats 2 and 3 and a format-2 file under its versioned name are never
    # parsed, loaded or written over, and stored_labels lists the current
    # files only
    cache = ModuleCache(tmp_path)
    for a in [(2, 2), (1, 2)]:
        cache.store(FusionModule(a))
    current = cache.path_for((2, 2)).read_text()
    stale = {
        tmp_path / f"module-{cache_mod.cache_key((2, 3))}.json": current.replace("[2,2]", "[2,3]"),
        tmp_path / f"module-{cache_mod.cache_key((3, 3))}.json": '{"version":2,"a":[3,3]}',
        tmp_path / f"module-v2-{cache_mod.cache_key((1, 3))}.json": '{"version":2,"a":[1,3]}',
    }
    for path, text in stale.items():
        path.write_text(text)
    parsed = []
    real = cache_mod._payload

    def spy(path):
        parsed.append(path)
        return real(path)

    monkeypatch.setattr(cache_mod, "_payload", spy)
    assert cache.stored_labels() == [(1, 2), (2, 2)]
    assert sorted(parsed) == sorted([cache.path_for((1, 2)), cache.path_for((2, 2))])
    monkeypatch.delitem(modules._MODULE_CACHE, (2, 3), raising=False)
    assert cache.get((2, 3)).total_dim == 6
    assert not set(parsed) & set(stale)
    assert all(path.read_text() == text for path, text in stale.items())
    assert cache.stored_labels() == [(1, 2), (2, 2), (2, 3)]
