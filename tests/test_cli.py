"""Command-line interface: commands, exit codes, reports, caching."""

import importlib.util
import json
import multiprocessing
import os
import re
import signal
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from oracle_utils import ideal_generators, ideal_rows

from slfusion import cache as cache_mod
from slfusion import cli, geometry, modules
from slfusion.cache import ModuleCache
from slfusion.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_OK,
    RunConfig,
    claim_seed,
    main,
    run_suite,
)
from slfusion.linalg import IntegrityError
from slfusion.modules import FusionModule


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


def test_cohomology_command(capsys):
    code, out, _ = run(capsys, "cohomology", "--a", "2,3,4")
    assert code == EXIT_OK
    assert "dim = 60" in out


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
    # the bound is checked before a pool exists, so no worker is ever forked
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="jobs must be between 1 and the CPU count"):
        run_suite("dims", RunConfig(max_n=1, max_entry=2, jobs=jobs))


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_crashing_claim_is_reported_as_error(capsys, monkeypatch, jobs):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
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
    if multiprocessing.get_start_method() != "fork":
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
    # the planted claim's |A| = 4 batch is rerun alone and breaks its pool
    # again; every other batch comes back from a fresh pool and passes
    batch = {cli.claim_id(*c) for c in want if sum(c[1][0]) == 4}
    assert batch == {"dims[(1, 3)]", "dims[(2, 2)]"}
    for r in records:
        assert r["status"] == ("error" if r["claim"] in batch else "pass"), r


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
    # a dense-row payload of the old format, written where format 2 looks
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
        # [2, 3, 5, -1] -> [2, 3, 5, 2] keeps the layout, the dimension and the
        # zero band, so only the generator certificate can see it
        (lambda p: _set_entry(p[3][0], 3, 2), "do not contain the generator"),
        # the nonzero piece written as a wholly-ideal one, which a load takes
        # without listing its monomials: the dimension gate sees it
        (lambda p: p.__setitem__(slice(2, None), [[], []]), "dim mismatch"),
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
    {"version": 2},
    {"version": 2, "a": 5},
    {"version": 2, "a": ["x"]},
    {"version": 2, "a": [1.0, 2]},
    {"version": 2, "a": [True, 2]},
    {"version": 2, "a": [0, 2]},
    {"version": 2, "a": [2, 1]},
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
    assert {ks: p.basis for ks, p in loaded.pieces.items()} == {
        ks: p.basis for ks, p in built.pieces.items()
    }
    assert {ks: p.rows for ks, p in loaded.pieces.items()} == {
        ks: p.rows for ks, p in built.pieces.items()
    }
    assert loaded.character() == built.character()


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
