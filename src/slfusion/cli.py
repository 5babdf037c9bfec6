"""Command-line front end and verification-suite runner.

Every claim instance produces one report record

    {claim, anchor, inputs, expected, got, shift, status, ms}

with a stable claim id; suites emit their reports sorted by claim id, so two
runs with the same configuration and seed agree byte for byte apart from the
timing fields.  A record holds the values as the checks built them (tuples
included, every dict key a string); the JSON output writes tuples as lists.
All randomness (sample points for the chart checks, the cache
spot check) flows from the single configured seed, hashed per claim so the
outcome does not depend on execution order.

Exit codes: 0 all pass, 1 at least one verification failure, 2 usage error,
3 internal integrity error, 4 a claim (or command) raised an unexpected
exception, 141 (128 + SIGPIPE) the reader of stdout closed it early.  An
integrity error outranks a crash, which outranks a failure.
A crashing claim is reported with status ``error`` and the exception text in
``got``; the other claims still run and report.

With ``jobs`` above 1, ``run_suite`` forks that many workers, each with a
task pipe and a result pipe, and hands the ``claim_batches`` out one index at
a time to whichever worker is idle.  A worker sends a batch's records back as
one length-prefixed ``marshal`` message, which keeps tuples as tuples, so the
records equal the serial ones; records ``marshal`` cannot carry come back as
``error`` records.  A batch whose worker dies reruns alone in a fresh worker,
and is ``error`` only if that one dies too.  No worker outlives ``run_suite``.

A cache directory that cannot be a writable directory is a usage error.  A
cached module is loaded inside each claim that reads it (``CACHED_KINDS``),
so an entry that fails certification on load gives that claim an integrity
record, and the other claims still report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import select
import sys
import time
import traceback
from itertools import combinations_with_replacement
from math import comb, prod
from random import Random

from slfusion.cache import ModuleCache
from slfusion.linalg import IntegrityError, parse_scalar
from slfusion import modules as fm
from slfusion import submodules as sm
from slfusion import dual as du
from slfusion import geometry as geo
from slfusion.laurent import splitting_type
from slfusion._goldens import TRANSITION_GOLDEN

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INTEGRITY, EXIT_ERROR = 0, 1, 2, 3, 4
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for ``yes | head``

CACHE_ENV = "SLFUSION_CACHE_DIR"
# the largest n the splitting command takes: its time grows about like n^2.6
# with the (4n-5)-square Laurent matrix, and n = 72 took 7.6-7.9 s of process
# time in a fresh interpreter (2-core Intel Xeon, CPython 3.11.7)
MAX_SPLITTING_N = 72
# the most ambient monomials a label given on the command line may have: a
# build walks every monomial of degree at most sum(a_i - 1) + 1, so
# C(n + sum(a_i - 1) + 1, n) bounds its work.  The cap refuses requests that
# cannot finish; it is not a time bound: (2^12), 5.2e6 monomials, passes and
# took 25 s to build cold (2-core Xeon).  The library stays uncapped.
MAX_AMBIENT_MONOMIALS = 10**7
# the most section-recursion R1 steps a verify run's pullback claims may take
# together: claim pullback[a] takes sum(a) - len(a) of them, so the grid's
# work grows with the square of --max-entry while the largest label only
# grows linearly.  10^6 steps took 1.8 s (--max-n 1 --max-entry 1414, 2-core
# Xeon); the default bounds take 840
MAX_PULLBACK_STEPS = 10**6


class RunConfig:
    """The bounds and options of one verify run."""

    def __init__(self, max_n: int = 4, max_entry: int = 5, samples: int = 20, seed: int = 0,
                 cache_dir: str | None = None, jobs: int = 1, only_n: int | None = None):
        if max_n < 1 or max_entry < 1 or samples < 1:
            raise ValueError("bounds must be positive")
        self.max_n, self.max_entry, self.samples, self.seed = max_n, max_entry, samples, seed
        self.cache_dir, self.jobs, self.only_n = cache_dir, jobs, only_n


def claim_seed(seed: int, claim: str) -> int:
    digest = hashlib.sha256(f"{seed}:{claim}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# the ``ok`` of a claim that was not run
SKIPPED = object()


def report(claim, anchor, inputs, expected, got, shift, ok):
    status = "skipped" if ok is SKIPPED else ("pass" if ok else "fail")
    return {
        "claim": claim,
        "anchor": anchor,
        "inputs": inputs,
        "expected": expected,
        "got": got,
        "shift": shift,
        "status": status,
        "ms": 0,
    }


# ---------------------------------------------------------------------------
# grids


def composition_grid(max_n: int, max_entry: int, min_entry: int = 1):
    """Sorted labels of length 1..max_n with entries in min_entry..max_entry."""
    entries = range(min_entry, max_entry + 1)
    return [a for n in range(1, max_n + 1) for a in combinations_with_replacement(entries, n)]


def valid_adjacent_moves(a):
    """Positions i where the move (i, i+1) keeps the label sorted positive."""
    return [i for i in range(1, len(a)) if sm.move_rejection(a, i, i + 1) is None]


# ---------------------------------------------------------------------------
# claim execution


def claim_id(kind: str, params: tuple) -> str:
    return f"{kind}{list(params)!r}" if params else kind


# the kinds whose first parameter is a plain module, loaded through the cache
CACHED_KINDS = ("dims", "dual", "demazure", "nilpotency")


def run_claim(kind: str, params: tuple, cfg: RunConfig) -> dict:
    claim = claim_id(kind, params)
    try:
        anchor, _, check, _ = CLAIM_KINDS[kind]
        if cfg.cache_dir and kind in CACHED_KINDS:
            ModuleCache(cfg.cache_dir).get(params[0])
        return report(claim, anchor, *check(cfg, claim, *params))
    except IntegrityError as exc:
        rep = report(claim, "integrity", {"params": params}, "no integrity error", str(exc), None, False)
        rep["integrity"] = True
        return rep
    except Exception as exc:  # one crashing claim must not abort the suite
        traceback.print_exception(exc, file=sys.stderr)
        return _error_report(claim, params, exc)


def _error_report(claim: str, params: tuple, exc: Exception) -> dict:
    """Record for a claim that raised (the caller prints the traceback)."""
    rep = report(claim, "error", {"params": params}, "no exception", f"{type(exc).__name__}: {exc}", None, False)
    rep["status"] = "error"
    return rep


# Each check takes (cfg, claim id, *params) and returns the record fields
# (inputs, expected, got, shift, ok); ok is SKIPPED for a claim not run.


def _dims(cfg, claim, a):
    dim = fm.fusion_module(a).total_dim
    return {"a": a}, prod(a), dim, None, dim == prod(a)


def _dual(cfg, claim, a):
    mod_char = fm.fusion_module(a).character()
    oracle = du.oracle_character(a)
    return {"a": a}, mod_char.poly_str(), oracle.poly_str(), None, mod_char == oracle


def _submodule(cfg, claim, a, i):
    sub = sm.submodule_S(a, i)
    expected_dim = sm.eq_first_dim(a, i)
    checks = {
        "dim": sub.dim == expected_dim,
        "exact": sm.verify_exactness(sub)["ok"],
        "generators": sm.verify_w_generators(sub)["ok"],
    }
    shift = None
    if i == 1:
        stop_label = (a[1] - a[0] + 1,) + a[2:]
        okm, shift = fm.match_characters(
            sub.character(), fm.label_character(stop_label), reindex=0
        )
        checks["first-kernel-model"] = okm
    elif a[i - 1] == a[i]:
        stop_label = a[: i - 1] + a[i + 1 :]
        okm, shift = fm.match_characters(
            sub.character(), fm.label_character(stop_label), reindex=0
        )
        checks["equal-entry-model"] = okm
    got = {"dim": sub.dim, "checks": checks}
    return {"a": a, "i": i}, {"dim": expected_dim}, got, shift, all(checks.values())


def _filtration(cfg, claim, a, i):
    rep = sm.verify_filtration(a, i)
    got = {
        "layers": [[l["label"], l["dim"]] for l in rep["layers"]],
        "cokernel": [rep["cokernel"]["label"], rep["cokernel"]["dim"]],
        "total": rep["total"],
    }
    shift = [l["shift"] for l in rep["layers"]]
    return {"a": a, "i": i}, {"total": rep["dim"]}, got, shift, rep["ok"]


def _tg(cfg, claim, a, b):
    rep = fm.verify_tensor_embedding(a, b)
    expected = {"dim": rep["expected_dim"], "merged": rep["merged"]}
    return {"a": a, "b": b}, expected, {"dim": rep["span_dim"]}, rep["shift"], rep["ok"]


def _mprop(cfg, claim, a, i):
    rep = sm.verify_second_description(a, i)
    got = {"dim": rep["span_dim"], "string_ok": rep["string_ok"]}
    inputs = {"a": a, "i": i, "factors": rep["factors"]}
    return inputs, {"dim": rep["kernel_dim"]}, got, rep["shift"], rep["ok"]


def _emb(cfg, claim, a, i):
    rep = sm.verify_emb(a, i)
    inputs = {"a": a, "i": i, "factors": rep["factors"]}
    return inputs, {"dim": rep["kernel_dim"]}, {"dim": rep["span_dim"]}, rep["shift"], rep["ok"]


def _inductive(cfg, claim, a, i):
    rep = sm.verify_inductive_description(a, i)
    inputs = {"a": a, "i": i, "mode": rep["mode"]}
    return inputs, {"dim": rep["kernel_dim"]}, {"dim": rep["span_dim"]}, rep.get("shift"), rep["ok"]


def _demazure(cfg, claim, a):
    rep = fm.verify_demazure(a)
    span = fm.label_character(a[:-1]).total()
    return (
        {"a": a},
        {"span": span, "quotient": prod(a) - span},
        {"span": rep["span_dim"], "quotient": rep["quotient_dim"]},
        {"span": rep["span_shift"], "quotient": rep["quotient_shift"]},
        rep["ok"],
    )


def _nilpotency(cfg, claim, a):
    rep = sm.nilpotency_e1(a)
    got = {"measured": rep["measured"], "kills_last": rep["kills_last"]}
    shift = {"deviation": rep["deviation"]}
    return {"a": a}, {"formula": rep["formula"]}, got, shift, rep["kills_last"]


def _vect(cfg, claim, n):
    rep = geo.verify_vect_algebra(n)
    got = {"rank": rep["rank"], "closed": rep["closed"], "relations": rep["relations_ok"]}
    return {"n": n}, {"count": 4 * n - 1}, got, None, rep["ok"]


def _chart(cfg, claim, n):
    seed = claim_seed(cfg.seed, claim)
    rep = geo.verify_chart_identities(n, samples=cfg.samples, seed=seed)
    got = {
        "symbolic_failures": rep["symbolic_failures"],
        "sample_failures": rep["sample_failures"],
    }
    inputs = {"n": n, "samples": cfg.samples, "seed": seed}
    return inputs, "all identities hold", got, None, rep["ok"]


def _jacobian(cfg, claim, n):
    seed = claim_seed(cfg.seed, claim)
    rep = geo.jacobian_identity(n, samples=cfg.samples, seed=seed)
    inputs = {"n": n, "samples": cfg.samples, "seed": seed}
    return inputs, "(-1)^n / x0^(2n)", {"failures": rep["failures"]}, None, rep["ok"]


def _transition(cfg, claim, n):
    seed = claim_seed(cfg.seed, claim)
    sampled = geo.verify_transition_matrix(n, samples=cfg.samples, seed=seed)
    mat = sampled["matrix"]
    golden_ok = True
    if n in TRANSITION_GOLDEN:
        golden_ok = [[str(x) for x in row] for row in mat] == TRANSITION_GOLDEN[n]
    return (
        {"n": n, "size": len(mat), "seed": seed},
        {"golden": n in TRANSITION_GOLDEN},
        {"sampled_ok": sampled["ok"], "golden_ok": golden_ok},
        None,
        sampled["ok"] and golden_ok,
    )


def _splitting(cfg, claim, n):
    expected = geo.expected_splitting(n)
    got = splitting_type(geo.transition_matrix(n))
    return {"n": n}, expected, got, None, got == expected


def _cohomology(cfg, claim, label):
    rep = geo.cohomology_dim(label)
    return {"label": label}, prod(x + 1 for x in label), rep["dim"], None, rep["ok"]


def _pullback(cfg, claim, a):
    rep = geo.pullback_degree(a)
    got = {"sections": rep["sections"], "label": rep["label"]}
    return {"a": a}, {"dim": rep["module_dim"]}, got, None, rep["ok"]


def _ring(cfg, claim, a, k):
    rep = du.coordinate_ring_component(a, k)
    got = {
        "dim": rep["dim"],
        "generated": rep.get("generated"),
        "rank_deficits": rep.get("rank_deficits"),
    }
    ok = rep["dim_ok"] and rep.get("generated", True)
    return {"a": a, "k": k}, {"dim": rep["expected_dim"]}, got, None, ok


def _cache_spot(cfg, claim):
    if not cfg.cache_dir:
        return {}, "cache disabled", "cache disabled", None, SKIPPED
    seed = claim_seed(cfg.seed, claim)
    result = ModuleCache(cfg.cache_dir).spot_check(Random(seed))
    if result is None:
        return {"seed": seed}, "no cached entries", "no cached entries", None, SKIPPED
    inputs = {"label": result["label"], "seed": seed}
    return inputs, "characters equal", result["ok"], None, result["ok"]


# ---------------------------------------------------------------------------
# the claim table: each kind's parameter grid at the configured bounds


def _grid(cfg, max_n=None, max_entry=None, min_entry=1):
    """Sorted labels within cfg's bounds and the given tighter ones."""
    return composition_grid(min(cfg.max_n, max_n or cfg.max_n),
                            min(cfg.max_entry, max_entry or cfg.max_entry), min_entry)


def _n_range(cfg, lo, hi):
    """The one-parameter claims n = lo..hi, or only ``cfg.only_n`` when set."""
    if cfg.only_n is not None:
        return [(cfg.only_n,)] if lo <= cfg.only_n <= hi else []
    return [(n,) for n in range(lo, hi + 1)]


def _increasing_moves(cfg):
    """(a, i) for strictly increasing labels, n = 2, 3, and every slot i."""
    return [(a, i) for a in _grid(cfg, 3) if all(x < y for x, y in zip(a, a[1:]))
            for i in range(1, len(a))]


# claim kind -> (anchor, suite, check, params); params(cfg) lists the
# parameter tuples of the kind's claims.  Suite "all" holds every kind; a
# kind whose suite is "all" runs in no other suite.
CLAIM_KINDS = {
    "dims": ("dim-product", "dims", _dims, lambda cfg: [(a,) for a in _grid(cfg)]),
    "dual": ("dual-oracle", "dual-oracle", _dual,
             lambda cfg: [(a,) for a in _grid(cfg, 3) + [b for b in _grid(cfg, 4, 3) if len(b) == 4]]),
    "ring": ("ring-component", "dual-oracle", _ring,
             lambda cfg: [(a, k) for a in _grid(cfg, 2, 3) for k in (1, 2)]),
    "submodule": ("kernel-dim", "submodules", _submodule,
                  lambda cfg: [(a, i) for a in _grid(cfg) for i in valid_adjacent_moves(a)]),
    "filtration": ("filtration-chain", "filtration", _filtration,
                   lambda cfg: [((4, 5, 6, 9), 3)] + [(a, i) for a in _grid(cfg)
                                                      for i in range(1, len(a)) if a[i - 1] >= 2]),
    "tg": ("tensor-merge", "descriptions", _tg,
           lambda cfg: [(a, b) for a in _grid(cfg, 3, 3) for b in _grid(cfg, len(a), 3)]),
    "mprop": ("tensor-description", "descriptions", _mprop, _increasing_moves),
    "inductive": ("inductive-description", "descriptions", _inductive, _increasing_moves),
    "emb": ("increasing-tensor-description", "descriptions", _emb,
            lambda cfg: [(a, i) for a, i in _increasing_moves(cfg)
                         if all(a[j] - a[j - 1] > 1 for j in range(i + 1, len(a)))]),
    "demazure": ("peel-top-entry", "descriptions", _demazure,
                 lambda cfg: [(a,) for a in _grid(cfg, 3) if len(a) >= 2]),
    "nilpotency": ("second-variable-nilpotency", "descriptions", _nilpotency,
                   lambda cfg: [(a,) for a in _grid(cfg, 3) if len(a) >= 2]),
    "vect": ("field-algebra", "vectorfields", _vect, lambda cfg: _n_range(cfg, 1, 6)),
    "jacobian": ("inversion-jacobian", "transition", _jacobian, lambda cfg: _n_range(cfg, 1, 6)),
    "chart": ("chart-identities", "transition", _chart, lambda cfg: _n_range(cfg, 2, 5)),
    "transition": ("transition-matrix", "transition", _transition, lambda cfg: _n_range(cfg, 2, 5)),
    "splitting": ("splitting-type", "splitting", _splitting, lambda cfg: _n_range(cfg, 2, 5)),
    "cohomology": ("section-recursion", "cohomology", _cohomology,
                   lambda cfg: [(b,) for b in _grid(cfg, 4, 4, min_entry=0)]),
    "pullback": ("pullback-sections", "cohomology", _pullback,
                 lambda cfg: [(a,) for a in _grid(cfg)]),
    "cache-spot": ("cache-roundtrip", "all", _cache_spot, lambda cfg: [()]),
}

SUITES = (*dict.fromkeys(s for _, s, _, _ in CLAIM_KINDS.values() if s != "all"), "all")


def suite_claims(suite: str, cfg: RunConfig) -> list[tuple[str, tuple]]:
    """The suite's claims at cfg's bounds, kind by kind in table order."""
    return [
        (kind, params)
        for kind, (_, kind_suite, _, grid) in CLAIM_KINDS.items()
        if suite in (kind_suite, "all")
        for params in grid(cfg)
    ]


def _check_jobs(jobs: int, name: str = "jobs") -> None:
    """A pool size outside 1..os.cpu_count(), or above 1 without os.fork, is
    a ValueError."""
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ValueError(f"{name} must be between 1 and the CPU count ({cpus})")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValueError(f"{name} above 1 needs os.fork, which this platform lacks")


def claim_batches(claims: list) -> list[list]:
    """The claims grouped into pool tasks, each batch in suite order.

    Claims whose first parameter is a composition are grouped by its size
    |A| = sum(a_i): every move, peeling step and kernel target keeps |A|,
    so one worker builds each family of modules once.  Any other claim is a
    batch of its own.  Those come first, then the |A| batches from the
    largest |A| down.
    """
    singles, families = [], {}
    for kind, params in claims:
        if params and isinstance(params[0], tuple):
            families.setdefault(sum(params[0]), []).append((kind, params))
        else:
            singles.append([(kind, params)])
    return singles + [families[size] for size in sorted(families, reverse=True)]


def run_suite(suite: str, cfg: RunConfig) -> list[dict]:
    _check_jobs(cfg.jobs)
    claims = suite_claims(suite, cfg)
    # the spot check draws from the entries the other claims store: it runs last
    last = [claim for claim in claims if claim[0] == "cache-spot"]
    claims = [claim for claim in claims if claim[0] != "cache-spot"]
    if cfg.jobs > 1:
        batches = claim_batches(claims)
        reports, lost = _pool(batches, range(len(batches)), cfg.jobs, cfg)
        # rerun each unfinished batch alone, so a dead worker costs only its own batch
        for index, _ in lost:
            alone, died = _pool(batches, [index], 1, cfg)
            reports.extend(alone)
            for _, how in died:
                reports.extend(_batch_errors(batches[index], RuntimeError(f"its worker {how}")))
    else:
        reports = [_timed_claim(kind, params, cfg) for kind, params in claims]
    reports.extend(_timed_claim(kind, params, cfg) for kind, params in last)
    reports.sort(key=lambda r: r["claim"])
    return reports


def _pool(batches, indices, jobs: int, cfg):
    """Run ``batches[i]`` for each ``i`` of ``indices``, in order, on ``jobs``
    forked workers.  Returns the reports and ``(i, how its worker ended)``
    for each batch whose worker died holding it."""
    todo, reports, lost = list(reversed(indices)), [], []
    workers = {}  # result fd -> [pid, task fd, index of the batch held or None]
    sys.stdout.flush()  # or each worker would write the buffered text again
    sys.stderr.flush()
    try:
        while True:
            while todo and len(workers) < jobs:
                _fork_worker(batches, cfg, workers)
            for res_fd, worker in list(workers.items()):
                if worker[2] is None:  # idle: the next batch, or the stop message
                    worker[2] = todo.pop() if todo else None
                    _send(worker[1], worker[2])
                    if worker[2] is None:
                        _reap(res_fd, workers.pop(res_fd))
            if not workers:
                return reports, lost
            for res_fd in select.select(list(workers), [], [])[0]:
                try:
                    reports.extend(_recv(res_fd))
                    workers[res_fd][2] = None
                except EOFError:  # the worker died holding its batch
                    lost.append((workers[res_fd][2], _reap(res_fd, workers.pop(res_fd))))
    finally:  # only an exception leaves workers here
        for res_fd, worker in workers.items():
            os.kill(worker[0], 9)  # SIGKILL
            _reap(res_fd, worker)


def _fork_worker(batches, cfg, workers: dict) -> None:
    """Add to ``workers`` a new worker that runs each batch whose index it
    reads, until it reads ``None``."""
    task_r, task_w = os.pipe()
    res_r, res_w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(task_r)
        os.close(res_w)
        workers[res_r] = [pid, task_w, None]
        return
    code = 1
    try:  # close the parent's ends: this worker's and every other worker's
        for fd in (task_w, res_r, *workers, *(worker[1] for worker in workers.values())):
            os.close(fd)
        while (index := _recv(task_r)) is not None:
            reports = _timed_batch(batches[index], cfg)
            try:
                _send(res_w, reports)
            except ValueError as exc:  # marshal cannot carry a value in the reports
                _send(res_w, _batch_errors(batches[index], exc))
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _send(fd: int, value) -> None:
    """Write ``value`` to ``fd`` as a length-prefixed ``marshal`` message.  A
    reader that is gone is no error: its worker's result pipe shows EOF."""
    data = marshal.dumps(value)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        pass


def _recv(fd: int):
    """The next message on ``fd``; EOFError if its writer is gone."""
    return marshal.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _read(fd: int, size: int) -> bytearray:
    data = bytearray()
    while len(data) < size:
        if not (chunk := os.read(fd, size - len(data))):
            raise EOFError
        data += chunk
    return data


def _reap(res_fd: int, worker: list) -> str:
    """Close a worker's pipes, wait for it, and say how it ended."""
    pid, task_fd, _ = worker
    os.close(res_fd)
    os.close(task_fd)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"


def _batch_errors(batch, exc: Exception) -> list[dict]:
    """One ``error`` record per claim of a batch whose records did not come back."""
    traceback.print_exception(exc, file=sys.stderr)
    return [_error_report(claim_id(*claim), claim[1], exc) for claim in batch]


def _timed_batch(batch, cfg):
    return [_timed_claim(kind, params, cfg) for kind, params in batch]


def _timed_claim(kind, params, cfg):
    t0 = time.perf_counter()
    rep = run_claim(kind, params, cfg)
    rep["ms"] = int((time.perf_counter() - t0) * 1000)
    return rep


# ---------------------------------------------------------------------------
# output


def emit(reports: list[dict], fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        for rep in reports:
            out.write(json.dumps(rep, sort_keys=True) + "\n")
        return
    if fmt == "csv":
        import csv

        writer = csv.writer(out)
        writer.writerow(["claim", "anchor", "status", "expected", "got", "shift", "ms"])
        for rep in reports:
            writer.writerow(
                [
                    rep["claim"],
                    rep["anchor"],
                    rep["status"],
                    json.dumps(rep["expected"], sort_keys=True),
                    json.dumps(rep["got"], sort_keys=True),
                    json.dumps(rep["shift"], sort_keys=True),
                    rep["ms"],
                ]
            )
        return
    width = max((len(r["claim"]) for r in reports), default=10)
    for rep in reports:
        line = f"{rep['status']:<8} {rep['claim']:<{width}}  [{rep['anchor']}]"
        if rep["status"] in ("fail", "error"):
            line += f"  expected={json.dumps(rep['expected'])} got={json.dumps(rep['got'])}"
        out.write(line + "\n")
    passed = sum(r["status"] == "pass" for r in reports)
    failed = sum(r["status"] == "fail" for r in reports)
    skipped = sum(r["status"] == "skipped" for r in reports)
    errors = sum(r["status"] == "error" for r in reports)
    tail = f", {errors} error{'s' * (errors > 1)}" if errors else ""
    out.write(f"{passed} passed, {failed} failed, {skipped} skipped{tail}\n")


# ---------------------------------------------------------------------------
# argument parsing and commands


def parse_composition(text: str, allow_zero: bool = False):
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}")
    low = 0 if allow_zero else 1
    if any(v < low for v in values):
        raise argparse.ArgumentTypeError("entries out of range")
    return values


def sized_label(a: tuple) -> tuple:
    """``a``, if it has at most ``MAX_AMBIENT_MONOMIALS`` ambient monomials."""
    if comb(len(a) + sum(x - 1 for x in a) + 1, len(a)) > MAX_AMBIENT_MONOMIALS:
        raise argparse.ArgumentTypeError(
            f"label {a} has more than {MAX_AMBIENT_MONOMIALS} ambient monomials to build"
        )
    return a


def _resolve_cache_dir(args, parser) -> str | None:
    """``--cache-dir``, else ``$SLFUSION_CACHE_DIR``, else None; the
    directory is created if missing, and a path that cannot be a writable
    directory is a usage error."""
    path = args.cache_dir or os.environ.get(CACHE_ENV) or None
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            parser.error(f"cache dir {path!r} cannot be created: {exc.strerror or exc}")
        if not os.access(path, os.W_OK | os.X_OK):
            parser.error(f"cache dir {path!r} is not a writable directory")
    return path


def cmd_build(args, parser) -> int:
    a = args.a
    try:
        fm.validate_composition(a, allow_empty=False)
    except ValueError as exc:
        parser.error(str(exc))
    cache_dir = _resolve_cache_dir(args, parser)
    mod = ModuleCache(cache_dir).get(a) if cache_dir else fm.fusion_module(a)
    print(f"a = {','.join(map(str, a))}")
    print(f"dim = {mod.total_dim}")
    print(f"character = {mod.character().poly_str()}")
    if args.command == "build":
        print(f"top degree = {mod.kmax} (one further band certified zero)")
        print(f"lowest h0 weight = {mod.lowest_h0}")
    return EXIT_OK


def cmd_submodule(args, parser) -> int:
    try:
        rejection = sm.move_rejection(args.a, args.i, args.i + 1)
    except ValueError as exc:
        rejection = str(exc)
    if rejection:
        parser.error(rejection)
    sub = sm.submodule_S(args.a, args.i)
    print(f"S_({args.i},{args.i + 1}) of {args.a}")
    print(f"dim = {sub.dim} (formula {sm.eq_first_dim(args.a, args.i)})")
    print(f"character = {sub.character().poly_str()}")
    print(f"quotient label = {sub.target_label}, dim {sub.target.total_dim}")
    return EXIT_OK


def cmd_filtration(args, parser) -> int:
    try:
        rep = sm.verify_filtration(args.a, args.i)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"peeling chain for the kernel at slot {args.i} of {args.a}:")
    for layer in rep["layers"]:
        lab = ",".join(map(str, layer["label"]))
        print(f"  {layer['composition']} -> layer M^({lab})  [{layer['action']}]")
    layers = " + ".join(str(l["dim"]) for l in rep["layers"])
    print(f"layer dims: {layers} + cokernel {rep['cokernel']['dim']} = {rep['total']}")
    print(f"parent dim: {rep['dim']}  telescoped: {rep['telescoped']}")
    print(f"shifts: {[l['shift'] for l in rep['layers']]}")
    return EXIT_OK if rep["ok"] else EXIT_FAIL


def cmd_cohomology(args, parser) -> int:
    try:
        rep = geo.cohomology_dim(args.a)
    except ValueError as exc:
        parser.error(str(exc))
    for line in rep["trace"]:
        print(line)
    print(f"dim = {rep['dim']} (product formula {rep['expected']})")
    return EXIT_OK if rep["ok"] else EXIT_FAIL


def cmd_splitting(args, parser) -> int:
    if args.n < 2:
        parser.error("need --n at least 2")
    if args.n > MAX_SPLITTING_N:
        parser.error(f"need --n at most {MAX_SPLITTING_N}")
    got = splitting_type(geo.transition_matrix(args.n))
    print(f"splitting exponents for n={args.n}: {got}")
    stated = geo.expected_splitting(args.n)
    if got != stated:
        print(f"note: differs from the closed-form claim {stated}")
        return EXIT_FAIL
    return EXIT_OK


def cmd_invert(args, parser) -> int:
    try:
        coeffs = [parse_scalar(x) for x in args.a.split(",")]
    except ValueError:
        parser.error("expected a comma list of rationals")
    if not coeffs or coeffs[0] == 0:
        parser.error("constant term must be nonzero (point misses the chart overlap)")
    print(",".join(str(c) for c in geo.invert_series(coeffs)))
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    try:
        _check_jobs(args.jobs, "--jobs")
        cfg = RunConfig(
            max_n=args.max_n,
            max_entry=args.max_entry,
            samples=args.samples,
            seed=args.seed,
            cache_dir=_resolve_cache_dir(args, parser),
            jobs=args.jobs,
            only_n=args.n,
        )
        sized_label((cfg.max_entry,) * cfg.max_n)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))
    claims = suite_claims(args.suite, cfg)
    if not claims:
        parser.error(f"suite {args.suite!r} selects no claim at these bounds")
    # the R1 steps of each pullback claim: the sum of its pullback label
    steps = [sum(geo.pullback_label(params[0])) for kind, params in claims if kind == "pullback"]
    bounds = f"--max-n {cfg.max_n} --max-entry {cfg.max_entry}"
    if steps and max(steps) > geo.MAX_LABEL_SUM:
        parser.error(f"{bounds} give a pullback label summing to {max(steps)}, "
                     f"more than {geo.MAX_LABEL_SUM}")
    if sum(steps) > MAX_PULLBACK_STEPS:
        parser.error(f"{bounds} give pullback claims of {sum(steps)} section-recursion "
                     f"steps in all, more than {MAX_PULLBACK_STEPS}")
    reports = run_suite(args.suite, cfg)
    emit(reports, args.format)
    if any(rep.get("integrity") for rep in reports):
        return EXIT_INTEGRITY
    if any(rep["status"] == "error" for rep in reports):
        return EXIT_ERROR
    if any(rep["status"] == "fail" for rep in reports):
        return EXIT_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slfusion",
        description="exact computations and verification suites for fusion modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cache_help = f"module cache (or ${CACHE_ENV})"

    for name in ("build", "character"):
        p = sub.add_parser(name, help="build a module and print its invariants")
        p.add_argument("--a", type=lambda t: sized_label(parse_composition(t)), required=True)
        p.add_argument("--cache-dir", default=None, help=cache_help)
        p.set_defaults(func=cmd_build)

    p = sub.add_parser("submodule", help="kernel of the adjacent move surjection")
    p.add_argument("--a", type=lambda t: sized_label(parse_composition(t)), required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=cmd_submodule)

    p = sub.add_parser("filtration", help="run and verify the peeling chain")
    p.add_argument("--a", type=lambda t: sized_label(parse_composition(t)), required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=cmd_filtration)

    p = sub.add_parser("cohomology", help="section-dimension recursion with trace")
    p.add_argument("--a", type=lambda t: parse_composition(t, allow_zero=True), required=True)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("splitting", help="splitting type of the fiber-frame matrix")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_splitting)

    p = sub.add_parser("invert", help="invert a truncated series")
    p.add_argument("--a", required=True, help="comma list of rational coefficients")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-entry", type=int, default=5)
    p.add_argument("--n", type=int, default=None,
                   help="restrict the n-indexed suites to a single value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache-dir", default=None, help=cache_help)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()  # a closed pipe shows here, inside the guard
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): point it at devnull so that
        # the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
