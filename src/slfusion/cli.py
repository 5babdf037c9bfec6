"""Command-line front end and verification-suite runner.

Every claim instance produces one report record

    {claim, anchor, inputs, expected, got, shift, status, ms}

with a stable claim id; suites emit their reports sorted by claim id, so two
runs with the same configuration and seed agree byte for byte apart from the
timing fields.  All randomness (sample points for the chart checks, the cache
spot check) flows from the single configured seed, hashed per claim so the
outcome does not depend on execution order.

Exit codes: 0 all pass, 1 at least one verification failure, 2 usage error,
3 internal integrity error, 4 a claim (or command) raised an unexpected
exception.  An integrity error outranks a crash, which outranks a failure.
A crashing claim is reported with status ``error`` and the exception text in
``got``; the other claims still run and report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from random import Random

from slfusion.linalg import IntegrityError, parse_scalar
from slfusion import modules as fm
from slfusion import submodules as sm
from slfusion import dual as du
from slfusion import geometry as geo
from slfusion.laurent import splitting_type
from slfusion._goldens import TRANSITION_GOLDEN

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INTEGRITY, EXIT_ERROR = 0, 1, 2, 3, 4

SUITES = (
    "dims",
    "dual-oracle",
    "submodules",
    "filtration",
    "descriptions",
    "vectorfields",
    "transition",
    "splitting",
    "cohomology",
    "all",
)

CACHE_ENV = "SLFUSION_CACHE_DIR"


@dataclass
class RunConfig:
    max_n: int = 4
    max_entry: int = 5
    samples: int = 20
    seed: int = 0
    cache_dir: str | None = None
    jobs: int = 1
    only_n: int | None = None

    def __post_init__(self):
        if self.max_n < 1 or self.max_entry < 1 or self.samples < 1:
            raise ValueError("bounds must be positive")


def claim_seed(seed: int, claim: str) -> int:
    digest = hashlib.sha256(f"{seed}:{claim}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, fm.GradedCharacter):
        return value.poly_str()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# the ``ok`` of a claim that was not run
SKIPPED = object()


def report(claim, anchor, inputs, expected, got, shift, ok):
    status = "skipped" if ok is SKIPPED else ("pass" if ok else "fail")
    return {
        "claim": claim,
        "anchor": anchor,
        "inputs": _jsonable(inputs),
        "expected": _jsonable(expected),
        "got": _jsonable(got),
        "shift": _jsonable(shift),
        "status": status,
        "ms": 0,
    }


# ---------------------------------------------------------------------------
# grids


def sorted_compositions(n: int, max_entry: int, min_entry: int = 1):
    out = []

    def rec(prefix, lo):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(lo, max_entry + 1):
            rec(prefix + [v], v)

    rec([], min_entry)
    return out


def composition_grid(max_n: int, max_entry: int, min_entry: int = 1):
    out = []
    for n in range(1, max_n + 1):
        out.extend(sorted_compositions(n, max_entry, min_entry))
    return out


def valid_adjacent_moves(a):
    """Positions i where the move (i, i+1) keeps the label sorted positive."""
    out = []
    for i in range(1, len(a)):
        target = sm.move_composition(a, i, i + 1)
        if all(x >= 1 for x in target) and all(
            x <= y for x, y in zip(target, target[1:])
        ):
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# claim execution (top-level for process pools)


def claim_id(kind: str, params: tuple) -> str:
    return f"{kind}{list(params)!r}" if params else kind


def run_claim(kind: str, params: tuple, cfg: RunConfig) -> dict:
    claim = claim_id(kind, params)
    try:
        anchor, check = CLAIM_KINDS[kind]
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
    from slfusion.cache import ModuleCache

    seed = claim_seed(cfg.seed, claim)
    result = ModuleCache(cfg.cache_dir).spot_check(Random(seed))
    if result is None:
        return {"seed": seed}, "no cached entries", "no cached entries", None, SKIPPED
    inputs = {"label": result["label"], "seed": seed}
    return inputs, "characters equal", result["ok"], None, result["ok"]


# claim kind -> (anchor, check)
CLAIM_KINDS = {
    "dims": ("dim-product", _dims),
    "dual": ("dual-oracle", _dual),
    "submodule": ("kernel-dim", _submodule),
    "filtration": ("filtration-chain", _filtration),
    "tg": ("tensor-merge", _tg),
    "mprop": ("tensor-description", _mprop),
    "emb": ("increasing-tensor-description", _emb),
    "inductive": ("inductive-description", _inductive),
    "demazure": ("peel-top-entry", _demazure),
    "nilpotency": ("second-variable-nilpotency", _nilpotency),
    "vect": ("field-algebra", _vect),
    "chart": ("chart-identities", _chart),
    "jacobian": ("inversion-jacobian", _jacobian),
    "transition": ("transition-matrix", _transition),
    "splitting": ("splitting-type", _splitting),
    "cohomology": ("section-recursion", _cohomology),
    "pullback": ("pullback-sections", _pullback),
    "ring": ("ring-component", _ring),
    "cache-spot": ("cache-roundtrip", _cache_spot),
}


# ---------------------------------------------------------------------------
# suite construction


def suite_claims(suite: str, cfg: RunConfig) -> list[tuple[str, tuple]]:
    claims: list[tuple[str, tuple]] = []
    if suite in ("dims", "all"):
        for a in composition_grid(cfg.max_n, cfg.max_entry):
            claims.append(("dims", (a,)))
    if suite in ("dual-oracle", "all"):
        for a in composition_grid(min(3, cfg.max_n), cfg.max_entry):
            claims.append(("dual", (a,)))
        if cfg.max_n >= 4:
            for a in sorted_compositions(4, min(3, cfg.max_entry)):
                claims.append(("dual", (a,)))
        for a in composition_grid(min(2, cfg.max_n), min(3, cfg.max_entry)):
            for k in (1, 2):
                claims.append(("ring", (a, k)))
    if suite in ("submodules", "all"):
        for a in composition_grid(cfg.max_n, cfg.max_entry):
            for i in valid_adjacent_moves(a):
                claims.append(("submodule", (a, i)))
    if suite in ("filtration", "all"):
        claims.append(("filtration", ((4, 5, 6, 9), 3)))
        for a in composition_grid(cfg.max_n, cfg.max_entry):
            for i in range(1, len(a)):
                if a[i - 1] >= 2:
                    claims.append(("filtration", (a, i)))
    if suite in ("descriptions", "all"):
        for a in composition_grid(min(3, cfg.max_n), min(3, cfg.max_entry)):
            for b in composition_grid(len(a), min(3, cfg.max_entry)):
                if len(b) <= len(a):
                    claims.append(("tg", (a, b)))
        for a in composition_grid(min(3, cfg.max_n), cfg.max_entry):
            n = len(a)
            if n >= 2 and all(x < y for x, y in zip(a, a[1:])):
                for i in range(1, n):
                    claims.append(("mprop", (a, i)))
                    claims.append(("inductive", (a, i)))
                    if all(a[j] - a[j - 1] > 1 for j in range(i + 1, n)):
                        claims.append(("emb", (a, i)))
            if n >= 2:
                claims.append(("demazure", (a,)))
                claims.append(("nilpotency", (a,)))
    def n_range(lo, hi):
        if cfg.only_n is not None:
            return [cfg.only_n] if lo <= cfg.only_n <= hi else []
        return list(range(lo, hi + 1))

    if suite in ("vectorfields", "all"):
        for n in n_range(1, 6):
            claims.append(("vect", (n,)))
    if suite in ("transition", "all"):
        for n in n_range(1, 6):
            claims.append(("jacobian", (n,)))
        for n in n_range(2, 5):
            claims.append(("chart", (n,)))
            claims.append(("transition", (n,)))
    if suite in ("splitting", "all"):
        for n in n_range(2, 5):
            claims.append(("splitting", (n,)))
    if suite in ("cohomology", "all"):
        for n in range(1, min(4, cfg.max_n) + 1):
            for label in sorted_compositions(n, min(4, cfg.max_entry), min_entry=0):
                claims.append(("cohomology", (label,)))
        for a in composition_grid(cfg.max_n, cfg.max_entry):
            claims.append(("pullback", (a,)))
    if suite == "all":
        claims.append(("cache-spot", ()))
    return claims


def _check_jobs(jobs: int, name: str = "jobs") -> None:
    """A pool size outside 1..os.cpu_count() is a ValueError."""
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ValueError(f"{name} must be between 1 and the CPU count ({cpus})")


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
    if cfg.cache_dir:
        _warm_cache(claims, cfg)
    reports = []
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        batches = claim_batches(claims)
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [pool.submit(_timed_batch, batch, cfg) for batch in batches]
            for batch, future in zip(batches, futures):
                try:
                    reports.extend(future.result())
                except Exception as exc:  # the worker died or its result was lost
                    traceback.print_exception(exc, file=sys.stderr)
                    reports.extend(_error_report(claim_id(*claim), claim[1], exc) for claim in batch)
    else:
        for kind, params in claims:
            reports.append(_timed_claim(kind, params, cfg))
    reports.sort(key=lambda r: r["claim"])
    return reports


def _timed_batch(batch, cfg):
    return [_timed_claim(kind, params, cfg) for kind, params in batch]


def _timed_claim(kind, params, cfg):
    t0 = time.perf_counter()
    rep = run_claim(kind, params, cfg)
    rep["ms"] = int((time.perf_counter() - t0) * 1000)
    return rep


def _warm_cache(claims, cfg):
    """Preload plain modules named by the claims through the disk cache."""
    from slfusion.cache import ModuleCache

    cache = ModuleCache(cfg.cache_dir)
    for kind, params in claims:
        if kind in ("dims", "dual", "demazure", "nilpotency") and params:
            cache.get(params[0])


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


def _resolve_cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get(CACHE_ENV) or None


def _get_module(a, cache_dir):
    if cache_dir:
        from slfusion.cache import ModuleCache

        return ModuleCache(cache_dir).get(a)
    return fm.fusion_module(a)


def cmd_build(args, parser) -> int:
    a = args.a
    try:
        fm.validate_composition(a, allow_empty=False)
    except ValueError as exc:
        parser.error(str(exc))
    mod = _get_module(a, _resolve_cache_dir(args))
    print(f"a = {','.join(map(str, a))}")
    print(f"dim = {mod.total_dim}")
    print(f"character = {mod.character().poly_str()}")
    if args.command == "build":
        print(f"top degree = {mod.kmax} (one further band certified zero)")
        print(f"lowest h0 weight = {mod.lowest_h0}")
    return EXIT_OK


def cmd_submodule(args, parser) -> int:
    try:
        sub = sm.submodule_S(args.a, args.i)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"S_({args.i},{args.i + 1}) of {args.a}")
    print(f"dim = {sub.dim} (formula {sm.eq_first_dim(args.a, args.i)})")
    print(f"character = {sub.character().poly_str()}")
    print(f"quotient label = {sub.qmap.target_label}, dim {sub.qmap.target.total_dim}")
    return EXIT_OK


def cmd_filtration(args, parser) -> int:
    try:
        rep = sm.verify_filtration(args.a, args.i)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"peeling chain for the kernel at slot {args.i} of {args.a}:")
    for step in rep["steps"]:
        lab = ",".join(map(str, step["label"]))
        print(f"  {step['composition']} -> layer M^({lab})  [{step['action']}]")
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
    return EXIT_OK


def cmd_splitting(args, parser) -> int:
    if args.n < 2:
        parser.error("need --n at least 2")
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
    inv = geo.TruncatedSeries(coeffs).invert()
    print(",".join(str(c) for c in inv.coeffs))
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    if args.suite not in SUITES:
        parser.error(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}")
    try:
        _check_jobs(args.jobs, "--jobs")
        cfg = RunConfig(
            max_n=args.max_n,
            max_entry=args.max_entry,
            samples=args.samples,
            seed=args.seed,
            cache_dir=_resolve_cache_dir(args),
            jobs=args.jobs,
            only_n=args.n,
        )
    except ValueError as exc:
        parser.error(str(exc))
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
        p.add_argument("--a", type=lambda t: parse_composition(t), required=True)
        p.add_argument("--cache-dir", default=None, help=cache_help)
        p.set_defaults(func=cmd_build)

    p = sub.add_parser("submodule", help="kernel of the adjacent move surjection")
    p.add_argument("--a", type=lambda t: parse_composition(t), required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=cmd_submodule)

    p = sub.add_parser("filtration", help="run and verify the peeling chain")
    p.add_argument("--a", type=lambda t: parse_composition(t), required=True)
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
        return args.func(args, parser)
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
