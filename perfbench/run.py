"""slfusion benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload verify-all-j2 --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout.  Every repetition is a fresh interpreter
(``rep.py``), so the in-process module memo starts empty each time.  One
closed-loop caller runs one repetition at a time; only ``verify-all-j2``
starts worker processes (two, through the program's own pool).

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions, ``setup_s`` included: every repetition sets up once.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians), plus the ratio of the traced
to the untraced wall.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the run context and a readable summary.  Exit code 0 when
every output matched the reference, 1 when some did not (the result is still
printed), 2 when the benchmark could not run at all (no result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SCRATCH, WORKLOADS  # noqa: E402

REP_TIMEOUT_S = 170
# the timed phases of the components workload
PHASES = ("build", "dual", "geometry")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_context() -> dict:
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SLFUSION_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # bytecode goes to the scratch directory, never into src/
    env["PYTHONPYCACHEPREFIX"] = str(SCRATCH / "pycache")
    return env


class RepFailed(Exception):
    pass


def spawn(args, trace: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(trace)),
    ]
    if args.tiny:
        cmd.append("--tiny")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    # its own session, so a timeout can stop the pool workers with it
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"repetition exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(lines[-1])


def repetitions(args, pattern: tuple[bool, ...]) -> list[tuple[bool, dict]]:
    """Run ``pattern`` (trace flags) round after round while the next round
    is expected to end within ``--seconds``; always at least one round."""
    start = time.monotonic()
    done: list[tuple[bool, dict]] = []
    round_s = 0.0
    while True:
        t0 = time.monotonic()
        for trace in pattern:
            done.append((trace, spawn(args, trace)))
        round_s = max(round_s, time.monotonic() - t0)
        if args.tiny or time.monotonic() - start + round_s > args.seconds:
            return done


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one repetition (smoke test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "slfusion" / "__init__.py").is_file():
        print(f"no slfusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    SCRATCH.mkdir(exist_ok=True)
    context = run_context()
    print("context " + json.dumps(context, sort_keys=True), flush=True)

    try:
        reps = repetitions(args, (False, True) if args.trace else (False,))
    except RepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    plain = [r for trace, r in reps if not trace]
    traced = [r for trace, r in reps if trace]
    setups = [r["setup_s"] for r in plain]
    attempted = sum(r["attempted"] for _, r in reps)
    failed = sum(r["wrong"] for _, r in reps)
    for _, r in reps:
        for tb in r["tracebacks"]:
            print(tb, file=sys.stderr)

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: statistics.median([r["layers"][m["name"]] for r in traced])
                  for m in wanted if m["name"] in traced[0]["layers"]}
        # phase walls are taken from the untraced repetitions
        for phase in PHASES:
            values[f"components.{phase}_s"] = statistics.median(
                [r["phase_s"].get(phase, 0.0) for r in plain])
        traced_wall = statistics.median([r["wall_s"] for r in traced])
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_ratio"] = traced_wall / statistics.median([r["wall_s"] for r in plain])
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": statistics.median([r["wall_s"] for r in plain]),
            "cpu_s": statistics.median([r["cpu_s"] for r in plain]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "walls_s": [round(r["wall_s"], 4) for r in plain],
        "phases_s": {p: [round(r["phase_s"][p], 4) for r in plain]
                     for p in PHASES if p in plain[0]["phase_s"]},
        "setups_s": [round(s, 4) for s in setups],
        "wrong_frac": failed / attempted if attempted else 1.0,
    }
    if traced:
        # the percentile modules.build_ms_tail reads, and the builds it is of
        summary["build_tail"] = [
            {"pct": r["layers"]["modules.build_tail_pct"], "builds": r["layers"]["modules.builds"]}
            for r in traced
        ]
    print("summary " + json.dumps(summary), flush=True)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
