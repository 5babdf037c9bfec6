"""Smoke test of the benchmark harness (about a minute on two cores).

    python3 perfbench/smoke.py

Runs every workload end to end on tiny inputs, untraced and traced, and
checks the result lines; the worker spans of the two-worker workload must
come back to the parent.  Then checks, on copies of the benchmark, that a
corrupted reference makes ``wrong_frac`` positive and that the benchmark
refuses to run without the program's sources; and that an exception escaping
``run_suite`` counts every claim as wrong.
Kept out of the pytest suite on purpose: it is a test of the benchmark, and
its wall time would be charged to the program's tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCE, SCRATCH, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / HERE.name / "run.py"), "--seed", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(lines) -> dict:
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    return res


def check_metrics(res, wanted):
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and type(got["value"]) in (int, float), (m, got)
    assert set(res["metrics"]) == {m["name"] for m in wanted}


def copy_benchmark(dest: Path, with_sources: bool) -> Path:
    """A checkout holding BENCHMARK.json, the benchmark and optionally src/."""
    dest.mkdir()
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / HERE.name, ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def main() -> int:
    for name in WORKLOADS:
        for trace in ("0", "1"):
            code, lines, err = bench("--workload", name, "--trace", trace)
            assert code == 0, (name, err)
            res = result(lines)
            assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, (name, res)
            check_metrics(res, SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"])
            print(f"ok   {name} (trace {trace}): {res['attempted']} operations")
        layers = {k: v["value"] for k, v in res["metrics"].items()}
        if name == "verify-all-j2":
            # the claims ran in the workers; their spans must have come back
            assert layers["cli.worker_busy_s"] > 0 and layers["modules.builds"] > 0, layers
        else:
            assert layers["cache.load_s"] > 0 and layers["dual.spaces"] > 0, layers
            assert min(layers[f"components.{p}_s"] for p in ("build", "dual", "geometry")) > 0

    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        corrupt = copy_benchmark(Path(tmp) / "corrupt", with_sources=True)
        ref = json.loads(REFERENCE.read_text())
        claims = ref["verify-all-tiny"]["claims"]
        claim = sorted(claims)[0]
        claims[claim] = "0" * 16
        (corrupt / HERE.name / REFERENCE.name).write_text(json.dumps(ref))
        code, lines, _ = bench("--workload", "verify-all-j2", "--trace", "0", cwd=corrupt)
        res = result(lines)
        summary = json.loads(lines[-2].removeprefix("summary "))
        assert code == 1 and not res["correct"] and res["failed"] == 1, res
        assert summary["wrong_frac"] > 0, summary
        print(f"ok   corrupted reference: {claim} reported wrong, wrong_frac {summary['wrong_frac']:.4f}")

        bare = copy_benchmark(Path(tmp) / "bare", with_sources=False)
        code, lines, _ = bench("--workload", "components", "--trace", "0", cwd=bare)
        assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
        print(f"ok   without the sources: exit {code}, no result printed")

    workload = WORKLOADS["verify-all-j2"](1, True)
    attempted, wrong, tracebacks = workload.check((None, "Traceback: boom"))
    assert attempted == wrong == len(workload.reference["claims"]) and tracebacks, attempted
    print(f"ok   an exception escaping run_suite counts all {attempted} claims wrong")
    return 0


if __name__ == "__main__":
    sys.exit(main())
