"""The benchmark's workloads: inputs made from the seed, the timed calls,
and the checks of their outputs.

Each workload is a class with three steps, all run inside one fresh
interpreter (``rep.py``):

* ``setup()`` makes the inputs from the seed and does any warm-up; it ends
  just before the first timed call, so its cost is the repetition's setup;
* ``run()`` is the timed phase and returns the raw outputs;
* ``check(outputs)`` compares them with the reference and returns
  ``(attempted, wrong, tracebacks)``.  An operation that raised counts as
  wrong and its traceback is reported, never dropped;
* ``close()`` removes what setup created, whether or not the run happened.

Seed-chosen inputs come from families whose members cost about the same, so
that a change of seed moves which inputs run, not how much work a run does.

Two workloads are registered (``WORKLOADS``): the verify-all suite through
the two-worker pool, and ``components``, which runs the module-build,
dual-oracle and geometry phases one after the other and times each phase.
The phases are separate classes so that each one keeps its own inputs and
checks.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
import traceback
from math import prod
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# everything a run writes goes under this directory of the checkout
SCRATCH = HERE.parent / ".bench_build"


def sorted_labels(n: int, max_entry: int) -> list[tuple]:
    """Nondecreasing n-tuples with entries in 1..max_entry."""
    if n == 0:
        return [()]
    return [
        head + (x,)
        for head in sorted_labels(n - 1, max_entry)
        for x in range(head[-1] if head else 1, max_entry + 1)
    ]


def label_grid(max_n: int, max_entry: int) -> list[tuple]:
    return [a for n in range(1, max_n + 1) for a in sorted_labels(n, max_entry)]


def _guarded(fn, *args):
    """(value, None) or (None, traceback text)."""
    try:
        return fn(*args), None
    except Exception:
        return None, traceback.format_exc()


def _tally(results) -> tuple[int, int, list]:
    """results: list of (ok, traceback-or-None)."""
    wrong = sum(1 for ok, _ in results if not ok)
    return len(results), wrong, [tb for _, tb in results if tb]


class Workload:
    """Defaults shared by the workloads and the phases of ``components``."""

    jobs = 1

    def __init__(self):
        # wall seconds of each named phase of the last run
        self.phase_s: dict[str, float] = {}

    def setup(self):
        pass

    def close(self):
        pass


# ---------------------------------------------------------------------------
# verify-all-j2


def claim_seed(seed: int, claim: str) -> int:
    """The per-claim sample seed the suite must derive from the run seed."""
    digest = hashlib.sha256(f"{seed}:{claim}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def normalized_record(rep: dict, seed: int) -> str:
    """A report line without ``ms`` and independent of the run seed.

    The only seed-dependent field is the sample seed of the chart, Jacobian
    and transition claims; it is replaced by a marker when, and only when,
    it equals the value derived from the run seed.
    """
    rec = {k: v for k, v in rep.items() if k != "ms"}
    inputs = rec.get("inputs")
    if isinstance(inputs, dict) and "seed" in inputs:
        if inputs["seed"] == claim_seed(seed, rec["claim"]):
            rec["inputs"] = dict(inputs, seed="claim_seed(seed, claim)")
    return json.dumps(rec, sort_keys=True)


def stream_reference(reports: list[dict], seed: int) -> dict:
    lines = [normalized_record(r, seed) for r in reports]
    return {
        "stream_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "claims": {
            r["claim"]: hashlib.sha256(line.encode()).hexdigest()[:16]
            for r, line in zip(reports, lines)
        },
    }


class VerifyAll(Workload):
    """``cli.run_suite("all", ...)`` at the default bounds through the pool.

    Two workers, one per core of the 2-core machine it was tuned on.  The
    claims are the ones a ``jobs=1`` run checks; the pool adds per-worker
    module rebuilds and the tail of the one 6 s anchor claim.  Its two
    processes also average two cores' speed, which kept its run-to-run
    spread at half that of ``jobs=1``.
    """

    jobs = 2

    def __init__(self, seed: int, tiny: bool):
        from slfusion.cli import RunConfig

        super().__init__()
        self.seed = seed
        self.key = "verify-all-tiny" if tiny else "verify-all"
        bounds = dict(max_n=2, max_entry=2, samples=2) if tiny else {}
        self.cfg = RunConfig(jobs=self.jobs, cache_dir=None, seed=seed, **bounds)
        self.reference = json.loads(REFERENCE.read_text())[self.key]

    def run(self):
        from slfusion import cli

        return _guarded(cli.run_suite, "all", self.cfg)

    def check(self, outputs):
        reports, tb = outputs
        want = self.reference["claims"]
        if tb is not None:
            return len(want), len(want), [tb]
        stream = stream_reference(reports, self.seed)
        got = stream["claims"]
        wrong = sum(1 for claim, h in want.items() if got.get(claim) != h)
        wrong += sum(1 for claim in got if claim not in want)
        if not wrong and stream["stream_sha256"] != self.reference["stream_sha256"]:
            wrong = len(want)  # the same records in another order
        return max(len(want), len(got)), wrong, []


# ---------------------------------------------------------------------------
# components: build phase

# Seed-chosen frontier labels, one from each family.  Members of a family
# build in about the same time (within ~15% on a 2-core Xeon).
FRONTIER_N4 = [(4, 5, 6, 9), (4, 5, 7, 8), (4, 6, 6, 8), (5, 5, 6, 8), (5, 6, 6, 7)]
FRONTIER_N5 = [(4, 4, 4, 4, 4), (3, 4, 4, 4, 5)]


class ModuleBuild(Workload):
    """Cold ``FusionModule`` builds, then a store and load through the cache."""

    def __init__(self, seed: int, tiny: bool):
        super().__init__()
        rng = Random(seed)
        if tiny:
            labels = label_grid(2, 3)
        else:
            labels = label_grid(4, 5) + [rng.choice(FRONTIER_N4), rng.choice(FRONTIER_N5)]
        rng.shuffle(labels)
        self.labels = labels

    def setup(self):
        from slfusion.cache import ModuleCache

        SCRATCH.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="module-cache-", dir=SCRATCH)
        self.cache = ModuleCache(self.tmp)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run(self):
        from slfusion.modules import FusionModule

        built = {}
        for a in self.labels:
            mod, tb = _guarded(FusionModule, a)
            if mod is not None:
                _, tb = _guarded(self.cache.store, mod)
            built[a] = (mod, tb)
        restored = {a: _guarded(self.cache.load, a) for a in self.labels}
        return built, restored

    def check(self, outputs):
        built, restored = outputs
        results = []
        for a in self.labels:
            mod, tb = built[a]
            back, tb2 = restored[a]
            ok = (
                tb is None
                and tb2 is None
                and mod.total_dim == prod(a)
                and back is not None
                and back.character() == mod.character()
            )
            results.append((ok, tb or tb2))
        return _tally(results)


# ---------------------------------------------------------------------------
# components: dual phase

# Seed-chosen heavier labels, one from each family of matched oracle cost.
HEAVY_DUAL = [[(3, 3, 4, 4), (2, 4, 4, 4)], [(2, 2, 4, 5), (2, 3, 3, 5), (3, 3, 3, 4)]]
# k = 3 stays off entries of 4 and off n = 3 beyond (2, 2, 2): on a 2-core
# Xeon (3, 3) at k = 3 takes 0.5 s, (2, 2, 3) 3.3 s and (2, 3, 3) about 100 s.
RING = [(a, k) for a in label_grid(2, 3) for k in (2, 3)] + [((2, 2, 2), 2), ((2, 2, 2), 3)]


class DualOracle(Workload):
    """The dual-oracle character and the shuffle ring, modules built in setup."""

    def __init__(self, seed: int, tiny: bool):
        super().__init__()
        rng = Random(seed)
        if tiny:
            labels, ring = label_grid(2, 3), [((2,), 2), ((1, 2), 2)]
        else:
            labels = label_grid(3, 5) + sorted_labels(4, 3)
            labels += [rng.choice(family) for family in HEAVY_DUAL]
            ring = list(RING)
        rng.shuffle(labels)
        rng.shuffle(ring)
        self.labels, self.ring = labels, ring

    def setup(self):
        from slfusion.modules import fusion_module

        self.characters = {a: fusion_module(a).character() for a in self.labels}

    def run(self):
        from slfusion.dual import coordinate_ring_component, oracle_character

        oracle = {a: _guarded(oracle_character, a) for a in self.labels}
        ring = {(a, k): _guarded(coordinate_ring_component, a, k) for a, k in self.ring}
        return oracle, ring

    def check(self, outputs):
        oracle, ring = outputs
        results = []
        for a in self.labels:
            char, tb = oracle[a]
            results.append((tb is None and char == self.characters[a], tb))
        for key in self.ring:
            rep, tb = ring[key]
            ok = tb is None and rep["dim_ok"] and rep["generated"]
            results.append((ok, tb))
        return _tally(results)


# ---------------------------------------------------------------------------
# components: geometry phase


def verified_splitting(n: int) -> list[int]:
    """The closed form for n = 2, 3; the verified multiset for n >= 4."""
    if n == 2:
        return [2, 0, -2]
    if n == 3:
        return [2, 1, 1, 0, -1, -1, -2]
    return [2, 1, 1] + [0] * (4 * n - 11) + [-1, -1, -2]


class Geometry(Workload):
    """Vector fields, chart identities, transition matrices and splittings."""

    samples = 20

    def __init__(self, seed: int, tiny: bool):
        super().__init__()
        top = 3 if tiny else 6
        self.samples = 2 if tiny else self.samples
        calls = (
            [("vect", n) for n in range(1, top + 1)]
            + [("jacobian", n) for n in range(1, top + 1)]
            + [("chart", n) for n in range(2, min(top, 5) + 1)]
            + [("transition", n) for n in range(2, min(top, 5) + 1)]
            + [("splitting", n) for n in range(2, top + 1)]
        )
        # sample seeds; vect and splitting take none
        rng = Random(seed)
        self.calls = [(kind, n, rng.randrange(2**32)) for kind, n in calls]

    def _one(self, kind, n, seed):
        from slfusion import geometry as geo
        from slfusion.laurent import splitting_type

        if kind == "vect":
            return geo.verify_vect_algebra(n)["ok"]
        if kind == "jacobian":
            return geo.jacobian_identity(n, samples=self.samples, seed=seed)["ok"]
        if kind == "chart":
            return geo.verify_chart_identities(n, samples=self.samples, seed=seed)["ok"]
        if kind == "transition":
            sampled = geo.verify_transition_matrix(n, samples=self.samples, seed=seed)
            return sampled["ok"], [[str(x) for x in row] for row in geo.transition_matrix(n)]
        return splitting_type(geo.transition_matrix(n))

    def run(self):
        return [_guarded(self._one, *call) for call in self.calls]

    def check(self, outputs):
        from slfusion._goldens import TRANSITION_GOLDEN

        results = []
        for (kind, n, _), (got, tb) in zip(self.calls, outputs):
            if tb is not None:
                ok = False
            elif kind == "transition":
                sampled_ok, entries = got
                ok = sampled_ok and (n not in TRANSITION_GOLDEN or entries == TRANSITION_GOLDEN[n])
            elif kind == "splitting":
                ok = got == verified_splitting(n)
            else:
                ok = got is True
            results.append((ok, tb))
        return _tally(results)


class Components(Workload):
    """The module-build, dual-oracle and geometry phases, each timed.

    Each phase puts one group of layers in front: cold builds beside the
    cache write and read path; the ``Fraction`` kernel of the dual oracle
    and the shuffle ring (its modules are built in setup); the vector
    fields, charts and Laurent splitting, about 3% of verify-all.
    """

    def __init__(self, seed: int, tiny: bool):
        super().__init__()
        self.phases = {
            "build": ModuleBuild(seed, tiny),
            "dual": DualOracle(seed, tiny),
            "geometry": Geometry(seed, tiny),
        }

    def setup(self):
        for phase in self.phases.values():
            phase.setup()

    def close(self):
        for phase in self.phases.values():
            phase.close()

    def run(self):
        outputs = {}
        for name, phase in self.phases.items():
            t0 = time.perf_counter()
            outputs[name] = phase.run()
            self.phase_s[name] = time.perf_counter() - t0
        return outputs

    def check(self, outputs):
        attempted, wrong, tracebacks = 0, 0, []
        for name, phase in self.phases.items():
            a, w, tbs = phase.check(outputs[name])
            attempted, wrong, tracebacks = attempted + a, wrong + w, tracebacks + tbs
        return attempted, wrong, tracebacks


WORKLOADS = {
    "verify-all-j2": VerifyAll,
    "components": Components,
}
