"""Write ``reference.json``: the normalized verify-all streams to check against.

    python3 perfbench/make_reference.py

Runs ``cli.run_suite("all", ...)`` at two seeds for the default and the tiny
bounds, requires the two normalized streams to agree, and stores per-claim
digests.  Regenerate only when the claims themselves change on purpose; a
regenerated file is reviewed like the change that needed it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from slfusion.cli import RunConfig, run_suite  # noqa: E402

from workloads import REFERENCE, stream_reference  # noqa: E402

CONFIGS = {
    "verify-all": {},
    "verify-all-tiny": dict(max_n=2, max_entry=2, samples=2),
}


def main() -> int:
    out = {}
    for key, bounds in CONFIGS.items():
        refs = [
            stream_reference(run_suite("all", RunConfig(cache_dir=None, seed=s, **bounds)), s)
            for s in (0, 1)
        ]
        if refs[0] != refs[1]:
            print(f"{key}: normalized stream depends on the seed", file=sys.stderr)
            return 1
        out[key] = refs[0]
        print(f"{key}: {len(refs[0]['claims'])} claims, {refs[0]['stream_sha256']}")
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
