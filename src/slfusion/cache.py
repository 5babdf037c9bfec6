"""On-disk cache of built modules, keyed by a content hash of the input.

Format 2 stores each bidegree with an ideal part as ``[k, s, free, rows]``:
the basis columns, as positions in ``enumerate_monomials`` order, and the
non-unit rows of the reduced ideal echelon form as flat ``[c0, x0, c1, x1,
...]`` lists sorted by column.  The unit rows, about nine in ten, are implied:
every column neither free nor a row lead.  A piece wholly in the ideal is
``[k, s, [], []]``; neither the store nor the load lists its monomials.  A
load skips the elimination; it checks the layout, the dimension, the zero
band and that every generator of I_A reduces to zero (not closure under the
e_j), and raises ``IntegrityError`` on a fault.  A file that is not JSON,
not an object, of another version, or whose ``a`` is not a nondecreasing
list of positive integers naming the requested label is a miss: ``get``
rebuilds and overwrites it, never reading it in part, and ``stored_labels``
skips it.  Files are written under a temporary name and renamed into place,
so a killed run never leaves a truncated entry.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from slfusion.linalg import enumerate_monomials
from slfusion.modules import _MODULE_CACHE, FusionModule, fusion_module, validate_composition

FORMAT_VERSION = 2


def cache_key(a) -> str:
    payload = json.dumps({"a": list(a), "version": FORMAT_VERSION}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _payload(path: Path) -> dict | None:
    """The parsed file if it is a current-format object whose ``a`` is a
    nondecreasing list of positive ints, else None."""
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):  # missing, or not UTF-8 JSON
        return None
    if type(data) is not dict or data.get("version") != FORMAT_VERSION:
        return None
    a = data.get("a")
    if type(a) is not list or not all(type(x) is int and x > 0 for x in a) or a != sorted(a):
        return None
    return data


class ModuleCache:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, a) -> Path:
        return self.root / f"module-{cache_key(a)}.json"

    def load(self, a) -> FusionModule | None:
        a = validate_composition(a)
        data = _payload(self.path_for(a))
        if data is None or tuple(data["a"]) != a:
            return None
        try:
            # FusionModule._restore checks the pieces and certifies the generators
            pieces = {(k, s): (free, rows) for k, s, free, rows in data["pieces"]}
            return FusionModule(a, _piece_rows=pieces)
        except (ValueError, KeyError, TypeError):
            return None

    def store(self, module: FusionModule) -> None:
        data = {"version": FORMAT_VERSION, "a": list(module.a), "total_dim": module.total_dim}
        data["pieces"] = pieces = []
        for (k, s), piece in sorted(module.pieces.items()):
            if not piece.dim:  # wholly ideal: all unit rows, nothing to list
                pieces.append([k, s, [], []])
                continue
            monos = enumerate_monomials(module.n, k, s)
            if piece.dim < len(monos):  # the piece has an ideal part
                basis = set(piece.basis)
                free = [c for c, m in enumerate(monos) if m in basis]
                rows = [[v for c in sorted(row) for v in (c, row[c])] for row in piece.rows]
                pieces.append([k, s, free, rows])
        # write beside the target and rename into place, so a killed run leaves
        # no file or a complete one; the pid keeps concurrent writers apart
        path = self.path_for(module.a)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(data, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def get(self, a) -> FusionModule:
        """Load from disk, or build and store over a missing or unreadable
        file; in-memory memoization applies."""
        a = validate_composition(a)
        mod = _MODULE_CACHE.get(a)
        if mod is None:
            mod = self.load(a)
            if mod is not None:
                _MODULE_CACHE[a] = mod
                return mod
            mod = fusion_module(a)
        elif self.path_for(a).exists():
            return mod
        self.store(mod)
        return mod

    def stored_labels(self) -> list[tuple]:
        """Labels of the current-format files, sorted by label.

        Not by file name: the names hash ``FORMAT_VERSION``, so their order
        would change the label ``spot_check`` draws with every format bump.
        """
        payloads = (_payload(path) for path in self.root.glob("module-*.json"))
        return sorted(tuple(data["a"]) for data in payloads if data is not None)

    def spot_check(self, rng) -> dict | None:
        """Rebuild one random cached module from scratch and compare characters."""
        labels = self.stored_labels()
        if not labels:
            return None
        a = labels[rng.randrange(len(labels))]
        cached = self.load(a)
        fresh = FusionModule(a)
        ok = cached is not None and cached.character() == fresh.character()
        return {"label": a, "ok": ok}
