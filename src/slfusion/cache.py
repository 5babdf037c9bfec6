"""On-disk cache of built modules, keyed by a content hash of the input.

This module alone knows the file format.  Format 3 stores one entry
``[k, s, free, rows]`` per piece of the module, in ``FusionModule.pieces``
key order: the basis columns, as positions in ``enumerate_monomials``
order, and the non-unit rows of the reduced ideal echelon form as flat
``[c0, x0, c1, x1, ...]`` lists sorted by column.  The unit rows, about
nine in ten, are implied: every column neither free nor a row lead.  A
module keeps no rows of its own, so the store reads them back from its
normal forms (``FusionModule.ideal_part``).  A bidegree with no entry is
wholly in the ideal, in the file as in ``FusionModule.pieces``; the store
never writes an entry with no free column.  A load skips the elimination:
``stored_pieces`` checks the layout and hands the module the
``ideal_part`` form, and the module checks the dimension, the zero band,
the sl2 symmetry of the character (dim(k, s) = dim(N - k, s)) and that
every generator of I_A reduces to zero (not closure under the e_j).  So a
load is certified for symmetry too: a free column moved between two
pieces of one degree keeps the layout and the total, not the symmetry.
Any fault in a current-format file of the label, the layout included,
raises ``IntegrityError``.  A file that is not JSON, not an object, of
another version, or whose ``a`` is not a nondecreasing list of positive
integers naming the requested label is a miss: ``get`` overwrites it with
the memoized or a rebuilt module, never reading it in part, and
``stored_labels`` skips it.  A file name carries its format version,
``module-v3-<hash>.json``, and only the current version's names are read or
written, so the files of any other format are left alone and cost nothing.
Files are written under a temporary name and renamed into place, so a
killed run never leaves a truncated entry.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator
from math import gcd
from pathlib import Path

from slfusion import modules
from slfusion.linalg import IntegrityError, enumerate_monomials
from slfusion.modules import FusionModule, fusion_module, validate_composition

FORMAT_VERSION = 3
# every current-format file name starts so; ``stored_labels`` globs only these
FILE_PREFIX = f"module-v{FORMAT_VERSION}-"


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


def _checked_piece(ks: tuple, width: int, free, flat_rows) -> tuple[list, list]:
    """The checked ``(free, rows)`` of one stored piece, rows as sparse maps."""
    def check(ok: bool, what: str) -> None:
        if not ok:
            raise IntegrityError(f"stored {what} at {ks}")

    def columns(cols: list, what: str) -> None:
        check(all(type(c) is int for c in cols), "non-integer column")
        check(all(x < y for x, y in zip(cols, cols[1:])), f"{what} columns are not ascending")
        check(0 <= cols[0] and cols[-1] < width, f"{what} column out of range")

    check(type(free) is list, "free columns are not a list")
    check(free != [], "free columns are an empty list")
    check(type(flat_rows) is list, "rows are not a list")
    columns(free, "free")
    free_set, rows, last = set(free), [], -1
    for flat in flat_rows:
        check(type(flat) is list, "row is not a list")
        check(len(flat) >= 4 and not len(flat) % 2, "row is not two or more (column, entry) pairs")
        cols, vals = flat[::2], flat[1::2]
        columns(cols, "row")
        check(all(type(x) is int for x in vals), "non-integer entry")
        check(all(vals), "zero entry")
        check(vals[0] > 0 and gcd(*vals) == 1, "row is not primitive with a positive lead")
        check(cols[0] > last, "row leads are not distinct and ascending")
        check(cols[0] not in free_set, "row lead is a free column")
        check(free_set.issuperset(cols[1:]), "row is not reduced: an entry off the free columns")
        rows.append(dict(zip(cols, vals)))
        last = cols[0]
    return free, rows


def stored_pieces(a: tuple, pieces) -> Iterator[tuple[tuple[int, int], list, list]]:
    """The checked pieces of a stored ``a`` as ``((k, s), free, rows)``, the
    ``FusionModule.ideal_part`` form, in file order; ``pieces`` is the
    file's list.  It must hold ``[k, s, free, rows]`` lists with int
    bidegrees on the grid ``0 <= k <= kmax + 1``, ``0 <= s <= (n-1)k``,
    none twice.  ``free`` is not empty; columns ascend and lie in range; a
    row holds two or more nonzero ``int`` entries (no ``bool``) and is
    primitive with a positive lead; leads ascend, no lead is free and every
    other entry is free.  A fault raises ``IntegrityError``.
    """
    n, kmax = len(a), sum(x - 1 for x in a)
    if type(pieces) is not list or not all(type(p) is list and len(p) == 4 for p in pieces):
        raise IntegrityError(f"stored pieces of {a} are not a list of [k, s, free, rows] entries")
    seen = set()
    for k, s, free, rows in pieces:
        if not (type(k) is type(s) is int and 0 <= k <= kmax + 1 and 0 <= s <= (n - 1) * k):
            raise IntegrityError(f"stored pieces outside the bidegrees of {a}")
        if (k, s) in seen:
            raise IntegrityError(f"stored bidegree {(k, s)} repeated for {a}")
        seen.add((k, s))
        yield (k, s), *_checked_piece((k, s), len(enumerate_monomials(n, k, s)), free, rows)


class ModuleCache:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, a) -> Path:
        return self.root / f"{FILE_PREFIX}{cache_key(a)}.json"

    def load(self, a) -> FusionModule | None:
        a = validate_composition(a)
        data = _payload(self.path_for(a))
        if data is None or tuple(data["a"]) != a:
            return None
        return FusionModule(a, _piece_rows=stored_pieces(a, data.get("pieces")))

    def store(self, module: FusionModule) -> None:
        pieces = []
        for k, s in sorted(module.pieces):
            free, rows = module.ideal_part(k, s)
            rows = [[v for c in sorted(row) for v in (c, row[c])] for row in rows]
            pieces.append([k, s, free, rows])
        data = {"version": FORMAT_VERSION, "a": list(module.a), "pieces": pieces}
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
        """The memoized module, else a load from disk, else a build; a
        missing or rejected file is stored over, memo hit or not."""
        a = validate_composition(a)
        mod = modules._MODULE_CACHE.get(a)
        if mod is None:
            mod = self.load(a)
            if mod is not None:
                modules._MODULE_CACHE[a] = mod
                return mod
            mod = fusion_module(a)
        elif (data := _payload(self.path_for(a))) is not None and tuple(data["a"]) == a:
            return mod
        self.store(mod)
        return mod

    def stored_labels(self) -> list[tuple]:
        """Labels of the current-format files, sorted by label.

        Only the current version's file names are parsed, so an older
        format's files cost nothing here.  Sorted by label, not by file
        name: the names hash ``FORMAT_VERSION``, so their order would change
        the label ``spot_check`` draws with every format bump.
        """
        payloads = (_payload(path) for path in self.root.glob(f"{FILE_PREFIX}*.json"))
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
