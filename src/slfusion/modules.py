"""Bigraded cyclic modules C[e_0..e_{n-1}] / I_A and their tensor products.

For a nondecreasing tuple A = (a_1 <= ... <= a_n) of positive integers the
ideal I_A is spanned by the z-coefficients of the powers of the generating
polynomial

    E(z) = e_0 z^{n-1} + e_1 z^{n-2} + ... + e_{n-1},

namely the coefficient of z^m in E(z)^k for every k >= 1 and every
m < N_A(k) = sum_j max(0, k+1-a_j).  Such a coefficient is bihomogeneous of
degree k and weight k(n-1) - m, so the relations kill the top weight band of
each degree.  The quotient has dimension prod(a_i); construction certifies
this and also certifies that one full degree band beyond sum(a_i - 1) is
zero, which makes the degree truncation of the generator list safe.

The ideal is built degree by degree: its degree-k part is spanned by e_j
times its degree k-1 part plus the degree-k generators.  Almost all of it is
monomials, so each bidegree keeps two things, the set of unit pivot columns
(monomials of I_A) and the non-unit rows of its reduced echelon form.  A unit
set shifts by e_j through the column map with no elimination at all; the
shifted non-unit rows and the generator are reduced against the units by
dropping the unit columns, and only what is left goes into an ``IntEchelon``
(the Macaulay-matrix split of F4: monomial rows are handled symbolically).
A row that comes out as a single entry joins the units.  Units plus rows are
exactly the canonical fully reduced echelon form of the ideal slice.

Most slices below the certified-zero band lie wholly in the ideal (the
quotient has only prod(a_i) dimensions), and most of those are forced: a
bidegree (k, s) with k >= 1 whose every predecessor (k-1, s-j) lies wholly
in the ideal does too, because every degree-k monomial is e_j times a
monomial of some predecessor and the ideal is closed under each e_j.  The
build records such a slice as a zero piece without listing its monomials,
shifting columns or forming its generator; a slice that is still computed
takes the whole column map of a wholly-ideal predecessor as units and forms
its generator only while it is not yet full.  The rule is exact, not a
heuristic: the dimension gate still counts every piece.  Normal
forms are kept in one flat table per module,
``{monomial: ((k, s), entries, den)}``, holding only the monomials whose class
is nonzero: the class is ``sum(x * basis[i] for i, x in entries) / den``, an
integer image read straight off the echelon rows.  The column maps of the
e_j shifts depend only on (n, k, s) and are shared by every build.

Multiplication by e_j is read off the normal forms once per (j, bidegree)
and kept as an integer table (``FusionModule.action``); tensor modules
compose their factors' tables.  Cyclic spans, the closure check of a
subspace, the vanishing test of a polynomial class and the kernels of the
move maps run on these images in integer arithmetic, with no per-step
element or ``Fraction``.  One element class, ``ModuleElement``, serves both
owner kinds: sparse exact coordinates over the piece bases, acted on by the
variables through the same tables.

Everything here is exact: quotient bases, normal forms, graded characters,
cyclic spans and tensor modules with diagonal operators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from slfusion.linalg import (
    IntegrityError,
    IntEchelon,
    _integer_row,
    enumerate_monomials,
)

UNSORTED_MSG = "composition must be nondecreasing"


def validate_composition(a, allow_empty: bool = True) -> tuple:
    """Check entries >= 1 and nondecreasing order; returns a tuple."""
    a = tuple(int(x) for x in a)
    if not a and not allow_empty:
        raise ValueError("composition must be nonempty")
    for x in a:
        if x < 1:
            raise ValueError("composition entries must be positive")
    if any(x > y for x, y in zip(a, a[1:])):
        raise ValueError(UNSORTED_MSG)
    return a


def relation_exponent(a: tuple, k: int) -> int:
    """N_A(k) = sum_j max(0, k+1-a_j), the divisibility exponent at degree k."""
    return sum(max(0, k + 1 - x) for x in a)


@lru_cache(maxsize=1 << 14)
def generating_slice(n: int, k: int, zpow: int) -> dict:
    """Coefficient of z^zpow in E(z)^k as a sparse polynomial.

    Supported on all monomials of bidegree (k, k(n-1) - zpow), each with its
    multinomial coefficient, keyed in ``enumerate_monomials`` order.
    Results are memoized, so one dict is shared by every caller: do not
    mutate it.
    """
    w = k * (n - 1) - zpow
    facts = [1] * (k + 1)
    for e in range(2, k + 1):
        facts[e] = facts[e - 1] * e
    out = {}
    for m in enumerate_monomials(n, k, w):
        c = facts[k]
        for e in m:
            c //= facts[e]
        out[m] = c
    return out


def generator_keys(a) -> list[tuple[int, int]]:
    """The generators of I_A up to one degree past the top band, as (k, zpow).

    Pairs with 1 <= k <= 1 + sum(a_i - 1) and 0 <= zpow < N_A(k) (capped at
    the k(n-1) + 1 powers of z in E(z)^k), in degree then z-power order.
    The generator itself is ``generating_slice(n, k, zpow)``, of bidegree
    (k, k(n-1) - zpow); it is formed only where it is needed.
    """
    a = validate_composition(a)
    n = len(a)
    return [
        (k, zpow)
        for k in range(1, sum(x - 1 for x in a) + 2)
        for zpow in range(min(relation_exponent(a, k), k * (n - 1) + 1))
    ]


# Only slices the build computes are shifted: the column maps of every
# verify-all and benchmark label take about 23k entries, and one cold
# (4,4,4,4,4,4) build about 91k, both with room to spare.
SHIFT_MEMO_ENTRIES = 1 << 18
# column entries held by the shift_columns memo, and how often it was emptied
_shift_memo = {"entries": 0, "clears": 0}


@lru_cache(maxsize=None)
def shift_columns(n: int, k: int, s: int) -> tuple:
    """Column maps of multiplication by e_j into bidegree (k, s), one per j.

    Entry j lists, for each monomial of bidegree (k-1, s-j) in
    ``enumerate_monomials`` order, the position of its e_j multiple among
    the monomials of (k, s); it is empty when (k-1, s-j) has no monomials.
    The maps depend on no label, so every module build shares them.  The
    memo is bounded by its total column entries, not by its key count: it
    is emptied before it would exceed ``SHIFT_MEMO_ENTRIES``.
    Memoized and shared: do not mutate.
    """
    index = {m: i for i, m in enumerate(enumerate_monomials(n, k, s))}
    maps = tuple(
        tuple(index[m[:j] + (m[j] + 1,) + m[j + 1:]] for m in enumerate_monomials(n, k - 1, s - j))
        for j in range(n)
    )
    size = sum(map(len, maps))
    if _shift_memo["entries"] + size > SHIFT_MEMO_ENTRIES:
        shift_columns.cache_clear()
        _shift_memo["entries"] = 0
        _shift_memo["clears"] += 1
    _shift_memo["entries"] += size
    return maps


class GradedCharacter:
    """Sparse table (degree, weight) -> dimension, printed as a u,q polynomial."""

    __slots__ = ("table",)

    def __init__(self, table: dict):
        self.table = {ks: int(d) for ks, d in table.items() if d}

    def total(self) -> int:
        return sum(self.table.values())

    def items(self):
        return sorted(self.table.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedCharacter) and self.table == other.table

    def __hash__(self):
        return hash(tuple(self.items()))

    def __bool__(self) -> bool:
        return bool(self.table)

    def __add__(self, other) -> "GradedCharacter":
        t = dict(self.table)
        for ks, d in other.table.items():
            t[ks] = t.get(ks, 0) + d
        return GradedCharacter(t)

    def __sub__(self, other) -> "GradedCharacter":
        t = dict(self.table)
        for ks, d in other.table.items():
            t[ks] = t.get(ks, 0) - d
        if any(v < 0 for v in t.values()):
            raise IntegrityError("character subtraction went negative")
        return GradedCharacter(t)

    def shift(self, du: int, dq: int) -> "GradedCharacter":
        return GradedCharacter({(k + du, s + dq): d for (k, s), d in self.table.items()})

    def reindex(self, r: int) -> "GradedCharacter":
        """Substitute u -> u q^r: piece (k, s) moves to (k, s + r*k)."""
        return GradedCharacter({(k, s + r * k): d for (k, s), d in self.table.items()})

    def poly_str(self) -> str:
        if not self.table:
            return "0"
        terms = []
        for (k, s), d in self.items():
            factors = [] if d == 1 and (k or s) else [str(d)]
            if k:
                factors.append("u" if k == 1 else f"u^{k}")
            if s:
                factors.append("q" if s == 1 else f"q^{s}")
            terms.append(" ".join(factors) if factors else "1")
        return " + ".join(terms)

    __str__ = poly_str

    def __repr__(self):
        return f"GradedCharacter({self.poly_str()})"


def match_characters(c1: GradedCharacter, c2: GradedCharacter, reindex: int = 0):
    """Test c1 == u^du q^dq * (c2 with u -> u q^reindex) for the aligning shift.

    The shift is the unique candidate aligning the lexicographically minimal
    bidegrees; returns ``(ok, (du, dq))`` (``(True, (0, 0))`` for two empty
    characters).
    """
    c2r = c2.reindex(reindex) if reindex else c2
    if not c1.table and not c2r.table:
        return True, (0, 0)
    if not c1.table or not c2r.table:
        return False, None
    k1, s1 = min(c1.table)
    k2, s2 = min(c2r.table)
    du, dq = k1 - k2, s1 - s2
    return (c2r.shift(du, dq) == c1), (du, dq)


# one shared copy of each distinct integer image held by a module's table:
# most images repeat across pieces and modules (unit vectors, mostly); it
# holds no more than the tables of the memoized modules do
_IMAGE_POOL: dict[tuple, tuple] = {}


def map_row(row: dict, table) -> dict:
    """A positive multiple of the image of a sparse integer row under a table.

    ``row`` is a ``{position: int}`` map over a piece basis and ``table``
    holds the integer images of those basis vectors (``action``); the
    images are summed over the lcm of their denominators, so no rational
    number is formed.  The result is a ``{position: int}`` map, empty when
    the image is zero.
    """
    den = 1
    for c in row:
        img = table[c]
        if img is not None and img[1] != 1:
            den = lcm(den, img[1])
    acc: dict[int, int] = {}
    for c, x in row.items():
        img = table[c]
        if img is None:
            continue
        entries, d = img
        f = x * (den // d)
        for t, y in entries:
            acc[t] = acc.get(t, 0) + f * y
    return {t: y for t, y in acc.items() if y}


# ---------------------------------------------------------------------------
# the quotient modules


def _stored_piece(ks: tuple, width: int, free: list, flat_rows: list) -> tuple[list, list]:
    """The checked ``(free, rows)`` of one stored piece, rows as sparse maps."""
    def check(ok: bool, what: str) -> None:
        if not ok:
            raise IntegrityError(f"stored {what} at {ks}")

    def columns(cols: list, what: str) -> None:
        check(all(type(c) is int for c in cols), "non-integer column")
        check(all(x < y for x, y in zip(cols, cols[1:])), f"{what} columns are not ascending")
        check(not cols or 0 <= cols[0] and cols[-1] < width, f"{what} column out of range")

    columns(free, "free")
    free_set, rows, last = set(free), [], -1
    for flat in flat_rows:
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


class QuotientPiece:
    """One bidegree slice: quotient basis monomials plus the non-unit rows.

    ``rows`` are the slice's reduced ideal rows with two or more entries, as
    sparse ``{column: int}`` maps over ``enumerate_monomials`` order; every
    other column outside the basis is a unit row (a monomial of the ideal).
    """

    __slots__ = ("basis", "rows")

    def __init__(self, basis, rows):
        self.basis = basis  # monomials not in the leading-term ideal
        self.rows = rows

    @property
    def dim(self) -> int:
        return len(self.basis)


# the one piece of every slice wholly in the ideal (shared: do not mutate),
# and the build's mark for such a slice in place of its units and rows
ZERO_PIECE = QuotientPiece([], [])
ALL_IDEAL = object()


class FusionModule:
    """The bigraded quotient C[e_0..e_{n-1}] / I_A with exact normal forms."""

    def __init__(self, a, _piece_rows: dict | None = None):
        self.a = validate_composition(a)
        self.n = len(self.a)
        self.kmax = sum(x - 1 for x in self.a)
        self.lowest_h0 = -self.kmax
        self.pieces: dict[tuple[int, int], QuotientPiece] = {}
        # monomial -> (bidegree, entries, den), nonzero only; see normal_form
        self._nf: dict[tuple, tuple] = {}
        # (j, k, s) -> images of the piece basis under e_j, see ``action``
        self._actions: dict[tuple, tuple] = {}
        if _piece_rows is None:
            self._build()
        else:
            self._restore(_piece_rows)
        self.total_dim = sum(p.dim for p in self.pieces.values())
        expected = prod(self.a)
        if self.total_dim != expected:
            raise IntegrityError(
                f"dim mismatch for {self.a}: built {self.total_dim}, "
                f"product formula gives {expected}; character "
                f"{self.character().poly_str()}"
            )

    @classmethod
    def zero_module(cls, label) -> "FusionModule":
        """The module of a label with a zero entry, which is zero (as in
        ``label_character``): no pieces, so every normal form is None."""
        mod = cls.__new__(cls)
        mod.a, mod.n, mod.total_dim = tuple(label), len(label), 0
        mod.pieces, mod._nf, mod._actions = {}, {}, {}
        return mod

    def _build(self) -> None:
        n = self.n
        gens = set(generator_keys(self.a))
        # the ideal in degree k is spanned by e_j times its degree k-1 rows
        # plus the degree-k generators; prev keeps, per weight of degree k-1,
        # the unit columns and the non-unit rows, or ALL_IDEAL (every weight
        # 0 <= s <= (n-1)k of degree k has monomials)
        prev: dict[int, tuple | object] = {}
        for k in range(0, self.kmax + 2):
            cur: dict[int, tuple | object] = {}
            for s in range(0, (n - 1) * k + 1):
                below = [(j, prev[s - j]) for j in range(n) if s - j in prev]
                if below and all(b is ALL_IDEAL for _, b in below):
                    # e_j times a wholly-ideal predecessor: wholly ideal
                    cur[s] = self._all_ideal(k, s)
                else:
                    cur[s] = self._slice(k, s, below, (k, k * (n - 1) - s) in gens)
            prev = cur
        self._certify_zero_band()

    def _slice(self, k: int, s: int, below: list, has_gen: bool):
        """Eliminate the ideal slice at (k, s) and add its piece.

        ``below`` lists ``(j, state)`` for the predecessors (k-1, s-j), and
        ``has_gen`` says whether I_A has a generator here.  Returns the
        slice's ``(units, rows)``, or ALL_IDEAL when no column is free.
        """
        n = self.n
        monos = enumerate_monomials(n, k, s)
        width = len(monos)
        units: set[int] = set()
        shifted = []
        maps = shift_columns(n, k, s) if below else ()
        for j, state in below:
            cols = maps[j]
            if state is ALL_IDEAL:
                units.update(cols)
                continue
            prev_units, prev_rows = state
            units.update(map(cols.__getitem__, prev_units))
            shifted.extend((cols, row) for row in prev_rows)
        # reducing a row against the unit rows drops its unit columns;
        # once the span is full no further row can change it
        ech = IntEchelon(width)
        for cols, row in shifted:
            if len(units) + ech.dim == width:
                break
            red = {t: x for c, x in row.items() if (t := cols[c]) not in units}
            if red:
                ech.insert(red)
        if has_gen and len(units) + ech.dim < width:
            gen = generating_slice(n, k, k * (n - 1) - s)
            # a generating slice lists its bidegree in column order
            if list(gen) != monos:
                raise IntegrityError(f"generator at {(k, s)} is not a full slice")
            red = {t: c for t, c in enumerate(gen.values()) if t not in units}
            if red:
                ech.insert(red)
        rows = []
        for row in ech.sparse_rows():
            if len(row) == 1:
                units.update(row)
            else:
                rows.append(row)
        if len(units) == width:
            return self._all_ideal(k, s)
        leads = {min(row) for row in rows}
        free = [c for c in range(width) if c not in units and c not in leads]
        self._add_piece(k, s, monos, free, rows)
        return units, rows

    def _all_ideal(self, k: int, s: int):
        """Record (k, s) as a slice wholly in the ideal; returns ALL_IDEAL."""
        self.pieces[(k, s)] = ZERO_PIECE
        return ALL_IDEAL

    def _restore(self, piece_rows: dict) -> None:
        """Rebuild pieces from stored free columns and non-unit rows.

        ``piece_rows`` maps each bidegree with an ideal part to ``(free,
        rows)`` as the cache stores them (see ``slfusion.cache``), checked by
        ``_stored_piece``: columns ascend and lie in range, a row holds two or
        more nonzero ``int`` entries (no ``bool``) and is primitive with a
        positive lead, leads ascend, no lead is free and every other entry is
        free.  The unit columns are the ones neither free nor a row lead; a
        piece stored as ``([], [])`` is wholly ideal and is taken without
        listing its monomials.  The other pieces go through ``_add_piece`` as
        in the build.  Beyond the dimension and zero-band gates every
        generator of I_A must reduce to zero (``surviving_generator``).  That
        certificate is partial: closure under the e_j is not checked (a naive
        check costs over twenty times as much).
        """
        n = self.n
        for k in range(0, self.kmax + 2):
            for s in range(0, (n - 1) * k + 1):
                stored = piece_rows.get((k, s))
                if stored == ([], []):
                    self._all_ideal(k, s)
                    continue
                monos = enumerate_monomials(n, k, s)
                free, rows = stored if stored is not None else (range(len(monos)), [])
                self._add_piece(k, s, monos, *_stored_piece((k, s), len(monos), free, rows))
        if not set(piece_rows) <= set(self.pieces):
            raise IntegrityError(f"stored pieces outside the bidegrees of {self.a}")
        self._certify_zero_band()
        found = self.surviving_generator(self.a)
        if found is not None:
            k, zpow = found
            raise IntegrityError(
                f"stored rows do not contain the generator at {(k, k * (n - 1) - zpow)}"
            )

    def _add_piece(self, k: int, s: int, monos, free: list, rows: list) -> None:
        """The piece at (k, s) from its free columns and non-unit rows.

        Normal forms go into the module's flat table as integer images:
        basis monomial i is ``((i, 1),)`` over 1, and the leading monomial
        of a non-unit row reduces to minus the row's free entries over its
        leading entry (a primitive row makes that denominator the least
        one).  Unit monomials, and rows with no free entry, reduce to zero
        and are not stored.
        """
        ks = (k, s)
        basis = [monos[c] for c in free]
        nf = self._nf
        for i, m in enumerate(basis):
            nf[m] = (ks, ((i, 1),), 1)
        position = {c: i for i, c in enumerate(free)}
        for row in rows:
            pc = min(row)
            lead = row[pc]
            sign = -1 if lead > 0 else 1
            entries = sorted(
                (i, sign * x) for c, x in row.items() if (i := position.get(c)) is not None
            )
            if entries:
                nf[monos[pc]] = (ks, tuple(entries), abs(lead))
        self.pieces[ks] = QuotientPiece(basis, rows)

    def _certify_zero_band(self) -> None:
        band = self.kmax + 1
        for s in range(0, (self.n - 1) * band + 1):
            piece = self.pieces.get((band, s))
            if piece is not None and piece.dim:
                raise IntegrityError(
                    f"nonzero piece at certified-zero bidegree ({band}, {s}) for {self.a}"
                )

    # -- queries ------------------------------------------------------------

    def character(self) -> GradedCharacter:
        return GradedCharacter({ks: p.dim for ks, p in self.pieces.items()})

    def dim_piece(self, k: int, s: int) -> int:
        p = self.pieces.get((k, s))
        return p.dim if p else 0

    def h0_eigenvalue(self, k: int) -> int:
        return self.lowest_h0 + 2 * k

    def piece(self, k: int, s: int) -> QuotientPiece | None:
        return self.pieces.get((k, s))

    def normal_form(self, m: tuple):
        """Normal form of an ambient monomial as ``(bidegree, entries, den)``.

        The class is ``sum(x * basis[i] for i, x in entries) / den`` over the
        basis of the piece at that bidegree, with ``entries`` sorted by
        position and ``den`` positive; None when the monomial lies in the
        ideal.  The tuple is the module's own table entry.
        """
        if len(m) != self.n:
            raise ValueError(f"monomial in {len(m)} variables fed to a module with {self.n}")
        return self._nf.get(m)

    def action(self, j: int, ks: tuple) -> tuple:
        """Images of the basis of piece ``ks`` under e_j, memoized per (j, ks).

        Entry i is the class of ``basis[i] * e_j`` in piece (k+1, s+j) as an
        integer image ``(entries, den)`` (the tail of its ``normal_form``),
        or None when the product lies in the ideal.
        """
        key = (j, *ks)
        table = self._actions.get(key)
        if table is None:
            piece = self.pieces.get(ks)
            images = []
            for b in piece.basis if piece else ():
                red = self._nf.get(b[:j] + (b[j] + 1,) + b[j + 1:])
                if red is not None:
                    img = red[1:]
                    red = _IMAGE_POOL.setdefault(img, img)
                images.append(red)
            table = self._actions[key] = tuple(images)
        return table

    def surviving_generator(self, a) -> tuple[int, int] | None:
        """The first generator ``(k, zpow)`` of I_a whose class here is nonzero.

        ``a`` is a label with this module's variable count; None when every
        generator of ``generator_keys(a)`` vanishes here.  A generator whose
        bidegree holds no piece or a zero piece vanishes by construction
        (no monomial there has a nonzero normal form), so it is not reduced:
        the answer is that of reducing every generator.
        """
        n = self.n
        for k, zpow in generator_keys(a):
            if self.dim_piece(k, k * (n - 1) - zpow) and not self.poly_vanishes(
                generating_slice(n, k, zpow)
            ):
                return k, zpow
        return None

    def poly_vanishes(self, p: dict) -> bool:
        """True if the class of the polynomial ``p`` is zero.

        The normal forms of its monomials are brought to one common
        denominator and summed in integers.
        """
        nf = self._nf
        terms = [(nf[m], p[m]) for m in filter(nf.__contains__, p)]
        if not terms:
            return True
        den = lcm(*(red[2] for red, _ in terms))
        acc: dict = {}
        for (ks, entries, d), c in terms:
            f = c * (den // d)
            for i, x in entries:
                acc[(ks, i)] = acc.get((ks, i), 0) + f * x
        return not any(acc.values())

    # -- elements -----------------------------------------------------------

    def zero(self) -> "ModuleElement":
        return ModuleElement(self, {})

    def cyclic_vector(self) -> "ModuleElement":
        """The class of 1 (image of the product of the lowest-weight lines)."""
        return self.poly_class({(0,) * self.n if self.n else (): 1})

    def top_class(self) -> "ModuleElement":
        """The unique class in the top degree band (highest-weight line)."""
        tops = [(ks, p) for ks, p in self.pieces.items() if ks[0] == self.kmax and p.dim]
        if sum(p.dim for _, p in tops) != 1:
            raise IntegrityError(f"top band of {self.a} is not a line")
        return ModuleElement(self, {tops[0][0]: {0: Fraction(1)}})

    def poly_class(self, p: dict) -> "ModuleElement":
        coords: dict = {}
        for m, c in p.items():
            red = self.normal_form(m)
            if red is None:
                continue
            ks, entries, den = red
            acc = coords.setdefault(ks, {})
            for i, x in entries:
                acc[i] = acc.get(i, 0) + Fraction(c * x, den)
        return ModuleElement(self, coords)

    def basis_element(self, k: int, s: int, i: int) -> "ModuleElement":
        return ModuleElement(self, {(k, s): {i: Fraction(1)}})

    def __repr__(self):
        return f"FusionModule(a={self.a}, dim={self.total_dim})"


class ModuleElement:
    """Element of a fusion or tensor module, sparse over its piece bases.

    ``coords`` maps a bidegree to ``{position: value}``, nonzero exact values
    only, over the owner's basis of that piece (for a tensor module the
    positions of ``piece_key_index``).  ``apply`` runs on the owner's integer
    action tables, the ones the cyclic spans use.
    """

    __slots__ = ("owner", "coords")

    def __init__(self, owner, coords: dict):
        self.owner = owner
        self.coords = {}
        for ks, vec in coords.items():
            vec = {i: x for i, x in vec.items() if x}
            if vec:
                self.coords[ks] = vec

    def is_zero(self) -> bool:
        return not self.coords

    def support(self):
        return sorted(self.coords)

    def __add__(self, other) -> "ModuleElement":
        if other.owner is not self.owner:
            raise ValueError("elements of different modules")
        coords = {ks: dict(vec) for ks, vec in self.coords.items()}
        for ks, vec in other.coords.items():
            acc = coords.setdefault(ks, {})
            for i, x in vec.items():
                acc[i] = acc.get(i, 0) + x
        return ModuleElement(self.owner, coords)

    def __rmul__(self, c) -> "ModuleElement":
        c = Fraction(c)
        coords = {ks: {i: c * x for i, x in vec.items()} for ks, vec in self.coords.items()}
        return ModuleElement(self.owner, coords)

    def __sub__(self, other) -> "ModuleElement":
        return self + (-1) * other

    def representative(self) -> dict:
        """A polynomial representative built from quotient basis monomials.

        Defined for elements of a fusion module, whose pieces have monomial
        bases.
        """
        rep: dict = {}
        for ks, vec in self.coords.items():
            basis = self.owner.pieces[ks].basis
            for i, c in vec.items():
                rep[basis[i]] = c
        return rep

    def apply(self, op) -> "ModuleElement":
        """Image under a variable operator, in the forms ``cyclic_span`` takes.

        Every slice is mapped through ``owner.action``: the integer image of
        basis vector i over its denominator, times the coordinate at i.
        """
        var, j = _span_variable(self.owner, op)
        out = {}
        for (k, s), vec in self.coords.items():
            table = self.owner.action(var, (k, s))
            acc = out[(k + 1, s + j)] = {}
            for i, x in vec.items():
                if table[i] is not None:
                    entries, den = table[i]
                    for t, y in entries:
                        acc[t] = acc.get(t, 0) + Fraction(x * y, den)
        return ModuleElement(self.owner, out)


_MODULE_CACHE: dict[tuple, FusionModule] = {}


def fusion_module(a) -> FusionModule:
    """Build M^A, memoized per composition (modules are immutable)."""
    key = validate_composition(a)
    mod = _MODULE_CACHE.get(key)
    if mod is None:
        mod = FusionModule(key)
        _MODULE_CACHE[key] = mod
    return mod


def label_character(label) -> GradedCharacter:
    """Character of the module named by a possibly-unsorted integer label.

    Entries are sorted first (the defining relations only see the multiset);
    any zero entry gives the zero module.
    """
    label = tuple(int(x) for x in label)
    if any(x < 0 for x in label):
        raise ValueError("negative entry in module label")
    if any(x == 0 for x in label):
        return GradedCharacter({})
    return fusion_module(tuple(sorted(label))).character()


# ---------------------------------------------------------------------------
# tensor modules


class TensorModule:
    """Tensor product of fusion modules with diagonal and per-factor operators.

    Bidegrees add across factors.  The factors may live over different
    variable counts (needed when a submodule is modeled inside a product of
    smaller modules); the diagonal operator e_j sums the factor actions over
    every factor that has the variable e_j.
    """

    def __init__(self, factors):
        self.factors = list(factors)
        if not self.factors:
            raise ValueError("tensor of zero factors")
        self.n = max(f.n for f in self.factors)
        self.total_dim = prod(f.total_dim for f in self.factors)
        self._piece_index: dict = {}
        # per factor, its nonzero pieces in bidegree order
        self._nonzero_pieces = [
            sorted((ks, p.dim) for ks, p in f.pieces.items() if p.dim) for f in self.factors
        ]

    def character(self) -> GradedCharacter:
        table = {(0, 0): 1}
        for f in self.factors:
            nxt: dict = {}
            for (k1, s1), d1 in table.items():
                for (k2, s2), d2 in f.character().table.items():
                    ks = (k1 + k2, s1 + s2)
                    nxt[ks] = nxt.get(ks, 0) + d1 * d2
            table = nxt
        return GradedCharacter(table)

    def piece_basis(self, k: int, s: int) -> list[tuple]:
        """Ordered basis keys: tuples over factors of (k_m, s_m, index).

        Keys are listed in lexicographic order.
        """
        cached = self._piece_index.get((k, s))
        if cached is not None:
            return cached[0]
        last = len(self.factors) - 1

        def tails(m: int, left_k: int, left_s: int) -> list[tuple]:
            if m == last:
                dim = self.factors[m].dim_piece(left_k, left_s)
                return [((left_k, left_s, i),) for i in range(dim)]
            out: list[tuple] = []
            for (km, sm), dim in self._nonzero_pieces[m]:
                if km > left_k:
                    break
                if sm > left_s:
                    continue
                rest = tails(m + 1, left_k - km, left_s - sm)
                if not rest:
                    continue
                for i in range(dim):
                    head = ((km, sm, i),)
                    out.extend([head + t for t in rest])
            return out

        keys = tails(0, k, s) if k >= 0 and s >= 0 else []
        index = {key: i for i, key in enumerate(keys)}
        self._piece_index[(k, s)] = (keys, index)
        return keys

    def piece_key_index(self, k: int, s: int) -> dict:
        self.piece_basis(k, s)
        return self._piece_index[(k, s)][1]

    def dim_piece(self, k: int, s: int) -> int:
        return len(self.piece_basis(k, s))

    def zero(self) -> ModuleElement:
        return ModuleElement(self, {})

    def cyclic_tensor(self) -> ModuleElement:
        """v_{A_1} tensor ... tensor v_{A_r}, the bidegree (0,0) line."""
        return ModuleElement(self, {(0, 0): {0: Fraction(1)}})

    def op_diag(self, j: int):
        if j < 0:
            raise ValueError(f"no variable e_{j}: indices start at 0")
        if not any(j < f.n for f in self.factors):
            raise ValueError(f"diagonal operator e_{j} misses every factor")
        return ("diag", j)

    def op_factor(self, m: int, j: int):
        if not 0 <= m < len(self.factors):
            raise ValueError("factor index out of range")
        if j < 0:
            raise ValueError(f"no variable e_{j}: indices start at 0")
        if j >= self.factors[m].n:
            raise ValueError(f"factor {m} has no variable e_{j}")
        return ("factor", m, j)

    def action(self, op: tuple, ks: tuple) -> list:
        """Images of the basis of piece ``ks`` under an operator.

        Composed from the factors' tables (``FusionModule.action``): a basis
        key maps to the sum, over the factors the operator acts on, of the
        key with that factor's entry replaced by its image.  Entries are
        integer images ``(entries, den)`` over the basis of (k+1, s+j), or
        None for zero, as for a fusion module.  Not memoized: a span asks
        for each (op, ks) once, and tensor modules are short-lived.
        """
        j = op[-1]
        if op[0] == "factor":
            factors = [op[1]]
        else:
            factors = [m for m, f in enumerate(self.factors) if j < f.n]
        target = self.piece_key_index(ks[0] + 1, ks[1] + j)
        table = []
        for key in self.piece_basis(*ks):
            images = []
            for m in factors:
                km, sm, im = key[m]
                img = self.factors[m].action(j, (km, sm))[im]
                if img is not None:
                    head, tail = key[:m], key[m + 1:]
                    entries = tuple(
                        (target[head + ((km + 1, sm + j, i),) + tail], x) for i, x in img[0]
                    )
                    images.append((entries, img[1]))
            if len(images) < 2:
                table.append(images[0] if images else None)
                continue
            # distinct factors move a key to distinct keys, but their sum
            # still needs one denominator
            den = lcm(*(d for _, d in images))
            acc: dict[int, int] = {}
            for entries, d in images:
                for t, x in entries:
                    acc[t] = acc.get(t, 0) + (den // d) * x
            table.append((tuple(acc.items()), den))
        return table

    def __repr__(self):
        return f"TensorModule({[f.a for f in self.factors]}, dim={self.total_dim})"


# ---------------------------------------------------------------------------
# subspaces and cyclic spans


class Subspace:
    """Graded subspace of a fusion or tensor module, one echelon per bidegree.

    An element's slice goes into the echelon of its bidegree as the integer
    multiple ``_integer_row`` makes of its coordinates; the echelon rows are
    integer rows over the owner's piece basis, the same for both owner kinds.
    """

    def __init__(self, owner):
        self.owner = owner
        self.spans: dict[tuple[int, int], IntEchelon] = {}

    def _check_owner(self, el) -> None:
        if el.owner is not self.owner:
            raise ValueError("element of a different module")

    def insert(self, el) -> bool:
        """Insert a bihomogeneous element; True if the span grew."""
        self._check_owner(el)
        if el.is_zero():
            return False
        if len(el.coords) != 1:
            raise ValueError("subspace insertion expects a bihomogeneous element")
        ((ks, vec),) = el.coords.items()
        ech = self.spans.get(ks)
        if ech is None:
            ech = self.spans[ks] = IntEchelon(self.owner.dim_piece(*ks))
        return ech.insert(_integer_row(vec))

    def contains(self, el) -> bool:
        self._check_owner(el)
        for ks, vec in el.coords.items():
            ech = self.spans.get(ks)
            if ech is None or not ech.contains(_integer_row(vec)):
                return False
        return True

    def includes(self, other: "Subspace") -> bool:
        """True if ``other``, a subspace of the same module, lies inside this one."""
        if other.owner is not self.owner:
            raise ValueError("subspaces of different modules")
        for ks, ech in other.spans.items():
            mine = self.spans.get(ks)
            if ech.dim and (mine is None or not all(map(mine.contains, ech.sparse_rows()))):
                return False
        return True

    def closed_under(self, op) -> bool:
        """True if the operator (as for ``cyclic_span``) maps the subspace into itself."""
        var, j = _span_variable(self.owner, op)
        for (k, s), ech in self.spans.items():
            target = self.spans.get((k + 1, s + j))
            table = self.owner.action(var, (k, s))
            for row in ech.sparse_rows():
                img = map_row(row, table)
                if img and (target is None or not target.contains(img)):
                    return False
        return True

    @property
    def dim(self) -> int:
        return sum(e.dim for e in self.spans.values())

    def character(self) -> GradedCharacter:
        return GradedCharacter({ks: e.dim for ks, e in self.spans.items()})

    def canonical(self):
        return {ks: e.canonical() for ks, e in self.spans.items() if e.dim}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.owner is other.owner
            and self.canonical() == other.canonical()
        )

    __hash__ = None  # mutable during construction

    def basis_elements(self):
        """Bihomogeneous module elements forming a basis of the subspace."""
        return [
            ModuleElement(self.owner, {ks: row})
            for ks in sorted(self.spans)
            for row in self.spans[ks].sparse_rows()
        ]


def _span_variable(owner, op) -> tuple:
    """The operator as ``(var, j)``: the form ``owner.action`` takes, checked.

    On a fusion module an operator is a variable index ``j``, an ``int``
    with 0 <= j < n (not a ``bool``), and var is j; on a tensor module it is
    an ``op_diag`` or ``op_factor`` tuple and var is that tuple.  Either
    raises the bidegree by (1, j).  Anything else is a ``ValueError``.
    """
    if isinstance(owner, TensorModule):
        if isinstance(op, tuple) and len(op) == 2 and op[0] == "diag":
            return owner.op_diag(op[1]), op[1]
        if isinstance(op, tuple) and len(op) == 3 and op[0] == "factor":
            return owner.op_factor(op[1], op[2]), op[2]
    elif type(op) is int and 0 <= op < owner.n:
        return op, op
    raise ValueError(f"elements and spans take variable operators e_j, got {op!r}")


def cyclic_span(owner, ops, seeds, max_dim: int | None = None) -> Subspace:
    """Smallest graded subspace containing the seeds and closed under ops.

    Every operator is a variable e_j (its index j on a fusion module,
    ``op_diag``/``op_factor`` on a tensor module), raising the bidegree by
    (1, j).  A degree-k slice is therefore final once every slice of degree
    k-1 has been mapped, so bidegrees are walked in increasing degree and
    each final slice's reduced echelon rows are mapped once through the
    owner's integer action tables (``map_row``) into the target echelons; a
    full target is skipped.  Seeds are ``ModuleElement``s of the owner, one
    insert per slice.  A span that grows past ``max_dim`` raises
    IntegrityError.
    """
    variables = [_span_variable(owner, op) for op in ops]
    span = Subspace(owner)
    for seed in seeds:
        for ks in sorted(seed.coords):
            span.insert(ModuleElement(seed.owner, {ks: seed.coords[ks]}))
    spans = span.spans
    k = min((ks[0] for ks in spans), default=0)
    while any(ks[0] >= k for ks in spans):
        for ks in sorted(ks for ks in spans if ks[0] == k):
            rows = spans[ks].sparse_rows()
            if not rows:
                continue
            for var, j in variables:
                tks = (k + 1, ks[1] + j)
                ech = spans.get(tks)
                if ech is None:
                    ech = spans[tks] = IntEchelon(owner.dim_piece(*tks))
                if ech.dim == ech.ncols:
                    continue
                table = owner.action(var, ks)
                for row in rows:
                    img = map_row(row, table)
                    if img and ech.insert(img) and ech.dim == ech.ncols:
                        break
        if max_dim is not None and span.dim > max_dim:
            raise IntegrityError("cyclic span exceeded the expected dimension")
        k += 1
    for ks in [ks for ks, ech in spans.items() if not ech.dim]:
        del spans[ks]
    return span


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    out = Subspace(a.owner)
    for src in (a, b):
        for el in src.basis_elements():
            out.insert(el)
    return out


# ---------------------------------------------------------------------------
# verification helpers on plain modules


def verify_demazure(a) -> dict:
    """Span/quotient comparison for peeling off the largest entry of A.

    The span of the cyclic vector under e_1..e_{n-1} must have the character
    of M^{(a_1..a_{n-1})} after the reindex e_i -> e_{i-1} (weight drops by
    the degree), and the quotient must match M^{(a_1,..,a_{n-1},a_n-1)} up to
    the recorded shift.
    """
    a = validate_composition(a)
    n = len(a)
    if n < 2:
        raise ValueError("need at least two entries")
    mod = fusion_module(a)
    span = cyclic_span(mod, range(1, n), [mod.cyclic_vector()])
    sub_char = label_character(a[:-1])
    ok1, shift1 = match_characters(span.character(), sub_char, reindex=1)
    quot = mod.character() - span.character()
    quot_label = a[:-1] + (a[-1] - 1,)
    ok2, shift2 = match_characters(quot, label_character(quot_label), reindex=0)
    return {
        "ok": ok1 and ok2,
        "span_dim": span.dim,
        "span_shift": shift1,
        "quotient_dim": quot.total(),
        "quotient_shift": shift2,
    }


def verify_tensor_embedding(a, b) -> dict:
    """Diagonal span of v_A (x) v_B against the merged-composition module.

    B is padded with leading 1 entries to the length of A; the merged label
    adds the tuples entrywise and subtracts 1 in every slot.
    """
    a = validate_composition(a, allow_empty=False)
    b = validate_composition(b, allow_empty=False)
    if len(b) > len(a):
        raise ValueError("second factor must not be longer than the first")
    bpad = (1,) * (len(a) - len(b)) + b
    c = tuple(x + y - 1 for x, y in zip(a, bpad))
    t = TensorModule([fusion_module(a), fusion_module(bpad)])
    ops = [t.op_diag(j) for j in range(len(a))]
    span = cyclic_span(t, ops, [t.cyclic_tensor()], max_dim=10 * prod(c))
    mc = fusion_module(c)
    ok, shift = match_characters(span.character(), mc.character(), reindex=0)
    return {
        "ok": ok and span.dim == mc.total_dim,
        "merged": c,
        "span_dim": span.dim,
        "expected_dim": mc.total_dim,
        "shift": shift,
    }
