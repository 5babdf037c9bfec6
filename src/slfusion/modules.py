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
zero, which makes the degree truncation of the generator list safe.  M^A
is a graded sl2 (x) C[t]-module (Feigin and Loktev, math/9812093), e-degree
k of weight 2k - N with N = sum(a_i - 1), so every module, built or loaded
from the cache, must also pass an sl2-symmetry gate: dim(k, s) =
dim(N - k, s) at every bidegree.  The build does not impose the symmetry,
so the gate is a check, and on a load it certifies the stored pieces
beyond their layout and their count.

The ideal is built degree by degree: its degree-k part is spanned by e_j
times its degree k-1 part plus the degree-k generators.  Almost all of it is
monomials, so each bidegree keeps two things, the set of unit pivot columns
(monomials of I_A) and the non-unit rows of its reduced echelon form.  A unit
set shifts by e_j through the column map with no elimination at all; the
shifted non-unit rows and the generator are reduced against the units by
dropping the unit columns, and only what is left goes into an ``IntEchelon``
(the Macaulay-matrix split of F4: monomial rows are handled symbolically).
A row that comes out as a single entry joins the units.  Units plus rows are
exactly the canonical fully reduced echelon form of the ideal slice.  A
built module keeps the rows only in its normal-form table, which
``FusionModule.ideal_part`` reads them back from, in the form that
``slfusion.cache``, the one owner of the file layout, stores and loads.

Most slices below the certified-zero band lie wholly in the ideal (the
quotient has only prod(a_i) dimensions), and most of those are forced: a
bidegree (k, s) with k >= 1 whose every predecessor (k-1, s-j) lies wholly
in the ideal does too, because every degree-k monomial is e_j times a
monomial of some predecessor and the ideal is closed under each e_j.  The
build never visits such a slice: it keeps only the degree k-1 slices that
hold a piece and computes only the weights w + j of their weights w, so no
monomial is listed, no column shifted and no generator formed for a forced
slice.  A slice that is computed takes the whole column map of a
wholly-ideal predecessor as units, forms its generator only while it is not
yet full, and builds no ``IntEchelon`` when it has nothing to insert.  The
rule is exact, not a heuristic: the dimension gate still counts every
piece.  A wholly-ideal slice is recorded by its absence: ``pieces`` maps
only the bidegrees of positive dimension, each to its list of basis
monomials.  Normal forms are kept in one flat table per module,
``{monomial: ((k, s), entries, den)}``, holding only the monomials whose
class is nonzero: the class is ``sum(x * basis[i] for i, x in entries) /
den``, an integer image read straight off the echelon rows.  The values are
immutable and hash-consed, one object per value in the process: the normal
form of basis monomial i at (k, s) depends on nothing else and comes from a
per-bidegree list that every module shares, whose (k, s) tuple is also each
module's ``pieces`` key, and the normal form of a row lead is interned by
equality in one bounded table.  Sharing is by equality only, so a module
holds exactly the values it would hold alone, and every reader of the
tables is unchanged.  The column maps of the e_j shifts depend only on
(n, k, s) and are shared by every build.

Multiplication by e_j is read off the normal forms once per (j, bidegree)
and kept as an integer table (``FusionModule.action``); tensor modules
compose their factors' tables.  Cyclic spans, the closure check of a
subspace, the vanishing test of a polynomial class and the kernels of the
move maps run on these images in integer arithmetic, with no per-step
element.  One element class, ``ModuleElement``, serves both owner kinds:
integer numerators over the piece bases and one denominator, the same
``(entries, den)`` form.  Elements and spans share one action routine,
``map_row``, which maps a row through a table to its exact image.

Everything here is exact: quotient bases, normal forms, graded characters,
cyclic spans and tensor modules with diagonal operators.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm, prod

from slfusion.linalg import (
    IntegrityError,
    IntEchelon,
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
    """Sparse table (degree, weight) -> ``int`` dimension, printed as a u,q
    polynomial; a dimension of another type is a ``ValueError``."""

    __slots__ = ("table",)

    def __init__(self, table: dict):
        bad = [d for d in table.values() if type(d) is not int]
        if bad:
            raise ValueError(f"GradedCharacter dimension {bad[0]!r} is not an int")
        self.table = {ks: d for ks, d in table.items() if d}

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


def map_row(row: dict, table) -> tuple[dict, int]:
    """The image of a sparse row under a table, as ``(entries, den)``.

    ``row`` is a ``{position: value}`` map over a piece basis and ``table``
    holds the integer images of those basis vectors (``action``).  The
    image is ``entries / den``: the basis images are summed over the lcm
    ``den`` of their denominators, so an integer row maps to integer
    ``entries`` with no rational number formed.  ``entries`` is a
    ``{position: value}`` map, empty when the image is zero.
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
    return {t: y for t, y in acc.items() if y}, den


def _class_sums(terms) -> tuple[dict, int]:
    """The class of a polynomial from its terms ``(normal form, coefficient)``.

    Returns ``({(k, s): {position: int}}, den)``: each coefficient times its
    monomial's integer image, scaled to the lcm ``den`` of their
    denominators and summed per basis position, zero sums included.
    """
    den = lcm(*(red[2] for red, _ in terms))
    sums: dict = {}
    for (ks, entries, d), c in terms:
        f = c * (den // d)
        vec = sums.setdefault(ks, {})
        for i, x in entries:
            vec[i] = vec.get(i, 0) + f * x
    return sums, den


# ---------------------------------------------------------------------------
# the quotient modules


# the build's mark for a slice wholly in the ideal, in place of its units and rows
ALL_IDEAL = object()
# entry i is ((i, 1),), the image of basis monomial i over 1
_BASIS_IMAGES: list[tuple] = []
# (k, s) -> (ks, forms): ks is the one (k, s) tuple every module takes as its
# ``pieces`` key, and forms[i] is (ks, _BASIS_IMAGES[i], 1), the normal form
# of basis monomial i of the piece at (k, s) in every table.  Each list grows
# to the largest piece seen at its bidegree
_BASIS_FORMS: dict[tuple, tuple] = {}
# Row-lead normal forms ``(ks, entries, den)``, one object per value, shared
# by every table that holds an equal one.  The 187 modules of verify-all
# make 3,230 distinct leads, 5,692 with every benchmark frontier label, and
# one cold (4,4,4,4,4,4) build 6,702; the table is emptied before it would
# pass the bound.
LEAD_TABLE_ENTRIES = 1 << 15
_leads: dict[tuple, tuple] = {}
# how often the lead table was emptied
_lead_memo = {"clears": 0}


class FusionModule:
    """The bigraded quotient C[e_0..e_{n-1}] / I_A with exact normal forms."""

    def __init__(self, a, _piece_rows=None):
        self._empty(validate_composition(a))
        if _piece_rows is None:
            self._build()
        else:
            self._restore(_piece_rows)
        self.total_dim = sum(map(len, self.pieces.values()))
        expected = prod(self.a)
        if self.total_dim != expected:
            raise IntegrityError(
                f"dim mismatch for {self.a}: built {self.total_dim}, "
                f"product formula gives {expected}; character "
                f"{self.character().poly_str()}"
            )
        # M^A is a graded sl2 (x) C[t]-module: dim(k, s) = dim(kmax - k, s).
        # An asymmetric bidegree without a piece has a mirror with one
        asym = [
            (k, s) for k, s in self.pieces if self.dim_piece(k, s) != self.dim_piece(self.kmax - k, s)
        ]
        if asym:
            k, s = min((min(k, self.kmax - k), s) for k, s in asym)
            raise IntegrityError(
                f"character of {self.a} is not sl2-symmetric: dim {self.dim_piece(k, s)} "
                f"at {(k, s)}, dim {self.dim_piece(self.kmax - k, s)} at {(self.kmax - k, s)}"
            )

    def _empty(self, a: tuple) -> None:
        """Set every field for label ``a``, with no pieces yet."""
        self.a = a
        self.n = len(a)
        self.kmax = sum(x - 1 for x in a)
        self.lowest_h0 = -self.kmax
        self.total_dim = 0
        # bidegree -> quotient basis monomials, positive dimension only
        self.pieces: dict[tuple[int, int], list[tuple]] = {}
        # monomial -> (bidegree, entries, den), nonzero only; see normal_form
        self._nf: dict[tuple, tuple] = {}
        # (j, k, s) -> images of the piece basis under e_j, see ``action``
        self._actions: dict[tuple, tuple] = {}
        # (i, j) -> the move map from this module, see ``submodule_S``
        self._maps: dict[tuple, object] = {}
        # padded second factor -> tensor-merge report, see ``verify_tensor_embedding``
        self._merges: dict[tuple, dict] = {}

    def _build(self) -> None:
        n = self.n
        # the ideal in degree k is spanned by e_j times its degree k-1 rows
        # plus the degree-k generators; prev keeps, per weight of degree k-1
        # whose slice holds a piece, its unit columns and non-unit rows.  A
        # weight of degree k >= 1 that no kept slice reaches has only
        # wholly-ideal predecessors, so it is wholly ideal and never visited
        prev: dict[int, tuple] = {}
        for k in range(0, self.kmax + 2):
            cur: dict[int, tuple] = {}
            top = (n - 1) * (k - 1)
            # I_A has a generator at (k, s) iff its z-power k(n-1) - s < N_A(k)
            n_gens = relation_exponent(self.a, k)
            for s in sorted({w + j for w in prev for j in range(n)}) if k else (0,):
                below = [(j, prev.get(s - j, ALL_IDEAL)) for j in range(n) if 0 <= s - j <= top]
                state = self._slice(k, s, below, k * (n - 1) - s < n_gens)
                if state is not ALL_IDEAL:
                    cur[s] = state
            prev = cur
        self._certify_zero_band()

    def _slice(self, k: int, s: int, below: list, has_gen: bool):
        """Eliminate the ideal slice at (k, s) and add its piece.

        ``below`` lists ``(j, state)`` for the predecessors (k-1, s-j), a
        wholly-ideal one as ALL_IDEAL, and ``has_gen`` says whether I_A has a
        generator here.  Returns the slice's ``(units, rows)``, or ALL_IDEAL
        when no column is free.
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
        # reducing a row against the unit rows drops its unit columns; once
        # the span is full no further row can change it, and a slice with
        # nothing to insert, or already full of units, needs no echelon
        rows = []
        room = width - len(units)  # columns that neither a unit nor a row covers
        if room and (shifted or has_gen):
            ech = IntEchelon(width)
            for cols, row in shifted:
                if not room:
                    break
                red = {t: x for c, x in row.items() if (t := cols[c]) not in units}
                if red and ech.insert(red):
                    room -= 1
            if has_gen and room:
                gen = generating_slice(n, k, k * (n - 1) - s)
                # a generating slice lists its bidegree in column order
                if list(gen) != monos:
                    raise IntegrityError(f"generator at {(k, s)} is not a full slice")
                red = {t: c for t, c in enumerate(gen.values()) if t not in units}
                if red:
                    ech.insert(red)
            for row in ech.sparse_rows():
                if len(row) == 1:
                    units.update(row)
                else:
                    rows.append(row)
        if len(units) == width:
            return ALL_IDEAL
        leads = {min(row) for row in rows}
        free = [c for c in range(width) if c not in units and c not in leads]
        self._add_piece(k, s, monos, free, rows)
        return units, rows

    def _restore(self, pieces) -> None:
        """Rebuild the pieces from their stored free columns and rows.

        ``pieces`` yields ``((k, s), free, rows)`` in the form ``ideal_part``
        returns, one bidegree with a piece at a time; ``slfusion.cache``
        reads and checks the file layout before a piece reaches here.  Each
        goes through ``_add_piece``.  Beyond the dimension, zero-band and
        sl2-symmetry gates every generator of I_A must reduce to zero
        (``surviving_generator``), a partial certificate: closure under the
        e_j is not checked (a naive check costs over twenty times as much).
        """
        n = self.n
        for (k, s), free, rows in pieces:
            self._add_piece(k, s, enumerate_monomials(n, k, s), free, rows)
        self._certify_zero_band()
        found = self.surviving_generator(self.a)
        if found is not None:
            k, zpow = found
            raise IntegrityError(
                f"stored rows do not contain the generator at {(k, k * (n - 1) - zpow)}"
            )

    def _add_piece(self, k: int, s: int, monos, free: list, rows: list) -> None:
        """The piece at (k, s) from its free columns and non-unit rows.

        Normal forms go into the module's flat table as integer images, each
        a value that every module holding an equal one shares: basis
        monomial i is entry i of the bidegree's ``_BASIS_FORMS`` list, beside
        the bidegree tuple that is also the ``pieces`` key, and the leading
        monomial of a non-unit row reduces to minus the row's free entries
        over its positive leading entry, the least denominator of a
        primitive row, kept once in the lead table.  Sharing is by equality, so a module
        holds exactly the values it would hold alone.  Unit monomials reduce
        to zero and are not stored.  The table is the rows' one copy
        (``ideal_part``).  ``free`` is never empty: the build adds no piece
        for a wholly-ideal slice, and a load refuses an entry with no free
        column.
        """
        basis = [monos[c] for c in free]
        ks, forms = _BASIS_FORMS.setdefault((k, s), ((k, s), []))
        while len(forms) < len(basis):
            i = len(forms)
            if i == len(_BASIS_IMAGES):
                _BASIS_IMAGES.append(((i, 1),))
            forms.append((ks, _BASIS_IMAGES[i], 1))
        nf = self._nf
        nf.update(zip(basis, forms))
        position = {c: i for i, c in enumerate(free)}
        for row in rows:
            pc = min(row)
            entries = tuple(sorted((position[c], -x) for c, x in row.items() if c != pc))
            form = (ks, entries, row[pc])
            shared = _leads.get(form)
            if shared is None:
                if len(_leads) >= LEAD_TABLE_ENTRIES:
                    _leads.clear()
                    _lead_memo["clears"] += 1
                shared = _leads[form] = form
            nf[monos[pc]] = shared
        self.pieces[ks] = basis

    def ideal_part(self, k: int, s: int) -> tuple[list, list]:
        """``(free, rows)`` of the ideal slice at (k, s), as the build made them.

        Columns are ``enumerate_monomials`` positions and rows the non-unit
        ``{column: int}`` rows sorted by lead; every other column off ``free``
        is a unit row.  The rows are read back exactly from the normal forms:
        the entry ``(ks, entries, den)`` of a non-basis monomial at column c is
        the row ``{c: den}`` plus ``-x`` at ``free[i]`` for each ``(i, x)``, as
        rows are primitive with a positive lead and have a free entry.  This
        is the form ``slfusion.cache`` stores and ``_restore`` takes back.
        """
        basis, free, leads = self.pieces.get((k, s), ()), [], []
        for c, m in enumerate(enumerate_monomials(self.n, k, s)):
            if len(free) < len(basis) and m == basis[len(free)]:
                free.append(c)
            elif (red := self._nf.get(m)) is not None:
                leads.append((c, red))
        return free, [{c: den} | {free[i]: -x for i, x in img} for c, (_, img, den) in leads]

    def _certify_zero_band(self) -> None:
        band = [ks for ks in self.pieces if ks[0] > self.kmax]
        if band:
            raise IntegrityError(
                f"nonzero piece at certified-zero bidegree {min(band)} for {self.a}"
            )

    # -- queries ------------------------------------------------------------

    def character(self) -> GradedCharacter:
        return GradedCharacter({ks: len(p) for ks, p in self.pieces.items()})

    def dim_piece(self, k: int, s: int) -> int:
        return len(self.pieces.get((k, s), ()))

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
            images = []
            for b in self.pieces.get(ks, ()):
                red = self._nf.get(b[:j] + (b[j] + 1,) + b[j + 1:])
                images.append(None if red is None else red[1:])
            table = self._actions[key] = tuple(images)
        return table

    def surviving_generator(self, a) -> tuple[int, int] | None:
        """The first generator ``(k, zpow)`` of I_a whose class here is nonzero.

        ``a`` is a label with this module's variable count; None when every
        generator of ``generator_keys(a)`` vanishes here.  A generator whose
        bidegree holds no piece vanishes by construction (no monomial there
        has a nonzero normal form), so it is not reduced: the answer is that
        of reducing every generator.  The others are reduced in integers
        straight from the normal-form table (``_class_sums``, the sums
        ``poly_class`` returns), with no element formed.
        """
        n, nf = self.n, self._nf
        for k, zpow in generator_keys(a):
            if (k, k * (n - 1) - zpow) in self.pieces:
                gen = generating_slice(n, k, zpow)
                sums, _ = _class_sums([(red, c) for m, c in gen.items() if (red := nf.get(m))])
                if any(x for vec in sums.values() for x in vec.values()):
                    return k, zpow
        return None

    # -- elements -----------------------------------------------------------

    def cyclic_vector(self) -> "ModuleElement":
        """The class of 1 (image of the product of the lowest-weight lines)."""
        return self.poly_class({(0,) * self.n if self.n else (): 1})

    def poly_class(self, p: dict) -> "ModuleElement":
        """The class of ``p``: its monomials' normal forms summed over one
        common denominator."""
        terms = [(red, c) for m, c in p.items() if (red := self.normal_form(m)) is not None]
        return ModuleElement(self, *_class_sums(terms))

    def __repr__(self):
        return f"FusionModule(a={self.a}, dim={self.total_dim})"


class ModuleElement:
    """Element of a fusion or tensor module, sparse over its piece bases.

    The element is ``coords / den``: ``coords`` maps a bidegree to nonzero
    ``int`` numerators ``{position: int}`` over the owner's basis of that
    piece (for a tensor module the block positions of ``TensorModule.blocks``)
    and ``den`` is a positive ``int``, in lowest terms, so the pair is
    canonical; any other type (``Fraction``, ``float``, ``bool``) is a
    ``ValueError``.  ``apply`` runs on the owner's integer action tables, the
    ones the cyclic spans use.
    """

    __slots__ = ("owner", "coords", "den")

    def __init__(self, owner, coords: dict, den: int = 1):
        bad = [x for vec in coords.values() for x in vec.values() if type(x) is not int]
        if bad:
            raise ValueError(f"ModuleElement numerator {bad[0]!r} is not an int")
        if type(den) is not int or den < 1:
            raise ValueError(f"ModuleElement denominator {den!r} is not a positive int")
        self.owner = owner
        self.coords = {}
        for ks, vec in coords.items():
            vec = {i: x for i, x in vec.items() if x}
            if vec:
                self.coords[ks] = vec
        g = gcd(den, *(x for vec in self.coords.values() for x in vec.values()))
        if g > 1:
            self.coords = {ks: {i: x // g for i, x in vec.items()} for ks, vec in self.coords.items()}
        self.den = den // g

    def is_zero(self) -> bool:
        return not self.coords

    def representative(self) -> dict:
        """A polynomial built from quotient basis monomials whose class is
        ``den`` times the element: the numerators on their monomials.

        Defined for elements of a fusion module, whose pieces have monomial
        bases.
        """
        rep: dict = {}
        for ks, vec in self.coords.items():
            basis = self.owner.pieces[ks]
            for i, c in vec.items():
                rep[basis[i]] = c
        return rep

    def apply(self, op) -> "ModuleElement":
        """Image under a variable operator, in the forms ``cyclic_span`` takes.

        Every slice is mapped through ``owner.action`` by ``map_row``, as a
        span row is, and the images are put over the lcm of their
        denominators times ``den``.
        """
        var, j = _span_variable(self.owner, op)
        images = [
            ((k + 1, s + j), map_row(vec, self.owner.action(var, (k, s))))
            for (k, s), vec in self.coords.items()
        ]
        den = lcm(*(d for _, (_, d) in images))
        out = {ks: {t: y * (den // d) for t, y in entries.items()} for ks, (entries, d) in images}
        return ModuleElement(self.owner, out, den * self.den)


_MODULE_CACHE: dict[tuple, FusionModule] = {}


def fusion_module(a) -> FusionModule:
    """Build M^A, memoized per composition (modules are immutable)."""
    key = validate_composition(a)
    mod = _MODULE_CACHE.get(key)
    if mod is None:
        mod = FusionModule(key)
        _MODULE_CACHE[key] = mod
    return mod


def label_module(label) -> FusionModule:
    """The module named by a possibly-unsorted integer label.

    Entries are sorted first, giving the memoized ``fusion_module`` (the
    defining relations only see the multiset).  A zero entry gives the zero
    module: a fresh one with no pieces, so every normal form is None.
    """
    label = tuple(int(x) for x in label)
    if any(x < 0 for x in label):
        raise ValueError("negative entry in module label")
    if all(label):
        return fusion_module(tuple(sorted(label)))
    mod = FusionModule.__new__(FusionModule)
    mod._empty(label)
    return mod


def label_character(label) -> GradedCharacter:
    """Character of the module named by a label (see ``label_module``)."""
    return label_module(label).character()


# ---------------------------------------------------------------------------
# tensor modules


class TensorModule:
    """Two-factor tensor product P (x) Q, with diagonal and per-factor operators.

    Bidegrees add across the factors.  The piece at (k, s) is the sum of the
    blocks P(k1, s1) (x) Q(k - k1, s - s1) over the nonzero pieces of P in
    bidegree order, and basis vector i1 (x) i2 of a block sits at
    ``offset + i1 * d2 + i2`` (``blocks``): the lexicographic order of the
    keys ((k1, s1, i1), (k2, s2, i2)).  The factors may live over different
    variable counts (needed when a submodule is modeled inside a product of
    smaller modules); the diagonal operator e_j sums the factor actions over
    the factors that have the variable e_j.
    """

    def __init__(self, factors):
        self.factors = list(factors)
        if len(self.factors) != 2:
            raise ValueError(f"a tensor module takes two factors, got {len(self.factors)}")
        self.n = max(f.n for f in self.factors)
        self.total_dim = prod(f.total_dim for f in self.factors)
        # the first factor's bidegrees, in order
        self._first = sorted(self.factors[0].pieces)
        self._blocks: dict = {}

    def character(self) -> GradedCharacter:
        p, q = (f.character().table for f in self.factors)
        table: dict = {}
        for (k1, s1), d1 in p.items():
            for (k2, s2), d2 in q.items():
                ks = (k1 + k2, s1 + s2)
                table[ks] = table.get(ks, 0) + d1 * d2
        return GradedCharacter(table)

    def blocks(self, k: int, s: int) -> tuple[dict, int]:
        """``({(k1, s1): (offset, d1, d2)}, dim)`` for the piece at (k, s),
        memoized: one entry per nonzero block P(k1, s1) (x) Q(k - k1, s - s1)
        of dimensions d1 and d2, in order of offset."""
        found = self._blocks.get((k, s))
        if found is None:
            p, q = self.factors
            table, dim = {}, 0
            for k1, s1 in self._first:
                d2 = q.dim_piece(k - k1, s - s1)
                if d2:
                    d1 = p.dim_piece(k1, s1)
                    table[(k1, s1)] = (dim, d1, d2)
                    dim += d1 * d2
            found = self._blocks[(k, s)] = (table, dim)
        return found

    def dim_piece(self, k: int, s: int) -> int:
        return self.blocks(k, s)[1]

    def cyclic_tensor(self) -> ModuleElement:
        """v_P (x) v_Q, the bidegree (0,0) line."""
        return ModuleElement(self, {(0, 0): {0: 1}})

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

        Composed from the factors' tables (``FusionModule.action``): e_j on
        i1 (x) i2 is (e_j i1) (x) i2 plus i1 (x) (e_j i2), over the factors
        the operator acts on, placed by block offset.  Entries are integer
        images ``(entries, den)`` over the basis of (k+1, s+j), or None for
        zero, as for a fusion module.  Not memoized: a span asks for each
        (op, ks) once, and tensor modules are short-lived.
        """
        j = op[-1]
        p, q = self.factors
        acts = (op[1] == 0, op[1] == 1) if op[0] == "factor" else (j < p.n, j < q.n)
        k, s = ks
        target = self.blocks(k + 1, s + j)[0]
        table = []
        for (k1, s1), (_, d1, d2) in self.blocks(k, s)[0].items():
            left = p.action(j, (k1, s1)) if acts[0] else (None,) * d1
            right = q.action(j, (k - k1, s - s1)) if acts[1] else (None,) * d2
            # e_j on P lands in block (k1+1, s1+j), whose Q dimension is
            # still d2; e_j on Q lands in block (k1, s1), of Q dimension e2
            lo = target.get((k1 + 1, s1 + j), (0,))[0]
            ro, _, e2 = target.get((k1, s1), (0, 0, 0))
            for i1, li in enumerate(left):
                for i2, ri in enumerate(right):
                    images = []
                    if li is not None:
                        images.append((tuple((lo + t * d2 + i2, x) for t, x in li[0]), li[1]))
                    if ri is not None:
                        images.append((tuple((ro + i1 * e2 + t, x) for t, x in ri[0]), ri[1]))
                    if len(images) < 2:
                        table.append(images[0] if images else None)
                        continue
                    # the two terms sit at distinct positions, but their sum
                    # still needs one denominator
                    den = lcm(li[1], ri[1])
                    table.append((tuple((t, den // d * x) for img, d in images for t, x in img), den))
        return table

    def __repr__(self):
        return f"TensorModule({[f.a for f in self.factors]}, dim={self.total_dim})"


# ---------------------------------------------------------------------------
# subspaces and cyclic spans


class Subspace:
    """Graded subspace of a fusion or tensor module, one echelon per bidegree.

    An element's slice goes into the echelon of its bidegree as its integer
    numerators, which span the same line as the slice.  The echelon rows are
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
        return ech.insert(vec)

    def contains(self, el) -> bool:
        self._check_owner(el)
        for ks, vec in el.coords.items():
            ech = self.spans.get(ks)
            if ech is None or not ech.contains(vec):
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
                img, _ = map_row(row, table)
                if img and (target is None or not target.contains(img)):
                    return False
        return True

    @property
    def dim(self) -> int:
        return sum(e.dim for e in self.spans.values())

    def character(self) -> GradedCharacter:
        return GradedCharacter({ks: e.dim for ks, e in self.spans.items()})

    def __eq__(self, other) -> bool:
        """Same owner and the same nonzero slices; empty echelons do not count."""
        if not isinstance(other, Subspace) or self.owner is not other.owner:
            return False
        mine, theirs = ({ks: e for ks, e in sub.spans.items() if e.dim} for sub in (self, other))
        return mine == theirs

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
                    img, _ = map_row(row, table)
                    if img and ech.insert(img) and ech.dim == ech.ncols:
                        break
        if max_dim is not None and span.dim > max_dim:
            raise IntegrityError("cyclic span exceeded the expected dimension")
        k += 1
    for ks in [ks for ks, ech in spans.items() if not ech.dim]:
        del spans[ks]
    return span


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
    adds the tuples entrywise and subtracts 1 in every slot.  The report is
    memoized on M^A per padded B (``_merges``): B and (1,) + B name the
    same computation.
    """
    a = validate_composition(a, allow_empty=False)
    b = validate_composition(b, allow_empty=False)
    if len(b) > len(a):
        raise ValueError("second factor must not be longer than the first")
    bpad = (1,) * (len(a) - len(b)) + b
    ma = fusion_module(a)
    rep = ma._merges.get(bpad)
    if rep is None:
        c = tuple(x + y - 1 for x, y in zip(a, bpad))
        t = TensorModule([ma, fusion_module(bpad)])
        ops = [t.op_diag(j) for j in range(len(a))]
        span = cyclic_span(t, ops, [t.cyclic_tensor()], max_dim=10 * prod(c))
        mc = fusion_module(c)
        ok, shift = match_characters(span.character(), mc.character(), reindex=0)
        rep = ma._merges[bpad] = {
            "ok": ok and span.dim == mc.total_dim,
            "merged": c,
            "span_dim": span.dim,
            "expected_dim": mc.total_dim,
            "shift": shift,
        }
    return dict(rep)
