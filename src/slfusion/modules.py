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
exactly the canonical fully reduced echelon form of the ideal slice.  Normal
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
element or ``Fraction``.

Everything here is exact: quotient bases, normal forms, graded characters,
cyclic spans and tensor modules with diagonal operators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from slfusion.linalg import (
    IntegrityError,
    IntEchelon,
    enumerate_monomials,
    mono_mul,
    poly_var,
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
    Results are memoized, so one dict is shared by every caller (and by
    every ``ideal_generators`` list): do not mutate it.
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


def ideal_generators(a) -> list[tuple[int, int, dict]]:
    """Bihomogeneous generators of I_A up to one degree past the top band.

    Returns records ``(k, zpow, poly)`` for 1 <= k <= 1 + sum(a_i - 1) and
    0 <= zpow < N_A(k); the polynomial has bidegree (k, k(n-1) - zpow).
    """
    a = validate_composition(a)
    n = len(a)
    kmax = sum(x - 1 for x in a)
    out = []
    for k in range(1, kmax + 2):
        cap = min(relation_exponent(a, k), k * (n - 1) + 1)
        for zpow in range(cap):
            out.append((k, zpow, generating_slice(n, k, zpow)))
    return out


# The column maps of every verify-all and benchmark label fit with room to
# spare (about 0.12 M entries); one (4,4,4,4,4,4) build alone asks for 0.8 M.
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

    def _build(self) -> None:
        n = self.n
        gens = {(k, k * (n - 1) - zpow): poly for k, zpow, poly in ideal_generators(self.a)}
        # the ideal in degree k is spanned by e_j times its degree k-1 rows
        # plus the degree-k generators; prev keeps, per weight of degree k-1,
        # the unit columns and the non-unit rows
        prev: dict[int, tuple[set, list]] = {}
        for k in range(0, self.kmax + 2):
            cur: dict[int, tuple[set, list]] = {}
            for s in range(0, (n - 1) * k + 1):
                monos = enumerate_monomials(n, k, s)
                if not monos:
                    continue
                width = len(monos)
                units: set[int] = set()
                shifted = []
                for j, cols in enumerate(shift_columns(n, k, s)):
                    below = prev.get(s - j)
                    if below is None or not (below[0] or below[1]):
                        continue
                    prev_units, prev_rows = below
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
                gen = gens.get((k, s))
                if gen is not None and len(units) + ech.dim < width:
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
                cur[s] = (units, rows)
                self._add_piece(k, s, monos, units, rows)
            prev = cur
        self._certify_zero_band()

    def _restore(self, piece_rows: dict) -> None:
        """Rebuild pieces from stored dense echelon rows (skips the elimination).

        Each row is read into the sparse form the build produces: a row with
        one nonzero entry is a unit column, the rest are non-unit rows.
        """
        n = self.n
        for k in range(0, self.kmax + 2):
            for s in range(0, (n - 1) * k + 1):
                monos = enumerate_monomials(n, k, s)
                if not monos:
                    continue
                units: set[int] = set()
                rows, pivots = [], []
                for dense in piece_rows.get((k, s), []):
                    if len(dense) != len(monos):
                        raise IntegrityError(f"stored row width mismatch at {(k, s)}")
                    row = {c: x for c, x in enumerate(dense) if x}
                    if not row:
                        raise IntegrityError(f"stored zero row at {(k, s)}")
                    if any(type(x) is not int for x in row.values()):
                        raise IntegrityError(f"stored non-integer entry at {(k, s)}")
                    pivots.append(min(row))
                    if len(row) == 1:
                        units.add(pivots[-1])
                    else:
                        rows.append(row)
                if sorted(pivots) != pivots or len(set(pivots)) != len(pivots):
                    raise IntegrityError(f"stored rows not in echelon order at {(k, s)}")
                self._add_piece(k, s, monos, units, rows)
        self._certify_zero_band()

    def _add_piece(self, k: int, s: int, monos, units: set, rows: list) -> None:
        """The piece at (k, s) from its unit columns and non-unit rows.

        The basis is every other column that leads no row.  Normal forms go
        into the module's flat table as integer images: basis monomial i is
        ``((i, 1),)`` over 1, and the leading monomial of a non-unit row
        reduces to minus the row's free entries over its leading entry (a
        primitive row makes that denominator the least one).  Unit
        monomials, and rows with no free entry, reduce to zero and are not
        stored.
        """
        ks = (k, s)
        leads = {min(row) for row in rows}
        free = [c for c in range(len(monos)) if c not in units and c not in leads]
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

    @property
    def ideal_rows(self) -> dict[tuple[int, int], list[tuple[int, ...]]]:
        """The reduced ideal rows of every bidegree, dense, sorted by pivot.

        Unit rows and non-unit rows together, i.e. the canonical fully
        reduced echelon form of each ideal slice.  Built on every access and
        not kept: read it once and hold the result if it is needed twice.
        """
        out = {}
        for (k, s), piece in self.pieces.items():
            monos = enumerate_monomials(self.n, k, s)
            basis = set(piece.basis)
            leads = {min(row): row for row in piece.rows}
            dense = []
            for c, m in enumerate(monos):
                row = leads.get(c)
                if row is None and m in basis:
                    continue
                vec = [0] * len(monos)
                if row is None:
                    vec[c] = 1
                else:
                    for t, x in row.items():
                        vec[t] = x
                dense.append(tuple(vec))
            out[(k, s)] = dense
        return out

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

    def reduce_monomial(self, m: tuple):
        """Normal form of an ambient monomial: (bidegree, coords) or None.

        ``coords`` is a dense ``Fraction`` tuple over the piece basis, built
        from ``normal_form`` on every call.
        """
        red = self.normal_form(m)
        if red is None:
            return None
        ks, entries, den = red
        vec = [Fraction(0)] * self.pieces[ks].dim
        for i, x in entries:
            vec[i] = Fraction(x, den)
        return ks, tuple(vec)

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
        (k, s), piece = tops[0]
        return ModuleElement(self, {(k, s): (Fraction(1),)})

    def poly_class(self, p: dict) -> "ModuleElement":
        coords: dict = {}
        for m, c in p.items():
            red = self.normal_form(m)
            if red is None:
                continue
            ks, entries, den = red
            acc = coords.get(ks)
            if acc is None:
                acc = coords[ks] = [Fraction(0)] * self.pieces[ks].dim
            for i, x in entries:
                acc[i] += Fraction(c * x, den)
        return ModuleElement(
            self, {ks: tuple(v) for ks, v in coords.items() if any(v)}
        )

    def basis_element(self, k: int, s: int, i: int) -> "ModuleElement":
        piece = self.pieces[(k, s)]
        vec = [Fraction(0)] * piece.dim
        vec[i] = Fraction(1)
        return ModuleElement(self, {(k, s): tuple(vec)})

    def __repr__(self):
        return f"FusionModule(a={self.a}, dim={self.total_dim})"


class ModuleElement:
    """Element of a fusion module stored as per-bidegree coordinates."""

    __slots__ = ("owner", "coords")

    def __init__(self, owner, coords: dict):
        self.owner = owner
        self.coords = {ks: tuple(v) for ks, v in coords.items() if any(v)}

    def is_zero(self) -> bool:
        return not self.coords

    def support(self):
        return sorted(self.coords)

    def __add__(self, other) -> "ModuleElement":
        if other.owner is not self.owner:
            raise ValueError("elements of different modules")
        coords = {ks: list(v) for ks, v in self.coords.items()}
        for ks, v in other.coords.items():
            acc = coords.setdefault(ks, [Fraction(0)] * len(v))
            for i, x in enumerate(v):
                acc[i] += x
        return ModuleElement(self.owner, {ks: tuple(v) for ks, v in coords.items()})

    def __rmul__(self, c) -> "ModuleElement":
        c = Fraction(c)
        return ModuleElement(
            self.owner, {ks: tuple(c * x for x in v) for ks, v in self.coords.items()}
        )

    def __sub__(self, other) -> "ModuleElement":
        return self + (-1) * other

    def representative(self) -> dict:
        """A polynomial representative built from quotient basis monomials."""
        rep: dict = {}
        for ks, vec in self.coords.items():
            piece = self.owner.pieces[ks]
            for i, c in enumerate(vec):
                if c:
                    rep[piece.basis[i]] = rep.get(piece.basis[i], 0) + c
        return rep

    def apply(self, p: dict) -> "ModuleElement":
        """Class of p * (representative), reduced through normal forms."""
        owner = self.owner
        out: dict = {}
        for ks, vec in self.coords.items():
            piece = owner.pieces[ks]
            for i, c in enumerate(vec):
                if not c:
                    continue
                b = piece.basis[i]
                for pm, pc in p.items():
                    if len(pm) != owner.n:
                        raise ValueError(
                            f"operator in {len(pm)} variables on a module with {owner.n}"
                        )
                    red = owner.reduce_monomial(mono_mul(b, pm))
                    if red is None:
                        continue
                    tks, tvec = red
                    acc = out.setdefault(tks, [Fraction(0)] * len(tvec))
                    f = c * pc
                    for j, x in enumerate(tvec):
                        if x:
                            acc[j] += f * x
        return ModuleElement(owner, {ks: tuple(v) for ks, v in out.items()})


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

    def __init__(self, factors, require_same_n: bool = False):
        self.factors = list(factors)
        if not self.factors:
            raise ValueError("tensor of zero factors")
        if require_same_n and len({f.n for f in self.factors}) > 1:
            raise ValueError("tensor factors must share the variable count")
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

    def piece_dim(self, k: int, s: int) -> int:
        return len(self.piece_basis(k, s))

    def zero(self) -> "TensorElement":
        return TensorElement(self, {})

    def cyclic_tensor(self) -> "TensorElement":
        """v_{A_1} tensor ... tensor v_{A_r}, the bidegree (0,0) line."""
        key = tuple((0, 0, 0) for _ in self.factors)
        return TensorElement(self, {(0, 0): {key: Fraction(1)}})

    def op_diag(self, j: int):
        if not any(j < f.n for f in self.factors):
            raise ValueError(f"diagonal operator e_{j} misses every factor")
        return ("diag", j)

    def op_factor(self, m: int, j: int):
        if not 0 <= m < len(self.factors):
            raise ValueError("factor index out of range")
        if j >= self.factors[m].n:
            raise ValueError(f"factor {m} has no variable e_{j}")
        return ("factor", m, j)

    def _op_factors(self, op: tuple) -> tuple[list, int]:
        """The factors an operator acts on and its variable index."""
        if op[0] == "diag":
            return [m for m, f in enumerate(self.factors) if op[1] < f.n], op[1]
        return [op[1]], op[2]

    def action(self, op: tuple, ks: tuple) -> list:
        """Images of the basis of piece ``ks`` under an operator.

        Composed from the factors' tables (``FusionModule.action``): a basis
        key maps to the sum, over the factors the operator acts on, of the
        key with that factor's entry replaced by its image.  Entries are
        integer images ``(entries, den)`` over the basis of (k+1, s+j), or
        None for zero, as for a fusion module.  Not memoized: a span asks
        for each (op, ks) once, and tensor modules are short-lived.
        """
        factors, j = self._op_factors(op)
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


class TensorElement:
    """Element of a tensor module, sparse over per-bidegree basis keys."""

    __slots__ = ("owner", "coords")

    def __init__(self, owner, coords: dict):
        self.owner = owner
        self.coords = {
            ks: {key: c for key, c in vec.items() if c}
            for ks, vec in coords.items()
            if any(vec.values())
        }

    def is_zero(self) -> bool:
        return not self.coords

    def support(self):
        return sorted(self.coords)

    def __add__(self, other) -> "TensorElement":
        if other.owner is not self.owner:
            raise ValueError("elements of different modules")
        coords = {ks: dict(vec) for ks, vec in self.coords.items()}
        for ks, vec in other.coords.items():
            acc = coords.setdefault(ks, {})
            for key, c in vec.items():
                acc[key] = acc.get(key, Fraction(0)) + c
        return TensorElement(self.owner, coords)

    def __rmul__(self, c) -> "TensorElement":
        c = Fraction(c)
        return TensorElement(
            self.owner,
            {ks: {key: c * x for key, x in vec.items()} for ks, vec in self.coords.items()},
        )

    def apply(self, op: tuple) -> "TensorElement":
        """Image under an operator from ``op_diag`` or ``op_factor``."""
        owner = self.owner
        targets, j = owner._op_factors(op)
        out: dict = {}
        for (k, s), vec in self.coords.items():
            for key, c in vec.items():
                for m in targets:
                    f = owner.factors[m]
                    km, sm, im = key[m]
                    base = f.pieces[(km, sm)].basis[im]
                    ej = tuple(1 if t == j else 0 for t in range(f.n))
                    red = f.reduce_monomial(mono_mul(base, ej))
                    if red is None:
                        continue
                    (tk, ts), tvec = red
                    tot = (k + 1, s + j)
                    acc = out.setdefault(tot, {})
                    for i2, x in enumerate(tvec):
                        if x:
                            nkey = key[:m] + ((tk, ts, i2),) + key[m + 1 :]
                            v = acc.get(nkey, Fraction(0)) + c * x
                            if v:
                                acc[nkey] = v
                            else:
                                acc.pop(nkey, None)
        return TensorElement(owner, out)


def tensor(modules, require_same_n: bool = True) -> TensorModule:
    """Tensor product; by default all factors must share the variable count."""
    return TensorModule(list(modules), require_same_n=require_same_n)


# ---------------------------------------------------------------------------
# subspaces and cyclic spans


class Subspace:
    """Graded subspace of a fusion or tensor module, one echelon per bidegree."""

    def __init__(self, owner):
        self.owner = owner
        self.spans: dict[tuple[int, int], IntEchelon] = {}

    def _dense(self, ks, el):
        if isinstance(el, TensorElement):
            index = self.owner.piece_key_index(*ks)
            vec = [Fraction(0)] * len(index)
            for key, c in el.coords[ks].items():
                vec[index[key]] = c
            return vec
        return el.coords[ks]

    def _piece_dim(self, ks) -> int:
        if isinstance(self.owner, TensorModule):
            return self.owner.piece_dim(*ks)
        return self.owner.dim_piece(*ks)

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
        (ks,) = el.coords
        ech = self.spans.get(ks)
        if ech is None:
            ech = self.spans[ks] = IntEchelon(self._piece_dim(ks))
        return ech.insert(self._dense(ks, el))

    def contains(self, el) -> bool:
        self._check_owner(el)
        if el.is_zero():
            return True
        for piece in _slices(el):
            (ks,) = piece.coords
            ech = self.spans.get(ks)
            if ech is None:
                return False
            if not ech.contains(self._dense(ks, piece)):
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
        var = _span_variable(self.owner, op)
        for ks, ech in self.spans.items():
            target = self.spans.get(_target_bidegree(ks, var))
            table = self.owner.action(var, ks)
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
        out = []
        for ks in sorted(self.spans):
            ech = self.spans[ks]
            if isinstance(self.owner, TensorModule):
                keys = self.owner.piece_basis(*ks)
                for row in ech.rows:
                    vec = {keys[i]: Fraction(x) for i, x in enumerate(row) if x}
                    out.append(TensorElement(self.owner, {ks: vec}))
            else:
                for row in ech.rows:
                    out.append(
                        ModuleElement(self.owner, {ks: tuple(Fraction(x) for x in row)})
                    )
        return out


def _slices(el):
    """Split an element into its bihomogeneous slices."""
    cls = TensorElement if isinstance(el, TensorElement) else ModuleElement
    return [cls(el.owner, {ks: el.coords[ks]}) for ks in sorted(el.coords)]


def _span_variable(owner, op):
    """The operator in the form ``owner.action`` takes, checked.

    On a fusion module an operator is a variable ``poly_var(n, j)`` and
    becomes the index j; on a tensor module it is an ``op_diag`` or
    ``op_factor`` tuple.  Anything else is a ``ValueError``.
    """
    if isinstance(owner, TensorModule):
        if isinstance(op, tuple) and len(op) == 2 and op[0] == "diag":
            return owner.op_diag(op[1])
        if isinstance(op, tuple) and len(op) == 3 and op[0] == "factor":
            return owner.op_factor(op[1], op[2])
    elif isinstance(op, dict) and len(op) == 1:
        ((m, c),) = op.items()
        n = owner.n
        if c == 1 and isinstance(m, tuple) and len(m) == n and sorted(m) == [0] * (n - 1) + [1]:
            return m.index(1)
    raise ValueError(f"cyclic spans take variable operators e_j, got {op!r}")


def _target_bidegree(ks: tuple, var) -> tuple:
    """Where the operator ``var`` (from ``_span_variable``) sends bidegree ks."""
    return (ks[0] + 1, ks[1] + (var if isinstance(var, int) else var[-1]))


def cyclic_span(owner, ops, seeds, max_dim: int | None = None) -> Subspace:
    """Smallest graded subspace containing the seeds and closed under ops.

    Every operator is a variable e_j (``poly_var`` on a fusion module,
    ``op_diag``/``op_factor`` on a tensor module), raising the bidegree by
    (1, j).  A degree-k slice is therefore final once every slice of degree
    k-1 has been mapped, so bidegrees are walked in increasing degree and
    each final slice's reduced echelon rows are mapped once through the
    owner's integer action tables into the target echelons; a full target
    is skipped.  A span that grows past ``max_dim`` raises IntegrityError.
    """
    variables = [_span_variable(owner, op) for op in ops]
    span = Subspace(owner)
    for seed in seeds:
        for piece in _slices(seed):
            span.insert(piece)
    spans = span.spans
    k = min((ks[0] for ks in spans), default=0)
    while any(ks[0] >= k for ks in spans):
        for ks in sorted(ks for ks in spans if ks[0] == k):
            rows = spans[ks].sparse_rows()
            if not rows:
                continue
            for var in variables:
                tks = _target_bidegree(ks, var)
                ech = spans.get(tks)
                if ech is None:
                    ech = spans[tks] = IntEchelon(span._piece_dim(tks))
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
    ops = [poly_var(n, j) for j in range(1, n)]
    span = cyclic_span(mod, ops, [mod.cyclic_vector()])
    sub_char = label_character(a[:-1])
    ok1, shift1 = match_characters(span.character(), sub_char, reindex=1)
    quot = mod.character() - span.character()
    quot_label = a[:-1] + (a[-1] - 1,)
    ok2, shift2 = match_characters(quot, label_character(quot_label), reindex=0)
    return {
        "ok": ok1 and ok2,
        "span_dim": span.dim,
        "span_ok": ok1,
        "span_shift": shift1,
        "span_character": span.character().poly_str(),
        "quotient_dim": quot.total(),
        "quotient_ok": ok2,
        "quotient_shift": shift2,
        "quotient_character": quot.poly_str(),
        "quotient_label": quot_label,
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
    t = tensor([fusion_module(a), fusion_module(bpad)])
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
        "span_character": span.character().poly_str(),
        "expected_character": mc.character().poly_str(),
    }
