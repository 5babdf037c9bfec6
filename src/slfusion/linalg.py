"""Exact rational linear algebra and sparse monomial bookkeeping.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), always in
lowest terms with positive denominator.  Monomials in the variables
e_0 .. e_{n-1} are exponent tuples carrying a bidegree: the degree k is the
total exponent sum and the weight s is the subscript-weighted sum
``sum(i * exps[i])``.  The global monomial order is graded lexicographic with
e_0 most significant; within a fixed bidegree this is descending
lexicographic order on exponent vectors.

Row reduction is deterministic (first nonzero pivot in column order) and
exact.  Every elimination runs in ``IntEchelon`` on sparse primitive integer
rows, fraction-free: each candidate row is reduced against the span in a
single integer combination, and only the nonzero entries are ever touched.
``IntEchelon`` takes dense rational rows as well as sparse integer maps; a
rational row is scaled to integers by ``_integer_row``, the one converter.
``kernel_basis`` is fraction-free too: it reads the null space off the reduced
integer rows as primitive integer vectors.  Rationals appear only in the
rows callers pass in and in dense normal forms built on demand, so the
results are exact by construction.  The dense ``Fraction`` ``rref`` is not
called by the library: it stays only as the independent reference the
tests check ``IntEchelon`` and ``kernel_basis`` against.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class IntegrityError(Exception):
    """A computed value contradicts a structural law the artifact relies on.

    Raised only for hard internal inconsistencies (e.g. a quotient dimension
    that disagrees with the product formula), never for bad user input.
    """


# ---------------------------------------------------------------------------
# scalars


def parse_scalar(text: str) -> Fraction:
    """Parse ``a`` or ``a/b`` into a rational in lowest terms."""
    return Fraction(text.strip())


def exact_scalar(x) -> int | Fraction:
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def format_scalar(x: Fraction) -> str:
    """Canonical text form; ``parse_scalar`` round-trips it."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# monomials


def mono_degree(m: tuple) -> int:
    return sum(m)


def mono_weight(m: tuple) -> int:
    return sum(i * e for i, e in enumerate(m))


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


@lru_cache(maxsize=1 << 14)
def enumerate_monomials(n: int, k: int, s: int) -> list[tuple]:
    """All exponent tuples of degree k and weight s, in the global order.

    Empty when the weight is out of range (s < 0 or s > (n-1)k).  The n = 0
    ring has the single monomial () in bidegree (0, 0).  Results are memoized
    and shared between callers, so the returned list must not be mutated.
    """
    if n < 0 or k < 0 or s < 0:
        return []
    out: list[tuple] = []

    def rec(slot: int, left_k: int, left_s: int, prefix: tuple) -> None:
        if slot == n - 1:
            if left_s == (n - 1) * left_k:
                out.append(prefix + (left_k,))
            return
        # remaining slots are slot+1 .. n-1, contributing weight in
        # [ (slot+1)*r , (n-1)*r ] for r exponents left
        for e in range(left_k, -1, -1):
            r = left_k - e
            w = left_s - slot * e
            if w < 0 or w < (slot + 1) * r or w > (n - 1) * r:
                continue
            rec(slot + 1, r, w, prefix + (e,))

    if n == 0:
        return [()] if (k == 0 and s == 0) else []
    rec(0, k, s, ())
    return out


# ---------------------------------------------------------------------------
# sparse polynomials: dict {exponent tuple -> coefficient}


def poly_var(n: int, j: int) -> dict:
    """The variable e_j as a polynomial in n variables."""
    if not 0 <= j < n:
        raise ValueError(f"variable index {j} out of range for {n} variables")
    m = [0] * n
    m[j] = 1
    return {tuple(m): 1}


# ---------------------------------------------------------------------------
# dense exact row reduction


def rref(rows, ncols: int | None = None):
    """Reduced row echelon form over Q.

    Returns ``(rank, reduced_rows, pivot_columns)``.  Deterministic: pivots
    are the first nonzero entries scanning columns left to right and rows top
    to bottom, pivot entries are normalized to 1.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work = [[Fraction(x) for x in r] for r in rows]
    pivots: list[int] = []
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if work[r][c]:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        lead = work[rank][c]
        if lead != 1:
            work[rank] = [x / lead for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][c]:
                f = work[r][c]
                row, prow = work[r], work[rank]
                work[r] = [a - f * b for a, b in zip(row, prow)]
        pivots.append(c)
        rank += 1
    return rank, work[:rank], pivots


def kernel_basis(rows, ncols: int):
    """Basis of the right null space, one primitive integer vector per free column.

    ``rows`` is any iterable of dense sequences or ``{column: value}`` maps
    (integer or rational entries); each is scaled to integers by
    ``_integer_row`` and goes into an ``IntEchelon``.  Rows are read one at a
    time and reading stops as soon as the span is full, so a lazy iterable
    is never read further than needed.  For each free column ``fc`` the
    vector is the one read off ``rref`` (1 at ``fc``, ``-row[fc] / row[pc]``
    at the pivot column ``pc`` of each reduced row) scaled to a primitive
    integer tuple, positive at ``fc``.  With no rows it is the identity basis.
    """
    ech = IntEchelon(ncols)
    if ncols:
        for row in rows:
            ech.insert(_integer_row(row))
            if ech.dim == ncols:
                break
    pivots = ech.pivots
    if len(pivots) == ncols:
        return []
    pivot_set = set(pivots)
    # free column -> (pivot column, entry, leading entry) of the rows hitting it
    hits: dict[int, list] = {fc: [] for fc in range(ncols) if fc not in pivot_set}
    for pc, row in zip(pivots, ech.sparse_rows()):
        lead = row[pc]
        for c, x in row.items():
            if c != pc:
                hits[c].append((pc, x, lead))
    out = []
    for fc, entries in hits.items():
        mult = lcm(1, *(lead for _, _, lead in entries))
        vec = [0] * ncols
        vec[fc] = g = mult
        for pc, x, lead in entries:
            vec[pc] = y = -x * (mult // lead)
            g = gcd(g, y)
        out.append(tuple(vec) if g == 1 else tuple(x // g for x in vec))
    return out


# ---------------------------------------------------------------------------
# primitive-integer echelon spans (hot path)


def _integer_row(row) -> dict[int, int]:
    """An integer multiple of a rational row, as a ``{column: value}`` map.

    ``row`` is a dense sequence or a sparse map of ``int``/``Fraction``
    entries.  A row with a non-integer entry is scaled by the lcm of its
    denominators; a sparse integer map is returned as it is.  This is the
    one place where rational rows become integer rows: ``IntEchelon``
    makes them primitive.
    """
    vals = row.values() if isinstance(row, dict) else row
    items = row.items() if isinstance(row, dict) else enumerate(row)
    if all(type(x) is int for x in vals):
        return row if isinstance(row, dict) else {c: x for c, x in items if x}
    den = lcm(*(x.denominator for x in vals if type(x) is not int))
    return {
        c: x * den if type(x) is int else x.numerator * (den // x.denominator)
        for c, x in items
        if x
    }


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """A nonzero sparse row divided by its content, leading entry positive."""
    g = 0
    for x in row.values():
        g = gcd(g, x)
        if g == 1:
            break
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


def scale_to_int(vec) -> tuple[int, ...] | None:
    """Primitive integer multiple of a dense rational vector (None if zero).

    A dense view of ``_integer_row``: the residual against the empty span.
    The library passes rational rows to ``IntEchelon`` directly; tests use
    this to scale ``rref`` rows.
    """
    return IntEchelon(len(vec)).residual(vec)


class IntEchelon:
    """Reduced echelon span of primitive integer rows with incremental insert.

    Rows are kept fully reduced (every pivot column is zero in all other
    rows), primitive, with positive leading entry; the sorted row list is a
    canonical form of the rational row space, so two spans are equal iff
    their row lists are equal.

    Rows are stored sparsely as ``{column: value}`` maps keyed by pivot
    column.  Because they are fully reduced, a candidate row reduces in one
    integer combination ``L*row - sum((x_i*L/lead_i) * prow_i)``, where the
    ``x_i`` are its entries at the pivot columns it hits and ``L`` is the lcm
    of those pivots' leading entries: no pivot row touches another pivot
    column, so the ``x_i`` do not change while the row is reduced.  ``rows``
    gives the same rows as dense tuples sorted by pivot column.

    ``insert``, ``residual`` and ``contains`` take a dense sequence of
    ``int``/``Fraction`` entries, scaled to integers by ``_integer_row``, or
    a sparse ``{column: int}`` map, used as it is (the module-build path).
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: list[int] = []  # ascending
        self._rows: dict[int, dict[int, int]] = {}  # pivot column -> row
        # non-pivot column -> pivot columns of the rows nonzero there
        self._where: dict[int, set[int]] = {}
        self._dense: list[tuple[int, ...]] | None = None

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """The reduced rows as dense tuples, sorted by pivot column."""
        if self._dense is None:
            self._dense = [self._to_dense(self._rows[pc]) for pc in self.pivots]
        return self._dense

    def sparse_rows(self) -> list[dict[int, int]]:
        """The reduced rows as ``{column: value}`` maps, sorted by pivot column.

        The maps are the span's own storage: read them, do not mutate them.
        """
        return [self._rows[pc] for pc in self.pivots]

    def _to_dense(self, row: dict[int, int]) -> tuple[int, ...]:
        dense = [0] * self.ncols
        for c, x in row.items():
            dense[c] = x
        return tuple(dense)

    def _reduce(self, row) -> dict[int, int]:
        """Sparse residual of ``row`` against the span ({} if inside)."""
        if not isinstance(row, dict):
            row = _integer_row(row)
        rows = self._rows
        hits = [(c, x) for c, x in row.items() if c in rows]
        if not hits:
            return {c: x for c, x in row.items() if x}
        mult = lcm(*(rows[c][c] for c, _ in hits))
        # entries at the hit pivot columns cancel exactly, so they are skipped
        acc = {c: mult * x for c, x in row.items() if c not in rows}
        for pc, x in hits:
            prow = rows[pc]
            f = x * mult // prow[pc]
            for c, y in prow.items():
                if c != pc:
                    acc[c] = acc.get(c, 0) - f * y
        return {c: x for c, x in acc.items() if x}

    def residual(self, row) -> tuple[int, ...] | None:
        """Primitive residual of ``row`` against the span (None if inside)."""
        res = self._reduce(row)
        return self._to_dense(_primitive(res)) if res else None

    def contains(self, row) -> bool:
        return not self._reduce(row)

    def insert(self, row) -> bool:
        """Add a row to the span; True if the dimension grew."""
        res = self._reduce(row)
        if not res:
            return False
        res = _primitive(res)
        pc = min(res)
        lead = res[pc]
        rows, where = self._rows, self._where
        # eliminate the new pivot column from the rows that are nonzero there
        for qc in where.pop(pc, ()):
            prow = rows[qc]
            x = prow[pc]
            new = {c: lead * y for c, y in prow.items() if c != pc}
            for c, y in res.items():
                if c != pc:
                    new[c] = new.get(c, 0) - x * y
            new = rows[qc] = _primitive({c: y for c, y in new.items() if y})
            for c in prow.keys() - new.keys() - {pc}:
                where[c].discard(qc)
            for c in new.keys() - prow.keys():
                where.setdefault(c, set()).add(qc)
        for c in res:
            if c != pc:
                where.setdefault(c, set()).add(pc)
        rows[pc] = res
        insort(self.pivots, pc)
        self._dense = None
        return True

    def canonical(self) -> tuple:
        return tuple(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntEchelon) and self.rows == other.rows

    def __hash__(self):
        return hash((self.ncols, tuple(self.rows)))
