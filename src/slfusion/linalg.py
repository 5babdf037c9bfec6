"""Exact integer linear algebra and sparse monomial bookkeeping.

Values are arbitrary-precision integers.  Rationals (``fractions.Fraction``)
appear only at the command-line boundary, in the scalars ``parse_scalar``
reads.  Monomials in the variables e_0 .. e_{n-1} are exponent tuples
carrying a bidegree: the degree k is the total exponent sum and the weight s
is the subscript-weighted sum ``sum(i * exps[i])``.  The global monomial
order is graded lexicographic with e_0 most significant; within a fixed
bidegree this is descending lexicographic order on exponent vectors.

Row reduction is deterministic (first nonzero pivot in column order) and
exact.  Every elimination runs in ``IntEchelon``, fraction-free, and its one
row format is the sparse integer map ``{column: int}``.  A span stores only
its reduced rows, keyed by pivot column: each candidate row is reduced
against them in a single integer combination, a new pivot is cleared from
the stored rows by a scan, and only nonzero entries are ever touched.
``kernel_basis`` takes the same rows and reads the null space off the
reduced rows as primitive integer vectors.  Callers build integer rows where
the values arise; a module element holds integer numerators over one
denominator, so its slices go in unchanged.  The dense ``Fraction`` ``rref``
is not called by the library: it stays only as the independent reference
the tests check ``IntEchelon`` and ``kernel_basis`` against.
"""

from __future__ import annotations

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
    """Parse ``a`` or ``a/b`` into a rational in lowest terms; ``ValueError``
    for malformed text or a zero denominator."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# ---------------------------------------------------------------------------
# monomials


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

    ``rows`` is any iterable of ``{column: int}`` maps, each inserted into an
    ``IntEchelon``.  Rows are read one at a time and reading stops as soon as
    the span is full, so a lazy iterable is never read further than needed.
    For each free column ``fc`` the vector is the one read off ``rref`` (1 at
    ``fc``, ``-row[fc] / row[pc]`` at the pivot column ``pc`` of each reduced
    row) scaled to a primitive integer tuple, positive at ``fc``.  With no
    rows it is the identity basis.
    """
    ech = IntEchelon(ncols)
    if ncols:
        for row in rows:
            ech.insert(row)
            if ech.dim == ncols:
                break
    rows = ech._rows
    # free column -> (pivot column, entry, leading entry) of the rows hitting it
    hits: dict[int, list] = {fc: [] for fc in range(ncols) if fc not in rows}
    for pc, row in rows.items():
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


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """A nonzero sparse row divided by its content, leading entry positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


class IntEchelon:
    """Reduced echelon span of primitive integer rows with incremental insert.

    The span stores only its rows, as sparse ``{column: int}`` maps keyed by
    pivot column (zero entries are tolerated on input).  They are kept fully
    reduced (every pivot column is zero in all other rows), primitive, with
    positive leading entry: a canonical form of the rational row space, so
    two spans are equal iff their rows are equal.  Because the rows are
    fully reduced, a candidate row reduces in one integer combination
    ``L*row - sum((x_i*L/lead_i) * prow_i)``, where the ``x_i`` are its
    entries at the pivot columns it hits and ``L`` is the lcm of those
    pivots' leading entries: no pivot row touches another pivot column, so
    the ``x_i`` do not change while the row is reduced.  A new pivot column
    is cleared from the rows by a scan: in the module build, the kernels and
    the dual oracle a growing insert meets a few dozen rows, which costs
    less than a column index kept up to date.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, dict[int, int]] = {}  # pivot column -> row

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:  # ascending
        return sorted(self._rows)

    def sparse_rows(self) -> list[dict[int, int]]:
        """The reduced rows as ``{column: value}`` maps, sorted by pivot column.

        The maps are the span's own storage: read them, do not mutate them.
        """
        return [self._rows[pc] for pc in self.pivots]

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Sparse residual of ``row`` against the span ({} if inside)."""
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

    def contains(self, row: dict[int, int]) -> bool:
        return not self._reduce(row)

    def insert(self, row: dict[int, int]) -> bool:
        """Add a row to the span; True if the dimension grew."""
        res = self._reduce(row)
        if not res:
            return False
        res = _primitive(res)
        pc = min(res)
        lead = res[pc]
        rows = self._rows
        # eliminate the new pivot column from the rows that are nonzero there
        for qc, prow in [(qc, prow) for qc, prow in rows.items() if pc in prow]:
            x = prow[pc]
            new = {c: lead * y for c, y in prow.items() if c != pc}
            for c, y in res.items():
                if c != pc:
                    new[c] = new.get(c, 0) - x * y
            rows[qc] = _primitive({c: y for c, y in new.items() if y})
        rows[pc] = res
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntEchelon)
            and self.ncols == other.ncols
            and self._rows == other._rows
        )
