"""Laurent polynomials in one variable and certified Birkhoff splitting.

A square matrix ``M`` of Laurent polynomials whose determinant is a nonzero
constant times a power of the variable ``y`` factors as
``M·X = P·diag(y^e)`` with ``X`` invertible over ``Q[1/y]`` and ``P``
invertible over ``Q[y]`` (Birkhoff).  The multiset ``e`` is the splitting
type of the associated bundle over the projective line; by Grothendieck it
is read off the section counts ``h0(E(k))`` of the twists.

``splitting_type`` builds the factorization from the twist-section ladder:
at twist ``k`` it takes the kernel of the linear system "``y^k M g`` is
polynomial" for ``g`` over ``Q[1/y]``, and keeps a kernel vector as a column
of ``X`` with exponent ``-k`` when its constant terms are independent of the
columns already kept.  A column may be scaled by any nonzero constant, so
the primitive integer kernel vectors serve as they are and ``X`` is
integral.  The factorization is then checked exactly; a wrong
answer raises ``IntegrityError`` instead of being returned.

The one Laurent determinant, that of ``M``, comes from Bareiss's
fraction-free elimination on the Laurent entries: every division it makes
is exact in ``Z[y, 1/y]`` (Bareiss 1968), and ``Laurent.__floordiv__``
checks that it is.  Coefficients are ``int`` only, so the twist rows and
``X`` at ``1/y = 0``, whose rank certifies ``det X``, are integer rows.
"""

from __future__ import annotations

from slfusion.linalg import IntEchelon, IntegrityError, kernel_basis


class Laurent:
    """Laurent polynomial in one variable over Z.

    Coefficients are ``int``; any other type (``Fraction``, ``float``,
    ``bool``) is a ``ValueError``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if type(c) is not int:
                    raise ValueError(f"Laurent coefficient {c!r} is not an int")
                if c:
                    self.coeffs[int(e)] = c

    @staticmethod
    def const(c) -> "Laurent":
        return Laurent({0: c})

    @staticmethod
    def term(c, e: int) -> "Laurent":
        return Laurent({e: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    @property
    def ord(self) -> int:
        return min(self.coeffs)

    @property
    def deg(self) -> int:
        return max(self.coeffs)

    def __getitem__(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __neg__(self) -> "Laurent":
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent(out)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __floordiv__(self, other: "Laurent") -> "Laurent":
        """Exact quotient; ``IntegrityError`` unless ``other`` divides ``self``.

        Long division from the top term.  A nonzero remainder narrower than
        ``other`` (top minus bottom exponent) cannot be a multiple of it, and
        neither can one whose top coefficient is not a multiple of
        ``other``'s leading one.
        """
        if not other.coeffs:
            raise ZeroDivisionError("Laurent division by zero")
        top = other.deg
        lead = other.coeffs[top]
        width = top - other.ord
        rem = dict(self.coeffs)
        quot = {}
        while rem:
            e = max(rem)
            if e - min(rem) < width:
                raise IntegrityError(f"{other} does not divide {self}")
            c, r = divmod(rem[e], lead)
            if r:
                raise IntegrityError(f"{other} does not divide {self}")
            shift = e - top
            quot[shift] = c
            for ge, gc in other.coeffs.items():
                k = ge + shift
                v = rem.get(k, 0) - c * gc
                if v:
                    rem[k] = v
                else:
                    del rem[k]
        return Laurent(quot)

    def shift(self, k: int) -> "Laurent":
        return Laurent({e + k: c for e, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                body = str(c)
            else:
                mag = str(abs(c))
                var = "y" if e == 1 else f"y^{e}"
                body = var if mag == "1" else f"{mag}*{var}"
                if c < 0:
                    body = "-" + body
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


def laurent_det(matrix: list[list[Laurent]]) -> Laurent:
    """Exact determinant by Bareiss's elimination over ``Z[y, 1/y]``."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    return _bareiss([list(row) for row in matrix], one=Laurent.const(1))


def _bareiss(m: list[list], one=1):
    """Determinant by fraction-free elimination; ``m`` is consumed.

    After step ``k`` every entry below and right of the pivot is a
    ``(k+1)``-minor of the input, so the division by the previous pivot is
    exact over any integral domain (Bareiss 1968) and the entries never grow
    beyond the minors.  ``one`` is the ring's unit: ``1`` for integer
    matrices, ``Laurent.const(1)`` for Laurent ones, whose ``//`` is exact
    division.
    """
    n = len(m)
    swaps, prev = 0, one
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return m[k][k]
            m[k], m[piv] = m[piv], m[k]
            swaps += 1
        p = m[k][k]
        tail = m[k][k + 1 :]
        for row in m[k + 1 :]:
            a = row[k]
            if a:
                row[k + 1 :] = [(x * p - a * y) // prev for x, y in zip(row[k + 1 :], tail)]
            elif p != prev:
                row[k + 1 :] = [x * p // prev for x in row[k + 1 :]]
        prev = p
    if not n:
        return one
    return -m[-1][-1] if swaps % 2 else m[-1][-1]


def _twist_rows(matrix, bound: int) -> dict:
    """Linear conditions for ``y^k M g`` to be polynomial, ``g`` in ``Q[1/y]^r``.

    Unknown ``c * (bound + 1) + j`` is the coefficient of ``y^-j`` in ``g_c``
    (``j <= bound``).  Row ``(b, r)`` holds the coefficient of ``y^(b+k)`` in
    output row ``r`` at every twist ``k``, so twist ``k`` imposes exactly the
    rows with ``b < -k``: the rows are built once for the whole ladder.
    """
    width = bound + 1
    rows: dict = {}
    for r, mrow in enumerate(matrix):
        for c, x in enumerate(mrow):
            for d, coef in x.coeffs.items():
                for j in range(width):
                    rows.setdefault((d - j, r), {})[c * width + j] = coef
    return rows


def splitting_type(matrix: list[list[Laurent]]) -> list[int]:
    """Splitting exponents of a Laurent matrix, sorted descending.

    Raises ``ValueError`` unless the determinant, the one Laurent determinant
    taken, is a nonzero constant times a power of ``y``.  Each rung of the
    ladder takes the twist rows it imposes.  The exponents are returned only
    after ``M·X = P·diag(y^e)`` passes ``_check_factorization``; if the ladder
    does not close within the degree bound, or a check fails,
    ``IntegrityError`` is raised.
    """
    size = len(matrix)
    det = laurent_det(matrix)
    if det.is_zero() or not det.is_monomial():
        raise ValueError(f"determinant {det} is not a unit times a power")
    reach = max((abs(e) for row in matrix for x in row for e in x.coeffs), default=0) + 2
    bound = 2 * reach + 4
    width = bound + 1
    rows = _twist_rows(matrix, bound)
    cols, exps = [], []  # the columns of X and their exponents
    consts = IntEchelon(size)  # constant terms of the kept columns
    for k in range(-reach, reach + 1):
        if len(cols) == size:
            break
        for vec in kernel_basis((row for (b, _), row in rows.items() if b < -k), size * width):
            if consts.insert({c: x for c, x in enumerate(vec[::width]) if x}):
                cols.append([
                    Laurent({-j: vec[c * width + j] for j in range(width)})
                    for c in range(size)
                ])
                exps.append(-k)
    if len(cols) != size:
        raise IntegrityError(
            f"twist ladder closed {len(cols)} of {size} columns within reach {reach}"
        )
    _check_factorization(matrix, cols, exps, det)
    return sorted(exps, reverse=True)


def _check_factorization(matrix, cols, exps, det: Laurent) -> None:
    """Exact Birkhoff certificate for ``M·X = P·diag(y^e)``, ``det = det M``.

    ``X`` (given by its columns) must be polynomial in ``1/y``,
    ``P = M·X·diag(y^-e)`` polynomial in ``y``, ``X_0`` (``X`` at ``1/y = 0``)
    of full rank, and ``sum(e)`` the order ``m`` of ``det M = c·y^m``.  Then
    ``det P = det M · det X · y^-sum(e) = c·det X`` lies in ``Z[y] ∩ Z[1/y] = Z``,
    so ``det X`` is a constant, equal to the nonzero ``det X_0`` (set
    ``1/y = 0``), and ``det P`` is a nonzero constant too: neither is taken.
    """
    size = len(matrix)
    x = [[col[r] for col in cols] for r in range(size)]
    # the nonzero entries of each row of M: most of a transition matrix is zero
    terms = [[(c, m) for c, m in enumerate(mrow) if m] for mrow in matrix]
    p = [
        [
            sum((m * col[c] for c, m in row), Laurent()).shift(-e)
            for col, e in zip(cols, exps)
        ]
        for row in terms
    ]
    if any(e > 0 for row in x for entry in row for e in entry.coeffs):
        raise IntegrityError("X is not polynomial in 1/y")
    if any(e < 0 for row in p for entry in row for e in entry.coeffs):
        raise IntegrityError("P = M X diag(y^-e) is not polynomial in y")
    if kernel_basis([{c: entry[0] for c, entry in enumerate(row)} for row in x], size):
        raise IntegrityError("X at 1/y = 0 is singular, so det X is not a nonzero constant")
    if sum(exps) != det.ord:
        raise IntegrityError(
            f"det P is not a constant: exponents {exps} do not sum to ord det M = {det.ord}"
        )
