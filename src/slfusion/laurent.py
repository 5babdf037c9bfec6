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

Determinants are fraction-free: rows (or, in ``laurent_det``, columns) are
cleared of denominators once and the integer determinant comes from
Bareiss's elimination.  Integral coefficients are kept as ``int``, so the
twist-section rows of the transition matrices are integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from slfusion.linalg import IntEchelon, IntegrityError, exact_scalar, format_scalar, kernel_basis


class Laurent:
    """Laurent polynomial in one variable over Q.

    Integral coefficients are kept as ``int``, the others as ``Fraction``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if type(c) is not int:
                    c = exact_scalar(c)
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

    def __getitem__(self, e: int) -> Fraction | int:
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
                body = format_scalar(c)
            else:
                mag = format_scalar(abs(c))
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
    """Exact determinant via column normalization plus interpolation.

    Each column is shifted to polynomials and scaled to integer coefficients
    once; the integer determinant is then found at ``t = 1..deg+1`` (integer
    Horner evaluation, Bareiss elimination) and Lagrange interpolation over
    Q, divided by the column scales, gives the polynomial.  The recorded
    shift is restored.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    shift = 0
    scale = 1
    cols: list[list[list[int]]] = []  # dense integer coefficients, low to high
    degree_bound = 0
    for c in range(size):
        col = [matrix[r][c] for r in range(size)]
        if all(x.is_zero() for x in col):
            return Laurent()
        o = min(x.ord for x in col if not x.is_zero())
        deg = max(x.deg for x in col if not x.is_zero()) - o
        den = lcm(*(v.denominator for x in col for v in x.coeffs.values()))
        shift += o
        scale *= den
        degree_bound += deg
        dense = []
        for x in col:
            coeffs = [0] * (deg + 1)
            for e, v in x.coeffs.items():
                coeffs[e - o] = v.numerator * (den // v.denominator)
            dense.append(coeffs)
        cols.append(dense)
    points = range(1, degree_bound + 2)
    values = []
    for t in points:
        rows = [[_horner(cols[c][r], t) for c in range(size)] for r in range(size)]
        values.append(Fraction(_det_rational(rows), scale))
    poly = _lagrange([Fraction(t) for t in points], values)
    return Laurent({e + shift: c for e, c in poly.items()})


def _horner(coeffs: list[int], t: int) -> int:
    acc = 0
    for v in reversed(coeffs):
        acc = acc * t + v
    return acc


def _det_rational(rows) -> Fraction | int:
    """Determinant of a square matrix of ``int``/``Fraction`` entries.

    Every row with a non-integer entry is scaled to integers by the lcm of
    its denominators, the integer determinant comes from Bareiss's (1968)
    fraction-free elimination, and the product of the row scales is divided
    out at the end.  An all-integer matrix gives an ``int``.
    """
    work = []
    scale = 1
    for row in rows:
        if all(type(x) is int for x in row):
            work.append(list(row))
            continue
        den = lcm(*(x.denominator for x in row if type(x) is not int))
        scale *= den
        work.append([x * den if type(x) is int else x.numerator * (den // x.denominator) for x in row])
    det = _bareiss(work)
    return det if scale == 1 else Fraction(det, scale)


def _bareiss(m: list[list[int]]) -> int:
    """Integer determinant by fraction-free elimination; ``m`` is consumed.

    After step ``k`` every entry below and right of the pivot is a
    ``(k+1)``-minor of the input, so the division by the previous pivot is
    exact and the entries never grow beyond the minors.
    """
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p = m[k][k]
        tail = m[k][k + 1 :]
        for row in m[k + 1 :]:
            a = row[k]
            if a:
                row[k + 1 :] = [(x * p - a * y) // prev for x, y in zip(row[k + 1 :], tail)]
            elif p != prev:
                row[k + 1 :] = [x * p // prev for x in row[k + 1 :]]
        prev = p
    return sign * m[-1][-1] if n else 1


def _lagrange(points: list[Fraction], values: list[Fraction]) -> dict:
    """Interpolating polynomial as {exponent: coefficient} (Newton form)."""
    k = len(points)
    coeffs = list(values)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (points[i] - points[i - j])
    # Horner over the Newton basis: p = c_{k-1}; p = p*(t - x_i) + c_i
    poly = {0: coeffs[-1]}
    for i in range(k - 2, -1, -1):
        nxt: dict = {}
        for e, v in poly.items():
            nxt[e + 1] = nxt.get(e + 1, Fraction(0)) + v
            nxt[e] = nxt.get(e, Fraction(0)) - points[i] * v
        nxt[0] = nxt.get(0, Fraction(0)) + coeffs[i]
        poly = nxt
    return {e: v for e, v in poly.items() if v}




def _twist_rows(matrix, k: int, bound: int):
    """Linear conditions for ``y^k M g`` to be polynomial, ``g`` in ``Q[1/y]^r``.

    Unknown ``c * (bound + 1) + j`` is the coefficient of ``y^-j`` in ``g_c``
    (``j <= bound``); there is one sparse row per output row and negative
    power of ``y``.
    """
    width = bound + 1
    rows: dict = {}
    for r, mrow in enumerate(matrix):
        for c, x in enumerate(mrow):
            for d, coef in x.coeffs.items():
                # the power d - j + k is negative exactly when j > d + k
                for j in range(max(0, d + k + 1), width):
                    row = rows.setdefault((r, d - j + k), {})
                    col = c * width + j
                    row[col] = row.get(col, 0) + coef
    return rows.values()


def splitting_type(matrix: list[list[Laurent]]) -> list[int]:
    """Splitting exponents of a Laurent matrix, sorted descending.

    Raises ``ValueError`` unless the determinant is a nonzero constant times
    a power of ``y``.  The exponents are returned only after the
    factorization ``M·X = P·diag(y^e)`` built from the twist-section ladder
    passes ``_check_factorization``; if the ladder does not close within the
    degree bound, or a check fails, ``IntegrityError`` is raised.
    """
    size = len(matrix)
    det = laurent_det(matrix)
    if det.is_zero() or not det.is_monomial():
        raise ValueError(f"determinant {det} is not a unit times a power")
    reach = max((abs(e) for row in matrix for x in row for e in x.coeffs), default=0) + 2
    bound = 2 * reach + 4
    width = bound + 1
    cols: list[list[Laurent]] = []  # columns of X
    exps: list[int] = []
    consts = IntEchelon(size)  # constant terms of the kept columns
    for k in range(-reach, reach + 1):
        if len(cols) == size:
            break
        for vec in kernel_basis(_twist_rows(matrix, k, bound), size * width):
            if consts.insert(vec[::width]):
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
    """Exact Birkhoff certificate for ``M·X = P·diag(y^e)``.

    ``X`` (given by its columns) must be polynomial in ``1/y``,
    ``P = M·X·diag(y^-e)`` polynomial in ``y``, both determinants nonzero
    constants, and ``sum(e)`` the order of ``det M``.
    """
    size = len(matrix)
    x = [[col[r] for col in cols] for r in range(size)]
    p = [
        [
            sum((matrix[r][c] * col[c] for c in range(size)), Laurent()).shift(-e)
            for col, e in zip(cols, exps)
        ]
        for r in range(size)
    ]
    if any(e > 0 for row in x for entry in row for e in entry.coeffs):
        raise IntegrityError("X is not polynomial in 1/y")
    if any(e < 0 for row in p for entry in row for e in entry.coeffs):
        raise IntegrityError("P = M X diag(y^-e) is not polynomial in y")
    for name, factor in (("X", x), ("P", p)):
        d = laurent_det(factor)
        if not (d.is_monomial() and d.ord == 0):
            raise IntegrityError(f"det {name} = {d} is not a nonzero constant")
    if sum(exps) != det.ord:
        raise IntegrityError(f"exponents {exps} do not sum to ord det M = {det.ord}")
