"""Symbolic geometry of the big cell: vector fields, charts, and bundles.

The big cell carries coordinates x_0..x_{n-1}; the opposite cell carries
y_0..y_{n-1}, and the two are glued by truncated power series inversion
x(t) y(t) = 1 mod t^n.  The distinguished vector fields on the cell are

    e_i = d/dx_i,
    h_i = -2 sum_j x_j d/dx_{i+j},
    f_i = - sum_j (sum_{a+b=j} x_a x_b) d/dx_{i+j},
    L_i = sum_{j>=1} j x_j d/dx_{i+j},

and the fields tangent to the fibers of the projection to the first
coordinate line are framed by the primed fields: the (n-1)-cell's standard
frame written on x_1..x_{n-1}.  Chart-change identities are verified
exactly: identities within one chart are polynomial and are compared
symbolically; identities across charts are checked at random rational
sample points, where the pushforward of a field through the inversion map
is computed as multiplication of its series by -y(t)^2.

The sampled checks run on integers.  A rational point ``x = P / D`` is
cleared of denominators once, the inverse series comes from the
division-free recurrence of ``inverse_numerators``, and field values are
integer numerators over one known denominator, compared by
cross-multiplying.  The Jacobian runs the same recurrence on integer
value-derivative pairs and takes an integer Bareiss determinant, so it
stays independent of the -y(t)^2 pushforward.

The section-dimension recursion for nonnegative sorted bundle labels runs on
two rewrite rules: decrement the last entry while adding the product of the
leading entries plus one, and swap adjacent entries that differ by exactly
one.  The result is compared with the closed product formula, and the full
derivation chain is returned.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm, prod
from random import Random

from slfusion.laurent import Laurent, _bareiss
from slfusion.linalg import IntEchelon, IntegrityError


# ---------------------------------------------------------------------------
# truncated series


def invert_series(coeffs) -> list[Fraction]:
    """Coefficients of the inverse of ``sum c_k t^k`` in Q[t]/t^n, n = len(coeffs)."""
    den, p = integer_point([Fraction(c) for c in coeffs])
    if not p or not p[0]:
        raise ValueError("constant term vanishes: the point misses the chart overlap")
    return [Fraction(den * rk, p[0] ** (k + 1)) for k, rk in enumerate(inverse_numerators(p))]


def _series_product(a, b) -> list:
    """Coefficients of a(t) b(t) mod t^n for two length-n coefficient lists."""
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]


def integer_point(point) -> tuple[int, list[int]]:
    """``(D, D·x)``: the lcm ``D`` of the denominators and the integer point."""
    den = lcm(*(x.denominator for x in point))
    return den, [x.numerator * (den // x.denominator) for x in point]


def inverse_numerators(p, one=1, mul=operator.mul, add=operator.add, neg=operator.neg):
    """Numerators ``r_k`` of the inverse of the series ``sum p_k t^k``.

    The inverse has coefficients ``r_k / p_0^(k+1)``, and the recurrence is
    division-free: ``r_0 = 1``, ``r_k = -sum_{j=1..k} p_j r_{k-j} p_0^(j-1)``.
    It runs on integers, or on any ring given by ``one``, ``mul``, ``add``
    and ``neg`` (the Jacobian runs it on value-derivative pairs).  With
    ``x = p / D`` the inverse of ``x`` has coefficients ``D r_k / p_0^(k+1)``.
    """
    r, powers = [one], [one]  # powers[j] = p_0^j
    for k in range(1, len(p)):
        acc = mul(p[1], r[k - 1])
        for j in range(2, k + 1):
            acc = add(acc, mul(mul(p[j], r[k - j]), powers[j - 1]))
        r.append(neg(acc))
        powers.append(mul(powers[-1], p[0]))
    return r


# value-derivative pairs (a, b) for a + b*eps with eps^2 = 0
_JETS = (
    (1, 0),
    lambda u, v: (u[0] * v[0], u[0] * v[1] + u[1] * v[0]),
    lambda u, v: (u[0] + v[0], u[1] + v[1]),
    lambda u: (-u[0], -u[1]),
)


# ---------------------------------------------------------------------------
# polynomial vector fields


class PolyVectorField:
    """First-order derivation sum_i c_i(x) d/dx_i with integer coefficients.

    Coefficient polynomials are sparse exponent-tuple dicts with
    nonnegative exponents and ``int`` coefficients; any other coefficient
    type (``Fraction``, ``float``, ``bool``) is a ``ValueError``.
    """

    __slots__ = ("n", "comps")

    def __init__(self, n: int, comps: dict | None = None):
        self.n = n
        self.comps: dict[int, dict] = {}
        if comps:
            for i, poly in comps.items():
                for m, c in poly.items():
                    if type(c) is not int or len(m) != n or min(m, default=0) < 0:
                        raise ValueError(f"PolyVectorField term {c!r}*x^{m}: not an int times a monomial")
                clean = {m: c for m, c in poly.items() if c}
                if clean:
                    self.comps[i] = clean

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        comps = {i: dict(p) for i, p in self.comps.items()}
        for i, poly in other.comps.items():
            acc = comps.setdefault(i, {})
            for m, c in poly.items():
                v = acc.get(m, 0) + c
                if v:
                    acc[m] = v
                else:
                    acc.pop(m, None)
        return PolyVectorField(self.n, comps)

    def __neg__(self) -> "PolyVectorField":
        return self.scale(-1)

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return self + (-other)

    def scale(self, c: int) -> "PolyVectorField":
        return PolyVectorField(
            self.n, {i: {m: c * v for m, v in p.items()} for i, p in self.comps.items()}
        )

    def mul_monomial(self, mono: tuple, coeff: int = 1) -> "PolyVectorField":
        out = {}
        for i, poly in self.comps.items():
            out[i] = {
                tuple(a + b for a, b in zip(m, mono)): coeff * c for m, c in poly.items()
            }
        return PolyVectorField(self.n, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyVectorField)
            and self.n == other.n
            and self.comps == other.comps
        )

    def coordinates(self):
        """Sorted (component, monomial) -> coefficient pairs."""
        return sorted(
            ((i, m), c) for i, poly in self.comps.items() for m, c in poly.items()
        )

    def __repr__(self):
        terms = []
        for i in sorted(self.comps):
            terms.append(f"({_poly_repr(self.comps[i])}) d{i}")
        return " + ".join(terms) if terms else "0"


def _poly_repr(poly: dict) -> str:
    parts = []
    for m in sorted(poly):
        c = poly[m]
        mono = "*".join(f"x{i}^{e}" if e != 1 else f"x{i}" for i, e in enumerate(m) if e)
        parts.append(f"{c}" + (f"*{mono}" if mono else ""))
    return " + ".join(parts) if parts else "0"


def _gradient(poly: dict) -> dict[int, dict]:
    """The nonzero partial derivatives of a polynomial, keyed by variable.

    For a fixed variable distinct monomials have distinct derivatives, so
    no coefficient cancels.
    """
    out: dict[int, dict] = {}
    for m, c in poly.items():
        for j, e in enumerate(m):
            if e:
                out.setdefault(j, {})[m[:j] + (e - 1,) + m[j + 1 :]] = c * e
    return out


def bracket(v: PolyVectorField, w: PolyVectorField) -> PolyVectorField:
    """Lie bracket [v, w] = v o w - w o v as a first-order operator."""
    if v.n != w.n:
        raise ValueError("fields in different variable counts")
    n = v.n
    comps: dict[int, dict] = {}

    def accumulate(coeff_poly: dict, dpoly: dict, i: int, sign: int) -> None:
        acc = comps.setdefault(i, {})
        for m1, c1 in coeff_poly.items():
            for m2, c2 in dpoly.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                val = acc.get(m, 0) + sign * c1 * c2
                if val:
                    acc[m] = val
                else:
                    acc.pop(m, None)

    for first, second, sign in ((v, w, 1), (w, v, -1)):
        for i, poly in second.comps.items():
            grad = _gradient(poly)
            for j, coeff_poly in first.comps.items():
                if j in grad:
                    accumulate(coeff_poly, grad[j], i, sign)
    return PolyVectorField(n, comps)


def _mono(n: int, pairs: dict | None = None) -> tuple:
    m = [0] * n
    if pairs:
        for i, e in pairs.items():
            m[i] = e
    return tuple(m)


FIELD_KINDS = ("e", "h", "f", "L")


def standard_field(n: int, kind: str, i: int) -> PolyVectorField:
    """The distinguished field ``(kind, i)`` on the n-variable cell.

    e_i, h_i and f_i exist for 0 <= i < n and L_i for 0 <= i < n-1; any
    other index gives the zero field, so frame identities can be written
    uniformly.  An unknown kind is a ``ValueError``.
    """
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    if not 0 <= i < n - (kind == "L"):
        return PolyVectorField(n)
    if kind == "e":
        return PolyVectorField(n, {i: {_mono(n): 1}})
    if kind == "h":
        return PolyVectorField(n, {i + j: {_mono(n, {j: 1}): -2} for j in range(n - i)})
    if kind == "L":
        return PolyVectorField(n, {i + j: {_mono(n, {j: 1}): j} for j in range(1, n - i)})
    comps: dict = {}
    for j in range(n - i):
        acc = comps[i + j] = {}
        for a in range(j + 1):  # the term x_a x_{j-a}
            m = tuple((t == a) + (t == j - a) for t in range(n))
            acc[m] = acc.get(m, 0) - 1
    return PolyVectorField(n, comps)


def standard_fields(n: int) -> dict:
    """The 4n-1 distinguished fields on the big cell, keyed (kind, index)."""
    if n < 1:
        raise ValueError("need at least one variable")
    return {
        (kind, i): standard_field(n, kind, i)
        for kind in FIELD_KINDS
        for i in range(n - (kind == "L"))
    }


def primed_field(n: int, kind: str, i: int) -> PolyVectorField:
    """The frame field ``(kind, i)`` tangent to the fibers over the first line.

    It is the (n-1)-cell's standard field ``(kind, i-1)`` written on
    x_1..x_{n-1}: every variable and every component moves one slot up.
    Out-of-range indices (and n = 1) give the zero field.
    """
    field = standard_field(n - 1, kind, i - 1)
    return PolyVectorField(
        n,
        {
            c + 1: {(0,) + m: v for m, v in poly.items()}
            for c, poly in field.comps.items()
        },
    )


def primed_labels(n: int) -> list[tuple[str, int]]:
    """Frame order used for the transition matrix rows and columns."""
    labels = [("e", i) for i in range(1, n)]
    labels += [("h", i) for i in range(1, n)]
    labels += [("L", i) for i in range(1, n - 1)]
    labels += [("f", i) for i in range(1, n)]
    return labels


# ---------------------------------------------------------------------------
# the field algebra


def verify_vect_algebra(n: int) -> dict:
    """Independence, bracket closure, and the expected structure constants.

    The 4n-1 fields must be linearly independent over Q, every pairwise
    bracket must expand in the basis with integer coefficients, and the
    brackets must realize the truncated current-algebra relations together
    with the grading-operator relations [L_i, x_j] = -j x_{i+j}.  Only the
    ordered brackets the relation checks read are computed, once each, and
    they serve the closure check too: between them they cover every
    unordered pair of fields, and [b, a] = -[a, b] lies in the span exactly
    when [a, b] does.  A bracket that meets its relation is a basis field
    times an integer, so only those of failed relations meet the span,
    entering it as sparse integer rows.
    """
    fields = standard_fields(n)
    keys = sorted(fields)
    coords = sorted({cm for f in fields.values() for cm, _ in f.coordinates()})
    index = {cm: i for i, cm in enumerate(coords)}

    def row(f: PolyVectorField):
        """The field as a sparse integer row; None if it leaves the coordinates."""
        sparse = {}
        for i, poly in f.comps.items():
            for m, c in poly.items():
                col = index.get((i, m))
                if col is None:
                    return None
                sparse[col] = c
        return sparse

    ech = IntEchelon(len(coords))
    for k in keys:
        ech.insert(row(fields[k]))
    rank = ech.dim
    independent = rank == len(keys) == 4 * n - 1

    def expect(kind: str, i: int, c: int) -> PolyVectorField:
        return fields.get((kind, i), PolyVectorField(n)).scale(c)

    checks = []
    for i in range(n):
        for j in range(n):
            checks += [
                (("h", i), ("e", j), expect("e", i + j, 2)),
                (("h", i), ("f", j), expect("f", i + j, -2)),
                (("e", i), ("f", j), expect("h", i + j, 1)),
                (("e", i), ("e", j), PolyVectorField(n)),
                (("f", i), ("f", j), PolyVectorField(n)),
                (("h", i), ("h", j), PolyVectorField(n)),
            ]
    for i in range(n - 1):
        for j in range(n):
            for kind in ("e", "h", "f"):
                checks.append((("L", i), (kind, j), expect(kind, i + j, -j)))
        for j in range(n - 1):
            checks.append((("L", i), ("L", j), expect("L", i + j, i - j)))
    failures, escaped = [], []
    for a, b, want in checks:
        got = bracket(fields[a], fields[b])
        if got != want:
            failures.append((a, b, repr(got - want)))
            sparse = row(got)
            if sparse is None or (sparse and not ech.contains(sparse)):
                escaped.append((a, b, "bracket escapes the span"))
    relations_ok, closed = not failures, not escaped
    failures += escaped
    return {
        "ok": independent and relations_ok and closed,
        "rank": rank,
        "independent": independent,
        "relations_ok": relations_ok,
        "closed": closed,
        "failures": failures[:8],
    }


# ---------------------------------------------------------------------------
# chart changes


def rational_point(rng: Random, n: int) -> list[Fraction]:
    """A random rational point of the chart overlap: x_0 != 0."""
    pt = []
    for i in range(n):
        num = rng.randint(-9, 9)
        if i == 0:
            while num == 0:
                num = rng.randint(-9, 9)
        pt.append(Fraction(num, rng.randint(1, 4)))
    return pt


def chart_change_terms(kind: str, i: int) -> list[tuple]:
    """Expansion of an x-frame field over the y-frame: (kind, index, coefficient).

    Coefficients are Laurent monomials in y_0; out-of-range targets drop out.
    """
    if kind == "e":
        return [("e", i, Laurent.term(-1, 2)), ("h", i + 1, Laurent.term(1, 1)), ("f", i + 2, Laurent.const(1))]
    if kind == "h":
        return [("h", i, Laurent.const(1)), ("f", i + 1, Laurent.term(2, -1))]
    if kind == "L":
        return [("L", i, Laurent.const(1)), ("f", i + 1, Laurent.term(1, -1))]
    if kind == "f":
        return [("f", i, Laurent.term(-1, -2))]
    raise ValueError(f"unknown field kind {kind!r}")


def _integer_terms(field: PolyVectorField) -> list[tuple]:
    """``(component, coefficient, variables)`` per term, for integer evaluation.

    The sampler evaluates over a common denominator, which needs degree at
    most 2; a primed field of higher degree is an ``IntegrityError``.  A
    term of degree ``d`` lists its variables with multiplicity, e.g.
    ``x_1 x_3^2`` as ``(1, 3, 3)``.
    """
    out = []
    for i, poly in field.comps.items():
        for m, c in poly.items():
            if sum(m) > 2:
                raise IntegrityError(f"primed field term {c}*x^{m} in slot {i} is not of degree <= 2")
            out.append((i, c, tuple(v for v, e in enumerate(m) for _ in range(e))))
    return out


def _numerators(terms, n: int, z, w: int) -> list[int]:
    """Numerators over ``w^2`` of a field at the point ``z / w`` (``z`` integer)."""
    wpow = (w * w, w, 1)  # by term degree
    out = [0] * n
    for i, c, variables in terms:
        v = c * wpow[len(variables)]
        for j in variables:
            v *= z[j]
        out[i] += v
    return out


def _chart_change_failures(n: int, samples: int, seed: int, matrix, key: str):
    """Sampled failures of the chart change of the primed x-frame fields.

    At each of ``samples`` draws of ``rational_point`` every field is pushed
    through the series inversion and compared with its y-frame expansion,
    the column of ``matrix`` (``transition_matrix(n)``) at its label, whose
    Laurent entries are evaluated at y_0.  A failure is recorded as
    ``{key: (kind, i), "point": x}``.  A primed field that is
    identically zero is a failure ``{key: (kind, i), "point": None}`` of its
    own: the expansions do not depend on the index, so a frame whose top
    fields vanish (shifted up by one) would meet every sampled identity.

    All arithmetic is on integers.  With ``x = P / D`` (``D`` the lcm of the
    denominators) the inverse series is ``y = D Y / p_0^n``, where
    ``Y_k = r_k p_0^(n-1-k)`` comes from ``inverse_numerators``.  A field at
    ``x`` is an integer numerator over ``D^2``, a field at ``y`` one over
    ``p_0^(2n)``, and the pushforward ``-y^2 V`` is ``-(Y^2 V_num)`` over
    ``p_0^(2n)`` as well; ``Y^2`` is formed once per point.  The Laurent
    coefficients at ``y_0 = D / p_0`` are integer fractions, and the two
    sides are compared by cross-multiplying.
    """
    labels = primed_labels(n)
    fields = {lab: _integer_terms(primed_field(n, *lab)) for lab in labels}
    # per column: (row label, sorted Laurent coefficient items) of its nonzero entries
    targets = {
        lab: [
            (target, sorted(row[c].coeffs.items()))
            for target, row in zip(labels, matrix)
            if not row[c].is_zero()
        ]
        for c, lab in enumerate(labels)
    }
    rng = Random(seed)
    failures = [{key: lab, "point": None} for lab in labels if not fields[lab]]
    for _ in range(samples):
        xpt = rational_point(rng, n)
        den, p = integer_point(xpt)
        p0 = p[0]
        ynum = [rk * p0 ** (n - 1 - k) for k, rk in enumerate(inverse_numerators(p))]
        ysq = _series_product(ynum, ynum)
        ypt = [den * v for v in ynum]
        w = p0**n
        yvals = {lab: _numerators(terms, n, ypt, w) for lab, terms in fields.items()}
        for lab in labels:
            vnum = _numerators(fields[lab], n, p, den)
            pushed = [-v for v in _series_product(ysq, vnum)]
            # the expansion is rhs / rhs_den; each coefficient
            # sum_e c_e (D/p0)^e is taken as num / cden
            rhs, rhs_den = [0] * n, 1
            for target, items in targets[lab]:
                lo = min(items[0][0], 0)
                hi = max(items[-1][0], 0)
                num = sum(c * den ** (e - lo) * p0 ** (hi - e) for e, c in items)
                cden = den**-lo * p0**hi
                rhs = [u * cden + num * rhs_den * t for u, t in zip(rhs, yvals[target])]
                rhs_den *= cden
            if any(v * rhs_den != u for v, u in zip(pushed, rhs)):
                failures.append({key: lab, "point": [str(x) for x in xpt]})
    return failures


def verify_chart_identities(n: int, samples: int = 20, seed: int = 0) -> dict:
    """Exact verification of the frame identities within and across charts.

    Within one chart the identities are polynomial and compared as symbolic
    fields.  Across charts each x-frame field is pushed through the series
    inversion at random rational points with x_0 != 0 and compared with its
    y-frame expansion, its column of ``transition_matrix(n)``; any failing
    point is reported.
    """
    if n < 2:
        raise ValueError("chart identities need n >= 2")
    fields = standard_fields(n)
    symbolic_failures = []

    def pf(kind, i):
        return primed_field(n, kind, i)

    for i in range(1, n):
        if fields[("e", i)] != pf("e", i):
            symbolic_failures.append(("e", i))
        want = pf("h", i + 1) - pf("e", i).mul_monomial(_mono(n, {0: 1}), 2)
        if fields[("h", i)] != want:
            symbolic_failures.append(("h", i))
        want = (
            pf("f", i + 2)
            + pf("h", i + 1).mul_monomial(_mono(n, {0: 1}))
            - pf("e", i).mul_monomial(_mono(n, {0: 2}))
        )
        if fields[("f", i)] != want:
            symbolic_failures.append(("f", i))
    for i in range(n - 1):
        # 2 L_i = 2 L'_{i+1} - h'_{i+1}, doubled to stay integral
        want = pf("L", i + 1).scale(2) - pf("h", i + 1)
        if fields[("L", i)].scale(2) != want:
            symbolic_failures.append(("L", i))

    sample_failures = _chart_change_failures(n, samples, seed, transition_matrix(n), "field")
    return {
        "ok": not symbolic_failures and not sample_failures,
        "identities_checked": samples * len(primed_labels(n)),
        "symbolic_failures": symbolic_failures,
        "sample_failures": sample_failures[:5],
    }


def jacobian_identity(n: int, samples: int = 20, seed: int = 0) -> dict:
    """det of the inversion map differential against (-1)^n / x_0^{2n}.

    The Jacobian is computed by running the division-free inversion
    recurrence on integer value-derivative pairs, one direction ``p_j`` at a
    time, so the derivative is exact and independent of the ``-y^2``
    pushforward the chart checks use.  With ``x = P / D`` and
    ``y_k = D r_k / p_0^(k+1)``, the quotient rule gives
    ``dy_k/dx_j = D^2 N[j][k] / p_0^(k+2)`` with
    ``N[j][k] = r_k' p_0 - (k+1) r_k p_0'``, so the identity is
    ``det N · p_0^(2n) = (-1)^n p_0^(sum_k (k+2))``, checked on the integer
    Bareiss determinant of ``N``.
    """
    rng = Random(seed)
    failures = []
    order = n * (n + 3) // 2  # sum of k + 2 over k < n
    for _ in range(samples):
        xpt = rational_point(rng, n)
        den, p = integer_point(xpt)
        p0 = p[0]
        # num[j][k] = p0^(k+2) / D^2 * d y_k / d x_j; the determinant is transpose-invariant
        num = []
        for j in range(n):
            jets = [(v, int(i == j)) for i, v in enumerate(p)]
            dp0 = jets[0][1]
            num.append([
                dr * p0 - (k + 1) * r * dp0
                for k, (r, dr) in enumerate(inverse_numerators(jets, *_JETS))
            ])
        det = _bareiss(num)
        if det * p0 ** (2 * n) != (-1) ** n * p0**order:
            det_j = Fraction(den ** (2 * n) * det, p0**order)
            failures.append({"point": [str(x) for x in xpt], "det": str(det_j)})
    return {"ok": not failures, "failures": failures[:5]}


# ---------------------------------------------------------------------------
# the fiber-tangent transition matrix and its splitting


def transition_matrix(n: int) -> list[list[Laurent]]:
    """Matrix expressing the x-chart frame over the y-chart frame.

    Rows and columns are ordered by ``primed_labels(n)``; the entry in row r,
    column c is the coefficient of the r-th y-frame field in the expansion
    of the c-th x-frame field.  Size (4n-5) x (4n-5).
    """
    if n < 2:
        raise ValueError("the fiber frame needs n >= 2")
    labels = primed_labels(n)
    pos = {lab: i for i, lab in enumerate(labels)}
    size = len(labels)
    mat = [[Laurent() for _ in range(size)] for _ in range(size)]
    for c, (kind, i) in enumerate(labels):
        for tk, ti, coeff in chart_change_terms(kind, i):
            r = pos.get((tk, ti))
            if r is not None:
                mat[r][c] = coeff
    return mat


def verify_transition_matrix(n: int, samples: int = 20, seed: int = 0) -> dict:
    """Pointwise certification that the matrix encodes the chart change;
    the report carries the checked matrix under ``matrix``."""
    mat = transition_matrix(n)
    failures = _chart_change_failures(n, samples, seed, mat, "column")
    return {"ok": not failures, "failures": failures[:5], "matrix": mat}


def expected_splitting(n: int) -> list[int]:
    """Predicted splitting exponents of the fiber-tangent bundle."""
    if n == 2:
        return [2, 0, -2]
    return [2] + [1] * (n - 1) + [0] * (2 * n - 5) + [-1] * (n - 1) + [-2]


# ---------------------------------------------------------------------------
# section-dimension recursion

UNSORTED_LABEL_MSG = "bundle label must be nondecreasing"
# the largest entry sum cohomology_dim rewrites: one R1 step per unit of it
MAX_LABEL_SUM = 10000


def cohomology_dim(label) -> dict:
    """Section count of the bundle named by a sorted nonnegative label.

    Rewrites with (R1) d(a_1..a_n) = d(a_1..a_{n-1}, a_n - 1) +
    prod_{i<n}(a_i + 1) and (R2) swapping adjacent entries with
    a_i = a_{i+1} + 1, re-sorting after every decrement; the base case is the
    all-zero label with a single section.  The count is returned with the
    derivation chain and, as ``ok``, its comparison with prod(a_i + 1); a
    label where neither rule applies is an ``IntegrityError``.  Each R1 step
    lowers the entry sum by one and R2 keeps it, so the chain has sum(a) R1
    steps; a label summing past ``MAX_LABEL_SUM`` is a ``ValueError``.
    """
    a = [int(x) for x in label]
    if any(x < 0 for x in a):
        raise ValueError("label entries must be nonnegative")
    if any(x > y for x, y in zip(a, a[1:])):
        raise ValueError(UNSORTED_LABEL_MSG)
    if sum(a) > MAX_LABEL_SUM:
        raise ValueError(f"label entries must sum to at most {MAX_LABEL_SUM}")
    n = len(a)
    expected = prod(x + 1 for x in a)
    total = 0
    trace = [f"d{tuple(a)}"]
    while any(a):
        term = prod(x + 1 for x in a[: n - 1])
        a[-1] -= 1
        total += term
        trace.append(f"d{tuple(a)} + {term}")
        j = n - 1
        while j >= 1 and a[j] < a[j - 1]:
            if a[j - 1] != a[j] + 1:
                raise IntegrityError(
                    f"rewrite reached {tuple(a)}: neither rule applies at slot {j}"
                )
            a[j - 1], a[j] = a[j], a[j - 1]
            trace.append(f"d{tuple(a)} [swap {j}]")
            j -= 1
    total += 1
    trace.append(f"= {total}")
    return {"dim": total, "expected": expected, "ok": total == expected, "trace": trace}


def pullback_label(a) -> tuple[int, ...]:
    """The bundle label (a_1 - 1, .., a_n - 1) pulled back from the hyperplane class."""
    return tuple(x - 1 for x in a)


def pullback_degree(a) -> dict:
    """Bundle label pulled back from the ambient hyperplane class.

    Returns the label (a_1 - 1, .., a_n - 1), the restriction degrees to the
    coordinate lines, and the consistency check that its section count
    equals prod(a_i), the module dimension.
    """
    from slfusion.modules import validate_composition

    a = validate_composition(a, allow_empty=False)
    n = len(a)
    label = pullback_label(a)
    restriction = [sum(a[: n - i]) - n + i for i in range(n)]
    # the labeling convention: entry j is b_{n-j} - b_{n-j+1} with b_n := 0
    recovered = tuple(
        restriction[n - 1] if j == 0 else restriction[n - 1 - j] - restriction[n - j]
        for j in range(n)
    )
    if recovered != label:
        raise IntegrityError("restriction degrees disagree with the label convention")
    sections = cohomology_dim(label)["dim"]
    return {
        "label": label,
        "restriction_degrees": restriction,
        "sections": sections,
        "module_dim": prod(a),
        "ok": sections == prod(a),
    }
