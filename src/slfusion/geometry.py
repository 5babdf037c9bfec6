"""Symbolic geometry of the big cell: vector fields, charts, and bundles.

The big cell carries coordinates x_0..x_{n-1}; the opposite cell carries
y_0..y_{n-1}, and the two are glued by truncated power series inversion
x(t) y(t) = 1 mod t^n.  The distinguished vector fields on the cell are

    e_i = d/dx_i,
    h_i = -2 sum_j x_j d/dx_{i+j},
    f_i = - sum_j (sum_{a+b=j} x_a x_b) d/dx_{i+j},
    L_i = sum_{j>=1} j x_j d/dx_{i+j},

and the fields tangent to the fibers of the projection to the first
coordinate line admit the primed trivializing frames below.  Chart-change
identities are verified exactly: identities within one chart are polynomial
and are compared symbolically; identities across charts are checked at
random rational sample points, where the pushforward of a field through the
inversion map is computed as multiplication of its series by -y(t)^2.

The section-dimension recursion for nonnegative sorted bundle labels runs on
two rewrite rules: decrement the last entry while adding the product of the
leading entries plus one, and swap adjacent entries that differ by exactly
one.  The result is checked against the closed product formula and the full
derivation chain is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from random import Random

from slfusion.laurent import Laurent
from slfusion.linalg import IntegrityError


# ---------------------------------------------------------------------------
# truncated series


class TruncatedSeries:
    """Element of Q[t]/t^n as a coefficient tuple."""

    __slots__ = ("n", "coeffs")

    def __init__(self, coeffs, n: int | None = None):
        coeffs = [Fraction(c) for c in coeffs]
        if n is None:
            n = len(coeffs)
        if len(coeffs) < n:
            coeffs += [Fraction(0)] * (n - len(coeffs))
        self.n = n
        self.coeffs = tuple(coeffs[:n])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.n, other.n)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                out[i + j] += a * b
        return TruncatedSeries(out, n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)})"

    def invert(self) -> "TruncatedSeries":
        return TruncatedSeries(invert_coefficients(self.coeffs), self.n)


def invert_coefficients(coeffs):
    """Coefficients of the multiplicative inverse mod t^n.

    Generic over any field elements supporting the four operations, so the
    same recurrence also runs on dual numbers for exact differentiation.
    """
    x0 = coeffs[0]
    try:
        y0 = 1 / x0 if not isinstance(x0, DualNumber) else x0.inverse()
    except ZeroDivisionError:
        raise ValueError("constant term vanishes: the point misses the chart overlap")
    out = [y0]
    for k in range(1, len(coeffs)):
        acc = None
        for j in range(1, k + 1):
            term = coeffs[j] * out[k - j]
            acc = term if acc is None else acc + term
        out.append(-y0 * acc)
    return out


class DualNumber:
    """a + b*eps with eps^2 = 0, for exact forward differentiation."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, o):
        o = o if isinstance(o, DualNumber) else DualNumber(o)
        return DualNumber(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return DualNumber(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-o if isinstance(o, DualNumber) else DualNumber(-Fraction(o)))

    def __mul__(self, o):
        o = o if isinstance(o, DualNumber) else DualNumber(o)
        return DualNumber(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self):
        if self.a == 0:
            raise ZeroDivisionError("dual number with zero real part")
        inv = 1 / self.a
        return DualNumber(inv, -self.b * inv * inv)


# ---------------------------------------------------------------------------
# polynomial vector fields (Laurent allowed in the slot-0 variable)


class PolyVectorField:
    """First-order derivation sum_i c_i(x) d/dx_i with rational coefficients.

    Coefficient polynomials are sparse exponent-tuple dicts; only the slot-0
    exponent may be negative.
    """

    __slots__ = ("n", "comps")

    def __init__(self, n: int, comps: dict | None = None):
        self.n = n
        self.comps: dict[int, dict] = {}
        if comps:
            for i, poly in comps.items():
                clean = {m: Fraction(c) for m, c in poly.items() if c}
                for m in clean:
                    if len(m) != n or any(e < 0 for e in m[1:]):
                        raise ValueError("bad coefficient monomial")
                if clean:
                    self.comps[i] = clean

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        comps = {i: dict(p) for i, p in self.comps.items()}
        for i, poly in other.comps.items():
            acc = comps.setdefault(i, {})
            for m, c in poly.items():
                v = acc.get(m, Fraction(0)) + c
                if v:
                    acc[m] = v
                else:
                    acc.pop(m, None)
        return PolyVectorField(self.n, comps)

    def __neg__(self) -> "PolyVectorField":
        return self.scale(-1)

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return self + (-other)

    def scale(self, c) -> "PolyVectorField":
        c = Fraction(c)
        return PolyVectorField(
            self.n, {i: {m: c * v for m, v in p.items()} for i, p in self.comps.items()}
        )

    def mul_monomial(self, mono: tuple, coeff=1) -> "PolyVectorField":
        coeff = Fraction(coeff)
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

    def evaluate(self, point) -> list[Fraction]:
        point = [Fraction(p) for p in point]
        out = [Fraction(0)] * self.n
        for i, poly in self.comps.items():
            for m, c in poly.items():
                v = c
                for x, e in zip(point, m):
                    if e:
                        v *= x**e
                out[i] += v
        return out

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


def _poly_partial(poly: dict, j: int) -> dict:
    out = {}
    for m, c in poly.items():
        e = m[j]
        if e:
            dm = m[:j] + (e - 1,) + m[j + 1 :]
            out[dm] = out.get(dm, Fraction(0)) + c * e
    return {m: c for m, c in out.items() if c}


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
                val = acc.get(m, Fraction(0)) + sign * c1 * c2
                if val:
                    acc[m] = val
                else:
                    acc.pop(m, None)

    for i, wpoly in w.comps.items():
        for j, vpoly in v.comps.items():
            d = _poly_partial(wpoly, j)
            if d:
                accumulate(vpoly, d, i, 1)
    for i, vpoly in v.comps.items():
        for j, wpoly in w.comps.items():
            d = _poly_partial(vpoly, j)
            if d:
                accumulate(wpoly, d, i, -1)
    return PolyVectorField(n, comps)


def _mono(n: int, pairs: dict | None = None) -> tuple:
    m = [0] * n
    if pairs:
        for i, e in pairs.items():
            m[i] = e
    return tuple(m)


def standard_fields(n: int) -> dict:
    """The 4n-1 distinguished fields on the big cell, keyed (kind, index)."""
    if n < 1:
        raise ValueError("need at least one variable")
    out = {}
    for i in range(n):
        out[("e", i)] = PolyVectorField(n, {i: {_mono(n): 1}})
        out[("h", i)] = PolyVectorField(
            n, {i + j: {_mono(n, {j: 1}): -2} for j in range(n - i)}
        )
        fcomp: dict = {}
        for j in range(n - i):
            acc: dict = {}
            for a in range(j + 1):
                b = j - a
                if a == b:
                    m = _mono(n, {a: 2})
                else:
                    m = tuple(
                        (1 if t == a else 0) + (1 if t == b else 0) for t in range(n)
                    )
                acc[m] = acc.get(m, 0) - 1
            fcomp[i + j] = acc
        out[("f", i)] = PolyVectorField(n, fcomp)
    for i in range(n - 1):
        out[("L", i)] = PolyVectorField(
            n, {i + j: {_mono(n, {j: 1}): j} for j in range(1, n - i)}
        )
    return out


def primed_field(n: int, kind: str, i: int) -> PolyVectorField:
    """Trivializing frame fields tangent to the fibers over the first line.

    Defined for i >= 1 (L also at larger i); out-of-range indices give the
    zero field so chart-change identities can be written uniformly.
    """
    zero = PolyVectorField(n)
    if kind == "e":
        if not 1 <= i <= n - 1:
            return zero
        return PolyVectorField(n, {i: {_mono(n): 1}})
    if kind == "h":
        if not 1 <= i <= n - 1:
            return zero
        return PolyVectorField(
            n, {i + j - 1: {_mono(n, {j: 1}): -2} for j in range(1, n - i + 1)}
        )
    if kind == "f":
        if not 1 <= i <= n - 1:
            return zero
        comps: dict = {}
        for j in range(1, n - i + 1):
            acc: dict = {}
            for al in range(1, j + 1):
                be = j + 1 - al
                if be < 1:
                    continue
                if al == be:
                    m = _mono(n, {al: 2})
                else:
                    m = tuple(
                        (1 if t == al else 0) + (1 if t == be else 0) for t in range(n)
                    )
                acc[m] = acc.get(m, 0) - 1
            comps[i + j - 1] = acc
        return PolyVectorField(n, comps)
    if kind == "L":
        if not 1 <= i <= n - 2:
            return zero
        return PolyVectorField(
            n, {i + j: {_mono(n, {j + 1: 1}): j} for j in range(1, n - i)}
        )
    raise ValueError(f"unknown field kind {kind!r}")


PRIMED_KINDS = ("e", "h", "L", "f")


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
    with the grading-operator relations [L_i, x_j] = -j x_{i+j}.
    """
    fields = standard_fields(n)
    keys = sorted(fields)
    coords = sorted({cm for f in fields.values() for cm, _ in f.coordinates()})
    index = {cm: i for i, cm in enumerate(coords)}

    def vec(f: PolyVectorField):
        out = [Fraction(0)] * len(coords)
        for cm, c in f.coordinates():
            out[index[cm]] = c
        return out

    from slfusion.linalg import IntEchelon

    ech = IntEchelon(len(coords))
    for k in keys:
        ech.insert(vec(fields[k]))
    rank = ech.dim
    independent = rank == len(keys) == 4 * n - 1

    def expect(kind: str, i: int, c: int) -> PolyVectorField:
        if kind == "L":
            ok = 0 <= i <= n - 2
        else:
            ok = 0 <= i <= n - 1
        base = fields[(kind, i)] if ok else PolyVectorField(n)
        return base.scale(c)

    relations_ok = True
    failures = []
    for i in range(n):
        for j in range(n):
            checks = [
                (("h", i), ("e", j), expect("e", i + j, 2)),
                (("h", i), ("f", j), expect("f", i + j, -2)),
                (("e", i), ("f", j), expect("h", i + j, 1)),
                (("e", i), ("e", j), PolyVectorField(n)),
                (("f", i), ("f", j), PolyVectorField(n)),
                (("h", i), ("h", j), PolyVectorField(n)),
            ]
            for a, b, want in checks:
                got = bracket(fields[a], fields[b])
                if got != want:
                    relations_ok = False
                    failures.append((a, b, repr(got - want)))
    for i in range(n - 1):
        for j in range(n):
            for kind in ("e", "h", "f"):
                got = bracket(fields[("L", i)], fields[(kind, j)])
                want = expect(kind, i + j, -j)
                if got != want:
                    relations_ok = False
                    failures.append((("L", i), (kind, j), repr(got - want)))
        for j in range(n - 1):
            got = bracket(fields[("L", i)], fields[("L", j)])
            want = expect("L", i + j, i - j)
            if got != want:
                relations_ok = False
                failures.append((("L", i), ("L", j), repr(got - want)))
    # closure with integer structure constants
    closed = True
    for a in keys:
        for b in keys:
            br = bracket(fields[a], fields[b])
            if not br.is_zero() and not ech.contains(vec(br)):
                closed = False
                failures.append((a, b, "bracket escapes the span"))
    return {
        "ok": independent and relations_ok and closed,
        "n": n,
        "count": len(keys),
        "rank": rank,
        "independent": independent,
        "relations_ok": relations_ok,
        "closed": closed,
        "failures": failures[:8],
    }


# ---------------------------------------------------------------------------
# chart changes


def rational_point(rng: Random, n: int, nonzero_first: bool = True) -> list[Fraction]:
    pt = []
    for i in range(n):
        num = rng.randint(-9, 9)
        if i == 0 and nonzero_first:
            while num == 0:
                num = rng.randint(-9, 9)
        pt.append(Fraction(num, rng.randint(1, 4)))
    return pt


def pushforward_through_inversion(comp_values, ypoint) -> list[Fraction]:
    """Components of a field after the chart change, at a given target point.

    The differential of coefficientwise series inversion sends the series
    V(t) to -y(t)^2 V(t); evaluating componentwise gives the pushed vector.
    """
    n = len(comp_values)
    y = TruncatedSeries(ypoint, n)
    v = TruncatedSeries(comp_values, n)
    w = y * y * v
    return [-c for c in w.coeffs]


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


def _chart_change_failures(n: int, samples: int, seed: int, expansion, key: str):
    """Sampled failures of the chart change of the primed x-frame fields.

    At each of ``samples`` draws of ``rational_point`` every field is pushed
    through the series inversion and compared with ``expansion(kind, i)``,
    its y-frame expansion as ``(kind, index, Laurent coefficient)`` terms
    evaluated at y_0; out-of-range targets are zero fields.  A failure is
    recorded as ``{key: (kind, i), "point": x}``.
    """
    labels = primed_labels(n)
    fields = {lab: primed_field(n, *lab) for lab in labels}
    rng = Random(seed)
    failures = []
    for _ in range(samples):
        xpt = rational_point(rng, n)
        ypt = invert_coefficients(xpt)
        y0 = ypt[0]
        yvals = {lab: f.evaluate(ypt) for lab, f in fields.items()}
        for kind, i in labels:
            pushed = pushforward_through_inversion(fields[(kind, i)].evaluate(xpt), ypt)
            rhs = [Fraction(0)] * n
            for tk, ti, coeff in expansion(kind, i):
                target = yvals.get((tk, ti))
                if target is None or coeff.is_zero():
                    continue
                cval = coeff.eval_at(y0)
                for idx, comp in enumerate(target):
                    rhs[idx] += cval * comp
            if pushed != rhs:
                failures.append({key: (kind, i), "point": [str(x) for x in xpt]})
    return failures


def verify_chart_identities(n: int, samples: int = 20, seed: int = 0) -> dict:
    """Exact verification of the frame identities within and across charts.

    Within one chart the identities are polynomial and compared as symbolic
    fields.  Across charts each x-frame field is pushed through the series
    inversion at random rational points with x_0 != 0 and compared with its
    y-frame expansion; any failing point is reported.
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
        want = pf("L", i + 1) - pf("h", i + 1).scale(Fraction(1, 2))
        if fields[("L", i)] != want:
            symbolic_failures.append(("L", i))

    sample_failures = _chart_change_failures(
        n, samples, seed, chart_change_terms, "field"
    )
    return {
        "ok": not symbolic_failures and not sample_failures,
        "n": n,
        "samples": samples,
        "identities_checked": samples * len(primed_labels(n)),
        "symbolic_failures": symbolic_failures,
        "sample_failures": sample_failures[:5],
    }


def jacobian_identity(n: int, samples: int = 20, seed: int = 0) -> dict:
    """det of the inversion map differential against (-1)^n / x_0^{2n}.

    The Jacobian matrix is computed by running the inversion recurrence on
    dual numbers (one eps direction per coordinate), so the derivative is
    exact and independent of the series-multiplication shortcut.
    """
    from slfusion.laurent import _det_rational

    rng = Random(seed)
    failures = []
    for _ in range(samples):
        xpt = rational_point(rng, n)
        jac = []
        for j in range(n):
            duals = [DualNumber(x, 1 if idx == j else 0) for idx, x in enumerate(xpt)]
            col = invert_coefficients(duals)
            jac.append([c.b for c in col])
        # jac[j][k] = d y_k / d x_j; determinant is transpose-invariant
        det = _det_rational(jac)
        expected = Fraction((-1) ** n, 1) / xpt[0] ** (2 * n)
        if det != expected:
            failures.append({"point": [str(x) for x in xpt], "det": str(det)})
    return {"ok": not failures, "n": n, "samples": samples, "failures": failures[:5]}


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
    labels = primed_labels(n)
    mat = transition_matrix(n)
    pos = {lab: c for c, lab in enumerate(labels)}

    def column(kind, i):
        c = pos[(kind, i)]
        return [(*lab, row[c]) for lab, row in zip(labels, mat)]

    failures = _chart_change_failures(n, samples, seed, column, "column")
    return {"ok": not failures, "n": n, "failures": failures[:5], "matrix": mat}


def expected_splitting(n: int) -> list[int]:
    """Predicted splitting exponents of the fiber-tangent bundle."""
    if n == 2:
        return [2, 0, -2]
    return [2] + [1] * (n - 1) + [0] * (2 * n - 5) + [-1] * (n - 1) + [-2]


# ---------------------------------------------------------------------------
# section-dimension recursion

UNSORTED_LABEL_MSG = "bundle label must be nondecreasing"


def cohomology_dim(label) -> dict:
    """Section count of the bundle named by a sorted nonnegative label.

    Rewrites with (R1) d(a_1..a_n) = d(a_1..a_{n-1}, a_n - 1) +
    prod_{i<n}(a_i + 1) and (R2) swapping adjacent entries with
    a_i = a_{i+1} + 1, re-sorting after every decrement; the base case is the
    all-zero label with a single section.  The result is asserted equal to
    prod(a_i + 1) and the derivation chain is returned.
    """
    a = [int(x) for x in label]
    if any(x < 0 for x in a):
        raise ValueError("label entries must be nonnegative")
    if any(x > y for x, y in zip(a, a[1:])):
        raise ValueError(UNSORTED_LABEL_MSG)
    n = len(a)
    expected = prod(x + 1 for x in a)
    total = 0
    trace = [f"d{tuple(a)}"]
    guard = 0
    while any(a):
        guard += 1
        if guard > 10000:
            raise IntegrityError("rewrite chain failed to terminate")
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
    if total != expected:
        raise IntegrityError(
            f"recursion for {tuple(label)} gives {total}, product gives {expected}"
        )
    return {"dim": total, "expected": expected, "ok": True, "trace": trace}


def pullback_degree(a) -> dict:
    """Bundle label pulled back from the ambient hyperplane class.

    Returns the label (a_1 - 1, .., a_n - 1), the restriction degrees to the
    coordinate lines, and the consistency check that its section count
    equals prod(a_i), the module dimension.
    """
    from slfusion.modules import validate_composition

    a = validate_composition(a, allow_empty=False)
    n = len(a)
    label = tuple(x - 1 for x in a)
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
