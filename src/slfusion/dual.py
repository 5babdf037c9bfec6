"""Dual realization by constrained symmetric polynomials, and the shuffle ring.

The graded dual of the quotient module M^A is realized, degree by degree, in
spaces of symmetric polynomials f(z_1..z_s) with per-variable degree below n
subject to divisibility constraints: after substituting z_1 = ... = z_i = z,
the result must be divisible by z^{N_A(i)} as a polynomial in z with
coefficients in the remaining variables.  The pairing sends the weight-q
slice of e-degree s to symmetric polynomials of total degree s(n-1) - q, so
assembling the constrained dimensions reproduces the bigraded character of
M^A through a completely independent computation: no ideal, no quotient, no
normal forms.

The shuffle product interleaves two symmetric polynomials over all
order-preserving position splittings; it makes the direct sum of the duals
over the stretched labels A(k) into a commutative graded ring generated in
degree one, which is checked here by explicit rank computations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm, prod

from slfusion.linalg import IntegrityError, IntEchelon, kernel_basis
from slfusion.modules import (
    GradedCharacter,
    relation_exponent,
    validate_composition,
)


@lru_cache(maxsize=1 << 14)
def partitions_bounded(d: int, max_parts: int, max_part: int) -> list[tuple]:
    """Partitions of d with at most max_parts parts, each at most max_part.

    Results are memoized and shared between callers, so the returned list
    must not be mutated.
    """
    if d < 0:
        return []
    out: list[tuple] = []

    def rec(left: int, parts_left: int, cap: int, prefix: tuple) -> None:
        if left == 0:
            out.append(prefix)
            return
        if parts_left == 0:
            return
        for p in range(min(left, cap), 0, -1):
            rec(left - p, parts_left - 1, p, prefix + (p,))

    rec(d, max_parts, max_part, ())
    return out


def _arrangements(counts: dict) -> int:
    """Distinct linear arrangements of a multiset given as value -> count."""
    total = sum(counts.values())
    r = factorial(total)
    for c in counts.values():
        r //= factorial(c)
    return r


def _multiset(parts, pad_to: int) -> dict:
    counts: dict = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    zeros = pad_to - len(parts)
    if zeros < 0:
        raise ValueError("padding shorter than the partition")
    if zeros:
        counts[0] = counts.get(0, 0) + zeros
    return counts


@lru_cache(maxsize=1 << 10)
def _column_index(d: int, s: int, max_part: int) -> dict:
    """Partition -> column in ``partitions_bounded(d, s, max_part)``."""
    return {lam: c for c, lam in enumerate(partitions_bounded(d, s, max_part))}


@lru_cache(maxsize=1 << 15)
def _constraint_block(n: int, s: int, d: int, i: int, m: int) -> tuple:
    """The constraint rows of one (i, m), each a flat ``(col, coeff, col, ...)``.

    One row per partition tau of d - m fitting in the trailing s - i slots:
    the coefficient of z^m * (tail monomial of shape tau) after substituting
    z_1 = ... = z_i = z.  A basis partition contributes to it iff it is tau
    plus a partition mu of m with at most i parts, and then with the number
    of arrangements of mu padded by zeros to i slots.  The label enters the
    constraints only through m < N_A(i), so the rows depend on (n, s, d, i, m)
    alone and are shared by every label.
    """
    col = _column_index(d, s, n - 1)
    fronts = [
        (mu, _arrangements(_multiset(mu, i))) for mu in partitions_bounded(m, i, n - 1)
    ]
    rows = []
    for tau in partitions_bounded(d - m, s - i, n - 1):
        row = sorted((col[tuple(sorted(tau + mu, reverse=True))], c) for mu, c in fronts)
        rows.append(tuple(x for pair in row for x in pair))
    return tuple(rows)


def _pairs(row: tuple):
    """The ``(column, coeff)`` pairs of a flat constraint row."""
    it = iter(row)
    return zip(it, it)


def _constraint_blocks(a: tuple, s: int, d: int):
    """The nonempty constraint blocks of the degree-d slice at s variables."""
    n = len(a)
    for i in range(1, s + 1):
        # mu needs m <= i(n-1) and tau needs d - m <= (s-i)(n-1)
        low = max(0, d - (s - i) * (n - 1))
        high = min(relation_exponent(a, i), d + 1, i * (n - 1) + 1)
        for m in range(low, high):
            yield _constraint_block(n, s, d, i, m)


def constraint_rows(a: tuple, s: int, d: int, basis: list[tuple]) -> list[dict]:
    """Divisibility constraints on the degree-d slice at s variables.

    One row per (i, m, tau) with 1 <= i <= s, m < N_A(i) and tau a partition
    of d - m fitting in the trailing s - i slots: the coefficient of
    z^m * (tail monomial of shape tau) after the substitution must vanish.
    Rows are fresh ``{column: coeff}`` maps over ``basis``, which must be
    ``partitions_bounded(d, s, len(a) - 1)``.
    """
    canonical = partitions_bounded(d, s, len(a) - 1)
    if basis is not canonical and list(basis) != canonical:
        raise ValueError("basis must be partitions_bounded(d, s, len(a) - 1)")
    return [dict(_pairs(row)) for block in _constraint_blocks(a, s, d) for row in block]


class DualSpace:
    """Solutions of the divisibility constraints at a fixed variable count."""

    def __init__(self, a, s: int):
        self.a = validate_composition(a)
        self.s = int(s)
        if self.s < 0:
            raise ValueError("variable count must be nonnegative")
        self.n = len(self.a)
        self.by_degree: dict[int, dict] = {}
        top = self.s * max(self.n - 1, 0)
        for d in range(top + 1):
            basis = partitions_bounded(d, self.s, self.n - 1)
            if not basis:
                continue
            kern = kernel_basis(constraint_rows(self.a, self.s, d, basis), len(basis))
            if kern:
                self.by_degree[d] = {"basis": basis, "solutions": kern}

    def dim_degree(self, d: int) -> int:
        entry = self.by_degree.get(d)
        return len(entry["solutions"]) if entry else 0

    @property
    def dim(self) -> int:
        return sum(len(e["solutions"]) for e in self.by_degree.values())

    def solution_polys(self) -> list["SymPoly"]:
        out = []
        for d in sorted(self.by_degree):
            entry = self.by_degree[d]
            for vec in entry["solutions"]:
                coeffs = {
                    lam: c for lam, c in zip(entry["basis"], vec) if c
                }
                out.append(SymPoly(self.s, coeffs))
        return out


def oracle_character(a) -> GradedCharacter:
    """Bigraded dimension table assembled purely from the dual realization.

    The degree-d slice at s variables lands at bidegree (s, s(n-1) - d).
    """
    n = len(validate_composition(a))
    table: dict = {}
    for (s, d), dim in dual_dimension_table(a).items():
        q = s * (n - 1) - d
        if q < 0:
            raise IntegrityError("dual slice outside the weight cone")
        table[(s, q)] = dim
    return GradedCharacter(table)


# ---------------------------------------------------------------------------
# symmetric polynomials in the monomial basis, and the shuffle product


class SymPoly:
    """Symmetric polynomial stored on the monomial-symmetric basis.

    Keys are partitions (weakly decreasing tuples without zeros) with at most
    ``nvars`` parts; m_lambda is the sum of all distinct monomials whose
    exponent multiset is lambda padded with zeros.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict):
        self.nvars = int(nvars)
        clean = {}
        for lam, c in coeffs.items():
            lam = tuple(sorted((p for p in lam if p), reverse=True))
            if len(lam) > self.nvars:
                raise ValueError("partition longer than the variable count")
            c = Fraction(c)
            if c:
                clean[lam] = clean.get(lam, Fraction(0)) + c
        self.coeffs = {lam: c for lam, c in clean.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_part(self) -> int:
        return max((lam[0] for lam in self.coeffs if lam), default=0)

    def expand(self) -> dict:
        """Full monomial dict: exponent tuple -> coefficient."""
        out: dict = {}
        for lam, c in self.coeffs.items():
            padded = lam + (0,) * (self.nvars - len(lam))
            seen = set()
            for perm in _distinct_permutations(padded):
                if perm not in seen:
                    seen.add(perm)
                    out[perm] = out.get(perm, Fraction(0)) + c
        return out

    @staticmethod
    def from_monomials(nvars: int, monos: dict) -> "SymPoly":
        """Collect a symmetric monomial dict; raises if not symmetric."""
        coeffs: dict = {}
        for mono, c in monos.items():
            lam = tuple(sorted((p for p in mono if p), reverse=True))
            if mono == lam + (0,) * (nvars - len(lam)):
                coeffs[lam] = c
        sym = SymPoly(nvars, coeffs)
        if sym.expand() != {m: c for m, c in monos.items() if c}:
            raise ValueError("monomial dict is not symmetric")
        return sym

    def vector(self, basis: list[tuple]):
        return [self.coeffs.get(lam, Fraction(0)) for lam in basis]

    def __eq__(self, other):
        return (
            isinstance(other, SymPoly)
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        c = dict(self.coeffs)
        for lam, v in other.coeffs.items():
            c[lam] = c.get(lam, Fraction(0)) + v
        return SymPoly(self.nvars, c)

    def __rmul__(self, scalar):
        return SymPoly(self.nvars, {lam: Fraction(scalar) * c for lam, c in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "SymPoly(0)"
        terms = ", ".join(f"m{list(lam)}: {c}" for lam, c in sorted(self.coeffs.items()))
        return f"SymPoly({self.nvars} vars; {terms})"


def _distinct_permutations(values: tuple):
    """All distinct orderings of a value tuple (small inputs only)."""
    values = tuple(values)
    if not values:
        yield ()
        return
    seen_first = set()
    for i, v in enumerate(values):
        if v in seen_first:
            continue
        seen_first.add(v)
        rest = values[:i] + values[i + 1 :]
        for tail in _distinct_permutations(rest):
            yield (v,) + tail


def _integer_terms(monos: dict) -> tuple[int, list]:
    """``(D, [(mono, D * c)])`` with D the lcm of the coefficient denominators."""
    den = lcm(1, *(c.denominator for c in monos.values()))
    return den, [(m, c.numerator * (den // c.denominator)) for m, c in monos.items()]


def shuffle_product(f: SymPoly, g: SymPoly) -> SymPoly:
    """Sum of f(z_sigma) g(z_tau) over all order-preserving interleavings.

    The result lives in s_1 + s_2 variables and is symmetric; per-variable
    degrees never exceed those of the factors.  The sum is accumulated on
    integer numerators over the product of the factors' common denominators.
    """
    s1, s2 = f.nvars, g.nvars
    s = s1 + s2
    fden, fm = _integer_terms(f.expand())
    gden, gm = _integer_terms(g.expand())
    terms = [(alpha + beta, ca * cb) for alpha, ca in fm for beta, cb in gm]
    monos: dict = {}
    for positions in combinations(range(s), s1):
        # slot p of the result takes entry src[p] of the exponents alpha + beta
        src = [0] * s
        rest = iter(range(s1, s))
        for p in range(s):
            src[p] = positions.index(p) if p in positions else next(rest)
        for exps, c in terms:
            key = tuple([exps[j] for j in src])
            monos[key] = monos.get(key, 0) + c
    den = fden * gden
    return SymPoly.from_monomials(s, {m: Fraction(c, den) for m, c in monos.items() if c})


def satisfies_constraints(a, h: SymPoly) -> bool:
    """Membership of a homogeneous slice in the constrained dual space."""
    a = validate_composition(a)
    n = len(a)
    if h.is_zero():
        return True
    if h.max_part() >= n and n >= 1:
        return False
    degrees = {sum(lam) for lam in h.coeffs}
    for d in degrees:
        col = _column_index(d, h.nvars, n - 1)
        vec = {col[lam]: c for lam, c in h.coeffs.items() if lam in col}
        for block in _constraint_blocks(a, h.nvars, d):
            for row in block:
                if sum(r * vec[c] for c, r in _pairs(row) if c in vec):
                    return False
    return True


def _shuffle_powers(base: list[SymPoly], k: int) -> list[SymPoly]:
    """All k-fold shuffle products of elements of the degree-one component."""
    from itertools import combinations_with_replacement

    out = []
    for combo in combinations_with_replacement(range(len(base)), k):
        h = base[combo[0]]
        for idx in combo[1:]:
            h = shuffle_product(h, base[idx])
        out.append(h)
    return out


def stretched_label(a, k: int) -> tuple:
    """A(k): each entry a_i becomes k*a_i - k + 1."""
    a = validate_composition(a, allow_empty=False)
    if k < 1:
        raise ValueError("stretch factor must be positive")
    return tuple(k * x - k + 1 for x in a)


def coordinate_ring_component(a, k: int, check_generation: bool | None = None) -> dict:
    """Dimension of the degree-k ring component, and its generation in degree 1.

    The component is the dual space of the stretched label A(k); when the
    generation check runs (k = 2 or 3 by default), every k-fold shuffle of
    degree-one basis elements is verified to satisfy the A(k) constraints and
    the collected products must have full rank in every variable count.
    """
    a = validate_composition(a, allow_empty=False)
    ak = stretched_label(a, k)
    expected = prod(ak)
    target = dual_dimension_table(ak)
    oracle_total = sum(target.values())
    result = {
        "component": k,
        "stretched": ak,
        "dim": oracle_total,
        "dim_ok": oracle_total == expected,
        "expected_dim": expected,
    }
    if check_generation is None:
        check_generation = k in (2, 3)
    if not check_generation:
        return result
    base: list[SymPoly] = []
    for s in range(sum(x - 1 for x in a) + 1):
        base.extend(DualSpace(a, s).solution_polys())
    products = _shuffle_powers(base, k)
    spans: dict = {}
    constraint_failures = 0
    for h in products:
        if h.is_zero():
            continue
        if not satisfies_constraints(ak, h):
            constraint_failures += 1
            continue
        for d in {sum(lam) for lam in h.coeffs}:
            basis = partitions_bounded(d, h.nvars, len(a) - 1)
            key = (h.nvars, d)
            ech = spans.get(key)
            if ech is None:
                ech = spans[key] = IntEchelon(len(basis))
            ech.insert(h.vector(basis))
    deficits = []
    for (s, d), want in target.items():
        got = spans[(s, d)].dim if (s, d) in spans else 0
        if got != want:
            deficits.append({"s": s, "degree": d, "got": got, "want": want})
    result.update(
        {
            "generated": not deficits and constraint_failures == 0,
            "constraint_failures": constraint_failures,
            "rank_deficits": deficits,
            "product_count": len(products),
        }
    )
    return result


def dual_dimension_table(a) -> dict:
    """(s, degree) -> dimension over the whole dual realization of A."""
    a = validate_composition(a)
    table: dict = {}
    for s in range(sum(x - 1 for x in a) + 1):
        space = DualSpace(a, s)
        for d in sorted(space.by_degree):
            dim = space.dim_degree(d)
            if dim:
                table[(s, d)] = dim
    return table
