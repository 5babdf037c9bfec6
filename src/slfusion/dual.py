"""Dual realization by constrained symmetric polynomials, and the shuffle ring.

The graded dual of the quotient module M^A is realized, degree by degree, in
spaces of symmetric polynomials f(z_1..z_s) with per-variable degree below n
subject to divisibility constraints: after substituting z_1 = ... = z_i = z,
the result must be divisible by z^{N_A(i)} as a polynomial in z with
coefficients in the remaining variables.  The pairing sends the weight-q
slice of e-degree s to symmetric polynomials of total degree s(n-1) - q, so
assembling the constrained dimensions reproduces the bigraded character of
M^A through a completely independent computation: no ideal, no quotient, no
normal forms.  The constraint rows of a slice are built block by block while
the kernel reads them, so no block is built once the span is full.

The shuffle product sums f(z_S) g(z_T) over the splittings of the variables
into an s_1-set S and an s_2-set T, each in its order; it makes the direct
sum of the duals over the stretched labels A(k) into a commutative graded
ring generated in degree one, which is checked here by explicit rank
computations.  This is the functional realization of Feigin and Stoyanovsky
(hep-th/9308079), symmetrized, and on the monomial-symmetric basis it has a
closed form: pad lam to s_1 parts and mu to s_2 parts with zeros and let
nu = lam ∪ mu; then m_lam * m_mu = c · m_nu with
c = prod_v binom(mult_nu(v), mult_lam(v)) over all values v, zeros
included, since a monomial of shape nu arises once for each choice of the
positions that carry lam.  A product costs one term per pair of terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from slfusion.linalg import IntegrityError, IntEchelon, exact_scalar, kernel_basis
from slfusion.modules import (
    GradedCharacter,
    relation_exponent,
    validate_composition,
)


@lru_cache(maxsize=1 << 14)
def partitions_bounded(d: int, max_parts: int, max_part: int) -> list[tuple]:
    """Partitions of d with at most max_parts parts, each at most max_part.

    Listed by descending first part, then recursively.  Results are
    memoized and shared between callers (the lists of smaller arguments
    build the larger ones), so the returned list must not be mutated.
    """
    if d == 0:
        return [()]
    if d < 0 or max_parts <= 0:
        return []
    return [
        (p,) + rest
        for p in range(min(d, max_part), 0, -1)
        for rest in partitions_bounded(d - p, max_parts - 1, p)
    ]


@lru_cache(maxsize=1 << 14)
def _arrangements(mu: tuple, i: int) -> int:
    """Distinct orderings of the partition mu padded with zeros to i slots."""
    r = factorial(i) // factorial(i - len(mu))
    for v in set(mu):
        r //= factorial(mu.count(v))
    return r


def _code(lam: tuple, base: int) -> int:
    """The partition lam as ``sum(base**(p-1) for p in lam)``: its
    multiplicities as digits in base ``base``.  While no multiplicity
    reaches ``base`` the code is unique, and the multiset union of two
    partitions is the sum of their codes."""
    return sum(base ** (p - 1) for p in lam)


@lru_cache(maxsize=1 << 14)
def _codes(d: int, parts: int, max_part: int, base: int) -> tuple:
    """The ``_code`` of each partition in ``partitions_bounded(d, parts, max_part)``."""
    return tuple(_code(lam, base) for lam in partitions_bounded(d, parts, max_part))


@lru_cache(maxsize=1 << 10)
def _code_columns(d: int, s: int, max_part: int) -> dict:
    """``_code`` in base s + 1 -> column in ``partitions_bounded(d, s, max_part)``."""
    return {code: c for c, code in enumerate(_codes(d, s, max_part, s + 1))}


@lru_cache(maxsize=1 << 10)
def _exponents(a: tuple, s: int) -> tuple:
    """``(N_A(0), ..., N_A(s))``, computed once per label and variable count."""
    return tuple(relation_exponent(a, i) for i in range(s + 1))


@lru_cache(maxsize=1 << 15)
def _constraint_block(n: int, s: int, d: int, i: int, m: int) -> tuple:
    """The constraint rows of one (i, m) as ``(coeffs, rows)``.

    One row per partition tau of d - m fitting in the trailing s - i slots:
    the coefficient of z^m * (tail monomial of shape tau) after substituting
    z_1 = ... = z_i = z.  A basis partition contributes to it iff it is tau
    plus a partition mu of m with at most i parts, and then with the number
    of arrangements of mu padded by zeros to i slots.  Each row is the tuple
    of the columns of tau ∪ mu, one per mu, and ``coeffs`` lists the
    arrangement counts in the same mu order for every row.  The label enters
    the constraints only through m < N_A(i), so the rows depend on
    (n, s, d, i, m) alone and are shared by every label.
    """
    base = s + 1  # a basis partition has at most s parts
    col = _code_columns(d, s, n - 1)
    fronts = partitions_bounded(m, i, n - 1)
    coeffs = tuple(_arrangements(mu, i) for mu in fronts)
    codes = _codes(m, i, n - 1, base)
    rows = tuple(
        tuple([col[t + u] for u in codes]) for t in _codes(d - m, s - i, n - 1, base)
    )
    return coeffs, rows


def _block_keys(n: int, caps: tuple, s: int, d: int):
    """The ``(i, m)`` of the nonempty constraint blocks of the degree-d slice
    at s variables, in order; ``caps[i]`` is N_A(i) for 1 <= i <= s."""
    for i in range(1, s + 1):
        # mu needs m <= i(n-1) and tau needs d - m <= (s-i)(n-1)
        low = max(0, d - (s - i) * (n - 1))
        high = min(caps[i], d + 1, i * (n - 1) + 1)
        for m in range(low, high):
            yield i, m


def _constraint_blocks(n: int, caps: tuple, s: int, d: int):
    """The nonempty constraint blocks of the degree-d slice at s variables."""
    for i, m in _block_keys(n, caps, s, d):
        yield _constraint_block(n, s, d, i, m)


class _SliceRows:
    """The constraint rows of one slice as ``{column: coeff}`` maps, built
    block by block while they are read.

    A block with a single partition mu (m <= 1, for one) has one entry per
    row, so its rows are unit rows. These blocks are built first and their
    rows come first, one per column; every other row follows with its unit
    columns dropped, which leaves the span unchanged and spares the
    elimination the unit columns, and a row left with one entry makes its
    column a unit for the rows after it. ``kernel_basis`` stops reading once
    its span is full, so the blocks after that point are never built.
    ``len`` is the number of rows read so far (``perfbench/tracing.py``
    sizes every kernel input with it).
    """

    __slots__ = ("n", "caps", "s", "d", "read")

    def __init__(self, n: int, caps: tuple, s: int, d: int):
        self.n, self.caps, self.s, self.d = n, caps, s, d
        self.read = 0

    def __iter__(self):
        n, s, d = self.n, self.s, self.d
        units: dict = {}
        rest = []
        for i, m in _block_keys(n, self.caps, s, d):
            if len(partitions_bounded(m, i, n - 1)) == 1:
                units.update(dict.fromkeys(cols[0] for cols in _constraint_block(n, s, d, i, m)[1]))
            else:
                rest.append((i, m))
        for c in units:
            self.read += 1
            yield {c: 1}
        for i, m in rest:
            coeffs, rows = _constraint_block(n, s, d, i, m)
            for cols in rows:
                row = {c: x for c, x in zip(cols, coeffs) if c not in units}
                if len(row) == 1:  # its column is a unit too
                    (c,) = row
                    units[c] = None
                    row = {c: 1}
                if row:
                    self.read += 1
                    yield row

    def __len__(self) -> int:
        return self.read


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
    blocks = _constraint_blocks(len(a), _exponents(tuple(a), s), s, d)
    return [dict(zip(cols, coeffs)) for coeffs, rows in blocks for cols in rows]


class DualSpace:
    """Solutions of the divisibility constraints at a fixed variable count.

    The solutions of each degree are primitive integer vectors over the
    basis, one per free column of the constraint rows.
    """

    def __init__(self, a, s: int):
        self.a = validate_composition(a)
        self.s = int(s)
        if self.s < 0:
            raise ValueError("variable count must be nonnegative")
        self.n = len(self.a)
        self.by_degree: dict[int, dict] = {}
        caps = _exponents(self.a, self.s)
        top = self.s * max(self.n - 1, 0)
        for d in range(top + 1):
            basis = partitions_bounded(d, self.s, self.n - 1)
            if not basis:
                continue
            kern = kernel_basis(_SliceRows(self.n, caps, self.s, d), len(basis))
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
    exponent multiset is lambda padded with zeros.  Integral coefficients
    are kept as ``int``, the others as ``Fraction``.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict):
        self.nvars = int(nvars)
        clean: dict = {}
        for lam, c in coeffs.items():
            lam = tuple(sorted((p for p in lam if p), reverse=True))
            if len(lam) > self.nvars:
                raise ValueError("partition longer than the variable count")
            if type(c) is not int:
                c = Fraction(c)
            if c:
                clean[lam] = clean.get(lam, 0) + c
        self.coeffs = {
            lam: c if type(c) is int else exact_scalar(c) for lam, c in clean.items() if c
        }

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_part(self) -> int:
        return max((lam[0] for lam in self.coeffs if lam), default=0)

    def vector(self, basis: list[tuple]):
        return [self.coeffs.get(lam, 0) for lam in basis]

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
            c[lam] = c.get(lam, 0) + v
        return SymPoly(self.nvars, c)

    def __rmul__(self, scalar):
        scalar = exact_scalar(scalar)
        return SymPoly(self.nvars, {lam: scalar * c for lam, c in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "SymPoly(0)"
        terms = ", ".join(f"m{list(lam)}: {c}" for lam, c in sorted(self.coeffs.items()))
        return f"SymPoly({self.nvars} vars; {terms})"


@lru_cache(maxsize=1 << 16)
def _shuffle_term(lam: tuple, s1: int, mu: tuple, s2: int) -> tuple[tuple, int]:
    """``(nu, c)`` with the shuffle of m_lam (s1 variables) and m_mu (s2
    variables) equal to ``c * m_nu``: nu = lam ∪ mu and
    c = prod_v binom(mult_nu(v), mult_lam(v)), zeros included."""
    nu = tuple(sorted(lam + mu, reverse=True))
    c = comb(s1 + s2 - len(nu), s1 - len(lam))
    for v in set(lam):
        c *= comb(nu.count(v), lam.count(v))
    return nu, c


def shuffle_product(f: SymPoly, g: SymPoly) -> SymPoly:
    """Sum of f(z_S) g(z_T) over the order-preserving splittings of the
    s_1 + s_2 variables into an s_1-set S and an s_2-set T.

    The result is symmetric in s_1 + s_2 variables and per-variable degrees
    never exceed those of the factors.  It is read off the closed form
    m_lam * m_mu = c · m_nu (see the module docstring), one term per pair of
    terms of f and g, with no expansion into monomials.
    """
    s1, s2 = f.nvars, g.nvars
    out: dict = {}
    for lam, x in f.coeffs.items():
        for mu, y in g.coeffs.items():
            nu, c = _shuffle_term(lam, s1, mu, s2)
            out[nu] = out.get(nu, 0) + c * x * y
    return SymPoly(s1 + s2, out)


def satisfies_constraints(a, h: SymPoly) -> bool:
    """Membership of a homogeneous slice in the constrained dual space."""
    a = validate_composition(a)
    n = len(a)
    if h.is_zero() or not n:  # the empty label has no constraints
        return True
    if h.max_part() >= n:
        return False
    s = h.nvars
    caps = _exponents(a, s)
    for d in {sum(lam) for lam in h.coeffs}:
        col = _code_columns(d, s, n - 1)
        vec = {col[_code(lam, s + 1)]: c for lam, c in h.coeffs.items() if sum(lam) == d}
        for coeffs, rows in _constraint_blocks(n, caps, s, d):
            for cols in rows:
                if sum(r * vec[c] for c, r in zip(cols, coeffs) if c in vec):
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
