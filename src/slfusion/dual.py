"""Dual realization by constrained symmetric polynomials, and the shuffle ring.

The graded dual of the quotient module M^A is realized, degree by degree, in
spaces of symmetric polynomials f(z_1..z_s) with per-variable degree below n
subject to divisibility constraints: after substituting z_1 = ... = z_i = z,
the result must be divisible by z^{N_A(i)} as a polynomial in z with
coefficients in the remaining variables.  The pairing sends the weight-q
slice of e-degree s to symmetric polynomials of total degree s(n-1) - q, so
assembling the constrained dimensions reproduces the bigraded character of
M^A through a completely independent computation: no ideal, no quotient, no
normal forms.  The constraint rows of a slice are one lazy stream, block by
block in (i, m) order, and the kernel is their one reader; it stops
reading, and no further block is built, once its span is full.

Write D(s, d) for the degree-d slice at s variables.  For s >= 1 the map
f -> ([z_s^j] f), j = 0..n-1, embeds D(s, d) into the sum of the D(s-1, d-j):
  - f has degree at most n-1 in z_s, so these coefficients determine it;
  - each coefficient is symmetric in z_1..z_{s-1} of degree d - j;
  - a constraint with i <= s-1 substituted variables keeps z_s among the
    remaining ones, so f meets it iff every coefficient meets the same
    constraint (same cap N_A(i)) at s-1 variables.
So D(s, d) = 0 whenever every D(s-1, d-j) is zero, and such a slice is
skipped without building a constraint block.  The rule rests on the dual
model alone, not on the module build, so the oracle stays independent.  The
spaces are memoized per (A, s) by ``_dual_space``, which the dimension table,
the oracle character and the ring components all read, so each space is
solved once while it stays in the memo.

M^A is a graded sl2 ⊗ C[t]-module (Feigin and Loktev, math/9812093): each
t-degree piece is a finite-dimensional sl2-module in which e-degree k has
weight 2k - N, with N = sum(a_i - 1).  So its character is symmetric,
dim(k, q) = dim(N - k, q), and in the coordinates here the slice (s, d)
has the dimension of (N - s, d + (N - 2s)(n - 1)).  The dimension table
solves only the spaces with s <= N/2 and writes the rest from their
mirrors; the restriction rule is untouched, since it reads only s - 1.
The cross-check keeps its strength: comparing the whole built character
with the oracle compares the lower half of the build with solved spaces,
and its upper half with the mirror of its own lower half, which the build
does not impose.  All that is given up is an independent solve of the
upper half, which the tests keep.  The ring still solves every upper-half
space its products reach, so its generation check compares the mirrored
dimensions with solved spans.

The shuffle product sums f(z_S) g(z_T) over the splittings of the variables
into an s_1-set S and an s_2-set T, each in its order; it makes the direct
sum of the duals over the stretched labels A(k) into a commutative graded
ring generated in degree one.  That is checked here against the solved
spaces: every product of degree-one elements is tested for membership in
the span of the solved dual space of A(k), and the products must span it.
This is the functional realization of Feigin and Stoyanovsky
(hep-th/9308079), symmetrized, and on the monomial-symmetric basis it has a
closed form: pad lam to s_1 parts and mu to s_2 parts with zeros and let
nu = lam ∪ mu; then m_lam * m_mu = c · m_nu with
c = prod_v binom(mult_nu(v), mult_lam(v)) over all values v, zeros
included, since a monomial of shape nu arises once for each choice of the
positions that carry lam.  A product costs one term per pair of terms.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod

from slfusion.linalg import IntegrityError, IntEchelon, kernel_basis
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


class _SliceRows:
    """The constraint rows of one slice as fresh ``{column: coeff}`` maps.

    The nonempty blocks come in (i, m) order, each built when the reader
    reaches it; ``kernel_basis`` stops reading once its span is full, so the
    blocks after that point are never built.  ``len`` is the number of rows
    read so far (``perfbench/tracing.py`` sizes every kernel input with it).
    """

    __slots__ = ("n", "caps", "s", "d", "read")

    def __init__(self, n: int, caps: tuple, s: int, d: int):
        self.n, self.caps, self.s, self.d = n, caps, s, d
        self.read = 0

    def __iter__(self):
        n, s, d = self.n, self.s, self.d
        for i in range(1, s + 1):
            # mu needs m <= i(n-1) and tau needs d - m <= (s-i)(n-1)
            low = max(0, d - (s - i) * (n - 1))
            for m in range(low, min(self.caps[i], d + 1, i * (n - 1) + 1)):
                coeffs, rows = _constraint_block(n, s, d, i, m)
                for cols in rows:
                    self.read += 1
                    yield dict(zip(cols, coeffs))

    def __len__(self) -> int:
        return self.read


def _variable_count(s) -> int:
    """s itself if it is a nonnegative ``int`` (not a ``bool``), else a
    ``ValueError``: a variable count is a memo key and a recursion index."""
    if type(s) is not int or s < 0:
        raise ValueError(f"variable count must be a nonnegative int, got {s!r}")
    return s


def _live_degrees(below, part: int) -> list:
    """The degrees d with d - j among the nonzero degrees ``below`` of the
    space at one variable fewer, for some 0 <= j <= part: by the restriction
    rule the only degrees where the slice can be nonzero."""
    return sorted({d + j for d in below for j in range(part + 1)})


class DualSpace:
    """Solutions of the divisibility constraints at a fixed variable count.

    The solutions of each degree are primitive integer vectors over the
    basis, one per free column of the constraint rows.  For s >= 1 only the
    degrees d with some D(s-1, d-j) nonzero, 0 <= j < n, are solved (the
    restriction rule of the module docstring); the others, like every slice
    with a zero kernel, get no ``by_degree`` entry.  The predecessor is read
    from the memo ``_dual_space``, so a space built directly builds its
    predecessors there.
    """

    def __init__(self, a, s: int):
        self.a = validate_composition(a)
        self.s = _variable_count(s)
        self.n = len(self.a)
        self.by_degree: dict[int, dict] = {}
        caps = _exponents(self.a, s)
        part = max(self.n - 1, 0)
        live = range(s * part + 1)
        if s:
            live = _live_degrees(_dual_space(self.a, s - 1).by_degree, part)
        for d in live:
            basis = partitions_bounded(d, s, part)
            if not basis:
                continue
            kern = kernel_basis(_SliceRows(self.n, caps, s, d), len(basis))
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


@lru_cache(maxsize=1 << 10)
def _dual_space(a: tuple, s: int) -> DualSpace:
    """The memoized ``DualSpace(a, s)``; it is shared, so it must not be mutated."""
    return DualSpace(a, s)


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
    exponent multiset is lambda padded with zeros.  Coefficients are
    ``int``; any other type (``Fraction``, ``float``, ``bool``) is a
    ``ValueError``.
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
                raise ValueError(f"SymPoly coefficient {c!r} is not an int")
            if c:
                clean[lam] = clean.get(lam, 0) + c
        self.coeffs = {lam: c for lam, c in clean.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_part(self) -> int:
        return max((lam[0] for lam in self.coeffs if lam), default=0)

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


def _degree_row(h: SymPoly, d: int, max_part: int) -> dict:
    """The degree-d part of h as ``{column: coeff}`` over
    ``partitions_bounded(d, h.nvars, max_part)``; every part of h is at most
    ``max_part``."""
    col, base = _code_columns(d, h.nvars, max_part), h.nvars + 1
    return {col[_code(lam, base)]: c for lam, c in h.coeffs.items() if sum(lam) == d}


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


def _solved_span(ak: tuple, s: int, d: int) -> IntEchelon:
    """The span of the solutions of the dual space of ``ak`` at s variables
    and degree d, over ``partitions_bounded(d, s, n - 1)``: read from the
    memo ``_dual_space``, and empty where that degree has no entry."""
    span = IntEchelon(len(partitions_bounded(d, s, len(ak) - 1)))
    entry = _dual_space(ak, s).by_degree.get(d)
    for vec in entry["solutions"] if entry else ():
        span.insert({c: x for c, x in enumerate(vec) if x})
    return span


def stretched_label(a, k: int) -> tuple:
    """A(k): each entry a_i becomes k*a_i - k + 1."""
    a = validate_composition(a, allow_empty=False)
    if k < 1:
        raise ValueError("stretch factor must be positive")
    return tuple(k * x - k + 1 for x in a)


def coordinate_ring_component(a, k: int) -> dict:
    """Dimension of the degree-k ring component, and its generation in degree 1.

    The component is the dual space of the stretched label A(k); for k = 2
    and 3 the generation check runs: every k-fold shuffle of degree-one basis
    elements must lie in the solved dual space of A(k), slice by slice, and
    the collected products must have full rank in every variable count.
    """
    a = validate_composition(a, allow_empty=False)
    ak = stretched_label(a, k)
    expected = prod(ak)
    target = dual_dimension_table(ak)
    oracle_total = sum(target.values())
    result = {
        "dim": oracle_total,
        "dim_ok": oracle_total == expected,
        "expected_dim": expected,
    }
    if k not in (2, 3):
        return result
    base: list[SymPoly] = []
    for s in range(sum(x - 1 for x in a) + 1):
        base.extend(_dual_space(a, s).solution_polys())
    n = len(a)
    solved: dict = {}  # (s, d) -> span of the solved dual space of A(k)
    spans: dict = {}  # (s, d) -> span of the products
    constraint_failures = 0
    for h in _shuffle_powers(base, k):
        if h.is_zero():
            continue
        if h.max_part() >= n:  # outside every basis of A(k)
            constraint_failures += 1
            continue
        rows = {(h.nvars, d): _degree_row(h, d, n - 1) for d in {sum(lam) for lam in h.coeffs}}
        for key in rows.keys() - solved.keys():
            solved[key] = _solved_span(ak, *key)
        if not all(solved[key].contains(row) for key, row in rows.items()):
            constraint_failures += 1
            continue
        for key, row in rows.items():
            if key not in spans:
                spans[key] = IntEchelon(solved[key].ncols)
            spans[key].insert(row)
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
        }
    )
    return result


def dual_dimension_table(a) -> dict:
    """(s, degree) -> dimension over the whole dual realization of A.

    Only the spaces with s <= N/2 are solved: for s > N/2 the slice (s, d)
    is the mirror of the solved slice (N - s, d - (2s - N)(n - 1)), by the
    sl2 rule of the module docstring.  Keys ascend in (s, d).
    """
    a = validate_composition(a)
    n, top = len(a), sum(x - 1 for x in a)
    table: dict = {}
    for s in range(top + 1):
        t = min(s, top - s)  # s itself, or the solved mirror of s
        space = _dual_space(a, t)
        for d in sorted(space.by_degree):
            table[(s, d + (s - t) * (n - 1))] = space.dim_degree(d)
    return table
