"""Independent oracles shared by the test modules.

These never call the code paths they are checking: the splitting oracles
count section spaces of twists straight from the matrix entries, or run a
greedy two-sided reduction to monomial shape; the planted-matrix generator
produces inputs whose answer is known by construction; the Birkhoff
certificate is checked against one that takes ``det X`` by interpolation
instead of a rank test of ``X`` at ``1/y = 0``; the reference kernel
is read off the dense ``rref``; span intersections are computed by a
Zassenhaus-style kernel that no library path uses, and span sums basis
element by basis element (for the kernel sum decomposition, which no claim
runs); the generator certificate is checked by reducing every generator
to its ``poly_class`` element; the module ideal is
rebuilt by the plain degree recursion, one echelon insert per shifted row,
with bases and normal forms read off its dense rows, and ``ideal_rows``
writes a built module's pieces out as the same dense rows; cyclic spans are
grown breadth-first, one element at a time, through ``apply_reference``,
which multiplies basis monomials and reduces them to dense ``Fraction``
normal forms (``reduce_monomial``) instead of reading the integer action
tables, and turns its ``Fraction`` sums into the element form only at its
end (``element_from_fractions``); the geometry layer's ``Fraction`` routes
(Gaussian determinants, the chart sampler with its ``-y^2`` pushforward on
the explicitly written primed frame, the dual-number Jacobian) check the
integer ones; the dual
constraint rows are listed as the kernel reads them, for the test that pins
them against a scan of the whole basis; the dual spaces are solved at every
degree, without the restriction rule's skip, and the dual dimension table
at every variable count, without the sl2 mirror; a symmetric polynomial is
tested against the dual constraints row by row (``satisfies_constraints``),
where the ring tests it against the solved span; and
the shuffle product is checked against the expanding route, which writes both
factors out as monomials and sums over every interleaving of the variables.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from random import Random

from slfusion.dual import (
    SymPoly,
    _degree_row,
    _dual_space,
    _exponents,
    _SliceRows,
    partitions_bounded,
)

from slfusion.geometry import PolyVectorField, primed_labels, rational_point
from slfusion.laurent import Laurent
from slfusion.linalg import (
    IntEchelon,
    enumerate_monomials,
    kernel_basis,
    rref,
)
from slfusion.modules import (
    ModuleElement,
    Subspace,
    TensorModule,
    generating_slice,
    relation_exponent,
    validate_composition,
)
from slfusion.submodules import submodule_S


def mono_mul(a: tuple, b: tuple) -> tuple:
    """The product of two monomials, as exponent tuples."""
    return tuple(x + y for x, y in zip(a, b))


def int_row(row) -> dict[int, int]:
    """A dense sequence or ``{column: value}`` map of ``int``/``Fraction``
    entries as the primitive sparse integer row on the same line, leading
    entry positive; ``{}`` for a zero row.  This is the form every
    ``IntEchelon`` row takes, so rref rows compare with echelon rows
    through it."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    vals = {c: Fraction(x) for c, x in items if x}
    if not vals:
        return {}
    den = lcm(*(x.denominator for x in vals.values()))
    ints = {c: int(x * den) for c, x in vals.items()}
    g = gcd(*ints.values()) * (1 if ints[min(ints)] > 0 else -1)
    return {c: x // g for c, x in ints.items()}


def dense_rows(ech: IntEchelon) -> list[tuple[int, ...]]:
    """The rows of an ``IntEchelon`` as dense tuples, sorted by pivot column."""
    out = []
    for row in ech.sparse_rows():
        vec = [0] * ech.ncols
        for c, x in row.items():
            vec[c] = x
        out.append(tuple(vec))
    return out


def h0_twist(matrix, k, bound):
    """Dimension of {g in C[1/y]^r : y^k M g is polynomial}, deg g <= bound."""
    size = len(matrix)
    nunknowns = size * (bound + 1)
    rows = {}
    for r in range(size):
        for c in range(size):
            for d, coef in matrix[r][c].coeffs.items():
                for j in range(bound + 1):
                    power = d - j + k
                    if power < 0:
                        row = rows.setdefault((r, power), [0] * nunknowns)
                        row[c * (bound + 1) + j] += coef
    ech = IntEchelon(nunknowns)
    for row in rows.values():
        ech.insert(int_row(row))
    return nunknowns - ech.dim


def splitting_via_sections(matrix):
    """Splitting exponents recovered from the ladder of twist sections."""
    size = len(matrix)
    maxdeg = max(
        max((abs(e) for x in row for e in x.coeffs), default=0) for row in matrix
    )
    reach = maxdeg + 2
    bound = 2 * reach + 4
    h = {k: h0_twist(matrix, k, bound) for k in range(-reach - 1, reach + 1)}
    exps = []
    prev = 0
    for k in range(-reach, reach + 1):
        count = h[k] - h[k - 1]
        exps.extend([-k] * (count - prev))
        prev = count
    assert len(exps) == size, "twist ladder failed to close; enlarge the bounds"
    return sorted(exps, reverse=True)


class ReductionStuck(Exception):
    """The greedy reduction hit its step bound or a fixed point."""


def _nonzero_positions(work):
    size = len(work)
    return [(r, c) for r in range(size) for c in range(size) if not work[r][c].is_zero()]


def _is_monomial_permutation(work) -> bool:
    seen_rows, seen_cols = set(), set()
    for r, c in _nonzero_positions(work):
        if r in seen_rows or c in seen_cols or not work[r][c].is_monomial():
            return False
        seen_rows.add(r)
        seen_cols.add(c)
    return len(seen_rows) == len(work)


def _state_key(work) -> tuple:
    return tuple(tuple(tuple(sorted(x.coeffs.items())) for x in row) for row in work)


def _score(work) -> tuple[int, int]:
    nonzero = terms = 0
    for row in work:
        for x in row:
            if x.coeffs:
                nonzero += 1
                terms += len(x.coeffs)
    return nonzero, terms


def _legal_moves(work) -> list[tuple]:
    """Single-term cancellations available from the current state.

    A row move subtracts a polynomial multiple of one row from another,
    cancelling the lowest term of the target entry against a lower-or-equal
    order pivot in the same column.  A column move is the mirror image with
    a multiplier polynomial in the inverse variable, cancelling the top term
    of the target against a higher-or-equal degree pivot in the same row.
    """
    size = len(work)
    moves = []
    for c in range(size):
        entries = [(r, work[r][c]) for r in range(size) if not work[r][c].is_zero()]
        for r, e in entries:
            for pr, pe in entries:
                if pr != r and e.ord >= pe.ord:
                    moves.append(("row", r, pr, c))
    for r in range(size):
        entries = [(c, work[r][c]) for c in range(size) if not work[r][c].is_zero()]
        for c, e in entries:
            for pc, pe in entries:
                if pc != c and e.deg <= pe.deg:
                    moves.append(("col", c, pc, r))
    return moves


def _apply_move(work, move) -> list[list[Laurent]]:
    """One cancellation, fraction-free: the target row (column) is scaled by
    the pivot's cancelled coefficient over their gcd instead of dividing by
    it; a nonzero constant is a unit over Q[y] and over Q[1/y], so the
    splitting type is kept."""
    out = [list(row) for row in work]
    size = len(work)
    if move[0] == "row":
        _, r, pr, c = move
        e, pe = work[r][c], work[pr][c]
        a, b = e[e.ord], pe[pe.ord]
        g = gcd(a, b)
        scale, mult = Laurent.const(b // g), Laurent.term(a // g, e.ord - pe.ord)
        out[r] = [scale * work[r][cc] - mult * work[pr][cc] for cc in range(size)]
    else:
        _, c, pc, r = move
        e, pe = work[r][c], work[r][pc]
        a, b = e[e.deg], pe[pe.deg]
        g = gcd(a, b)
        scale, mult = Laurent.const(b // g), Laurent.term(a // g, e.deg - pe.deg)
        for rr in range(size):
            out[rr][c] = scale * work[rr][c] - mult * work[rr][pc]
    return out


def splitting_via_reduction(matrix, max_steps: int = 10000):
    """Splitting exponents by a greedy two-sided reduction to monomial shape.

    Row operations use polynomial multipliers, column operations use
    multipliers polynomial in the inverse variable.  At every step the move
    that minimizes the (nonzero entries, total terms) count is taken, never
    revisiting an earlier state; ``ReductionStuck`` is raised when the step
    bound is exhausted or no unseen legal move remains.  It shares no code
    with the production factorization, so the two are independent routes.
    """
    work = [[Laurent(dict(x.coeffs)) for x in row] for row in matrix]
    seen = {_state_key(work)}
    steps = 0
    while not _is_monomial_permutation(work):
        best = None
        for move in _legal_moves(work):
            candidate = _apply_move(work, move)
            key = _state_key(candidate)
            if key in seen:
                continue
            rank = (*_score(candidate), move)
            if best is None or rank < best[0]:
                best = (rank, candidate, key)
        if best is None:
            raise ReductionStuck("no unseen legal move remains")
        _, work, key = best
        seen.add(key)
        steps += 1
        if steps > max_steps:
            raise ReductionStuck(f"step bound {max_steps} exhausted")
    return sorted((work[r][c].ord for r, c in _nonzero_positions(work)), reverse=True)


def scrambled_diagonal(rng: Random, size: int, ops: int, spread: int = 2):
    """A matrix with known splitting: a diagonal hit by random legal moves."""
    diag = sorted((rng.randint(-spread, spread) for _ in range(size)), reverse=True)
    mat = [[Laurent() for _ in range(size)] for _ in range(size)]
    for i, d in enumerate(diag):
        mat[i][i] = Laurent.term(rng.choice([1, -1, 2]), d)
    for _ in range(ops):
        a, b = rng.sample(range(size), 2)
        if rng.random() < 0.5:
            mult = Laurent.term(rng.randint(-2, 2), rng.randint(0, 1))
            if mult.is_zero():
                continue
            for c in range(size):
                mat[a][c] = mat[a][c] + mult * mat[b][c]
        else:
            mult = Laurent.term(rng.randint(-2, 2), -rng.randint(0, 1))
            if mult.is_zero():
                continue
            for r in range(size):
                mat[r][a] = mat[r][a] + mult * mat[r][b]
    return diag, mat


def rref_kernel(mat, cols_n):
    """Reference kernel read off rref: 1 at each free column, minus the
    reduced rows' entries in that column at their pivot columns."""
    _, red, pivots = rref(mat, cols_n)
    basis = []
    for fc in (c for c in range(cols_n) if c not in pivots):
        vec = [Fraction(0)] * cols_n
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def intersect_spans(a: IntEchelon, b: IntEchelon) -> IntEchelon:
    """Intersection of two row spaces over Q (Zassenhaus-style kernel)."""
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    out = IntEchelon(a.ncols)
    arows, brows = dense_rows(a), dense_rows(b)
    if not arows or not brows:
        return out
    # solve x*A = y*B: kernel of stacked [A; -B]^T, read off the A-part;
    # the unknowns are the coefficients over the rows of A and B
    rows = arows + [tuple(-x for x in r) for r in brows]
    cols = a.ncols
    for vec in kernel_basis([int_row(col) for col in zip(*rows)], len(rows)):
        comb = [Fraction(0)] * cols
        for coef, arow in zip(vec[: len(arows)], arows):
            if coef:
                for i, x in enumerate(arow):
                    comb[i] += coef * x
        out.insert(int_row(comb))
    return out


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Bidegree-wise intersection of two graded subspaces."""
    if a.owner is not b.owner:
        raise ValueError("subspaces of different modules")
    out = Subspace(a.owner)
    for ks in sorted(set(a.spans) & set(b.spans)):
        inter = intersect_spans(a.spans[ks], b.spans[ks])
        if inter.dim:
            out.spans[ks] = inter
    return out


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """The sum of two graded subspaces of one module, basis by basis."""
    out = Subspace(a.owner)
    for src in (a, b):
        for el in src.basis_elements():
            out.insert(el)
    return out


def verify_sum_decomposition(a, i: int, j: int) -> dict:
    """S_{i,j}(A) as the (non-direct) sum of the consecutive kernels."""
    a = validate_composition(a, allow_empty=False)
    if j <= i:
        raise ValueError("need j > i")
    big = submodule_S(a, i, j)
    if j == i + 1:
        return {"ok": True, "sum_dim": big.dim, "target_dim": big.dim, "parts": [big.dim]}
    parts = [submodule_S(a, l, l + 1) for l in range(i, j)]
    total = parts[0].kernel()
    for p in parts[1:]:
        total = subspace_sum(total, p.kernel())
    ok = total == big.kernel()
    return {
        "ok": ok,
        "sum_dim": total.dim,
        "target_dim": big.dim,
        "parts": [p.dim for p in parts],
    }


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


def surviving_generator_reference(module, a) -> tuple[int, int] | None:
    """The first generator ``(k, zpow)`` of I_a whose ``poly_class`` in the
    module is nonzero, reducing every generator; None when all vanish."""
    for k, zpow, poly in ideal_generators(a):
        if not module.poly_class(poly).is_zero():
            return k, zpow
    return None


def ideal_rows(module):
    """The reduced ideal rows of every bidegree of a module, dense, sorted by pivot.

    Unit rows and non-unit rows together, i.e. the canonical fully reduced
    echelon form of each ideal slice over the grid ``0 <= k <= kmax + 1``,
    ``0 <= s <= (n-1)k``, written out from ``ideal_part``: every column that
    is neither free nor a row lead is a unit row.
    """
    out = {}
    for k in range(module.kmax + 2):
        for s in range((module.n - 1) * k + 1):
            width = len(enumerate_monomials(module.n, k, s))
            free, rows = module.ideal_part(k, s)
            leads = {min(row): row for row in rows}
            dense = []
            for c in range(width):
                if c in free:
                    continue
                vec = [0] * width
                for t, x in leads.get(c, {c: 1}).items():
                    vec[t] = x
                dense.append(tuple(vec))
            out[(k, s)] = dense
    return out


def ideal_rows_reference(a):
    """Reduced ideal rows of M^A per bidegree, by the plain degree recursion.

    In every bidegree each row of degree k-1 is shifted by each e_j and
    inserted into one ``IntEchelon``, then the generator: no special case
    for monomial rows.  Returns ``{(k, s): dense rows sorted by pivot}``
    for every bidegree with monomials, up to one degree past the top band.
    """
    a = validate_composition(a)
    n = len(a)
    kmax = sum(x - 1 for x in a)
    gens = {(k, k * (n - 1) - zpow): poly for k, zpow, poly in ideal_generators(a)}
    out, prev = {}, {}
    for k in range(kmax + 2):
        cur = {}
        for s in range((n - 1) * k + 1):
            monos = enumerate_monomials(n, k, s)
            if not monos:
                continue
            width = len(monos)
            index = {m: i for i, m in enumerate(monos)}
            ech = IntEchelon(width)
            for j in range(n):
                if ech.dim == width:
                    break
                below = prev.get(s - j)
                if below is None:
                    continue
                prev_monos, prev_ech = below
                cols = [index[m[:j] + (m[j] + 1,) + m[j + 1:]] for m in prev_monos]
                for row in prev_ech.sparse_rows():
                    ech.insert({cols[c]: x for c, x in row.items()})
            gen = gens.get((k, s))
            if gen is not None:
                ech.insert({index[m]: c for m, c in gen.items()})
            cur[s] = (monos, ech)
            out[(k, s)] = dense_rows(ech)
        prev = cur
    return out


def quotient_reference(a):
    """Bases and normal forms of M^A read off ``ideal_rows_reference``.

    Returns ``(rows, bases, nf)``: ``bases[(k, s)]`` lists the monomials at
    non-pivot columns, and ``nf[m]`` is ``((k, s), coords)`` for every
    ambient monomial up to one degree past the top band whose class is
    nonzero, ``None`` otherwise.  A pivot monomial reduces to minus its
    row's free entries over the leading entry.
    """
    n = len(a)
    rows = ideal_rows_reference(a)
    bases, nf = {}, {}
    for (k, s), dense in rows.items():
        monos = enumerate_monomials(n, k, s)
        pivots = [next(c for c, x in enumerate(r) if x) for r in dense]
        free = [c for c in range(len(monos)) if c not in pivots]
        bases[(k, s)] = [monos[c] for c in free]
        for i, c in enumerate(free):
            nf[monos[c]] = ((k, s), tuple(Fraction(int(i == t)) for t in range(len(free))))
        for pc, r in zip(pivots, dense):
            vec = tuple(Fraction(-r[c], r[pc]) for c in free)
            nf[monos[pc]] = ((k, s), vec) if any(vec) else None
    return rows, bases, nf


def reduce_monomial(module, m):
    """Normal form of an ambient monomial: ``(bidegree, coords)`` or None.

    ``coords`` is a dense ``Fraction`` tuple over the piece basis, built
    from ``normal_form`` on every call: the dense reference that the
    integer action tables are checked against.
    """
    red = module.normal_form(m)
    if red is None:
        return None
    ks, entries, den = red
    vec = [Fraction(0)] * len(module.pieces[ks])
    for i, x in entries:
        vec[i] = Fraction(x, den)
    return ks, tuple(vec)


def apply_reference(el: ModuleElement, op) -> ModuleElement:
    """The image of an element, one basis monomial at a time.

    On a fusion module ``op`` is any polynomial, or a variable index j for
    the polynomial e_j: each basis monomial of the element times each
    monomial of ``op`` goes through ``reduce_monomial``.
    On a tensor module ``op`` is an ``op_diag``/``op_factor`` tuple: in each
    basis key, the monomial of every factor that ``op`` acts on is
    multiplied by e_j and reduced in that factor, and the new key is looked
    up in the keys ``tensor_piece_keys`` lists.  No action table is read.
    """
    owner, out = el.owner, {}
    if isinstance(op, int):
        op = variable(owner.n, op)
    for (k, s), vec in el.coords.items():
        if isinstance(owner, TensorModule):
            images = _tensor_key_images(owner, op, k, s)
        else:
            basis = owner.pieces[(k, s)]
            images = {i: _monomial_images(owner, basis[i], op) for i in vec}
        for i, c in vec.items():
            for ks, t, x in images[i]:
                acc = out.setdefault(ks, {})
                acc[t] = acc.get(t, 0) + Fraction(c, el.den) * x
    return element_from_fractions(owner, out)


def element_form(el: ModuleElement) -> tuple[dict, int]:
    """``(coords, den)``, the pair that names an element."""
    return el.coords, el.den


def element_from_fractions(owner, coords: dict) -> ModuleElement:
    """The element with ``{bidegree: {position: int | Fraction}}`` values:
    every value times the lcm of the denominators, over that lcm."""
    den = lcm(*(Fraction(x).denominator for vec in coords.values() for x in vec.values()))
    return ModuleElement(
        owner, {ks: {i: int(x * den) for i, x in vec.items()} for ks, vec in coords.items()}, den
    )


def variable(n: int, j: int) -> dict:
    """The variable e_j as a polynomial in n variables."""
    return {tuple(int(t == j) for t in range(n)): 1}


def _monomial_images(module, b, poly):
    """``(bidegree, position, value)`` terms of the class of ``b * poly``."""
    for pm, pc in poly.items():
        if len(pm) != module.n:
            raise ValueError(f"operator in {len(pm)} variables on a module with {module.n}")
        red = reduce_monomial(module, mono_mul(b, pm))
        if red is not None:
            ks, vec = red
            yield from ((ks, t, pc * x) for t, x in enumerate(vec) if x)


def tensor_piece_keys(owner, k: int, s: int) -> list[tuple]:
    """The basis keys ((k1, s1, i1), (k2, s2, i2)) of piece (k, s) of a
    tensor module, in lexicographic order: the positions the reference
    assigns, listed from the factors alone."""
    first, second = owner.factors
    return sorted(
        ((k1, s1, i1), (k - k1, s - s1, i2))
        for (k1, s1), piece in first.pieces.items()
        if k1 <= k and s1 <= s
        for i1 in range(len(piece))
        for i2 in range(second.dim_piece(k - k1, s - s1))
    )


def _tensor_key_images(owner, op, k, s):
    """Per basis key of (k, s), the ``(bidegree, position, value)`` terms of e_j on it."""
    j = op[-1]
    if op[0] == "factor":
        factors = [op[1]]
    else:
        factors = [m for m, f in enumerate(owner.factors) if j < f.n]
    index = {key: t for t, key in enumerate(tensor_piece_keys(owner, k + 1, s + j))}
    out = []
    for key in tensor_piece_keys(owner, k, s):
        terms = []
        for m in factors:
            f = owner.factors[m]
            km, sm, im = key[m]
            ej = variable(f.n, j)
            for (tk, ts), t, x in _monomial_images(f, f.pieces[(km, sm)][im], ej):
                terms.append(((k + 1, s + j), index[key[:m] + ((tk, ts, t),) + key[m + 1:]], x))
        out.append(terms)
    return out


def _slices(el):
    """An element's bihomogeneous slices, in bidegree order."""
    return [ModuleElement(el.owner, {ks: el.coords[ks]}, el.den) for ks in sorted(el.coords)]


def cyclic_span_reference(owner, ops, seeds) -> Subspace:
    """Smallest graded subspace holding the seeds and closed under ops.

    Breadth-first: every element that grows the span is queued, and each
    queued element is pushed through every operator with
    ``apply_reference``, so no action table is read.  On a fusion module
    the operators may be any polynomials, variables or not, or variable
    indices.
    """
    span = Subspace(owner)
    queue = [piece for seed in seeds for piece in _slices(seed) if span.insert(piece)]
    while queue:
        el = queue.pop()
        for op in ops:
            for piece in _slices(apply_reference(el, op)):
                if span.insert(piece):
                    queue.append(piece)
    return span


# ---------------------------------------------------------------------------
# geometry: the Fraction routes


def det_reference(rows) -> Fraction:
    """Determinant by ``Fraction`` Gaussian elimination with row swaps."""
    n = len(rows)
    rows = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, n):
            if rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


def _laurent_value(x: Laurent, t: Fraction) -> Fraction:
    return sum((c * t**e for e, c in x.coeffs.items()), Fraction(0))


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


def laurent_det_reference(matrix) -> Laurent:
    """Laurent determinant: columns shifted to polynomials, ``Fraction``
    values at ``t = 1..deg+1``, Gaussian determinants, interpolation.  The
    entries are integral, so the interpolated coefficients are integers."""
    size = len(matrix)
    shift, degree_bound, cols = 0, 0, []
    for c in range(size):
        col = [matrix[r][c] for r in range(size)]
        if all(x.is_zero() for x in col):
            return Laurent()
        o = min(x.ord for x in col if not x.is_zero())
        shift += o
        cols.append([x.shift(-o) for x in col])
        degree_bound += max(x.deg for x in cols[-1] if not x.is_zero())
    points = [Fraction(t) for t in range(1, degree_bound + 2)]
    values = [
        det_reference([[_laurent_value(cols[c][r], t) for c in range(size)] for r in range(size)])
        for t in points
    ]
    coeffs = _lagrange(points, values)
    assert all(v.denominator == 1 for v in coeffs.values()), coeffs
    return Laurent({e + shift: int(v) for e, v in coeffs.items()})


def factorization_failure_reference(matrix, cols, exps) -> str | None:
    """Birkhoff certificate for ``M·X = P·diag(y^e)`` that takes ``det X``.

    ``X`` (given by its columns) polynomial in ``1/y``, ``P`` polynomial in
    ``y``, ``det X`` (by interpolation) a nonzero constant and ``sum(e)`` the
    order of ``det M``; returns the first failed condition, or ``None``.
    """
    size = len(matrix)
    x = [[col[r] for col in cols] for r in range(size)]
    if any(e > 0 for row in x for entry in row for e in entry.coeffs):
        return "X is not polynomial in 1/y"
    for row in matrix:
        for col, e in zip(cols, exps):
            entry = Laurent()
            for m, g in zip(row, col):
                entry = entry + m * g
            if any(d < e for d in entry.coeffs):
                return "P is not polynomial in y"
    det_x = laurent_det_reference(x)
    if not (det_x.is_monomial() and det_x.ord == 0):
        return f"det X = {det_x} is not a nonzero constant"
    if sum(exps) != laurent_det_reference(matrix).ord:
        return "exponents do not sum to ord det M"
    return None


class DualNumber:
    """a + b*eps with eps^2 = 0 over Q, for exact forward differentiation."""

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

    def __mul__(self, o):
        o = o if isinstance(o, DualNumber) else DualNumber(o)
        return DualNumber(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self):
        inv = 1 / self.a
        return DualNumber(inv, -self.b * inv * inv)


def invert_reference(coeffs):
    """Inverse series mod t^n by ``y_k = -y_0 sum_{j>=1} x_j y_{k-j}``, over
    ``Fraction`` or ``DualNumber`` coefficients."""
    x0 = coeffs[0]
    y0 = x0.inverse() if isinstance(x0, DualNumber) else 1 / Fraction(x0)
    out = [y0]
    for k in range(1, len(coeffs)):
        acc = coeffs[1] * out[k - 1]
        for j in range(2, k + 1):
            acc = acc + coeffs[j] * out[k - j]
        out.append(-(y0 * acc))
    return out


def jacobian_reference(xpt):
    """``jac[j][k] = d y_k / d x_j`` of series inversion, by dual numbers."""
    jac = []
    for j in range(len(xpt)):
        duals = [DualNumber(x, 1 if idx == j else 0) for idx, x in enumerate(xpt)]
        jac.append([c.b for c in invert_reference(duals)])
    return jac


def _field_value(field, point):
    out = [Fraction(0)] * field.n
    for i, poly in field.comps.items():
        for m, c in poly.items():
            v = Fraction(c)
            for x, e in zip(point, m):
                v *= x**e
            out[i] += v
    return out


def _mono(n: int, pairs: dict | None = None) -> tuple:
    m = [0] * n
    for i, e in (pairs or {}).items():
        m[i] = e
    return tuple(m)


def primed_field_reference(n: int, kind: str, i: int) -> PolyVectorField:
    """The primed frame written out explicitly, field by field.

    e'_i = d/dx_i, h'_i = -2 sum_{j>=1} x_j d/dx_{i+j-1},
    f'_i = - sum_{j>=1} (sum_{a+b=j+1, a,b>=1} x_a x_b) d/dx_{i+j-1} and
    L'_i = sum_{j>=1} j x_{j+1} d/dx_{i+j}, for i >= 1 (L' below n-2, the
    others below n); other indices give the zero field.
    """
    zero = PolyVectorField(n)
    if kind not in ("e", "h", "f", "L"):
        raise ValueError(f"unknown field kind {kind!r}")
    if not 1 <= i <= n - 1 - (kind == "L"):
        return zero
    if kind == "e":
        return PolyVectorField(n, {i: {_mono(n): 1}})
    if kind == "h":
        return PolyVectorField(
            n, {i + j - 1: {_mono(n, {j: 1}): -2} for j in range(1, n - i + 1)}
        )
    if kind == "L":
        return PolyVectorField(
            n, {i + j: {_mono(n, {j + 1: 1}): j} for j in range(1, n - i)}
        )
    comps: dict = {}
    for j in range(1, n - i + 1):
        acc: dict = {}
        for al in range(1, j + 1):
            be = j + 1 - al
            if al == be:
                m = _mono(n, {al: 2})
            else:
                m = tuple((1 if t == al else 0) + (1 if t == be else 0) for t in range(n))
            acc[m] = acc.get(m, 0) - 1
        comps[i + j - 1] = acc
    return PolyVectorField(n, comps)


def chart_change_failures_reference(n, samples, seed, expansion, key):
    """The chart sampler over ``Fraction``: the same draws, each field (from
    ``primed_field_reference``) pushed through the inversion as
    ``-y(t)^2 V(t)`` and compared with its y-frame expansion evaluated at
    ``y_0``.  Returns every failure, untruncated."""
    labels = primed_labels(n)
    fields = {lab: primed_field_reference(n, *lab) for lab in labels}
    rng = Random(seed)
    failures = []
    for _ in range(samples):
        xpt = rational_point(rng, n)
        ypt = invert_reference(xpt)
        ysq = [sum(ypt[j] * ypt[k - j] for j in range(k + 1)) for k in range(n)]
        yvals = {lab: _field_value(f, ypt) for lab, f in fields.items()}
        for lab in labels:
            v = _field_value(fields[lab], xpt)
            pushed = [-sum(ysq[j] * v[k - j] for j in range(k + 1)) for k in range(n)]
            rhs = [Fraction(0)] * n
            for tk, ti, coeff in expansion(*lab):
                if (tk, ti) in yvals:
                    cval = _laurent_value(coeff, ypt[0])
                    rhs = [r + cval * t for r, t in zip(rhs, yvals[(tk, ti)])]
            if pushed != rhs:
                failures.append({key: lab, "point": [str(x) for x in xpt]})
    return failures


# ---------------------------------------------------------------------------
# dual: the constraint rows as a list, the row-by-row membership test,
# every degree solved, and the expanding shuffle route


def constraint_rows(a: tuple, s: int, d: int, basis: list[tuple]) -> list[dict]:
    """Divisibility constraints on the degree-d slice at s variables, as the
    list of the maps the kernel reads from ``_SliceRows``.

    One row per (i, m, tau) with 1 <= i <= s, m < N_A(i) and tau a partition
    of d - m fitting in the trailing s - i slots: the coefficient of
    z^m * (tail monomial of shape tau) after the substitution must vanish.
    Rows are ``{column: coeff}`` maps over ``basis``, which must be
    ``partitions_bounded(d, s, len(a) - 1)``.
    """
    canonical = partitions_bounded(d, s, len(a) - 1)
    if basis is not canonical and list(basis) != canonical:
        raise ValueError("basis must be partitions_bounded(d, s, len(a) - 1)")
    return list(_SliceRows(len(a), _exponents(tuple(a), s), s, d))


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
        vec = _degree_row(h, d, n - 1)
        for row in _SliceRows(n, caps, s, d):
            if sum(x * vec[c] for c, x in row.items() if c in vec):
                return False
    return True


def dual_by_degree_reference(a: tuple, s: int) -> dict:
    """``DualSpace(a, s).by_degree`` with every degree solved from scratch:
    no predecessor is read, so no slice is skipped by the restriction rule."""
    n = len(a)
    caps = _exponents(a, s)
    by_degree = {}
    for d in range(s * max(n - 1, 0) + 1):
        basis = partitions_bounded(d, s, n - 1)
        if not basis:
            continue
        kern = kernel_basis(_SliceRows(n, caps, s, d), len(basis))
        if kern:
            by_degree[d] = {"basis": basis, "solutions": kern}
    return by_degree


def dual_dimension_table_unmirrored(a) -> dict:
    """``dual_dimension_table(a)`` with every variable count solved, the
    upper half included, where the table mirrors s > N/2 from its lower half."""
    a = validate_composition(a)
    table = {}
    for s in range(sum(x - 1 for x in a) + 1):
        space = _dual_space(a, s)
        for d in sorted(space.by_degree):
            table[(s, d)] = space.dim_degree(d)
    return table


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


def expand(p: SymPoly) -> dict:
    """Full monomial dict of a symmetric polynomial: exponent tuple -> coefficient."""
    out: dict = {}
    for lam, c in p.coeffs.items():
        padded = lam + (0,) * (p.nvars - len(lam))
        for perm in _distinct_permutations(padded):
            out[perm] = out.get(perm, 0) + c
    return out


def from_monomials(nvars: int, monos: dict) -> SymPoly:
    """Collect a symmetric monomial dict; raises if it is not symmetric."""
    coeffs: dict = {}
    for mono, c in monos.items():
        lam = tuple(sorted((p for p in mono if p), reverse=True))
        if mono == lam + (0,) * (nvars - len(lam)):
            coeffs[lam] = c
    sym = SymPoly(nvars, coeffs)
    if expand(sym) != {m: c for m, c in monos.items() if c}:
        raise ValueError("monomial dict is not symmetric")
    return sym


def _integer_terms(monos: dict) -> tuple[int, list]:
    """``(D, [(mono, D * c)])`` with D the lcm of the coefficient denominators."""
    den = lcm(1, *(c.denominator for c in monos.values()))
    return den, [(m, c.numerator * (den // c.denominator)) for m, c in monos.items()]


def shuffle_reference(f: SymPoly, g: SymPoly) -> SymPoly:
    """Sum of f(z_sigma) g(z_tau) over all order-preserving interleavings.

    Both factors are expanded into monomials and every term pair is placed
    on every choice of the s_1 positions of f.  The coefficients are
    integers: the factors' common denominator is asserted to be 1.
    """
    s1, s2 = f.nvars, g.nvars
    s = s1 + s2
    fden, fm = _integer_terms(expand(f))
    gden, gm = _integer_terms(expand(g))
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
    assert fden * gden == 1, (fden, gden)
    return from_monomials(s, {m: c for m, c in monos.items() if c})
