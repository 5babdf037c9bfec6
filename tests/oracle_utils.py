"""Independent oracles shared by the test modules.

These never call the code paths they are checking: the splitting oracle
counts section spaces of twists straight from the matrix entries, the
planted-matrix generator produces inputs whose answer is known by
construction, and the reference kernel is read off the dense ``rref``.
"""

from fractions import Fraction
from random import Random

from slfusion.laurent import Laurent
from slfusion.linalg import IntEchelon, rref, scale_to_int


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
        vec = scale_to_int(row)
        if vec is not None:
            ech.insert(vec)
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


def scrambled_diagonal(rng: Random, size: int, ops: int, spread: int = 2):
    """A matrix with known splitting: a diagonal hit by random legal moves."""
    diag = sorted((rng.randint(-spread, spread) for _ in range(size)), reverse=True)
    mat = [[Laurent() for _ in range(size)] for _ in range(size)]
    for i, d in enumerate(diag):
        mat[i][i] = Laurent.term(rng.choice([1, -1, 2]), d)
    for _ in range(ops):
        a, b = rng.sample(range(size), 2)
        if rng.random() < 0.5:
            mult = Laurent.term(Fraction(rng.randint(-2, 2)), rng.randint(0, 1))
            if mult.is_zero():
                continue
            for c in range(size):
                mat[a][c] = mat[a][c] + mult * mat[b][c]
        else:
            mult = Laurent.term(Fraction(rng.randint(-2, 2)), -rng.randint(0, 1))
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
