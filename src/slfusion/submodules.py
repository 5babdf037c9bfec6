"""Kernels of the one-unit-move surjections and their three descriptions.

Moving one unit from slot i to slot j of a composition weakens the defining
relations, so the monomial-class map M^A -> M^{A_{i,j}} is a well-defined
surjection of bigraded modules.  ``QuotientMap`` is the one object for a
move: building it certifies the map and its kernel S_{i,j}(A).  The kernel
is studied here three ways: through explicit generators (slices of powers of
the generating polynomial applied to the cyclic vector), through a peeling
filtration whose layers are smaller modules of the same family, and through
spans inside tensor products of smaller modules.  User input takes only the
moves that ``move_rejection`` passes: positive, sorted target labels.

All comparisons are bigraded-character equalities together with explicit
span and rank computations; isomorphisms are never assumed.  Cross-module
comparisons record the aligning global shift (du, dq), since a submodule
carries the ambient grading while a standalone module starts at (0, 0).
"""

from __future__ import annotations

from math import prod

from slfusion.linalg import (
    IntegrityError,
    IntEchelon,
    kernel_basis,  # no caller here: perfbench/tracing.py patches this name
)
from slfusion.modules import (
    GradedCharacter,
    ModuleElement,
    Subspace,
    TensorModule,
    cyclic_span,
    fusion_module,
    generating_slice,
    label_character,
    label_module,
    match_characters,
    relation_exponent,
    validate_composition,
)


def move_composition(a, i: int, j: int) -> tuple:
    """A_{i,j}: subtract 1 at slot i, add 1 at slot j (1-based, i < j)."""
    a = validate_composition(a, allow_empty=False)
    n = len(a)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    out = list(a)
    out[i - 1] -= 1
    out[j - 1] += 1
    return tuple(out)


def _move_slot(a, i: int) -> tuple[tuple, int]:
    """``(a, len(a))`` for a nonempty composition with a move slot 1 <= i < len(a)."""
    a = validate_composition(a, allow_empty=False)
    if not 1 <= i < len(a):
        raise ValueError(f"need 1 <= i < {len(a)}")
    return a, len(a)


def eq_first_dim(a, i: int) -> int:
    """Kernel dimension for the adjacent move (i, i+1)."""
    rest = prod(x for l, x in enumerate(a, start=1) if l not in (i, i + 1))
    return rest * (a[i] - a[i - 1] + 1)


def move_rejection(a, i: int, j: int) -> str | None:
    """Why user input may not name the move (i, j) on ``a``, or None: the
    target label must be positive and sorted.  The library takes any move."""
    target = move_composition(a, i, j)
    if min(target) < 1:
        return "move produces a nonpositive entry"
    if any(x > y for x, y in zip(target, target[1:])):
        return f"move ({i},{j}) on {tuple(a)} gives the unsorted label {target}"
    return None


class QuotientMap:
    """The move surjection M^A -> M^{A_{i,j}} and its kernel S_{i,j}(A).

    Building it runs four gates.  Well-definedness: every generator of the
    source ideal reduces to zero in the target (``surviving_generator``,
    which skips the bidegrees where the target piece is zero).  Since I_A
    lies in I_{A_{i,j}} in every bidegree, with the same column order, the
    target basis is a subset of the source basis, and the kernel is read off
    in closed form: each other source basis monomial m gives the row
    ``den*e_m - sum(x * e_col(c))`` from its target normal form, one sparse
    integer row per kernel dimension.  Surjectivity: every target basis
    monomial is in the source basis with its own unit vector as normal form,
    and they count up to the target dimension.  Closure: the kernel is
    closed under every e_l.  Dimension: for an adjacent move the kernel has
    dimension ``eq_first_dim``.

    The target is ``label_module(target_label)``: an unsorted label names
    the ring of its sorted label, and a zero entry names the zero module,
    which has no pieces: every source basis monomial is then a unit kernel
    row, nothing is covered and no generator is reduced.
    """

    def __init__(self, a, i: int, j: int):
        self.a = validate_composition(a, allow_empty=False)
        self.move = (i, j)
        self.target_label = target_label = move_composition(self.a, i, j)
        self.source = fusion_module(self.a)
        self.target = target = label_module(target_label)
        found = target.surviving_generator(self.a)
        if found is not None:
            raise IntegrityError(
                f"map {self.a} -> {target.a} not well defined: "
                f"source relation at degree {found[0]}, z^{found[1]} survives"
            )
        self._kernel = Subspace(self.source)
        covered = 0
        for ks, piece in self.source.pieces.items():
            col = {m: r for r, m in enumerate(piece)}
            image_cols = []
            for t, m in enumerate(target.pieces.get(ks, ())):
                r = col.get(m)
                if r is None or target.normal_form(m) != (ks, ((t, 1),), 1):
                    raise IntegrityError(
                        f"map {self.a} -> {target.a} not surjective at {ks}"
                    )
                image_cols.append(r)
            covered += len(image_cols)
            if len(image_cols) == len(piece):
                continue
            images = set(image_cols)
            ech = self._kernel.spans[ks] = IntEchelon(len(piece))
            for r, m in enumerate(piece):
                if r in images:
                    continue
                # a monomial of the target ideal has the zero class
                _, entries, den = target.normal_form(m) or (ks, (), 1)
                row = {image_cols[t]: -x for t, x in entries}
                row[r] = den
                ech.insert(row)
        if covered != target.total_dim:
            raise IntegrityError(f"map {self.a} -> {target.a} not surjective")
        kernel = self.kernel()
        for l in range(self.source.n):
            if not kernel.closed_under(l):
                raise IntegrityError(
                    f"kernel of {self.a} move {self.move} not closed under e_{l}"
                )
        if j == i + 1 and kernel.dim != eq_first_dim(self.a, i):
            raise IntegrityError(
                f"kernel dim for {self.a} move {self.move}: got {kernel.dim}, "
                f"formula gives {eq_first_dim(self.a, i)}"
            )

    def kernel(self) -> Subspace:
        """The kernel S_{i,j}(A) as a subspace of the source module."""
        return self._kernel

    @property
    def dim(self) -> int:
        return self.kernel().dim

    def character(self) -> GradedCharacter:
        return self.kernel().character()


_MAP_CACHE: dict[tuple, QuotientMap] = {}


def submodule_S(a, i: int, j: int | None = None) -> QuotientMap:
    """S_{i,j}(A): the kernel of the move surjection (default j = i+1).

    Memoized per move, as ``fusion_module`` memoizes modules: a map is
    immutable once built, and no caller edits its kernel.  A memoized map
    whose source is no longer the memoized module of A is built again, so
    its kernel stays comparable with subspaces of ``fusion_module(a)``.
    """
    key = (validate_composition(a, allow_empty=False), i, i + 1 if j is None else j)
    qmap = _MAP_CACHE.get(key)
    if qmap is None or qmap.source is not fusion_module(key[0]):
        qmap = _MAP_CACHE[key] = QuotientMap(*key)
    return qmap


def generators_w(a, i: int) -> list[ModuleElement]:
    """The kernel generators w_j = [E(z)^j at z^{N_A(j)}] v_A, j = a_i-1 .. a_{i+1}-1.

    For j = 0 the slice is the constant 1, so w_0 is the cyclic vector.
    """
    a, n = _move_slot(a, i)
    mod = fusion_module(a)
    out = []
    for j in range(a[i - 1] - 1, a[i]):
        out.append(mod.poly_class(generating_slice(n, j, relation_exponent(a, j))))
    return out


def verify_w_generators(sub: QuotientMap) -> dict:
    """Check that the span of the w_j under all of e_0..e_{n-1} is the kernel.

    ``membership`` reads each w_j off the kernel's own spans; span equality
    already implies that every w_j lies in the kernel."""
    ws = generators_w(sub.a, sub.move[0])
    kernel = sub.kernel()
    membership = [kernel.contains(w) for w in ws]
    span = cyclic_span(sub.source, range(sub.source.n), ws)
    return {"ok": span == kernel, "membership": membership, "span_dim": span.dim}


# ---------------------------------------------------------------------------
# the peeling filtration


def _peel_label(b: tuple, i: int) -> tuple:
    """Label of the layer split off at a filtration step (length n-2)."""
    return b[: i - 2] + (b[i - 2] - b[i - 1] + b[i],) + b[i + 1 :]


def _stop_rule(b: tuple, i: int) -> tuple | None:
    """(rule, layer label) when the recursion bottoms out, else None."""
    if all(x == 1 for x in b[: i - 1]):
        return (1, (b[i] - b[i - 1] + 1,) + b[i + 1 :])
    if b[i - 1] == b[i]:
        return (2, b[: i - 1] + b[i + 1 :])
    return None


def verify_filtration(a, i: int) -> dict:
    """Run the full peeling chain for S_{i,i+1}(A) and verify every layer.

    ``layers`` has one entry ``{composition, action, label, dim, shift}``
    per step: the step's composition B, ``"peel"`` or ``"stop-rule-{rule}"``,
    and the label, dimension and aligning shift of the layer split off.  A
    peel checks that the span of the lowest w generator lies in the kernel
    and has the layer's character, and that the quotient character is the
    kernel character of the moved composition; a stop rule checks the
    kernel's own character.  Layer dimensions must telescope to dim M^A.
    """
    a, n = _move_slot(a, i)
    mod = fusion_module(a)
    coker_label = move_composition(a, i, i + 1)
    layers = []
    ok = True
    b = a
    sub = submodule_S(b, i)
    while True:
        stop = _stop_rule(b, i)
        if stop is None:
            # peel the span of the lowest w generator
            span = cyclic_span(fusion_module(b), range(n), generators_w(b, i)[:1])
            b_next = tuple(sorted(move_composition(b, i - 1, i)))
            sub_next = submodule_S(b_next, i)
            # the quotient exists only for a span inside the kernel
            good = sub.kernel().includes(span) and match_characters(
                sub.character() - span.character(), sub_next.character(), reindex=0
            )[0]
            action, label, layer = "peel", _peel_label(b, i), span
        else:
            rule, label = stop
            action, layer, good = f"stop-rule-{rule}", sub, True
        layer_char = label_character(label)
        layer_ok, shift = match_characters(layer.character(), layer_char, reindex=0)
        ok = ok and good and layer_ok
        layers.append(
            {"composition": b, "action": action, "label": label, "dim": layer_char.total(), "shift": shift}
        )
        if stop is not None:
            break
        b, sub = b_next, sub_next
    coker_dim = prod(coker_label)
    total = sum(l["dim"] for l in layers) + coker_dim
    telescoped = total == mod.total_dim
    return {
        "ok": ok and telescoped,
        "layers": layers,
        "cokernel": {"label": coker_label, "dim": coker_dim},
        "telescoped": telescoped,
        "total": total,
        "dim": mod.total_dim,
    }


# ---------------------------------------------------------------------------
# tensor-product descriptions


def _span_vs_kernel(a, i: int, factor1: tuple, factor2: tuple) -> dict:
    """Common core of the two tensor descriptions of S_{i,i+1}(A).

    Spans v (x) v inside M^{factor1} (x) M^{factor2} under the diagonal
    operators e_0..e_{n-3} plus the top second-factor operator, then compares
    characters with the kernel up to a recorded global shift.
    """
    n = len(a)
    m1 = fusion_module(factor1)
    m2 = fusion_module(factor2)
    tens = TensorModule([m1, m2])
    ops = [tens.op_diag(jj) for jj in range(n - 2) if any(jj < f.n for f in tens.factors)]
    ops.append(tens.op_factor(1, n - i - 1))
    sub = submodule_S(a, i)
    span = cyclic_span(tens, ops, [tens.cyclic_tensor()], max_dim=2 * sub.dim)
    good, shift = match_characters(sub.character(), span.character(), reindex=0)
    # the second-factor string has exactly a_{i+1} - a_i + 1 rungs
    gap = a[i] - a[i - 1]
    el = tens.cyclic_tensor()
    estring = tens.op_factor(1, n - i - 1)
    for _ in range(gap):
        el = el.apply(estring)
    string_ok = (not el.is_zero()) and el.apply(estring).is_zero()
    return {
        "ok": good and span.dim == sub.dim and string_ok,
        "factors": (factor1, factor2),
        "span_dim": span.dim,
        "kernel_dim": sub.dim,
        "shift": shift,
        "string_ok": string_ok,
    }


def verify_second_description(a, i: int) -> dict:
    """Tensor-product description with a constant tail in the first factor."""
    a, n = _move_slot(a, i)
    if a[i - 1] >= a[i]:
        raise ValueError("needs a_i < a_{i+1}")
    factor1 = a[: i - 1] + (a[i - 1],) * (n - i - 1)
    factor2 = tuple(a[l] - a[i - 1] + 1 for l in range(i, n))
    return _span_vs_kernel(a, i, factor1, factor2)


def verify_emb(a, i: int) -> dict:
    """Tensor-product description with strictly increasing factors."""
    a, n = _move_slot(a, i)
    if any(x >= y for x, y in zip(a, a[1:])):
        raise ValueError("requires a strictly increasing composition")
    for j in range(i + 1, n):
        if a[j] - a[j - 1] <= 1:
            raise ValueError(f"gap at position {j + 1} must exceed 1")
    factor1 = a[: i - 1] + tuple(a[i - 1] + l for l in range(1, n - i))
    factor2 = (a[i] - a[i - 1] + 1,) + tuple(
        a[i + l - 1] - a[i - 1] - (l - 2) for l in range(2, n - i + 1)
    )
    return _span_vs_kernel(a, i, factor1, factor2)


def verify_inductive_description(a, i: int) -> dict:
    """Reduce S_{i,i+1}(A) to the same kernel for the shortened composition.

    For i < n-1 the kernel of A is the e_0-span of the reindexed kernel of
    (a_1..a_{n-1}); this is asserted as actual subspace equality.  For
    i = n-1 the kernel character matches the tensor product of
    M^{(a_1..a_{n-2})} with the e_0-string of length a_n - a_{n-1} + 1.
    """
    a = validate_composition(a, allow_empty=False)
    n = len(a)
    if n < 2 or not 1 <= i < n:
        raise ValueError("need n >= 2 and 1 <= i < n")
    if i < n - 1:
        short = a[:-1]
        sub_short = submodule_S(short, i)
        mod = fusion_module(a)
        seeds = []
        for el in sub_short.kernel().basis_elements():
            shifted = {(0,) + m: c for m, c in el.representative().items()}
            image = mod.poly_class(shifted)
            if image.is_zero():
                raise IntegrityError("reindexed kernel element vanished upstairs")
            seeds.append(image)
        span = cyclic_span(mod, [0], seeds)
        sub = submodule_S(a, i)
        ok = span == sub.kernel()
        return {
            "ok": ok,
            "mode": "e0-span",
            "span_dim": span.dim,
            "kernel_dim": sub.dim,
        }
    # i = n-1: compare with M^{(a_1..a_{n-2})} tensor an e_0-string
    m1 = fusion_module(a[: n - 2])
    m2 = fusion_module((a[n - 1] - a[n - 2] + 1,))
    tens = TensorModule([m1, m2])
    ops = [tens.op_factor(0, j) for j in range(m1.n)]
    ops.append(tens.op_factor(1, 0))
    span = cyclic_span(tens, ops, [tens.cyclic_tensor()])
    sub = submodule_S(a, i)
    if span.dim != tens.total_dim:
        raise IntegrityError("factor operators fail to fill the tensor product")
    ok, shift = match_characters(sub.character(), span.character(), reindex=0)
    return {
        "ok": ok and span.dim == sub.dim,
        "mode": "string-tensor",
        "span_dim": span.dim,
        "kernel_dim": sub.dim,
        "shift": shift,
    }


def nilpotency_e1(a) -> dict:
    """Measure the nilpotency order of e_1 on the cyclic vector.

    The stated closed form sum(a_1..a_{n-1}) - n + 1 is checked against the
    measured order and the deviation, if any, is reported rather than
    asserted; the measured last nonzero power is also confirmed to be killed
    by one more application.
    """
    a = validate_composition(a, allow_empty=False)
    n = len(a)
    if n < 2:
        raise ValueError("need at least two entries")
    mod = fusion_module(a)
    el = mod.cyclic_vector()
    measured = 0
    while not el.is_zero():
        if measured > mod.kmax + 1:
            raise IntegrityError("e_1 fails to act nilpotently")
        el = el.apply(1)
        measured += 1
    formula = sum(a[: n - 1]) - n + 1
    return {
        "measured": measured,
        "formula": formula,
        "deviation": measured - formula,
        # e_1 of the last nonzero power is the loop's final element
        "kills_last": el.is_zero(),
    }


def verify_exactness(sub: QuotientMap) -> dict:
    """Character additivity along the kernel/image split of the move map."""
    ok = sub.source.character() == sub.character() + sub.target.character()
    return {"ok": ok, "kernel_dim": sub.dim}
