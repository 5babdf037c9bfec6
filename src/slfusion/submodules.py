"""Kernels of the one-unit-move surjections and their three descriptions.

Moving one unit from slot i to slot j of a composition weakens the defining
relations, so the monomial-class map M^A -> M^{A_{i,j}} is a well-defined
surjection of bigraded modules.  Its kernel S_{i,j}(A) is studied here three
ways: through explicit generators (slices of powers of the generating
polynomial applied to the cyclic vector), through a peeling filtration whose
layers are smaller modules of the same family, and through spans inside
tensor products of smaller modules.

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
    FusionModule,
    GradedCharacter,
    ModuleElement,
    Subspace,
    TensorModule,
    cyclic_span,
    fusion_module,
    generating_slice,
    label_character,
    match_characters,
    relation_exponent,
    subspace_sum,
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


def eq_first_dim(a, i: int) -> int:
    """Kernel dimension for the adjacent move (i, i+1)."""
    rest = prod(x for l, x in enumerate(a, start=1) if l not in (i, i + 1))
    return rest * (a[i] - a[i - 1] + 1)


class QuotientMap:
    """The bidegree-preserving monomial-class surjection M^A -> M^{A_{i,j}}.

    Well-definedness is certified by reducing every generator of the source
    ideal to zero in the target (``surviving_generator``, which skips the
    bidegrees where the target piece is zero).  Since I_A lies in
    I_{A_{i,j}} in every bidegree, with the same column order, the target
    basis is a subset of the source basis, and the kernel is read off in
    closed form: each other source basis monomial m gives the row
    ``den*e_m - sum(x * e_col(c))`` from its target normal form, one sparse
    integer row per kernel dimension.  Surjectivity is certified by finding
    every target basis monomial in the source basis with its own unit vector
    as normal form, and by counting them up to the target dimension.  No
    elimination runs here; the rows are kept per bidegree for ``kernel``.

    With ``strict=False`` a move may put a zero entry in the target label,
    which names the zero module: it has no pieces, so every source basis
    monomial is a unit kernel row, nothing is covered and no generator is
    reduced.
    """

    def __init__(self, a, i: int, j: int, strict: bool = True):
        self.a = validate_composition(a, allow_empty=False)
        self.move = (i, j)
        target_label = move_composition(self.a, i, j)
        if strict and min(target_label) < 1:
            raise ValueError("move produces a nonpositive entry")
        if strict and any(x > y for x, y in zip(target_label, target_label[1:])):
            raise ValueError(
                f"move ({i},{j}) on {self.a} gives the unsorted label {target_label}"
            )
        # the defining ideal only depends on the multiset of entries, so the
        # sorted label names the same quotient ring
        self.target_label = target_label
        self.source = fusion_module(self.a)
        self.target = (
            fusion_module(tuple(sorted(target_label)))
            if min(target_label)
            else FusionModule.zero_module(target_label)
        )
        self._certify_well_defined()
        self.kernels: dict = {}
        target = self.target
        covered = 0
        for ks, piece in self.source.pieces.items():
            if not piece.dim:
                continue
            col = {m: r for r, m in enumerate(piece.basis)}
            tpiece = target.piece(*ks)
            image_cols = []
            for t, m in enumerate(tpiece.basis if tpiece else ()):
                r = col.get(m)
                if r is None or target.normal_form(m) != (ks, ((t, 1),), 1):
                    raise IntegrityError(
                        f"map {self.a} -> {target.a} not surjective at {ks}"
                    )
                image_cols.append(r)
            covered += len(image_cols)
            images = set(image_cols)
            rows = []
            for r, m in enumerate(piece.basis):
                if r in images:
                    continue
                red = target.normal_form(m)
                if red is None:
                    rows.append({r: 1})
                    continue
                row = {image_cols[t]: -x for t, x in red[1]}
                row[r] = red[2]
                rows.append(row)
            if rows:
                self.kernels[ks] = rows
        if covered != target.total_dim:
            raise IntegrityError(f"map {self.a} -> {target.a} not surjective")

    def _certify_well_defined(self) -> None:
        found = self.target.surviving_generator(self.a)
        if found is not None:
            k, zpow = found
            raise IntegrityError(
                f"map {self.a} -> {self.target.a} not well defined: "
                f"source relation at degree {k}, z^{zpow} survives"
            )

    def apply(self, el: ModuleElement) -> ModuleElement:
        if el.owner is not self.source:
            raise ValueError("element does not live in the source module")
        return self.target.poly_class(el.representative())

    def kernel(self) -> Subspace:
        sub = Subspace(self.source)
        for ks, rows in self.kernels.items():
            ech = sub.spans[ks] = IntEchelon(self.source.dim_piece(*ks))
            for row in rows:
                ech.insert(row)
        return sub


class Submodule:
    """A kernel S_{i,j}(A) inside its parent module, closed under all e_l."""

    def __init__(self, a, move, parent, subspace, qmap: QuotientMap):
        self.a = a
        self.move = move
        self.parent = parent
        self.subspace = subspace
        self.qmap = qmap
        self._certify_closure()
        i, j = move
        if j == i + 1:
            expected = eq_first_dim(a, i)
            if self.dim != expected:
                raise IntegrityError(
                    f"kernel dim for {a} move {move}: got {self.dim}, "
                    f"formula gives {expected}"
                )

    @classmethod
    def from_map(cls, qmap: QuotientMap) -> "Submodule":
        return cls(qmap.a, qmap.move, qmap.source, qmap.kernel(), qmap)

    def _certify_closure(self) -> None:
        for l in range(self.parent.n):
            if not self.subspace.closed_under(l):
                raise IntegrityError(
                    f"kernel of {self.a} move {self.move} not closed under e_{l}"
                )

    def map_image_is_zero(self, el) -> bool:
        return self.qmap.apply(el).is_zero()

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def character(self) -> GradedCharacter:
        return self.subspace.character()

    def __repr__(self):
        return f"Submodule(a={self.a}, move={self.move}, dim={self.dim})"


def submodule_S(a, i: int, j: int | None = None, strict: bool = True) -> Submodule:
    """S_{i,j}(A): the kernel of the move surjection (default j = i+1)."""
    if j is None:
        j = i + 1
    return Submodule.from_map(QuotientMap(a, i, j, strict=strict))


def generators_w(a, i: int) -> list[ModuleElement]:
    """The kernel generators w_j = [E(z)^j at z^{N_A(j)}] v_A, j = a_i-1 .. a_{i+1}-1.

    For j = 0 the slice is the constant 1, so w_0 is the cyclic vector.
    """
    a = validate_composition(a, allow_empty=False)
    n = len(a)
    if not 1 <= i < n:
        raise ValueError(f"need 1 <= i < {n}")
    mod = fusion_module(a)
    out = []
    for j in range(a[i - 1] - 1, a[i]):
        out.append(mod.poly_class(generating_slice(n, j, relation_exponent(a, j))))
    return out


def span_of_w(a, i: int) -> Subspace:
    """Span of the w generators under all of e_0..e_{n-1}."""
    mod = fusion_module(validate_composition(a))
    return cyclic_span(mod, range(mod.n), generators_w(a, i))


def verify_w_generators(sub: Submodule) -> dict:
    """Check kernel membership of every w_j and that their span is the kernel."""
    i = sub.move[0]
    membership = [sub.map_image_is_zero(w) for w in generators_w(sub.a, i)]
    span = span_of_w(sub.a, i)
    ok = all(membership) and span == sub.subspace
    return {
        "ok": ok,
        "membership": membership,
        "span_dim": span.dim,
        "kernel_dim": sub.dim,
    }


def verify_sum_decomposition(a, i: int, j: int) -> dict:
    """S_{i,j}(A) as the (non-direct) sum of the consecutive kernels."""
    a = validate_composition(a, allow_empty=False)
    if j <= i:
        raise ValueError("need j > i")
    big = submodule_S(a, i, j, strict=False)
    if j == i + 1:
        return {"ok": True, "sum_dim": big.dim, "target_dim": big.dim, "parts": [big.dim]}
    parts = [submodule_S(a, l, l + 1, strict=False) for l in range(i, j)]
    total = parts[0].subspace
    for p in parts[1:]:
        total = subspace_sum(total, p.subspace)
    ok = total == big.subspace
    return {
        "ok": ok,
        "sum_dim": total.dim,
        "target_dim": big.dim,
        "parts": [p.dim for p in parts],
    }


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

    Each recursive step checks that the span of the lowest w generator has
    the character of the predicted smaller module (up to the recorded shift)
    and that the quotient character equals the kernel character of the moved
    composition; the chain ends at one of the two bottoming rules.  Layer
    dimensions must telescope to dim M^A.
    """
    a = validate_composition(a, allow_empty=False)
    n = len(a)
    if not 1 <= i < n:
        raise ValueError(f"need 1 <= i < {n}")
    mod = fusion_module(a)
    coker_label = move_composition(a, i, i + 1)
    steps = []
    layers = []
    ok = True
    b = a
    sub = submodule_S(b, i, strict=False)
    while True:
        stop = _stop_rule(b, i)
        if stop is not None:
            rule, label = stop
            layer_char = label_character(label)
            good, shift = match_characters(sub.character(), layer_char, reindex=0)
            ok = ok and good
            layers.append({"label": label, "dim": layer_char.total(), "shift": shift})
            steps.append(
                {
                    "composition": b,
                    "action": f"stop-rule-{rule}",
                    "label": label,
                    "ok": good,
                    "shift": shift,
                }
            )
            break
        # recursive step: peel the span of the lowest w generator
        w = generators_w(b, i)[0]
        bmod = fusion_module(b)
        span = cyclic_span(bmod, range(n), [w])
        contained = sub.subspace.includes(span)
        label = _peel_label(b, i)
        layer_char = label_character(label)
        good1, shift1 = match_characters(span.character(), layer_char, reindex=0)
        b_next = tuple(sorted(move_composition(b, i - 1, i)))
        sub_next = submodule_S(b_next, i, strict=False)
        quot_char = sub.character() - span.character()
        good2, shift2 = match_characters(quot_char, sub_next.character(), reindex=0)
        good = contained and good1 and good2
        ok = ok and good
        layers.append({"label": label, "dim": layer_char.total(), "shift": shift1})
        steps.append(
            {
                "composition": b,
                "action": "peel",
                "label": label,
                "ok": good,
                "span_contained": contained,
                "span_shift": shift1,
                "quotient_shift": shift2,
                "next": b_next,
            }
        )
        b, sub = b_next, sub_next
    coker_dim = prod(coker_label)
    total = sum(l["dim"] for l in layers) + coker_dim
    telescoped = total == mod.total_dim
    return {
        "ok": ok and telescoped,
        "a": a,
        "i": i,
        "layers": layers,
        "cokernel": {"label": coker_label, "dim": coker_dim},
        "telescoped": telescoped,
        "total": total,
        "dim": mod.total_dim,
        "steps": steps,
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
    sub = submodule_S(a, i, strict=False)
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
    a = validate_composition(a, allow_empty=False)
    n = len(a)
    if not 1 <= i < n:
        raise ValueError(f"need 1 <= i < {n}")
    if a[i - 1] >= a[i]:
        raise ValueError("needs a_i < a_{i+1}")
    factor1 = a[: i - 1] + (a[i - 1],) * (n - i - 1)
    factor2 = tuple(a[l] - a[i - 1] + 1 for l in range(i, n))
    return _span_vs_kernel(a, i, factor1, factor2)


def verify_emb(a, i: int) -> dict:
    """Tensor-product description with strictly increasing factors."""
    a = validate_composition(a, allow_empty=False)
    n = len(a)
    if not 1 <= i < n:
        raise ValueError(f"need 1 <= i < {n}")
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
        sub_short = submodule_S(short, i, strict=False)
        mod = fusion_module(a)
        seeds = []
        for el in sub_short.subspace.basis_elements():
            shifted = {(0,) + m: c for m, c in el.representative().items()}
            image = mod.poly_class(shifted)
            if image.is_zero():
                raise IntegrityError("reindexed kernel element vanished upstairs")
            seeds.append(image)
        span = cyclic_span(mod, [0], seeds)
        sub = submodule_S(a, i, strict=False)
        ok = span == sub.subspace
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
    sub = submodule_S(a, i, strict=False)
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
    last = el
    while not el.is_zero():
        if measured > mod.kmax + 1:
            raise IntegrityError("e_1 fails to act nilpotently")
        last = el
        el = el.apply(1)
        measured += 1
    formula = sum(a[: n - 1]) - n + 1
    return {
        "measured": measured,
        "formula": formula,
        "deviation": measured - formula,
        "kills_last": last.apply(1).is_zero(),
    }


def verify_exactness(sub: Submodule) -> dict:
    """Character additivity along the kernel/image split of the move map."""
    parent = sub.parent.character()
    target = sub.qmap.target.character()
    ok = parent == sub.character() + target
    return {
        "ok": ok,
        "parent_dim": parent.total(),
        "kernel_dim": sub.dim,
        "target_dim": target.total(),
    }
