"""Type-A Schubert calculus on partial flag varieties of U(p) x U(q).

Everything is computed in the full-flag model per unitary block: classes
are integer combinations of Schubert classes indexed by permutations,
products are evaluated by expanding one factor into its Schubert
polynomial and applying the Monk/Chevalley rule monomial by monomial.
Partial flags F_gamma enter through minimal coset representatives; the
pullback to the full flag is injective on the Schubert basis, so no
separate quotient model is needed.

Permutations are tuples in one-line notation with w[i] the image of
position i, matching the WeylElement convention of the weights module.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .weights import Shape, blocks

Perm = Tuple[int, ...]
Poly = Dict[Tuple[int, ...], int]  # exponent vector -> coefficient

# Chern-root sign for the line bundle of the weight e_i - e_{p+j}: its
# first Chern class is EULER_SIGN * (x_i - y_j).  The sign is fixed once
# by the calibration suite (the certified facets of the small Horn cones
# must be reproduced); flipping it negates odd-rank Euler classes.
EULER_SIGN = -1

_schubert_poly_cache: Dict[Tuple[int, Perm], Poly] = {}


# ---------------------------------------------------------------------------
# Permutations


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def longest_perm(n: int) -> Perm:
    return tuple(reversed(range(n)))


def inversions(w: Perm) -> int:
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def compose(a: Perm, b: Perm) -> Perm:
    """a o b: apply b first (as actions on coordinates)."""
    return tuple(a[b[i]] for i in range(len(b)))


def inverse_perm(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, j in enumerate(w):
        inv[j] = i
    return tuple(inv)


def all_perms(n: int) -> List[Perm]:
    from itertools import permutations

    return [tuple(p) for p in permutations(range(n))]


# ---------------------------------------------------------------------------
# Schubert polynomials


def _divided_difference(i: int, f: Poly, n: int) -> Poly:
    """partial_i f = (f - s_i f) / (x_i - x_{i+1}), exact on monomials."""
    out: Poly = {}

    def add(exp, c):
        if c:
            out[exp] = out.get(exp, 0) + c
            if not out[exp]:
                del out[exp]

    for exp, c in f.items():
        a, b = exp[i], exp[i + 1]
        if a == b:
            continue
        lo, hi, sign = (b, a, 1) if a > b else (a, b, -1)
        # (x^a y^b - x^b y^a)/(x - y) = sum_{k=lo}^{hi-1} x^k y^{hi+lo-1-k}
        for k in range(lo, hi):
            e = list(exp)
            e[i], e[i + 1] = k, hi + lo - 1 - k
            add(tuple(e), sign * c)
    return out


def schubert_polynomial(w: Perm) -> Poly:
    """The Schubert polynomial of w as a sparse exponent map."""
    n = len(w)
    key = (n, w)
    hit = _schubert_poly_cache.get(key)
    if hit is not None:
        return hit
    w0 = longest_perm(n)
    if w == w0:
        val: Poly = {tuple(n - 1 - i for i in range(n)): 1}
    else:
        # find an ascent position of w (w[i] < w[i+1]); then w s_i is
        # longer and S_w = partial_i S_{w s_i}
        i = next(k for k in range(n - 1) if w[k] < w[k + 1])
        ws = list(w)
        ws[i], ws[i + 1] = ws[i + 1], ws[i]
        val = _divided_difference(i, schubert_polynomial(tuple(ws)), n)
    _schubert_poly_cache[key] = val
    return val


# ---------------------------------------------------------------------------
# Cohomology of Fl(p) x Fl(q): Schubert-basis classes with the Monk rule


class FlagType(NamedTuple):
    """Compositions (increasing-eigenvalue multiplicities) per block."""

    comp_p: Tuple[int, ...]
    comp_q: Tuple[int, ...]

    def validate(self, shape: Shape) -> "FlagType":
        if sum(self.comp_p) != shape.p or sum(self.comp_q) != shape.q:
            raise ValueError("composition does not fit the shape")
        if any(c <= 0 for c in self.comp_p + self.comp_q):
            raise ValueError("composition parts must be positive")
        return self


CohomologyElement = Dict[Tuple[Perm, Perm], int]


def _comp_blocks(comp: Sequence[int]):
    out = []
    start = 0
    for c in comp:
        out.append(range(start, start + c))
        start += c
    return out


def min_coset_rep(w: Perm, comp: Sequence[int]) -> Perm:
    """Minimal-length representative of w W_P (values sorted per block)."""
    out = list(w)
    for blk in _comp_blocks(comp):
        vals = sorted(out[i] for i in blk)
        for i, v in zip(blk, vals):
            out[i] = v
    return tuple(out)


def is_min_coset_rep(w: Perm, comp: Sequence[int]) -> bool:
    return min_coset_rep(w, comp) == w


def _monk_x(cls: Dict[Perm, int], k: int, n: int) -> Dict[Perm, int]:
    """Multiply a single-flag class by x_k (0-indexed Chern root)."""
    out: Dict[Perm, int] = {}

    def add(w, c):
        if c:
            out[w] = out.get(w, 0) + c
            if not out[w]:
                del out[w]

    for w, c in cls.items():
        lw = inversions(w)
        for j in range(k + 1, n):
            v = list(w)
            v[k], v[j] = v[j], v[k]
            if w[k] < w[j] and inversions(tuple(v)) == lw + 1:
                add(tuple(v), c)
        for i in range(k):
            v = list(w)
            v[i], v[k] = v[k], v[i]
            if w[i] < w[k] and inversions(tuple(v)) == lw + 1:
                add(tuple(v), -c)
    return out


def _mult_monomial(
    cls: CohomologyElement, ex: Sequence[int], ey: Sequence[int], shape: Shape
) -> CohomologyElement:
    """Multiply by x^ex * y^ey, one Chern root at a time."""
    cur = dict(cls)
    for k, e in enumerate(ex):
        for _ in range(e):
            nxt: CohomologyElement = {}
            for (wp, wq), c in cur.items():
                for wp2, c2 in _monk_x({wp: c}, k, shape.p).items():
                    nxt[(wp2, wq)] = nxt.get((wp2, wq), 0) + c2
            cur = nxt
    for k, e in enumerate(ey):
        for _ in range(e):
            nxt = {}
            for (wp, wq), c in cur.items():
                for wq2, c2 in _monk_x({wq: c}, k, shape.q).items():
                    nxt[(wp, wq2)] = nxt.get((wp, wq2), 0) + c2
            cur = nxt
    return {k: v for k, v in cur.items() if v}


def multiply_by_polynomial(
    cls: CohomologyElement, poly_x: Poly, poly_y: Poly, shape: Shape
) -> CohomologyElement:
    """Multiply by (sum poly_x)(x) * (sum poly_y)(y)."""
    out: CohomologyElement = {}
    for ex, cx in poly_x.items():
        for ey, cy in poly_y.items():
            for k, v in _mult_monomial(cls, ex, ey, shape).items():
                c = v * cx * cy
                if c:
                    out[k] = out.get(k, 0) + c
    return {k: v for k, v in out.items() if v}


def multiply_by_joint_linear(
    cls: CohomologyElement, form: Tuple[Tuple[int, ...], Tuple[int, ...]], shape: Shape
) -> CohomologyElement:
    """Multiply by a degree-1 class sum_k a_k x_k + sum_k b_k y_k."""
    ax, by = form
    out: CohomologyElement = {}
    for k, a in enumerate(ax):
        if not a:
            continue
        for (wp, wq), c in cls.items():
            for wp2, c2 in _monk_x({wp: c}, k, shape.p).items():
                key = (wp2, wq)
                out[key] = out.get(key, 0) + a * c2
    for k, b in enumerate(by):
        if not b:
            continue
        for (wp, wq), c in cls.items():
            for wq2, c2 in _monk_x({wq: c}, k, shape.q).items():
                key = (wp, wq2)
                out[key] = out.get(key, 0) + b * c2
    return {k: v for k, v in out.items() if v}


def schubert_multiply(
    a: CohomologyElement, b: CohomologyElement, f: FlagType, shape: Shape
) -> CohomologyElement:
    """Cup product on F_f, in the minimal-coset-representative basis."""
    for cls in (a, b):
        for wp, wq in cls:
            if not is_min_coset_rep(wp, f.comp_p) or not is_min_coset_rep(
                wq, f.comp_q
            ):
                raise ValueError("class not supported on this flag type")
    out: CohomologyElement = {}
    for (up, uq), cb in b.items():
        px = schubert_polynomial(up)
        py = schubert_polynomial(uq)
        for k, v in multiply_by_polynomial(a, px, py, shape).items():
            c = v * cb
            if c:
                out[k] = out.get(k, 0) + c
    return {k: v for k, v in out.items() if v}


def unit_class(shape: Shape) -> CohomologyElement:
    return {(identity_perm(shape.p), identity_perm(shape.q)): 1}


def point_class(f: FlagType, shape: Shape) -> CohomologyElement:
    wp = min_coset_rep(longest_perm(shape.p), f.comp_p)
    wq = min_coset_rep(longest_perm(shape.q), f.comp_q)
    return {(wp, wq): 1}


def point_coefficient(a: CohomologyElement, f: FlagType, shape: Shape) -> int:
    """Coefficient of the point class of F_f."""
    wp = min_coset_rep(longest_perm(shape.p), f.comp_p)
    wq = min_coset_rep(longest_perm(shape.q), f.comp_q)
    return a.get((wp, wq), 0)


# ---------------------------------------------------------------------------
# Flag types and cycle classes attached to a rational weight gamma


def block_sorting_perm(values: Sequence) -> Perm:
    """Minimal sigma (stable) with (sigma.values) weakly increasing.

    Convention as in WeylElement: (sigma.v)[sigma[i]] = v[i].  Increasing
    order because the parabolic attached to gamma keeps the root spaces
    with nonpositive gamma-pairing: the base flag sorts gamma upward.
    """
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    sigma = [0] * len(values)
    for pos, i in enumerate(order):
        sigma[i] = pos
    return tuple(sigma)


def _composition_of(sorted_vals: Sequence) -> Tuple[int, ...]:
    comp: List[int] = []
    prev = object()
    for v in sorted_vals:
        if v == prev:
            comp[-1] += 1
        else:
            comp.append(1)
            prev = v
    return tuple(comp)


def flag_type_of(gamma: Sequence, shape: Shape) -> FlagType:
    """Multiplicity compositions of gamma's distinct values, per block.

    Parts follow increasing eigenvalue order, matching the base flag of
    the parabolic attached to gamma.
    """
    if all(v == 0 for v in gamma):
        raise ValueError("gamma must be nonzero")
    gp, gq = blocks(gamma, shape)
    comp_p = _composition_of(sorted(gp))
    comp_q = _composition_of(sorted(gq))
    return FlagType(comp_p, comp_q).validate(shape)


def cell_class_rep(
    w_block: Perm, gamma_block: Sequence
) -> Perm:
    """Minimal coset representative of the closure of B.(w-shifted base point).

    On the flag variety attached to gamma_block, the T-fixed point w.[e]
    corresponds to the coset (w o sigma^{-1}) W_P in the standard model,
    where sigma sorts gamma descending; its cycle class is the Schubert
    class of min-rep(w0 o w o sigma^{-1}).
    """
    m = len(gamma_block)
    sigma = block_sorting_perm(gamma_block)
    comp = _composition_of(sorted(gamma_block))
    u = compose(longest_perm(m), compose(w_block, inverse_perm(sigma)))
    return min_coset_rep(u, comp)


def class_of_cell(w_pair, gamma: Sequence, shape: Shape) -> CohomologyElement:
    """[closure of B.(w.[e])] on F_gamma; w_pair = (perm_p, perm_q)."""
    gp, gq = blocks(gamma, shape)
    wp, wq = w_pair
    return {(cell_class_rep(wp, gp), cell_class_rep(wq, gq)): 1}


def class_of_base_cell(gamma: Sequence, shape: Shape) -> CohomologyElement:
    """[X_gamma]: the class of the closure of the B-orbit of the base point."""
    return class_of_cell(
        (identity_perm(shape.p), identity_perm(shape.q)), gamma, shape
    )


def euler_class_q_positive(gamma: Sequence, shape: Shape) -> CohomologyElement:
    """Euler class of the bundle with weights e_i - e_{p+j}, <., gamma> > 0.

    In the standard model the Chern root of the (i, j) weight line is
    EULER_SIGN * (x_{sigma_p(i)} - y_{sigma_q(j)}); the product over the
    positive-pairing weights is expanded into the Schubert basis.
    """
    if all(v == 0 for v in gamma):
        raise ValueError("gamma must be nonzero")
    gp, gq = blocks(gamma, shape)
    sp = block_sorting_perm(gp)
    sq = block_sorting_perm(gq)
    cls = unit_class(shape)
    for i in range(shape.p):
        for j in range(shape.q):
            if gp[i] > gq[j]:
                ax = [0] * shape.p
                by = [0] * shape.q
                ax[sp[i]] = EULER_SIGN
                by[sq[j]] = -EULER_SIGN
                cls = multiply_by_joint_linear(cls, (tuple(ax), tuple(by)), shape)
                if not cls:
                    return {}
    return cls


def clear_caches() -> None:
    _schubert_poly_cache.clear()
