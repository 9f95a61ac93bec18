"""Type-A Schubert calculus on partial flag varieties of U(p) x U(q).

One kernel, the divided difference, does all the work.  H*(Fl(p) x
Fl(q)) is Z[x, y] modulo the ideal of symmetric polynomials of positive
degree in x and in y, with basis S_u(x) S_v(y); a partial flag variety
F_gamma pulls back injectively onto the span of the minimal coset
representatives, so no separate quotient model is needed.  A class is
multiplied as a polynomial, and the coefficient of S_u(x) S_v(y) in a
polynomial is its constant term after partial has been applied down a
descent chain of u and then of v (partial kills the ideal), which is how
products are expanded back into the basis and how intersection numbers
are read off.

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


def _divided_difference(i: int, f: Poly) -> Poly:
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
        val = _divided_difference(i, schubert_polynomial(tuple(ws)))
    _schubert_poly_cache[key] = val
    return val


# ---------------------------------------------------------------------------
# Cohomology of Fl(p) x Fl(q): classes as polynomials in x and y


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


def _mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _polynomial_of(cls: CohomologyElement) -> Poly:
    """The sum of c * S_wp(x) * S_wq(y) over cls, exponents of x then of y."""
    out: Poly = {}
    for (wp, wq), c in cls.items():
        py = schubert_polynomial(wq)
        for ex, cx in schubert_polynomial(wp).items():
            for ey, cy in py.items():
                out[ex + ey] = out.get(ex + ey, 0) + c * cx * cy
    return {e: c for e, c in out.items() if c}


def _coefficient(f: Poly, wp: Perm, wq: Perm) -> int:
    """Coefficient of S_wp(x) * S_wq(y) in f modulo the symmetric ideals.

    partial_i S_w = S_{w s_i} at a descent i of w and 0 at an ascent, and
    partial_i maps the ideal generated by the symmetric polynomials of
    positive degree into itself; so applying partial down a descent chain
    of wp (in x) and then of wq (in y) sends S_wp(x) S_wq(y) to 1, every
    other basis element to 0 or to a polynomial without constant term,
    and the ideal to polynomials without constant term.
    """
    p = len(wp)
    for offset, w in ((0, wp), (p, wq)):
        w = list(w)
        while f:
            i = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
            if i is None:
                break
            w[i], w[i + 1] = w[i + 1], w[i]
            f = _divided_difference(offset + i, f)
    return f.get((0,) * (p + len(wq)), 0)


def _expand(poly: Poly, f: FlagType, shape: Shape) -> CohomologyElement:
    """A polynomial pulled back from F_f, in the minimal-coset-rep basis.

    Each basis coefficient is read off the part of poly of its bidegree.
    """
    parts: Dict[Tuple[int, int], Poly] = {}
    for e, c in poly.items():
        parts.setdefault((sum(e[: shape.p]), sum(e[shape.p :])), {})[e] = c
    out: CohomologyElement = {}
    reps_p, reps_q = ([w for w in all_perms(sum(c)) if is_min_coset_rep(w, c)] for c in f)
    for wp in reps_p:
        for wq in reps_q:
            part = parts.get((inversions(wp), inversions(wq)))
            c = _coefficient(part, wp, wq) if part else 0
            if c:
                out[(wp, wq)] = c
    return out


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
    return _expand(_mul(_polynomial_of(a), _polynomial_of(b)), f, shape)


def unit_class(shape: Shape) -> CohomologyElement:
    return {(identity_perm(shape.p), identity_perm(shape.q)): 1}


def point_class(f: FlagType, shape: Shape) -> CohomologyElement:
    wp = min_coset_rep(longest_perm(shape.p), f.comp_p)
    wq = min_coset_rep(longest_perm(shape.q), f.comp_q)
    return {(wp, wq): 1}


def point_coefficient(a: CohomologyElement, f: FlagType, shape: Shape) -> int:
    """Coefficient of the point class of F_f."""
    (top,) = point_class(f, shape)
    return a.get(top, 0)


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


def class_of_base_cell(gamma: Sequence, shape: Shape) -> CohomologyElement:
    """[X_gamma]: the class of the closure of the B-orbit of the base point."""
    gp, gq = blocks(gamma, shape)
    wp = cell_class_rep(identity_perm(shape.p), gp)
    wq = cell_class_rep(identity_perm(shape.q), gq)
    return {(wp, wq): 1}


def _euler_polynomial(gamma: Sequence, shape: Shape) -> Poly:
    """prod EULER_SIGN * (x_{sigma_p(i)} - y_{sigma_q(j)}) over gamma_i > gamma_{p+j}.

    sigma sorts each block of gamma upward (block_sorting_perm); the
    product is symmetric in the variables of each part of flag_type_of.
    """
    gp, gq = blocks(gamma, shape)
    sp, sq = block_sorting_perm(gp), block_sorting_perm(gq)
    n = shape.rank
    poly: Poly = {(0,) * n: 1}
    for i in range(shape.p):
        for j in range(shape.q):
            if gp[i] > gq[j]:
                x, y = (tuple(int(k == a) for k in range(n)) for a in (sp[i], shape.p + sq[j]))
                poly = _mul(poly, {x: EULER_SIGN, y: -EULER_SIGN})
    return poly


def euler_class_q_positive(gamma: Sequence, shape: Shape) -> CohomologyElement:
    """Euler class of the bundle with weights e_i - e_{p+j}, <., gamma> > 0.

    In the standard model the Chern root of the (i, j) weight line is
    EULER_SIGN * (x_{sigma_p(i)} - y_{sigma_q(j)}); the product over the
    positive-pairing weights is expanded into the Schubert basis of F_gamma.
    """
    return _expand(_euler_polynomial(gamma, shape), flag_type_of(gamma, shape), shape)


def intersection_number(
    gamma: Sequence, cells: Sequence[Tuple[Perm, Perm]], shape: Shape
) -> int:
    """Point coefficient of [X_gamma] . prod [X_{w,gamma}] . Eul(q^{gamma>0}) on F_gamma.

    cells holds the Weyl pairs (w_p, w_q) of the translated cells.  The
    product is taken on polynomials, S_u(x) S_v(y) for each cell class
    times the Euler polynomial, and its coefficient at the point class
    S_{min-rep(w0)} is read off by divided differences (_coefficient).
    A product whose degree is not dim F_gamma has point coefficient 0.
    """
    f = flag_type_of(gamma, shape)
    gp, gq = blocks(gamma, shape)
    base = (identity_perm(shape.p), identity_perm(shape.q))
    reps = [(cell_class_rep(wp, gp), cell_class_rep(wq, gq)) for wp, wq in (base, *cells)]
    (top,) = point_class(f, shape)
    degree = sum(inversions(u) + inversions(v) for u, v in reps)
    degree += sum(a > b for a in gp for b in gq)
    if degree != inversions(top[0]) + inversions(top[1]):
        return 0
    poly = _euler_polynomial(gamma, shape)
    for rep in reps:
        poly = _mul(poly, _polynomial_of({rep: 1}))
    return _coefficient(poly, *top)


def clear_caches() -> None:
    _schubert_poly_cache.clear()
