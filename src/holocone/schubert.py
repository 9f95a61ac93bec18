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
are read off, at the cell dual to that of gamma.  The cells of a facet
candidate are read off the translates t = w.gamma alone
(cell_class_rep), never off w itself.

Permutations are tuples in one-line notation with w[i] the image of
position i; they and their primitives (composition, inverse, length,
enumeration) come from the weights module, which defines them once.

The public functions validate their input and raise ValueError on a
malformed one: a flag type must split p and q into positive parts, and
so must a composition given to `min_coset_rep` split len(w).  The
private functions trust their caller and check nothing:
`_schubert_number` and `_pair_differences` take the blocks of gamma and
its translates as `weights.translate_blocks` splits and checks them,
once, so `ressayre`, which validates a candidate once, calls them.
"""

from __future__ import annotations

from itertools import accumulate, combinations, groupby
from typing import Dict, NamedTuple, Sequence, Tuple

from .weights import (Perm, Shape, all_perms, argsort, blocks, identity_perm, inversions,
                      longest_perm, translate_blocks)

Poly = Dict[Tuple[int, ...], int]  # exponent vector -> coefficient

# Chern-root sign for the line bundle of the weight e_i - e_{p+j}: its
# first Chern class is EULER_SIGN * (x_i - y_j).  The sign is fixed once
# by the calibration suite (the certified facets of the small Horn cones
# must be reproduced); flipping it negates odd-rank Euler classes.
EULER_SIGN = -1

_schubert_poly_cache: Dict[Tuple[int, Perm], Poly] = {}


# ---------------------------------------------------------------------------
# Schubert polynomials


def _divided_difference(i: int, f: Poly) -> Poly:
    """partial_i f = (f - s_i f) / (x_i - x_{i+1}), exact on monomials."""
    out: Poly = {}
    for exp, c in f.items():
        a, b = exp[i], exp[i + 1]
        if a == b:
            continue
        lo, hi, sign = (b, a, 1) if a > b else (a, b, -1)
        # (x^a y^b - x^b y^a)/(x - y) = sum_{k=lo}^{hi-1} x^k y^{hi+lo-1-k}
        for k in range(lo, hi):
            e = list(exp)
            e[i], e[i + 1] = k, hi + lo - 1 - k
            e = tuple(e)
            out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


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


CohomologyElement = Dict[Tuple[Perm, Perm], int]


def _check_composition(comp: Sequence[int], n: int) -> None:
    """ValueError unless comp splits n into positive parts."""
    if sum(comp) != n or not all(c > 0 for c in comp):
        raise ValueError(f"composition {tuple(comp)} does not split {n} into positive parts")


def min_coset_rep(w: Perm, comp: Sequence[int]) -> Perm:
    """Minimal-length representative of w W_P (values sorted per block).

    ValueError unless comp splits len(w) into positive parts.
    """
    _check_composition(comp, len(w))
    ends = tuple(accumulate(comp))
    return tuple(v for a, b in zip((0,) + ends, ends) for v in sorted(w[a:b]))


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
    _check_composition(f.comp_p, shape.p)
    _check_composition(f.comp_q, shape.q)
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


def check_gamma(gamma: Sequence) -> None:
    """ValueError unless gamma is nonzero: gamma = 0 has no flag variety."""
    if all(v == 0 for v in gamma):
        raise ValueError("gamma must be nonzero")


def flag_type_of(gamma: Sequence, shape: Shape) -> FlagType:
    """Multiplicity compositions of gamma's distinct values, per block.

    Parts follow increasing eigenvalue order, matching the base flag of
    the parabolic attached to gamma.
    """
    check_gamma(gamma)
    return FlagType(*(tuple(len(list(run)) for _, run in groupby(sorted(b)))
                      for b in blocks(gamma, shape)))


def cell_class_rep(t_block: Sequence) -> Perm:
    """Schubert class of the cell through the T-fixed point with translate t = w.gamma.

    The class is min-rep(w0 o w o sigma^-1) for sigma the stable sort of
    gamma's block.  Sorting t undoes w o sigma^-1 up to W_P, the
    stabiliser of sorted gamma, so that coset is fixed by t alone, and its
    minimal representative is the stable argsort of reversed(t).  Its
    length #{i < j : t_i < t_j} counts the compact positive roots that
    pair negatively with t.
    """
    return argsort(t_block[::-1])


def class_of_base_cell(gamma: Sequence, shape: Shape) -> CohomologyElement:
    """[X_gamma]: the class of the closure of the B-orbit of the base point."""
    return {tuple(map(cell_class_rep, blocks(gamma, shape))): 1}


def _euler_polynomial(sp: Sequence, sq: Sequence, shape: Shape) -> Poly:
    """prod EULER_SIGN * (x_a - y_b) over sp[a] > sq[b], for the sorted blocks of gamma.

    Renaming each coordinate of gamma by its slot in the stable sort of its
    block turns the product over the weights e_i - e_{p+j} with
    gamma_i > gamma_{p+j} into this one.
    """
    n = shape.rank
    poly: Poly = {(0,) * n: 1}
    for a, u in enumerate(sp):
        for b, v in enumerate(sq):
            if u > v:
                x, y = (tuple(int(k == c) for k in range(n)) for c in (a, shape.p + b))
                poly = _mul(poly, {x: EULER_SIGN, y: -EULER_SIGN})
    return poly


def euler_class_q_positive(gamma: Sequence, shape: Shape) -> CohomologyElement:
    """Euler class of the bundle with weights e_i - e_{p+j}, <., gamma> > 0.

    In the standard model the Chern root of the (i, j) weight line is
    EULER_SIGN * (x_{sigma_p(i)} - y_{sigma_q(j)}), sigma the stable sort
    of each block; the product over the positive-pairing weights is
    expanded into the Schubert basis of F_gamma.
    """
    poly = _euler_polynomial(*map(sorted, blocks(gamma, shape)), shape)
    return _expand(poly, flag_type_of(gamma, shape), shape)


def _pair_differences(gb, tbs):
    """(lhs, rhs) for Relation (A) (_degree_condition) and the trace identity,
    from the blocks gb of gamma and tbs of its translates.

    lhs holds gamma_i - gamma_j over the pairs i < j inside a block; rhs
    holds gamma_a - gamma_b over a <= p < b, then t_j - t_i over the pairs
    i < j inside a block of each translate t.  For two translates the
    trace identity f(gamma) = f(w0.t1) + f(w0.t2), for f(v) the sum of
    max(v_i - v_j, 0) over i < j and w0 reversing each block, says that the
    positive entries of lhs and rhs have equal sums: each t permutes the
    blocks of gamma, so the cross-block part of f(w0.t) is that of f(gamma)
    and cancels once.
    """
    gp, gq = gb
    lhs = [a - b for blk in gb for a, b in combinations(blk, 2)]
    rhs = [a - b for a in gp for b in gq]
    for tb in tbs:
        rhs += [b - a for blk in tb for a, b in combinations(blk, 2)]
    return lhs, rhs


def _degree_condition(lhs: Sequence, rhs: Sequence) -> bool:
    """Relation (A), the degree condition of the Schubert problem: the lists
    of _pair_differences have equally many positive entries, that is

        #{i < j : gamma_i > gamma_j}
            = sum over t of #{i < j : t_i < t_j} + #{(a, b) : a <= p < b, gamma_a > gamma_b}.

    The right side is the codimensions of the translated cells
    (cell_class_rep) plus the Euler rank, the left dim F_gamma less the
    codimension of the cell of gamma.
    """
    return sum(d > 0 for d in lhs) == sum(d > 0 for d in rhs)


def intersection_number(gamma: Sequence, translates: Sequence[Sequence], shape: Shape) -> int:
    """Point coefficient of [X_gamma] . prod [X_{w.gamma}] . Eul(q^{gamma>0}) on F_gamma.

    translates holds t = w.gamma for each translated cell, whose class is
    read off by cell_class_rep.  By Poincare duality on F_gamma, the point
    coefficient of [X_gamma] . P is the coefficient of P at the dual class,
    the cell of w0.gamma (each block reversed).  So only the Euler
    polynomial and the translates' classes are multiplied, as polynomials,
    and that coefficient is read off by divided differences (_coefficient).
    A product whose degree is not dim F_gamma gives 0, so Relation (A) is
    the early exit.  ValueError for gamma = 0, an input of the wrong length
    or a translate that does not permute each block of gamma.
    """
    check_gamma(gamma)
    split = translate_blocks(gamma, translates, shape)
    if split is None:
        bad = next(t for t in translates if translate_blocks(gamma, (t,), shape) is None)
        raise ValueError(f"translate {tuple(bad)} does not permute the blocks of gamma")
    return _schubert_number(*split, shape)


def _schubert_number(gb, tbs, shape: Shape) -> int:
    """intersection_number on the blocks gb of gamma and tbs of its
    translates, as `weights.translate_blocks` splits and checks them."""
    if not _degree_condition(*_pair_differences(gb, tbs)):
        return 0
    poly = _euler_polynomial(*map(sorted, gb), shape)
    for tb in tbs:
        poly = _mul(poly, _polynomial_of({tuple(map(cell_class_rep, tb)): 1}))
    return _coefficient(poly, *(cell_class_rep(blk[::-1]) for blk in gb))


def clear_caches() -> None:
    _schubert_poly_cache.clear()
