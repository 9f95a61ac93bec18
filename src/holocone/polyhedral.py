"""Exact rational polyhedral cones: double description, facets, slices.

Every elimination runs on Python ints.  One fraction-free Gauss-Jordan
kernel (`_echelon`) serves ranks, null spaces, reduction modulo the
equalities and canonical facets; the double description pass keeps
every generator a primitive integer vector and inserts the deduplicated
inequalities in one fixed order, by l1 norm and then lexicographically,
whatever order the caller gives, so all outputs are exact and
deterministic and the cost does not depend on the row order.  Fractions
are accepted only where input is coerced to integers: by `primitive`,
in point sets, in cone files and as `Polyhedron` constants.

Conversions:
  * rays_from_halfspaces: H-representation -> extreme rays + lineality
  * cone_from_points:     V-representation -> irredundant facets, via the
    dual cone (facet normals are the extreme rays of the dual)

A point set is read once, as a numpy matrix of an integer dtype (object
for Fractions and ints beyond int64; floats and ragged rows raise
ValueError).  `facets_of_points` seeds the dual cone with
`additive_prune` of the rows in the unit box [-1, 1]^dim, unless the
caller gives a seed, and then adds the worst violators of its facets
until there are none.  The violators are found with one matrix product
of all the constraints by each block of rows: in float64 where the
bound max ||c||_1 * max |x| < 2**53 makes every partial sum an exactly
representable integer, and otherwise (Fractions, larger bounds) in
exact Python numbers.  `additive_prune` takes integer input one l1
level at a time, with each row as one int64 code in mixed radix, so
the difference of two rows is one subtraction of codes, looked up
among the codes and confirmed against the row it names; object input,
and rows too wide for int64 codes, take the exact loop, one point at a
time.

Slices {x : N x + c >= 0, E x + f = 0} of one cone share their normal
part (N, E), so each (N, E) gets one memoised table of two double
descriptions: the Farkas cone {(y, z) : y >= 0, N^T y + E^T z = 0},
whose rays and lineality decide emptiness by the signs of (c, f)
against them (Farkas' lemma), and the recession cone {N x >= 0,
E x = 0}.  A slice query then runs no double description;
`clear_caches` empties the table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .weights import parse_number

IntVec = Tuple[int, ...]

CONE_FILE_VERSION = 1


def dot(a: Sequence, b: Sequence):
    """Exact dot product; stays in int when both vectors are integral."""
    return sum(map(mul, a, b))


def primitive(v: Sequence) -> IntVec:
    """Scale to coprime integers; direction (sign) is preserved."""
    if all(type(x) is int for x in v):
        ints = list(v)
    else:
        fr = [Fraction(x) for x in v]
        den = 1
        for x in fr:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def primitive_signed(v: Sequence) -> IntVec:
    """Primitive scaling with the first nonzero entry made positive."""
    w = primitive(v)
    for x in w:
        if x:
            return w if x > 0 else tuple(-y for y in w)
    return w


def _echelon(rows: Sequence[Sequence]) -> Tuple[List[IntVec], List[int]]:
    """Fraction-free Gauss-Jordan elimination over the integers.

    Returns (rows, pivots): the nonzero rows of a reduced echelon form,
    each a positive integer multiple of the corresponding row of the
    rational RREF (positive pivot, zero in every other pivot column), so
    `primitive_signed` of a row is that of the rational RREF row.
    """
    m = [primitive(r) for r in rows]
    pivots: List[int] = []
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        pr = next((i for i in range(top, len(m)) if m[i][col]), None)
        if pr is None:
            continue
        m[top], m[pr] = m[pr], m[top]
        if m[top][col] < 0:
            m[top] = tuple(-x for x in m[top])
        prow = m[top]
        piv = prow[col]
        for i, r in enumerate(m):
            f = r[col]
            if i != top and f:
                m[i] = primitive([piv * a - f * b for a, b in zip(r, prow)])
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m[: len(pivots)], pivots


def rank(vectors: Sequence[Sequence]) -> int:
    return len(_echelon(vectors)[1])


def null_space_basis(rows: Sequence[Sequence], dim: int) -> List[IntVec]:
    """Primitive integer basis of {x : r . x = 0 for all rows}."""
    red, pivots = _echelon(rows)
    scale = lcm(*(r[pc] for r, pc in zip(red, pivots)))
    basis = []
    for fc in range(dim):
        if fc in pivots:
            continue
        v = [0] * dim
        v[fc] = scale
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc] * scale // r[pc]
        basis.append(primitive_signed(v))
    return basis


# ---------------------------------------------------------------------------
# Double description


def rays_from_halfspaces(
    inequalities: Sequence[Sequence],
    equalities: Sequence[Sequence] = (),
    dim: Optional[int] = None,
):
    """Extreme rays and lineality basis of {x : A x >= 0, E x = 0}.

    Returns (rays, lineality) as sorted tuples of primitive int vectors.
    Rays are extreme modulo the lineality space.  The inequalities are
    made primitive, deduplicated and inserted in (l1 norm, lex) order, so
    neither the order of the rows nor repeated rows change the result or
    the work done.
    """
    # Scaling an inequality by a positive factor changes nothing, so work
    # with primitive integer normals; all ray arithmetic then stays in int.
    ineqs = {primitive(a) for a in inequalities}
    if dim is None:
        if ineqs:
            dim = len(next(iter(ineqs)))
        elif equalities:
            dim = len(equalities[0])
        else:
            raise ValueError("dimension undetermined")
    # Short normals first: the intermediate cones stay small this way.
    ineqs = sorted((a for a in ineqs if any(a)), key=lambda a: (sum(map(abs, a)), a))
    lineality = null_space_basis(equalities, dim)
    space_dim = len(lineality)  # dimension of {x : E x = 0}
    rays: List[IntVec] = []
    zerosets: List[int] = []  # per ray: bitmask of processed tight ineqs

    for idx, a in enumerate(ineqs):
        bit = 1 << idx
        pivot = next((l for l in lineality if dot(a, l) != 0), None)
        if pivot is not None:
            pa = dot(a, pivot)
            if pa < 0:
                pivot = tuple(-x for x in pivot)
                pa = -pa
            new_lin = []
            for l in lineality:
                if l is pivot:
                    continue
                la = dot(a, l)
                cand = tuple(pa * x - la * px for x, px in zip(l, pivot))
                if not _is_zero(cand):
                    new_lin.append(primitive(cand))
            lineality = new_lin
            # All old rays now lie on the hyperplane a.x = 0, and the
            # promoted ray is tight on every inequality seen so far.
            rays = [
                tuple(pa * x - dot(a, r) * px for x, px in zip(r, pivot))
                for r in rays
            ] + [pivot]
            zerosets = [zs | bit for zs in zerosets] + [bit - 1]
            # drop rays that collapsed to zero
            keep = [i for i, r in enumerate(rays) if not _is_zero(r)]
            rays = [primitive(rays[i]) for i in keep]
            zerosets = [zerosets[i] for i in keep]
            continue

        vals = [dot(a, r) for r in rays]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            zerosets = [zs | bit if v == 0 else zs for zs, v in zip(zerosets, vals)]
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        new_zs = [zs | bit if v == 0 else zs for zs, v in zip(zerosets, vals) if v >= 0]
        # Adjacent rays share at least d - 2 tight inequalities, d being
        # the dimension of the current cone modulo its lineality.
        need = space_dim - len(lineality) - 2
        for i in pos:
            for j in neg:
                common = zerosets[i] & zerosets[j]
                if common.bit_count() < need or not _adjacent(common, zerosets, i, j):
                    continue
                comb = tuple(
                    vals[i] * rj - vals[j] * ri
                    for ri, rj in zip(rays[i], rays[j])
                )
                if _is_zero(comb):
                    continue
                new_rays.append(primitive(comb))
                new_zs.append(common | bit)
        rays, zerosets = new_rays, new_zs

    out_rays = sorted(set(rays))
    out_lin = sorted(set(primitive_signed(l) for l in lineality))
    return tuple(out_rays), tuple(out_lin)


def _is_zero(v: Sequence) -> bool:
    return all(x == 0 for x in v)


def _adjacent(common: int, zerosets: List[int], i: int, j: int) -> bool:
    """Combinatorial adjacency: no third ray is tight on all of `common`."""
    for k, zs in enumerate(zerosets):
        if zs & common == common and k != i and k != j:
            return False
    return True


# ---------------------------------------------------------------------------
# Cone object


@dataclass(frozen=True)
class RationalCone:
    ambient_dim: int
    rays: Optional[Tuple[IntVec, ...]] = None
    inequalities: Optional[Tuple[IntVec, ...]] = None
    equalities: Optional[Tuple[IntVec, ...]] = None
    lineality: Optional[Tuple[IntVec, ...]] = None
    provenance: str = "unspecified"

    def with_h_rep(self) -> "RationalCone":
        if self.inequalities is not None:
            return self
        if self.rays is None:
            raise ValueError("cone has neither representation")
        gens = list(self.rays) + list(self.lineality or ())
        gens += [tuple(-x for x in l) for l in (self.lineality or ())]
        # no generators: the zero cone, the hull of the origin
        ineqs, eqs = facets_of_points(gens or [(0,) * self.ambient_dim], self.ambient_dim)
        return RationalCone(
            self.ambient_dim,
            rays=self.rays,
            inequalities=ineqs,
            equalities=eqs,
            lineality=self.lineality,
            provenance=self.provenance,
        )

    def with_v_rep(self) -> "RationalCone":
        if self.rays is not None:
            return self
        rays, lin = rays_from_halfspaces(
            self.inequalities or (), self.equalities or (), self.ambient_dim
        )
        return RationalCone(
            self.ambient_dim,
            rays=rays,
            inequalities=self.inequalities,
            equalities=self.equalities,
            lineality=lin,
            provenance=self.provenance,
        )

    def contains(self, x: Sequence) -> bool:
        if len(x) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        c = self.with_h_rep()
        return all(dot(a, x) >= 0 for a in c.inequalities) and all(
            dot(e, x) == 0 for e in (c.equalities or ())
        )

    def canonical_facets(self):
        """(equalities-RREF, facet normals reduced mod the equality space).

        Normals are reduced by eliminating the pivot coordinates of the
        equality rows, then scaled primitive; comparison of two cones'
        facet structures is literal equality of these sets.
        """
        c = self.with_h_rep()
        eqs = c.equalities or ()
        normals = set()
        for a in c.inequalities:
            v = reduce_mod_lineality(a, eqs)
            if not _is_zero(v):
                normals.add(v)
        eq_canon = tuple(primitive_signed(r) for r in _echelon(eqs)[0])
        return eq_canon, tuple(sorted(normals))


def reduce_mod_lineality(normal: Sequence, equalities: Sequence[Sequence]) -> IntVec:
    """Canonical primitive representative of a normal modulo span(equalities).

    Two inequality normals cut out the same halfspace of {x : E x = 0}
    exactly when their reductions agree; this eliminates the pivot
    coordinates of the RREF of the equality rows.
    """
    v = list(primitive(normal))
    for r, pc in zip(*_echelon(equalities)):
        f = v[pc]
        if f:
            v = [r[pc] * x - f * y for x, y in zip(v, r)]
    return primitive(v)


def _point_matrix(points, dim: Optional[int] = None):
    """`points` as a 2-d numpy array of exact numbers, read once.

    Integer input keeps an integer dtype; Fractions and ints beyond
    int64 give an object array of Python ints and Fractions.  Floats and
    other entries, ragged rows and rows of a length other than `dim`
    raise ValueError.
    """
    import numpy as np

    arr = np.asarray(points)
    if arr.dtype.kind not in "iu":
        # ints beyond int64 may have come out as floats; read them again
        arr = np.array(points, dtype=object)
        if not all(type(x) in (int, Fraction) for x in arr.flat):
            raise ValueError("point entries must be integers or Fractions")
    if arr.shape == (0,):
        arr = arr.reshape(0, dim or 0)
    if arr.ndim != 2:
        raise ValueError("points must be rows of one length")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"points must be rows of {dim} entries")
    return arr


# Rows per block of the unit-box mask, and entries (constraints x rows)
# per product of the violator scan: blocks of at most a few MB in place
# of copies of the whole point matrix.
_SCAN_ROWS = 1 << 16


def _scan_dtype(arr, constraints):
    """float64 if it multiplies integer `arr` by `constraints` exactly, else object.

    With B = max ||c||_1 * max |x| < 2**53, every entry and every partial
    sum of c . x is an integer of magnitude at most B, and float64 holds
    each of those exactly; so the product is exact whatever the
    summation order, blocking or FMA use of the BLAS.  (Zero constraints
    make B = 0: their products are 0 however x rounds.)
    """
    import numpy as np

    if arr.dtype.kind not in "iu":
        return object
    c_max = max(sum(map(abs, c)) for c in constraints)
    bound = c_max * max(-int(arr.min(initial=0)), int(arr.max(initial=0)), 1)
    return np.float64 if bound < 2**53 else object


def _worst_violators(pts, normals, lins):
    """One worst offender per violated constraint, deterministically.

    Stacks the constraints into one k x dim matrix C, the equalities
    first and the normals negated, so that the rows of C @ x.T read
    |lin . x| (after abs) and -normal . x: the violations.  The points
    go through in blocks of about `_SCAN_ROWS` / k rows, one matrix
    product each: in float64 where `_scan_dtype` proves it exact, and
    otherwise in exact Python numbers (object arrays: rational points,
    integers beyond int64, or products that may reach 2**53).  Each
    (k x rows) result is scanned along its rows, so each violated
    constraint gets the first row of largest violation, and a later
    block takes over only with a strictly larger one.
    Returns [] iff every point satisfies normal . x >= 0 and lin . x == 0.
    """
    import numpy as np

    arr = _point_matrix(pts)
    constraints = [*lins, *([-v for v in r] for r in normals)]
    if not constraints:
        return []
    dtype = _scan_dtype(arr, constraints)
    c = np.array(constraints, dtype=dtype)
    eqs = slice(0, len(lins))
    depth = np.zeros(len(c), dtype=dtype)
    where = np.full(len(c), -1)
    rows = max(1, _SCAN_ROWS // len(c))
    for start in range(0, len(arr), rows):
        bad = c @ arr[start : start + rows].astype(dtype).T
        bad[eqs] = abs(bad[eqs])
        i = bad.argmax(axis=1)
        worst = bad[np.arange(len(c)), i]
        deeper = worst > depth
        depth[deeper] = worst[deeper]
        where[deeper] = start + i[deeper]
    return sorted({tuple(arr[i].tolist()) for i in where if i >= 0})


# Differences per step of `additive_prune`.  A step tests the rows left
# in a level against the next max(1, _PRUNE_STEP // rows) kept rows: one
# at a time while many rows remain, so each step drops the rows it
# reduces before the next, and many at once for the last few rows, so
# they cross the kept rows in few steps.  Level rows go in chunks of
# _SCAN_ROWS // 4, which bounds the rows a step's hit check gathers.
_PRUNE_STEP = 2048


def additive_prune(points) -> List[IntVec]:
    """Drop points splitting as x = g + h in the set with |g|, |h| < |x|.

    Sound for any integer point set (x is then a positive combination of
    the parts); on semigroup samples it shrinks the set by orders of
    magnitude.  Strict l1 descent on both parts keeps the recursion
    well-founded, so the kept points generate the same cone.  Zero rows
    and duplicates are dropped; the result is sorted.

    x is reduced only by kept points g of smaller norm than x, so points
    of one l1 level never affect each other.  Integer input is therefore
    pruned one level at a time, each row of a level against a block of
    kept rows per step (`_PRUNE_STEP`).  Each row is one int64 code in
    mixed radix span + 1, digit j being x_j - lo, most significant first
    (lo <= 0 <= lo + span bound every entry), so codes sort as the rows
    do.  The code of x - g is code(x) - code(g) - lo * sum((span + 1)^j):
    one subtraction of codes, looked up with `searchsorted`.  A difference
    with a digit outside [0, span] can carry the code of another row, so
    each hit is confirmed against the row it names.  Object input
    (Fractions, ints beyond int64) and rows with (span + 1)^dim >= 2**63,
    whose codes do not fit, take the exact loop.
    """
    import numpy as np

    arr = _point_matrix(points)
    dim = arr.shape[1]
    # Every entry, and every difference of two rows, lies in [-span, span].
    lo = int(arr.min(initial=0))
    span = int(arr.max(initial=0)) - lo
    if arr.dtype.kind not in "iu" or (span + 1) ** dim >= 2**63:
        return _prune_loop(arr.tolist())
    if arr.dtype == np.uint64:
        arr = arr.view(np.int64)  # entries within span < 2**63 keep their value
    # Codes and norms column by column, by Horner's rule: no int64 copy of
    # the whole matrix.  Norms fit: dim * span < (span + 1)^dim by
    # Bernoulli's inequality.
    codes = np.zeros(len(arr), dtype=np.int64)
    norm = np.zeros(len(arr), dtype=np.int64)
    for col in arr.T:
        codes *= span + 1
        codes += col
        norm += np.abs(col, dtype=np.int64)
    shift = -lo * sum((span + 1) ** j for j in range(dim))  # the code of the zero row
    codes, first = np.unique(codes + shift, return_index=True)
    nonzero = codes != shift
    codes, first = codes[nonzero], first[nonzero]
    if not len(codes):
        return []
    rows, norm = arr[first], norm[first]  # one row per code, in code order
    order = np.argsort(norm, kind="stable")
    kept = order[:0]  # row indices, in increasing norm
    for level in np.split(order, np.flatnonzero(np.diff(norm[order])) + 1):
        nx = norm[level[0]]
        survivors = [kept]
        # code(x) - (code(g) - shift) is code(x - g) if every digit of x - g
        # is in [0, span].  Otherwise it may be another row's code (hence
        # the check of each hit) or wrap past 2**63 to below every code.
        kept_codes = codes[kept] - shift
        for start in range(0, len(level), _SCAN_ROWS // 4):
            x = level[start : start + _SCAN_ROWS // 4]
            xc = codes[x]
            step = 0
            while step < len(kept) and len(x):
                stop = step + max(1, _PRUNE_STEP // len(x))
                g = kept[step:stop]
                diff = (xc[:, None] - kept_codes[step:stop]).ravel()
                at = np.searchsorted(codes, diff) % len(codes)  # past the end: no match
                hit = np.flatnonzero(codes[at] == diff)
                if len(hit):
                    h = at[hit]
                    xi, gi = np.divmod(hit, len(g))
                    diff_rows = rows[x[xi]].astype(np.int64) - rows[g[gi]]
                    real = (diff_rows == rows[h]).all(axis=1) & (norm[h] < nx)
                    live = np.ones(len(x), dtype=bool)
                    live[xi[real]] = False
                    x, xc = x[live], xc[live]
                step = stop
            survivors.append(x)
        kept = np.concatenate(survivors)
    return list(map(tuple, rows[np.sort(kept)].tolist()))


def _prune_loop(rows) -> List[IntVec]:
    """`additive_prune` of rows of exact numbers, one point at a time."""
    # l1 norms, computed once; the zero point (norm 0) is left out.
    norm = {x: n for x in map(tuple, rows) if (n := sum(map(abs, x)))}
    kept: List[IntVec] = []  # in increasing norm
    for x, nx in sorted(norm.items(), key=lambda item: (item[1], item[0])):
        reducible = False
        for g in kept:
            if norm[g] >= nx:
                break
            if norm.get(tuple(a - b for a, b in zip(x, g)), nx) < nx:
                reducible = True
                break
        if not reducible:
            kept.append(x)
    return sorted(kept)


def facets_of_points(points: Sequence[Sequence], dim: int, seed=None):
    """Irredundant H-representation of cone(points).

    Facet normals are the extreme rays of the dual cone; the equalities
    are a basis of the orthogonal complement of span(points).

    The dual cone is built from a seed, then the worst violators of its
    facets among all the points are folded in until none remain.  The
    seed is `additive_prune` of the points in the unit box [-1, 1]^dim
    (on the U(2,2) and U(3,1) semigroups these already generate the
    cone), or the caller's `seed`; an empty one starts from the whole
    space.  A caller's seed must consist of points of cone(points): the
    rounds only add points, so one outside widens the answer (seed
    [(-1, -1)] turns the quadrant into the whole plane).
    """
    import numpy as np

    arr = _point_matrix(points, dim)
    if not len(arr):
        raise ValueError("need at least one generating point")
    if seed is None:
        # The rows in [-1, 1]^dim, masked block by block to keep the masks
        # small (and not by abs, which wraps -128 in int8).
        blocks = np.split(arr, range(_SCAN_ROWS, len(arr), _SCAN_ROWS))
        box = [b[((b >= -1) & (b <= 1)).all(axis=1)] for b in blocks]
        seed = additive_prune(np.concatenate(box))
    # rays_from_halfspaces makes these primitive and drops zeros and repeats
    active = _point_matrix(seed, dim).tolist()
    while True:
        dual_rays, dual_lin = rays_from_halfspaces(active, (), dim)
        violators = _worst_violators(arr, dual_rays, dual_lin)
        if not violators:
            return dual_rays, dual_lin
        active += violators


def cone_from_points(points: Sequence[Sequence], provenance="generated-from-semigroup") -> RationalCone:
    arr = _point_matrix(points)
    ineqs, eqs = facets_of_points(arr, arr.shape[1])
    return RationalCone(
        arr.shape[1], inequalities=ineqs, equalities=eqs, provenance=provenance
    )


def cone_member(cone: RationalCone, x: Sequence) -> bool:
    return cone.contains(x)


def same_cone(a: RationalCone, b: RationalCone) -> bool:
    """Set equality by double inclusion of generators in H-representations."""
    av, bv = a.with_v_rep(), b.with_v_rep()
    ah, bh = a.with_h_rep(), b.with_h_rep()

    def included(v: RationalCone, h: RationalCone) -> bool:
        gens = list(v.rays or ())
        for l in v.lineality or ():
            gens.append(l)
            gens.append(tuple(-x for x in l))
        return all(h.contains(g) for g in gens)

    return included(av, bh) and included(bv, ah)


# ---------------------------------------------------------------------------
# Polyhedra (affine slices) and recession cones


@dataclass(frozen=True)
class Polyhedron:
    """H-representation {x : N x + c >= 0, E x + f = 0} with exact data."""

    ambient_dim: int
    inequalities: Tuple[Tuple[IntVec, Fraction], ...]
    equalities: Tuple[Tuple[IntVec, Fraction], ...]
    provenance: str = "slice"

    def contains(self, x: Sequence) -> bool:
        return all(dot(n, x) + c >= 0 for n, c in self.inequalities) and all(
            dot(n, x) + c == 0 for n, c in self.equalities
        )

    def is_empty(self) -> bool:
        """Farkas' lemma: empty iff some (y >= 0, z) with N^T y + E^T z = 0
        has c . y + f . z < 0, i.e. iff a lineality vector of that cone
        pairs nonzero with (c, f) or an extreme ray pairs negative."""
        (rays, lin), _ = _slice_tables(self)
        cf = tuple(c for _, c in self.inequalities) + tuple(f for _, f in self.equalities)
        return any(dot(l, cf) != 0 for l in lin) or any(dot(r, cf) < 0 for r in rays)


# (N, E, ambient_dim) -> (Farkas cone, recession cone), each as the
# (rays, lineality) of `rays_from_halfspaces`; filled by `_slice_tables`.
_slice_cache: Dict[tuple, tuple] = {}


def clear_caches() -> None:
    """Empty the per-cone slice tables (`lr.clear_caches` calls this)."""
    _slice_cache.clear()


def _slice_tables(poly: Polyhedron):
    """The Farkas and recession cones of the normal part (N, E) of `poly`.

    Neither depends on the constants, so every slice of one cone shares
    one entry.  The Farkas cone lives in one coordinate per constraint:
    y >= 0 on the inequalities, z free on the equalities.
    """
    ns = tuple(tuple(n) for n, _ in poly.inequalities)
    es = tuple(tuple(n) for n, _ in poly.equalities)
    key = (ns, es, poly.ambient_dim)
    tables = _slice_cache.get(key)
    if tables is None:
        d = len(ns) + len(es)
        signs = [tuple(int(i == j) for j in range(d)) for i in range(len(ns))]
        columns = [tuple(row[k] for row in ns + es) for k in range(poly.ambient_dim)]
        tables = _slice_cache[key] = (
            rays_from_halfspaces(signs, columns, d),
            rays_from_halfspaces(ns, es, poly.ambient_dim),
        )
    return tables


def slice_at(cone: RationalCone, fixed_a: Sequence, fixed_b: Sequence) -> Polyhedron:
    """{C : (fixed_a, fixed_b, C) in cone}, for a cone over triples."""
    m = len(fixed_a)
    if len(fixed_b) != m or cone.ambient_dim != 3 * m:
        raise ValueError("dimension mismatch for slice")
    c = cone.with_h_rep()

    def split(n):
        na, nb, nc = n[:m], n[m : 2 * m], n[2 * m :]
        return tuple(nc), dot(na, fixed_a) + dot(nb, fixed_b)

    ineqs = tuple(split(n) for n in c.inequalities)
    eqs = tuple(split(n) for n in (c.equalities or ()))
    return Polyhedron(m, ineqs, eqs, provenance="slice")


def recession_cone(poly: Polyhedron) -> RationalCone:
    """{x : N x >= 0, E x = 0}, with both representations already set."""
    if poly.is_empty():
        raise ValueError("recession cone of an empty polyhedron")
    rays, lin = _slice_tables(poly)[1]
    return RationalCone(
        poly.ambient_dim,
        rays=rays,
        inequalities=tuple(n for n, _ in poly.inequalities),
        equalities=tuple(n for n, _ in poly.equalities),
        lineality=lin,
        provenance="recession",
    )


def delta_K_pbar(shape) -> RationalCone:
    """Cone spanned by the Cauchy directions (1^k padded; k trailing -1s)."""
    p, q = shape.p, shape.q
    rays = []
    for k in range(1, q + 1):
        v = (1,) * k + (0,) * (p - k) + (0,) * (q - k) + (-1,) * k
        rays.append(v)
    return RationalCone(p + q, rays=tuple(rays), lineality=(), provenance="cauchy-directions")


# ---------------------------------------------------------------------------
# Cone file interchange (versioned structured text; exact rational strings)


def save_cone(cone: RationalCone, path) -> None:
    obj = {
        "version": CONE_FILE_VERSION,
        "ambient_dim": cone.ambient_dim,
        "provenance": cone.provenance,
    }
    for name in ("rays", "inequalities", "equalities", "lineality"):
        val = getattr(cone, name)
        if val is not None:
            obj[name] = [[str(x) for x in v] for v in val]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_cone(path) -> RationalCone:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    version = obj.get("version") if isinstance(obj, dict) else None
    if version != CONE_FILE_VERSION:
        raise ValueError(f"unsupported cone file version: {version}")
    dim = obj["ambient_dim"]
    kwargs = {}
    for name in ("rays", "inequalities", "equalities", "lineality"):
        if name in obj:
            kwargs[name] = tuple(
                tuple(parse_number(x) for x in v) for v in obj[name]
            )
            if any(len(v) != dim for v in kwargs[name]):
                raise ValueError(f"every row of {name} needs {dim} entries")
    if "rays" not in kwargs and "inequalities" not in kwargs:
        raise ValueError("cone file has neither rays nor inequalities")
    return RationalCone(
        dim, provenance=obj.get("provenance", "unspecified"), **kwargs
    )
