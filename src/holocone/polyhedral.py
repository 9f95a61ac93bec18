"""Exact rational polyhedral cones: double description, facets, slices.

Cones are kept in exact arithmetic throughout (python ints / Fractions).
The double description pass inserts inequalities in a fixed order and
canonicalizes every generator to a primitive integer vector, so all
outputs are deterministic.

Conversions:
  * rays_from_halfspaces: H-representation -> extreme rays + lineality
  * cone_from_points:     V-representation -> irredundant facets, via the
    dual cone (facet normals are the extreme rays of the dual)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

Vec = Tuple[Fraction, ...]
IntVec = Tuple[int, ...]

CONE_FILE_VERSION = 1


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def dot(a: Sequence, b: Sequence):
    """Exact dot product; stays in int when both vectors are integral."""
    return sum(x * y for x, y in zip(a, b))


def primitive(v: Sequence) -> IntVec:
    """Scale to coprime integers; direction (sign) is preserved."""
    if all(type(x) is int for x in v):
        ints = list(v)
    else:
        fr = [_frac(x) for x in v]
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


def rref(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    """Reduced row echelon form over the rationals (destructive copy)."""
    m = [list(map(_frac, r)) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(m)):
            if m[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        m[pivot_row], m[pr] = m[pr], m[pivot_row]
        piv = m[pivot_row][col]
        m[pivot_row] = [x / piv for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return [r for r in m[:pivot_row]]


def rank(vectors: Sequence[Sequence]) -> int:
    return len(rref([list(v) for v in vectors]))


def null_space_basis(rows: Sequence[Sequence], dim: int) -> List[IntVec]:
    """Primitive integer basis of {x : r . x = 0 for all rows}."""
    red = rref([list(r) for r in rows])
    pivots = []
    for r in red:
        for c, x in enumerate(r):
            if x != 0:
                pivots.append(c)
                break
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
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
    Rays are extreme modulo the lineality space.
    """
    # Scaling an inequality by a positive factor changes nothing, so work
    # with primitive integer normals; all ray arithmetic then stays in int.
    ineqs = [primitive(a) for a in inequalities]
    if dim is None:
        if ineqs:
            dim = len(ineqs[0])
        elif equalities:
            dim = len(equalities[0])
        else:
            raise ValueError("dimension undetermined")
    if equalities:
        lineality = null_space_basis(equalities, dim)
    else:
        lineality = [
            tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
        ]
    rays: List[IntVec] = []
    zerosets: List[set] = []  # per ray: indices of processed tight ineqs

    for idx, a in enumerate(ineqs):
        pivot = None
        for l in lineality:
            if dot(a, l) != 0:
                pivot = l
                break
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
            rays = [
                tuple(pa * x - dot(a, r) * px for x, px in zip(r, pivot))
                for r in rays
            ]
            # all old rays now lie on the hyperplane a.x = 0
            for zs in zerosets:
                zs.add(idx)
            rays.append(pivot)
            # the promoted ray is tight on every inequality seen so far
            zerosets.append(set(range(idx)))
            # drop rays that collapsed to zero
            keep = [i for i, r in enumerate(rays) if not _is_zero(r)]
            rays = [primitive(rays[i]) for i in keep]
            zerosets = [zerosets[i] for i in keep]
            continue

        vals = [dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        if not neg:
            for i in zero:
                zerosets[i].add(idx)
            continue
        new_rays: List[IntVec] = []
        new_zs: List[set] = []
        for i in pos + zero:
            if i in zero:
                zerosets[i].add(idx)
            new_rays.append(rays[i])
            new_zs.append(zerosets[i])
        for i in pos:
            for j in neg:
                common = zerosets[i] & zerosets[j]
                if not _adjacent(common, zerosets, i, j):
                    continue
                comb = tuple(
                    vals[i] * rj - vals[j] * ri
                    for ri, rj in zip(rays[i], rays[j])
                )
                if _is_zero(comb):
                    continue
                new_rays.append(primitive(comb))
                new_zs.append(common | {idx})
        rays, zerosets = new_rays, new_zs

    out_rays = sorted(set(primitive(r) for r in rays))
    out_lin = sorted(set(primitive_signed(l) for l in lineality))
    return tuple(out_rays), tuple(out_lin)


def _is_zero(v: Sequence) -> bool:
    return all(x == 0 for x in v)


def _adjacent(common: set, zerosets: List[set], i: int, j: int) -> bool:
    """Combinatorial adjacency: no third ray is tight on all of `common`."""
    for k, zs in enumerate(zerosets):
        if k != i and k != j and common <= zs:
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
        ineqs, eqs = facets_of_points(list(self.rays) + list(self.lineality or ())
                                      + [tuple(-x for x in l) for l in (self.lineality or ())],
                                      self.ambient_dim)
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
        eq_canon = tuple(
            primitive_signed(r)
            for r in rref([list(map(Fraction, e)) for e in eqs])
        )
        return eq_canon, tuple(sorted(normals))


def reduce_mod_lineality(normal: Sequence, equalities: Sequence[Sequence]) -> IntVec:
    """Canonical primitive representative of a normal modulo span(equalities).

    Two inequality normals cut out the same halfspace of {x : E x = 0}
    exactly when their reductions agree; this eliminates the pivot
    coordinates of the RREF of the equality rows.
    """
    eqs = rref([list(map(Fraction, e)) for e in equalities])
    pivots = []
    for r in eqs:
        for i, x in enumerate(r):
            if x != 0:
                pivots.append(i)
                break
    v = list(map(Fraction, normal))
    for r, pc in zip(eqs, pivots):
        f = v[pc]
        if f:
            v = [x - f * y for x, y in zip(v, r)]
    return primitive(v)


def _exact_row(row) -> tuple:
    """Coerce a point row (possibly numpy scalars) to exact numbers."""
    return tuple(x if isinstance(x, (int, Fraction)) else int(x) for x in row)


def _worst_violators(pts, normals, lins):
    """One worst offender per violated constraint, deterministically.

    Uses integer matrix products via numpy when the points are integers
    and every product sum is bounded by max ||constraint||_1 * max |x|
    < 2**63, so int64 cannot overflow; otherwise plain Python (rational
    points and integers beyond int64 included).  Returns [] iff every
    point satisfies normal . x >= 0 and lin . x == 0.
    """
    constraints = [(l, True) for l in lins] + [(r, False) for r in normals]
    out = []
    arr64 = None
    if constraints and len(pts) > 512:
        import numpy as np

        try:
            arr = np.asarray(pts)
        except (TypeError, ValueError):
            arr = None
        # Python ints beyond int64 and Fractions give an object array.
        if arr is not None and arr.dtype.kind == "i":
            arr64 = arr.astype(np.int64)
            c_max = max(sum(abs(x) for x in c) for c, _ in constraints)
            x_max = max(-int(arr64.min(initial=0)), int(arr64.max(initial=0)), 1)
            if c_max * x_max >= 2**63:
                arr64 = None
    if arr64 is not None:
        for c, is_eq in constraints:
            vals = arr64 @ np.array(c, dtype=np.int64)
            bad = np.abs(vals) if is_eq else -vals
            i = int(bad.argmax())
            if bad[i] > 0:
                out.append(tuple(int(v) for v in arr64[i]))
    else:
        for c, is_eq in constraints:
            worst, wv = None, 0
            for x in pts:
                v = dot(c, x)
                v = abs(v) if is_eq else -v
                if v > wv or (v == wv and v > 0 and (worst is None or tuple(x) < worst)):
                    worst, wv = tuple(x), v
            if wv > 0:
                out.append(worst)
    return sorted(set(out))


def additive_prune(points) -> List[IntVec]:
    """Drop points splitting as x = g + h in the set with |g|, |h| < |x|.

    Sound for any integer point set (x is then a positive combination of
    the parts); on semigroup samples it shrinks the set by orders of
    magnitude.  Strict l1 descent on both parts keeps the recursion
    well-founded, so the kept points generate the same cone.
    """
    pts = set(_exact_row(p) for p in points)
    pts = {p for p in pts if not _is_zero(p)}

    def l1(v):
        return sum(abs(x) for x in v)

    kept: List[IntVec] = []
    for x in sorted(pts, key=lambda v: (l1(v), v)):
        nx = l1(x)
        reducible = False
        for g in kept:
            if l1(g) >= nx:
                break
            h = tuple(a - b for a, b in zip(x, g))
            if l1(h) < nx and h in pts:
                reducible = True
                break
        if not reducible:
            kept.append(x)
    return sorted(kept)


def facets_of_points(points: Sequence[Sequence], dim: int, seed=None):
    """Irredundant H-representation of cone(points).

    Facet normals are the extreme rays of the dual cone; the equalities
    are a basis of the orthogonal complement of span(points).

    Large point sets are handled incrementally: the dual cone is built
    from a reduced generating subset (additive pruning, or the caller's
    `seed`), then worst violators of the current facets are folded in
    until none remain.  The fixed point is the exact hull of the whole
    set, independent of the seeding.
    """
    try:
        npts = len(points)
    except TypeError:
        points = list(points)
        npts = len(points)
    if not npts:
        raise ValueError("need at least one generating point")
    if seed is not None:
        active = [primitive(_exact_row(s)) for s in seed]
        active = sorted(set(a for a in active if not _is_zero(a)))
    elif npts <= 1_000_000:
        active = additive_prune(points)
    else:
        raise ValueError(
            "point set too large for automatic seeding; pass seed="
        )
    if not active:
        # cone({0}) is the origin: every coordinate is pinned to zero
        eqs = tuple(
            tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
        )
        return (), eqs
    while True:
        dual_rays, dual_lin = rays_from_halfspaces(active, (), dim)
        violators = _worst_violators(points, dual_rays, dual_lin)
        violators = [primitive(v) for v in violators]
        known = set(active)
        violators = [v for v in violators if v not in known]
        if not violators:
            return tuple(sorted(dual_rays)), tuple(sorted(dual_lin))
        active += violators


def cone_from_points(points: Sequence[Sequence], provenance="generated-from-semigroup") -> RationalCone:
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("need at least one generating point")
    dim = len(pts[0])
    ineqs, eqs = facets_of_points(pts, dim)
    return RationalCone(
        dim, inequalities=ineqs, equalities=eqs, provenance=provenance
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

    def homogenization(self):
        """Cone in dim+1 coordinates (x, t), t >= 0."""
        ineqs = [tuple(n) + (c,) for n, c in self.inequalities]
        ineqs.append((0,) * self.ambient_dim + (1,))
        eqs = [tuple(n) + (c,) for n, c in self.equalities]
        return ineqs, eqs

    def is_empty(self) -> bool:
        ineqs, eqs = self.homogenization()
        rays, lin = rays_from_halfspaces(ineqs, eqs, self.ambient_dim + 1)
        for r in rays:
            if r[-1] > 0:
                return False
        for l in lin:
            if l[-1] != 0:
                return False
        return True


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
    if poly.is_empty():
        raise ValueError("recession cone of an empty polyhedron")
    return RationalCone(
        poly.ambient_dim,
        inequalities=tuple(n for n, _ in poly.inequalities),
        equalities=tuple(n for n, _ in poly.equalities),
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


def _num_to_str(x) -> str:
    return str(x)


def _str_to_num(s: str):
    f = Fraction(s)
    return int(f) if f.denominator == 1 else f


def save_cone(cone: RationalCone, path) -> None:
    obj = {
        "version": CONE_FILE_VERSION,
        "ambient_dim": cone.ambient_dim,
        "provenance": cone.provenance,
    }
    for name in ("rays", "inequalities", "equalities", "lineality"):
        val = getattr(cone, name)
        if val is not None:
            obj[name] = [[_num_to_str(x) for x in v] for v in val]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_cone(path) -> RationalCone:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("version") != CONE_FILE_VERSION:
        raise ValueError(f"unsupported cone file version: {obj.get('version')}")
    kwargs = {}
    for name in ("rays", "inequalities", "equalities", "lineality"):
        if name in obj:
            kwargs[name] = tuple(
                tuple(_str_to_num(x) for x in v) for v in obj[name]
            )
    return RationalCone(
        obj["ambient_dim"], provenance=obj.get("provenance", "unspecified"), **kwargs
    )
