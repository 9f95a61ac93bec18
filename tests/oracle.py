"""Independent oracles for the test suite.

Everything here is implemented from scratch against textbook
definitions, deliberately avoiding the package's own algorithms:
Schur polynomials come from semistandard-tableau monomial expansion,
characters are multiplied as sparse Laurent polynomials, and dominant
multiplicities are read off by repeated highest-weight stripping.
The admissibility oracle takes ranks by plain Gaussian elimination,
and the polyhedral elimination oracles run on a Fraction Gauss-Jordan
reduced row echelon form (`rref`).  The double description oracle
inserts the inequalities in the order given and keeps each zero-set as a
Python set; emptiness of a polyhedron is decided by homogenising it and
running that double description once per query.  The additive prune
oracle sums each l1 norm again wherever it needs one.  The violator
scan oracle is the package's earlier scan: one integer (or exact object)
matrix-vector product per constraint per block of rows.  Relation (A) and
the trace sums are counted over explicit lists of root vectors.  The LR
oracles are the package's earlier product side: one content-fixed
tableau count per candidate nu (`oracle_lr_count_tableaux`,
`oracle_tensor_expand`), a walk independent of the package's skew
expansions.  The Cauchy-component oracle composes them, one Cauchy
component of Sym(M_{p,q}) at a time (taken from `symq.cauchy_components`),
as a slower second path to the holomorphic multiplicity.  The semigroup
oracle is the package's earlier join: it streams triples one (p-pair,
q-pair) at a time, uniting the products of their block sets over every
Cauchy component, from tables built with `oracle_tensor_expand`, one
product kappa (x) delta per Cauchy weight, directly on the q-blocks.
The certificate oracle is the package's earlier search: it scans every
Weyl pair matching a facet normal, where the package checks one.  The
Schubert oracles are the package's earlier class algebra: classes are
multiplied in the full-flag Schubert basis by Monk's rule, one Chern
root at a time (`oracle_schubert_multiply`, the Euler class
`oracle_euler_class` and the Schubert number `oracle_schubert_condition`),
where the package multiplies polynomials and reads the basis coefficients
off with divided differences.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Tuple

Monomial = Tuple[int, ...]
Poly = Dict[Monomial, int]


def ssyt_monomials(shape: Tuple[int, ...], nvars: int) -> Poly:
    """Content monomials of all SSYT of the given partition shape."""
    rows = [r for r in shape if r > 0]
    if not rows:
        return {(0,) * nvars: 1}
    out: Poly = {}
    cols = rows[0]

    # Fill column by column, left to right, top to bottom within a column;
    # entries increase weakly along rows, strictly down columns.
    cells = []
    for c in range(cols):
        for r in range(len(rows)):
            if rows[r] > c:
                cells.append((r, c))
    filling: Dict[Tuple[int, int], int] = {}

    def rec(k: int, content: list) -> None:
        if k == len(cells):
            out_key = tuple(content)
            out[out_key] = out.get(out_key, 0) + 1
            return
        r, c = cells[k]
        lo = 1
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])
        for v in range(lo, nvars + 1):
            filling[(r, c)] = v
            content[v - 1] += 1
            rec(k + 1, content)
            content[v - 1] -= 1
            del filling[(r, c)]

    rec(0, [0] * nvars)
    return out


@lru_cache(maxsize=None)
def schur_poly(shape: Tuple[int, ...], nvars: int) -> "TupleEncodedPoly":
    return tuple(sorted(ssyt_monomials(shape, nvars).items()))


TupleEncodedPoly = Tuple[Tuple[Monomial, int], ...]


def gl_character(weight: Tuple[int, ...]) -> Poly:
    """Character of V^{U(n)}_weight as a Laurent polynomial (dict).

    Negative parts are handled by shifting to a partition and dividing
    every monomial by (x_1...x_n)^shift.
    """
    n = len(weight)
    shift = -min(weight) if weight and min(weight) < 0 else 0
    shape = tuple(w + shift for w in weight)
    return {
        tuple(e - shift for e in mono): c
        for mono, c in schur_poly(shape, n)
    }


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def poly_outer(a: Poly, b: Poly) -> Poly:
    """Character of an outer tensor: concatenate variable blocks."""
    return {
        ma + mb: ca * cb for ma, ca in a.items() for mb, cb in b.items()
    }


def strip_dominant(poly: Poly, blocks: Tuple[int, ...]) -> Dict[Monomial, int]:
    """Decompose a virtual character into blockwise-dominant weights.

    Repeatedly removes the character of the lexicographically largest
    dominant weight present.  `blocks` gives the variable split, e.g.
    (2, 2) for U(2) x U(2).
    """
    work = dict(poly)
    found: Dict[Monomial, int] = {}

    def is_block_dominant(m: Monomial) -> bool:
        at = 0
        for b in blocks:
            seg = m[at : at + b]
            if any(x < y for x, y in zip(seg, seg[1:])):
                return False
            at += b
        return True

    while work:
        top = max(k for k in work if is_block_dominant(k))
        c = work[top]
        found[top] = found.get(top, 0) + c
        at = 0
        chars = []
        for b in blocks:
            chars.append(gl_character(top[at : at + b]))
            at += b
        ch = chars[0]
        for extra in chars[1:]:
            ch = poly_outer(ch, extra)
        for mono, cc in ch.items():
            v = work.get(mono, 0) - c * cc
            if v:
                work[mono] = v
            elif mono in work:
                del work[mono]
    return found


def sym_power_character(shape_pq: Tuple[int, int], degree: int) -> Poly:
    """Character of Sym^degree(M_{p,q}): weights e_i - e_{p+j}."""
    p, q = shape_pq
    gens = []
    for i in range(p):
        for j in range(q):
            v = [0] * (p + q)
            v[i] = 1
            v[p + j] = -1
            gens.append(tuple(v))

    # multiset exponents over the pq generators summing to `degree`
    def rec(k: int, left: int, acc: Tuple[int, ...], bucket: Poly):
        if k == len(gens):
            if left == 0:
                bucket[acc] = bucket.get(acc, 0) + 1
            return
        for e in range(left + 1):
            nxt = tuple(
                a + e * g for a, g in zip(acc, gens[k])
            )
            rec(k + 1, left - e, nxt, bucket)

    bucket: Poly = {}
    rec(0, degree, (0,) * (p + q), bucket)
    return bucket


def oracle_holomorphic_multiplicity(lam, mu, nu, p, q) -> int:
    """m(lam, mu, nu) by brute-force character arithmetic."""
    d = sum(nu[:p]) - sum(lam[:p]) - sum(mu[:p])
    if d < 0 or d != (sum(lam[p:]) + sum(mu[p:])) - sum(nu[p:]):
        return 0
    ch = poly_mul(
        poly_outer(gl_character(lam[:p]), gl_character(lam[p:])),
        poly_outer(gl_character(mu[:p]), gl_character(mu[p:])),
    )
    ch = poly_mul(ch, sym_power_character((p, q), d))
    return strip_dominant(ch, (p, q)).get(tuple(nu), 0)


def oracle_lr(lam, mu, nu) -> int:
    """c^nu_{lam,mu} via Schur polynomial products in n variables."""
    n = len(lam)
    prod = poly_mul(gl_character(tuple(lam)), gl_character(tuple(mu)))
    return strip_dominant(prod, (n,)).get(tuple(nu), 0)


def rank_rationals(rows) -> int:
    """Rank over Q by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle_admissible(gamma, n: int) -> bool:
    """span(R_o cap gamma-perp) == span(R_o) cap gamma-perp, by ranks.

    R_o is the set of roots e_i - e_j (i != j) of gl_n; its span is the
    coordinate-sum-zero hyperplane, whose intersection with gamma-perp has
    dimension n-1 for central gamma and n-2 otherwise.
    """
    tight = []
    for i in range(n):
        for j in range(n):
            if i != j and gamma[i] == gamma[j]:
                v = [0] * n
                v[i], v[j] = 1, -1
                tight.append(v)
    want = n - 1 if all(g == gamma[0] for g in gamma) else n - 2
    return rank_rationals(tight) == want


def rref(rows):
    """Reduced row echelon form over Q (nonzero rows only), by Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivot_row = 0
    for col in range(len(m[0]) if m else 0):
        pr = next((r for r in range(pivot_row, len(m)) if m[r][col] != 0), None)
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
    return m[:pivot_row]


def _pivots(red):
    return [next(c for c, x in enumerate(r) if x != 0) for r in red]


def primitive(v) -> Tuple[int, ...]:
    """Coprime integer positive multiple of v."""
    fr = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in fr))
    ints = [int(x * den) for x in fr]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def primitive_signed(v) -> Tuple[int, ...]:
    """primitive(v), negated if its first nonzero entry is negative."""
    p = primitive(v)
    return tuple(-x for x in p) if next((x for x in p if x), 0) < 0 else p


def oracle_null_space_basis(rows, dim: int):
    """One vector per free column of the RREF: 1 there, -RREF entries on pivots."""
    red = rref(rows)
    pivots = _pivots(red)
    basis = []
    for fc in range(dim):
        if fc in pivots:
            continue
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(primitive_signed(v))
    return basis


def oracle_reduce_mod(normal, equalities):
    """Positive primitive multiple of normal with the RREF pivots eliminated."""
    red = rref(equalities)
    v = [Fraction(x) for x in normal]
    for r, pc in zip(red, _pivots(red)):
        f = v[pc]
        v = [x - f * y for x, y in zip(v, r)]
    return primitive(v)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def oracle_rays_from_halfspaces(inequalities, equalities=(), dim=None):
    """Extreme rays and lineality basis of {x : A x >= 0, E x = 0}.

    The textbook double description: inequalities are inserted in the
    order given, each ray's zero-set is a set of inequality indices, and
    two rays are adjacent when no third ray is tight on every inequality
    both are tight on.  Returns sorted tuples of primitive vectors.
    """
    ineqs = [primitive(a) for a in inequalities]
    if dim is None:
        dim = len(ineqs[0]) if ineqs else len(equalities[0])
    lineality = oracle_null_space_basis(equalities, dim)
    rays, zerosets = [], []
    for idx, a in enumerate(ineqs):
        pivot = next((l for l in lineality if _dot(a, l) != 0), None)
        if pivot is not None:
            pa = _dot(a, pivot)
            if pa < 0:
                pivot, pa = tuple(-x for x in pivot), -pa
            # the pivot itself combines to zero and drops out
            combs = [
                tuple(pa * x - _dot(a, l) * y for x, y in zip(l, pivot))
                for l in lineality
            ]
            lineality = [primitive(c) for c in combs if any(c)]
            rays = [
                tuple(pa * x - _dot(a, r) * y for x, y in zip(r, pivot))
                for r in rays
            ]
            for zs in zerosets:
                zs.add(idx)
            rays.append(pivot)
            zerosets.append(set(range(idx)))
            keep = [i for i, r in enumerate(rays) if any(r)]
            rays = [primitive(rays[i]) for i in keep]
            zerosets = [zerosets[i] for i in keep]
            continue
        vals = [_dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        for i in zero:
            zerosets[i].add(idx)
        if not neg:
            continue
        new_rays = [rays[i] for i in pos + zero]
        new_zs = [zerosets[i] for i in pos + zero]
        for i in pos:
            for j in neg:
                common = zerosets[i] & zerosets[j]
                if any(common <= zs for k, zs in enumerate(zerosets) if k not in (i, j)):
                    continue
                comb = tuple(vals[i] * y - vals[j] * x for x, y in zip(rays[i], rays[j]))
                if any(comb):
                    new_rays.append(primitive(comb))
                    new_zs.append(common | {idx})
        rays, zerosets = new_rays, new_zs
    return (
        tuple(sorted(set(primitive(r) for r in rays))),
        tuple(sorted(set(primitive_signed(l) for l in lineality))),
    )


def homogenization(poly):
    """H-representation of the cone over `poly` in coordinates (x, t), t >= 0."""
    ineqs = [tuple(n) + (c,) for n, c in poly.inequalities]
    ineqs.append((0,) * poly.ambient_dim + (1,))
    eqs = [tuple(n) + (c,) for n, c in poly.equalities]
    return ineqs, eqs


def oracle_is_empty(poly) -> bool:
    """A polyhedron is empty iff its homogenisation meets t > 0 nowhere:
    no extreme ray with t > 0 and no lineality vector with t != 0."""
    ineqs, eqs = homogenization(poly)
    rays, lin = oracle_rays_from_halfspaces(ineqs, eqs, poly.ambient_dim + 1)
    return all(r[-1] <= 0 for r in rays) and all(l[-1] == 0 for l in lin)


def oracle_additive_prune(points):
    """The additive prune with every l1 norm summed where it is needed.

    Drops each point x = g + h with g kept earlier, h in the set and both
    parts of smaller l1 norm than x; zero points are dropped too.
    """
    pts = {tuple(int(x) for x in p) for p in points}
    pts = {p for p in pts if any(p)}

    def l1(v):
        return sum(abs(x) for x in v)

    kept = []
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


# Rows per block of `oracle_worst_violators`.
SCAN_ROWS = 1 << 16


def oracle_worst_violators(pts, normals, lins):
    """The first row of largest violation per violated constraint, found
    with one matrix-vector product per constraint per block of rows: in
    int32 when max ||constraint||_1 * max |x| < 2**31, int64 below 2**63,
    and otherwise in exact Python numbers."""
    import numpy as np

    arr = np.asarray(pts)
    if arr.dtype.kind not in "iu":
        arr = np.array(pts, dtype=object)
    constraints = [(l, True) for l in lins] + [(r, False) for r in normals]
    if not constraints:
        return []
    dtype = object
    if arr.dtype.kind in "iu":
        c_max = max(sum(map(abs, c)) for c, _ in constraints)
        bound = c_max * max(-int(arr.min(initial=0)), int(arr.max(initial=0)), 1)
        if bound < 2**63:
            dtype = np.int32 if bound < 2**31 else np.int64
    vecs = [np.array(c, dtype=dtype) for c, _ in constraints]
    depth = [0] * len(constraints)
    where = [None] * len(constraints)
    for start in range(0, len(arr), SCAN_ROWS):
        block = arr[start : start + SCAN_ROWS].astype(dtype)
        for k, ((_, is_eq), vec) in enumerate(zip(constraints, vecs)):
            vals = block @ vec
            bad = np.abs(vals) if is_eq else -vals
            i = int(bad.argmax())
            if bad[i] > depth[k]:
                depth[k], where[k] = bad[i], start + i
    return sorted({tuple(arr[i].tolist()) for i in where if i is not None})


# ---------------------------------------------------------------------------
# Root systems of u(p,q), as explicit lists of vectors.  The package counts
# over index pairs instead; these lists are the definitions it is checked
# against.


def _basis_diff(n: int, i: int, j: int) -> Tuple[int, ...]:
    v = [0] * n
    v[i] = 1
    v[j] = -1
    return tuple(v)


def compact_positive_roots(shape):
    """e_i - e_j for i < j within each block."""
    n = shape.rank
    out = []
    for i in range(shape.p):
        for j in range(i + 1, shape.p):
            out.append(_basis_diff(n, i, j))
    for i in range(shape.p, n):
        for j in range(i + 1, n):
            out.append(_basis_diff(n, i, j))
    return out


def noncompact_positive_roots(shape):
    """e_i - e_{p+j} for 1 <= i <= p, 1 <= j <= q; there are pq of them."""
    n = shape.rank
    return [_basis_diff(n, i, shape.p + j) for i in range(shape.p) for j in range(shape.q)]


def positive_roots(shape):
    """Full positive system of u(p,q): compact plus noncompact."""
    return compact_positive_roots(shape) + noncompact_positive_roots(shape)


def all_roots(shape):
    """All nonzero T-weights e_i - e_j (i != j) of u(p,q) complexified."""
    n = shape.rank
    return [_basis_diff(n, i, j) for i in range(n) for j in range(n) if i != j]


def oracle_relation_A(gamma, w1, w2, shape) -> bool:
    """Relation (A) counted over the root lists."""
    g1, g2 = w1.apply(gamma, shape), w2.apply(gamma, shape)
    rc_pos = compact_positive_roots(shape)
    lhs = sum(1 for v in (g1, g2, gamma) for a in rc_pos if _dot(a, v) > 0)
    rhs = 2 * sum(1 for a in rc_pos if _dot(a, gamma) != 0) + sum(
        1 for h in noncompact_positive_roots(shape) if _dot(h, gamma) > 0
    )
    return lhs == rhs


def oracle_positive_sum(v, shape):
    """Sum of <alpha, v> over the positive roots alpha pairing positively."""
    return sum(max(_dot(a, v), 0) for a in positive_roots(shape))


# ---------------------------------------------------------------------------
# LR coefficients one nu at a time, by content-fixed tableau counts


def _strip_zeros(lam):
    out = list(lam)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def oracle_lr_count_tableaux(lam, mu, nu) -> int:
    """Number of LR skew tableaux of shape nu/lam and content mu.

    All three must be partitions (nonnegative, weakly decreasing).  Cells
    are filled in reverse reading order (each row right to left, top row
    first) so the lattice condition can be checked incrementally.
    """
    lam = _strip_zeros(lam)
    mu = _strip_zeros(mu)
    nu = _strip_zeros(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if len(nu) < len(lam) or any(n < l for n, l in zip(nu, lam)):
        return 0
    if not mu:
        return 1 if nu == lam else 0
    lam_pad = lam + (0,) * (len(nu) - len(lam))

    cells = [(r, c) for r in range(len(nu)) for c in range(nu[r] - 1, lam_pad[r] - 1, -1)]
    nletters = len(mu)
    remaining = list(mu)
    counts = [0] * (nletters + 1)  # counts[v] = #v placed so far
    counts[0] = sum(mu) + 1  # sentinel: letter 1 always allowed
    filled: Dict[Tuple[int, int], int] = {}

    def place(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        total = 0
        right = filled.get((r, c + 1))  # filled before, same row
        above = filled.get((r - 1, c)) if r > 0 and c < nu[r - 1] else None
        hi = right if right is not None else nletters
        lo = (above + 1) if above is not None else 1
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0 or counts[v] + 1 > counts[v - 1]:
                continue
            filled[(r, c)] = v
            remaining[v - 1] -= 1
            counts[v] += 1
            total += place(k + 1)
            counts[v] -= 1
            remaining[v - 1] += 1
            del filled[(r, c)]
        return total

    return place(0)


def _candidate_nus(lam, mu, n):
    """Partitions nu with lam <= nu, |nu| = |lam| + |mu|, at most n rows."""
    total = sum(lam) + sum(mu)
    lam_pad = tuple(lam) + (0,) * (n - len(lam))
    mu1 = mu[0] if mu else 0

    def rec(row, prev, left, acc):
        if row == n:
            if left == 0:
                yield tuple(acc)
            return
        low = lam_pad[row]
        # the first row gains at most mu_1 boxes (the ones of the content)
        high = min(prev, low + mu1 if row == 0 else prev, left + low)
        for v in range(high, low - 1, -1):
            acc.append(v)
            yield from rec(row + 1, v, left - (v - low), acc)
            acc.pop()

    yield from rec(0, total, sum(mu), [])


@lru_cache(maxsize=None)
def oracle_tensor_expand(lam, mu) -> Dict[Tuple[int, ...], int]:
    """{nu: c^nu_{lam,mu}} for dominant U(n) weight tuples of equal length
    n >= 1: both shifted to end in 0, then one tableau count per candidate
    nu, shifted back.  Memoised; callers must not change the result."""
    a, b = lam[-1], mu[-1]
    lam0, mu0 = tuple(x - a for x in lam), tuple(x - b for x in mu)
    if sum(mu0) > sum(lam0):  # the smaller content keeps the walk shallow
        lam0, mu0 = mu0, lam0
    out = {}
    for nu0 in _candidate_nus(_strip_zeros(lam0), mu0, len(lam)):
        c = oracle_lr_count_tableaux(lam0, mu0, nu0)
        if c:
            out[tuple(x + a + b for x in nu0)] = c
    return out


# ---------------------------------------------------------------------------
# Holomorphic multiplicities one Cauchy component at a time


def oracle_cauchy_multiplicity(lam, mu, nu, shape) -> int:
    """m(lam, mu, nu) as the sum over the Cauchy components V_delta of
    Sym^d(M_{p,q}) of the two blocks' triple multiplicities, each expanded
    through V_lam (x) V_mu and V_kappa (x) V_delta.  This is the loop the
    package ran before its skew expansions, on `oracle_tensor_expand`."""
    from holocone import symq

    p = shape.p
    d = sum(nu[:p]) - sum(lam[:p]) - sum(mu[:p])
    if d < 0 or d != (sum(lam[p:]) + sum(mu[p:])) - sum(nu[p:]):
        return 0

    def triple(a, b, delta, c):
        return sum(
            k * oracle_tensor_expand(kappa, delta).get(c, 0)
            for kappa, k in oracle_tensor_expand(a, b).items()
        )

    total = 0
    for comp in symq.cauchy_components(shape, d):
        t_p = triple(tuple(lam[:p]), tuple(mu[:p]), comp.up_weight, tuple(nu[:p]))
        if t_p:
            total += t_p * triple(tuple(lam[p:]), tuple(mu[p:]), comp.uq_weight, tuple(nu[p:]))
    return total


# ---------------------------------------------------------------------------
# Semigroup enumeration as a stream of triples


def _oracle_block_table(pairs, deltas, bound):
    """pair -> Cauchy weight delta -> set of boxed blocks in a (x) b (x) delta,
    through `oracle_tensor_expand`."""
    bases = {(a, b): oracle_tensor_expand(a, b) for a, b in pairs}
    support = {
        (kappa, delta): {
            res
            for res in oracle_tensor_expand(kappa, delta)
            if res[0] <= bound and res[-1] >= -bound
        }
        for kappa in set().union(*bases.values())
        for delta in deltas
    }
    table = {}
    for pair, base in bases.items():
        per_delta = {}
        for delta in deltas:
            blocks = set().union(*(support[kappa, delta] for kappa in base))
            if blocks:
                per_delta[delta] = blocks
        if per_delta:
            table[pair] = per_delta
    return table


def oracle_block_tables(shape, bound):
    """(p_table, q_table): pair -> Cauchy partition delta -> the boxed
    blocks in a (x) b (x) delta, on the q side in a (x) b (x) delta^nat,
    for every Cauchy component up to the box's degree cap of 3 q bound."""
    from holocone import symq
    from holocone.semigroup import dominant_box_vectors

    p, q = shape.p, shape.q
    pvecs = dominant_box_vectors(p, bound)
    qvecs = dominant_box_vectors(q, bound)
    comps = [c for d in range(3 * q * bound + 1) for c in symq.cauchy_components(shape, d)]
    p_pairs = [(a, b) for a in pvecs for b in pvecs if sum(a) + sum(b) <= p * bound]
    q_pairs = [(a, b) for a in qvecs for b in qvecs if sum(a) + sum(b) >= -q * bound]
    tables = []
    for pairs, weight in ((p_pairs, "up_weight"), (q_pairs, "uq_weight")):
        by_weight = {getattr(c, weight): c.delta for c in comps}
        table = _oracle_block_table(pairs, list(by_weight), bound)
        tables.append(
            {
                pair: {by_weight[w]: blocks for w, blocks in per_delta.items()}
                for pair, per_delta in table.items()
            }
        )
    return tuple(tables)


def _oracle_iter_semigroup(shape, bound):
    """Every box-bounded semigroup triple, once: for each p-pair and q-pair,
    the union over the Cauchy components of degree up to the box's cap of
    the products of their block sets."""
    from itertools import product

    from holocone import symq

    p, q = shape.p, shape.q
    max_deg = 3 * q * bound
    comps = [symq.cauchy_components(shape, d) for d in range(max_deg + 1)]
    p_table, q_table = oracle_block_tables(shape, bound)

    for (lp, mp), p_per_delta in p_table.items():
        base_deg = sum(lp) + sum(mp)
        for (lq, mq), q_per_delta in q_table.items():
            budget = sum(lq) + sum(mq)
            dmax = min(p * bound - base_deg, budget + q * bound, max_deg)
            nus = set()
            for d in range(dmax + 1):
                for comp in comps[d]:
                    pm = p_per_delta.get(comp.delta)
                    qm = q_per_delta.get(comp.delta)
                    if pm and qm:
                        nus.update(product(pm, qm))
            for np_, nq in nus:
                yield (lp + lq, mp + mq, np_ + nq)


def oracle_semigroup_points(shape, bound):
    """The box-bounded semigroup as an int8 matrix of (lam, mu, nu) rows,
    streamed from a per-(p-pair, q-pair) join of the block tables."""
    from itertools import chain

    import numpy as np

    if bound < 0:
        raise ValueError("bound must be >= 0")
    flat = chain.from_iterable(l + m + n for l, m, n in _oracle_iter_semigroup(shape, bound))
    return np.fromiter(flat, dtype=np.int8).reshape(-1, 3 * shape.rank)


# ---------------------------------------------------------------------------
# Facet certification by a scan of Weyl pairs


def oracle_certify_normal(normal, shape):
    """The package's earlier certificate search: every (w1, w2) with
    w1.gamma and w2.gamma equal to the A- and B-blocks, scanned in
    lexicographic order through relation (A), the trace condition and the
    Schubert number; the first pair with k >= 1 is the certificate."""
    from holocone import ressayre
    from holocone.polyhedral import primitive
    from holocone.weights import all_weyl_elements

    n = shape.rank
    normal = primitive(normal)
    g = ressayre._gamma_from_normal(normal, shape)
    if all(v == 0 for v in g) or not ressayre.admissible(g, shape):
        return None
    ws = all_weyl_elements(shape)
    w1s = [w for w in ws if w.apply(g, shape) == normal[:n]]
    w2s = [w for w in ws if w.apply(g, shape) == normal[n : 2 * n]]
    for w1 in w1s:
        for w2 in w2s:
            cand = ressayre.RessayreCandidate(g, w1, w2)
            if not ressayre.relation_A(cand, shape):
                continue
            if not ressayre.trace_condition(cand, shape):
                continue
            k = ressayre.schubert_condition(cand, shape)
            if k >= 1:
                return ressayre.FacetCertificate(cand, k, normal)
    return None


# ---------------------------------------------------------------------------
# Schubert products by Monk's rule


def _monk(cls, k: int, block: int, shape):
    """A class {(wp, wq): c} times x_k (block 0) or y_k (block 1), by Monk's
    rule: x_k S_w = sum S_{w t_kj} over k < j minus sum S_{w t_ik} over
    i < k, each over the transpositions that raise the length by one."""
    from holocone.schubert import inversions

    n = shape.q if block else shape.p
    out = {}
    for pair, c in cls.items():
        w = pair[block]
        lw = inversions(w)
        for i, j, sign in [(k, j, 1) for j in range(k + 1, n)] + [(i, k, -1) for i in range(k)]:
            v = list(w)
            v[i], v[j] = v[j], v[i]
            v = tuple(v)
            if w[i] < w[j] and inversions(v) == lw + 1:
                key = (pair[0], v) if block else (v, pair[1])
                out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _monk_polynomial(cls, poly_x, poly_y, shape):
    """cls times poly_x(x) * poly_y(y), one Chern root at a time."""
    out = {}
    for ex, cx in poly_x.items():
        for ey, cy in poly_y.items():
            cur = cls
            for block, exps in enumerate((ex, ey)):
                for k, e in enumerate(exps):
                    for _ in range(e):
                        cur = _monk(cur, k, block, shape)
            for key, c in cur.items():
                out[key] = out.get(key, 0) + c * cx * cy
    return {key: c for key, c in out.items() if c}


def oracle_schubert_multiply(a, b, shape):
    """The package's earlier cup product: each basis class (u, v) of b is
    expanded into S_u(x) S_v(y), and a is multiplied by it monomial by
    monomial with Monk's rule, in the full-flag Schubert basis."""
    from holocone.schubert import schubert_polynomial

    out = {}
    for (u, v), cb in b.items():
        prod = _monk_polynomial(a, schubert_polynomial(u), schubert_polynomial(v), shape)
        for key, c in prod.items():
            out[key] = out.get(key, 0) + c * cb
    return {key: c for key, c in out.items() if c}


def oracle_euler_class(gamma, shape):
    """The package's earlier Euler class: the unit class times each Chern
    root EULER_SIGN * (x_{sigma_p(i)} - y_{sigma_q(j)}) of a weight
    e_i - e_{p+j} with gamma_i > gamma_{p+j}, by Monk's rule."""
    from holocone.schubert import EULER_SIGN, block_sorting_perm, unit_class
    from holocone.weights import blocks

    gp, gq = blocks(gamma, shape)
    sp, sq = block_sorting_perm(gp), block_sorting_perm(gq)
    cls = unit_class(shape)
    for i in range(shape.p):
        for j in range(shape.q):
            if gp[i] > gq[j]:
                out = {}
                for k, block, sign in ((sp[i], 0, EULER_SIGN), (sq[j], 1, -EULER_SIGN)):
                    for key, c in _monk(cls, k, block, shape).items():
                        out[key] = out.get(key, 0) + sign * c
                cls = {key: c for key, c in out.items() if c}
    return cls


def oracle_schubert_condition(cand, shape) -> int:
    """The package's earlier Schubert number: the class of the base cell
    times the classes of the two translated cells and the Euler class,
    multiplied class by class with Monk's rule; the coefficient of the
    point class of F_gamma."""
    from holocone import schubert as sc
    from holocone.weights import blocks, identity_weyl

    gp, gq = blocks(cand.gamma, shape)
    cls = sc.unit_class(shape)
    for w in (identity_weyl(shape), cand.w1, cand.w2):
        cell = {(sc.cell_class_rep(w.wp, gp), sc.cell_class_rep(w.wq, gq)): 1}
        cls = oracle_schubert_multiply(cls, cell, shape)
    cls = oracle_schubert_multiply(cls, oracle_euler_class(cand.gamma, shape), shape)
    return sc.point_coefficient(cls, sc.flag_type_of(cand.gamma, shape), shape)
