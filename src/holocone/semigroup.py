"""Enumeration of the integral Horn semigroup inside a coordinate box.

A triple (lam, mu, nu) of dominant integral weights belongs to the
semigroup when [V_nu : V_lam (x) V_mu (x) Sym(M_{p,q})] is nonzero.  The
box bound is on every coordinate; negative entries are essential, so a
degree bound would not do.

Membership needs only the support of each tensor product: Littlewood-
Richardson coefficients are never negative, so a sum of their products
is positive exactly when one term is, and no multiplicity is added up.
Each side is one table of rows (a, b, n): a pair (a, b) of boxed
p-blocks and a boxed block n of nu, with the Cauchy partitions delta
(`symq.cauchy_components`) for which n is in a (x) b (x) delta.  Since n
is in kappa (x) delta exactly when c^n_{kappa,delta} != 0, this is a
Boolean product through kappa.  Pairs and kappa are grouped by
s = |a| + |b| = |kappa|; per group, a 0/1 matrix T_s of unordered pairs
x (kappa in a (x) b) times a 0/1 matrix S_s of kappa x (n, delta) (every
delta of one n read off one skew expansion s_{n/kappa}, `lr._skew`) is
nonzero exactly at the (pair, n, delta) of the table; as
V_a (x) V_b = V_b (x) V_a, the rows of (b, a) repeat those of (a, b).
The kappa of T_s come from one `lr._tensor` per unordered pair of shift
classes: with w0 = w - w_last (1,...,1), V_a (x) V_b is V_a0 (x) V_b0
shifted by a_last + b_last, so every pair of the classes of a0 and b0
reads the one support.  The deltas of s_{n/kappa} depend only on the
translation class (n - kappa_last, kappa - kappa_last), so S takes one
skew expansion per class, across all weights s.  Both matrices are
built with array operations: the pairs, kappas and (kappa, n) are index
arrays, with no Python loop over them.  The q side goes through duals: with
w* = -reverse(w), [V_m : V_b (x) V_delta^*] = [V_m* : V_b* (x) V_delta],
so the q-table is the same table built on the q-blocks, whose rows are
mapped back by the star when they are written out.

The two tables are joined per Cauchy degree d.  A p-row (a, n) can
only meet components of degree |n| - |a|, so each row belongs to one
degree; its entry in column delta says that n occurs in
lam' (x) mu' (x) delta.  A q-row (b, m) belongs to degree |b| - |m| in
the same way.  The triple (a, n; b, m) is in the semigroup exactly when
the two rows share a component.  Rows of one degree with the same
pattern of components meet the same rows of the other side, so each
side is grouped by distinct pattern (`_pattern_groups`), one Boolean
product of the distinct patterns says which groups g, h meet, and the
joined entries are the union of the Cartesian products g x h.  Distinct
entries give distinct triples, so each triple is found once, and the
box bounds on n and m already cap the degree.  Everything is
deterministic.
"""

from __future__ import annotations

import operator
from itertools import chain, combinations_with_replacement
from typing import Dict, List, Tuple

from . import lr, polyhedral, symq
from .weights import Shape

Vector = Tuple[int, ...]
Triple = Tuple[Vector, Vector, Vector]

MAX_BOUND = 127  # the largest box bound an int8 point matrix holds; see check_bound


def check_bound(bound) -> int:
    """bound as an int (`operator.index`, so True reads as 1); ValueError
    unless it is an integer in 0..MAX_BOUND.  The one range check of a
    box bound: the enumeration, `--bound` and a points header use it."""
    try:
        bound = operator.index(bound)
    except TypeError:
        raise ValueError(f"box bound must be an integer, got {bound!r}") from None
    if not 0 <= bound <= MAX_BOUND:
        raise ValueError(f"box bound must be in 0..{MAX_BOUND}, got {bound}")
    return bound


def dominant_box_vectors(length: int, bound: int) -> List[Vector]:
    """All weakly decreasing integer vectors with entries in [-bound, bound],
    in lexicographically decreasing order."""
    return list(combinations_with_replacement(range(bound, -bound - 1, -1), length))


def _sorted_runs(rows):
    """The stable order of the rows of a 2-D array by their bytes (a void
    view of each row), and the mask, in that order, of the rows that
    differ from the one before."""
    import numpy as np

    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return order, np.concatenate([[True], keys[1:] != keys[:-1]])


def _distinct(rows):
    """(first, inverse): for each distinct row of a 2-D array, in the
    order of their bytes, the index of its first copy, and for each row
    the number of its distinct row."""
    import numpy as np

    order, new = _sorted_runs(rows)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _runs(starts, counts):
    """The runs starts[i], ..., starts[i] + counts[i] - 1, concatenated."""
    import numpy as np

    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])


def _incidences(length: int, bound: int, q: int, deltas: List[List[Vector]]):
    """Per Cauchy degree d, the rows (a, b, n) of boxed blocks with n in
    a (x) b (x) delta for some delta in deltas[d], as an int8 matrix of
    the concatenated blocks, and their Boolean incidence with deltas[d].

    Pairs are grouped by s = |a| + |b|.  T_s marks kappa in a (x) b for
    each unordered pair: the support of V_a0 (x) V_b0, one `lr._tensor`
    per unordered pair of shift classes {a0, b0}, shifted by
    a_last + b_last.  S_s marks (n, delta) for each kappa of weight s and
    boxed n with c^n_{kappa,delta} != 0, each delta in a fixed slot of
    its degree |n| - s, read off one `lr._skew` per translation class
    (n - kappa_last, kappa - kappa_last) across all s.  Both are 0/1, so
    every partial sum of T_s @ S_s is an integer from 0 to the inner
    dimension; both take the type `polyhedral._exact_dtype` gives for the
    largest (float32 below 2**24), which holds those sums exactly, so an
    entry is nonzero exactly when one term is.  No such delta has more
    parts than q or a part above n_1 - kappa_last <= 3 bound, so
    |n| - s <= 3 q bound = len(deltas) - 1: the box caps the degree, and
    no n beyond it is expanded.
    """
    import numpy as np

    blocks = dominant_box_vectors(length, bound)
    # int16 holds every kappa (|kappa_i| <= 2 bound) and n - kappa_last.
    mat = np.array(blocks, dtype=np.int16)
    sums = mat.sum(axis=1)
    top = len(deltas) - 1
    width = max(map(len, deltas))
    slot = {delta: j for ds in deltas for j, delta in enumerate(ds)}

    # The shift classes w0 = w - w_last (1,...,1), and the support of
    # V_a0 (x) V_b0 for each unordered pair of them, in triu order.
    ids: Dict[Vector, int] = {}
    cls = np.array([ids.setdefault(tuple(x - a[-1] for x in a), len(ids)) for a in blocks])
    classes = list(ids)
    supports = [lr._tensor(*sorted((x, y))) for i, x in enumerate(classes) for y in classes[i:]]
    sizes = np.array(list(map(len, supports)))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(supports)), np.int16)
    flat = flat.reshape(-1, length)

    # The unordered pairs i <= j, grouped by s in order of first
    # appearance, in (i, j) order within a group.
    I, J = np.triu_indices(len(blocks))
    first, inverse = _distinct((sums[I] + sums[J])[:, None])
    rank = np.empty_like(first)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    order = np.argsort(rank[inverse], kind="stable")
    I, J, group = I[order], J[order], rank[inverse][order]
    pair_cut = np.searchsorted(group, np.arange(len(first) + 1))

    # One entry per pair and kappa in a (x) b: the support of the pair's
    # classes lo <= hi, number lo (2 C + 1 - lo) / 2 + hi - lo in triu
    # order, shifted.  A kappa is one column of its group's T_s: keyed by
    # the big-endian bytes of (group, kappa), the distinct kappas come
    # sorted by group.
    lo, hi = np.minimum(cls[I], cls[J]), np.maximum(cls[I], cls[J])
    cp = lo * (2 * len(classes) + 1 - lo) // 2 + hi - lo
    entry = np.repeat(np.arange(len(I)), sizes[cp])
    kappa = flat[_runs(np.cumsum(sizes)[cp] - sizes[cp], sizes[cp])]
    kappa += (mat[I, -1] + mat[J, -1])[entry, None]
    key = np.empty((len(entry), length + 1), dtype=">i2")
    key[:, 0] = group[entry]
    key[:, 1:] = kappa
    first, kid = _distinct(key)
    kappas = kappa[first]
    kappa_cut = np.searchsorted(group[entry[first]], np.arange(len(pair_cut)))

    # The boxed n that contain a kappa, within the degree cap, and one skew
    # expansion per translation class (n - kappa_last, kappa - kappa_last):
    # both are partitions, and without their zeros `lr._skew` takes them.
    inside = sums <= kappas.sum(axis=1)[:, None] + top
    for c in range(length):
        inside &= mat[:, c] >= kappas[:, c, None]
    k, n = np.nonzero(inside)
    shifted = np.hstack([mat[n], kappas[k]]) - kappas[k, -1:]
    first, cid = _distinct(shifted)
    rows = shifted[first]
    skews = [
        lr._skew(tuple(filter(None, nr)), tuple(filter(None, kr)), q)
        for nr, kr in zip(rows[:, :length].tolist(), rows[:, length:].tolist())
    ]
    lengths = np.array(list(map(len, skews)))
    slots = np.array([slot[delta] for skew in skews for delta in skew], dtype=np.intp)
    count = lengths[cid]
    columns = slots[_runs(np.cumsum(lengths)[cid] - count, count)] + np.repeat(n * width, count)
    dtype = polyhedral._exact_dtype(np.diff(kappa_cut).max())
    S = np.zeros((len(kappas), len(blocks) * width), dtype=dtype)
    S[np.repeat(k, count), columns] = 1

    # One product per group, over the columns (n, delta slot) of every
    # boxed n; S_s is zero in the columns of an n with |n| - s > top.
    t_row = entry - pair_cut[group[entry]]
    t_col = kid - kappa_cut[group[entry]]
    t_cut = np.searchsorted(entry, pair_cut).tolist()
    hit = np.empty((len(I), S.shape[1]), dtype=bool)
    pair_cut, kappa_cut = pair_cut.tolist(), kappa_cut.tolist()
    for g in range(len(pair_cut) - 1):
        pairs, ks, ts = (slice(c[g], c[g + 1]) for c in (pair_cut, kappa_cut, t_cut))
        T = np.zeros((pairs.stop - pairs.start, ks.stop - ks.start), dtype=dtype)
        T[t_row[ts], t_col[ts]] = 1
        np.greater(T @ S[ks], 0, out=hit[pairs])

    # One row of `hit` per cell (pair, n); V_a (x) V_b = V_b (x) V_a, so
    # the cell (b, a, n) of a pair a != b repeats (a, b, n).
    hit = hit.reshape(-1, width)
    cell = np.flatnonzero(hit.any(axis=1))
    r, n = np.divmod(cell, len(blocks))
    pick = np.concatenate([np.arange(len(cell)), np.flatnonzero(I[r] != J[r])])
    # Degrees lie in 0..top; in the narrowest unsigned type the stable
    # sort is a radix sort.
    degree = (sums[n] - sums[I[r]] - sums[J[r]]).astype(np.min_scalar_type(top))[pick]
    order = np.argsort(degree, kind="stable")
    cuts = np.searchsorted(degree[order], np.arange(top + 2)).tolist()
    swap = order >= len(cell)
    pick = pick[order]
    r = r[pick]
    a, b = I[r], J[r]
    a[swap], b[swap] = b[swap], a[swap]
    blocks8 = mat.astype(np.int8)
    vals = np.empty((len(pick), 3, length), dtype=np.int8)
    for j, x in enumerate((a, b, n[pick])):
        vals[:, j] = np.take(blocks8, x, axis=0)
    vals = vals.reshape(-1, 3 * length)
    inc = np.take(hit, cell[pick], axis=0)
    return [
        (vals[lo:hi], inc[lo:hi, : len(ds)])
        for ds, lo, hi in zip(deltas, cuts, cuts[1:])
    ]


def _pattern_groups(inc):
    """The distinct rows of a Boolean matrix of at least one row and
    column, in the order of their packed bytes, and for each the
    ascending indices of the rows equal to it."""
    import numpy as np

    order, new = _sorted_runs(np.packbits(inc, axis=1))
    return inc[order[new]], np.split(order, np.flatnonzero(new)[1:])


def _join_blocks(p_inc, q_inc):
    """The pairs (g, h) of p-row and q-row index groups of one degree
    whose patterns share a component: the nonzero entries of
    p_inc @ q_inc.T are the disjoint union of the products g x h.  When
    p == q both sides are one table, grouped once."""
    import numpy as np

    if not (len(p_inc) and len(q_inc)):
        return []
    p_pat, p_groups = _pattern_groups(p_inc)
    q_pat, q_groups = (p_pat, p_groups) if q_inc is p_inc else _pattern_groups(q_inc)
    return [(p_groups[g], q_groups[h]) for g, h in zip(*np.nonzero(p_pat @ q_pat.T))]


def enumerate_semigroup_points(shape: Shape, bound: int):
    """Box-bounded semigroup triples as a compact numpy int8 matrix.

    One row per triple, columns (lam, mu, nu) concatenated, each triple
    once.  The matrix is sized by the Cartesian blocks of the join (see
    the module docstring) and each block is written in place with one
    broadcast sum of its p-rows and q-rows, so no list of rows is ever
    built; this keeps the large (2,2) verification runs, where the
    triple count reaches 10^7, in bounded memory.  The rows come degree
    by degree and block by block: deterministic, the same on every run,
    but not sorted.  Entries fit in int8 for every bound up to MAX_BOUND.
    """
    import numpy as np

    shape.validate()
    bound = check_bound(bound)
    p, q, r = shape.p, shape.q, shape.rank
    # d = |nu'|-|lam'|-|mu'| <= p*bound + 2*p*bound, and symmetrically
    # d = |lam''|+|mu''|-|nu''| <= 2*q*bound + q*bound; q <= p wins.
    deltas = [
        [c.delta for c in symq.cauchy_components(shape, d)] for d in range(3 * q * bound + 1)
    ]
    # The q side is built on the duals w* = -reverse(w), where a q-row
    # (b, m) of Cauchy weight delta* reads as a p-style row (b*, m*) of
    # weight delta; P and Q below map its blocks back.
    tables = {n: _incidences(n, bound, q, deltas) for n in {p, q}}  # one if p == q
    blocks = []
    for (p_vals, p_inc), (q_vals, q_inc) in zip(tables[p], tables[q]):
        # Each row spread over the output columns, zeros elsewhere: a p-row
        # in the first p columns of lam, mu and nu, a q-row's blocks
        # negated and reversed in the last q, so a triple is one sum.
        P = np.zeros((len(p_vals), 3, r), dtype=np.int8)
        P[:, :, :p] = p_vals.reshape(-1, 3, p)
        Q = np.zeros((len(q_vals), 3, r), dtype=np.int8)
        Q[:, :, p:] = -q_vals.reshape(-1, 3, q)[:, :, ::-1]
        blocks += [(P, Q, i, j) for i, j in _join_blocks(p_inc, q_inc)]

    out = np.empty((sum(len(i) * len(j) for _, _, i, j in blocks), 3 * r), dtype=np.int8)
    end = 0
    for P, Q, i, j in blocks:
        start, end = end, end + len(i) * len(j)
        np.add(P[i, None], Q[None, j], out=out[start:end].reshape(len(i), len(j), 3, r))
    return out


def enumerate_semigroup(shape: Shape, bound: int) -> List[Triple]:
    """All semigroup triples with every coordinate in [-bound, bound], sorted."""
    r = shape.rank
    return sorted(
        (row[:r], row[r : 2 * r], row[2 * r :])
        for row in map(tuple, enumerate_semigroup_points(shape, bound).tolist())
    )
