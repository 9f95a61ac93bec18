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
reads the one support.  The q side goes through duals: with
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
from itertools import combinations_with_replacement
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


def _incidences(length: int, bound: int, q: int, deltas: List[List[Vector]]):
    """Per Cauchy degree d, the rows (a, b, n) of boxed blocks with n in
    a (x) b (x) delta for some delta in deltas[d], as an int8 matrix of
    the concatenated blocks, and their Boolean incidence with deltas[d].

    Pairs are grouped by s = |a| + |b|.  T_s marks kappa in a (x) b for
    each unordered pair: the support of V_a0 (x) V_b0, one `lr._tensor`
    per unordered pair of shift classes {a0, b0}, shifted by
    a_last + b_last.  S_s marks (n, delta) for each kappa of weight s and
    boxed n with c^n_{kappa,delta} != 0, each delta in a fixed slot of
    its degree |n| - s.  Both are 0/1 matrices, so every partial sum of
    T_s @ S_s is an integer from 0 to the inner dimension; both take the
    type `polyhedral._exact_dtype` gives for that dimension (float32
    below 2**24), which holds those sums exactly, so an entry is nonzero
    exactly when one term is.  No such delta has more parts than q or a part above
    n_1 - kappa_last <= 3 bound, so |n| - s <= 3 q bound = len(deltas) - 1:
    the box caps the degree, and no n beyond it is expanded.
    """
    import numpy as np

    blocks = dominant_box_vectors(length, bound)
    mat = np.array(blocks, dtype=np.int8)
    sums = [sum(n) for n in blocks]
    top = len(deltas) - 1
    width = max(map(len, deltas))
    slot = {delta: j for ds in deltas for j, delta in enumerate(ds)}

    # A kappa is kept as (kappa - kappa_last without its zeros,
    # kappa_last): one key per kappa, and the partition `lr._skew` takes.
    zeroed = [tuple(x - a[-1] for x in a) for a in blocks]
    supports: Dict[Tuple[Vector, Vector], List[Tuple[Vector, int]]] = {}
    # s -> (unordered pairs (i, j), i <= j; T entries (pair, kappa); kappa key -> column)
    groups: Dict[int, Tuple[List[Tuple[int, int]], List[Tuple[int, int]], Dict]] = {}
    for i, a in enumerate(blocks):
        for j in range(i, len(blocks)):
            key = min(zeroed[i], zeroed[j]), max(zeroed[i], zeroed[j])
            support = supports.get(key)
            if support is None:
                support = supports[key] = [
                    (tuple(x - k[-1] for x in k if x != k[-1]), k[-1]) for k in lr._tensor(*key)
                ]
            shift = a[-1] + blocks[j][-1]
            pairs, hits, kappas = groups.setdefault(sums[i] + sums[j], ([], [], {}))
            for k0, last in support:
                hits.append((len(pairs), kappas.setdefault((k0, last + shift), len(kappas))))
            pairs.append((i, j))

    # One product per group, over the columns (n, delta slot) of every
    # boxed n; S_s is zero in the columns of an n with |n| - s > top.
    rows, products = [], []
    for s, (pairs, hits, kappas) in groups.items():
        keys = list(kappas)
        ks = [tuple(x + last for x in k0) + (last,) * (length - len(k0)) for k0, last in keys]
        dtype = polyhedral._exact_dtype(len(ks))
        S = np.zeros((len(ks), len(blocks) * width), dtype=dtype)
        inside = (mat[None] >= np.array(ks)[:, None]).all(axis=2)
        for k, n in zip(*(x.tolist() for x in np.nonzero(inside))):
            if sums[n] - s <= top:
                k0, last = keys[k]
                # n contains kappa, so its parts equal to kappa's last part
                # are its trailing ones: dropping them strips the zeros.
                n0 = tuple(x - last for x in blocks[n] if x != last)
                for delta in lr._skew(n0, k0, q):
                    S[k, n * width + slot[delta]] = 1
        T = np.zeros((len(pairs), len(ks)), dtype=dtype)
        T[tuple(np.array(hits).T)] = 1
        products.append(T @ S > 0)
        rows += pairs

    hit = np.concatenate(products).reshape(len(rows), len(blocks), width)
    r, n = np.nonzero(hit.any(axis=2))
    # V_a (x) V_b = V_b (x) V_a: the cell (b, a, n) repeats (a, b, n).
    ab = np.array(rows)[r]
    twin = np.flatnonzero(ab[:, 0] != ab[:, 1])
    r, n = np.r_[r, r[twin]], np.r_[n, n[twin]]
    idx = np.column_stack([np.r_[ab, ab[twin, ::-1]], n])
    inc = hit[r, n]
    t = np.array(sums)
    degree = t[idx[:, 2]] - t[idx[:, 0]] - t[idx[:, 1]]
    order = np.argsort(degree, kind="stable")
    cuts = np.searchsorted(degree[order], np.arange(top + 2))
    return [
        (
            mat[idx[order[lo:hi]]].reshape(-1, 3 * length),
            inc[order[lo:hi], : len(ds)],
        )
        for ds, lo, hi in zip(deltas, cuts, cuts[1:])
    ]


def _pattern_groups(inc):
    """The distinct rows of a Boolean matrix of at least one row and
    column, in the order of their packed bytes, and for each the
    ascending indices of the rows equal to it."""
    import numpy as np

    packed = np.packbits(inc, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return inc[order[starts]], np.split(order, starts[1:])


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
