"""Enumeration of the integral Horn semigroup inside a coordinate box.

A triple (lam, mu, nu) of dominant integral weights belongs to the
semigroup when [V_nu : V_lam (x) V_mu (x) Sym(M_{p,q})] is nonzero.  The
box bound is on every coordinate; negative entries are essential, so a
degree bound would not do.

The enumeration works blockwise: for each pair of p-block weights and
each Cauchy partition delta, the possible p-blocks of nu are tabulated
once, and likewise on the q side; the two tables are then joined over
delta.  Everything is deterministic and sorted.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from . import lr
from .weights import Shape

Vector = Tuple[int, ...]
Triple = Tuple[Vector, Vector, Vector]

MAX_BOUND = 127  # the largest box bound an int8 point matrix holds


def dominant_box_vectors(length: int, bound: int) -> List[Vector]:
    """All weakly decreasing integer vectors with entries in [-bound, bound]."""
    out: List[Vector] = []

    def rec(i: int, prev: int, acc: List[int]):
        if i == length:
            out.append(tuple(acc))
            return
        for v in range(prev, -bound - 1, -1):
            acc.append(v)
            rec(i + 1, v, acc)
            acc.pop()

    rec(0, bound, [])
    return out


def _block_table(
    pairs: List[Tuple[Vector, Vector]],
    deltas: List[Vector],
    bound: int,
) -> Dict[Tuple[Vector, Vector], Dict[Vector, Dict[Vector, int]]]:
    """pair -> delta -> {result block: multiplicity}, boxed."""
    table: Dict[Tuple[Vector, Vector], Dict[Vector, Dict[Vector, int]]] = {}
    for a, b in pairs:
        base = lr.tensor_expand(a, b)
        per_delta: Dict[Vector, Dict[Vector, int]] = {}
        for delta in deltas:
            acc: Dict[Vector, int] = {}
            for kappa, c in base.items():
                for res, c2 in lr.tensor_expand(kappa, delta).items():
                    if res[0] <= bound and res[-1] >= -bound:
                        acc[res] = acc.get(res, 0) + c * c2
            if acc:
                per_delta[delta] = acc
        if per_delta:
            table[(a, b)] = per_delta
    return table


def _iter_semigroup(shape: Shape, bound: int) -> Iterator[Triple]:
    """Deterministic stream of all box-bounded semigroup triples."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    p, q = shape.p, shape.q
    pvecs = dominant_box_vectors(p, bound)
    qvecs = dominant_box_vectors(q, bound)
    # d = |nu'|-|lam'|-|mu'| <= p*bound + 2*p*bound, and symmetrically
    # d = |lam''|+|mu''|-|nu''| <= 2*q*bound + q*bound; q <= p wins.
    max_deg = 3 * q * bound

    deltas_by_deg: Dict[int, List[Vector]] = {
        d: (lr.partitions(d, q) if d else [()]) for d in range(max_deg + 1)
    }

    # Precompute per-degree padded weights once.
    def pad_p(delta: Vector) -> Vector:
        return tuple(delta) + (0,) * (p - len(delta))

    def nat_q(delta: Vector) -> Vector:
        padded = tuple(delta) + (0,) * (q - len(delta))
        return tuple(-v for v in reversed(padded))

    p_pairs = [
        (a, b)
        for a in pvecs
        for b in pvecs
        if sum(a) + sum(b) <= p * bound  # some nu' must exist in the box
    ]
    q_pairs = [
        (a, b)
        for a in qvecs
        for b in qvecs
        if sum(a) + sum(b) >= -q * bound
    ]
    all_deltas = [d for lst in deltas_by_deg.values() for d in lst]
    p_table = _block_table(p_pairs, [pad_p(d) for d in all_deltas], bound)
    q_table = _block_table(q_pairs, [nat_q(d) for d in all_deltas], bound)

    for (lp, mp), p_per_delta in p_table.items():
        base_deg = sum(lp) + sum(mp)
        for (lq, mq), q_per_delta in q_table.items():
            budget = sum(lq) + sum(mq)
            dmax = min(p * bound - base_deg, budget + q * bound, max_deg)
            acc: Dict[Tuple[Vector, Vector], int] = {}
            for d in range(0, dmax + 1):
                for delta in deltas_by_deg[d]:
                    pm = p_per_delta.get(pad_p(delta))
                    if not pm:
                        continue
                    qm = q_per_delta.get(nat_q(delta))
                    if not qm:
                        continue
                    for np_, c1 in pm.items():
                        for nq, c2 in qm.items():
                            acc[(np_, nq)] = acc.get((np_, nq), 0) + c1 * c2
            for (np_, nq), m in acc.items():
                if m > 0:
                    yield (lp + lq, mp + mq, np_ + nq)


def enumerate_semigroup(shape: Shape, bound: int) -> List[Triple]:
    """All semigroup triples with every coordinate in [-bound, bound]."""
    triples = list(_iter_semigroup(shape, bound))
    triples.sort()
    return triples


def enumerate_semigroup_points(shape: Shape, bound: int):
    """Box-bounded semigroup triples as a compact numpy int8 matrix.

    One row per triple, columns (lam, mu, nu) concatenated.  Row order is
    the deterministic enumeration order (not sorted); entries fit in int8
    for any practical bound.  This is the memory-safe path for the large
    (2,2) verification runs, where the triple count reaches 10^7.
    """
    import numpy as np

    if bound > MAX_BOUND:
        raise ValueError("bound too large for the packed representation")
    ncols = 3 * shape.rank
    buf = bytearray()
    for l, m, n in _iter_semigroup(shape, bound):
        for v in l:
            buf.append(v & 0xFF)
        for v in m:
            buf.append(v & 0xFF)
        for v in n:
            buf.append(v & 0xFF)
    arr = np.frombuffer(bytes(buf), dtype=np.int8)
    return arr.reshape(-1, ncols)
