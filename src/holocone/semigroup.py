"""Enumeration of the integral Horn semigroup inside a coordinate box.

A triple (lam, mu, nu) of dominant integral weights belongs to the
semigroup when [V_nu : V_lam (x) V_mu (x) Sym(M_{p,q})] is nonzero.  The
box bound is on every coordinate; negative entries are essential, so a
degree bound would not do.

Membership needs only the support of each tensor product: Littlewood-
Richardson coefficients are never negative, so a sum of their products
is positive exactly when one term is, and no multiplicity is added up.
For each pair of p-block weights and each Cauchy component
(`symq.cauchy_components`), the set of boxed p-blocks of nu is
tabulated once, from one expansion per distinct (kappa, delta); likewise
on the q side.  The two tables are joined over the components: the nu
of a p-pair and a q-pair are the union of the products of their sets.
Everything is deterministic.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Dict, Iterator, List, Set, Tuple

from . import lr, symq
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
) -> Dict[Tuple[Vector, Vector], Dict[Vector, Set[Vector]]]:
    """pair -> Cauchy weight delta -> set of boxed blocks in a (x) b (x) delta."""
    bases = {(a, b): lr.tensor_expand(a, b) for a, b in pairs}
    support = {
        (kappa, delta): {
            res
            for res in lr.tensor_expand(kappa, delta)
            if res[0] <= bound and res[-1] >= -bound
        }
        for kappa in set().union(*bases.values())
        for delta in deltas
    }
    table: Dict[Tuple[Vector, Vector], Dict[Vector, Set[Vector]]] = {}
    for pair, base in bases.items():
        per_delta = {}
        for delta in deltas:
            blocks = set().union(*(support[kappa, delta] for kappa in base))
            if blocks:
                per_delta[delta] = blocks
        if per_delta:
            table[pair] = per_delta
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
    comps = [symq.cauchy_components(shape, d) for d in range(max_deg + 1)]

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
    all_comps = list(chain.from_iterable(comps))
    p_table = _block_table(p_pairs, [c.up_weight for c in all_comps], bound)
    q_table = _block_table(q_pairs, [c.uq_weight for c in all_comps], bound)

    for (lp, mp), p_per_delta in p_table.items():
        base_deg = sum(lp) + sum(mp)
        for (lq, mq), q_per_delta in q_table.items():
            budget = sum(lq) + sum(mq)
            dmax = min(p * bound - base_deg, budget + q * bound, max_deg)
            nus: Set[Tuple[Vector, Vector]] = set()
            for d in range(dmax + 1):
                for comp in comps[d]:
                    pm = p_per_delta.get(comp.up_weight)
                    qm = q_per_delta.get(comp.uq_weight)
                    if pm and qm:
                        nus.update(product(pm, qm))
            for np_, nq in nus:
                yield (lp + lq, mp + mq, np_ + nq)


def enumerate_semigroup(shape: Shape, bound: int) -> List[Triple]:
    """All semigroup triples with every coordinate in [-bound, bound]."""
    triples = list(_iter_semigroup(shape, bound))
    triples.sort()
    return triples


def enumerate_semigroup_points(shape: Shape, bound: int):
    """Box-bounded semigroup triples as a compact numpy int8 matrix.

    One row per triple, columns (lam, mu, nu) concatenated; the rows are
    the triples of `enumerate_semigroup`, each once.  Their order is the
    enumeration order: not sorted, but the same on every run.  Entries
    fit in int8 for every bound up to MAX_BOUND, and the matrix is
    filled straight from the enumeration, without a list of rows, so it
    is the memory-safe path for the large (2,2) verification runs, where
    the triple count reaches 10^7.
    """
    import numpy as np

    if bound > MAX_BOUND:
        raise ValueError("bound too large for the packed representation")
    flat = chain.from_iterable(l + m + n for l, m, n in _iter_semigroup(shape, bound))
    return np.fromiter(flat, dtype=np.int8).reshape(-1, 3 * shape.rank)
