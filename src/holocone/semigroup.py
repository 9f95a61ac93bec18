"""Enumeration of the integral Horn semigroup inside a coordinate box.

A triple (lam, mu, nu) of dominant integral weights belongs to the
semigroup when [V_nu : V_lam (x) V_mu (x) Sym(M_{p,q})] is nonzero.  The
box bound is on every coordinate; negative entries are essential, so a
degree bound would not do.

Membership needs only the support of each tensor product: Littlewood-
Richardson coefficients are never negative, so a sum of their products
is positive exactly when one term is, and no multiplicity is added up.
For each pair a = (lam', mu') of boxed p-blocks, the table lists per
Cauchy partition delta (`symq.cauchy_components`) the boxed blocks n of
nu with n in lam' (x) mu' (x) delta.  It is read off skew expansions:
n is in kappa (x) delta exactly when c^n_{kappa,delta} != 0, so for each
kappa in lam' (x) mu' and each boxed n containing it, one expansion of
s_{n/kappa} (`lr._skew`) gives every delta at once.  The q side goes
through duals: with w* = -reverse(w), [V_m : V_b (x) V_delta^*] =
[V_m* : V_b* (x) V_delta], so the q-table is the same table built on
the q-blocks, whose rows are mapped back by the star when they are
written out.

The two tables are joined by one Boolean matrix product per Cauchy
degree d.  A p-row (a, n) can only meet components of degree
|n| - |a|, so each row belongs to one degree; its entry in column delta
says that n occurs in lam' (x) mu' (x) delta.  A q-row (b, m) belongs to
degree |b| - |m| in the same way.  The triple (a, n; b, m) is in the
semigroup exactly when the two rows share a component, i.e. when
(P_d Q_d^T) is nonzero at that entry.  Distinct entries give distinct
triples, so each triple is found once, and the box bounds on n and m
already cap the degree.  Everything is deterministic.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Set, Tuple

from . import lr, symq
from .polyhedral import _SCAN_ROWS
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
    length: int, bound: int, q: int
) -> Dict[Tuple[Vector, Vector], Dict[Vector, Set[Vector]]]:
    """Pair (a, b) of boxed blocks -> partition delta of at most q parts
    -> the boxed blocks n in a (x) b (x) delta.

    For each kappa in a (x) b, every delta comes at once from s_{n/kappa},
    once kappa and n are shifted so that kappa ends in 0.  Such a delta
    fits in n - kappa_last, so |delta| <= q (n_1 - kappa_last) <= 3 q bound:
    the box caps the degree.
    """
    blocks = dominant_box_vectors(length, bound)
    support: Dict[Vector, Dict[Vector, Set[Vector]]] = {}

    def support_of(kappa: Vector) -> Dict[Vector, Set[Vector]]:
        # n contains kappa, so the parts of either equal to kappa's last
        # part s are its trailing ones: dropping them strips the zeros.
        s = kappa[-1]
        k0 = tuple(x - s for x in kappa if x != s)
        out: Dict[Vector, Set[Vector]] = {}
        for n in blocks:
            if all(x >= y for x, y in zip(n, kappa)):
                n0 = tuple(x - s for x in n if x != s)
                for delta in lr._skew(n0, k0, q):
                    out.setdefault(delta, set()).add(n)
        return out

    table: Dict[Tuple[Vector, Vector], Dict[Vector, Set[Vector]]] = {}
    for i, a in enumerate(blocks):
        for b in blocks[:i]:  # V_a (x) V_b = V_b (x) V_a, built as (b, a)
            if (b, a) in table:
                table[a, b] = table[b, a]
        for b in blocks[i:]:
            per_delta: Dict[Vector, Set[Vector]] = {}
            for kappa in lr._tensor(a, b):
                if kappa not in support:
                    support[kappa] = support_of(kappa)
                for delta, ns in support[kappa].items():
                    per_delta.setdefault(delta, set()).update(ns)
            if per_delta:
                table[a, b] = per_delta
    return table


def _incidence(table, deltas: List[Vector], length: int):
    """The rows (a, b, n) of one degree, as an int8 matrix of the
    concatenated blocks of `length`, and their Boolean incidence with
    `deltas`."""
    import numpy as np

    rows: Dict[Tuple[Vector, Vector, Vector], int] = {}
    hits: List[Tuple[int, int]] = []
    for (a, b), per_delta in table.items():
        for j, delta in enumerate(deltas):
            for n in per_delta.get(delta, ()):
                hits.append((rows.setdefault((a, b, n), len(rows)), j))
    vals = np.array(list(chain.from_iterable(chain.from_iterable(rows))), dtype=np.int8)
    inc = np.zeros((len(rows), len(deltas)), dtype=bool)
    if hits:
        inc[tuple(np.array(hits).T)] = True
    return vals.reshape(-1, 3 * length), inc


def _joined_count(p_inc, q_inc) -> int:
    """The number of nonzero entries of p_inc @ q_inc.T, from the
    distinct row patterns of each side."""
    import numpy as np

    pu, pn = np.unique(p_inc, axis=0, return_counts=True)
    qu, qn = np.unique(q_inc, axis=0, return_counts=True)
    return int(pn @ (pu @ qu.T) @ qn)


def enumerate_semigroup_points(shape: Shape, bound: int):
    """Box-bounded semigroup triples as a compact numpy int8 matrix.

    One row per triple, columns (lam, mu, nu) concatenated, each triple
    once.  The rows come degree by degree in the order of the per-degree
    matrix join: deterministic, the same on every run, but not sorted.
    The matrix is sized by a count of the join first and then filled in
    place, in blocks of `_SCAN_ROWS` joined entries, so no list of rows
    or chunks is ever built; this keeps the large (2,2) verification
    runs, where the triple count reaches 10^7, in bounded memory.
    Entries fit in int8 for every bound up to MAX_BOUND.
    """
    import numpy as np

    if bound < 0:
        raise ValueError("bound must be >= 0")
    if bound > MAX_BOUND:
        raise ValueError("bound too large for the packed representation")
    p, q = shape.p, shape.q
    # d = |nu'|-|lam'|-|mu'| <= p*bound + 2*p*bound, and symmetrically
    # d = |lam''|+|mu''|-|nu''| <= 2*q*bound + q*bound; q <= p wins.
    comps = [symq.cauchy_components(shape, d) for d in range(3 * q * bound + 1)]
    # The q-table is built on the duals w* = -reverse(w), where a q-row
    # (b, m) of Cauchy weight delta* reads as a p-style row (b*, m*) of
    # weight delta; the fill below maps its blocks back.
    p_table = _block_table(p, bound, q)
    q_table = _block_table(q, bound, q)
    joins = [
        (
            _incidence(p_table, [c.delta for c in cs], p),
            _incidence(q_table, [c.delta for c in cs], q),
        )
        for cs in comps
    ]

    r = shape.rank
    out = np.empty(
        (sum(_joined_count(pi, qi) for (_, pi), (_, qi) in joins), 3 * r), dtype=np.int8
    )
    p_cols = [k * r + i for k in range(3) for i in range(p)]
    # -reverse of each q-block: column p + i takes entry q - 1 - i, negated.
    q_cols = [k * r + p + q - 1 - i for k in range(3) for i in range(q)]
    filled = 0
    for (p_vals, p_inc), (q_vals, q_inc) in joins:
        if not len(q_inc):
            continue
        step = max(1, _SCAN_ROWS // len(q_inc))
        for start in range(0, len(p_inc), step):
            i, j = np.nonzero(p_inc[start : start + step] @ q_inc.T)
            end = filled + len(i)
            out[filled:end, p_cols] = p_vals[start + i]
            out[filled:end, q_cols] = -q_vals[j]
            filled = end
    return out


def enumerate_semigroup(shape: Shape, bound: int) -> List[Triple]:
    """All semigroup triples with every coordinate in [-bound, bound], sorted."""
    r = shape.rank
    return sorted(
        (row[:r], row[r : 2 * r], row[2 * r :])
        for row in map(tuple, enumerate_semigroup_points(shape, bound).tolist())
    )
