"""Tensor multiplicities twisted by the symmetric algebra of M_{p,q}.

Sym(M_{p,q}) decomposes (Cauchy) as the sum over partitions delta with at
most q parts of S^delta(C^p) (x) S^delta(C^q)^*; the U(q) factor enters
through the negated-reversed weight delta^nat.  Every weight of M_{p,q}
has coordinate sum zero, so for a fixed triple exactly one Cauchy degree
can contribute.

The holomorphic multiplicity is therefore m = sum over delta of
t_p[delta] * t_q[delta], with t[delta] = [V_C : V_A (x) V_B (x) V_delta]
on each block.  On the q side the duality [V_C : V_A (x) V_B (x)
V_delta^*] = [V_C^* : V_A^* (x) V_B^* (x) V_delta], where V_w^* has
highest weight -reverse(w), turns t_q into the same count as t_p, so
both come from `lr._triple_expand`, without a loop over the components.
That function memoises each block's expansion on canonical partitions,
with A and B in a fixed order, so a request that repeats a block
triple up to a shift or the swap of A and B walks no tableaux.  Each
weight is validated once per request: its length, then dominance of
each block, then integrality.
"""

from __future__ import annotations

from operator import ge, neg
from typing import Dict, List, NamedTuple, Sequence, Tuple

from . import lr
from .weights import Shape, check_length

Vector = Tuple[int, ...]


class CauchyComponent(NamedTuple):
    delta: Tuple[int, ...]  # partition, at most q parts
    up_weight: Tuple[int, ...]  # delta padded to length p
    uq_weight: Tuple[int, ...]  # (-delta_q, ..., -delta_1), length q
    degree: int


_cauchy_cache: Dict[Tuple[int, int, int], Tuple[CauchyComponent, ...]] = {}


def natural_negation(delta: Sequence[int], q: int) -> Tuple[int, ...]:
    """delta^nat = (-delta_q, ..., -delta_1) after padding to q parts."""
    padded = tuple(delta) + (0,) * (q - len(delta))
    return tuple(map(neg, reversed(padded)))


def cauchy_components(shape: Shape, degree: int) -> List[CauchyComponent]:
    """The Cauchy pieces of Sym^degree(M_{p,q}), ordered deterministically.

    Memoised per (shape, degree); `lr.clear_caches` empties the memo.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    key = (shape.p, shape.q, degree)
    if key not in _cauchy_cache:
        if degree == 0:
            comps = [CauchyComponent((), (0,) * shape.p, (0,) * shape.q, 0)]
        else:
            comps = sorted(
                CauchyComponent(
                    tuple(delta),
                    tuple(delta) + (0,) * (shape.p - len(delta)),
                    natural_negation(delta, shape.q),
                    degree,
                )
                for delta in lr.partitions(degree, shape.q)
            )
        _cauchy_cache[key] = tuple(comps)
    return list(_cauchy_cache[key])


def _split_dominant(x: Sequence[int], shape: Shape):
    """(p-block, q-block) of a dominant integral weight, as int tuples.

    Checks the length, then dominance, then integrality, each once.
    """
    check_length(x, shape)
    p = shape.p
    a, b = x[:p], x[p:]
    if not (all(map(ge, a, a[1:])) and all(map(ge, b, b[1:]))):
        raise ValueError(f"weight not dominant: {x}")
    ints = tuple(map(int, x))
    if ints != tuple(x):
        raise ValueError("integral weight required")
    return ints[:p], ints[p:]


def holomorphic_multiplicity(
    lam: Sequence[int], mu: Sequence[int], nu: Sequence[int], shape: Shape
) -> int:
    """m(lam, mu, nu) = [V_nu : V_lam (x) V_mu (x) Sym(M_{p,q})].

    m = sum over delta of t_p[delta] * t_q[delta], where t_p[delta] =
    [V_{nu_p} : V_{lam_p} (x) V_{mu_p} (x) V_delta] on the p-blocks, and
    t_q[delta] = [V_{nu_q} : V_{lam_q} (x) V_{mu_q} (x) V_delta^*] is the
    same count on the duals w -> -reverse(w) of the q-blocks.  Only
    partitions delta with at most q parts occur.
    """
    # The blocks are validated here, so the unchecked LR functions apply.
    shape.validate()
    lp, lq = _split_dominant(lam, shape)
    mp, mq = _split_dominant(mu, shape)
    np_, nq = _split_dominant(nu, shape)
    d = sum(np_) - sum(lp) - sum(mp)
    if d < 0 or d != (sum(lq) + sum(mq)) - sum(nq):
        return 0
    t_p = lr._triple_expand(lp, mp, np_, shape.q)
    if not t_p:
        return 0
    # natural_negation(w, q) = -reverse(w): the dual's highest weight.
    t_q = lr._triple_expand(*(natural_negation(w, shape.q) for w in (lq, mq, nq)), shape.q)
    return sum(c * t_q.get(delta, 0) for delta, c in t_p.items())


def horn_membership(
    lam: Sequence[int], mu: Sequence[int], nu: Sequence[int], shape: Shape
) -> bool:
    return holomorphic_multiplicity(lam, mu, nu, shape) > 0


def _pair_decomposition(
    a: Tuple[Vector, Vector], b: Tuple[Vector, Vector], degree: int, shape: Shape
) -> Dict[Tuple[Vector, Vector], int]:
    """Decompose V_a (x) V_b (x) Sym^degree(M_{p,q}) over U(p) x U(q)."""
    out: Dict[Tuple[Vector, Vector], int] = {}
    base_p = lr._tensor(a[0], b[0])
    base_q = lr._tensor(a[1], b[1])
    for comp in cauchy_components(shape, degree):
        exp_p: Dict[Vector, int] = {}
        for kp, cp in base_p.items():
            for np_, c2 in lr._tensor(kp, comp.up_weight).items():
                exp_p[np_] = exp_p.get(np_, 0) + cp * c2
        exp_q: Dict[Vector, int] = {}
        for kq, cq in base_q.items():
            for nq, c2 in lr._tensor(kq, comp.uq_weight).items():
                exp_q[nq] = exp_q.get(nq, 0) + cq * c2
        for np_, cp in exp_p.items():
            for nq, cq in exp_q.items():
                key = (np_, nq)
                out[key] = out.get(key, 0) + cp * cq
    return out


def s_fold_multiplicity(
    lams: Sequence[Sequence[int]], nu: Sequence[int], shape: Shape
) -> int:
    """[V_nu : V_{lam_1} (x) ... (x) V_{lam_s} (x) Sym(M_{p,q})^{(x)(s-1)}].

    Computed by a left fold: contract the first two factors with one
    Sym(M_{p,q}), then recurse.  The contraction order does not change the
    result; tests exercise this.
    """
    if len(lams) < 2:
        raise ValueError("need at least two summand weights (s >= 2)")
    split = [_split_dominant(l, shape) for l in lams]
    np_, nq = _split_dominant(nu, shape)
    d_total = sum(np_) - sum(sum(s[0]) for s in split)
    if d_total < 0 or d_total != sum(sum(s[1]) for s in split) - sum(nq):
        return 0

    def rec(parts: List[Tuple[Vector, Vector]], budget: int) -> int:
        if len(parts) == 1:
            kp, kq = parts[0]
            # no Sym factor left: exact match required
            return 1 if budget == 0 and (kp, kq) == (np_, nq) else 0
        if len(parts) == 2:
            # final contraction must consume the whole remaining budget
            dec = _pair_decomposition(parts[0], parts[1], budget, shape)
            return dec.get((np_, nq), 0)
        total = 0
        for d1 in range(budget + 1):
            dec = _pair_decomposition(parts[0], parts[1], d1, shape)
            for kappa, c in sorted(dec.items()):
                sub = rec([kappa] + parts[2:], budget - d1)
                if sub:
                    total += c * sub
        return total

    return rec(list(split), d_total)
