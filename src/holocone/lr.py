"""Exact Littlewood-Richardson coefficients for U(n).

Weights may have negative parts; everything is reduced to partitions by
shifting with multiples of (1,...,1), which leaves all multiplicities
unchanged.  There is one tableau walk: `_skew(nu, kappa, maxlen)`
(partitions without trailing zeros) is the Schur expansion of
s_{nu/kappa}, {delta: c^nu_{kappa,delta}}, from one walk over the LR
fillings of nu/kappa with free content (letters <= maxlen, the reverse
reading word a lattice word).  The walk stores the cells of nu/kappa
only, so its memory does not grow with nu_1, and it is a loop over
them, not a recursion, so Python's recursion limit does not bound the
number of cells.  With maxlen <= 1 there is no walk: the one delta of
at most one part is (d), d = |nu| - |kappa|, and by Pieri's rule
c^nu_{kappa,(d)} is 1 when nu/kappa is a horizontal strip
(kappa_i >= nu_{i+1} for every i) and 0 otherwise.  Every coefficient
and product is read off `_skew`.

- Skew side, nu and kappa fixed: `lr_count_tableaux(lam, mu, nu)` is
  the entry mu of s_{nu/lam}; `lr_coefficient` validates, shifts and
  reads it.  `semigroup` reads its block tables off `_skew`, and
  `_triple_expand` reads triple multiplicities
  [V_nu : V_lam (x) V_mu (x) V_delta] = sum over rho of
  c^nu_{lam,rho} c^rho_{mu,delta} off two levels of it: the rho of
  s_{nu/lam}, then the delta of each s_{rho/mu}.  The count is
  symmetric in lam and mu, so the first level skews nu by the larger of
  the two (by |w|, then w), which leaves the fewest cells to walk.
  `triple_multiplicity` and `symq.holomorphic_multiplicity` use that.
- Product side, lam and mu fixed: `_tensor(lam, mu)` lists every nu of
  V_lam (x) V_mu from one skew expansion, by the star duality
  [V_nu : V_lam (x) V_mu] = [V_mu : V_lam* (x) V_nu], lam* = -reverse(lam).
  Proof sketch: both sides are dim (V_lam (x) V_mu (x) V_nu*)^U(n), the
  right one as the invariants of the dual space.  With lam and mu shifted
  to end in 0 and N = lam_1, lam* + N = N - reverse(lam) is a partition,
  so the right side is c^{mu+N}_{N-reverse(lam), nu}, the coefficient of
  s_nu in s_{(mu+N)/(N-reverse(lam))}; every such nu lies inside mu + N
  and so has at most n parts.  `tensor_expand` is `_tensor` after
  validation; `semigroup` takes kappa in lam (x) mu from it, and
  `symq.s_fold_multiplicity` decomposes its pairs with it.

The public functions (`lr_coefficient`, `tensor_expand`,
`triple_multiplicity`) validate their input and raise ValueError on
weights of unequal length or that are not weakly decreasing.  The private
functions trust their caller: they take tuples already validated and
check nothing, so code that has validated its weights once calls them in
its inner loops.

Two memos, both keyed on partitions, so a key does not depend on how a
weight happened to be shifted: `_skew_cache` holds the skew expansions,
keyed (nu, kappa, maxlen), and `_triple_cache` the triple expansions,
keyed (nu, larger, smaller, maxlen), so (lam, mu) and (mu, lam) share
an entry.  Both hand out their cached dicts, which callers must not
change.  They are plain in-memory dicts, emptied by `clear_caches` and
never written to disk, and the module is not thread-safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, List, Tuple

from . import polyhedral

GLWeight = Tuple[int, ...]

_skew_cache: Dict[Tuple[GLWeight, GLWeight, int], Dict[GLWeight, int]] = {}
_triple_cache: Dict[Tuple[GLWeight, GLWeight, GLWeight, int], Dict[GLWeight, int]] = {}


def is_weakly_decreasing(w) -> bool:
    return all(a >= b for a, b in zip(w, w[1:]))


def _check(lam: GLWeight, *others: GLWeight) -> None:
    if not is_weakly_decreasing(lam):
        raise ValueError(f"not weakly decreasing: {lam}")
    for o in others:
        if len(o) != len(lam):
            raise ValueError("mismatched lengths")
        if not is_weakly_decreasing(o):
            raise ValueError(f"not weakly decreasing: {o}")


def shift(lam: GLWeight, a: int) -> GLWeight:
    return tuple(x + a for x in lam)


def _strip_zeros(lam: GLWeight) -> GLWeight:
    out = list(lam)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def lr_count_tableaux(lam: GLWeight, mu: GLWeight, nu: GLWeight) -> int:
    """c^nu_{lam,mu} for partitions (nonnegative, weakly decreasing):
    the entry mu of s_{nu/lam}, with the letters capped at len(mu)."""
    mu = _strip_zeros(mu)
    return _skew(_strip_zeros(nu), _strip_zeros(lam), len(mu)).get(mu, 0)


def lr_coefficient(lam: GLWeight, mu: GLWeight, nu: GLWeight) -> int:
    """c^nu_{lam,mu} for U(n) weights of equal length n."""
    _check(lam, mu, nu)
    lam, mu, s = _canonical(tuple(lam), tuple(mu))
    nu = shift(tuple(nu), -s)
    if sum(nu) != sum(lam) + sum(mu) or (nu and nu[-1] < 0):
        return 0
    return lr_count_tableaux(lam, mu, nu)


def _canonical(lam: GLWeight, mu: GLWeight):
    """(lam0, mu0, s): lam and mu shifted to end in 0, s the total removed."""
    a = lam[-1] if lam else 0
    b = mu[-1] if mu else 0
    if a:
        lam = tuple(x - a for x in lam)
    if b:
        mu = tuple(x - b for x in mu)
    return lam, mu, a + b


def tensor_expand(lam: GLWeight, mu: GLWeight) -> Dict[GLWeight, int]:
    """Full decomposition of V_lam (x) V_mu for U(n), n = len(lam)."""
    _check(lam, mu)
    return _tensor(tuple(lam), tuple(mu))


def _tensor(lam: GLWeight, mu: GLWeight) -> Dict[GLWeight, int]:
    """tensor_expand on validated tuples, read off one skew expansion.

    With lam and mu shifted to end in 0 and N = lam_1, the nu of
    V_lam (x) V_mu are the delta of s_{(mu + N)/(N - reverse(lam))},
    padded to n parts and shifted back.
    """
    lam, mu, s = _canonical(lam, mu)
    n = len(lam)
    top = lam[0] if lam else 0
    outer = _strip_zeros(shift(mu, top))
    inner = _strip_zeros(tuple(top - x for x in reversed(lam)))
    return {
        shift(nu + (0,) * (n - len(nu)), s): c
        for nu, c in _skew(outer, inner, n).items()
    }


def triple_multiplicity(
    lam: GLWeight, mu: GLWeight, delta: GLWeight, nu: GLWeight
) -> int:
    """Multiplicity of V_nu in V_lam (x) V_mu (x) V_delta.

    Read off `_triple_expand` once delta and nu are shifted so that delta
    ends in 0.
    """
    _check(lam, mu, delta, nu)
    delta = tuple(delta)
    s = delta[-1] if delta else 0
    t = _triple_expand(tuple(lam), tuple(mu), shift(tuple(nu), -s), len(nu))
    return t.get(_strip_zeros(shift(delta, -s)), 0)


def _skew(nu: GLWeight, kappa: GLWeight, maxlen: int) -> Dict[GLWeight, int]:
    """{delta: c^nu_{kappa,delta}}: the Schur expansion of s_{nu/kappa}.

    nu and kappa are partitions without trailing zeros; every delta has
    at most `maxlen` parts and no trailing zeros.  One walk over the LR
    fillings of nu/kappa with free content (letters <= maxlen, the reverse
    reading word a lattice word) counts them by content.  Memoised; the
    returned dict is the cached one, and callers must not change it.
    """
    maxlen = min(maxlen, len(nu))
    key = (nu, kappa, maxlen)
    hit = _skew_cache.get(key)
    if hit is None:
        hit = _skew_cache[key] = _skew_fillings(nu, kappa, maxlen)
    return hit


def _skew_fillings(nu: GLWeight, kappa: GLWeight, maxlen: int) -> Dict[GLWeight, int]:
    """`_skew` without the memo, for maxlen <= len(nu): Pieri's rule in
    closed form when maxlen <= 1, else the walk over the cells of nu/kappa
    (see the module docstring)."""
    if len(kappa) > len(nu) or any(k > n for k, n in zip(kappa, nu)):
        return {}
    if nu == kappa:
        return {(): 1}
    if maxlen <= 1:
        # A horizontal strip has kappa_i >= nu_{i+1} for every i, so nu
        # has at most one part more than kappa.
        strip = len(nu) <= len(kappa) + 1 and all(k >= n for k, n in zip(kappa, nu[1:]))
        return {(sum(nu) - sum(kappa),): 1} if maxlen and strip else {}
    kap = kappa + (0,) * (len(nu) - len(kappa))
    # One flat list of letters: row r holds its skew columns kap_r..nu_r - 1
    # from index starts[r] + kap_r on, then maxlen, as no neighbour to the
    # right, so storage is the size of the skew diagram.  Cells in reverse
    # reading order (each row right to left, top row first) as (index,
    # index of the cell above); a cell of the top row, or under kappa
    # (columns before `left`), reads the 0 at index 0, so nothing forces
    # its letter past 1.
    grid, starts = [0], []
    for n, k in zip(nu, kap):
        starts.append(len(grid) - k)
        grid += [0] * (n - k)
        grid.append(maxlen)
    cells = [
        (s + c, t + c if c >= left else 0)
        for s, t, n, k, left in zip(starts, [0] + starts, nu, kap, nu[:1] + kap)
        for c in range(n - 1, k - 1, -1)
    ]
    # counts[v] = #v placed so far; the trailing 0, which no letter
    # reaches, ends the content.
    counts = [len(cells) + 1] + [0] * maxlen + [0]
    # Depth-first over the cells, in a loop: letters[k] is the letter at
    # cell k, 0 while it has none, and each cell tries its letters in
    # increasing order, from one past the cell above up to its right
    # neighbour, skipping those that would break the lattice word.
    letters = [0] * len(cells)
    last = len(cells) - 1
    out: Dict[GLWeight, int] = {}
    k = 0
    while k >= 0:
        i, j = cells[k]
        v = letters[k]
        if v:
            counts[v] -= 1
        else:
            v = grid[j]
        top = grid[i + 1]
        v += 1
        while v <= top and counts[v] >= counts[v - 1]:
            v += 1
        if v > top:
            letters[k] = 0
            k -= 1
        elif k == last:
            counts[v] += 1
            delta = tuple(counts[1 : counts.index(0)])
            out[delta] = out.get(delta, 0) + 1
            letters[k] = v
        else:
            grid[i] = letters[k] = v
            counts[v] += 1
            k += 1
    return out


def _triple_expand(lam: GLWeight, mu: GLWeight, nu: GLWeight, maxlen: int) -> Dict[GLWeight, int]:
    """{delta: [V_nu : V_lam (x) V_mu (x) V_delta]} over partitions delta
    with at most `maxlen` parts, on validated tuples of equal length.

    t[delta] = sum over rho of c^nu_{kappa,rho} c^rho_{kappa',delta},
    read off two levels of skew expansions: s_{nu/kappa} gives the rho,
    and each s_{rho/kappa'} gives the delta.  The count is symmetric in
    lam and mu, so kappa is the larger of the two partitions by (|w|, w)
    and kappa' the other: the first walk then has the fewest cells.
    Memoised on (nu, kappa, kappa', maxlen) after the shift to partitions
    without trailing zeros; the returned dict is the cached one, and
    callers must not change it.
    """
    lam, mu, s = _canonical(lam, mu)
    if s:
        nu = shift(nu, -s)
    if nu and nu[-1] < 0:
        return {}
    nu, lam, mu = _strip_zeros(nu), _strip_zeros(lam), _strip_zeros(mu)
    if (sum(lam), lam) < (sum(mu), mu):
        lam, mu = mu, lam
    maxlen = min(maxlen, len(nu))
    key = (nu, lam, mu, maxlen)
    t = _triple_cache.get(key)
    if t is None:
        t = {}
        for rho, a in _skew(nu, lam, len(nu)).items():
            for delta, b in _skew(rho, mu, maxlen).items():
                t[delta] = t.get(delta, 0) + a * b
        _triple_cache[key] = t
    return t


def weyl_dim(lam: GLWeight) -> int:
    """dim V^{U(n)}_lam = prod_{i<j} (lam_i - lam_j + j - i)/(j - i)."""
    _check(lam)
    n = len(lam)
    d = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            d *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert d.denominator == 1
    return int(d)


def partitions(total: int, max_parts: int, max_part: int | None = None):
    """All partitions of `total` into at most `max_parts` parts."""
    if max_part is None:
        max_part = total
    out: List[GLWeight] = []

    def rec(left: int, bound: int, parts: int, acc: List[int]):
        if left == 0:
            out.append(tuple(acc))
            return
        if parts == 0:
            return
        for v in range(min(left, bound), 0, -1):
            acc.append(v)
            rec(left - v, v, parts - 1, acc)
            acc.pop()

    rec(total, max_part, max_parts, [])
    return out


def clear_caches() -> None:
    """Empty the LR memos (skew and triple expansions), symq's memo of
    Cauchy components and polyhedral's slice tables."""
    from . import symq  # symq imports this module

    _skew_cache.clear()
    _triple_cache.clear()
    symq._cauchy_cache.clear()
    polyhedral.clear_caches()


def sym_power_dimension(space_dim: int, degree: int) -> int:
    """dim Sym^d(C^m) = C(m+d-1, d); used in dimension bookkeeping."""
    return comb(space_dim + degree - 1, degree)
