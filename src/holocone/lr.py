"""Exact Littlewood-Richardson coefficients for U(n).

Weights may have negative parts; shifting by multiples of (1,...,1)
leaves every multiplicity unchanged, and every entry point brings its
weights to partitions by one rule, `_partition(w, s)`: w - s(1,...,1)
without its trailing zeros, for s <= w_last.  There is one tableau walk:
`_skew(nu, kappa, maxlen)` (partitions without trailing zeros) is the
Schur expansion of s_{nu/kappa}, {delta: c^nu_{kappa,delta}}, from one
walk over the LR fillings of nu/kappa with free content (letters
<= maxlen, the reverse reading word a lattice word).  The walk stores
the cells of nu/kappa only, so its memory does not grow with nu_1, and
it is a loop over them, not a recursion, so Python's recursion limit
does not bound the number of cells.  With maxlen <= 1 there is no walk:
the one delta of at most one part is (d), d = |nu| - |kappa|, and by
Pieri's rule c^nu_{kappa,(d)} is 1 when nu/kappa is a horizontal strip
(kappa_i >= nu_{i+1} for every i) and 0 otherwise.  Nor is there a walk
when nu/kappa has at most two nonempty rows: with a cells in row i and
b in row j > i, s_{nu/kappa} is the sum of s_{(a+b-t, t)} (trailing zero
dropped) over max(0, nu_j - kappa_i) <= t <= min(a, b), one LR filling
each, and one nonempty row gives s_{(a)}.  Every coefficient and product
is read off `_skew`.

- Skew side, nu and kappa fixed: `lr_count_tableaux(lam, mu, nu)` is
  the entry mu of s_{nu/lam} for partitions; `lr_coefficient` validates
  its weights, shifts them to partitions and reads the same entry.
  `semigroup` reads its block tables off `_skew`, and
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
`triple_multiplicity`, `weyl_dim`) raise ValueError on weights of unequal
length, not weakly decreasing or not integral (`weights.integral`: 3.0 reads
as 3, 1.5 is refused); `lr_count_tableaux` takes partitions of any
lengths, and refuses the same and a negative part.  The private functions trust
their caller: they take tuples already validated and check nothing, so
code that has validated its weights once calls them in its inner loops.

Two memos, both keyed on partitions, so a key does not depend on how a
weight happened to be shifted: `_skew_cache` holds the skew expansions,
keyed (nu, kappa, maxlen), and `_triple_cache` the triple expansions,
keyed (nu, larger, smaller, maxlen), so (lam, mu) and (mu, lam) share
an entry.  Both hand out their cached dicts, which callers must not
change.  They are plain in-memory dicts, emptied by `clear_caches` and
never written to disk, and the module is not thread-safe.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, prod
from operator import index
from typing import Dict, List, Tuple

from . import polyhedral
from .weights import integral, is_weakly_decreasing

GLWeight = Tuple[int, ...]

_skew_cache: Dict[Tuple[GLWeight, GLWeight, int], Dict[GLWeight, int]] = {}
_triple_cache: Dict[Tuple[GLWeight, GLWeight, GLWeight, int], Dict[GLWeight, int]] = {}


def _check(*weights) -> List[GLWeight]:
    """The weights as int tuples, once they pass every check."""
    for w in weights:
        if len(w) != len(weights[0]):
            raise ValueError("mismatched lengths")
        if not is_weakly_decreasing(w):
            raise ValueError(f"not weakly decreasing: {w}")
    return [integral(w) for w in weights]


def shift(lam: GLWeight, a: int) -> GLWeight:
    return tuple(x + a for x in lam)


def _last(w: GLWeight) -> int:
    """w_last, or 0 for the empty weight."""
    return w[-1] if w else 0


def _partition(w: GLWeight, s: int) -> GLWeight:
    """w - s(1,...,1) without its trailing zeros, the kernel's form of w:
    exact when w is weakly decreasing and w_last >= s, for then the
    entries equal to s form a suffix of w."""
    return tuple([x - s for x in w if x != s])


def lr_count_tableaux(lam: GLWeight, mu: GLWeight, nu: GLWeight) -> int:
    """c^nu_{lam,mu} for partitions (integral, nonnegative, weakly
    decreasing, of any lengths): the entry mu of s_{nu/lam}, with the
    letters capped at len(mu).  ValueError unless all three are partitions."""
    lam, mu, nu = weights = [_check(w)[0] for w in (lam, mu, nu)]
    if any(_last(w) < 0 for w in weights):
        raise ValueError(f"not partitions: {lam}, {mu}, {nu}")
    mu = _partition(mu, 0)
    return _skew(_partition(nu, 0), _partition(lam, 0), len(mu)).get(mu, 0)


def lr_coefficient(lam: GLWeight, mu: GLWeight, nu: GLWeight) -> int:
    """c^nu_{lam,mu} for U(n) weights of equal length n."""
    lam, mu, nu = _check(lam, mu, nu)
    a, b = _last(lam), _last(mu)
    if sum(nu) != sum(lam) + sum(mu) or _last(nu) < a + b:
        return 0
    mu = _partition(mu, b)
    return _skew(_partition(nu, a + b), _partition(lam, a), len(mu)).get(mu, 0)


def tensor_expand(lam: GLWeight, mu: GLWeight) -> Dict[GLWeight, int]:
    """Full decomposition of V_lam (x) V_mu for U(n), n = len(lam)."""
    return _tensor(*_check(lam, mu))


def _tensor(lam: GLWeight, mu: GLWeight) -> Dict[GLWeight, int]:
    """tensor_expand on validated tuples, read off one skew expansion.

    With lam and mu shifted to end in 0 and N = lam_1, the nu of
    V_lam (x) V_mu are the delta of s_{(mu + N)/(N - reverse(lam))},
    padded to n parts and shifted back by s = lam_n + mu_n.
    """
    n = len(lam)
    top = lam[0] if lam else 0
    s = _last(lam) + _last(mu)
    inner = tuple(top - x for x in reversed(lam) if x != top)
    return {
        tuple(x + s for x in nu) + (s,) * (n - len(nu)): c
        for nu, c in _skew(_partition(mu, s - top), inner, n).items()
    }


def triple_multiplicity(
    lam: GLWeight, mu: GLWeight, delta: GLWeight, nu: GLWeight
) -> int:
    """Multiplicity of V_nu in V_lam (x) V_mu (x) V_delta.

    Read off `_triple_expand` once delta and nu are shifted so that delta
    ends in 0.
    """
    lam, mu, delta, nu = _check(lam, mu, delta, nu)
    s = _last(delta)
    t = _triple_expand(lam, mu, shift(nu, -s), len(nu))
    return t.get(_partition(delta, s), 0)


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
    closed form when maxlen <= 1, the two-row rule when nu/kappa has at
    most two nonempty rows, else the walk over the cells of nu/kappa (see
    the module docstring)."""
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
    rows = [r for r, (n, k) in enumerate(zip(nu, kap)) if n != k]
    if len(rows) <= 2:
        # Rows i <= j of a and b cells: row i is all 1s, and row j ends in
        # t 2s, t <= a, that cover its nu_j - kappa_i cells under row i.
        i, j = rows[0], rows[-1]
        a = nu[i] - kap[i]
        if i == j:
            return {(a,): 1}
        b = nu[j] - kap[j]
        return {
            (a + b - t, t) if t else (a + b,): 1
            for t in range(max(0, nu[j] - kap[i]), min(a, b) + 1)
        }
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
    Memoised on (nu, kappa, kappa', maxlen) in `_partition` form; the
    returned dict is the cached one, and callers must not change it.
    """
    a, b = _last(lam), _last(mu)
    if _last(nu) < a + b:
        return {}
    nu = _partition(nu, a + b)
    lam = _partition(lam, a)
    mu = _partition(mu, b)
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
    (lam,) = _check(lam)
    pairs = list(combinations(range(len(lam)), 2))
    return prod(lam[i] - lam[j] + j - i for i, j in pairs) // prod(j - i for i, j in pairs)


def partitions(total: int, max_parts: int):
    """All partitions of `total` into at most `max_parts` parts; ValueError
    unless both are nonnegative integers (`operator.index`)."""
    try:
        total, max_parts = index(total), index(max_parts)
    except TypeError:
        raise ValueError(f"not integers: {total!r}, {max_parts!r}") from None
    if total < 0 or max_parts < 0:
        raise ValueError(f"negative: {total}, {max_parts}")
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

    rec(total, total, max_parts, [])
    return out


def clear_caches() -> None:
    """Empty the LR memos (skew and triple expansions) and polyhedral's
    slice tables."""
    _skew_cache.clear()
    _triple_cache.clear()
    polyhedral.clear_caches()


def sym_power_dimension(space_dim: int, degree: int) -> int:
    """dim Sym^d(C^m) = C(m+d-1, d); used in dimension bookkeeping."""
    return comb(space_dim + degree - 1, degree)
