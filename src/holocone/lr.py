"""Exact Littlewood-Richardson coefficients for U(n).

Weights may have negative parts; everything is reduced to partitions by
shifting with multiples of (1,...,1), which leaves all multiplicities
unchanged.  Coefficients are counted by enumerating skew semistandard
tableaux whose reverse reading word is a lattice word.

The public functions (`lr_coefficient`, `tensor_expand`,
`triple_multiplicity`) validate their input and raise ValueError on
weights of unequal length or that are not weakly decreasing.  The private
functions trust their caller: they take tuples already validated and
check nothing, so code that has validated its weights once calls them in
its inner loops.  There are two kernels.

- The product side, c^nu_{lam,mu} for fixed lam and mu: `_lr` counts one
  coefficient, `_expand` (partitions ending in 0) lists every nu, and
  `_tensor` is `_expand` for any dominant weights, shifted in and out.
  `tensor_expand` is `_tensor` after validation; `semigroup` takes
  kappa in lam (x) mu from it, and `symq.s_fold_multiplicity` decomposes
  its pairs with it.
- The skew side, c^nu_{kappa,delta} for fixed nu and kappa:
  `_skew(nu, kappa, maxlen)` (partitions without trailing zeros) is the
  Schur expansion of s_{nu/kappa}.  One walk over the LR fillings of
  nu/kappa with free content gives every delta at once.  `semigroup`
  reads its block tables off it, and `_triple_expand` reads triple
  multiplicities [V_nu : V_lam (x) V_mu (x) V_delta] = sum over rho of
  c^nu_{lam,rho} c^rho_{mu,delta} off two levels of it: the rho of
  s_{nu/lam}, then the delta of each s_{rho/mu}.  `triple_multiplicity`
  and `symq.holomorphic_multiplicity` use that.

The memo caches are keyed canonically: lam and mu are shifted so that
their last part is 0, and nu by the same total, so a key does not depend
on how a weight happened to be shifted; the skew memo is keyed on
partitions.  The caches are plain in-memory dicts, emptied by
`clear_caches` and never written to disk, and the module is not
thread-safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, Iterator, List, Tuple

from . import polyhedral

GLWeight = Tuple[int, ...]

_lr_cache: Dict[Tuple[GLWeight, GLWeight, GLWeight], int] = {}
_expand_cache: Dict[Tuple[GLWeight, GLWeight], Dict[GLWeight, int]] = {}
_skew_cache: Dict[Tuple[GLWeight, GLWeight, int], Dict[GLWeight, int]] = {}


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

    # Cells in reverse reading order.
    cells: List[Tuple[int, int]] = []
    for r in range(len(nu)):
        for c in range(nu[r] - 1, lam_pad[r] - 1, -1):
            cells.append((r, c))
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


def lr_coefficient(lam: GLWeight, mu: GLWeight, nu: GLWeight) -> int:
    """c^nu_{lam,mu} for U(n) weights of equal length n."""
    _check(lam, mu, nu)
    return _lr(tuple(lam), tuple(mu), tuple(nu))


def _canonical(lam: GLWeight, mu: GLWeight):
    """(lam0, mu0, s): lam and mu shifted to end in 0, s the total removed."""
    a = lam[-1] if lam else 0
    b = mu[-1] if mu else 0
    if a:
        lam = tuple(x - a for x in lam)
    if b:
        mu = tuple(x - b for x in mu)
    return lam, mu, a + b


def _lr(lam: GLWeight, mu: GLWeight, nu: GLWeight) -> int:
    """lr_coefficient on validated tuples, memoised under the canonical key."""
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    lam, mu, s = _canonical(lam, mu)
    if s:
        nu = shift(nu, -s)
    if nu and nu[-1] < 0:
        return 0
    key = (lam, mu, nu)
    val = _lr_cache.get(key)
    if val is None:
        val = _lr_cache[key] = lr_count_tableaux(lam, mu, nu)
    return val


def _candidate_nus(lam: GLWeight, mu: GLWeight, n: int) -> Iterator[GLWeight]:
    """Partitions nu with lam <= nu, |nu| = |lam| + |mu|, at most n rows."""
    total = sum(lam) + sum(mu)
    lam_pad = tuple(lam) + (0,) * (n - len(lam))
    mu1 = mu[0] if mu else 0

    def rec(row: int, prev: int, left: int, acc: List[int]):
        if row == n:
            if left == 0:
                yield tuple(acc)
            return
        low = lam_pad[row]
        # each row gains at most mu_1 boxes (content has mu_1 ones at most
        # per horizontal strip; crude but safe: lam_row + |mu| works too)
        high = min(prev, low + mu1 if row == 0 else prev, left + low)
        for v in range(high, low - 1, -1):
            acc.append(v)
            yield from rec(row + 1, v, left - (v - low), acc)
            acc.pop()

    yield from rec(0, total, sum(mu), [])


def tensor_expand(lam: GLWeight, mu: GLWeight) -> Dict[GLWeight, int]:
    """Full decomposition of V_lam (x) V_mu for U(n), n = len(lam)."""
    _check(lam, mu)
    return _tensor(tuple(lam), tuple(mu))


def _tensor(lam: GLWeight, mu: GLWeight) -> Dict[GLWeight, int]:
    """tensor_expand on validated tuples: `_expand` of the canonical
    partitions, shifted back."""
    lam0, mu0, s = _canonical(lam, mu)
    return {shift(nu0, s): c for nu0, c in _expand(lam0, mu0).items()}


def _expand(lam: GLWeight, mu: GLWeight) -> Dict[GLWeight, int]:
    """The memoised decomposition for partitions lam and mu ending in 0.

    The returned dict is the cached one; callers must not change it.
    """
    hit = _expand_cache.get((lam, mu))
    if hit is None:
        # Smaller second factor keeps the tableau search shallow.
        l0, m0 = (lam, mu) if sum(mu) <= sum(lam) else (mu, lam)
        hit = {}
        for nu0 in _candidate_nus(_strip_zeros(l0), m0, len(lam)):
            c = _lr(l0, m0, nu0)
            if c:
                hit[nu0] = c
        _expand_cache[(lam, mu)] = hit
    return hit


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
    if len(kappa) > len(nu) or any(k > n for k, n in zip(kappa, nu)):
        return {}
    kap = kappa + (0,) * (len(nu) - len(kappa))
    # Cells in reverse reading order (each row right to left, top row
    # first); grid holds 0 in the cells of kappa, so the cell above a
    # cell of the top skew row never forces a letter above 1.
    cells = [(r, c) for r in range(len(nu)) for c in range(nu[r] - 1, kap[r] - 1, -1)]
    grid = [[0] * (row + 1) for row in nu]
    for r, row in enumerate(nu):
        grid[r][row] = maxlen  # no neighbour to the right
    counts = [len(cells) + 1] + [0] * maxlen  # counts[v] = #v placed so far
    out: Dict[GLWeight, int] = {}

    def place(k: int) -> None:
        if k == len(cells):
            delta = tuple(c for c in counts[1:] if c)
            out[delta] = out.get(delta, 0) + 1
            return
        r, c = cells[k]
        row = grid[r]
        lo = grid[r - 1][c] + 1 if r else 1
        for v in range(lo, row[c + 1] + 1):
            if counts[v] < counts[v - 1]:
                row[c] = v
                counts[v] += 1
                place(k + 1)
                counts[v] -= 1

    place(0)
    return out


def _triple_expand(lam: GLWeight, mu: GLWeight, nu: GLWeight, maxlen: int) -> Dict[GLWeight, int]:
    """{delta: [V_nu : V_lam (x) V_mu (x) V_delta]} over partitions delta
    with at most `maxlen` parts, on validated tuples of equal length.

    t[delta] = sum over rho of c^nu_{lam,rho} c^rho_{mu,delta}, read off
    two levels of skew expansions: s_{nu/lam} gives the rho, and each
    s_{rho/mu} gives the delta.
    """
    lam, mu, s = _canonical(lam, mu)
    if s:
        nu = shift(nu, -s)
    if nu and nu[-1] < 0:
        return {}
    mu = _strip_zeros(mu)
    t: Dict[GLWeight, int] = {}
    for rho, a in _skew(_strip_zeros(nu), _strip_zeros(lam), len(nu)).items():
        for delta, b in _skew(rho, mu, maxlen).items():
            t[delta] = t.get(delta, 0) + a * b
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
    """Empty the LR memo caches, symq's memo of Cauchy components and
    polyhedral's slice tables."""
    from . import symq  # symq imports this module

    _lr_cache.clear()
    _expand_cache.clear()
    _skew_cache.clear()
    symq._cauchy_cache.clear()
    polyhedral.clear_caches()


def sym_power_dimension(space_dim: int, degree: int) -> int:
    """dim Sym^d(C^m) = C(m+d-1, d); used in dimension bookkeeping."""
    return comb(space_dim + degree - 1, degree)
