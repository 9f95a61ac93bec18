"""Exact Littlewood-Richardson coefficients for U(n).

Weights may have negative parts; everything is reduced to partitions by
shifting with multiples of (1,...,1), which leaves all multiplicities
unchanged.  Coefficients are counted by enumerating skew semistandard
tableaux whose reverse reading word is a lattice word.

The public functions (`lr_coefficient`, `tensor_expand`,
`triple_multiplicity`) validate their input and raise ValueError on
weights of unequal length or that are not weakly decreasing.  The private
functions `_lr`, `_expand` and `_triple` trust their caller: they take
tuples already validated (`_expand` takes partitions ending in 0) and
check nothing, so code that has validated its weights once calls them in
its inner loops.

Both memo caches are keyed canonically: lam and mu are shifted so that
their last part is 0, and nu by the same total, so a key does not depend
on how a weight happened to be shifted.  The caches are plain dicts and
the module is not thread-safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, Iterator, List, Tuple

GLWeight = Tuple[int, ...]

_lr_cache: Dict[Tuple[GLWeight, GLWeight, GLWeight], int] = {}
_expand_cache: Dict[Tuple[GLWeight, GLWeight], Dict[GLWeight, int]] = {}

CACHE_FORMAT_VERSION = 2
# Persisted entries `load_cache` recomputes before it trusts a file.
CACHE_SAMPLE = 64


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
    lam0, mu0, s = _canonical(tuple(lam), tuple(mu))
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
    """Multiplicity of V_nu in V_lam (x) V_mu (x) V_delta."""
    _check(lam, mu, delta, nu)
    return _triple(tuple(lam), tuple(mu), tuple(delta), tuple(nu))


def _triple(lam: GLWeight, mu: GLWeight, delta: GLWeight, nu: GLWeight) -> int:
    """triple_multiplicity on validated tuples."""
    if sum(lam) + sum(mu) + sum(delta) != sum(nu):
        return 0
    # Expand lam (x) mu in the canonical frame and shift nu into it.
    lam0, mu0, s = _canonical(lam, mu)
    nu0 = shift(nu, -s) if s else nu
    total = 0
    for kappa, c in _expand(lam0, mu0).items():
        c2 = _lr(kappa, delta, nu0)
        if c2:
            total += c * c2
    return total


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
    """Empty the LR memo caches and symq's memo of Cauchy components."""
    from . import symq  # symq imports this module

    _lr_cache.clear()
    _expand_cache.clear()
    symq._cauchy_cache.clear()


# ---------------------------------------------------------------------------
# Optional cache persistence.  A loaded file is checked before any entry is
# used (canonical keys, a checksum, a recomputed sample), so a stale or
# edited file is rejected rather than changing results.


def _checksum(lines) -> str:
    # Imported here: hashlib costs about 5 ms and 4 MB at start-up, and
    # only cache persistence needs it.
    import hashlib

    return hashlib.sha256("".join(lines).encode()).hexdigest()


def save_cache(path) -> None:
    lines = [
        "|".join(",".join(map(str, w)) for w in key) + f" {c}\n"
        for key, c in sorted(_lr_cache.items())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"holocone-lr-cache {CACHE_FORMAT_VERSION} {_checksum(lines)}\n")
        fh.writelines(lines)


def _is_canonical_key(lam: GLWeight, mu: GLWeight, nu: GLWeight) -> bool:
    """A key `_lr` can store: partitions, lam and mu ending in 0."""
    return (
        len(lam) == len(mu) == len(nu)
        and all(is_weakly_decreasing(w) and min(w, default=0) >= 0 for w in (lam, mu, nu))
        and (not lam or lam[-1] == mu[-1] == 0)
        and sum(nu) == sum(lam) + sum(mu)
    )


def load_cache(path) -> int:
    """Merge a persisted cache; returns the number of entries loaded.

    Raises ValueError, and merges nothing, unless the file has this
    version's header, its checksum matches, every key is canonical and
    an evenly spaced sample of CACHE_SAMPLE entries agrees with
    `lr_count_tableaux`.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        lines = fh.readlines()
    if header[:2] != ["holocone-lr-cache", str(CACHE_FORMAT_VERSION)] or len(header) != 3:
        raise ValueError("unrecognized cache file")
    if header[2] != _checksum(lines):
        raise ValueError("cache file checksum mismatch")
    entries = []
    for line in lines:
        keypart, val = line.rsplit(" ", 1)
        key = tuple(
            tuple(int(x) for x in block.split(",") if x != "")
            for block in keypart.split("|")
        )
        if len(key) != 3 or not _is_canonical_key(*key) or int(val) < 0:
            raise ValueError(f"not a canonical cache entry: {line.strip()!r}")
        entries.append((key, int(val)))
    step = -(-len(entries) // CACHE_SAMPLE)
    for key, c in entries[::step or 1]:
        if lr_count_tableaux(*key) != c:
            raise ValueError(f"cache entry disagrees with recomputation: {key}")
    _lr_cache.update(entries)
    return len(entries)


def sym_power_dimension(space_dim: int, degree: int) -> int:
    """dim Sym^d(C^m) = C(m+d-1, d); used in dimension bookkeeping."""
    return comb(space_dim + degree - 1, degree)
