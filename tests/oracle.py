"""Independent oracles for the test suite.

Everything here is implemented from scratch against textbook
definitions, deliberately avoiding the package's own algorithms:
Schur polynomials come from semistandard-tableau monomial expansion,
characters are multiplied as sparse Laurent polynomials, and dominant
multiplicities are read off by repeated highest-weight stripping.
The admissibility oracle takes ranks by plain Gaussian elimination.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

Monomial = Tuple[int, ...]
Poly = Dict[Monomial, int]


def ssyt_monomials(shape: Tuple[int, ...], nvars: int) -> Poly:
    """Content monomials of all SSYT of the given partition shape."""
    rows = [r for r in shape if r > 0]
    if not rows:
        return {(0,) * nvars: 1}
    out: Poly = {}
    cols = rows[0]

    # Fill column by column, left to right, top to bottom within a column;
    # entries increase weakly along rows, strictly down columns.
    cells = []
    for c in range(cols):
        for r in range(len(rows)):
            if rows[r] > c:
                cells.append((r, c))
    filling: Dict[Tuple[int, int], int] = {}

    def rec(k: int, content: list) -> None:
        if k == len(cells):
            out_key = tuple(content)
            out[out_key] = out.get(out_key, 0) + 1
            return
        r, c = cells[k]
        lo = 1
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])
        for v in range(lo, nvars + 1):
            filling[(r, c)] = v
            content[v - 1] += 1
            rec(k + 1, content)
            content[v - 1] -= 1
            del filling[(r, c)]

    rec(0, [0] * nvars)
    return out


@lru_cache(maxsize=None)
def schur_poly(shape: Tuple[int, ...], nvars: int) -> "TupleEncodedPoly":
    return tuple(sorted(ssyt_monomials(shape, nvars).items()))


TupleEncodedPoly = Tuple[Tuple[Monomial, int], ...]


def gl_character(weight: Tuple[int, ...]) -> Poly:
    """Character of V^{U(n)}_weight as a Laurent polynomial (dict).

    Negative parts are handled by shifting to a partition and dividing
    every monomial by (x_1...x_n)^shift.
    """
    n = len(weight)
    shift = -min(weight) if weight and min(weight) < 0 else 0
    shape = tuple(w + shift for w in weight)
    return {
        tuple(e - shift for e in mono): c
        for mono, c in schur_poly(shape, n)
    }


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def poly_outer(a: Poly, b: Poly) -> Poly:
    """Character of an outer tensor: concatenate variable blocks."""
    return {
        ma + mb: ca * cb for ma, ca in a.items() for mb, cb in b.items()
    }


def strip_dominant(poly: Poly, blocks: Tuple[int, ...]) -> Dict[Monomial, int]:
    """Decompose a virtual character into blockwise-dominant weights.

    Repeatedly removes the character of the lexicographically largest
    dominant weight present.  `blocks` gives the variable split, e.g.
    (2, 2) for U(2) x U(2).
    """
    work = dict(poly)
    found: Dict[Monomial, int] = {}

    def is_block_dominant(m: Monomial) -> bool:
        at = 0
        for b in blocks:
            seg = m[at : at + b]
            if any(x < y for x, y in zip(seg, seg[1:])):
                return False
            at += b
        return True

    while work:
        top = max(k for k in work if is_block_dominant(k))
        c = work[top]
        found[top] = found.get(top, 0) + c
        at = 0
        chars = []
        for b in blocks:
            chars.append(gl_character(top[at : at + b]))
            at += b
        ch = chars[0]
        for extra in chars[1:]:
            ch = poly_outer(ch, extra)
        for mono, cc in ch.items():
            v = work.get(mono, 0) - c * cc
            if v:
                work[mono] = v
            elif mono in work:
                del work[mono]
    return found


def sym_power_character(shape_pq: Tuple[int, int], degree: int) -> Poly:
    """Character of Sym^degree(M_{p,q}): weights e_i - e_{p+j}."""
    p, q = shape_pq
    gens = []
    for i in range(p):
        for j in range(q):
            v = [0] * (p + q)
            v[i] = 1
            v[p + j] = -1
            gens.append(tuple(v))

    # multiset exponents over the pq generators summing to `degree`
    def rec(k: int, left: int, acc: Tuple[int, ...], bucket: Poly):
        if k == len(gens):
            if left == 0:
                bucket[acc] = bucket.get(acc, 0) + 1
            return
        for e in range(left + 1):
            nxt = tuple(
                a + e * g for a, g in zip(acc, gens[k])
            )
            rec(k + 1, left - e, nxt, bucket)

    bucket: Poly = {}
    rec(0, degree, (0,) * (p + q), bucket)
    return bucket


def oracle_holomorphic_multiplicity(lam, mu, nu, p, q) -> int:
    """m(lam, mu, nu) by brute-force character arithmetic."""
    d = sum(nu[:p]) - sum(lam[:p]) - sum(mu[:p])
    if d < 0 or d != (sum(lam[p:]) + sum(mu[p:])) - sum(nu[p:]):
        return 0
    ch = poly_mul(
        poly_outer(gl_character(lam[:p]), gl_character(lam[p:])),
        poly_outer(gl_character(mu[:p]), gl_character(mu[p:])),
    )
    ch = poly_mul(ch, sym_power_character((p, q), d))
    return strip_dominant(ch, (p, q)).get(tuple(nu), 0)


def oracle_lr(lam, mu, nu) -> int:
    """c^nu_{lam,mu} via Schur polynomial products in n variables."""
    n = len(lam)
    prod = poly_mul(gl_character(tuple(lam)), gl_character(tuple(mu)))
    return strip_dominant(prod, (n,)).get(tuple(nu), 0)


def rank_rationals(rows) -> int:
    """Rank over Q by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle_admissible(gamma, n: int) -> bool:
    """span(R_o cap gamma-perp) == span(R_o) cap gamma-perp, by ranks.

    R_o is the set of roots e_i - e_j (i != j) of gl_n; its span is the
    coordinate-sum-zero hyperplane, whose intersection with gamma-perp has
    dimension n-1 for central gamma and n-2 otherwise.
    """
    tight = []
    for i in range(n):
        for j in range(n):
            if i != j and gamma[i] == gamma[j]:
                v = [0] * n
                v[i], v[j] = 1, -1
                tight.append(v)
    want = n - 1 if all(g == gamma[0] for g in gamma) else n - 2
    return rank_rationals(tight) == want
