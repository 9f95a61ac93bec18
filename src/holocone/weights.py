"""Weight-lattice and chamber arithmetic for K = U(p) x U(q) inside U(p,q).

Weights are flat tuples of length p+q holding ints or Fractions, split
conceptually into a p-block (x_1..x_p) and a q-block (x_{p+1}..x_{p+q}).
All pairings use the trace form (the standard dot product); every predicate
implemented here is invariant under a global rescaling of the form, so the
normalization of the invariant bilinear form never matters.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

Coord = Fraction  # or int; both occur
Vector = Tuple[Coord, ...]


class Shape(NamedTuple):
    """Block sizes (p, q) of U(p,q), with p >= q >= 1."""

    p: int
    q: int

    @property
    def rank(self) -> int:
        return self.p + self.q

    def validate(self) -> "Shape":
        try:
            p, q = operator.index(self.p), operator.index(self.q)
        except TypeError:
            raise ValueError(f"p and q must be integers, got {self}") from None
        if not (p >= q >= 1):
            raise ValueError(f"need p >= q >= 1, got {self}")
        return self


def check_length(x: Sequence, shape: Shape) -> None:
    if len(x) != shape.rank:
        raise ValueError(f"weight length {len(x)} != p+q = {shape.rank}")


def blocks(x: Sequence, shape: Shape):
    """Split a flat weight into its (p-block, q-block) parts."""
    check_length(x, shape)
    return tuple(x[: shape.p]), tuple(x[shape.p :])


_NUMBER = re.compile(r"\s*[-+]?([0-9]+/[0-9]+|[0-9]+\.?[0-9]*|\.[0-9]+)\s*")


def parse_number(s):
    """An exact number from text such as "3", " -3/2" or "0.25".

    Only an optional sign and an integer, a/b or a plain decimal parse,
    with whitespace around.  Integers come back as ints, other rationals
    as Fractions.  Malformed text, a zero denominator included, raises
    ValueError, and so do exponents and "_" separators, which Fraction
    would take: Fraction("1e10000000") runs for seconds.
    """
    if not _NUMBER.fullmatch(s):
        raise ValueError(f"not a number: {s!r}")
    try:
        f = Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {s!r}") from None
    return int(f) if f.denominator == 1 else f


def parse_weight(text: str):
    """Parse "2,1;0,-1" into (coords, Shape(2, 2)).

    Entries may be rationals like "3/2"; integer entries stay ints.
    """
    parts = text.strip().split(";")
    if len(parts) != 2:
        raise ValueError(f"expected one ';' separating blocks: {text!r}")
    pb = tuple(parse_number(s) for s in parts[0].split(",") if s.strip() != "")
    qb = tuple(parse_number(s) for s in parts[1].split(",") if s.strip() != "")
    if not pb or not qb:
        raise ValueError(f"empty block in weight {text!r}")
    return pb + qb, Shape(len(pb), len(qb))


def format_weight(x: Sequence, shape: Shape) -> str:
    check_length(x, shape)
    pb, qb = blocks(x, shape)

    def fmt(v):
        return str(v)

    return ",".join(fmt(v) for v in pb) + ";" + ",".join(fmt(v) for v in qb)


def is_dominant(x: Sequence, shape: Shape) -> bool:
    """Both blocks weakly decreasing."""
    pb, qb = blocks(x, shape)
    return all(a >= b for a, b in zip(pb, pb[1:])) and all(
        a >= b for a, b in zip(qb, qb[1:])
    )


def in_holomorphic_chamber(x: Sequence, shape: Shape) -> bool:
    """Dominant with a strict gap x_p > x_{p+1} between the blocks."""
    check_length(x, shape)
    return is_dominant(x, shape) and x[shape.p - 1] > x[shape.p]


def two_rho_n(shape: Shape) -> Vector:
    """Sum of the noncompact positive roots: (q,...,q; -p,...,-p)."""
    return (shape.q,) * shape.p + (-shape.p,) * shape.q


def in_chamber_rho(x: Sequence, shape: Shape) -> bool:
    """Dominant weights whose block gap is at least p+q.

    The defining condition is (x, beta) >= (2rho_n, beta) for every
    noncompact positive root beta; in coordinates this reads
    x_i - x_{p+j} >= p+q, which reduces to the single gap check below.
    """
    if not is_dominant(x, shape):
        raise ValueError("in_chamber_rho expects a dominant weight")
    return x[shape.p - 1] - x[shape.p] >= shape.rank


def rho_scaling_factor(x: Sequence, shape: Shape) -> int:
    """Least N >= 1 with N*x in the rho-shifted chamber.

    Requires x in the (open) holomorphic chamber, where the block gap is
    positive; N = ceil((p+q)/gap).
    """
    if not in_holomorphic_chamber(x, shape):
        raise ValueError("x must lie in the holomorphic chamber")
    gap = Fraction(x[shape.p - 1] - x[shape.p])
    n = Fraction(shape.rank) / gap
    return max(1, -int(-n // 1))  # ceiling


def star_involution(x: Sequence, shape: Shape) -> Vector:
    """x -> -w0.x: reverse and negate each block."""
    pb, qb = blocks(x, shape)
    return tuple(-v for v in reversed(pb)) + tuple(-v for v in reversed(qb))


def pairing(x: Sequence, y: Sequence) -> Coord:
    """Trace-form pairing, a plain dot product."""
    if len(x) != len(y):
        raise ValueError("pairing needs equal lengths")
    return sum(a * b for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# Weyl elements: pairs of permutations acting blockwise on coordinates.
# A permutation is a tuple of images: w[i] = position that slot i maps to,
# so (w.x)[w[i]] = x[i].


class WeylElement(NamedTuple):
    wp: Tuple[int, ...]
    wq: Tuple[int, ...]

    def apply(self, x: Sequence, shape: Shape) -> Vector:
        pb, qb = blocks(x, shape)
        out_p = [None] * shape.p
        out_q = [None] * shape.q
        for i, v in enumerate(pb):
            out_p[self.wp[i]] = v
        for i, v in enumerate(qb):
            out_q[self.wq[i]] = v
        return tuple(out_p) + tuple(out_q)

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self o other (apply `other` first)."""
        return WeylElement(
            tuple(self.wp[j] for j in other.wp),
            tuple(self.wq[j] for j in other.wq),
        )

    def inverse(self) -> "WeylElement":
        inv_p = [0] * len(self.wp)
        inv_q = [0] * len(self.wq)
        for i, j in enumerate(self.wp):
            inv_p[j] = i
        for i, j in enumerate(self.wq):
            inv_q[j] = i
        return WeylElement(tuple(inv_p), tuple(inv_q))


def identity_weyl(shape: Shape) -> WeylElement:
    return WeylElement(tuple(range(shape.p)), tuple(range(shape.q)))


def longest_weyl(shape: Shape) -> WeylElement:
    """w0: reverses each block."""
    return WeylElement(
        tuple(reversed(range(shape.p))), tuple(reversed(range(shape.q)))
    )


def all_weyl_elements(shape: Shape):
    """Every element of W = S_p x S_q, in a deterministic order."""
    from itertools import permutations

    return [
        WeylElement(wp, wq)
        for wp in permutations(range(shape.p))
        for wq in permutations(range(shape.q))
    ]
