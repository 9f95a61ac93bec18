"""Weight-lattice, chamber and Weyl-group arithmetic for K = U(p) x U(q)
inside U(p,q).

Weights are flat tuples of length p+q holding ints or Fractions, split
conceptually into a p-block (x_1..x_p) and a q-block (x_{p+1}..x_{p+q}).
All pairings use the trace form (the standard dot product); every predicate
implemented here is invariant under a global rescaling of the form, so the
normalization of the invariant bilinear form never matters.

This module is the one home of permutations (one-line tuples, w[i] the
image of slot i) and of the Weyl elements of W = S_p x S_q built from
them; `check_weyl` is the one rule for what counts as a Weyl element of a
shape, `integral` for an integral weight and `is_weakly_decreasing` for a
dominant block.  `parse_number`, `parse_int`, `parse_ints` (integer
lists) and `parse_fields` (the "name=text" fields of a file line, each
once) are the one grammar for text.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import ceil
from typing import List, NamedTuple, Sequence, Tuple

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


def translate_blocks(gamma: Sequence, translates: Sequence[Sequence], shape: Shape):
    """(blocks of gamma, blocks of each translate), each split once, or None
    unless every translate permutes each block of gamma (equal sorted
    blocks), that is, unless each is a Weyl translate of gamma."""
    gb = blocks(gamma, shape)
    tbs = tuple(blocks(t, shape) for t in translates)
    sg = [sorted(b) for b in gb]
    return (gb, tbs) if all([sorted(b) for b in tb] == sg for tb in tbs) else None


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


def parse_int(s):
    """An integer in `parse_number`'s grammar, such as "3" or "-4/2";
    ValueError for any other text or for a non-integral number."""
    v = parse_number(s)
    if type(v) is not int:
        raise ValueError(f"not an integer: {s!r}")
    return v


def parse_ints(text: str, length: int, name: str) -> Tuple[int, ...]:
    """The `length` comma-separated integers (`parse_int`) of text, such as
    "2,-1,0"; ValueError naming `name` for any other text."""
    try:
        v = tuple(map(parse_int, text.split(",")))
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None
    if len(v) != length:
        raise ValueError(f"{name} needs {length} entries, got {len(v)}")
    return v


def parse_fields(tokens: Sequence[str], names: Sequence[str]) -> Tuple[str, ...]:
    """The text of each field in `names`, in that order, from "name=text"
    tokens that give each name exactly once and nothing else; ValueError
    naming a token without "=" or an unknown, repeated or missing name."""
    texts = {}
    for token in tokens:
        name, eq, text = token.partition("=")
        if not eq:
            raise ValueError(f"field {token!r} is not name=value")
        if name not in names or name in texts:
            why = "repeated" if name in texts else "unknown"
            raise ValueError(f"{why} field {name!r} in {token!r}")
        texts[name] = text
    for name in names:
        if name not in texts:
            raise ValueError(f"missing field {name!r}")
    return tuple(texts[name] for name in names)


def parse_weight(text: str):
    """Parse "2,1;0,-1" into (coords, Shape(2, 2)).

    Entries may be rationals like "3/2"; integer entries stay ints.  An
    empty entry or block, as in "1,,0;0" or ";0", raises ValueError.
    """
    parts = text.split(";")
    if len(parts) != 2:
        raise ValueError(f"expected one ';' separating blocks: {text!r}")
    pb, qb = (tuple(map(parse_number, part.split(","))) for part in parts)
    return pb + qb, Shape(len(pb), len(qb))


def format_weight(x: Sequence, shape: Shape) -> str:
    pb, qb = blocks(x, shape)
    return ",".join(map(str, pb)) + ";" + ",".join(map(str, qb))


def integral(x: Sequence) -> Tuple[int, ...]:
    """x as a tuple of ints; ValueError unless each entry is integral (3.0,
    not 1.5 or inf)."""
    try:
        ints = tuple(map(int, x))
    except OverflowError:  # int(inf)
        ints = None
    if ints != tuple(x):
        raise ValueError(f"integral weight required, got {','.join(map(str, x))}")
    return ints


def is_weakly_decreasing(w: Sequence) -> bool:
    """Whether each entry of w is at least the next: a dominant block."""
    return all(map(operator.ge, w, w[1:]))


def is_dominant(x: Sequence, shape: Shape) -> bool:
    """Both blocks weakly decreasing."""
    return all(map(is_weakly_decreasing, blocks(x, shape)))


def in_holomorphic_chamber(x: Sequence, shape: Shape) -> bool:
    """Dominant with a strict gap x_p > x_{p+1} between the blocks."""
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
    return max(1, ceil(shape.rank / gap))


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
# Permutations and Weyl elements.  A permutation is a tuple of images in
# one-line notation: w[i] = position that slot i maps to, so
# (w.x)[w[i]] = x[i].  A Weyl element of W = S_p x S_q is a pair of them
# acting blockwise on coordinates.

Perm = Tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def longest_perm(n: int) -> Perm:
    return tuple(reversed(range(n)))


def inversions(w: Perm) -> int:
    return sum(a > b for a, b in combinations(w, 2))


def compose(a: Perm, b: Perm) -> Perm:
    """a o b: apply b first (as actions on coordinates)."""
    return tuple(a[j] for j in b)


def permute(w: Perm, x: Sequence) -> tuple:
    """w.x in one pass: the entry in slot i moves to position w[i]."""
    out = [None] * len(x)
    for i, v in enumerate(x):
        out[w[i]] = v
    return tuple(out)


def inverse_perm(w: Perm) -> Perm:
    return permute(w, range(len(w)))


def argsort(v: Sequence) -> Perm:
    """The slots of v in increasing order of their entries, ties in slot order."""
    return tuple(sorted(range(len(v)), key=v.__getitem__))


def all_perms(n: int) -> List[Perm]:
    """Every permutation of range(n), in lexicographic order."""
    return list(permutations(range(n)))


class WeylElement(NamedTuple):
    wp: Perm
    wq: Perm

    def apply(self, x: Sequence, shape: Shape) -> Vector:
        pb, qb = blocks(x, shape)
        return permute(self.wp, pb) + permute(self.wq, qb)

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self o other (apply `other` first)."""
        return WeylElement(compose(self.wp, other.wp), compose(self.wq, other.wq))

    def inverse(self) -> "WeylElement":
        return WeylElement(inverse_perm(self.wp), inverse_perm(self.wq))


def identity_weyl(shape: Shape) -> WeylElement:
    return WeylElement(identity_perm(shape.p), identity_perm(shape.q))


def longest_weyl(shape: Shape) -> WeylElement:
    """w0: reverses each block."""
    return WeylElement(longest_perm(shape.p), longest_perm(shape.q))


def all_weyl_elements(shape: Shape) -> List[WeylElement]:
    """Every element of W = S_p x S_q, in a deterministic order."""
    return [WeylElement(wp, wq) for wp in all_perms(shape.p) for wq in all_perms(shape.q)]


def check_weyl(w, shape: Shape, name: str) -> None:
    """ValueError, naming `name`, unless w is a Weyl element of the shape:
    a WeylElement of permutations of range(p) and range(q), each a tuple
    or list of ints (not bools, floats or numpy integers)."""
    if not (isinstance(w, WeylElement) and _permutes(w.wp, shape.p) and _permutes(w.wq, shape.q)):
        raise ValueError(f"{name} must permute range({shape.p}) and range({shape.q}), got {w!r}")


def _permutes(b, n: int) -> bool:
    """Whether b is a tuple or list of the ints 0, ..., n-1 in some order."""
    return type(b) in (tuple, list) and {*map(type, b)} <= _INT and sorted(b) == _identity(n)


_INT = frozenset((int,))


@lru_cache(maxsize=None)
def _identity(n: int) -> List[int]:
    """[0, ..., n-1], shared: `_permutes` compares with it and never changes it."""
    return list(range(n))
