"""Certification of holomorphic Horn-cone facets.

A candidate is a rational weight gamma together with a pair of Weyl
elements (w1, w2).  It is a facet certificate when gamma is admissible
(a span condition over the root system) and a Schubert-calculus
intersection number k is >= 1.  Two more exact checks are reported
beside these, and both follow from them: a dimension count ("Relation
(A)", the degree condition of the Schubert problem) and a trace
identity relating gamma to its Weyl translates; the first counts the
positive pair differences of schubert._pair_differences on each side,
the second sums them.  A certificate yields the linear inequality

    <A, w1.gamma> + <B, w2.gamma> - <C, w0.gamma> >= 0

on triples, and every facet of the Horn cone arises this way.  The
search inverts this: given a facet normal it reads off gamma from the
C-block and checks the A- and B-blocks as the translates w1.gamma and
w2.gamma, which is all the checks read of w1 and w2; the lex-least Weyl
pair with those translates is the witness a certificate records.
`check_candidate` is the one verdict on a candidate; it, `inequality_of`
and the certificate reader take one rule for a valid Weyl element,
`weights.check_weyl`.

The public functions check their input once and raise ValueError on a
malformed one.  The private ones trust their caller: `_witness` and
schubert's kernel `_schubert_number` take the blocks of gamma and its
translates, split once, and check nothing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import schubert
from .polyhedral import primitive, reduce_mod_lineality
from .weights import (Shape, WeylElement, argsort, blocks, check_length, check_weyl,
                      parse_fields, parse_int, parse_ints, permute, star_involution,
                      translate_blocks)

CERT_FILE_VERSION = 1


class RessayreCandidate(NamedTuple):
    gamma: Tuple
    w1: WeylElement
    w2: WeylElement


class FacetCertificate(NamedTuple):
    candidate: RessayreCandidate
    k: int
    normal: Tuple[int, ...]


def _check_pair(c: RessayreCandidate, shape: Shape) -> None:
    """ValueError, naming the slot, unless w1 and w2 pass `weights.check_weyl`."""
    check_weyl(c.w1, shape, "w1")
    check_weyl(c.w2, shape, "w2")


def admissible(gamma: Sequence, shape: Shape) -> bool:
    """span(R_o intersect gamma-perp) == span(R_o) intersect gamma-perp.

    R_o is the set of nonzero T-weights e_i - e_j of the complexified
    Lie algebra; its span is the coordinate-sum-zero hyperplane.  The
    right-hand side has dimension n-1 when gamma is orthogonal to that
    hyperplane (gamma central) and n-2 otherwise.

    Closed form: for gamma != 0, admissible iff gamma takes at most two
    distinct values.  Proof sketch: the tight roots are the e_i - e_j
    with gamma_i = gamma_j.  Group the coordinates into the k classes
    of equal gamma value; within a class of size m the roots e_i - e_j
    span an (m-1)-dimensional space, and distinct classes span
    independent spaces, so the left-hand side has dimension n - k.
    For k = 1 (gamma central) that is n-1 as required; for k >= 2 the
    condition n - k == n - 2 holds exactly when k == 2.  The rank-based
    definition is kept as the oracle in the test suite.
    """
    schubert.check_gamma(gamma)
    check_length(gamma, shape)
    return len(set(gamma)) <= 2


def inequality_of(c: RessayreCandidate, shape: Shape) -> Tuple[int, ...]:
    """Primitive normal of <A,w1.g> + <B,w2.g> - <C,w0.g> >= 0 on triples."""
    _check_pair(c, shape)
    g = c.gamma
    return primitive(c.w1.apply(g, shape) + c.w2.apply(g, shape) + star_involution(g, shape))


def check_candidate(c: RessayreCandidate, shape: Shape) -> dict:
    """Every check of a candidate and the verdict: certified exactly when
    gamma is admissible and k >= 1.  The other two checks follow from
    these, are reported only, and read one list of pair differences
    (schubert._pair_differences).  k >= 1 implies Relation (A), and with
    two values u > v every positive difference is u - v.
    """
    adm = admissible(c.gamma, shape)
    _check_pair(c, shape)
    gp, gq = gb = blocks(c.gamma, shape)
    tbs = tuple((permute(w.wp, gp), permute(w.wq, gq)) for w in (c.w1, c.w2))
    lhs, rhs = schubert._pair_differences(gb, tbs)
    rel = schubert._degree_condition(lhs, rhs)
    k = schubert._schubert_number(gb, tbs, shape) if adm and rel else 0
    return {
        "admissible": adm,
        "relation_A": rel,
        "trace_condition": sum(d for d in lhs if d > 0) == sum(d for d in rhs if d > 0),
        "schubert_k": k,
        "certified": adm and k >= 1,
    }


def trace_equality_normal(shape: Shape) -> Tuple[int, ...]:
    """Normal of the sum identity |A| + |B| = |C| on triples."""
    n = shape.rank
    return (1,) * (2 * n) + (-1,) * n


def chamber_facet_normals(shape: Shape) -> List[Tuple[int, ...]]:
    """Dominance normals x_i - x_{i+1} >= 0 within each block of A, B, C."""
    n = shape.rank
    out = []
    for part in range(3):
        for i in list(range(shape.p - 1)) + list(
            range(shape.p, n - 1)
        ):
            v = [0] * (3 * n)
            v[part * n + i] = 1
            v[part * n + i + 1] = -1
            out.append(tuple(v))
    return out


def is_chamber_facet(normal: Sequence, shape: Shape) -> bool:
    """Whether the normal cuts a dominance facet, modulo the sum identity.

    Chamber facets bound the product of dominant chambers rather than
    reflecting any branching condition, so they carry no certificate.
    """
    if len(normal) != 3 * shape.rank:
        raise ValueError("normal must live on triples")
    return reduce_mod_lineality(normal, (trace_equality_normal(shape),)) in _chamber_keys(shape)


@lru_cache(maxsize=None)
def _chamber_keys(shape: Shape) -> frozenset:
    """The chamber normals of a shape, each reduced modulo the sum identity."""
    eqs = (trace_equality_normal(shape),)
    return frozenset(reduce_mod_lineality(c, eqs) for c in chamber_facet_normals(shape))


def _gamma_from_normal(normal: Sequence, shape: Shape):
    """gamma with -w0.gamma equal to the normal's C-block."""
    n = shape.rank
    if len(normal) != 3 * n:
        raise ValueError("normal must live on triples")
    return star_involution(normal[2 * n :], shape)


def certify_normal(normal: Sequence, shape: Shape) -> Optional[FacetCertificate]:
    """The certificate matching the facet normal exactly, or None.

    gamma is forced by the C-block, and the A- and B-blocks must be the
    translates w1.gamma and w2.gamma, so they are checked as block
    permutations of gamma (weights.translate_blocks).  The verdict is
    check_candidate's, admissibility and k >= 1, and k reads w only
    through the cells of the translates (schubert.cell_class_rep).  So
    the blocks decide for every Weyl pair with these translates, and the
    lex-least pair (_witness) is built only for a certificate that is
    returned.
    """
    n = shape.rank
    normal = primitive(normal)
    g = _gamma_from_normal(normal, shape)
    if all(v == 0 for v in g) or not admissible(g, shape):
        return None
    split = translate_blocks(g, (normal[:n], normal[n : 2 * n]), shape)
    if split is None:
        return None
    gb, tbs = split
    k = schubert._schubert_number(gb, tbs, shape)
    if k < 1:
        return None
    cand = RessayreCandidate(g, *(_witness(gb, tb) for tb in tbs))
    return FacetCertificate(cand, k, normal)


def _witness(gb, tb) -> WeylElement:
    """The lex-least w with w.g == t, for the blocks tb of t a block
    permutation of the blocks gb of g: per block, the k-th entry of g in
    stable sorted order goes to the slot of the k-th entry of t."""
    return WeylElement(*(permute(argsort(a), argsort(b)) for a, b in zip(gb, tb)))


def search_certificates(
    shape: Shape, facet_normals: Sequence[Sequence]
) -> List[Tuple[Tuple[int, ...], Optional[FacetCertificate]]]:
    """Certificate (or None) for each facet normal, in input order."""
    return [(tuple(primitive(nrm)), certify_normal(nrm, shape)) for nrm in facet_normals]


# ---------------------------------------------------------------------------
# Certificate file interchange


def _fmt_weyl(w: WeylElement) -> str:
    return ",".join(map(str, w.wp)) + "|" + ",".join(map(str, w.wq))


def _parse_weyl(s: str, shape: Shape, name: str) -> WeylElement:
    """The Weyl element "wp|wq" (0-based images); ValueError naming `name`."""
    wp, _, wq = s.partition("|")
    w = WeylElement(parse_ints(wp, shape.p, name), parse_ints(wq, shape.q, name))
    check_weyl(w, shape, name)
    return w


def save_certificates(results, shape: Shape, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"holocone-certificates {CERT_FILE_VERSION} p={shape.p} q={shape.q}\n")
        for normal, cert in results:
            head = "facet " + ",".join(map(str, normal))
            if cert is None:
                fh.write(head + " UNCERTIFIED\n")
                continue
            c = cert.candidate
            fields = ",".join(map(str, c.gamma)), _fmt_weyl(c.w1), _fmt_weyl(c.w2), cert.k
            fh.write(head + " CERTIFIED gamma={} w1={} w2={} k={}\n".format(*fields))


def load_certificates(path):
    """Parse a certificate file back into (normal, certificate-or-None).

    Every line is checked against the header's shape: a normal of 3(p+q)
    integers and nothing after UNCERTIFIED, or on a CERTIFIED line the
    fields gamma, w1, w2 and k, each once: a nonzero gamma of p+q
    integers, Weyl elements of the shape and k >= 1.  Raises ValueError
    for any malformed header or line.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if header[:2] != ["holocone-certificates", str(CERT_FILE_VERSION)]:
            raise ValueError("unrecognized certificate file")
        try:
            shape = Shape(*map(parse_int, parse_fields(header[2:], ("p", "q")))).validate()
        except ValueError as e:
            raise ValueError(f"line 1: malformed certificate header: {e!r}") from None
        for lineno, line in enumerate(fh, 2):
            parts = line.split()
            if parts:
                try:
                    out.append(_parse_certificate(parts, shape))
                except (IndexError, ValueError) as e:
                    raise ValueError(f"line {lineno}: malformed certificate: {e!r}") from None
    return out


def _parse_certificate(parts: List[str], shape: Shape):
    """(normal, certificate-or-None) from the fields of one facet line."""
    if parts[0] != "facet" or parts[2] not in ("CERTIFIED", "UNCERTIFIED"):
        raise ValueError("expected 'facet NORMAL CERTIFIED|UNCERTIFIED ...'")
    normal = parse_ints(parts[1], 3 * shape.rank, "normal")
    if parts[2] == "UNCERTIFIED":
        parse_fields(parts[3:], ())
        return normal, None
    gamma, w1, w2, k = parse_fields(parts[3:], ("gamma", "w1", "w2", "k"))
    gamma = parse_ints(gamma, shape.rank, "gamma")
    schubert.check_gamma(gamma)
    cand = RessayreCandidate(gamma, _parse_weyl(w1, shape, "w1"), _parse_weyl(w2, shape, "w2"))
    k = parse_int(k)
    if k < 1:
        raise ValueError(f"a certified facet needs k >= 1, got {k}")
    return normal, FacetCertificate(cand, k, normal)
