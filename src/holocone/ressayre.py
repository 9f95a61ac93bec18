"""Certification of holomorphic Horn-cone facets.

A candidate is a rational weight gamma together with a pair of Weyl
elements (w1, w2).  Four exact checks qualify it as a facet certificate:
admissibility of gamma (a span condition over the root system),
a dimension count ("Relation (A)"), a trace identity relating gamma to
its Weyl translates, and a Schubert-calculus intersection number k >= 1.
A passing candidate yields the linear inequality

    <A, w1.gamma> + <B, w2.gamma> - <C, w0.gamma> >= 0

on triples, and every facet of the Horn cone arises this way.  The
search inverts this: given a facet normal it reads off gamma from the
C-block and checks the one lex-least Weyl pair that matches the rest.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import schubert
from .polyhedral import primitive, reduce_mod_lineality
from .weights import Shape, WeylElement, blocks, check_length, longest_weyl

CERT_FILE_VERSION = 1


class RessayreCandidate(NamedTuple):
    gamma: Tuple
    w1: WeylElement
    w2: WeylElement


class FacetCertificate(NamedTuple):
    candidate: RessayreCandidate
    k: int
    normal: Tuple[int, ...]


def _check_gamma(gamma) -> None:
    if all(v == 0 for v in gamma):
        raise ValueError("gamma must be nonzero")


def _check_weyl(c: RessayreCandidate, shape: Shape) -> None:
    """ValueError unless w1 and w2 are Weyl elements of the shape: pairs of
    permutations of range(p) and range(q)."""
    for name, w in (("w1", c.w1), ("w2", c.w2)):
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


def _translates(c: RessayreCandidate, shape: Shape):
    """(w1.gamma, w2.gamma, gamma), the blocks every predicate reads."""
    g = c.gamma
    return c.w1.apply(g, shape), c.w2.apply(g, shape), g


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
    _check_gamma(gamma)
    check_length(gamma, shape)
    return len(set(gamma)) <= 2


def _compact_diffs(v: Sequence, p: int) -> List:
    """<alpha, v> = v_i - v_j over the compact positive roots alpha = e_i - e_j,
    which are the index pairs i < j inside one block."""
    return [b[i] - b[j] for b in (v[:p], v[p:]) for i, j in combinations(range(len(b)), 2)]


def relation_A(c: RessayreCandidate, shape: Shape) -> bool:
    """Dimension count over root/weight sets (Horn specialization).

    Counted over index pairs: the compact positive roots pair with v as
    the differences within a block, and the noncompact ones e_i - e_{p+j}
    as the differences between a p-index and a q-index.
    """
    _check_weyl(c, shape)
    return _relation_A(*_translates(c, shape), shape)


def _relation_A(t1, t2, g, shape: Shape) -> bool:
    """`relation_A` from the translates t1 = w1.gamma and t2 = w2.gamma."""
    p = shape.p
    lhs = sum(x > 0 for v in (t1, t2, g) for x in _compact_diffs(v, p))
    rhs = 2 * sum(x != 0 for x in _compact_diffs(g, p)) + sum(
        a > b for a in g[:p] for b in g[p:]
    )
    return lhs == rhs


def _positive_sum(v):
    """f(v) = sum of <alpha, v> over positive roots pairing positively.

    The positive roots of u(p,q) are exactly the e_i - e_j with i < j, so
    f(v) = sum over i < j of max(v_i - v_j, 0).
    """
    return sum(max(a - b, 0) for a, b in combinations(v, 2))


def trace_condition(c: RessayreCandidate, shape: Shape) -> bool:
    """Eq.-(15)-style trace identity between gamma and its translates."""
    _check_weyl(c, shape)
    return _trace_condition(*_translates(c, shape), shape)


def _trace_condition(t1, t2, g, shape: Shape) -> bool:
    """`trace_condition` from the translates t1 = w1.gamma and t2 = w2.gamma."""
    w0 = longest_weyl(shape)
    return _positive_sum(g) == _positive_sum(w0.apply(t1, shape)) + _positive_sum(
        w0.apply(t2, shape)
    )


def schubert_condition(c: RessayreCandidate, shape: Shape) -> int:
    """Intersection number k of the certificate's Schubert problem.

    k is the point coefficient of [X_gamma] . [X_{w1,gamma}] .
    [X_{w2,gamma}] . Eul(q^{gamma>0}) on the partial flag variety of
    gamma (schubert.intersection_number).
    """
    _check_weyl(c, shape)
    if not admissible(c.gamma, shape):
        raise ValueError("schubert_condition requires an admissible gamma")
    return schubert.intersection_number(c.gamma, (c.w1, c.w2), shape)


def inequality_of(c: RessayreCandidate, shape: Shape) -> Tuple[int, ...]:
    """Primitive normal of <A,w1.g> + <B,w2.g> - <C,w0.g> >= 0 on triples."""
    _check_weyl(c, shape)
    t1, t2, g = _translates(c, shape)
    w0 = longest_weyl(shape)
    return primitive(t1 + t2 + tuple(-x for x in w0.apply(g, shape)))


def check_candidate(c: RessayreCandidate, shape: Shape) -> dict:
    """All four predicates at once (UI helper); short-circuits nothing."""
    adm = admissible(c.gamma, shape)
    _check_weyl(c, shape)
    t = _translates(c, shape)
    out = {
        "admissible": adm,
        "relation_A": _relation_A(*t, shape),
        "trace_condition": _trace_condition(*t, shape),
        "schubert_k": schubert.intersection_number(c.gamma, (c.w1, c.w2), shape) if adm else 0,
    }
    out["certified"] = (
        out["admissible"]
        and out["relation_A"]
        and out["trace_condition"]
        and out["schubert_k"] >= 1
    )
    return out


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
    return (
        reduce_mod_lineality(normal, (trace_equality_normal(shape),))
        in _chamber_keys(shape)
    )


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
    ncol = tuple(normal[2 * n :])
    w0 = longest_weyl(shape)
    return tuple(-x for x in w0.apply(ncol, shape))


def certify_normal(
    normal: Sequence, shape: Shape
) -> Optional[FacetCertificate]:
    """The certificate matching the facet normal exactly, or None.

    gamma is forced by the C-block.  The stable block sort matches equal
    entries in index order, so w = sort(target)^-1 o sort(gamma) is the
    lex-least w with w.gamma == target if any is.  Only that (w1, w2) is
    checked, and it decides for all: relation_A and trace_condition read
    w only through w.gamma, schubert_condition through min-rep(w0 o w o
    sigma^-1) (schubert.cell_class_rep), and w'.gamma == w.gamma means
    w' = w o s with s in Stab(gamma) = sigma^-1 W_P sigma, the same coset.
    Once w1.gamma and w2.gamma match the normal's A- and B-blocks, the
    predicates read those blocks as the translates.
    """
    n = shape.rank
    normal = primitive(normal)
    g = _gamma_from_normal(normal, shape)
    if all(v == 0 for v in g) or not admissible(g, shape):
        return None
    na, nb = normal[:n], normal[n : 2 * n]
    def sort(v) -> WeylElement:
        return WeylElement(*map(schubert.block_sorting_perm, blocks(v, shape)))
    sg = sort(g)
    w1, w2 = (sort(t).inverse().compose(sg) for t in (na, nb))
    if (w1.apply(g, shape), w2.apply(g, shape)) != (na, nb) or not _relation_A(na, nb, g, shape):
        return None
    if not _trace_condition(na, nb, g, shape):
        return None
    k = schubert.intersection_number(g, (w1, w2), shape)
    return FacetCertificate(RessayreCandidate(g, w1, w2), k, normal) if k >= 1 else None


def search_certificates(
    shape: Shape, facet_normals: Sequence[Sequence]
) -> List[Tuple[Tuple[int, ...], Optional[FacetCertificate]]]:
    """Certificate (or None) for each facet normal, in input order."""
    out = []
    for nrm in facet_normals:
        out.append((tuple(primitive(nrm)), certify_normal(nrm, shape)))
    return out


# ---------------------------------------------------------------------------
# Certificate file interchange


def _fmt_weyl(w: WeylElement) -> str:
    return ",".join(map(str, w.wp)) + "|" + ",".join(map(str, w.wq))


def _parse_weyl(s: str) -> WeylElement:
    a, b = s.split("|")
    w = WeylElement(
        tuple(int(x) for x in a.split(",")),
        tuple(int(x) for x in b.split(",")),
    )
    if any(sorted(perm) != list(range(len(perm))) for perm in w):
        raise ValueError(f"not a pair of permutations: {s}")
    return w


def save_certificates(results, shape: Shape, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"holocone-certificates {CERT_FILE_VERSION} p={shape.p} q={shape.q}\n")
        for normal, cert in results:
            head = "facet " + ",".join(map(str, normal))
            if cert is None:
                fh.write(head + " UNCERTIFIED\n")
            else:
                fh.write(
                    head
                    + " CERTIFIED gamma={} w1={} w2={} k={}\n".format(
                        ",".join(map(str, cert.candidate.gamma)),
                        _fmt_weyl(cert.candidate.w1),
                        _fmt_weyl(cert.candidate.w2),
                        cert.k,
                    )
                )


def load_certificates(path):
    """Parse a certificate file back into (normal, certificate-or-None).

    Raises ValueError for any malformed header or line.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if header[:2] != ["holocone-certificates", str(CERT_FILE_VERSION)]:
            raise ValueError("unrecognized certificate file")
        for lineno, line in enumerate(fh, 2):
            parts = line.split()
            if parts:
                try:
                    out.append(_parse_certificate(parts))
                except (IndexError, KeyError, ValueError) as e:
                    raise ValueError(f"line {lineno}: malformed certificate: {e!r}") from None
    return out


def _parse_certificate(parts: List[str]):
    """(normal, certificate-or-None) from the fields of one facet line."""
    if parts[0] != "facet" or parts[2] not in ("CERTIFIED", "UNCERTIFIED"):
        raise ValueError("expected 'facet NORMAL CERTIFIED|UNCERTIFIED ...'")
    normal = tuple(int(x) for x in parts[1].split(","))
    if parts[2] == "UNCERTIFIED":
        return normal, None
    fields = dict(p.split("=", 1) for p in parts[3:])
    gamma = tuple(int(x) for x in fields["gamma"].split(","))
    cand = RessayreCandidate(gamma, _parse_weyl(fields["w1"]), _parse_weyl(fields["w2"]))
    return normal, FacetCertificate(cand, int(fields["k"]), normal)
