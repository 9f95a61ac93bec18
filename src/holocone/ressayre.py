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
C-block and scans the finitely many Weyl pairs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import schubert
from .polyhedral import primitive, reduce_mod_lineality
from .symq import q_module_weights
from .weights import (
    Shape,
    WeylElement,
    all_weyl_elements,
    check_length,
    compact_positive_roots,
    longest_weyl,
    pairing,
    positive_roots,
)

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


def relation_A(c: RessayreCandidate, shape: Shape) -> bool:
    """Dimension count over root/weight sets (Horn specialization)."""
    rc_pos = compact_positive_roots(shape)
    g = c.gamma
    g1 = c.w1.apply(g, shape)
    g2 = c.w2.apply(g, shape)
    lhs = (
        sum(1 for a in rc_pos if pairing(a, g1) > 0)
        + sum(1 for a in rc_pos if pairing(a, g2) > 0)
        + sum(1 for a in rc_pos if pairing(a, g) > 0)
    )
    rhs = 2 * sum(1 for a in rc_pos if pairing(a, g) != 0) + sum(
        1 for h in q_module_weights(shape) if pairing(h, g) > 0
    )
    return lhs == rhs


def _positive_sum(v, shape: Shape):
    """f(v) = sum of <alpha, v> over positive roots pairing positively."""
    total = Fraction(0)
    for a in positive_roots(shape):
        x = pairing(a, v)
        if x > 0:
            total += x
    return total


def trace_condition(c: RessayreCandidate, shape: Shape) -> bool:
    """Eq.-(15)-style trace identity between gamma and its translates."""
    w0 = longest_weyl(shape)
    g = c.gamma
    lhs = _positive_sum(g, shape)
    rhs = _positive_sum(
        w0.compose(c.w1).apply(g, shape), shape
    ) + _positive_sum(w0.compose(c.w2).apply(g, shape), shape)
    return lhs == rhs


def schubert_condition(c: RessayreCandidate, shape: Shape) -> int:
    """Intersection number k of the certificate's Schubert problem.

    k = point_coefficient([X_gamma] . [X_{w1,gamma}] . [X_{w2,gamma}]
    . Eul(q^{gamma>0})) on the partial flag variety of gamma.
    """
    if not admissible(c.gamma, shape):
        raise ValueError("schubert_condition requires an admissible gamma")
    g = c.gamma
    f = schubert.flag_type_of(g, shape)
    cls = schubert.class_of_base_cell(g, shape)
    for w in (c.w1, c.w2):
        cls = schubert.schubert_multiply(
            cls, schubert.class_of_cell((w.wp, w.wq), g, shape), f, shape
        )
        if not cls:
            return 0
    eul = schubert.euler_class_q_positive(g, shape)
    cls = schubert.schubert_multiply(cls, eul, f, shape)
    return schubert.point_coefficient(cls, f, shape)


def inequality_of(c: RessayreCandidate, shape: Shape) -> Tuple[int, ...]:
    """Primitive normal of <A,w1.g> + <B,w2.g> - <C,w0.g> >= 0 on triples."""
    g = c.gamma
    w0 = longest_weyl(shape)
    vec = (
        tuple(c.w1.apply(g, shape))
        + tuple(c.w2.apply(g, shape))
        + tuple(-x for x in w0.apply(g, shape))
    )
    return primitive(vec)


def check_candidate(c: RessayreCandidate, shape: Shape) -> dict:
    """All four predicates at once (UI helper); short-circuits nothing."""
    adm = admissible(c.gamma, shape)
    out = {
        "admissible": adm,
        "relation_A": relation_A(c, shape),
        "trace_condition": trace_condition(c, shape),
        "schubert_k": schubert_condition(c, shape) if adm else 0,
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
    eqs = (trace_equality_normal(shape),)
    key = reduce_mod_lineality(normal, eqs)
    return any(
        key == reduce_mod_lineality(c, eqs)
        for c in chamber_facet_normals(shape)
    )


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
    """First certificate matching the facet normal exactly, or None.

    gamma is forced by the C-block; (w1, w2) pairs are filtered by the
    exact match of the A- and B-blocks before the expensive checks run.
    Deterministic: Weyl pairs are scanned in lexicographic order.
    """
    n = shape.rank
    normal = primitive(normal)
    g = _gamma_from_normal(normal, shape)
    if all(v == 0 for v in g):
        return None
    na, nb = tuple(normal[:n]), tuple(normal[n : 2 * n])
    ws = all_weyl_elements(shape)
    w1s = [w for w in ws if tuple(w.apply(g, shape)) == na]
    w2s = [w for w in ws if tuple(w.apply(g, shape)) == nb]
    for w1 in w1s:
        for w2 in w2s:
            cand = RessayreCandidate(g, w1, w2)
            if not admissible(g, shape):
                return None
            if not relation_A(cand, shape):
                continue
            if not trace_condition(cand, shape):
                continue
            k = schubert_condition(cand, shape)
            if k >= 1:
                return FacetCertificate(cand, k, tuple(normal))
    return None


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
    return WeylElement(
        tuple(int(x) for x in a.split(",")),
        tuple(int(x) for x in b.split(",")),
    )


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
    """Parse a certificate file back into (normal, certificate-or-None)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if header[:1] != ["holocone-certificates"] or int(header[1]) != CERT_FILE_VERSION:
            raise ValueError("unrecognized certificate file")
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            normal = tuple(int(x) for x in parts[1].split(","))
            if parts[2] == "UNCERTIFIED":
                out.append((normal, None))
                continue
            fields = dict(p.split("=", 1) for p in parts[3:])
            gamma = tuple(int(x) for x in fields["gamma"].split(","))
            cert = FacetCertificate(
                RessayreCandidate(
                    gamma, _parse_weyl(fields["w1"]), _parse_weyl(fields["w2"])
                ),
                int(fields["k"]),
                normal,
            )
            out.append((normal, cert))
    return out
