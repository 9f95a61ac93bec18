"""End-to-end reproduction of the (2,2) holomorphic Horn cone.

Pipeline: enumerate the box-bounded semigroup, take the exact hull,
compare canonical facet normals against the built-in reference table,
then attach a certificate to every non-chamber facet.  The report is
deterministic (no timings or paths on stdout) so repeat runs are
byte-identical.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO

from . import reference22, ressayre, semigroup
from .polyhedral import facets_of_points, primitive_signed, reduce_mod_lineality
from .weights import Shape


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def verify22(
    bound: int = 3,
    out: TextIO = sys.stdout,
    corrupt: Optional[Callable] = None,
) -> int:
    """Run the full (2,2) verification; returns the process exit code.

    `corrupt`, when given, may transform the enumerated point array
    before the hull step; it exists so tests can prove that a wrong
    multiplicity anywhere upstream flips the exit code to 1.
    """
    shape = Shape(2, 2)

    def emit(line: str) -> None:
        print(line, file=out)

    emit(f"holomorphic Horn cone verification for U(2,2), bound {bound}")
    t0 = time.perf_counter()
    points = semigroup.enumerate_semigroup_points(shape, bound)
    _log(f"enumerated {len(points)} semigroup points in {time.perf_counter()-t0:.1f}s")
    if corrupt is not None:
        points = corrupt(points)
    emit(f"semigroup points: {len(points)}")

    t0 = time.perf_counter()
    ineqs, eqs = facets_of_points(points, 3 * shape.rank)
    _log(f"hull in {time.perf_counter()-t0:.1f}s")
    emit(f"hull: {len(ineqs)} facets, {len(eqs)} equalities")

    ok = True
    ref_eq = primitive_signed(reference22.TRACE_EQUALITY)
    got_eqs = tuple(sorted(primitive_signed(e) for e in eqs))
    if got_eqs == (ref_eq,):
        emit("equality matched: |A| + |B| = |C|")
    else:
        ok = False
        emit(f"EQUALITY MISMATCH: computed {got_eqs}")

    mod = (reference22.TRACE_EQUALITY,)
    got = {reduce_mod_lineality(n, mod) for n in ineqs}
    ref = set(reference22.canonical_reference_facets())
    for extra in sorted(got - ref):
        ok = False
        emit(f"UNEXPECTED FACET (canonical): {extra}")
    for missing in sorted(ref - got):
        ok = False
        emit(f"MISSING FACET (canonical): {missing}")
    if got == ref:
        emit(
            f"matched {len(ineqs)}/{len(reference22.ALL_INEQUALITIES)} "
            "facet normals against the reference table"
        )

    noncham = [n for n in ineqs if not ressayre.is_chamber_facet(n, shape)]
    emit(f"chamber facets: {len(ineqs) - len(noncham)} (no certificate required)")
    certified = 0
    for nrm in sorted(noncham):
        cert = ressayre.certify_normal(nrm, shape)
        if cert is None:
            ok = False
            emit(f"UNCERTIFIED facet {nrm}")
            continue
        certified += 1
        c = cert.candidate
        emit(
            "certified facet {} gamma={} w1={}|{} w2={}|{} k={}".format(
                ",".join(map(str, nrm)),
                ",".join(map(str, c.gamma)),
                c.w1.wp,
                c.w1.wq,
                c.w2.wp,
                c.w2.wq,
                cert.k,
            )
        )
    emit(f"certified {certified}/{len(noncham)} non-chamber facets")

    emit("RESULT: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def inject_extra_point(points):
    """Fault-injection hook: a triple reported in the semigroup wrongly.

    The appended triple breaks the sum identity (|A| + |B| = 2 but
    |C| = 1), which no true multiplicity can do, so the hull drifts and
    the verification must fail.
    """
    import numpy as np

    bogus = np.array(
        [[1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, -1]], dtype=points.dtype
    )
    return np.vstack([points, bogus])
