"""The benchmark's workloads, each a repeatable job with its own checks.

Every job starts from empty Littlewood-Richardson and Schubert caches, as
a fresh process would, so all jobs of a run do the same work.

* verify22 -- `verify.verify22(bound=1)`: the paper's U(2,2) pipeline
  (enumerate, prune, hull, compare with the table, certify).
* cone31   -- the cone of a shape the paper does not tabulate, U(3,1):
  enumerate the box-2 semigroup, seed the hull with the additively
  pruned box-1 semigroup, then certify every non-chamber facet.
* serve    -- a closed loop from one client replaying a seeded session
  of single requests: multiplicities, cone membership, recession cones
  of slices, and Ressayre candidate checks.

A workload's constructor builds its inputs from the seed.  `run_job` is
the timed part; it calls `pause` (if given) between blocks of `BLOCK`
operations, outside their timing.  `wrong` (after each job) and `audit`
(once, after the timed jobs) return the indices of wrong answers, which
the benchmark counts as failed operations.
"""

from __future__ import annotations

import contextlib
import io
import random
import traceback
from itertools import combinations_with_replacement, product
from time import perf_counter
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from holocone import lr, polyhedral, reference22, ressayre, schubert, semigroup, symq, verify
from holocone.weights import Shape, all_weyl_elements


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def reset_caches() -> None:
    lr.clear_caches()
    schubert.clear_caches()


class JobResult(NamedTuple):
    """One job: its operations' latencies and answers, and failures seen."""

    latencies: List[float]
    answers: list
    raised: List[int]  # indices of operations that raised


# ---------------------------------------------------------------------------
# verify22


class Verify22:
    name = "verify22"
    BLOCK = 1
    # The highest percentile with at least ten of a 30 s run's ~70 jobs
    # beyond it; p99 would be the single slowest job, mostly host noise.
    TAIL_PCT = 85

    def __init__(self, seed: int, smoke: bool, corrupt=None) -> None:
        # The job has no random input; the seed is accepted and unused.
        self.bound = 1
        self.corrupt = corrupt
        self.reference_report = None

    def run_job(self, pause=None) -> JobResult:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = verify.verify22(bound=self.bound, out=out, corrupt=self.corrupt)
        except Exception:
            traceback.print_exc()
            return JobResult([perf_counter() - t0], [None], [0])
        return JobResult([perf_counter() - t0], [(rc, out.getvalue())], [])

    def wrong(self, job: JobResult) -> List[int]:
        """Indices of wrong answers: exit code 1, no PASS, or a changed report."""
        if job.raised:
            return []
        rc, report = job.answers[0]
        if self.reference_report is None and rc == 0:
            self.reference_report = report
        ok = (
            rc == 0
            and report.rstrip().endswith("RESULT: PASS")
            and report == self.reference_report
        )
        return [] if ok else [0]

    def audit(self) -> List[int]:
        return []


# ---------------------------------------------------------------------------
# cone31


class Cone31:
    name = "cone31"
    BLOCK = 1
    # The highest percentile with at least ten of a 30 s run's ~26 jobs
    # beyond it.
    TAIL_PCT = 60
    # (facets, equalities, non-chamber facets), all of which must certify.
    EXPECTED = (23, 1, 17)

    def __init__(self, seed: int, smoke: bool) -> None:
        # The job has no random input; the seed is accepted and unused.
        self.shape = Shape(3, 1)
        self.bound = 1 if smoke else 2
        self.seed_bound = 1
        self.reference_facets = None

    def run_job(self, pause=None) -> JobResult:
        shape = self.shape
        t0 = perf_counter()
        try:
            seed_points = semigroup.enumerate_semigroup_points(shape, self.seed_bound)
            seed = polyhedral.additive_prune(seed_points)
            points = semigroup.enumerate_semigroup_points(shape, self.bound)
            ineqs, eqs = polyhedral.facets_of_points(points, 3 * shape.rank, seed=seed)
            certs = {
                n: ressayre.certify_normal(n, shape)
                for n in ineqs
                if not ressayre.is_chamber_facet(n, shape)
            }
        except Exception:
            traceback.print_exc()
            return JobResult([perf_counter() - t0], [None], [0])
        return JobResult([perf_counter() - t0], [(points, ineqs, eqs, certs)], [])

    def wrong(self, job: JobResult) -> List[int]:
        """Wrong: counts off, a facet uncertified or violated, or a changed set."""
        if job.raised:
            return []
        points, ineqs, eqs, certs = job.answers[0]
        canon = (tuple(sorted(eqs)), tuple(sorted(ineqs)))
        if self.reference_facets is None:
            self.reference_facets = canon
        pts = np.asarray(points, dtype=np.int64)
        ok = (
            (len(ineqs), len(eqs), len(certs)) == self.EXPECTED
            and all(c is not None for c in certs.values())
            and all((pts @ np.array(n, dtype=np.int64) >= 0).all() for n in ineqs)
            and all((pts @ np.array(e, dtype=np.int64) == 0).all() for e in eqs)
            and canon == self.reference_facets
        )
        return [] if ok else [0]

    def audit(self) -> List[int]:
        return []


# ---------------------------------------------------------------------------
# serve


def block_weights(length: int, box: int) -> List[Tuple[int, ...]]:
    """Weakly decreasing integer vectors with entries in [-box, box]."""
    vals = range(box, -box - 1, -1)
    return [tuple(c) for c in combinations_with_replacement(vals, length)]


class _Blocks:
    """Dominant blocks of one shape and box, also grouped by coordinate sum."""

    def __init__(self, shape: Shape, box: int) -> None:
        self.shape = shape
        self.p = block_weights(shape.p, box)
        self.q = block_weights(shape.q, box)
        self.p_by_sum: Dict[int, list] = {}
        self.q_by_sum: Dict[int, list] = {}
        for v in self.p:
            self.p_by_sum.setdefault(sum(v), []).append(v)
        for v in self.q:
            self.q_by_sum.setdefault(sum(v), []).append(v)

    def weight(self, rng: random.Random) -> Tuple[int, ...]:
        return rng.choice(self.p) + rng.choice(self.q)

    def degree_consistent_triple(self, rng: random.Random):
        """(A, B, C) with |C_p| = |A_p|+|B_p|+d and |C_q| = |A_q|+|B_q|-d.

        Uniform triples almost never pass the degree test, so they would
        never reach the Littlewood-Richardson layer.
        """
        p = self.shape.p
        while True:
            a, b = self.weight(rng), self.weight(rng)
            d = rng.randint(0, 2 * self.shape.q)
            cp = self.p_by_sum.get(sum(a[:p]) + sum(b[:p]) + d)
            cq = self.q_by_sum.get(sum(a[p:]) + sum(b[p:]) - d)
            if cp and cq:
                return a, b, rng.choice(cp) + rng.choice(cq)


class Serve:
    name = "serve"
    TAIL_PCT = 99
    BLOCK = 500  # requests between calls to `pause`, about 0.3 s
    # Percent of a session's requests of each kind; exact, not drawn, so
    # that seeds differ only in the requests themselves.
    MIX = (("mult", 60), ("member", 15), ("recession", 10), ("ressayre", 15))
    REPEAT = 30  # percent of multiplicity queries that repeat an earlier one

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        self.session_size = 200 if smoke else 6000
        self.sfold_sample = 10 if smoke else 40
        self.shape22, self.shape33 = Shape(2, 2), Shape(3, 3)
        self.ref = reference22.reference_cone()
        mult_blocks = (_Blocks(self.shape22, 6), _Blocks(self.shape33, 4))
        weyl33 = all_weyl_elements(self.shape33)
        gammas = [g for g in product((-1, 0, 1), repeat=6) if any(g)]
        kinds = [k for k, pct in self.MIX for _ in range(self.session_size * pct // 100)]
        rng.shuffle(kinds)
        n_mult = kinds.count("mult")
        repeats = [i < n_mult * self.REPEAT // 100 for i in range(n_mult)]
        rng.shuffle(repeats)
        self.requests: list = []
        mults: list = []
        for kind in kinds:
            if kind == "mult":
                if repeats.pop() and mults:
                    req = rng.choice(mults)
                else:
                    # alternate U(2,2) and U(3,3) among fresh queries
                    blocks = mult_blocks[len(mults) % 2]
                    req = ("mult", blocks.shape) + blocks.degree_consistent_triple(rng)
                    mults.append(req)
            elif kind == "member":
                req = ("member", self.shape22) + mult_blocks[0].degree_consistent_triple(rng)
            elif kind == "recession":
                req = ("recession", self.shape22, mult_blocks[0].weight(rng), mult_blocks[0].weight(rng))
            else:
                cand = ressayre.RessayreCandidate(
                    rng.choice(gammas), rng.choice(weyl33), rng.choice(weyl33)
                )
                req = ("ressayre", self.shape33, cand)
            self.requests.append(req)
        self.reference_answers = None

    def answer(self, req):
        kind, shape = req[0], req[1]
        if kind == "mult":
            return symq.holomorphic_multiplicity(req[2], req[3], req[4], shape)
        if kind == "member":
            return polyhedral.cone_member(self.ref, req[2] + req[3] + req[4])
        if kind == "recession":
            rec = polyhedral.recession_cone(polyhedral.slice_at(self.ref, req[2], req[3]))
            rec = rec.with_v_rep()
            return rec.rays, rec.lineality
        res = ressayre.check_candidate(req[2], shape)
        return tuple(sorted(res.items()))

    def run_job(self, pause=None) -> JobResult:
        latencies, answers, raised = [], [], []
        for i, req in enumerate(self.requests):
            if pause is not None and i and i % self.BLOCK == 0:
                pause()
            t0 = perf_counter()
            try:
                ans = self.answer(req)
            except Exception:
                traceback.print_exc()
                ans = None
                raised.append(i)
            latencies.append(perf_counter() - t0)
            answers.append(ans)
        return JobResult(latencies, answers, raised)

    def wrong(self, job: JobResult) -> List[int]:
        """Answers that differ from the first session's (which `audit` checks)."""
        if self.reference_answers is None:
            self.reference_answers = job.answers
            return []
        return [
            i
            for i, (a, b) in enumerate(zip(job.answers, self.reference_answers))
            if a != b and i not in job.raised
        ]

    def audit(self) -> List[int]:
        """Independent checks of the first session's answers.

        Returns the indices of wrong answers.  Multiplicities are recomputed
        on a sample through `s_fold_multiplicity`, a separate code path;
        membership and recession answers are checked against the reference
        table directly; a certified candidate's inequality must hold on the
        whole (3,3) box-1 semigroup.
        """
        answers = self.reference_answers
        bad = set()
        table = reference22.ALL_INEQUALITIES
        trace = reference22.TRACE_EQUALITY
        mult_idx = [i for i, r in enumerate(self.requests) if r[0] == "mult"]
        seen = {}
        for i in mult_idx:
            seen.setdefault(self.requests[i], i)
        sample = random.Random(len(self.requests)).sample(
            sorted(seen.values()), min(self.sfold_sample, len(seen))
        )
        for i in sample:
            _, shape, a, b, c = self.requests[i]
            if symq.s_fold_multiplicity([a, b], c, shape) != answers[i]:
                bad.add(i)
        for i, req in enumerate(self.requests):
            if answers[i] is None:
                continue
            if req[0] in ("mult", "member") and req[1] == self.shape22:
                x = req[2] + req[3] + req[4]
                inside = all(_dot(n, x) >= 0 for n in table) and _dot(trace, x) == 0
                if req[0] == "member" and answers[i] != inside:
                    bad.add(i)
                if req[0] == "mult" and answers[i] > 0 and not inside:
                    bad.add(i)
            elif req[0] == "recession":
                rays, lin = answers[i]
                c_rows = [n[8:] for n in table]
                if not all(_dot(n, r) >= 0 for n in c_rows for r in rays):
                    bad.add(i)
                if not all(_dot(n, l) == 0 for n in c_rows for l in lin):
                    bad.add(i)
                if not all(_dot(trace[8:], v) == 0 for v in rays + lin):
                    bad.add(i)
        certified = [
            i
            for i, req in enumerate(self.requests)
            if req[0] == "ressayre" and answers[i] is not None and dict(answers[i])["certified"]
        ]
        if certified:
            pts = np.asarray(
                semigroup.enumerate_semigroup_points(self.shape33, 1), dtype=np.int64
            )
            for i in certified:
                normal = ressayre.inequality_of(self.requests[i][2], self.shape33)
                if not (pts @ np.array(normal, dtype=np.int64) >= 0).all():
                    bad.add(i)
        return sorted(bad)


WORKLOADS = {w.name: w for w in (Verify22, Cone31, Serve)}
