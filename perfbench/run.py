"""Run one holocone benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify22 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark imports holocone from
`src/` in a single process on one thread, repeats the workload's job
(see `workloads.py`) until `--seconds` have passed, checks every answer
outside the timed region, and prints one line per metric followed, as
the last line of standard output, by a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (`wall_s`,
`ops_per_s`, `latency_p50_ms`, `latency_tail_ms`, `peak_rss_mb`,
`setup_s`); times are scaled by the speed of a reference loop run around
each job (see `REF_S`).  With `--trace 1` every other job runs with spans recorded
around holocone's public functions (`tracer.py`); the metrics are then
per-layer self times and exact work counts, each per job, and the spans
of the first traced job are written to `.perfbench/` in the root.

`--smoke` shrinks every workload to a few seconds of work for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 9

# The host is shared, and its speed drifts by +-20% over tens of seconds,
# more than the changes the benchmark must resolve.  So a fixed pure-Python
# reference loop runs around every job and every block of a job's
# operations, and each time is scaled by REF_S / (the loop's
# mean time around it): times read as seconds on a core that runs the loop
# in REF_S, about an idle core of the host the benchmark was defined on.
# The raw times are printed beside the scaled ones.
REF_S = 0.020
# Process start-up and imports do not track the reference loop, so set-up
# probes are scaled by a bare interpreter importing numpy instead: set-up
# times read as seconds on a host where that takes BASE_S.
BASE_S = 0.150

# A fresh interpreter that builds the workload's inputs and exits: the
# cost a user pays before the first operation (imports, reference cone,
# request generation).
_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), sys.argv[5] == '1')"
)


def _env() -> dict:
    env = dict(os.environ)
    env.pop("HOLOCONE_CACHE_DIR", None)
    return env


def reference_loop() -> float:
    """Seconds taken by a fixed piece of tuple, dict and integer work."""
    t0 = perf_counter()
    d, s = {}, 0
    for i in range(30000):
        t = (i % 97, i % 13, i)
        d[t[:2]] = d.get(t[:2], 0) + t[2]
        s += sum(t) * 3 // 7
    return perf_counter() - t0


def _spawn(cmd) -> float:
    t0 = perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=_env(), check=True)
    return perf_counter() - t0


def measure_setup(workload: str, seed: int, smoke: bool) -> float:
    """Median scaled wall time of fresh processes that only set the workload up.

    Each probe is scaled by BASE_S / (the time of a bare interpreter that
    imports numpy, run just before it).  The first probe is discarded: it
    may compile the sources to bytecode.
    """
    cmd = [sys.executable, "-c", _PROBE, str(SRC), str(HERE), workload, str(seed), str(int(smoke))]
    base = [sys.executable, "-c", "import numpy"]
    times = []
    for _ in range(1 + (1 if smoke else SETUP_PROBES)):
        scale = BASE_S / _spawn(base)
        times.append(_spawn(cmd) * scale)
    return statistics.median(times[1:])


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Run:
    """The jobs of one run and what their checks found."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.jobs = []  # (scaled op latencies, raw job time, failed op indices)
        self._ref = None  # last reference-loop time

    def job(self, tracer=None):
        """Run one job from empty caches; returns (scaled, raw) job time.

        The reference loop runs before the job, after it, and between its
        blocks of operations; each operation's latency is scaled by the
        mean of the two reference times around its block.
        """
        import workloads

        workloads.reset_caches()
        refs = [self._ref or reference_loop()]
        with tracer or contextlib.nullcontext():
            res = self.wl.run_job(lambda: refs.append(reference_loop()))
        refs.append(reference_loop())
        self._ref = refs[-1]
        block = self.wl.BLOCK
        scaled = [
            x * REF_S * 2 / (refs[i // block] + refs[i // block + 1])
            for i, x in enumerate(res.latencies)
        ]
        failed = set(res.raised) | set(self.wl.wrong(res))
        raw = sum(res.latencies)
        self.jobs.append((scaled, raw, failed))
        return sum(scaled), raw

    def tally(self):
        """(attempted, failed, ok latencies, ok job times), scaled, after the audit."""
        audit = set(self.wl.audit())
        attempted = failed = 0
        ok_lat, ok_jobs = [], []
        for lat, _, bad in self.jobs:
            bad = bad | audit
            attempted += len(lat)
            failed += len(bad)
            ok_lat.extend(x for i, x in enumerate(lat) if i not in bad)
            if not bad:
                ok_jobs.append(sum(lat))
        return attempted, failed, ok_lat, ok_jobs


def end_to_end(run: Run, seconds: float, setup_s: float):
    deadline = perf_counter() + seconds
    while not run.jobs or perf_counter() < deadline:
        run.job()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, ok_lat, ok_jobs = run.tally()
    busy = sum(sum(lat) for lat, _, _ in run.jobs)
    metrics = {}
    if ok_lat and ok_jobs:
        metrics = {
            "wall_s": (statistics.median(ok_jobs), "s"),
            "ops_per_s": (len(ok_lat) / busy, "1/s"),
            "latency_p50_ms": (1e3 * percentile(ok_lat, 50), "ms"),
            "latency_tail_ms": (1e3 * percentile(ok_lat, run.wl.TAIL_PCT), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    notes = [
        f"jobs: {len(run.jobs)} ({len(ok_jobs)} fully correct)",
        f"operations: {attempted} attempted, {failed} failed, "
        f"{len(ok_lat)} latency samples; latency_tail_ms is their p{run.wl.TAIL_PCT}",
        f"fail_ratio: {failed / attempted:.6f}",
        f"raw job time: median {statistics.median(raw for _, raw, _ in run.jobs):.6f} s; "
        f"scaled / raw: median {statistics.median(sum(lat) / raw for lat, raw, _ in run.jobs):.4f}",
    ]
    return attempted, failed, metrics, notes


def per_layer(run: Run, seconds: float, workload: str, seed: int):
    import tracer as tr

    tracer = tr.Tracer()
    names = tracer.names
    traced, untraced = [], []
    self_s = dict.fromkeys(names, 0.0)
    counts = {}
    rounds = 0
    first_spans, first_counts, unstable = None, None, False
    deadline = perf_counter() + seconds
    while not untraced or perf_counter() < deadline:
        if len(traced) > len(untraced):
            untraced.append(run.job()[0])
            continue
        scaled, raw = run.job(tracer)
        traced.append(scaled)
        spans, job_counts = tracer.take()
        job_calls = tr.call_counts(names, spans)
        job_counts.update({f"{k}.calls": v for k, v in job_calls.items()})
        for k, v in tr.self_times(names, spans).items():
            self_s[k] += v * scaled / raw
        for k, v in job_counts.items():
            counts[k] = counts.get(k, 0) + v
        rounds += tr.child_counts(
            names, spans, "polyhedral.facets_of_points", "polyhedral.rays_from_halfspaces"
        )
        if first_spans is None:
            first_spans, first_counts = spans, job_counts
        elif job_counts != first_counts:
            unstable = True
    attempted, failed, _, _ = run.tally()
    n = len(traced)
    t_traced = statistics.fmean(traced)
    t_untraced = statistics.fmean(untraced)
    self_total = sum(self_s.values()) / n

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"] / n, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / n, "s")
    metrics.update(
        {
            "semigroup.triples": (counts.get("semigroup.triples", 0) / n, "count"),
            "polyhedral.additive_prune.kept_ratio": (
                ratio("polyhedral.additive_prune.kept", "polyhedral.additive_prune.input"),
                "ratio",
            ),
            "polyhedral.rays_from_halfspaces.rays_out": (
                counts.get("polyhedral.rays_from_halfspaces.rays_out", 0) / n,
                "count",
            ),
            "polyhedral.facets_of_points.rounds": (rounds / n, "count"),
            "lr.cache_miss_ratio": (
                ratio("lr.lr_count_tableaux.calls", "lr.lr_coefficient.calls"), "ratio"
            ),
            "ressayre.certified_ratio": (ratio("ressayre.certified", "ressayre.attempts"), "ratio"),
            "trace.overhead_s": (t_traced - t_untraced, "s"),
            "trace.unattributed_s": (t_traced - self_total, "s"),
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload}-seed{seed}.tsv"
    tr.write_spans(span_file, names, first_spans)
    # Self times partition the covered part of each traced job, so their
    # sum cannot exceed the untraced job time plus the tracing overhead
    # (unless calls into holocone come from more than one thread).
    adds_up = self_total <= t_untraced + (t_traced - t_untraced) + 1e-9
    notes = [
        f"jobs: {n} traced, {len(untraced)} untraced; spans of the first traced job in {span_file}",
        "exact counts per job: "
        + ", ".join(
            f"{k}={v}"
            for k, v in sorted(first_counts.items())
            if not k.endswith(".calls") or v
        ),
        f"counts identical across traced jobs: {not unstable}",
        f"layer self times {self_total:.6f} s <= untraced job {t_untraced:.6f} s "
        f"+ tracing overhead {t_traced - t_untraced:.6f} s: {adds_up}",
        f"operations: {attempted} attempted, {failed} failed",
    ]
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify22", "cone31", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "holocone" / "__init__.py").is_file():
        print(f"perfbench: holocone sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HOLOCONE_CACHE_DIR", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    run = Run(workloads.WORKLOADS[args.workload](args.seed, args.smoke))
    if args.trace:
        attempted, failed, metrics, notes = per_layer(run, args.seconds, args.workload, args.seed)
    else:
        setup_s = measure_setup(args.workload, args.seed, args.smoke)
        attempted, failed, metrics, notes = end_to_end(run, args.seconds, setup_s)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.9g} {unit}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
