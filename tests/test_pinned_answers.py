"""The benchmark's answers, pinned: a change that is not meant to alter an
answer leaves the `serve` session and the `cone31` cone byte-identical.

The workloads are read from `perfbench/workloads.py`, so the pins check
exactly what the benchmark runs.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def sha16(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "seed, sha", [(1, "4bb32c147980fb1c"), (3, "4574fc037cc28d16"), (7, "5e7adcb1cf70acd6")]
)
def test_serve_answers_pinned(seed, sha):
    workloads.reset_caches()
    assert sha16(workloads.Serve(seed, False).run_job().answers) == sha


def test_cone31_facets_and_certificates_pinned():
    workloads.reset_caches()
    _, ineqs, eqs, certs = workloads.Cone31(1, False).run_job().answers[0]
    assert sha16((sorted(ineqs), sorted(eqs), sorted(certs.items()))) == "f998657caea45c8a"
