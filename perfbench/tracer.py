"""Per-layer spans for the benchmark, recorded around calls into holocone.

`Tracer.install()` replaces each public function listed in `LAYERS` with
a wrapper at every place it is bound: the defining module and every
loaded holocone module that imported it by name (`verify` imports
`additive_prune` and `facets_of_points`, `ressayre` imports `rank`).
Calls between holocone's own functions go through module globals, so a
nested call such as `lr_coefficient` -> `lr_count_tableaux` (made only
on a cache miss) is recorded as a child span.

Spans live in flat in-memory arrays (function id, parent span, start,
end) until the benchmark writes them out.  A function's self time is its
span minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, List

# module -> public functions wrapped.  The layer names the benchmark
# reports are "<module>.<function>".
LAYERS = {
    "verify": ("verify22",),
    "semigroup": ("enumerate_semigroup_points",),
    "polyhedral": (
        "additive_prune",
        "facets_of_points",
        "rays_from_halfspaces",
        "cone_member",
        "rank",
    ),
    "lr": ("lr_coefficient", "lr_count_tableaux", "tensor_expand"),
    "symq": ("holomorphic_multiplicity",),
    "ressayre": ("certify_normal", "check_candidate", "admissible"),
    "schubert": ("schubert_multiply",),
}

def _enumerated(args, result):
    return {"semigroup.triples": len(result)}


def _pruned(args, result):
    return {
        "polyhedral.additive_prune.input": len(args[0]),
        "polyhedral.additive_prune.kept": len(result),
    }


def _rays(args, result):
    return {"polyhedral.rays_from_halfspaces.rays_out": len(result[0])}


def _certified(args, result):
    return {"ressayre.attempts": 1, "ressayre.certified": int(result is not None)}


def _checked(args, result):
    return {"ressayre.attempts": 1, "ressayre.certified": int(bool(result["certified"]))}


# Exact work counts read off a call's arguments and result.
COUNTERS = {
    "semigroup.enumerate_semigroup_points": _enumerated,
    "polyhedral.additive_prune": _pruned,
    "polyhedral.rays_from_halfspaces": _rays,
    "ressayre.certify_normal": _certified,
    "ressayre.check_candidate": _checked,
}


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self) -> None:
        self.names = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, int] = {}
        self._stack = [-1]
        self._wrappers: List[tuple] = []  # (original, wrapper), built once
        self._patched: List[tuple] = []

    def _wrap(self, fid: int, name: str, f: Callable) -> Callable:
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts
        counter = COUNTERS.get(name)

        @wraps(f)
        def traced(*args, **kwargs):
            idx = len(start)
            fn.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = f(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                for k, v in counter(args, result).items():
                    counts[k] = counts.get(k, 0) + v
            return result

        return traced

    def install(self) -> None:
        if not self._wrappers:
            for fid, name in enumerate(self.names):
                mod_name, fname = name.split(".")
                orig = getattr(importlib.import_module("holocone." + mod_name), fname)
                self._wrappers.append((orig, self._wrap(fid, name, orig)))
        mods = [m for name, m in list(sys.modules.items()) if name.startswith("holocone.")]
        for orig, wrapper in self._wrappers:
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans = (
            array("i", self.fn),
            array("i", self.parent),
            array("d", self.start),
            array("d", self.end),
        )
        counts = dict(self.counts)
        for a in (self.fn, self.parent, self.start, self.end):
            del a[:]
        self.counts.clear()
        return spans, counts


def self_times(names: List[str], spans) -> Dict[str, float]:
    """Per-function self time: span duration minus its children's spans."""
    fn, parent, start, end = spans
    out = [0.0] * len(names)
    for i in range(len(fn)):
        d = end[i] - start[i]
        out[fn[i]] += d
        if parent[i] >= 0:
            out[fn[parent[i]]] -= d
    return dict(zip(names, out))


def call_counts(names: List[str], spans) -> Dict[str, int]:
    fn = spans[0]
    out = [0] * len(names)
    for f in fn:
        out[f] += 1
    return dict(zip(names, out))


def child_counts(names: List[str], spans, parent_name: str, child_name: str) -> int:
    """Number of `child_name` spans whose direct parent is a `parent_name` span."""
    fn, parent = spans[0], spans[1]
    p, c = names.index(parent_name), names.index(child_name)
    return sum(1 for i in range(len(fn)) if fn[i] == c and parent[i] >= 0 and fn[parent[i]] == p)


def write_spans(path, names: List[str], spans) -> None:
    fn, parent, start, end = spans
    t0 = start[0] if len(start) else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span\tparent\tname\tstart_s\tend_s\n")
        for i in range(len(fn)):
            fh.write(
                f"{i}\t{parent[i]}\t{names[fn[i]]}\t{start[i] - t0:.9f}\t{end[i] - t0:.9f}\n"
            )
