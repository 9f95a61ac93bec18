"""Batch command-line interface.

Exit-code contract: 0 success/true, 1 false/mismatch, 2 usage or parse
error.  All outputs are deterministic; any timing or progress chatter
goes to stderr.  The LR memo cache persists under HOLOCONE_CACHE_DIR
when that variable is set; the cache is advisory, and a file that fails
`lr.load_cache`'s checks is ignored, so it never changes results.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from . import lr, polyhedral, ressayre, semigroup, symq, verify
from .weights import Shape, WeylElement, format_weight, parse_weight

POINTS_FILE_VERSION = 1


# ---------------------------------------------------------------------------
# Argument parsing helpers


class UsageError(ValueError):
    pass


def _parse_gl_weight(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise UsageError(f"bad weight {text!r}: {e}") from None


def _parse_block_weight(text: str, shape: Shape):
    try:
        w, s = parse_weight(text)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if s != shape:
        raise UsageError(f"weight {text!r} has shape {s}, expected {shape}")
    if any(int(v) != v for v in w):
        raise UsageError(f"integral weight required: {text!r}")
    return tuple(int(v) for v in w)


def _parse_triple(args, shape: Shape):
    if args.triple is not None:
        parts = args.triple.split("|")
        if len(parts) != 3:
            raise UsageError("--triple needs LAM|MU|NU")
        return tuple(_parse_block_weight(p, shape) for p in parts)
    if args.lam is None or args.mu is None or args.nu is None:
        raise UsageError("need --triple or all of --lam/--mu/--nu")
    return (
        _parse_block_weight(args.lam, shape),
        _parse_block_weight(args.mu, shape),
        _parse_block_weight(args.nu, shape),
    )


def _parse_perm(text: str, size: int) -> Tuple[int, ...]:
    """One-line permutation: "21" or "2,1" (1-based images)."""
    text = text.strip()
    vals = (
        [int(x) for x in text.split(",")]
        if "," in text
        else [int(ch) for ch in text]
    )
    if sorted(vals) != list(range(1, size + 1)):
        raise UsageError(f"{text!r} is not a permutation of 1..{size}")
    return tuple(v - 1 for v in vals)


def _parse_weyl(text: str, shape: Shape) -> WeylElement:
    """Block permutation pair "21;12"; a bare "21" leaves the q-block fixed."""
    if ";" in text:
        a, b = text.split(";", 1)
        return WeylElement(
            _parse_perm(a, shape.p), _parse_perm(b, shape.q)
        )
    return WeylElement(
        _parse_perm(text, shape.p), tuple(range(shape.q))
    )


def _shape_of(args) -> Shape:
    if args.p is None or args.q is None:
        raise UsageError("need --p and --q")
    try:
        return Shape(args.p, args.q).validate()
    except ValueError as e:
        raise UsageError(str(e)) from None


# ---------------------------------------------------------------------------
# Point file interchange (versioned text, one triple per line)


def save_points(points, shape: Shape, bound: int, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"holocone-points {POINTS_FILE_VERSION} "
            f"p={shape.p} q={shape.q} bound={bound}\n"
        )
        for row in points:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def load_points(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if (
            header[:1] != ["holocone-points"]
            or int(header[1]) != POINTS_FILE_VERSION
        ):
            raise UsageError(f"unrecognized points file: {path}")
        fields = dict(kv.split("=") for kv in header[2:])
        shape = Shape(int(fields["p"]), int(fields["q"]))
        pts = [
            tuple(int(x) for x in line.split(","))
            for line in fh
            if line.strip()
        ]
    return pts, shape


# ---------------------------------------------------------------------------
# Subcommands


def cmd_lr(args) -> int:
    if args.n is None:
        raise UsageError("need --n")
    if args.lam is None or args.mu is None or args.nu is None:
        raise UsageError("need --lam, --mu and --nu")
    lam, mu, nu = (
        _parse_gl_weight(args.lam),
        _parse_gl_weight(args.mu),
        _parse_gl_weight(args.nu),
    )
    for w in (lam, mu, nu):
        if len(w) != args.n:
            raise UsageError(f"weight {w} does not have length {args.n}")
    try:
        print(lr.lr_coefficient(lam, mu, nu))
    except ValueError as e:
        raise UsageError(str(e)) from None
    return 0


def cmd_mult(args) -> int:
    shape = _shape_of(args)
    lam, mu, nu = _parse_triple(args, shape)
    try:
        print(symq.holomorphic_multiplicity(lam, mu, nu, shape))
    except ValueError as e:
        raise UsageError(str(e)) from None
    return 0


def cmd_member(args) -> int:
    shape = _shape_of(args)
    lam, mu, nu = _parse_triple(args, shape)
    try:
        member = symq.horn_membership(lam, mu, nu, shape)
    except ValueError as e:
        raise UsageError(str(e)) from None
    print(member)
    return 0 if member else 1


def cmd_enumerate(args) -> int:
    shape = _shape_of(args)
    if args.out is None:
        raise UsageError("need --out")
    points = semigroup.enumerate_semigroup_points(shape, args.bound)
    save_points(points, shape, args.bound, args.out)
    print(f"{len(points)} triples")
    return 0


def cmd_hull(args) -> int:
    if args.infile is None or args.out is None:
        raise UsageError("need --in and --out")
    pts, shape = load_points(args.infile)
    cone = polyhedral.cone_from_points(
        pts, provenance=f"hull-of:{os.path.basename(args.infile)}"
    )
    polyhedral.save_cone(cone, args.out)
    print(
        f"{len(cone.inequalities)} facets, "
        f"{len(cone.equalities or ())} equalities"
    )
    return 0


def cmd_cone_member(args) -> int:
    if args.infile is None:
        raise UsageError("need --in")
    cone = polyhedral.load_cone(args.infile)
    shape = _shape_of(args)
    lam, mu, nu = _parse_triple(args, shape)
    inside = polyhedral.cone_member(cone, lam + mu + nu)
    print(inside)
    return 0 if inside else 1


def _sliced(args):
    if args.infile is None:
        raise UsageError("need --in")
    cone = polyhedral.load_cone(args.infile)
    shape = _shape_of(args)
    a = _parse_block_weight(args.lam, shape) if args.lam else None
    b = _parse_block_weight(args.mu, shape) if args.mu else None
    if a is None or b is None:
        raise UsageError("need --lam (the fixed A) and --mu (the fixed B)")
    return polyhedral.slice_at(cone, a, b), shape


def cmd_slice(args) -> int:
    poly, _ = _sliced(args)
    for n, c in poly.equalities:
        print("eq " + ",".join(map(str, n)) + " + " + str(c) + " = 0")
    for n, c in poly.inequalities:
        print("ineq " + ",".join(map(str, n)) + " + " + str(c) + " >= 0")
    return 0


def cmd_recession(args) -> int:
    poly, _ = _sliced(args)
    rec = polyhedral.recession_cone(poly).with_v_rep()
    for l in rec.lineality or ():
        print("line " + ",".join(map(str, l)))
    for r in rec.rays or ():
        print("ray " + ",".join(map(str, r)))
    if args.out:
        polyhedral.save_cone(rec, args.out)
    return 0


def cmd_ressayre(args) -> int:
    shape = _shape_of(args)
    if args.mode == "verify":
        if args.gamma is None or args.w1 is None or args.w2 is None:
            raise UsageError("verify needs --gamma, --w1, --w2")
        gamma, gshape = parse_weight(args.gamma)
        if gshape != shape:
            raise UsageError(
                f"gamma has shape {gshape}, expected {shape}"
            )
        cand = ressayre.RessayreCandidate(
            gamma, _parse_weyl(args.w1, shape), _parse_weyl(args.w2, shape)
        )
        try:
            res = ressayre.check_candidate(cand, shape)
        except ValueError as e:
            raise UsageError(str(e)) from None
        for key in ("admissible", "relation_A", "trace_condition"):
            print(f"{key}: {'pass' if res[key] else 'FAIL'}")
        print(f"schubert_k: {res['schubert_k']}")
        if res["certified"]:
            print(
                "certified; inequality normal "
                + ",".join(map(str, ressayre.inequality_of(cand, shape)))
            )
            return 0
        print("not certified")
        return 1

    # search mode
    if args.infile is None or args.out is None:
        raise UsageError("search needs --in and --out")
    cone = polyhedral.load_cone(args.infile).with_h_rep()
    results = ressayre.search_certificates(shape, cone.inequalities)
    ressayre.save_certificates(results, shape, args.out)
    missing = [
        normal
        for normal, cert in results
        if cert is None and not ressayre.is_chamber_facet(normal, shape)
    ]
    certified = sum(1 for _, cert in results if cert is not None)
    print(f"certified {certified}/{len(results)} facets")
    for normal in missing:
        print("UNCERTIFIED non-chamber facet " + ",".join(map(str, normal)))
    return 0 if not missing else 1


def cmd_verify22(args) -> int:
    corrupt = verify.inject_extra_point if args.inject_fault else None
    return verify.verify22(bound=args.bound, corrupt=corrupt)


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="holocone",
        description="Exact computations around holomorphic Horn cones of U(p,q).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        sp.add_argument("--p", type=int)
        sp.add_argument("--q", type=int)
        sp.add_argument("--n", type=int)
        sp.add_argument("--lam")
        sp.add_argument("--mu")
        sp.add_argument("--nu")
        sp.add_argument("--triple")
        sp.add_argument("--bound", type=int, default=3)
        sp.add_argument("--in", dest="infile")
        sp.add_argument("--out")
        sp.add_argument("--gamma")
        sp.add_argument("--w1")
        sp.add_argument("--w2")
        return sp

    add("lr", cmd_lr, "Littlewood-Richardson coefficient c^nu_{lam,mu}")
    add("mult", cmd_mult, "holomorphic multiplicity m(lam, mu, nu)")
    add("member", cmd_member, "integral Horn semigroup membership")
    add("enumerate", cmd_enumerate, "box-bounded semigroup triples to a file")
    add("hull", cmd_hull, "exact facets of the cone of a points file")
    add("cone-member", cmd_cone_member, "triple membership in a cone file")
    add("slice", cmd_slice, "C-slice of a triple cone at fixed (A, B)")
    add("recession", cmd_recession, "recession cone of a C-slice")
    rp = add("ressayre", cmd_ressayre, "facet certificates: verify or search")
    rp.add_argument("mode", choices=["verify", "search"])
    vp = add("verify22", cmd_verify22, "end-to-end (2,2) cone reproduction")
    vp.add_argument(
        "--inject-fault", action="store_true", help=argparse.SUPPRESS
    )
    return ap


def _cache_path() -> Optional[str]:
    d = os.environ.get("HOLOCONE_CACHE_DIR")
    if not d:
        return None
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, "lr-cache.txt")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)

    cache = _cache_path()
    if cache and os.path.exists(cache):
        try:
            lr.load_cache(cache)
        except (OSError, ValueError) as e:
            print(f"ignoring unreadable cache: {e}", file=sys.stderr)
    try:
        code = args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if cache:
        try:
            lr.save_cache(cache)
        except OSError as e:
            print(f"could not write cache: {e}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
