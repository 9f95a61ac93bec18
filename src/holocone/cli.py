"""Batch command-line interface.

Exit-code contract: 0 success/true, 1 false/mismatch, 2 usage or parse
error.  All outputs are deterministic; any timing or progress chatter
goes to stderr.

A points file (`enumerate --out`, `hull --in`) is a versioned header
line and then one comma-separated row of integers per line; `hull`
reads the entries as int64, so an entry beyond int64, like any other
defect, is a usage error.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import warnings
from typing import Optional, Sequence, Tuple

from . import lr, polyhedral, ressayre, semigroup, symq, verify
from .weights import Shape, WeylElement, parse_weight

POINTS_FILE_VERSION = 1
_WRITE_ROWS = 1 << 16  # rows of a points file per write or per read


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
    try:
        vals = [int(x) for x in (text.split(",") if "," in text else text)]
    except ValueError:
        vals = None
    if vals is None or sorted(vals) != list(range(1, size + 1)):
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


def _bound_of(args) -> int:
    if not 0 <= args.bound <= semigroup.MAX_BOUND:
        raise UsageError(f"--bound must be in 0..{semigroup.MAX_BOUND}")
    return args.bound


def _load_cone(path, shape: Shape) -> polyhedral.RationalCone:
    """A cone file over triples of `shape`; any defect is a UsageError."""
    try:
        cone = polyhedral.load_cone(path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise UsageError(f"unreadable cone file {path}: {e!r}") from None
    if cone.ambient_dim != 3 * shape.rank:
        raise UsageError(f"cone file {path} does not live on triples of {shape}")
    return cone


def _save(save, *args) -> None:
    """save(*args), whose last argument is the output path; a path that
    cannot be written (say, in a missing directory) is a UsageError."""
    try:
        save(*args)
    except OSError as e:
        raise UsageError(f"cannot write {args[-1]}: {e.strerror or e!r}") from None


# ---------------------------------------------------------------------------
# Point file interchange (versioned text, one triple per line)


def save_points(points, shape: Shape, bound: int, path) -> None:
    """Write the int8 matrix of `semigroup.enumerate_semigroup_points`,
    one comma-separated row per line, a block of rows per write."""
    import numpy as np

    # The text of every int8 value; a negative value indexes from the end.
    text = np.array([str(v) for v in range(128)] + [str(v) for v in range(-128, 0)], dtype=object)
    # Entries in the even columns of `cells`, separators in the odd ones.
    cells = np.empty((min(len(points), _WRITE_ROWS), 2 * points.shape[1]), dtype=object)
    cells[:, 1::2] = ","
    cells[:, -1] = "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"holocone-points {POINTS_FILE_VERSION} "
            f"p={shape.p} q={shape.q} bound={bound}\n"
        )
        for start in range(0, len(points), _WRITE_ROWS):
            block = points[start : start + _WRITE_ROWS]
            cells[: len(block), 0::2] = text[block]
            fh.write("".join(cells[: len(block)].ravel().tolist()))


def load_points(path):
    """(points, shape) from a points file; any defect is a UsageError.

    The body is read `_WRITE_ROWS` lines at a time, each block by
    `np.loadtxt` into int64 and narrowed to int8 when every entry fits, so
    the int64 transient is one block; concatenating the blocks promotes
    the result to int64 when any block needs it."""
    import numpy as np

    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if header[:2] != ["holocone-points", str(POINTS_FILE_VERSION)]:
                raise ValueError("not a holocone-points file of this version")
            fields = dict(kv.split("=") for kv in header[2:])
            shape = Shape(int(fields["p"]), int(fields["q"])).validate()
            blocks = []
            while lines := list(itertools.islice(fh, _WRITE_ROWS)):
                with warnings.catch_warnings():
                    # a blank block is skipped, not reported as a numpy warning
                    warnings.simplefilter("ignore", UserWarning)
                    block = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
                if not len(block):
                    continue
                if block.shape[1] != 3 * shape.rank:
                    raise ValueError(f"need rows of {3 * shape.rank} entries")
                if -128 <= block.min() and block.max() <= 127:
                    block = block.astype(np.int8)
                blocks.append(block)
        if not blocks:
            raise ValueError(f"need rows of {3 * shape.rank} entries")
    except (OSError, ValueError, KeyError) as e:
        raise UsageError(f"unreadable points file {path}: {e!r}") from None
    return np.concatenate(blocks), shape


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
    bound = _bound_of(args)
    points = semigroup.enumerate_semigroup_points(shape, bound)
    _save(save_points, points, shape, bound, args.out)
    print(f"{len(points)} triples")
    return 0


def cmd_hull(args) -> int:
    if args.infile is None or args.out is None:
        raise UsageError("need --in and --out")
    pts, shape = load_points(args.infile)
    cone = polyhedral.cone_from_points(
        pts, provenance=f"hull-of:{os.path.basename(args.infile)}"
    )
    _save(polyhedral.save_cone, cone, args.out)
    print(
        f"{len(cone.inequalities)} facets, "
        f"{len(cone.equalities or ())} equalities"
    )
    return 0


def cmd_cone_member(args) -> int:
    if args.infile is None:
        raise UsageError("need --in")
    shape = _shape_of(args)
    cone = _load_cone(args.infile, shape)
    lam, mu, nu = _parse_triple(args, shape)
    inside = polyhedral.cone_member(cone, lam + mu + nu)
    print(inside)
    return 0 if inside else 1


def _sliced(args):
    if args.infile is None:
        raise UsageError("need --in")
    shape = _shape_of(args)
    cone = _load_cone(args.infile, shape)
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
    if poly.is_empty():
        raise UsageError("the slice is empty: no C completes --lam and --mu in the cone")
    rec = polyhedral.recession_cone(poly)
    for l in rec.lineality or ():
        print("line " + ",".join(map(str, l)))
    for r in rec.rays or ():
        print("ray " + ",".join(map(str, r)))
    if args.out:
        _save(polyhedral.save_cone, rec, args.out)
    return 0


def cmd_ressayre(args) -> int:
    shape = _shape_of(args)
    if args.mode == "verify":
        if args.gamma is None or args.w1 is None or args.w2 is None:
            raise UsageError("verify needs --gamma, --w1, --w2")
        try:
            gamma, gshape = parse_weight(args.gamma)
        except ValueError as e:
            raise UsageError(str(e)) from None
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
    cone = _load_cone(args.infile, shape).with_h_rep()
    results = ressayre.search_certificates(shape, cone.inequalities)
    _save(ressayre.save_certificates, results, shape, args.out)
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
    return verify.verify22(bound=_bound_of(args), corrupt=corrupt)


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="holocone",
        description="Exact computations around holomorphic Horn cones of U(p,q).",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    integer = {"type": int}
    # every option not named here takes a string
    options = {"p": integer, "q": integer, "n": integer, "in": {"dest": "infile"},
               "bound": {"type": int, "default": 3}}
    triple = "p q lam mu nu triple"
    # Each subcommand gets exactly the options it reads.
    commands = [
        ("lr", cmd_lr, "n lam mu nu", "Littlewood-Richardson coefficient c^nu_{lam,mu}"),
        ("mult", cmd_mult, triple, "holomorphic multiplicity m(lam, mu, nu)"),
        ("member", cmd_member, triple, "integral Horn semigroup membership"),
        ("enumerate", cmd_enumerate, "p q bound out", "box-bounded semigroup triples to a file"),
        ("hull", cmd_hull, "in out", "exact facets of the cone of a points file"),
        ("cone-member", cmd_cone_member, "in " + triple, "triple membership in a cone file"),
        ("slice", cmd_slice, "in p q lam mu", "C-slice of a triple cone at fixed (A, B)"),
        ("recession", cmd_recession, "in p q lam mu out", "recession cone of a C-slice"),
        ("ressayre", cmd_ressayre, "p q in out gamma w1 w2", "facet certificates: verify or search"),
        ("verify22", cmd_verify22, "bound", "end-to-end (2,2) cone reproduction"),
    ]
    parsers = {}
    for name, fn, names, help_ in commands:
        sp = parsers[name] = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        for opt in names.split():
            sp.add_argument("--" + opt, **options.get(opt, {}))
    parsers["ressayre"].add_argument("mode", choices=["verify", "search"])
    parsers["verify22"].add_argument(
        "--inject-fault", action="store_true", help=argparse.SUPPRESS
    )
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
