"""Batch command-line interface.

Exit-code contract: 0 success/true, 1 false/mismatch, 2 usage or parse
error.  Every refused input takes one path to exit code 2: the library
and the parsers below raise ValueError, and `main` alone catches it,
prints "error: ..." to stderr and returns 2.  All outputs are
deterministic; any timing or progress chatter goes to stderr.

A points file (`enumerate --out`, `hull --in`) is a versioned header
line and then one comma-separated row of integers per line, in ASCII;
`hull` reads the entries as int64, so an entry beyond int64, like any
other defect, is a usage error.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import warnings
from typing import Optional, Sequence

from . import lr, polyhedral, ressayre, semigroup, symq, verify
from .weights import (Shape, WeylElement, check_weyl, integral, parse_fields, parse_int,
                      parse_ints, parse_weight)

POINTS_FILE_VERSION = 1
_WRITE_ROWS = 1 << 16  # rows of a points file per write or per read


# ---------------------------------------------------------------------------
# Argument parsing helpers


def _parse_block_weight(text: str, shape: Shape):
    w, s = parse_weight(text)
    if s != shape:
        raise ValueError(f"weight {text!r} has shape {s}, expected {shape}")
    return integral(w)


def _parse_triple(args, shape: Shape):
    """(lam, mu, nu) from --triple or from all of --lam/--mu/--nu, not both."""
    if args.triple is not None:
        if (args.lam, args.mu, args.nu) != (None, None, None):
            raise ValueError("give --triple or --lam/--mu/--nu, not both")
        parts = args.triple.split("|")
        if len(parts) != 3:
            raise ValueError("--triple needs LAM|MU|NU")
        return tuple(_parse_block_weight(p, shape) for p in parts)
    if args.lam is None or args.mu is None or args.nu is None:
        raise ValueError("need --triple or all of --lam/--mu/--nu")
    return tuple(_parse_block_weight(w, shape) for w in (args.lam, args.mu, args.nu))


def _weyl_of(args, option: str, shape: Shape) -> WeylElement:
    """The Weyl element of an option such as "21;12" or "2,1;1,2": 1-based
    images per block, comma-separated or one digit each; a bare "21"
    leaves the q-block fixed.  `weights.check_weyl` decides."""
    text = getattr(args, option)
    wp, semicolon, wq = text.partition(";")
    if not semicolon:
        wq = ",".join(str(i + 1) for i in range(shape.q))
    try:
        images = (parse_ints(b if "," in b else ",".join(b.strip()), n, option)
                  for b, n in zip((wp, wq), shape))
        w = WeylElement(*(tuple(v - 1 for v in b) for b in images))
        check_weyl(w, shape, option)
    except ValueError:
        raise ValueError(f"--{option} {text!r} is not a 1-based Weyl element of {shape}") from None
    return w


def _int_of(args, option: str) -> int:
    try:
        return parse_int(getattr(args, option))
    except ValueError as e:
        raise ValueError(f"--{option}: {e}") from None


def _shape_of(args) -> Shape:
    if args.p is None or args.q is None:
        raise ValueError("need --p and --q")
    return Shape(_int_of(args, "p"), _int_of(args, "q")).validate()


def _bound_of(args) -> int:
    try:
        return semigroup.check_bound(parse_int(args.bound))
    except ValueError as e:
        raise ValueError(f"--bound: {e}") from None


def _load_cone(path, shape: Shape) -> polyhedral.RationalCone:
    """A cone file over triples of `shape`; any defect is a ValueError."""
    try:
        cone = polyhedral.load_cone(path)
    except (OSError, ValueError) as e:
        raise ValueError(f"unreadable cone file {path}: {e!r}") from None
    if cone.ambient_dim != 3 * shape.rank:
        raise ValueError(f"cone file {path} does not live on triples of {shape}")
    return cone


def _save(save, *args) -> None:
    """save(*args), whose last argument is the output path; a path that
    cannot be written (say, in a missing directory) is a ValueError."""
    try:
        save(*args)
    except OSError as e:
        raise ValueError(f"cannot write {args[-1]}: {e.strerror or e!r}") from None


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
    """(points, shape) from a points file; any defect is a ValueError.

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
            p, q, bound = map(parse_int, parse_fields(header[2:], ("p", "q", "bound")))
            shape = Shape(p, q).validate()
            semigroup.check_bound(bound)
            blocks = []
            while lines := list(itertools.islice(fh, _WRITE_ROWS)):
                # np.loadtxt's integer parser crashes the interpreter on some
                # non-ASCII characters (U+EEC27, for one), so they never reach it
                if not "".join(lines).isascii():
                    raise ValueError("a points file is ASCII text")
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
    except (OSError, ValueError) as e:
        raise ValueError(f"unreadable points file {path}: {e!r}") from None
    return np.concatenate(blocks), shape


# ---------------------------------------------------------------------------
# Subcommands


def cmd_lr(args) -> int:
    if None in (args.n, args.lam, args.mu, args.nu):
        raise ValueError("need --n, --lam, --mu and --nu")
    n = _int_of(args, "n")
    if n < 1:
        raise ValueError(f"--n: need a length of at least 1, got {n}")
    lam, mu, nu = (parse_ints(getattr(args, w), n, "--" + w) for w in ("lam", "mu", "nu"))
    print(lr.lr_coefficient(lam, mu, nu))
    return 0


def cmd_mult(args) -> int:
    shape = _shape_of(args)
    lam, mu, nu = _parse_triple(args, shape)
    print(symq.holomorphic_multiplicity(lam, mu, nu, shape))
    return 0


def cmd_member(args) -> int:
    shape = _shape_of(args)
    lam, mu, nu = _parse_triple(args, shape)
    member = symq.horn_membership(lam, mu, nu, shape)
    print(member)
    return 0 if member else 1


def cmd_enumerate(args) -> int:
    shape = _shape_of(args)
    if args.out is None:
        raise ValueError("need --out")
    bound = _bound_of(args)
    points = semigroup.enumerate_semigroup_points(shape, bound)
    _save(save_points, points, shape, bound, args.out)
    print(f"{len(points)} triples")
    return 0


def cmd_hull(args) -> int:
    if args.infile is None or args.out is None:
        raise ValueError("need --in and --out")
    pts, shape = load_points(args.infile)
    cone = polyhedral.cone_from_points(pts)
    _save(polyhedral.save_cone, cone, args.out)
    print(
        f"{len(cone.inequalities)} facets, "
        f"{len(cone.equalities or ())} equalities"
    )
    return 0


def cmd_cone_member(args) -> int:
    if args.infile is None:
        raise ValueError("need --in")
    shape = _shape_of(args)
    cone = _load_cone(args.infile, shape)
    lam, mu, nu = _parse_triple(args, shape)
    inside = polyhedral.cone_member(cone, lam + mu + nu)
    print(inside)
    return 0 if inside else 1


def _sliced(args):
    if args.infile is None:
        raise ValueError("need --in")
    shape = _shape_of(args)
    cone = _load_cone(args.infile, shape)
    a = _parse_block_weight(args.lam, shape) if args.lam else None
    b = _parse_block_weight(args.mu, shape) if args.mu else None
    if a is None or b is None:
        raise ValueError("need --lam (the fixed A) and --mu (the fixed B)")
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
        raise ValueError("the slice is empty: no C completes --lam and --mu in the cone")
    rec = polyhedral.recession_cone(poly)
    for l in rec.lineality or ():
        print("line " + ",".join(map(str, l)))
    for r in rec.rays or ():
        print("ray " + ",".join(map(str, r)))
    if args.out:
        _save(polyhedral.save_cone, rec, args.out)
    return 0


def cmd_ressayre_verify(args) -> int:
    shape = _shape_of(args)
    if args.gamma is None or args.w1 is None or args.w2 is None:
        raise ValueError("verify needs --gamma, --w1, --w2")
    gamma, gshape = parse_weight(args.gamma)
    if gshape != shape:
        raise ValueError(f"gamma has shape {gshape}, expected {shape}")
    w1, w2 = (_weyl_of(args, w, shape) for w in ("w1", "w2"))
    cand = ressayre.RessayreCandidate(gamma, w1, w2)
    res = ressayre.check_candidate(cand, shape)
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


def cmd_ressayre_search(args) -> int:
    shape = _shape_of(args)
    if args.infile is None or args.out is None:
        raise ValueError("search needs --in and --out")
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
    return verify.verify22(bound=_bound_of(args))


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="holocone",
        description="Exact computations around holomorphic Horn cones of U(p,q).",
    )
    # Every option takes a string; the commands read the integers among
    # them with `parse_int`.
    options = {"in": {"dest": "infile"}, "bound": {"default": "3"}}
    triple = "p q lam mu nu triple"
    # Each subcommand, and each mode of one, gets exactly the options it
    # reads; a command with modes lists them in place of its options.
    ressayre_modes = [
        ("verify", cmd_ressayre_verify, "p q gamma w1 w2", "check one candidate (gamma, w1, w2)"),
        ("search", cmd_ressayre_search, "p q in out", "certify every facet of a cone file"),
    ]
    commands = [
        ("lr", cmd_lr, "n lam mu nu", "Littlewood-Richardson coefficient c^nu_{lam,mu}"),
        ("mult", cmd_mult, triple, "holomorphic multiplicity m(lam, mu, nu)"),
        ("member", cmd_member, triple, "integral Horn semigroup membership"),
        ("enumerate", cmd_enumerate, "p q bound out", "box-bounded semigroup triples to a file"),
        ("hull", cmd_hull, "in out", "exact facets of the cone of a points file"),
        ("cone-member", cmd_cone_member, "in " + triple, "triple membership in a cone file"),
        ("slice", cmd_slice, "in p q lam mu", "C-slice of a triple cone at fixed (A, B)"),
        ("recession", cmd_recession, "in p q lam mu out", "recession cone of a C-slice"),
        ("ressayre", None, ressayre_modes, "facet certificates: verify or search"),
        ("verify22", cmd_verify22, "bound", "end-to-end (2,2) cone reproduction"),
    ]

    def add(sub, commands) -> None:
        for name, fn, names, help_ in commands:
            sp = sub.add_parser(name, help=help_)
            if fn is None:
                add(sp.add_subparsers(dest="mode", required=True), names)
                continue
            sp.set_defaults(fn=fn)
            for opt in names.split():
                sp.add_argument("--" + opt, **options.get(opt, {}))

    add(ap.add_subparsers(dest="command", required=True), commands)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # argparse reads "--opt=--" as an empty list of values
        if [] in vars(args).values():
            raise ValueError("'--' is not an option value")
        return args.fn(args)
    except ValueError as e:  # every refusal exits 2, on one line even if a path breaks it
        print("error: " + " ".join(str(e).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
