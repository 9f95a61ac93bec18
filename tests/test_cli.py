"""Command-line interface: behavior, exit codes, files, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from holocone import cli, lr, polyhedral, reference22, ressayre, semigroup, weights
from holocone.weights import Shape


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestLr:
    def test_example(self, capsys):
        code, out = run(
            ["lr", "--n", "2", "--lam", "1,0", "--mu", "1,0", "--nu", "1,1"],
            capsys,
        )
        assert code == 0 and out.strip() == "1"

    def test_usage_error_on_missing_args(self, capsys):
        code, _ = run(["lr", "--n", "2", "--lam", "1,0"], capsys)
        assert code == 2

    def test_usage_error_on_bad_weight(self, capsys):
        code, _ = run(
            ["lr", "--n", "2", "--lam", "x", "--mu", "1,0", "--nu", "1,1"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("n, weight", [("-1", "1"), ("0", "")], ids=["n-negative", "n-zero"])
    def test_length_below_one_refused_at_the_option(self, capsys, n, weight):
        # --n 0 would need empty weights, and --n -1 no length at all: both
        # are refused at --n, before any weight is read.
        code = cli.main(["lr", "--n", n, "--lam", weight, "--mu", weight, "--nu", weight])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --n: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "n,lam,mu,nu",
        [(2, "E,0", "0,0", "E,0"), (3, "E,1,0", "1,1,0", "E,2,1")],
        ids=["empty-skew", "walk"],
    )
    def test_huge_entries(self, capsys, n, lam, mu, nu):
        # Parts of 10^20 cost nothing: only the skew cells are stored.
        big = str(10**20)
        argv = ["lr", "--n", str(n)]
        for flag, w in (("--lam", lam), ("--mu", mu), ("--nu", nu)):
            argv += [flag, w.replace("E", big)]
        code, out = run(argv, capsys)
        assert code == 0 and out.strip() == "1"

    def test_walk_of_many_cells(self, capsys):
        # 1,200 skew cells: the walk is a loop, so its depth is not bounded
        # by the interpreter's recursion limit.
        code, out = run(
            ["lr", "--n", "3", "--lam", "600,0,0", "--mu", "600,600,0", "--nu", "600,600,600"],
            capsys,
        )
        assert code == 0 and out.strip() == "1"


class TestMultMember:
    def test_mult_fixture(self, capsys):
        code, out = run(
            [
                "mult",
                "--p", "2", "--q", "2",
                "--triple", "1,0;0,-1|1,0;0,-1|2,1;-1,-2",
            ],
            capsys,
        )
        assert code == 0 and out.strip() == "4"

    def test_member_true_false_exit_codes(self, capsys):
        base = ["member", "--p", "1", "--q", "1"]
        code, out = run(base + ["--triple", "1;-1|1;-1|3;-3"], capsys)
        assert code == 0 and out.strip() == "True"
        code, out = run(base + ["--triple", "1;-1|1;-1|3;-2"], capsys)
        assert code == 1 and out.strip() == "False"

    def test_separate_weight_flags(self, capsys):
        code, out = run(
            [
                "member",
                "--p", "1", "--q", "1",
                "--lam", "1;-1", "--mu", "1;-1", "--nu", "2;-2",
            ],
            capsys,
        )
        assert code == 0

    def test_member_with_huge_entries(self, capsys):
        big = str(10**20)
        code, out = run(
            [
                "member",
                "--p", "2", "--q", "1",
                "--lam", f"{big},0;0", "--mu", "0,0;0", "--nu", f"{big},0;0",
            ],
            capsys,
        )
        assert code == 0 and out.strip() == "True"

    def test_shape_mismatch_is_usage_error(self, capsys):
        code, _ = run(
            ["member", "--p", "2", "--q", "1", "--triple", "1;-1|1;-1|2;-2"],
            capsys,
        )
        assert code == 2


class TestPipelineFiles:
    def test_enumerate_hull_member_slice_recession(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        cone = tmp_path / "cone.json"
        code, out = run(
            ["enumerate", "--p", "1", "--q", "1", "--bound", "2",
             "--out", str(pts)],
            capsys,
        )
        assert code == 0 and "triples" in out
        code, out = run(
            ["hull", "--in", str(pts), "--out", str(cone)], capsys
        )
        assert code == 0 and "facets" in out

        code, _ = run(
            ["cone-member", "--p", "1", "--q", "1", "--in", str(cone),
             "--triple", "1;0|1;0|2;0"],
            capsys,
        )
        assert code == 0
        code, _ = run(
            ["cone-member", "--p", "1", "--q", "1", "--in", str(cone),
             "--triple", "1;0|1;0|0;2"],
            capsys,
        )
        assert code == 1

        code, out = run(
            ["slice", "--p", "1", "--q", "1", "--in", str(cone),
             "--lam", "2;0", "--mu", "2;0"],
            capsys,
        )
        assert code == 0 and "ineq" in out
        code, out = run(
            ["recession", "--p", "1", "--q", "1", "--in", str(cone),
             "--lam", "2;0", "--mu", "2;0"],
            capsys,
        )
        assert code == 0 and out.strip() == "ray 1,-1"

    def test_zero_cone_file(self, tmp_path, capsys):
        cone = tmp_path / "zero.json"
        cone.write_text('{"version": 1, "ambient_dim": 6, "rays": []}')
        member = ["cone-member", "--p", "1", "--q", "1", "--in", str(cone), "--triple"]
        code, out = run(member + ["0;0|0;0|0;0"], capsys)
        assert code == 0 and out.strip() == "True"
        code, out = run(member + ["1;0|1;0|2;0"], capsys)
        assert code == 1 and out.strip() == "False"
        code, out = run(
            ["slice", "--p", "1", "--q", "1", "--in", str(cone), "--lam", "0;0", "--mu", "0;0"],
            capsys,
        )
        assert code == 0

    @pytest.mark.parametrize("block", [None, 1000])
    def test_points_file_is_the_per_row_format(self, tmp_path, capsys, monkeypatch, block):
        # U(2,1) at box 2: entries reach both -2 and 2, and 16,701 rows
        # span several blocks of 1000, the last one partial.
        if block:
            monkeypatch.setattr(cli, "_WRITE_ROWS", block)
        pts = tmp_path / "pts.txt"
        assert run(["enumerate", "--p", "2", "--q", "1", "--bound", "2", "--out", str(pts)], capsys) == (
            0,
            "16701 triples\n",
        )
        mat = semigroup.enumerate_semigroup_points(Shape(2, 1), 2)
        assert (mat.min(), mat.max()) == (-2, 2)
        want = "holocone-points 1 p=2 q=1 bound=2\n" + "".join(
            ",".join(str(int(v)) for v in row) + "\n" for row in mat
        )
        assert pts.read_bytes() == want.encode()

    def test_hull_deterministic(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        run(["enumerate", "--p", "1", "--q", "1", "--bound", "1",
             "--out", str(pts)], capsys)
        c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
        run(["hull", "--in", str(pts), "--out", str(c1)], capsys)
        run(["hull", "--in", str(pts), "--out", str(c2)], capsys)
        assert c1.read_bytes() == c2.read_bytes()


POINTS_HEADER = "holocone-points 1 p=1 q=1 bound=1\n"
BAD_POINTS = {
    "header-only": "holocone-points\n",
    "field-without-=": "holocone-points 1 p2 q=1 bound=1\n1,0,0,0,1,-1\n",
    "entry-x": POINTS_HEADER + "x\n",
    "short-row": POINTS_HEADER + "1,0,1\n",
    "no-points": POINTS_HEADER,
    "entry-1.5": POINTS_HEADER + "1,0,0,0,1.5,-1\n",
    "ragged-after-good-row": POINTS_HEADER + "1,0,0,0,1,-1\n1,0,0,0,1\n",
    "comment-line": POINTS_HEADER + "# a comment\n1,0,0,0,1,-1\n",
    "empty-field": POINTS_HEADER + "1,,0,0,1,-1\n",
    "entry-beyond-int64": POINTS_HEADER + f"{2**63},0,0,0,{2**63},0\n",
    # np.loadtxt would crash the interpreter on this character
    "non-ASCII": POINTS_HEADER + "\U000eec27\n",
    "missing-file": None,
    # enumerate --out writes p, q and bound, each once, and nothing else
    "repeated-p": POINTS_HEADER.replace("\n", " p=1\n") + "1,0,0,0,1,-1\n",
    "unknown-field": POINTS_HEADER.replace("\n", " junk=3\n") + "1,0,0,0,1,-1\n",
    "missing-bound": POINTS_HEADER.replace(" bound=1", "") + "1,0,0,0,1,-1\n",
    "bound-x": POINTS_HEADER.replace("bound=1", "bound=x") + "1,0,0,0,1,-1\n",
    # a box bound is in 0..MAX_BOUND in a header as in enumerate --bound
    "negative-bound": POINTS_HEADER.replace("bound=1", "bound=-1") + "1,0,0,0,1,-1\n",
    "bound-128": POINTS_HEADER.replace("bound=1", "bound=128") + "1,0,0,0,1,-1\n",
}
CONE_COMMANDS = {
    "cone-member": ["--triple", "1;0|1;0|2;0"],
    "slice": ["--lam", "2;0", "--mu", "2;0"],
    "recession": ["--lam", "2;0", "--mu", "2;0"],
}
BAD_CONES = {
    "version-2": '{"version": 2, "ambient_dim": 6}',
    # true == 1 and 1.0 == 1, but a version is an int
    "version-true": '{"version": true, "ambient_dim": 6, "inequalities": [["0", "0", "0", "0", "1", "0"]]}',
    "version-float": '{"version": 1.0, "ambient_dim": 6, "inequalities": [["0", "0", "0", "0", "1", "0"]]}',
    "no-ambient_dim": '{"version": 1}',
    "not-JSON": "nope",
    "wrong-dimension": '{"version": 1, "ambient_dim": 3, "inequalities": [["1", "0", "0"]]}',
    "short-row": '{"version": 1, "ambient_dim": 6, "inequalities": [["1"]]}',
    "top-level-list": "[]",
    "zero-denominator": '{"version": 1, "ambient_dim": 6, "inequalities": [["1/0", "0", "0", "0", "0", "0"]]}',
    "no-representation": '{"version": 1, "ambient_dim": 6}',
    # 6.0 == 6, but a dimension is an int
    "float-ambient_dim-rays": '{"version": 1, "ambient_dim": 6.0, "rays": [["1", "0", "1", "0", "2", "0"]]}',
    "float-ambient_dim-inequalities":
        '{"version": 1, "ambient_dim": 6.0, "inequalities": [["0", "0", "0", "0", "1", "0"]]}',
    # entries are number strings, rows are lists
    "number-entries": '{"version": 1, "ambient_dim": 6, "inequalities": [[0, 0, 0, 0, 1, 0]]}',
    "row-not-a-list": '{"version": 1, "ambient_dim": 6, "inequalities": [7]}',
}
BOUND_COMMANDS = {
    "enumerate": ["enumerate", "--p", "1", "--q", "1", "--out", "OUT"],
    "verify22": ["verify22"],
}
RESSAYRE_VERIFY = ["ressayre", "verify", "--p", "2", "--q", "2"]
# The text forms of a malformed Weyl element `ressayre verify` can be given
# ("wp;wq" or a bare "wp", 1-based images) on U(2,2).
MALFORMED_WEYL_OPTIONS = {
    "repeated-index": "11;12",
    "p-block-of-length-3": "123;12",
    "p-block-of-length-1": "1;12",
    "not-a-permutation-of-1..2": "23;12",
    "non-integral-entries": "12;0.5,2",
    "0-based": "01;12",
    "bool-entry": "True,1;12",
    "three-blocks": "12;12;12",
    "fraction-entry": "1/2,2;12",
    "repeated-index-in-q-block": "12;22",
}
ZEROS_10_1 = ",".join(["0"] * 10) + ";0"  # the zero weight of U(10,1)
# Weights of U(2,2) with an empty entry, and a request per command that
# reads a weight, its slot W; IN is a valid cone file over U(2,2) triples.
EMPTY_ENTRY_WEIGHTS = {"empty-entry": "1,,0;0,-1", "trailing-comma": "1,0,;0,-1"}
U22_CONE = json.dumps({"version": 1, "ambient_dim": 12, "inequalities": [["0"] * 12]})
EMPTY_ENTRY_REQUESTS = {
    "mult": (None, ["mult", "--p", "2", "--q", "2", "--triple", "W|1,0;0,-1|2,1;-1,-2"]),
    "member": (None, ["member", "--p", "2", "--q", "2", "--lam", "W", "--mu", "1,0;0,-1",
                      "--nu", "2,1;-1,-2"]),
    "cone-member": (U22_CONE, ["cone-member", "--p", "2", "--q", "2", "--in", "IN",
                               "--triple", "1,0;0,-1|W|2,1;-1,-2"]),
    "slice": (U22_CONE, ["slice", "--p", "2", "--q", "2", "--in", "IN", "--lam", "W",
                         "--mu", "1,0;0,-1"]),
    "recession": (U22_CONE, ["recession", "--p", "2", "--q", "2", "--in", "IN", "--lam", "1,0;0,-1",
                             "--mu", "W", "--out", "OUT"]),
    "ressayre-verify": (None, [*RESSAYRE_VERIFY, "--gamma", "W", "--w1", "12", "--w2", "12"]),
}


@pytest.mark.parametrize(
    "file_text, argv",
    [
        *(
            pytest.param(text, ["hull", "--in", "IN", "--out", "OUT"], id=f"hull-{why}")
            for why, text in BAD_POINTS.items()
        ),
        *(
            pytest.param(text, [cmd, "--p", "1", "--q", "1", "--in", "IN", *args],
                         id=f"{cmd}-{why}")
            for cmd, args in CONE_COMMANDS.items()
            for why, text in BAD_CONES.items()
        ),
        *(
            pytest.param(None, [*args, "--bound", bound], id=f"{cmd}-bound{bound}")
            for cmd, args in BOUND_COMMANDS.items()
            for bound in ("-1", "200")
        ),
        *(
            pytest.param(text, [a.replace("W", weight) for a in argv], id=f"{cmd}-{why}")
            for cmd, (text, argv) in EMPTY_ENTRY_REQUESTS.items()
            for why, weight in EMPTY_ENTRY_WEIGHTS.items()
        ),
        pytest.param(None, [*RESSAYRE_VERIFY, "--gamma", "1,0;0,0", "--w1", "2x;12", "--w2", "12"],
                     id="ressayre-w1-2x"),
        pytest.param(None, [*RESSAYRE_VERIFY, "--gamma", "1,x;0,0", "--w1", "12", "--w2", "12"],
                     id="ressayre-gamma-x"),
        pytest.param(None, [*RESSAYRE_VERIFY, "--gamma", "1/0,0;0,0", "--w1", "12", "--w2", "12"],
                     id="ressayre-gamma-zero-denominator"),
        pytest.param(None, ["mult", "--p", "1", "--q", "1", "--lam", "1/0;0", "--mu", "0;0", "--nu", "0;0"],
                     id="mult-zero-denominator"),
        pytest.param(None, ["mult", "--p", "2", "--q", "2", "--triple", "1e1,0;0,0|1,0;0,0|2,0;0,0"],
                     id="mult-exponent"),
        pytest.param(None, ["mult", "--p", "1", "--q", "1", "--lam", "1_0;0", "--mu", "0;0", "--nu", "0;0"],
                     id="mult-underscore"),
        pytest.param(None, ["lr", "--n", "2", "--lam", "1_0,0", "--mu", "0,0", "--nu", "1_0,0"],
                     id="lr-underscore"),
        pytest.param(None, ["lr", "--n", "2", "--lam", "\u0661,0", "--mu", "0,0", "--nu", "\u0661,0"],
                     id="lr-non-ascii-digit"),
        # the integer options read parse_int's grammar, as the weights do
        pytest.param(None, ["mult", "--p", "\u0662", "--q", "1", "--triple", "1,0;0|0,0;0|1,0;0"],
                     id="mult-p-non-ascii-digit"),
        pytest.param(None, ["mult", "--p", "1_0", "--q", "1", "--triple", "|".join([ZEROS_10_1] * 3)],
                     id="mult-p-underscore"),
        pytest.param(None, ["lr", "--n", "\u0662", "--lam", "1,0", "--mu", "0,0", "--nu", "1,0"],
                     id="lr-n-non-ascii-digit"),
        pytest.param(None, ["verify22", "--bound", "\u0661"], id="verify22-bound-non-ascii-digit"),
        pytest.param(POINTS_HEADER.replace("p=1", "p=\u0661") + "1,0,0,0,1,-1\n",
                     ["hull", "--in", "IN", "--out", "OUT"], id="hull-header-non-ascii-digit"),
        # argparse hands "--opt=--" on as an empty list
        pytest.param(None, [*RESSAYRE_VERIFY, "--gamma=1,0;0,0", "--w1=--", "--w2=12"],
                     id="ressayre-w1-dashes"),
        pytest.param(None, ["mult", "--p", "1", "--q", "1", "--triple=--"], id="mult-triple-dashes"),
        pytest.param(None, ["lr", "--n", "2", "--lam=--", "--mu=1,0", "--nu=1,1"], id="lr-lam-dashes"),
        pytest.param(None, ["enumerate", "--p", "2", "--q", "2", "--bound", "1", "--out=--"],
                     id="enumerate-out-dashes"),
        pytest.param(None, ["hull", "--in=--", "--out=OUT"], id="hull-in-dashes"),
        pytest.param(None, ["mult", "--p=--", "--q", "1", "--triple", "1;0|0;0|1;0"], id="mult-p-dashes"),
    ],
)
def test_malformed_input_is_usage_error(tmp_path, capsys, file_text, argv):
    infile = tmp_path / "in.txt"
    if file_text is not None:
        infile.write_text(file_text, encoding="utf-8")
    argv = [{"IN": str(infile), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# A valid request per command; the property test replaces one option's
# text.  CONE is the box-2 cone of U(1,1), OUT a path in a fresh directory.
FUZZ_REQUESTS = {
    "lr": (["lr", "--n", "2"], {"--lam": "1,0", "--mu": "1,0", "--nu": "1,1"}),
    "mult": (["mult", "--p", "1", "--q", "1"], {"--triple": "1;0|0;0|1;0"}),
    "ressayre": (["ressayre", "verify", "--p", "2", "--q", "2"],
                 {"--gamma": "1,0;0,0", "--w1": "21;12", "--w2": "12"}),
    "member": (["member", "--p", "1", "--q", "1"], {"--lam": "1;0", "--mu": "0;0", "--nu": "1;0"}),
    "cone-member": (["cone-member", "--p", "1", "--q", "1", "--in", "CONE"], {"--triple": "1;0|1;0|2;0"}),
    "slice": (["slice", "--p", "1", "--q", "1", "--in", "CONE"], {"--lam": "2;0", "--mu": "1;-1"}),
    "recession": (["recession", "--p", "1", "--q", "1", "--in", "CONE"], {"--lam": "2;0", "--mu": "1;-1"}),
    "ressayre-search": (["ressayre", "search", "--in", "CONE", "--out", "OUT"], {"--p": "1", "--q": "1"}),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    cone = polyhedral.cone_from_points(semigroup.enumerate_semigroup_points(Shape(1, 1), 2))
    polyhedral.save_cone(cone, d / "cone.json")
    return {"CONE": str(d / "cone.json"), "OUT": str(d / "out.txt")}


@pytest.mark.parametrize(
    "head",
    [
        ["mult", "--p", "1", "--q", "1"],
        ["member", "--p", "1", "--q", "1"],
        ["cone-member", "--p", "1", "--q", "1", "--in", "CONE"],
    ],
    ids=lambda head: head[0],
)
def test_triple_and_separate_weights_exit_2(fuzz_files, head):
    """--triple with any of --lam/--mu/--nu is refused, not one of them
    silently preferred."""
    argv = [fuzz_files.get(a, a) for a in head] + ["--triple", "1;0|1;0|2;0"]
    assert assert_contract(argv) == 0
    assert assert_contract(argv + ["--lam", "9;9"]) == 2
    assert assert_contract(argv + ["--lam", "1;0", "--mu", "1;0", "--nu", "2;0"]) == 2


@pytest.mark.parametrize(
    "command, option",
    [(c, o) for c, (_, opts) in FUZZ_REQUESTS.items() for o in opts],
    ids=lambda v: v.lstrip("-"),
)
@settings(max_examples=60, deadline=None)
@given(text=st.text(max_size=8))
@example(text="--")
def test_any_option_text_exits_0_1_or_2(fuzz_files, command, option, text):
    """Arbitrary short text in one option never escapes `cli.main`: the
    answer is 0 or 1, or 2 with one "error: " line, as the contract says."""
    head, opts = FUZZ_REQUESTS[command]
    head = [fuzz_files.get(a, a) for a in head]
    assert_contract(head + [f"{o}={text if o == option else v}" for o, v in opts.items()])


# The integer options of the commands that may run long: a request with
# a small valid value for each, and the values each option accepts.
LONG_RUN_REQUESTS = {
    "enumerate": (["enumerate", "--out", "OUT"], {"--p": "2", "--q": "1", "--bound": "0"}),
    "verify22": (["verify22"], {"--bound": "0"}),
}
IN_RANGE = {
    ("enumerate", "--p"): lambda v: v >= 1,  # p >= q = 1
    ("enumerate", "--q"): lambda v: 1 <= v <= 2,  # p = 2 >= q >= 1
    ("enumerate", "--bound"): lambda v: 0 <= v <= semigroup.MAX_BOUND,
    ("verify22", "--bound"): lambda v: 0 <= v <= semigroup.MAX_BOUND,
}
# Short text, often made of the pieces of a number.
NUMBER_TEXT = st.one_of(st.text(max_size=8), st.text(alphabet="0123456789-+/. ", max_size=6))


@pytest.mark.parametrize("command, option", list(IN_RANGE), ids=lambda v: v.lstrip("-"))
@settings(max_examples=80, deadline=None)
@given(text=NUMBER_TEXT)
@example(text="-1")
@example(text="128")
@example(text="3/2")
@example(text="\u0661")
def test_any_long_run_option_text_exits_2(fuzz_files, command, option, text):
    """Text that is not an integer in the option's range exits 2 with one
    "error: " line before any work starts.  Valid integers are skipped:
    a large p or box is a long run, not a defect."""
    try:
        valid = IN_RANGE[command, option](weights.parse_int(text))
    except ValueError:
        valid = False
    assume(not valid)
    head, opts = LONG_RUN_REQUESTS[command]
    head = [fuzz_files.get(a, a) for a in head]
    assert assert_contract(head + [f"{o}={text if o == option else v}" for o, v in opts.items()]) == 2


def fuzz_request(command, *extra):
    """The valid request of FUZZ_REQUESTS for command, then `extra`."""
    head, opts = FUZZ_REQUESTS[command]
    return head + [f"{o}={v}" for o, v in opts.items()] + list(extra)


# A valid request per command with a path option, and the path options
# the property test replaces; POINTS is a points file of U(1,1).
PATH_REQUESTS = {
    "enumerate": (["enumerate", "--p", "2", "--q", "1", "--bound", "0", "--out", "OUT"], ["--out"]),
    "hull": (["hull", "--in", "POINTS", "--out", "OUT"], ["--in", "--out"]),
    "cone-member": (fuzz_request("cone-member"), ["--in"]),
    "slice": (fuzz_request("slice"), ["--in"]),
    "recession": (fuzz_request("recession", "--out", "OUT"), ["--in", "--out"]),
    "ressayre-search": (fuzz_request("ressayre-search"), ["--in", "--out"]),
}


@pytest.fixture(scope="module")
def path_fuzz(fuzz_files, tmp_path_factory):
    """fuzz_files with POINTS, and an empty directory to run in."""
    points = tmp_path_factory.mktemp("points") / "points.txt"
    points.write_text(POINTS_HEADER + "1,0,0,0,1,-1\n", encoding="utf-8")
    return {**fuzz_files, "POINTS": str(points)}, tmp_path_factory.mktemp("cwd")


@pytest.mark.parametrize(
    "command, option",
    [(c, o) for c, (_, paths) in PATH_REQUESTS.items() for o in paths],
    ids=lambda v: v.lstrip("-"),
)
@settings(max_examples=40, deadline=None)
@given(text=st.text(st.characters(blacklist_characters="/\\"), max_size=8))
@example(text="\0")
@example(text="a\nb")
@example(text="")
@example(text=".")
@example(text="--")
def test_any_path_text_exits_0_1_or_2(path_fuzz, command, option, text):
    """Arbitrary short text in one path option never escapes `cli.main`.
    With no separator in it, the text names an entry of the working
    directory, a fresh temporary one, so every write stays inside it."""
    files, cwd = path_fuzz
    argv = [files.get(a, a) for a in PATH_REQUESTS[command][0]]
    at = argv.index(option)
    argv[at : at + 2] = [f"{option}={text}"]
    old = os.getcwd()
    os.chdir(cwd)
    try:
        assert_contract(argv)
    finally:
        os.chdir(old)


def assert_contract(argv) -> int:
    """cli.main(argv) returns 0, 1 or 2 and raises nothing; on 2 it prints
    exactly one line, "error: ...", to stderr.  Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


# Short text that is often made of the pieces of a points row.
ROW_TEXT = st.one_of(st.text(max_size=30), st.text(alphabet="0123456789-,/. \n", max_size=30))


@settings(max_examples=60, deadline=None)
@given(body=ROW_TEXT)
@example(body="1,0,0,0,1,-1\n" + f"{2**63 - 1},0,0,0,0,{-(2**63)}\n")
@example(body="\U000eec27")
def test_any_points_file_exits_0_1_or_2(tmp_path_factory, body):
    d = tmp_path_factory.mktemp("points")
    (d / "in.txt").write_text(POINTS_HEADER + body, encoding="utf-8")
    assert_contract(["hull", "--in", str(d / "in.txt"), "--out", str(d / "out.json")])


@pytest.mark.parametrize("text", BAD_POINTS.values(), ids=BAD_POINTS)
def test_bad_points_file_is_one_error_line(tmp_path, capsys, text):
    infile = tmp_path / "in.txt"
    if text is not None:
        infile.write_text(text, encoding="utf-8")
    assert cli.main(["hull", "--in", str(infile), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unreadable points file"), lines


# Header fields of both file formats: the valid ones of U(1,1), a repeat
# with another value, an unknown key, bare tokens and malformed values.
HEADER_FIELDS = st.lists(
    st.sampled_from(["p=1", "q=1", "bound=1", "p=2", "junk=3", "p", "=", "q=x", "bound=1/2"]),
    max_size=5,
)


@settings(max_examples=100, deadline=None)
@given(fields=HEADER_FIELDS)
@example(fields=["p=1", "q=1", "bound=1", "p=1"])
@example(fields=["q=1", "bound=1", "p=1"])
@example(fields=["q=1", "p=1"])
def test_any_header_gives_its_shape_or_is_refused(tmp_path_factory, fields):
    # Each reader loads exactly the headers made of its own fields, each
    # once; the body fits U(1,1) only, so a shape read wrong is refused too.
    d = tmp_path_factory.mktemp("headers")
    points, certs = d / "points.txt", d / "certs.txt"
    points.write_text(f"holocone-points 1 {' '.join(fields)}\n1,0,0,0,1,-1\n")
    certs.write_text(f"holocone-certificates 1 {' '.join(fields)}\nfacet 1,0,0,0,1,-1 UNCERTIFIED\n")
    for path, load, own in ((points, cli.load_points, ["bound=1", "p=1", "q=1"]),
                            (certs, ressayre.load_certificates, ["p=1", "q=1"])):
        try:
            loaded = load(path)
        except ValueError:
            loaded = None
        assert (loaded is not None) == (sorted(fields) == own), (path.name, fields)


# A small JSON value: a scalar, or a list of lists of scalars, which is
# what a row-valued key holds.
JSON_SCALAR = st.one_of(
    st.integers(-3, 6), st.floats(), st.text(max_size=3), st.none(), st.booleans(),
    st.sampled_from(["0", "1", "-1", "2", "1/2"]),
)
JSON_VALUE = st.one_of(
    JSON_SCALAR,
    st.lists(st.lists(JSON_SCALAR, max_size=7), max_size=3),
    st.lists(st.lists(st.sampled_from(["0", "1", "-1", "2"]), min_size=6, max_size=6), max_size=4),
)
CONE_ARGV = {
    **{cmd: [cmd, "--p", "1", "--q", "1", *args] for cmd, args in CONE_COMMANDS.items()},
    "ressayre-search": ["ressayre", "search", "--p", "1", "--q", "1", "--out", "OUT"],
}


@pytest.mark.parametrize("command", CONE_ARGV)
@settings(max_examples=40, deadline=None)
@given(
    cone=st.fixed_dictionaries({
        "version": st.one_of(st.just(1), JSON_VALUE),
        "ambient_dim": st.one_of(st.just(6), JSON_VALUE),
        **{key: JSON_VALUE for key in ("rays", "inequalities", "equalities", "lineality")},
    })
)
@example(cone=json.loads(BAD_CONES["float-ambient_dim-rays"]))
@example(cone=json.loads(BAD_CONES["float-ambient_dim-inequalities"]))
def test_any_cone_file_exits_0_1_or_2(tmp_path_factory, command, cone):
    d = tmp_path_factory.mktemp("cone")
    (d / "cone.json").write_text(json.dumps(cone), encoding="utf-8")
    files = {"OUT": str(d / "out.txt")}
    assert_contract([files.get(a, a) for a in CONE_ARGV[command]] + ["--in", str(d / "cone.json")])


@pytest.mark.parametrize("body", ["", "\n\n"], ids=["no-body", "blank-body"])
def test_empty_points_file_raises_no_warning(tmp_path, capsys, body):
    infile = tmp_path / "in.txt"
    infile.write_text(POINTS_HEADER + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["hull", "--in", str(infile), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: unreadable points file")


def test_points_are_narrowed_to_int8_when_they_fit(tmp_path):
    infile = tmp_path / "in.txt"
    infile.write_text(POINTS_HEADER + "1,0,0,0,1,-1\n\n-128,0,127,0,-1,1\n")
    pts, shape = cli.load_points(infile)
    assert shape == Shape(1, 1) and pts.dtype == np.int8
    assert pts.tolist() == [[1, 0, 0, 0, 1, -1], [-128, 0, 127, 0, -1, 1]]
    infile.write_text(POINTS_HEADER + f"1,0,0,0,1,-1\n{-(2**63)},0,128,0,0,{2**63 - 1}\n")
    pts, _ = cli.load_points(infile)
    assert pts.dtype == np.int64
    assert pts.tolist() == [[1, 0, 0, 0, 1, -1], [-(2**63), 0, 128, 0, 0, 2**63 - 1]]


def test_points_are_read_in_blocks(tmp_path, capsys, monkeypatch):
    # Blocks of two lines: int8 blocks, a blank block and then a block
    # holding 200 join exactly; a short row in a later block is refused.
    monkeypatch.setattr(cli, "_WRITE_ROWS", 2)
    rows = [[1, 0, 0, 0, 1, -1], [-1, 0, 0, 0, 0, 1], [2, 0, 0, 0, 1, -1], [200, 0, 0, 0, -3, 3], [1, 1, 0, 0, 0, 0]]
    lines = [",".join(map(str, r)) + "\n" for r in rows]
    infile = tmp_path / "in.txt"
    infile.write_text(POINTS_HEADER + "".join(lines[:2]) + "\n\n" + "".join(lines[2:]))
    pts, _ = cli.load_points(infile)
    assert pts.dtype == np.int64 and pts.tolist() == rows
    infile.write_text(POINTS_HEADER + "".join(lines[:3]) + "1,0,0,0,1\n")
    assert cli.main(["hull", "--in", str(infile), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: unreadable points file")


def test_recession_of_empty_slice_is_usage_error(tmp_path, capsys):
    cone = tmp_path / "ref.json"
    polyhedral.save_cone(reference22.reference_cone(), cone)
    argv = ["recession", "--p", "2", "--q", "2", "--in", str(cone), "--mu", "1,0;0,0"]
    assert cli.main(argv + ["--lam", "0,1;0,0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cli.main(argv + ["--lam", "1,0;0,-1"]) == 0
    assert capsys.readouterr().out == "ray 1,0,0,-1\nray 1,1,-1,-1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--p", "1", "--q", "1", "--bound", "1", "--out", "OUT"],
        ["hull", "--in", "PTS", "--out", "OUT"],
        ["recession", "--p", "2", "--q", "2", "--in", "CONE",
         "--lam", "1,0;0,-1", "--mu", "1,0;0,0", "--out", "OUT"],
        ["ressayre", "search", "--p", "2", "--q", "2", "--in", "CONE", "--out", "OUT"],
    ],
    ids=["enumerate", "hull", "recession", "ressayre-search"],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    pts, cone = tmp_path / "pts.txt", tmp_path / "ref.json"
    cli.save_points(semigroup.enumerate_semigroup_points(Shape(1, 1), 1), Shape(1, 1), 1, pts)
    polyhedral.save_cone(reference22.reference_cone(), cone)
    # an out path under a missing parent, and one that is a directory
    (tmp_path / "dir").mkdir()
    for out in (tmp_path / "missing" / "out", tmp_path / "dir"):
        files = {"PTS": str(pts), "CONE": str(cone), "OUT": str(out)}
        assert cli.main([files.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and str(out) in err
    assert not any((tmp_path / "dir").iterdir())


class TestRessayreCommands:
    def test_verify_certified_candidate(self, capsys):
        code, out = run(
            ["ressayre", "verify", "--p", "1", "--q", "1",
             "--gamma=-1;0", "--w1", "1", "--w2", "1"],
            capsys,
        )
        assert code == 0
        assert "certified" in out and "schubert_k: 1" in out

    def test_verify_rejected_candidate(self, capsys):
        code, out = run(
            ["ressayre", "verify", "--p", "2", "--q", "2",
             "--gamma", "1,0;0,0", "--w1", "21", "--w2", "12"],
            capsys,
        )
        assert code == 1 and "not certified" in out

    def test_search_rank_one(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        cone = tmp_path / "cone.json"
        certs = tmp_path / "certs.txt"
        run(["enumerate", "--p", "1", "--q", "1", "--bound", "2",
             "--out", str(pts)], capsys)
        run(["hull", "--in", str(pts), "--out", str(cone)], capsys)
        code, out = run(
            ["ressayre", "search", "--p", "1", "--q", "1",
             "--in", str(cone), "--out", str(certs)],
            capsys,
        )
        assert code == 0
        assert "CERTIFIED" in certs.read_text()

    def test_weyl_flag_formats(self, capsys):
        for w in ("21;12", "2,1;1,2"):
            code, _ = run(
                ["ressayre", "verify", "--p", "2", "--q", "2",
                 "--gamma", "1,0;0,0", "--w1", w, "--w2", w],
                capsys,
            )
            assert code in (0, 1)  # parsed; outcome is the math's business

    def test_bad_perm_is_usage_error(self, capsys):
        code, _ = run(
            ["ressayre", "verify", "--p", "2", "--q", "2",
             "--gamma", "1,0;0,0", "--w1", "33", "--w2", "12"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("slot", ["--w1", "--w2"])
    @pytest.mark.parametrize("text", MALFORMED_WEYL_OPTIONS.values(), ids=MALFORMED_WEYL_OPTIONS)
    def test_malformed_weyl_option_is_usage_error(self, capsys, text, slot):
        ws = {"--w1": "12", "--w2": "12", slot: text}
        argv = [*RESSAYRE_VERIFY, "--gamma", "1,0;0,0", *(x for kv in ws.items() for x in kv)]
        code = cli.main(argv)
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines


class TestCache:
    """LR coefficients are no longer persisted: a cache directory left by an
    earlier version, even one holding an edited file, is never read or
    written, so it changes no answer."""

    LR = ["lr", "--n", "3", "--lam", "2,1,0", "--mu", "2,1,0", "--nu", "3,2,1"]

    def _edited_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOLOCONE_CACHE_DIR", str(tmp_path))
        cache_file = tmp_path / "lr-cache.txt"
        cache_file.write_text("holocone-lr-cache 2 0\n1,0,0|1,0,0|2,0,0 5\n2,1,0|2,1,0|3,2,1 5\n")
        return cache_file

    def test_edited_cache_is_ignored(self, tmp_path, capsys, monkeypatch):
        self._edited_cache(tmp_path, monkeypatch)
        lr.clear_caches()
        code = cli.main(self.LR)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, "2\n", "")

    def test_mult_and_member_answer_alike_with_a_cache(self, tmp_path, capsys, monkeypatch):
        queries = [
            ["mult", "--p", "3", "--q", "3",
             "--triple", "2,1,0;0,-1,-1|2,1,0;0,-1,-1|4,3,1;-1,-2,-3"],
            ["mult", "--p", "2", "--q", "2", "--triple", "1,0;0,-1|1,0;0,-1|2,1;-1,-2"],
            ["member", "--p", "2", "--q", "2", "--triple", "1,0;0,-1|1,0;0,-1|3,1;-1,-2"],
            ["member", "--p", "1", "--q", "1", "--triple", "1;-1|1;-1|3;-3"],
        ]
        monkeypatch.delenv("HOLOCONE_CACHE_DIR", raising=False)
        lr.clear_caches()
        without = [run(argv, capsys) for argv in queries]
        self._edited_cache(tmp_path, monkeypatch)
        lr.clear_caches()
        with_cache = [run(argv, capsys) for argv in queries]
        assert with_cache == without
        assert [out for _, out in without] == ["18\n", "4\n", "False\n", "True\n"]

    def test_mult_leaves_an_edited_cache_alone(self, tmp_path, capsys, monkeypatch):
        cache_file = self._edited_cache(tmp_path, monkeypatch)
        before = cache_file.read_bytes()
        pts = tmp_path / "pts.txt"
        for argv in (
            self.LR,
            ["mult", "--p", "2", "--q", "2", "--triple", "1,0;0,-1|1,0;0,-1|2,1;-1,-2"],
            ["enumerate", "--p", "1", "--q", "1", "--bound", "1", "--out", str(pts)],
        ):
            lr.clear_caches()
            assert run(argv, capsys)[0] == 0
        assert cache_file.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == sorted([cache_file, pts])

    def test_absent_cache_dir_is_fine(self, capsys, monkeypatch):
        monkeypatch.delenv("HOLOCONE_CACHE_DIR", raising=False)
        code, _ = run(
            ["lr", "--n", "2", "--lam", "1,0", "--mu", "0,0", "--nu", "1,0"],
            capsys,
        )
        assert code == 0


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "holocone.cli", "lr", "--n", "2",
             "--lam", "1,0", "--mu", "1,0", "--nu", "2,0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "1"

    def test_jobs_flag_is_gone(self):
        # --jobs was parsed but never read; it no longer promises parallelism.
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["lr", "--n", "2", "--lam", "1,0", "--mu", "1,0", "--nu", "2,0",
                 "--jobs", "2"]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            # once took --p/--q and silently verified U(2,2)
            pytest.param(["verify22", "--p", "3", "--q", "1", "--bound", "1"], id="verify22-p-q"),
            pytest.param(
                ["lr", "--n", "2", "--lam", "1,0", "--mu", "1,0", "--nu", "2,0", "--bound", "200"],
                id="lr-bound",
            ),
            pytest.param(["hull", "--p", "2", "--in", "OUT", "--out", "OUT"], id="hull-p"),
            pytest.param(["mult", "--p", "1", "--q", "1", "--triple", "0;0|0;0|0;0", "--out", "OUT"],
                         id="mult-out"),
            pytest.param(["slice", "--p", "1", "--q", "1", "--in", "OUT", "--lam", "0;0", "--mu", "0;0",
                          "--nu", "0;0"], id="slice-nu"),
            pytest.param(["enumerate", "--p", "1", "--q", "1", "--out", "OUT", "--gamma", "1;0"],
                         id="enumerate-gamma"),
            # a hidden flag that nothing used; the library's corrupt= hook stays
            pytest.param(["verify22", "--bound", "1", "--inject-fault"], id="verify22-inject-fault"),
            # each mode of ressayre reads its own options only
            pytest.param([*RESSAYRE_VERIFY, "--gamma", "1,0;0,0", "--w1", "12", "--w2", "12",
                          "--out", "OUT"], id="ressayre-verify-out"),
            pytest.param(["ressayre", "search", "--p", "2", "--q", "2", "--in", "OUT", "--out", "OUT",
                          "--gamma", "nonsense"], id="ressayre-search-gamma"),
        ],
    )
    def test_option_a_subcommand_does_not_read_exits_2(self, argv, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([str(tmp_path / "out") if a == "OUT" else a for a in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "holocone.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
