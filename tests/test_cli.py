"""Command-line interface: behavior, exit codes, files, determinism."""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from holocone import cli, lr, polyhedral, reference22, semigroup
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
    "missing-file": None,
}
CONE_COMMANDS = {
    "cone-member": ["--triple", "1;0|1;0|2;0"],
    "slice": ["--lam", "2;0", "--mu", "2;0"],
    "recession": ["--lam", "2;0", "--mu", "2;0"],
}
BAD_CONES = {
    "version-2": '{"version": 2, "ambient_dim": 6}',
    "no-ambient_dim": '{"version": 1}',
    "not-JSON": "nope",
    "wrong-dimension": '{"version": 1, "ambient_dim": 3, "inequalities": [["1", "0", "0"]]}',
    "short-row": '{"version": 1, "ambient_dim": 6, "inequalities": [["1"]]}',
    "top-level-list": "[]",
    "zero-denominator": '{"version": 1, "ambient_dim": 6, "inequalities": [["1/0", "0", "0", "0", "0", "0"]]}',
    "no-representation": '{"version": 1, "ambient_dim": 6}',
}
BOUND_COMMANDS = {
    "enumerate": ["enumerate", "--p", "1", "--q", "1", "--out", "OUT"],
    "verify22": ["verify22"],
}
RESSAYRE_VERIFY = ["ressayre", "verify", "--p", "2", "--q", "2"]


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
    ],
)
def test_malformed_input_is_usage_error(tmp_path, capsys, file_text, argv):
    infile = tmp_path / "in.txt"
    if file_text is not None:
        infile.write_text(file_text)
    argv = [{"IN": str(infile), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    out = tmp_path / "missing" / "out"
    files = {"PTS": str(pts), "CONE": str(cone), "OUT": str(out)}
    assert cli.main([files.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(out) in err


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
