"""Command-line interface: behavior, exit codes, files, determinism."""

import subprocess
import sys

import pytest

from holocone import cli, lr, polyhedral, reference22


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
    ],
)
def test_malformed_input_is_usage_error(tmp_path, capsys, file_text, argv):
    infile = tmp_path / "in.txt"
    if file_text is not None:
        infile.write_text(file_text)
    argv = [{"IN": str(infile), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_recession_of_empty_slice_is_usage_error(tmp_path, capsys):
    cone = tmp_path / "ref.json"
    polyhedral.save_cone(reference22.reference_cone(), cone)
    argv = ["recession", "--p", "2", "--q", "2", "--in", str(cone), "--mu", "1,0;0,0"]
    assert cli.main(argv + ["--lam", "0,1;0,0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cli.main(argv + ["--lam", "1,0;0,-1"]) == 0
    assert capsys.readouterr().out == "ray 1,0,0,-1\nray 1,1,-1,-1\n"


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
    def test_cache_env_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HOLOCONE_CACHE_DIR", str(tmp_path))
        lr.clear_caches()
        code, out1 = run(
            ["lr", "--n", "3", "--lam", "2,1,0", "--mu", "2,1,0",
             "--nu", "3,2,1"],
            capsys,
        )
        assert code == 0
        cache_file = tmp_path / "lr-cache.txt"
        assert cache_file.exists()
        lr.clear_caches()
        code, out2 = run(
            ["lr", "--n", "3", "--lam", "2,1,0", "--mu", "2,1,0",
             "--nu", "3,2,1"],
            capsys,
        )
        assert out1 == out2  # cache is advisory: same result either way

    def test_edited_cache_is_ignored(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HOLOCONE_CACHE_DIR", str(tmp_path))
        argv = ["lr", "--n", "3", "--lam", "2,1,0", "--mu", "2,1,0", "--nu", "3,2,1"]
        lr.clear_caches()
        assert run(argv, capsys) == (0, "2\n")
        cache_file = tmp_path / "lr-cache.txt"
        header, *lines = cache_file.read_text().splitlines(keepends=True)
        lines = [line.replace(" 2\n", " 5\n") for line in lines]
        checksum = lr._checksum(lines)
        cache_file.write_text(
            f"holocone-lr-cache {lr.CACHE_FORMAT_VERSION} {checksum}\n" + "".join(lines)
        )
        lr.clear_caches()
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (0, "2\n")
        assert "ignoring unreadable cache" in captured.err

    def test_mult_and_member_answer_alike_with_a_cache(self, tmp_path, capsys, monkeypatch):
        # mult and member read no LR cache entry: their answers do not
        # depend on the cache, and the file they leave still loads.
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
        monkeypatch.setenv("HOLOCONE_CACHE_DIR", str(tmp_path))
        lr.clear_caches()
        assert run(["lr", "--n", "3", "--lam", "2,1,0", "--mu", "2,1,0", "--nu", "3,2,1"], capsys) == (0, "2\n")
        lr.clear_caches()
        with_cache = [run(argv, capsys) for argv in queries]
        assert with_cache == without
        assert [out for _, out in without] == ["18\n", "4\n", "False\n", "True\n"]
        lr.clear_caches()
        assert lr.load_cache(tmp_path / "lr-cache.txt") >= 1

    def test_mult_leaves_an_edited_cache_alone(self, tmp_path, capsys, monkeypatch):
        # Only lr, enumerate and verify22 read LR entries; mult neither
        # loads nor rewrites the persisted cache, even a rejected one.
        monkeypatch.setenv("HOLOCONE_CACHE_DIR", str(tmp_path))
        lr.clear_caches()
        assert run(["lr", "--n", "3", "--lam", "2,1,0", "--mu", "2,1,0", "--nu", "3,2,1"], capsys) == (0, "2\n")
        cache_file = tmp_path / "lr-cache.txt"
        cache_file.write_text(cache_file.read_text().replace(" 2\n", " 5\n"))
        before = cache_file.read_bytes()
        lr.clear_caches()
        code = cli.main(["mult", "--p", "2", "--q", "2", "--triple", "1,0;0,-1|1,0;0,-1|2,1;-1,-2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (0, "4\n")
        assert "ignoring unreadable cache" not in captured.err
        assert cache_file.read_bytes() == before

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

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "holocone.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
