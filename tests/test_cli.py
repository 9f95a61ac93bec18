"""Command-line interface: behavior, exit codes, files, determinism."""

import os
import subprocess
import sys

import pytest

from holocone import cli, lr


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

    def test_hull_deterministic(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        run(["enumerate", "--p", "1", "--q", "1", "--bound", "1",
             "--out", str(pts)], capsys)
        c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
        run(["hull", "--in", str(pts), "--out", str(c1)], capsys)
        run(["hull", "--in", str(pts), "--out", str(c2)], capsys)
        assert c1.read_bytes() == c2.read_bytes()


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
