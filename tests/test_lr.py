"""Littlewood-Richardson engine against an independent Schur oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from holocone import lr


def partitions_up_to(total_max, rows):
    out = [()]
    for total in range(1, total_max + 1):
        out.extend(lr.partitions(total, rows))
    return [tuple(p) + (0,) * (rows - len(p)) for p in out]


class TestExamples:
    def test_basic_values(self):
        assert lr.lr_coefficient((1, 0), (1, 0), (1, 1)) == 1
        assert lr.lr_coefficient((2, 1, 0), (0, 0, 0), (2, 1, 0)) == 1
        assert lr.lr_coefficient((2, 1, 0), (2, 1, 0), (3, 2, 1)) == 2
        assert lr.lr_coefficient((1, 0), (1, 0), (3, 0)) == 0

    def test_tensor_expand_examples(self):
        assert lr.tensor_expand((1, 0), (1, 0)) == {(2, 0): 1, (1, 1): 1}
        assert lr.tensor_expand((2, 1), (0, 0)) == {(2, 1): 1}
        assert lr.tensor_expand((1, 1), (1, 0)) == {(2, 1): 1}

    def test_triple_multiplicity_examples(self):
        assert lr.triple_multiplicity(
            (1, 0), (1, 0), (1, 0), (2, 1)
        ) == 2
        assert lr.triple_multiplicity(
            (2, 1), (1, 0), (0, 0), (3, 1)
        ) == lr.lr_coefficient((2, 1), (1, 0), (3, 1))
        assert lr.triple_multiplicity((1, 0), (1, 0), (1, 0), (2, 0)) == 0

    def test_weyl_dim_examples(self):
        assert lr.weyl_dim((0, 0, 0)) == 1
        assert lr.weyl_dim((1, 0)) == 2
        assert lr.weyl_dim((1, 1, 0)) == 3

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            lr.lr_coefficient((1, 0), (1, 0, 0), (2, 0))

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            lr.lr_coefficient((0, 1), (1, 0), (1, 1))


class TestOracleEquivalence:
    def test_exhaustive_small(self):
        # Exhaustive agreement with Schur-polynomial products for n <= 3.
        for n in (2, 3):
            shapes = partitions_up_to(6, n)
            for lam in shapes:
                for mu in shapes:
                    got = lr.tensor_expand(lam, mu)
                    want = oracle.strip_dominant(
                        oracle.poly_mul(
                            oracle.gl_character(lam),
                            oracle.gl_character(mu),
                        ),
                        (n,),
                    )
                    assert got == want, (lam, mu)

    def test_negative_parts_match_oracle(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.choice([2, 3])
            lam = tuple(
                sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
            )
            mu = tuple(
                sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
            )
            got = lr.tensor_expand(lam, mu)
            want = oracle.strip_dominant(
                oracle.poly_mul(
                    oracle.gl_character(lam), oracle.gl_character(mu)
                ),
                (n,),
            )
            assert got == want


class TestProperties:
    @given(
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, a, b, data):
        n = 3
        lam = tuple(
            sorted(
                data.draw(
                    st.lists(
                        st.integers(0, 4), min_size=n, max_size=n
                    )
                ),
                reverse=True,
            )
        )
        mu = tuple(
            sorted(
                data.draw(
                    st.lists(
                        st.integers(0, 4), min_size=n, max_size=n
                    )
                ),
                reverse=True,
            )
        )
        for nu, c in lr.tensor_expand(lam, mu).items():
            assert (
                lr.lr_coefficient(
                    lr.shift(lam, a),
                    lr.shift(mu, b),
                    lr.shift(nu, a + b),
                )
                == c
            )

    def test_symmetry(self):
        rng = random.Random(8)
        for _ in range(100):
            n = 3
            lam = tuple(
                sorted((rng.randint(-2, 4) for _ in range(n)), reverse=True)
            )
            mu = tuple(
                sorted((rng.randint(-2, 4) for _ in range(n)), reverse=True)
            )
            assert lr.tensor_expand(lam, mu) == lr.tensor_expand(mu, lam)

    def test_duality(self):
        # c^nu_{lam,mu} = c^{nu*}_{lam*,mu*} with * = negate-and-reverse.
        def star(w):
            return tuple(-v for v in reversed(w))

        rng = random.Random(9)
        for _ in range(100):
            lam = tuple(
                sorted((rng.randint(-2, 3) for _ in range(3)), reverse=True)
            )
            mu = tuple(
                sorted((rng.randint(-2, 3) for _ in range(3)), reverse=True)
            )
            for nu, c in lr.tensor_expand(lam, mu).items():
                assert (
                    lr.lr_coefficient(star(lam), star(mu), star(nu)) == c
                )

    def test_dimension_bookkeeping(self):
        for n in (2, 3):
            for lam in partitions_up_to(6, n):
                for mu in partitions_up_to(4, n):
                    total = sum(
                        c * lr.weyl_dim(nu)
                        for nu, c in lr.tensor_expand(lam, mu).items()
                    )
                    assert total == lr.weyl_dim(lam) * lr.weyl_dim(mu)

    def test_weyl_dim_matches_tableau_count(self):
        for n in (2, 3):
            for lam in partitions_up_to(5, n):
                count = sum(
                    c for _, c in oracle.schur_poly(lam, n)
                )
                assert lr.weyl_dim(lam) == count

    def test_weyl_dim_shift_invariant(self):
        assert lr.weyl_dim((3, 1, 0)) == lr.weyl_dim((5, 3, 2))


class TestCanonicalCacheKey:
    def test_shifted_weights_add_no_cache_entry(self):
        lr.clear_caches()
        lam, mu, nu = (2, 1, 0), (2, 1, 0), (3, 2, 1)
        assert lr.lr_coefficient(lam, mu, nu) == 2
        entries = dict(lr._lr_cache)
        for a, b in [(1, 0), (0, -2), (-3, 5), (4, 4)]:
            got = lr.lr_coefficient(
                lr.shift(lam, a), lr.shift(mu, b), lr.shift(nu, a + b)
            )
            assert got == 2
            # nu shifted alone has the wrong size: the answer is 0
            assert lr.lr_coefficient(lam, mu, lr.shift(nu, a - b + 1)) == 0
        assert lr._lr_cache == entries

    def test_shifted_tensor_expand_adds_no_cache_entry(self):
        lr.clear_caches()
        lam, mu, delta, nu = (2, 1, 0), (1, 0, 0), (1, 0, 0), (3, 2, 0)
        base = lr.tensor_expand(lam, mu)
        triple = lr.triple_multiplicity(lam, mu, delta, nu)
        assert triple == 2
        lr_entries, expand_entries = dict(lr._lr_cache), dict(lr._expand_cache)
        for a, b in [(1, 0), (0, -2), (-3, 5)]:
            got = lr.tensor_expand(lr.shift(lam, a), lr.shift(mu, b))
            assert got == {lr.shift(k, a + b): c for k, c in base.items()}
            assert lr.triple_multiplicity(
                lr.shift(lam, a), lr.shift(mu, b), delta, lr.shift(nu, a + b)
            ) == triple
        assert lr._lr_cache == lr_entries
        assert lr._expand_cache == expand_entries


class TestCachePersistence:
    def test_round_trip(self, tmp_path):
        lr.clear_caches()
        lr.lr_coefficient((2, 1, 0), (2, 1, 0), (3, 2, 1))
        path = tmp_path / "cache.txt"
        lr.save_cache(path)
        lr.clear_caches()
        loaded = lr.load_cache(path)
        assert loaded >= 1
        assert lr.lr_coefficient((2, 1, 0), (2, 1, 0), (3, 2, 1)) == 2

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something-else 1\n")
        with pytest.raises(ValueError):
            lr.load_cache(path)

    def _saved_lines(self, tmp_path):
        lr.clear_caches()
        lr.tensor_expand((2, 1, 0), (2, 1, 0))
        path = tmp_path / "cache.txt"
        lr.save_cache(path)
        lr.clear_caches()
        header, *lines = path.read_text().splitlines(keepends=True)
        return path, header, lines

    def _rewrite(self, path, lines):
        """Write `lines` under a current header with a matching checksum."""
        path.write_text(
            f"holocone-lr-cache {lr.CACHE_FORMAT_VERSION} {lr._checksum(lines)}\n"
            + "".join(lines)
        )

    def test_rejects_version_one_file(self, tmp_path):
        # Version 1 keyed entries by a different shift; nothing may load.
        lr.clear_caches()
        path = tmp_path / "v1.txt"
        path.write_text("holocone-lr-cache 1\n2,1,0|2,1,0|3,2,1 2\n")
        with pytest.raises(ValueError):
            lr.load_cache(path)
        assert lr._lr_cache == {}

    def test_rejects_edited_multiplicity(self, tmp_path):
        path, header, lines = self._saved_lines(tmp_path)
        assert len(lines) <= lr.CACHE_SAMPLE
        i = next(k for k, line in enumerate(lines) if line.endswith(" 2\n"))
        lines[i] = lines[i][: -len("2\n")] + "3\n"
        path.write_text(header + "".join(lines))
        with pytest.raises(ValueError, match="checksum"):
            lr.load_cache(path)
        # A consistent checksum does not help: the sample is recomputed.
        self._rewrite(path, lines)
        with pytest.raises(ValueError, match="recomputation"):
            lr.load_cache(path)
        assert lr._lr_cache == {}

    def test_rejects_non_canonical_key(self, tmp_path):
        path, _, lines = self._saved_lines(tmp_path)
        for bad in ("3,2,1|2,1,0|5,3,1 1\n", "2,1|2,1,0|3,2,1 2\n",
                    "2,1,0|2,1,0|3,2,-1 0\n", "1,2,0|1,0,0|2,2,0 0\n"):
            self._rewrite(path, lines + [bad])
            with pytest.raises(ValueError, match="canonical"):
                lr.load_cache(path)
        assert lr._lr_cache == {}

    def test_sample_spans_large_files(self, tmp_path):
        lr.clear_caches()
        for lam in partitions_up_to(6, 3):
            for mu in partitions_up_to(3, 3):
                lr.tensor_expand(lam, mu)
        entries = sorted(lr._lr_cache.items())
        assert len(entries) > 2 * lr.CACHE_SAMPLE
        path = tmp_path / "cache.txt"
        lr.save_cache(path)
        lr.clear_caches()
        assert lr.load_cache(path) == len(entries)
        assert sorted(lr._lr_cache.items()) == entries
        # an edit to the last entry is inside the evenly spaced sample
        _, *lines = path.read_text().splitlines(keepends=True)
        key, val = lines[-1].rsplit(" ", 1)
        lines[-1] = f"{key} {int(val) + 1}\n"
        lr.clear_caches()
        self._rewrite(path, lines)
        with pytest.raises(ValueError):
            lr.load_cache(path)
