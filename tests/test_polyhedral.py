"""Exact cone geometry: double description, hulls, slices, recession."""

import hashlib
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from holocone import lr, polyhedral as ph, reference22, semigroup
from holocone.weights import Shape


class TestPrimitives:
    def test_primitive_int_fast_path(self):
        assert ph.primitive((2, 4, -6)) == (1, 2, -3)
        assert ph.primitive((0, 0)) == (0, 0)

    def test_primitive_fractions(self):
        assert ph.primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)

    @given(st.one_of(
        st.lists(st.integers(-10**20, 10**20), max_size=6),
        st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60)), max_size=6),
    ))
    @example([])
    @example([0, 0, 0])
    @example([Fraction(0), 0])
    @settings(max_examples=300, deadline=None)
    def test_primitive_matches_oracle(self, v):
        assert ph.primitive(v) == oracle.primitive(v)

    def test_primitive_signed(self):
        assert ph.primitive_signed((-2, 4)) == (1, -2)
        assert ph.primitive_signed((0, -3)) == (0, 1)

    def test_rank(self):
        assert ph.rank([(1, 0), (0, 1), (1, 1)]) == 2
        assert ph.rank([(1, 1), (2, 2)]) == 1


class TestDoubleDescription:
    def test_orthant(self):
        rays, lin = ph.rays_from_halfspaces([(1, 0), (0, 1)])
        assert rays == ((0, 1), (1, 0)) and lin == ()

    def test_halfplane_has_lineality(self):
        rays, lin = ph.rays_from_halfspaces([(0, 1)], dim=2)
        assert lin == ((1, 0),)
        assert rays == ((0, 1),)

    def test_with_equality(self):
        rays, lin = ph.rays_from_halfspaces(
            [(1, 0, 0), (0, 1, 0)], [(1, 1, 1)]
        )
        # x3 = -x1-x2 on the orthant in (x1, x2)
        assert lin == ()
        assert set(rays) == {(1, 0, -1), (0, 1, -1)}

    def test_rows_of_the_wrong_length_raise(self):
        # each of these was cut to the first row's length, or to dim, and
        # gave an answer
        with pytest.raises(ValueError):
            ph.rays_from_halfspaces([(1, 0, 0)], (), 2)
        with pytest.raises(ValueError):
            ph.rays_from_halfspaces([(1, 0)], [(1, 1, 1)], 2)
        with pytest.raises(ValueError):
            ph.rays_from_halfspaces([(1, 0), (0, 1, 0)])

    def test_every_ray_satisfies_inputs(self):
        rng = random.Random(20)
        for _ in range(50):
            dim = rng.randint(2, 5)
            ineqs = [
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 6))
            ]
            ineqs = [a for a in ineqs if any(a)]
            if not ineqs:
                continue
            rays, lin = ph.rays_from_halfspaces(ineqs, dim=dim)
            for r in rays:
                assert all(ph.dot(a, r) >= 0 for a in ineqs)
            for l in lin:
                assert all(ph.dot(a, l) == 0 for a in ineqs)


class TestFacetsOfPoints:
    def test_orthant_from_unit_rays(self):
        ineqs, eqs = ph.facets_of_points([(1, 0), (0, 1)], 2)
        assert set(ineqs) == {(1, 0), (0, 1)} and eqs == ()

    def test_lineality_direction(self):
        ineqs, eqs = ph.facets_of_points([(1, 0), (-1, 0), (0, 1)], 2)
        assert ineqs == ((0, 1),) and eqs == ()

    def test_lower_dimensional_cone(self):
        ineqs, eqs = ph.facets_of_points([(1, 1)], 2)
        assert eqs == ((1, -1),)
        for p in [(1, 1), (2, 2)]:
            assert all(ph.dot(a, p) >= 0 for a in ineqs)

    def test_origin_only(self):
        ineqs, eqs = ph.facets_of_points([(0, 0, 0)], 3)
        assert ineqs == ()
        assert len(eqs) == 3

    def test_round_trip_random_cones(self):
        # V -> H -> V reproduces the same cone (double inclusion).
        rng = random.Random(21)
        for _ in range(50):
            dim = rng.randint(2, 6)
            pts = [
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 8))
            ]
            pts = [p for p in pts if any(p)]
            if not pts:
                continue
            a = ph.cone_from_points(pts)
            b = ph.RationalCone(dim, rays=tuple(sorted(
                ph.primitive(p) for p in pts)), lineality=())
            assert ph.same_cone(a, b)

    def test_seeded_equals_unseeded(self):
        rng = random.Random(22)
        pts = [
            tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(60)
        ]
        pts = [p for p in pts if any(p)]
        plain = ph.facets_of_points(pts, 4)
        seeded = ph.facets_of_points(pts, 4, seed=pts[:3])
        assert plain == seeded
        assert ph.facets_of_points(pts, 4, seed=np.array(pts[:3], dtype=np.int8)) == plain
        # an empty or all-zero seed starts from the whole space
        assert ph.facets_of_points(pts, 4, seed=[]) == plain
        assert ph.facets_of_points(pts, 4, seed=[(0, 0, 0, 0)]) == plain
        quadrant = (((0, 1), (1, 0)), ())
        assert ph.facets_of_points([(1, 0), (0, 1)], 2, seed=[]) == quadrant
        assert ph.facets_of_points([(1, 0), (0, 1)], 2, seed=[(0, 0)]) == quadrant

    def test_u32_box1_hull_frozen(self):
        pts = semigroup.enumerate_semigroup_points(Shape(3, 2), 1)
        ineqs, eqs = ph.facets_of_points(pts, 15, seed=ph.additive_prune(pts))
        assert (len(ineqs), len(eqs)) == (47, 1)
        arr = pts.astype(np.int64)
        assert (arr @ np.array(ineqs).T >= 0).all()
        assert (arr @ np.array(eqs).T == 0).all()

    def test_unit_box_seed_is_a_strict_subset(self):
        # U(3,1) at box 2: the unseeded hull equals the one seeded as the
        # cone31 benchmark seeds it, from the pruned box-1 semigroup.
        shape = Shape(3, 1)
        pts = semigroup.enumerate_semigroup_points(shape, 2)
        seed = ph.additive_prune(semigroup.enumerate_semigroup_points(shape, 1))
        ineqs, eqs = ph.facets_of_points(pts, 12)
        assert (ineqs, eqs) == ph.facets_of_points(pts, 12, seed=seed)
        assert (len(ineqs), len(eqs)) == (23, 1)
        arr = pts.astype(np.int64)
        assert (arr @ np.array(ineqs).T >= 0).all()
        assert (arr @ np.array(eqs).T == 0).all()
        # no row in the unit box: the rounds start from the whole space
        assert ph.facets_of_points([(2, 0), (0, 3)], 2) == (((0, 1), (1, 0)), ())

    def test_unit_box_seed_rows(self):
        # -128 is outside the unit box, though abs() wraps it to -128 in int8.
        pts = np.array([[-128, 0], [1, -1], [0, 1], [2, 1], [1, 1]], dtype=np.int8)
        with mock.patch.object(ph, "additive_prune", wraps=ph.additive_prune) as prune:
            ineqs, eqs = ph.facets_of_points(pts, 2)
        (box,), _ = prune.call_args
        assert box.tolist() == [[1, -1], [0, 1], [1, 1]]
        assert (ineqs, eqs) == ((), ())  # (-128, 0) and (1, 0) span a line

    @pytest.mark.parametrize(
        "call",
        [lambda pts: ph.facets_of_points(pts, 2), ph.additive_prune, ph.cone_from_points],
        ids=["facets_of_points", "additive_prune", "cone_from_points"],
    )
    @pytest.mark.parametrize(
        "points",
        [
            [(0.5, 0.5)],  # floats were truncated, here to the origin
            np.array([[0.5, 1.0], [1.0, 0.0]]),
            [(Fraction(1, 2), 0.5)],
            [(1, "0")],
            [(1, 0, 7), (0, 1)],  # ragged
        ],
        ids=["floats", "float-array", "fraction-and-float", "string", "ragged"],
    )
    def test_malformed_rows_raise(self, call, points):
        with pytest.raises(ValueError):
            call(points)

    def test_rows_of_the_wrong_length_raise(self):
        # rows of 3 entries were cut to 2: this gave the quadrant
        with pytest.raises(ValueError):
            ph.facets_of_points([(1, 0, 7), (0, 1, 0)], 2)
        with pytest.raises(ValueError):
            ph.facets_of_points([(1, 0), (0, 1)], 2, seed=[(1, 0, 0)])


class TestWorstViolators:
    # 861 points of the half plane x + y >= 0 (z = 0), enough to take the
    # numpy path, and one point whose dot product with the half plane's
    # normal (1, 1, 0) is -2**63 - 1, which wraps around in int64.
    SMALL = [(i, j, 0) for i in range(-20, 21) for j in range(-20, 21) if i + j >= 0]
    BIG = (-(2**62), -(2**62) - 1, 0)

    def test_int64_overflow_falls_back_to_exact_arithmetic(self):
        pts = self.SMALL + [self.BIG]
        assert len(pts) > 512
        assert ph._worst_violators(pts, [(1, 1, 0)], []) == [self.BIG]
        assert ph._worst_violators(pts, [(1, 1, 0)], [(0, 0, 1)]) == [self.BIG]
        assert ph._worst_violators(self.SMALL, [(1, 1, 0)], [(0, 0, 1)]) == []

    def test_rational_points_are_not_truncated(self):
        # int64 conversion would turn (-1/2, 1/3, 0) into the origin.
        off = (Fraction(-1, 2), Fraction(1, 3), 0)
        assert ph._worst_violators(self.SMALL + [off], [(1, 1, 0)], []) == [off]

    def test_hull_includes_an_overflowing_point(self):
        seed = [(1, -1, 0), (-1, 1, 0), (1, 0, 0)]
        ineqs, eqs = ph.facets_of_points(self.SMALL, 3, seed=seed)
        assert ineqs == ((1, 1, 0),) and eqs == ((0, 0, 1),)
        # the extra point lies beyond the half plane: the hull is z = 0
        ineqs, eqs = ph.facets_of_points(self.SMALL + [self.BIG], 3, seed=seed)
        assert ineqs == () and eqs == ((0, 0, 1),)


class TestWorstViolatorBlocks:
    """The blocked numpy scan picks, per constraint, the first row of
    largest violation, as one product over the whole matrix would."""

    @staticmethod
    def first_worst(pts, constraints):
        out = set()
        for c, is_eq in constraints:
            bad = [abs(ph.dot(c, x)) if is_eq else -ph.dot(c, x) for x in pts]
            if max(bad) > 0:
                row = pts[bad.index(max(bad))]
                out.add(tuple(row.tolist() if isinstance(row, np.ndarray) else row))
        return sorted(out)

    def check(self, pts, normals, lins):
        want = self.first_worst(pts, [(l, True) for l in lins] + [(n, False) for n in normals])
        assert ph._worst_violators(pts, normals, lins) == want
        return want

    def test_blocks_keep_the_first_worst_row(self):
        rng = np.random.default_rng(4)
        pts = rng.integers(-3, 4, size=(2000, 5)).astype(np.int8)
        normals = [tuple(int(v) for v in rng.integers(-2, 3, size=5)) for _ in range(6)]
        lins = [(1, -1, 0, 0, 0)]
        want = self.first_worst(pts, [(l, True) for l in lins] + [(n, False) for n in normals])
        assert ph._worst_violators(pts, normals, lins) == want
        for rows in (1, 7, 1999):
            with mock.patch.object(ph, "_SCAN_ROWS", rows):
                assert ph._worst_violators(pts, normals, lins) == want
                assert ph._worst_violators(pts.tolist(), normals, lins) == want

    def test_every_input_takes_the_first_worst_row(self):
        # Ties went to the lex-smallest row below 513 rows and to the
        # first row above; now every input gets the first row.
        assert self.check([(0, -1), (-1, 0)], [(1, 1)], []) == [(0, -1)]
        assert self.check([(0, -1), (-1, 0)] * 300, [(1, 1)], []) == [(0, -1)]
        assert self.check([(-1, 0), (0, -1)], [(1, 1)], []) == [(-1, 0)]
        rng = random.Random(5)
        small = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(40)]
        normals, lins = [(1, 0, 1, 0), (0, 1, -1, 1), (1, 1, 1, 1)], [(1, -1, 0, 0)]
        assert self.check(small, normals, lins)
        # Fraction rows and ints beyond int64 are scanned exactly, with ties
        thirds = [tuple(Fraction(x, 3) for x in row) for row in small]
        assert self.check(thirds, normals, lins)
        big = [(2**64, -(2**64), 0, 0), (-(2**64), 2**64, 0, 0)] + small
        assert self.check(big, normals, lins)
        halves = [(Fraction(-1, 2), 0), (Fraction(-1, 3), 0)]
        with mock.patch.object(ph, "_SCAN_ROWS", 1):
            assert self.check(thirds, normals, lins)
            assert self.check(big, normals, lins)
            # a depth of 1/2 carried across blocks must not become 0
            assert self.check(halves, [(1, 0)], []) == [halves[0]]

    def test_products_beyond_int32(self):
        # max |x| * ||(1, 1, 0)||_1 is exactly 2**31: the violation 2**31 of
        # the last point must not wrap to a negative number.
        far = (-(2**30), -(2**30), 0)
        pts = TestWorstViolators.SMALL + [far]
        assert ph._worst_violators(pts, [(1, 1, 0)], []) == [far]
        assert ph._worst_violators(np.array(pts, dtype=np.int32), [(1, 1, 0)], []) == [far]


class TestWorstViolatorOracle:
    """The float32, float64 and exact product scans against the earlier
    per-constraint scan."""

    KINDS = ("int8", "int16", "int32", "int64", "tuples", "fractions")
    # Entries reaching each dtype's range: int64 rows and wide constraints
    # push max ||c||_1 * max |x| past 2**53 onto the exact path.
    LIMIT = {"int8": 2**7 - 1, "int16": 2**15 - 1, "int32": 2**31 - 1, "int64": 2**62}
    # Entries and coefficients around the float32 bound 2**24, so that
    # max ||c||_1 * max |x| falls on either side of it.
    NEAR_2_24 = [-(2**23), 2**23, -(2**24 - 1), 2**24 - 1, -(2**24), 2**24]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, data):
        kind = data.draw(st.sampled_from(self.KINDS), label="kind")
        dim = data.draw(st.integers(1, 4), label="dim")
        limit = self.LIMIT.get(kind, 3)
        near = [x for x in self.NEAR_2_24 if limit >= 2**24 or kind == "tuples"]
        entry = st.one_of(st.integers(-3, 3), st.sampled_from([-limit, limit - 1, limit, *near]))
        rows = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=30))
        coef = st.one_of(
            st.integers(-3, 3), st.sampled_from([-(2**40), 2**40, *self.NEAR_2_24])
        )
        vec = st.lists(coef, min_size=dim, max_size=dim).filter(any)
        normals = data.draw(st.lists(vec, max_size=4).map(lambda vs: list(map(tuple, vs))))
        lins = data.draw(st.lists(vec, max_size=2).map(lambda vs: list(map(tuple, vs))))
        if data.draw(st.booleans(), label="no violators"):
            # nonnegative rows with a zero last column satisfy nonnegative
            # normals and the equality on the last coordinate
            rows = [[abs(x) for x in r[:-1]] + [0] for r in rows]
            normals = [tuple(map(abs, n)) for n in normals]
            lins = [(0,) * (dim - 1) + (1,)]
        if kind == "fractions":
            rows = [[Fraction(x, data.draw(st.integers(1, 4))) for x in r] for r in rows]
        if kind.startswith("int"):
            pts = np.array(rows, dtype=getattr(np, kind)).reshape(-1, dim)
        else:
            pts = [tuple(r) for r in rows]
        want = oracle.oracle_worst_violators(pts, normals, lins)
        for scan_rows in (1, 7, ph._SCAN_ROWS):
            with mock.patch.object(ph, "_SCAN_ROWS", scan_rows):
                assert ph._worst_violators(pts, normals, lins) == want


    @pytest.mark.parametrize(
        "scale, dtype", [(2**20, np.float32), (2**40, np.float64), (2**60, object)], ids=str
    )
    def test_each_tier_matches_oracle(self, scale, dtype):
        # Rows and constraints drawn so that max ||c||_1 * max |x| lands in
        # one tier, with repeated rows for ties.
        rng = np.random.default_rng(scale.bit_length())
        pts = rng.integers(-3, 4, size=(400, 4)) * (scale // 16)
        pts = np.concatenate([pts, pts[::3]])
        normals = [tuple(int(v) for v in rng.integers(-2, 3, size=4)) for _ in range(5)]
        normals = [n for n in normals if any(n)]
        lins = [(1, -1, 0, 0)]
        assert ph._scan_dtype(pts, [*lins, *normals]) is dtype
        want = oracle.oracle_worst_violators(pts, normals, lins)
        assert want
        for scan_rows in (1, 7, ph._SCAN_ROWS):
            with mock.patch.object(ph, "_SCAN_ROWS", scan_rows):
                assert ph._worst_violators(pts, normals, lins) == want


class TestScanGuard:
    """float32 is taken exactly while max ||c||_1 * max |x| < 2**24, and
    float64 while it is below 2**53."""

    def test_exact_dtype_thresholds(self):
        assert ph._exact_dtype(0) is np.float32
        assert ph._exact_dtype(2**24 - 1) is np.float32
        assert ph._exact_dtype(2**24) is np.float64
        assert ph._exact_dtype(2**53 - 1) is np.float64
        assert ph._exact_dtype(2**53) is object

    def test_float32_at_the_boundary(self):
        def dtype(rows, constraints):
            return ph._scan_dtype(np.array(rows, dtype=np.int64), constraints)

        assert dtype([(2**24 - 1,)], [(1,)]) is np.float32
        assert dtype([(-(2**24) + 1, 0)], [(1, 0)]) is np.float32
        assert dtype([(2**24,)], [(1,)]) is np.float64
        assert dtype([(-(2**24),)], [(1,)]) is np.float64
        # ||(1, -1)||_1 = 2, not 0: 2**23 * 2 reaches the bound
        assert dtype([(2**23 - 1, 0)], [(1, -1)]) is np.float32
        assert dtype([(2**23, 0)], [(1, -1)]) is np.float64
        assert dtype([(1, 0)], [(2**23, -(2**23))]) is np.float64
        # int8 rows of the semigroups: the bound is read off the data
        small = np.array([(-2, 1, 0)], dtype=np.int8)
        assert ph._scan_dtype(small, [(2**22 - 1, 2**22, 0)]) is np.float32
        assert ph._scan_dtype(small, [(2**22, 2**22, 0)]) is np.float64

    def test_exact_worst_row_beyond_float32(self):
        # -(2**24 + 1) rounds to -2**24 in float32, tying the two rows; the
        # float64 scan must pick the second, one deeper.
        pts = np.array([(-(2**24), 0), (-(2**24) - 1, 0)], dtype=np.int64)
        assert np.float32(pts[1, 0]) == np.float32(pts[0, 0])
        assert ph._scan_dtype(pts, [(1, 0)]) is np.float64
        assert ph._worst_violators(pts, [(1, 0)], []) == [(-(2**24) - 1, 0)]
        # an equality violated both ways: |lin . x| is the depth
        assert ph._worst_violators(-pts, [], [(1, 0)]) == [(2**24 + 1, 0)]
        assert ph._worst_violators(pts, [], [(1, 0)]) == [(-(2**24) - 1, 0)]

    def test_float32_path_just_below_the_bound(self):
        pts = np.array([(-(2**24) + 2, 1), (-(2**24) + 1, 1), (5, 1)], dtype=np.int64)
        assert ph._scan_dtype(pts, [(1, 0)]) is np.float32
        assert ph._worst_violators(pts, [(1, 0)], []) == [(-(2**24) + 1, 1)]
        assert ph._worst_violators(pts, [], [(1, 0)]) == [(-(2**24) + 1, 1)]
        # the equality (1, 0) has depth 1 on every row: the first row is kept
        got = ph._worst_violators(pts[:, ::-1].copy(), [(0, 1)], [(1, 0)])
        assert got == [(1, -(2**24) + 1), (1, -(2**24) + 2)]

    def test_dtype_at_the_boundary(self):
        def dtype(rows, constraints):
            return ph._scan_dtype(np.array(rows, dtype=np.int64), constraints)

        assert dtype([(2**53 - 1,)], [(1,)]) is np.float64
        assert dtype([(-(2**53) + 1, 0)], [(1, 0)]) is np.float64
        assert dtype([(2**53,)], [(1,)]) is object
        assert dtype([(-(2**53),)], [(1,)]) is object
        # ||(1, -1)||_1 = 2, not 0: 2**52 * 2 reaches the bound
        assert dtype([(2**52 - 1, 0)], [(1, -1)]) is np.float64
        assert dtype([(2**52, 0)], [(1, -1)]) is object
        assert dtype([(1, 0)], [(2**52, -(2**52))]) is object
        assert ph._scan_dtype(np.array([(Fraction(1, 2),)], dtype=object), [(1,)]) is object

    def test_exact_worst_row_beyond_float64(self):
        # -(2**53 + 1) rounds to -2**53 in float64, tying the two rows; the
        # exact scan must pick the second, one deeper.
        pts = np.array([(-(2**53), 0), (-(2**53) - 1, 0)], dtype=np.int64)
        assert ph._scan_dtype(pts, [(1, 0)]) is object
        assert ph._worst_violators(pts, [(1, 0)], []) == [(-(2**53) - 1, 0)]
        # an equality violated both ways: |lin . x| is the depth
        assert ph._worst_violators(-pts, [], [(1, 0)]) == [(2**53 + 1, 0)]
        assert ph._worst_violators(pts, [], [(1, 0)]) == [(-(2**53) - 1, 0)]

    def test_float_path_just_below_the_bound(self):
        pts = np.array([(-(2**53) + 2, 1), (-(2**53) + 1, 1), (5, 1)], dtype=np.int64)
        assert ph._scan_dtype(pts, [(1, 0)]) is np.float64
        assert ph._worst_violators(pts, [(1, 0)], []) == [(-(2**53) + 1, 1)]
        assert ph._worst_violators(pts, [], [(1, 0)]) == [(-(2**53) + 1, 1)]
        # the equality (1, 0) has depth 1 on every row: the first row is kept
        got = ph._worst_violators(pts[:, ::-1].copy(), [(0, 1)], [(1, 0)])
        assert got == [(1, -(2**53) + 1), (1, -(2**53) + 2)]


class TestHullWithOracleScan:
    """The semigroup hulls come out the same, in the same number of
    rounds, when the earlier scan finds the violators: from the default
    seed (one round) and from every third pruned box-1 point (two)."""

    @pytest.mark.parametrize("shape", [Shape(2, 2), Shape(3, 1)])
    def test_box2_hull_matches_oracle_scan(self, shape):
        pts = semigroup.enumerate_semigroup_points(shape, 2)
        dim = 3 * shape.rank
        sparse = ph.additive_prune(semigroup.enumerate_semigroup_points(shape, 1))[::3]
        for seed, rounds in ((None, 1), (sparse, 2)):
            runs = []
            for scan in (ph._worst_violators, oracle.oracle_worst_violators):
                with mock.patch.object(ph, "_worst_violators", scan), mock.patch.object(
                    ph, "rays_from_halfspaces", wraps=ph.rays_from_halfspaces
                ) as dd:
                    runs.append((ph.facets_of_points(pts, dim, seed=seed), dd.call_count))
            assert runs[0] == runs[1]
            assert runs[0][1] == rounds


class TestAdditivePrune:
    def test_keeps_generators(self):
        pts = [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
        kept = ph.additive_prune(pts)
        assert (1, 0) in kept and (0, 1) in kept
        assert (2, 2) not in kept and (1, 1) not in kept

    def test_same_cone_after_pruning(self):
        rng = random.Random(23)
        for _ in range(20):
            dim = rng.randint(2, 4)
            pts = {
                tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(40)
            }
            pts = [p for p in pts if any(p)]
            if not pts:
                continue
            kept = ph.additive_prune(pts)
            a = ph.cone_from_points(pts)
            b = ph.cone_from_points(kept)
            assert ph.same_cone(a, b)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, data):
        dim = data.draw(st.integers(1, 4))
        row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        rows = data.draw(st.lists(row, max_size=40))
        if rows and data.draw(st.booleans()):
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=6))
        if data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(0, len(rows))), [0] * dim)
        want = oracle.oracle_additive_prune(rows)
        assert ph.additive_prune(rows) == want
        assert ph.additive_prune(np.array(rows, dtype=np.int8).reshape(-1, dim)) == want
        # Scaling by 1/3 keeps the order of the norms and every split x = g + h.
        thirds = [tuple(Fraction(x, 3) for x in r) for r in rows]
        assert ph.additive_prune(thirds) == [tuple(Fraction(x, 3) for x in k) for k in want]
        # Halves and thirds in one set, 2R/6 and 3R/6: only the common
        # denominator 6 clears both.
        both = [[k * x for x in r] for r in rows for k in (2, 3)]
        sixths = [tuple(Fraction(x, 6) for x in r) for r in both]
        want = [tuple(Fraction(x, 6) for x in k) for k in oracle.oracle_additive_prune(both)]
        assert ph.additive_prune(sixths) == want

    # (dtype, lo, hi): rows with entries lo and hi span hi - lo together
    # with 0.  Rows are coded in int64 while (2 span + 1)^dim < 2**63: for
    # dim 1, 2 and 3 up to spans 2**62 - 1, 1,518,500,249 and 2**20 - 1;
    # wider spans are coded in Python ints.  So the spans up to 2**16 are
    # int64-coded at every dim, 2**21 at dim 1 and 2, and the three widest
    # never; the cases keep every dtype and sign pattern.
    SPANS = [
        (np.int8, -128, 127),
        (np.int8, -127, 0),
        (np.int8, 0, 127),
        (np.int8, -64, 64),
        (np.int16, -100, 100),
        (np.int16, -(2**14), 2**14 - 1),
        (np.int16, -(2**14), 2**14),
        (np.int16, -(2**15), 2**15 - 1),
        (np.int64, -(2**20), 2**20),
        (np.int64, -(2**61), 2**61),
        (np.int64, -(2**63), 2**63 - 1),
        (np.uint64, 0, 2**64 - 1),
    ]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_key_dtype_boundaries_match_oracle(self, data):
        dtype, lo, hi = data.draw(st.sampled_from(self.SPANS))
        dim = data.draw(st.integers(1, 3))
        small = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=dim, max_size=dim), max_size=12))
        entry = st.sampled_from([lo, lo + 1, 0, 1, hi - 1, hi])
        big = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=6))
        rows = small + big + [[a + b for a, b in zip(x, y)] for x in big for y in small]
        rows = [r for r in rows if all(lo <= v <= hi for v in r)]
        rows = data.draw(st.permutations(rows))
        want = oracle.oracle_additive_prune(rows)
        assert ph.additive_prune(np.array(rows, dtype=dtype).reshape(-1, dim)) == want
        assert ph.additive_prune(rows) == want

    # dim -> the widest span whose codes fit: (2 span + 1)^dim < 2**63
    WIDEST = {1: 2**62 - 1, 2: 1_518_500_249, 3: 2**20 - 1}

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_code_width_boundary_matches_oracle(self, data):
        """Spans at the widest that codes in int64 and one past it: the
        first is pruned on int64 codes, the second on Python-int codes."""
        dim = data.draw(st.sampled_from(sorted(self.WIDEST)))
        span = self.WIDEST[dim] + data.draw(st.integers(0, 1))
        lo = -data.draw(st.sampled_from([0, 1, span // 2, span - 1, span]))
        hi = lo + span
        entry = st.sampled_from([lo, lo + 1, 0, 1, hi - 1, hi])
        big = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=6))
        small = data.draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim), max_size=8))
        rows = [[lo] + [0] * (dim - 1), [hi] + [0] * (dim - 1)] + small + big
        rows += [[a + b for a, b in zip(x, y)] for x in big for y in small]
        rows = data.draw(st.permutations([r for r in rows if all(lo <= v <= hi for v in r)]))
        want = oracle.oracle_additive_prune(rows)
        inputs = [rows]
        if hi < 2**63:
            dtype = np.int64 if lo >= -(2**63) else object
            inputs.append(np.array(rows, dtype=dtype).reshape(-1, dim))
        for points in inputs:
            with mock.patch("numpy.unique", wraps=np.unique) as unique:
                assert ph.additive_prune(points) == want
            (codes,), _ = unique.call_args
            if (2 * span + 1) ** dim < 2**63:
                assert codes.dtype == np.int64
            else:
                assert codes.dtype == object and {type(c) for c in codes} == {int}

    def test_difference_beyond_the_rows_is_not_aliased(self):
        # Span 2: the difference (-1, 2) of (-1, 1) and (0, -1) has an
        # entry beyond the rows' own range [-1, 1].  An offset radix 3
        # (digits x_j + 1) codes it as (0, -1), which would split (-1, 1)
        # as (0, -1) + (0, -1) and drop it; the balanced radix 5 codes
        # every difference apart from the other rows.
        rows = [(-1, 1), (0, -1)]
        assert ph.additive_prune(rows) == oracle.oracle_additive_prune(rows) == rows

    def test_uint64_is_not_cast_with_a_wrap(self):
        # 2**63 wraps to -2**63 in int64; (2**63, 0) splits as (1, 0) + (2**63 - 1, 0).
        pts = np.array([[1, 0], [2**63 - 1, 0], [2**63, 0], [2**63, 1]], dtype=np.uint64)
        want = [(1, 0), (2**63 - 1, 0), (2**63, 1)]
        assert oracle.oracle_additive_prune(pts) == want
        assert ph.additive_prune(pts) == ph.additive_prune(pts.tolist()) == want

    @pytest.mark.parametrize("shape, kept", [(Shape(3, 2), 189), (Shape(3, 3), 357)])
    def test_box1_kept_lists_frozen(self, shape, kept):
        pts = semigroup.enumerate_semigroup_points(shape, 1)
        got = ph.additive_prune(pts)
        assert len(got) == kept
        assert got == oracle.oracle_additive_prune(pts)

    def test_u91_unit_seed_pinned(self):
        # The seed `facets_of_points` builds for U(9,1): dim 30, radix 5,
        # and 5**30 >= 2**63, so it is pruned on Python-int codes.
        pts = semigroup.enumerate_semigroup_points(Shape(9, 1), 1)
        box = pts[((pts >= -1) & (pts <= 1)).all(axis=1)]
        kept = ph.additive_prune(box)
        assert (len(box), len(kept)) == (91_813, 3_627)
        digest = hashlib.sha256(np.array(kept, dtype=np.int8).tobytes()).hexdigest()
        assert digest[:16] == "d231fd626c7d3a81"

    def test_edge_sets_and_semigroups_match_oracle(self):
        empty = np.zeros((0, 3), dtype=np.int8)
        assert ph.additive_prune([]) == ph.additive_prune(empty) == []
        assert ph.additive_prune([(0, 0), (0, 0)]) == []
        twice = np.array([[1, -1], [1, -1], [0, 0], [2, -2]], dtype=np.int8)
        assert ph.additive_prune(twice) == [(1, -1)]
        # U(2,1) at box 2 has entries in [-2, 2]: radix 5
        for shape, box in ((Shape(2, 2), 1), (Shape(3, 1), 1), (Shape(2, 1), 2)):
            pts = semigroup.enumerate_semigroup_points(shape, box)
            assert ph.additive_prune(pts) == oracle.oracle_additive_prune(pts)


class TestConeMembership:
    def test_zero_cone(self):
        # no generators: the origin's H-representation
        cone = ph.RationalCone(3, rays=(), lineality=())
        h = cone.with_h_rep()
        assert (h.inequalities, h.equalities) == ((), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
        assert (h.inequalities, h.equalities) == ph.facets_of_points([(0, 0, 0)], 3)
        assert ph.cone_member(cone, (0, 0, 0))
        assert not ph.cone_member(cone, (1, 0, -1))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_h_rep_is_the_hull_of_the_generators(self, data):
        # with_h_rep runs the double description on the generators; the
        # point-cloud hull of the same generators gives the same tuples,
        # for rational entries and entries beyond int64 too.
        dim = data.draw(st.integers(1, 4))
        entries = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3),
                            st.sampled_from([2**70, -(2**64) - 1]))
        vectors = st.lists(st.tuples(*[entries] * dim), max_size=4)
        rays, lin = data.draw(vectors), data.draw(vectors.map(lambda v: v[:1]))
        h = ph.RationalCone(dim, rays=tuple(rays), lineality=tuple(lin)).with_h_rep()
        gens = rays + lin + [tuple(-x for x in l) for l in lin]
        assert (h.inequalities, h.equalities) == ph.facets_of_points(gens or [(0,) * dim], dim)

    def test_rays_are_members(self):
        pts = [(1, 2, 0), (0, 1, 1), (1, 0, 0)]
        cone = ph.cone_from_points(pts)
        for p in pts:
            assert ph.cone_member(cone, p)

    def test_two_two_sample_triple(self):
        from holocone import reference22

        cone = reference22.reference_cone()
        good = (1, 0, 0, -1) + (1, 0, 0, -1) + (2, 0, 0, -2)
        bad = (1, 0, 0, -1) + (1, 0, 0, -1) + (3, 0, 0, -2)
        assert cone.contains(good)
        assert not cone.contains(bad)  # sum equality fails (|C| = 1 != 0)

    def test_dim_mismatch(self):
        cone = ph.cone_from_points([(1, 0)])
        with pytest.raises(ValueError):
            cone.contains((1, 0, 0))


class TestCanonicalFacets:
    def test_representative_mod_equality_invariant(self):
        # Normals differing by a multiple of the equality cut equal facets.
        cone1 = ph.RationalCone(
            2, inequalities=((1, 0),), equalities=((1, 1),)
        )
        cone2 = ph.RationalCone(
            2, inequalities=((0, -1),), equalities=((1, 1),)
        )
        assert cone1.canonical_facets() == cone2.canonical_facets()

    def test_reduce_mod_lineality(self):
        eqs = ((1, 1, 1),)
        a = ph.reduce_mod_lineality((2, 0, 0), eqs)
        b = ph.reduce_mod_lineality((1, -1, -1), eqs)
        assert a == b


ENTRIES = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def row_lists(dim, **sizes):
    return st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim), **sizes)


@st.composite
def systems(draw, dim):
    """Rows of int and Fraction entries, maybe with a dependent and a zero row."""
    rows = draw(row_lists(dim, max_size=4))
    if rows and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(ENTRIES)
        rows.append([x - c * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * dim)
    return rows


class TestEchelonAgainstFractionOracle:
    """The integer elimination kernel gives the Fraction RREF's answers."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rank_and_null_space_basis(self, data):
        dim = data.draw(st.integers(1, 5))
        rows = data.draw(systems(dim))
        assert ph.rank(rows) == len(oracle.rref(rows)) == oracle.rank_rationals(rows)
        basis = ph.null_space_basis(rows, dim)
        assert basis == oracle.oracle_null_space_basis(rows, dim)
        assert all(ph.dot(r, v) == 0 for r in rows for v in basis)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_reduce_mod_lineality_and_canonical_facets(self, data):
        dim = data.draw(st.integers(1, 5))
        eqs = data.draw(systems(dim))
        ineqs = data.draw(row_lists(dim, min_size=1, max_size=4))
        for a in ineqs:
            assert ph.reduce_mod_lineality(a, eqs) == oracle.oracle_reduce_mod(a, eqs)
        cone = ph.RationalCone(dim, inequalities=tuple(ineqs), equalities=tuple(eqs))
        want_normals = {oracle.oracle_reduce_mod(a, eqs) for a in ineqs} - {(0,) * dim}
        assert cone.canonical_facets() == (
            tuple(oracle.primitive_signed(r) for r in oracle.rref(eqs)),
            tuple(sorted(want_normals)),
        )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rays_from_halfspaces_with_equalities(self, data):
        dim = data.draw(st.integers(1, 5))
        eqs = data.draw(systems(dim))
        ineqs = data.draw(row_lists(dim, max_size=5))
        rays, lin = ph.rays_from_halfspaces(ineqs, eqs, dim)
        with mock.patch.object(ph, "null_space_basis", oracle.oracle_null_space_basis):
            assert ph.rays_from_halfspaces(ineqs, eqs, dim) == (rays, lin)
        # The lineality space is the null space of all rows; rays are
        # feasible and extreme modulo it.
        assert len(lin) == oracle.rank_rationals(lin) == len(
            oracle.oracle_null_space_basis(ineqs + eqs, dim)
        )
        assert all(ph.dot(r, v) == 0 for r in ineqs + eqs for v in lin)
        for x in rays:
            assert all(ph.dot(e, x) == 0 for e in eqs)
            assert all(ph.dot(a, x) >= 0 for a in ineqs)
            tight = [a for a in ineqs if ph.dot(a, x) == 0]
            assert oracle.rank_rationals(tight + eqs) == dim - len(lin) - 1


def _mod_lineality(rays, lin):
    """Each ray's canonical representative modulo span(lin)."""
    return {oracle.oracle_reduce_mod(r, lin) for r in rays}


class TestDoubleDescriptionAgainstOracle:
    """The kernel finds the textbook double description's cone, and its
    work does not depend on the order or repetition of the rows."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_in_every_row_order(self, data):
        dim = data.draw(st.integers(1, 5))
        ineqs = data.draw(row_lists(dim, max_size=8))
        eqs = data.draw(systems(dim)) if data.draw(st.booleans()) else []
        want = oracle.oracle_rays_from_halfspaces(ineqs, eqs, dim)
        with mock.patch.object(ph, "_adjacent", wraps=ph._adjacent) as adj:
            got = ph.rays_from_halfspaces(ineqs, eqs, dim)
        if len(want[1]) <= 1:
            assert got == want
        else:
            assert len(got[1]) == len(want[1]) == oracle.rank_rationals(got[1] + want[1])
            assert _mod_lineality(got[0], got[1]) == _mod_lineality(want[0], want[1])
        # Repeated rows and positive multiples change nothing either.
        rows = list(ineqs)
        if ineqs:
            rows += data.draw(st.lists(st.sampled_from(ineqs), max_size=3))
            rows += [[3 * x for x in r] for r in data.draw(st.lists(st.sampled_from(ineqs), max_size=2))]
        for _ in range(3):
            perm = data.draw(st.permutations(rows))
            with mock.patch.object(ph, "_adjacent", wraps=ph._adjacent) as again:
                assert ph.rays_from_halfspaces(perm, eqs, dim) == got
            assert again.call_count == adj.call_count

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_opposite_pairs_are_equalities(self, data):
        dim = data.draw(st.integers(1, 5))
        ineqs = data.draw(row_lists(dim, max_size=6))
        pairs = data.draw(row_lists(dim, min_size=1, max_size=3))
        eqs = data.draw(systems(dim)) if data.draw(st.booleans()) else []
        # The first pair is compared with its equality; the others stay in
        # the rows, with repeats and positive multiples of any row.
        rows = ineqs + [r for a in pairs[1:] for r in (a, [-x for x in a])]
        if rows:
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))
            rows += [[2 * x for x in r] for r in data.draw(st.lists(st.sampled_from(rows), max_size=2))]
        a = pairs[0]
        with_pair = data.draw(st.permutations(rows + [a, [-x for x in a]]))
        got = ph.rays_from_halfspaces(with_pair, eqs, dim)
        want = oracle.oracle_rays_from_halfspaces(with_pair, eqs, dim)
        if len(want[1]) <= 1:
            assert got == want
        else:
            assert len(got[1]) == len(want[1]) == oracle.rank_rationals(got[1] + want[1])
            assert _mod_lineality(got[0], got[1]) == _mod_lineality(want[0], want[1])
        assert ph.rays_from_halfspaces(data.draw(st.permutations(rows)), [*eqs, a], dim) == got

    def _seed_in_every_row_order(self, shape, facets, adjacent):
        # The pruned box-1 semigroup as the inequalities of the dual cone,
        # whose one equality is the trace identity.  The seed holds six
        # opposite pairs (the cone contains the lines of the central
        # characters), which the kernel takes as equalities; the adjacency
        # tests count its work exactly.
        seed = ph.additive_prune(semigroup.enumerate_semigroup_points(shape, 1))
        want = oracle.oracle_rays_from_halfspaces(seed, (), 3 * shape.rank)
        assert (len(want[0]), len(want[1])) == (facets, 1)
        shuffled = list(seed)
        random.Random(3).shuffle(shuffled)
        for rows in (seed, seed[::-1], shuffled, seed + seed[:40]):
            with mock.patch.object(ph, "_adjacent", wraps=ph._adjacent) as adj:
                assert ph.rays_from_halfspaces(rows, (), 3 * shape.rank) == want
            assert adj.call_count == adjacent

    def test_semigroup_seed_in_every_row_order(self):
        # the 108 points of U(2,2), the verify22 seed: 19 facet normals
        self._seed_in_every_row_order(Shape(2, 2), 19, 53)

    def test_cone31_seed_in_every_row_order(self):
        # the seed the cone31 benchmark gives its U(3,1) box-2 hull
        self._seed_in_every_row_order(Shape(3, 1), 23, 41)


class TestSliceAndRecession:
    def _rank_one_cone(self):
        # Horn cone for (1,1): c1 >= a1 + b1 with total sums equal.
        return ph.RationalCone(
            6,
            inequalities=((-1, 0, -1, 0, 1, 0),),
            equalities=((1, 1, 1, 1, -1, -1),),
        )

    def test_rank_one_slice(self):
        poly = ph.slice_at(self._rank_one_cone(), (1, -1), (1, -1))
        assert poly.contains((2, -2))
        assert poly.contains((5, -5))
        assert not poly.contains((1, -1))
        assert not poly.contains((2, -1))

    def test_empty_slice_detected(self):
        cone = ph.RationalCone(
            3, inequalities=((1, 0, 1),), equalities=((0, 0, 1),)
        )
        # constraints on C: a + c >= 0 and c = 0
        assert ph.slice_at(cone, (-1,), (0,)).is_empty()
        assert not ph.slice_at(cone, (0,), (0,)).is_empty()
        assert not ph.slice_at(cone, (2,), (0,)).is_empty()

    def test_orthant_recession(self):
        poly = ph.Polyhedron(
            2,
            inequalities=(((1, 0), Fraction(5)), ((0, 1), Fraction(7))),
            equalities=(),
        )
        rec = ph.recession_cone(poly).with_v_rep()
        assert set(rec.rays) == {(1, 0), (0, 1)}

    def test_bounded_polytope_recession_trivial(self):
        poly = ph.Polyhedron(
            1,
            inequalities=(((1,), Fraction(0)), ((-1,), Fraction(1))),
            equalities=(),
        )
        rec = ph.recession_cone(poly).with_v_rep()
        assert rec.rays == () and not rec.lineality

    def test_recession_of_empty_rejected(self):
        poly = ph.Polyhedron(
            1,
            inequalities=(((1,), Fraction(-2)), ((-1,), Fraction(1))),
            equalities=(),
        )
        assert poly.is_empty()
        with pytest.raises(ValueError):
            ph.recession_cone(poly)

    def test_rank_one_recession(self):
        poly = ph.slice_at(self._rank_one_cone(), (1, -1), (1, -1))
        rec = ph.recession_cone(poly).with_v_rep()
        assert rec.rays == ((1, -1),)

    def test_slices_of_one_cone_share_one_table(self):
        cone = self._rank_one_cone()
        lr.clear_caches()
        with mock.patch.object(
            ph, "rays_from_halfspaces", wraps=ph.rays_from_halfspaces
        ) as dd:
            for a in range(-3, 4):
                poly = ph.slice_at(cone, (a, -a), (1, -1))
                assert poly.is_empty() == oracle.oracle_is_empty(poly)
                if not poly.is_empty():
                    assert ph.recession_cone(poly).rays == ((1, -1),)
        # one Farkas cone and one recession cone for all seven slices
        assert dd.call_count == 2
        assert len(ph._slice_cache) == 1

    def test_slice_matches_block_split_oracle(self):
        # The U(2,2) reference cone at seeded (a, b), with int entries and
        # with Fractions in either block: same C-parts, same constants.
        cone = reference22.reference_cone()
        rng = random.Random(35)
        for trial in range(40):
            a, b = ([rng.randint(-4, 4) for _ in range(4)] for _ in range(2))
            if trial % 2:
                k = rng.randrange(4)
                (a if trial % 4 == 1 else b)[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            poly = ph.slice_at(cone, a, b)
            ineqs, eqs = oracle.oracle_slice_at(cone, a, b)
            assert (poly.inequalities, poly.equalities) == (ineqs, eqs)
            got = [type(c) for _, c in poly.inequalities + poly.equalities]
            assert got == [type(c) for _, c in ineqs + eqs]

    def test_recession_of_a_slice_is_one_table_lookup(self):
        ref = reference22.reference_cone()
        poly = ph.slice_at(ref, (1, 0, 0, -1), (1, 0, 0, 0))
        with mock.patch.object(ph, "_slice_tables", wraps=ph._slice_tables) as tables:
            rec = ph.recession_cone(poly)
        assert tables.call_count == 1
        farkas, recession = ph._slice_tables(poly)
        assert not ph._is_empty(poly, farkas)
        assert (rec.rays, rec.lineality) == recession

    def test_list_valued_normals(self):
        # Lists in place of tuples, in a Polyhedron and in a sliced cone.
        as_lists = ph.Polyhedron(
            2, [([1, 0], Fraction(5)), ([0, 1], 7)], [([1, -1], 0)]
        )
        as_tuples = ph.Polyhedron(
            2, (((1, 0), Fraction(5)), ((0, 1), 7)), (((1, -1), 0),)
        )
        assert not as_lists.is_empty() and as_lists.contains((1, 1))
        rec = ph.recession_cone(as_lists).with_v_rep()
        assert (rec.rays, rec.lineality) == (((1, 1),), ())
        want = ph.recession_cone(as_tuples)
        assert (rec.rays, rec.lineality) == (want.rays, want.lineality)
        cone = ph.RationalCone(
            6,
            inequalities=([-1, 0, -1, 0, 1, 0],),
            equalities=([1, 1, 1, 1, -1, -1],),
        )
        poly = ph.slice_at(cone, [1, -1], [1, -1])
        assert poly == ph.slice_at(self._rank_one_cone(), (1, -1), (1, -1))
        assert ph.recession_cone(poly).rays == ((1, -1),)

    def test_lr_clear_caches_empties_slice_tables(self):
        ph.slice_at(self._rank_one_cone(), (1, -1), (1, -1)).is_empty()
        assert ph._slice_cache
        lr.clear_caches()
        assert not ph._slice_cache


@st.composite
def polyhedra(draw, dim):
    """Polyhedron over `systems` normals with int and Fraction constants."""
    ineqs = draw(systems(dim))
    eqs = draw(systems(dim))
    return ph.Polyhedron(
        dim,
        tuple((tuple(n), draw(ENTRIES)) for n in ineqs),
        tuple((tuple(n), draw(ENTRIES)) for n in eqs),
    )


class TestFarkasAgainstHomogenisation:
    """The Farkas table decides emptiness as the homogenised DD does."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_is_empty_and_recession_cone(self, data):
        dim = data.draw(st.integers(0, 4))
        poly = data.draw(polyhedra(dim))
        empty = poly.is_empty()
        assert empty == oracle.oracle_is_empty(poly)
        if empty:
            with pytest.raises(ValueError):
                ph.recession_cone(poly)
            return
        rec = ph.recession_cone(poly)
        ns = [n for n, _ in poly.inequalities]
        es = [n for n, _ in poly.equalities]
        assert (rec.rays, rec.lineality) == ph.rays_from_halfspaces(ns, es, dim)
        assert rec.with_v_rep() is rec

    def test_no_constraints_and_dimension_zero(self):
        assert not ph.Polyhedron(3, (), ()).is_empty()
        assert not ph.Polyhedron(0, (), ()).is_empty()
        rec = ph.recession_cone(ph.Polyhedron(2, (), ()))
        assert rec.rays == () and rec.lineality == ((0, 1), (1, 0))
        for c, f, empty in ((0, 0, False), (Fraction(-1, 2), 0, True), (1, 3, True)):
            poly = ph.Polyhedron(0, (((), c),), (((), f),))
            assert poly.is_empty() == oracle.oracle_is_empty(poly) == empty

    def test_zero_normal_row(self):
        for c in (Fraction(-1, 3), 0, 2):
            poly = ph.Polyhedron(2, (((0, 0), c), ((1, 0), 5)), ())
            assert poly.is_empty() == (c < 0) == oracle.oracle_is_empty(poly)


class TestDeltaKPbar:
    def test_examples(self):
        assert ph.delta_K_pbar(Shape(1, 1)).rays == ((1, -1),)
        assert ph.delta_K_pbar(Shape(2, 1)).rays == ((1, 0, -1),)
        assert ph.delta_K_pbar(Shape(2, 2)).rays == (
            (1, 0, 0, -1),
            (1, 1, -1, -1),
        )

    def test_matches_cauchy_weight_cone(self):
        # Oracle: the cone of all (delta padded, natural negation) with
        # |delta| <= 4 stabilizes to the same cone.
        from holocone import symq

        for shape in [Shape(1, 1), Shape(2, 1), Shape(2, 2), Shape(3, 2)]:
            pts = []
            for d in range(1, 5):
                for comp in symq.cauchy_components(shape, d):
                    pts.append(comp.up_weight + comp.uq_weight)
            assert ph.same_cone(
                ph.cone_from_points(pts), ph.delta_K_pbar(shape)
            )


class TestConeFiles:
    def test_round_trip(self, tmp_path):
        cone = ph.cone_from_points([(1, 0, -1), (0, 1, -1), (1, 1, 0)])
        path = tmp_path / "cone.json"
        ph.save_cone(cone, path)
        back = ph.load_cone(path)
        assert back.ambient_dim == cone.ambient_dim
        assert back.inequalities == cone.inequalities
        assert back.equalities == cone.equalities

    def test_provenance_key_is_ignored(self, tmp_path):
        # Files written before cones stopped recording where they came
        # from carry a "provenance" key; it is read past.
        path = tmp_path / "old.json"
        path.write_text(
            '{"version": 1, "ambient_dim": 2, "provenance": "hull-of:points.txt",'
            ' "inequalities": [["1", "0"], ["0", "1"]]}'
        )
        assert ph.load_cone(path) == ph.RationalCone(2, inequalities=((1, 0), (0, 1)))

    def test_file_without_a_representation(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('{"version": 1, "ambient_dim": 2, "equalities": [["1", "0"]]}')
        with pytest.raises(ValueError):
            ph.load_cone(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"version": 1, "inequalities": [["1", "0"]]}',
            '{"version": 1, "ambient_dim": 2, "inequalities": [[1, 0]]}',
            '{"version": 1, "ambient_dim": 2, "inequalities": [7]}',
        ],
        ids=["no-ambient_dim", "number-entries", "row-not-a-list"],
    )
    def test_malformed_fields_raise_value_error(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            ph.load_cone(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "ambient_dim": 2}')
        with pytest.raises(ValueError):
            ph.load_cone(path)
