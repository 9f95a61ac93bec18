"""Exact cone geometry: double description, hulls, slices, recession."""

import random
from fractions import Fraction

import pytest

from holocone import polyhedral as ph
from holocone.weights import Shape


class TestPrimitives:
    def test_primitive_int_fast_path(self):
        assert ph.primitive((2, 4, -6)) == (1, 2, -3)
        assert ph.primitive((0, 0)) == (0, 0)

    def test_primitive_fractions(self):
        assert ph.primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)

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


class TestConeMembership:
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
            3, inequalities=((0, 0, 1),), equalities=((0, 0, 1),)
        )
        poly = ph.slice_at(cone, (-1,), (0,))
        # constraints on C: c >= 0 and c = 0 shifted by fixed part
        assert isinstance(poly.is_empty(), bool)

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

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "ambient_dim": 2}')
        with pytest.raises(ValueError):
            ph.load_cone(path)
