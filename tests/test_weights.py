"""Weight, chamber, root-system and Weyl-element arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from holocone.weights import (
    Shape,
    all_weyl_elements,
    format_weight,
    identity_weyl,
    in_chamber_rho,
    in_holomorphic_chamber,
    is_dominant,
    longest_weyl,
    pairing,
    parse_number,
    parse_weight,
    rho_scaling_factor,
    star_involution,
    two_rho_n,
)
from oracle import (
    all_roots,
    compact_positive_roots,
    noncompact_positive_roots,
    positive_roots,
)

SHAPES = [Shape(1, 1), Shape(2, 1), Shape(2, 2), Shape(3, 2)]


def random_weight(shape, lo=-9, hi=9, rng=random):
    return tuple(rng.randint(lo, hi) for _ in range(shape.rank))


def random_dominant(shape, lo=-9, hi=9, rng=random):
    pb = sorted((rng.randint(lo, hi) for _ in range(shape.p)), reverse=True)
    qb = sorted((rng.randint(lo, hi) for _ in range(shape.q)), reverse=True)
    return tuple(pb) + tuple(qb)


class TestDominance:
    def test_examples(self):
        s = Shape(2, 2)
        assert is_dominant((2, 1, 0, -1), s)
        assert not is_dominant((1, 2, 0, 0), s)
        assert is_dominant((0, 0, 0, 0), s)

    def test_holomorphic_chamber_examples(self):
        s = Shape(2, 2)
        assert in_holomorphic_chamber((2, 1, 0, -1), s)
        assert not in_holomorphic_chamber((1, 0, 0, -1), s)  # x2 == x3
        assert in_holomorphic_chamber((5, -5), Shape(1, 1))

    def test_chamber_implies_dominant(self):
        rng = random.Random(0)
        for shape in SHAPES:
            for _ in range(200):
                x = random_weight(shape, rng=rng)
                if in_holomorphic_chamber(x, shape):
                    assert is_dominant(x, shape)


class TestRhoChamber:
    def test_rank_one_boundary(self):
        assert in_chamber_rho((1, -1), Shape(1, 1))
        assert not in_chamber_rho((1, 0), Shape(1, 1))

    def test_two_two_gap(self):
        s = Shape(2, 2)
        assert in_chamber_rho((4, 4, 0, 0), s)
        assert not in_chamber_rho((3, 3, 0, 0), s)

    def test_oracle_pairing_definition(self):
        # (x, beta) >= (2rho_n, beta) for every noncompact positive root,
        # checked literally against the trace form.
        rng = random.Random(1)
        for shape in SHAPES:
            rho2 = two_rho_n(shape)
            for _ in range(300):
                x = random_dominant(shape, rng=rng)
                expected = all(
                    pairing(x, b) >= pairing(rho2, b)
                    for b in noncompact_positive_roots(shape)
                )
                assert in_chamber_rho(x, shape) == expected

    def test_scale_invariance_of_form(self):
        # The defining inequality is invariant under rescaling the form:
        # both sides are bilinear in the same pairing.
        s = Shape(2, 2)
        x = (5, 4, 0, 0)
        b = noncompact_positive_roots(s)[0]
        lhs, rhs = pairing(x, b), pairing(two_rho_n(s), b)
        assert (lhs >= rhs) == (3 * lhs >= 3 * rhs)

    def test_rho_chamber_inside_holomorphic_chamber(self):
        rng = random.Random(2)
        for shape in SHAPES:
            for _ in range(1000):
                x = random_dominant(shape, rng=rng)
                if in_chamber_rho(x, shape):
                    assert in_holomorphic_chamber(x, shape)

    def test_scaling_factor_constructive(self):
        rng = random.Random(3)
        for shape in SHAPES:
            for _ in range(300):
                x = random_dominant(shape, rng=rng)
                if not in_holomorphic_chamber(x, shape):
                    continue
                n = rho_scaling_factor(x, shape)
                assert in_chamber_rho(tuple(n * v for v in x), shape)
                if n > 1:
                    m = n - 1
                    assert not in_chamber_rho(
                        tuple(m * v for v in x), shape
                    )


class TestStarInvolution:
    def test_example(self):
        assert star_involution((2, 1, 0, -1), Shape(2, 2)) == (-1, -2, 1, 0)

    def test_zero_fixed(self):
        assert star_involution((0, 0, 0), Shape(2, 1)) == (0, 0, 0)

    @given(st.lists(st.integers(-50, 50), min_size=4, max_size=4))
    def test_involutive(self, coords):
        s = Shape(2, 2)
        x = tuple(coords)
        assert star_involution(star_involution(x, s), s) == x

    def test_preserves_dominance(self):
        rng = random.Random(4)
        for shape in SHAPES:
            for _ in range(200):
                x = random_dominant(shape, rng=rng)
                assert is_dominant(star_involution(x, shape), shape)


class TestParsing:
    def test_round_trip(self):
        w, s = parse_weight("2,1;0,-1")
        assert w == (2, 1, 0, -1) and s == Shape(2, 2)
        assert format_weight(w, s) == "2,1;0,-1"

    def test_rational_entries(self):
        w, _ = parse_weight("3/2,0;0,-1")
        assert w[0] == Fraction(3, 2)

    def test_rejects_missing_block(self):
        with pytest.raises(ValueError):
            parse_weight("1,2,3")

    def test_number_forms(self):
        assert parse_number("3") == 3 and type(parse_number("3")) is int
        assert parse_number(" -3/2") == Fraction(-3, 2)
        assert parse_number("0.25") == Fraction(1, 4)

    @pytest.mark.parametrize("text", ["1e5", "1_0", "1.5/2", "nan"])
    def test_rejects_exponents_and_separators(self, text):
        with pytest.raises(ValueError):
            parse_number(text)


class TestRoots:
    def test_counts(self):
        for shape in SHAPES:
            p, q = shape
            assert len(noncompact_positive_roots(shape)) == p * q
            assert (
                len(positive_roots(shape))
                == p * (p - 1) // 2 + q * (q - 1) // 2 + p * q
            )
            assert len(all_roots(shape)) == shape.rank * (shape.rank - 1)

    def test_noncompact_sum_zero(self):
        for shape in SHAPES:
            for b in noncompact_positive_roots(shape):
                assert sum(b) == 0

    def test_two_rho_n_is_root_sum(self):
        for shape in SHAPES:
            acc = [0] * shape.rank
            for b in noncompact_positive_roots(shape):
                acc = [a + x for a, x in zip(acc, b)]
            assert tuple(acc) == two_rho_n(shape)

    def test_compact_roots_stay_in_blocks(self):
        s = Shape(2, 2)
        for a in compact_positive_roots(s):
            assert sum(a[:2]) == 0 and sum(a[2:]) == 0


class TestWeylElements:
    def test_group_size(self):
        import math

        for shape in SHAPES:
            assert len(all_weyl_elements(shape)) == math.factorial(
                shape.p
            ) * math.factorial(shape.q)

    def test_longest_reverses(self):
        s = Shape(2, 2)
        assert longest_weyl(s).apply((1, 2, 3, 4), s) == (2, 1, 4, 3)

    def test_compose_inverse_identity(self):
        rng = random.Random(5)
        for shape in SHAPES:
            ws = all_weyl_elements(shape)
            e = identity_weyl(shape)
            for _ in range(50):
                w = rng.choice(ws)
                assert w.compose(w.inverse()) == e
                assert w.inverse().compose(w) == e

    def test_apply_matches_composition(self):
        rng = random.Random(6)
        shape = Shape(2, 2)
        ws = all_weyl_elements(shape)
        for _ in range(100):
            a, b = rng.choice(ws), rng.choice(ws)
            x = random_weight(shape, rng=rng)
            assert a.compose(b).apply(x, shape) == a.apply(
                b.apply(x, shape), shape
            )
