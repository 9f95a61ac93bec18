"""Cauchy components and holomorphic multiplicities vs character oracle."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from holocone import lr, symq
from holocone.weights import Shape
from oracle import noncompact_positive_roots


def dominant_box(length, bound):
    vals = range(-bound, bound + 1)
    return [
        w
        for w in product(vals, repeat=length)
        if all(a >= b for a, b in zip(w, w[1:]))
    ]


class _Pool:
    """Dominant blocks of one shape with entries in [-box, box], by coordinate sum."""

    def __init__(self, shape, box):
        self.shape = shape
        self.p, self.q = (
            [tuple(c) for c in combinations_with_replacement(range(box, -box - 1, -1), k)]
            for k in shape
        )
        self.p_by_sum, self.q_by_sum = {}, {}
        for blocks, by_sum in ((self.p, self.p_by_sum), (self.q, self.q_by_sum)):
            for v in blocks:
                by_sum.setdefault(sum(v), []).append(v)

    def triple(self, rng):
        """(A, B, C) with |C_p| = |A_p|+|B_p|+d and |C_q| = |A_q|+|B_q|-d, d >= 0."""
        p = self.shape.p
        while True:
            a = rng.choice(self.p) + rng.choice(self.q)
            b = rng.choice(self.p) + rng.choice(self.q)
            d = rng.randint(0, 2 * self.shape.q)
            cp = self.p_by_sum.get(sum(a[:p]) + sum(b[:p]) + d)
            cq = self.q_by_sum.get(sum(a[p:]) + sum(b[p:]) - d)
            if cp and cq:
                return a, b, rng.choice(cp) + rng.choice(cq)


# U(2,2) at box 6 and U(3,3) at box 4 are the benchmark's request ranges.
ORACLE_POOLS = [
    _Pool(shape, box)
    for shape, box in (
        (Shape(2, 2), 6), (Shape(3, 3), 4), (Shape(2, 1), 3), (Shape(3, 1), 3), (Shape(3, 2), 3)
    )
]


class TestQModuleWeights:
    def test_examples(self):
        assert noncompact_positive_roots(Shape(1, 1)) == [(1, -1)]
        assert noncompact_positive_roots(Shape(2, 1)) == [(1, 0, -1), (0, 1, -1)]
        w22 = noncompact_positive_roots(Shape(2, 2))
        assert len(w22) == 4 and all(sum(v) == 0 for v in w22)


class TestCauchyComponents:
    def test_degree_zero(self):
        comps = symq.cauchy_components(Shape(2, 2), 0)
        assert [c.delta for c in comps] == [()]

    def test_degree_two_partitions(self):
        comps = symq.cauchy_components(Shape(2, 2), 2)
        assert sorted(c.delta for c in comps) == [(1, 1), (2,)]

    def test_natural_negation(self):
        assert symq.natural_negation((2, 1), 2) == (-1, -2)
        assert symq.natural_negation((3,), 2) == (0, -3)

    def test_block_sums_cancel(self):
        for d in range(5):
            for c in symq.cauchy_components(Shape(3, 2), d):
                assert sum(c.up_weight) + sum(c.uq_weight) == 0

    def test_degree_three_dimension_spot_check(self):
        comps = symq.cauchy_components(Shape(2, 2), 3)
        total = sum(
            lr.weyl_dim(c.up_weight) * lr.weyl_dim(tuple(-v for v in reversed(c.uq_weight)))
            for c in comps
        )
        assert total == lr.sym_power_dimension(4, 3) == 20

    def test_degree_is_read_as_an_index(self):
        # An integer of any integral type reads as its value; any other
        # degree is refused before the partitions are listed.
        s = Shape(2, 2)
        want = symq.cauchy_components(s, 2)
        assert symq.cauchy_components(s, np.int64(2)) == want
        assert symq.cauchy_components(s, True) == symq.cauchy_components(s, 1)
        for bad in (1.5, 2.0, "2", None, Fraction(2)):
            with pytest.raises(ValueError, match="integer"):
                symq.cauchy_components(s, bad)
        with pytest.raises(ValueError, match="nonnegative"):
            symq.cauchy_components(s, -1)

    def test_dimension_identity_grid(self):
        # The Cauchy identity: sum over |delta| = d of
        # dim S^delta(C^p) * dim S^delta(C^q) = dim Sym^d(C^{pq}).
        for p in range(1, 5):
            for q in range(1, p + 1):
                for d in range(7):
                    total = sum(
                        lr.weyl_dim(c.up_weight)
                        * lr.weyl_dim(tuple(-v for v in reversed(c.uq_weight)))
                        for c in symq.cauchy_components(Shape(p, q), d)
                    )
                    assert total == lr.sym_power_dimension(p * q, d)


class TestHolomorphicMultiplicity:
    def test_sum_shift_is_member(self):
        # nu = lam + mu always contributes via the Cauchy degree-0 term.
        rng = random.Random(10)
        for shape in [Shape(1, 1), Shape(2, 1), Shape(2, 2)]:
            for _ in range(50):
                lam = tuple(
                    sorted(
                        (rng.randint(-3, 3) for _ in range(shape.p)),
                        reverse=True,
                    )
                ) + tuple(
                    sorted(
                        (rng.randint(-3, 3) for _ in range(shape.q)),
                        reverse=True,
                    )
                )
                mu = tuple(
                    sorted(
                        (rng.randint(-3, 3) for _ in range(shape.p)),
                        reverse=True,
                    )
                ) + tuple(
                    sorted(
                        (rng.randint(-3, 3) for _ in range(shape.q)),
                        reverse=True,
                    )
                )
                nu = tuple(a + b for a, b in zip(lam, mu))
                assert symq.holomorphic_multiplicity(lam, mu, nu, shape) >= 1

    def test_rank_one_closed_form(self):
        shape = Shape(1, 1)
        for a1, a2, b1, b2, c1, c2 in product(range(-2, 3), repeat=6):
            d = c1 - a1 - b1
            expected = 1 if (d >= 0 and d == (a2 + b2) - c2) else 0
            got = symq.holomorphic_multiplicity(
                (a1, a2), (b1, b2), (c1, c2), shape
            )
            assert got == expected

    def test_two_two_fixture(self):
        got = symq.holomorphic_multiplicity(
            (1, 0, 0, -1), (1, 0, 0, -1), (2, 1, -1, -2), Shape(2, 2)
        )
        want = oracle.oracle_holomorphic_multiplicity(
            (1, 0, 0, -1), (1, 0, 0, -1), (2, 1, -1, -2), 2, 2
        )
        assert got == want == 4

    def test_character_oracle_two_one(self):
        # Shape (2,1): every dominant triple with entries in [-1,1], plus a
        # random sample from [-2,2], against brute-force character algebra.
        shape = Shape(2, 1)
        small = [
            pb + (qv,)
            for pb in dominant_box(2, 1)
            for qv in (-1, 0, 1)
        ]
        for lam in small:
            for mu in small:
                for nu in small:
                    assert symq.holomorphic_multiplicity(
                        lam, mu, nu, shape
                    ) == oracle.oracle_holomorphic_multiplicity(
                        lam, mu, nu, 2, 1
                    )

    def test_character_oracle_two_one_sampled(self):
        shape = Shape(2, 1)
        rng = random.Random(11)
        pool = [
            pb + (qv,)
            for pb in dominant_box(2, 2)
            for qv in range(-2, 3)
        ]
        for _ in range(250):
            lam, mu, nu = (rng.choice(pool) for _ in range(3))
            assert symq.holomorphic_multiplicity(
                lam, mu, nu, shape
            ) == oracle.oracle_holomorphic_multiplicity(lam, mu, nu, 2, 1)

    def test_balance_necessary(self):
        shape = Shape(2, 2)
        rng = random.Random(12)
        for _ in range(200):
            lam = tuple(
                sorted((rng.randint(-2, 2) for _ in range(2)), reverse=True)
            ) + tuple(
                sorted((rng.randint(-2, 2) for _ in range(2)), reverse=True)
            )
            mu = tuple(
                sorted((rng.randint(-2, 2) for _ in range(2)), reverse=True)
            ) + tuple(
                sorted((rng.randint(-2, 2) for _ in range(2)), reverse=True)
            )
            nu = tuple(
                sorted((rng.randint(-4, 4) for _ in range(2)), reverse=True)
            ) + tuple(
                sorted((rng.randint(-4, 4) for _ in range(2)), reverse=True)
            )
            if symq.holomorphic_multiplicity(lam, mu, nu, shape):
                assert sum(lam) + sum(mu) == sum(nu)

    def test_symmetry_in_first_two(self):
        shape = Shape(2, 2)
        rng = random.Random(13)
        for _ in range(100):
            vecs = []
            for _ in range(3):
                vecs.append(
                    tuple(
                        sorted(
                            (rng.randint(-2, 2) for _ in range(2)),
                            reverse=True,
                        )
                    )
                    + tuple(
                        sorted(
                            (rng.randint(-2, 2) for _ in range(2)),
                            reverse=True,
                        )
                    )
                )
            lam, mu, nu = vecs
            assert symq.holomorphic_multiplicity(
                lam, mu, nu, shape
            ) == symq.holomorphic_multiplicity(mu, lam, nu, shape)

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            symq.holomorphic_multiplicity(
                (0, 1, 0), (0, 0, 0), (0, 1, 0), Shape(2, 1)
            )

    @pytest.mark.parametrize(
        "bad,message",
        [
            ((0, 1, 0, 0), "weight not dominant"),
            ((Fraction(1, 2), 0, 0, 0), "integral weight required"),
            ((1, 0, 0), "weight length 3 != p\\+q = 4"),
            # The length is checked first, then dominance, then integrality.
            ((0, 1, 0, 0, 0), "weight length 5 != p\\+q = 4"),
            ((Fraction(1, 2), 1, 0, 0), "weight not dominant"),
            ((1, 0, Fraction(1, 2), 1), "weight not dominant"),
            ((float("inf"), 0, 0, 0), "integral weight required"),
        ],
        ids=[
            "not-dominant", "not-integral", "wrong-length",
            "too-long-not-dominant", "not-dominant-not-integral-p", "not-dominant-not-integral-q",
            "infinite",
        ],
    )
    def test_rejects_each_bad_weight(self, bad, message):
        good = (1, 0, 0, -1)
        for args in ((bad, good, good), (good, bad, good), (good, good, bad)):
            with pytest.raises(ValueError, match=message):
                symq.holomorphic_multiplicity(*args, Shape(2, 2))

    def test_accepts_lists_and_numpy_arrays(self):
        shape = Shape(2, 2)
        req = ((1, 0, 0, -1), (1, 0, 0, -1), (2, 1, -1, -2))
        want = symq.holomorphic_multiplicity(*req, shape)
        assert want > 0
        for convert in (list, lambda w: np.array(w, dtype=np.int64)):
            got = symq.holomorphic_multiplicity(*map(convert, req), shape)
            assert type(got) is int and got == want

    def test_matches_public_lr_composition_and_s_fold(self):
        # holomorphic_multiplicity runs on the unchecked LR functions; the
        # Cauchy sum composed from the validating public ones, and the
        # s-fold contraction, are independent paths to the same number.
        def via_public_lr(lam, mu, nu, shape):
            p = shape.p
            d = sum(nu[:p]) - sum(lam[:p]) - sum(mu[:p])
            total = 0
            for comp in symq.cauchy_components(shape, d):
                factors = []
                for blk, delta in ((slice(0, p), comp.up_weight), (slice(p, None), comp.uq_weight)):
                    factors.append(sum(
                        c * lr.lr_coefficient(kappa, delta, nu[blk])
                        for kappa, c in lr.tensor_expand(lam[blk], mu[blk]).items()
                    ))
                total += factors[0] * factors[1]
            return total

        rng = random.Random(31)
        nonzero = 0
        for shape, bound in ((Shape(2, 1), 3), (Shape(2, 2), 2), (Shape(3, 1), 2)):
            p = shape.p
            pb, qb = dominant_box(p, bound), dominant_box(shape.q, bound)
            checked = 0
            while checked < 60:
                lam = rng.choice(pb) + rng.choice(qb)
                mu = rng.choice(pb) + rng.choice(qb)
                d = rng.randint(0, 2 * shape.q)
                cp = [v for v in pb if sum(v) == sum(lam[:p]) + sum(mu[:p]) + d]
                cq = [v for v in qb if sum(v) == sum(lam[p:]) + sum(mu[p:]) - d]
                if not (cp and cq):
                    continue
                nu = rng.choice(cp) + rng.choice(cq)
                m = symq.holomorphic_multiplicity(lam, mu, nu, shape)
                assert m == via_public_lr(lam, mu, nu, shape), (lam, mu, nu, shape)
                assert m == symq.s_fold_multiplicity([lam, mu], nu, shape)
                checked += 1
                nonzero += m > 0
        assert nonzero >= 30


class TestSkewExpansions:
    @given(st.sampled_from(ORACLE_POOLS), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_matches_cauchy_component_oracle(self, pool, seed):
        # Degree-consistent triples, zero answers included.
        a, b, c = pool.triple(random.Random(seed))
        assert symq.holomorphic_multiplicity(a, b, c, pool.shape) == (
            oracle.oracle_cauchy_multiplicity(a, b, c, pool.shape)
        )

    def test_no_tableau_counts_and_a_stable_memo(self):
        shape = Shape(3, 3)
        req = ((2, 1, 0, 0, -1, -1), (2, 1, 0, 0, -1, -1), (4, 3, 1, -1, -2, -3))
        lr.clear_caches()
        with mock.patch.object(
            lr, "lr_count_tableaux", wraps=lr.lr_count_tableaux
        ) as counts:
            assert symq.holomorphic_multiplicity(*req, shape) == 18
            memo = {k: dict(v) for k, v in lr._skew_cache.items()}
            triples = {k: dict(v) for k, v in lr._triple_cache.items()}
            assert memo and triples
            assert symq.holomorphic_multiplicity(*req, shape) == 18
        assert counts.call_count == 0
        assert lr._skew_cache == memo
        assert lr._triple_cache == triples
        assert oracle.oracle_cauchy_multiplicity(*req, shape) == 18
        lr.clear_caches()
        assert lr._skew_cache == {} and lr._triple_cache == {}

    def test_frozen_answers(self):
        # sha256 of 500 answers on a fixed grid, as computed by the
        # per-Cauchy-component loop the skew expansions replaced.
        rng = random.Random(9)
        pools = [_Pool(Shape(2, 2), 6), _Pool(Shape(3, 3), 4), _Pool(Shape(3, 2), 3)]
        rows = []
        for i in range(500):
            pool = pools[i % 3]
            a, b, c = pool.triple(rng)
            rows.append((a, b, c, symq.holomorphic_multiplicity(a, b, c, pool.shape)))
        assert sum(r[3] == 0 for r in rows) == 229
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "5d40fa96e2fd866df95f95426d7be6ccee8225e481eab7810883a002688f56cc"
        )


class TestSFold:
    def test_s2_matches_pairwise(self):
        shape = Shape(1, 1)
        rng = random.Random(14)
        for _ in range(100):
            vecs = [
                (rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)
            ]
            lam, mu, nu = vecs
            assert symq.s_fold_multiplicity(
                [lam, mu], nu, shape
            ) == symq.holomorphic_multiplicity(lam, mu, nu, shape)

    def test_s3_rank_one_closed_form(self):
        # Two geometric-series contractions: m = number of (d1, d2) >= 0
        # with c1 = a1+b1+e1+d1+d2 — i.e. max(0, D+1) where
        # D = c1 - a1 - b1 - e1 counts lattice points on a segment.
        shape = Shape(1, 1)
        for vals in product(range(-2, 3), repeat=4):
            a1, b1, e1, c1 = vals
            # choose second coordinates to balance totals exactly
            lam, mu, ka = (a1, -a1), (b1, -b1), (e1, -e1)
            big_d = c1 - a1 - b1 - e1
            nu = (c1, -(a1 + b1 + e1) - big_d)
            want = big_d + 1 if big_d >= 0 else 0
            assert (
                symq.s_fold_multiplicity([lam, mu, ka], nu, shape) == want
            )

    def test_permutation_invariance(self):
        shape = Shape(2, 1)
        rng = random.Random(15)
        for _ in range(30):
            vecs = []
            for _ in range(3):
                pb = tuple(
                    sorted((rng.randint(-1, 1) for _ in range(2)), reverse=True)
                )
                vecs.append(pb + (rng.randint(-1, 1),))
            nu = tuple(
                sorted((rng.randint(-2, 2) for _ in range(2)), reverse=True)
            ) + (rng.randint(-2, 2),)
            vals = {
                symq.s_fold_multiplicity(list(perm), nu, shape)
                for perm in (
                    vecs,
                    [vecs[1], vecs[0], vecs[2]],
                    [vecs[2], vecs[1], vecs[0]],
                )
            }
            assert len(vals) == 1

    def test_requires_two_factors(self):
        with pytest.raises(ValueError):
            symq.s_fold_multiplicity([(1, -1)], (1, -1), Shape(1, 1))

    @pytest.mark.parametrize(
        "shape, lams, nu",
        [
            (Shape(1, 2), [(1, 0, 0), (0, 0, 0)], (1, 0, 0)),
            (Shape(1.0, 1), [(1, 0), (0, 0)], (1, 0)),
            (Shape(0, 0), [(), ()], ()),
            (Shape(2, "1"), [(1, 0, 0), (0, 0, 0)], (1, 0, 0)),
        ],
        ids=["U12", "p-float", "U00", "q-str"],
    )
    def test_invalid_shape_rejected(self, shape, lams, nu):
        # As in `holomorphic_multiplicity`: without the check U(1,2) and
        # U(0,0) gave 1 here, and the others a TypeError.
        with pytest.raises(ValueError):
            symq.s_fold_multiplicity(lams, nu, shape)
