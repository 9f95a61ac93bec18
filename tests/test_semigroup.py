"""Box-bounded enumeration of the integral Horn semigroup."""

import random
from itertools import product

import numpy as np
import oracle
import pytest
from hypothesis import given, settings, strategies as st

from holocone import lr, semigroup, symq
from holocone.weights import Shape


# (shape, bound) pairs small enough for a scan of every box triple.
SCAN_CASES = [(Shape(2, 1), 1), (Shape(1, 1), 2), (Shape(2, 2), 1), (Shape(3, 1), 1)]


def dominant_box(length, bound):
    vals = range(-bound, bound + 1)
    return [
        w
        for w in product(vals, repeat=length)
        if all(a >= b for a, b in zip(w, w[1:]))
    ]


class TestRankOne:
    def test_bound_one_closed_form(self):
        # (1,1): membership iff c1 = a1+b1+d and c2 = a2+b2-d with d >= 0.
        got = set(semigroup.enumerate_semigroup(Shape(1, 1), 1))
        want = set()
        for a1, a2, b1, b2, c1, c2 in product((-1, 0, 1), repeat=6):
            d = c1 - a1 - b1
            if d >= 0 and c2 == a2 + b2 - d:
                want.add(((a1, a2), (b1, b2), (c1, c2)))
        assert got == want


class TestGeneralities:
    def test_bound_zero(self):
        for shape in [Shape(1, 1), Shape(2, 1), Shape(2, 2)]:
            z = (0,) * shape.rank
            assert semigroup.enumerate_semigroup(shape, 0) == [(z, z, z)]

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            semigroup.enumerate_semigroup(Shape(1, 1), -1)

    @pytest.mark.parametrize(
        "shape", [Shape(1, 2), Shape(0, 1), Shape(2, 0)], ids=lambda s: f"U{s.p}{s.q}"
    )
    def test_invalid_shape_rejected(self, shape):
        # Outside p >= q >= 1 the join has no meaning: U(1,2) would come
        # out short of the oracle, and an empty block has no rows.
        with pytest.raises(ValueError):
            semigroup.enumerate_semigroup_points(shape, 1)

    @pytest.mark.parametrize(
        "p,q,bound",
        [(2.0, 1, 1), ("2", 1, 1), (2, 1.0, 1), (2, 1, 1.5), (2, 1, "1")],
        ids=["p-float", "p-str", "q-float", "bound-float", "bound-str"],
    )
    def test_non_integer_rejected(self, p, q, bound):
        if bound == 1:
            with pytest.raises(ValueError):
                Shape(p, q).validate()
        with pytest.raises(ValueError):
            semigroup.enumerate_semigroup_points(Shape(p, q), bound)

    def test_numpy_integers_accepted(self):
        shape = Shape(np.int64(2), np.int32(1))
        assert shape.validate() is shape
        got = semigroup.enumerate_semigroup_points(shape, np.int16(1))
        assert np.array_equal(got, semigroup.enumerate_semigroup_points(Shape(2, 1), 1))

    def test_deterministic_and_sorted(self):
        a = semigroup.enumerate_semigroup(Shape(2, 1), 1)
        b = semigroup.enumerate_semigroup(Shape(2, 1), 1)
        assert a == b == sorted(a)

    def test_members_verified_by_multiplicity(self):
        shape = Shape(2, 1)
        triples = semigroup.enumerate_semigroup(shape, 1)
        for lam, mu, nu in triples:
            assert symq.holomorphic_multiplicity(lam, mu, nu, shape) > 0

    def test_completeness_against_direct_scan(self):
        # The listed triples are exactly the box triples of positive
        # multiplicity.  Only |A| + |B| = |C| is scanned: every other
        # triple has multiplicity 0.
        for shape, bound in SCAN_CASES:
            got = set(semigroup.enumerate_semigroup(shape, bound))
            doms = [
                pb + qb
                for pb in dominant_box(shape.p, bound)
                for qb in dominant_box(shape.q, bound)
            ]
            want = {
                (lam, mu, nu)
                for lam in doms
                for mu in doms
                for nu in doms
                if sum(lam) + sum(mu) == sum(nu)
                and symq.holomorphic_multiplicity(lam, mu, nu, shape) > 0
            }
            assert got == want, (shape, bound)

    def test_two_two_bound_one_count_frozen(self):
        # Regression fixture; the value was verified once against the
        # multiplicity scan and frozen.
        assert len(semigroup.enumerate_semigroup(Shape(2, 2), 1)) == 2916

    def test_larger_counts_frozen(self):
        # Regression fixtures, frozen from the enumeration that kept
        # multiplicities; U(3,1) box 2 is the benchmark's cone31 set.
        assert len(semigroup.enumerate_semigroup_points(Shape(3, 1), 2)) == 149730
        assert len(semigroup.enumerate_semigroup_points(Shape(3, 3), 1)) == 41947


class TestPackedPoints:
    def test_matches_tuple_enumeration(self):
        for shape, bound in SCAN_CASES:
            pts = semigroup.enumerate_semigroup_points(shape, bound)
            triples = semigroup.enumerate_semigroup(shape, bound)
            rows = sorted(tuple(int(v) for v in r) for r in pts)
            assert rows == [l + m + n for (l, m, n) in triples], (shape, bound)

    def test_dtype_and_shape(self):
        shape = Shape(2, 2)
        pts = semigroup.enumerate_semigroup_points(shape, 1)
        assert pts.dtype == np.int8
        assert pts.shape == (2916, 12)


def degree_deltas(shape, bound):
    """The Cauchy partitions of every degree the box can reach."""
    return [
        [c.delta for c in symq.cauchy_components(shape, d)]
        for d in range(3 * shape.q * bound + 1)
    ]


# Every shape and bound the matrix join is checked on against the oracle.
JOIN_CASES = (
    [(Shape(1, 1), b) for b in range(4)]
    + [(Shape(2, 1), b) for b in range(3)]
    + [(Shape(2, 2), b) for b in range(3)]
    + [(Shape(3, 1), b) for b in range(3)]
    + [(Shape(3, 2), 1), (Shape(3, 3), 1)]
    + [(Shape(4, 1), 1), (Shape(4, 2), 1), (Shape(2, 1), 3)]
)


class TestMatrixJoin:
    @pytest.mark.parametrize(
        "shape,bound", JOIN_CASES, ids=[f"U{s.p}{s.q}-b{b}" for s, b in JOIN_CASES]
    )
    def test_matches_streamed_oracle(self, shape, bound):
        pts = semigroup.enumerate_semigroup_points(shape, bound)
        assert pts.dtype == np.int8
        assert pts.shape[1] == 3 * shape.rank
        rows = pts.tolist()
        assert len(set(map(tuple, rows))) == len(rows)  # each triple once
        assert sorted(rows) == sorted(oracle.oracle_semigroup_points(shape, bound).tolist())
        lr.clear_caches()
        assert np.array_equal(semigroup.enumerate_semigroup_points(shape, bound), pts)

    @pytest.mark.parametrize(
        "shape,bound", JOIN_CASES, ids=[f"U{s.p}{s.q}-b{b}" for s, b in JOIN_CASES]
    )
    def test_blocks_tile_the_joined_entries(self, shape, bound):
        # Per degree, the Cartesian blocks are disjoint and cover exactly
        # the nonzero entries of P_d Q_d^T.
        deltas = degree_deltas(shape, bound)
        p_tables = semigroup._incidences(shape.p, bound, shape.q, deltas)
        q_tables = semigroup._incidences(shape.q, bound, shape.q, deltas)
        for (_, p_inc), (_, q_inc) in zip(p_tables, q_tables):
            blocks = semigroup._join_blocks(p_inc, q_inc)
            joined = p_inc @ q_inc.T
            assert sum(len(g) * len(h) for g, h in blocks) == np.count_nonzero(joined)
            covered = np.zeros_like(joined)
            for g, h in blocks:
                covered[np.ix_(g, h)] = True
            assert np.array_equal(covered, joined)


@st.composite
def boolean_matrices(draw):
    """A Boolean matrix of width 1-20 (keys of 1-3 bytes) with repeated
    and single rows; past one byte, two of its rows differ only after
    their first byte."""
    width = draw(st.integers(1, 20))
    row = st.lists(st.booleans(), min_size=width, max_size=width)
    base = draw(st.lists(row, min_size=1, max_size=6))
    if width > 8:
        k = draw(st.integers(8, width - 1))
        base.append(base[0][:k] + [not base[0][k]] + base[0][k + 1 :])
    extra = draw(st.lists(st.integers(0, len(base) - 1), max_size=30))
    picks = draw(st.permutations(list(range(len(base))) + extra))
    return np.array([base[i] for i in picks], dtype=bool)


class TestPatternGroups:
    @given(boolean_matrices())
    @settings(max_examples=300, deadline=None)
    def test_groups_partition_rows_by_distinct_pattern(self, inc):
        patterns, groups = semigroup._pattern_groups(inc)
        assert patterns.shape == (len(groups), inc.shape[1])
        assert len(set(map(tuple, patterns.tolist()))) == len(patterns)
        assert sorted(np.concatenate(groups).tolist()) == list(range(len(inc)))
        for pattern, group in zip(patterns, groups):
            assert list(group) == sorted(group)
            assert (inc[group] == pattern).all()
        again = semigroup._pattern_groups(inc)
        assert np.array_equal(again[0], patterns)
        assert all(np.array_equal(a, b) for a, b in zip(again[1], groups))
        assert len(again[1]) == len(groups)


TABLE_CASES = [
    (Shape(2, 1), 2),
    (Shape(2, 2), 1),
    (Shape(2, 2), 2),
    (Shape(2, 2), 3),
    (Shape(3, 1), 1),
    (Shape(3, 1), 2),
    (Shape(3, 2), 1),
    (Shape(3, 3), 1),
    (Shape(4, 1), 1),
    (Shape(4, 1), 2),
    (Shape(4, 2), 1),
    (Shape(5, 1), 1),
    (Shape(2, 1), 3),
]


def dual(w):
    return tuple(-x for x in reversed(w))


def block_table(length, shape, bound):
    """Pair (a, b) -> Cauchy partition delta -> the blocks n in
    a (x) b (x) delta, read off the rows and incidences of `_incidences`."""
    deltas = degree_deltas(shape, bound)
    table = {}
    for ds, (vals, inc) in zip(deltas, semigroup._incidences(length, bound, shape.q, deltas)):
        assert vals.dtype == np.int8 and inc.shape == (len(vals), len(ds))
        for row, hits in zip(vals.tolist(), inc.tolist()):
            assert any(hits)  # a row meets some component of its degree
            a, b, n = (tuple(row[k * length : (k + 1) * length]) for k in range(3))
            for delta, hit in zip(ds, hits):
                if hit:
                    table.setdefault((a, b), {}).setdefault(delta, set()).add(n)
    return table


class TestBlockTables:
    @pytest.mark.parametrize(
        "shape,bound", TABLE_CASES, ids=[f"U{s.p}{s.q}-b{b}" for s, b in TABLE_CASES]
    )
    def test_match_the_product_oracle(self, shape, bound):
        # The q-table of (a, b) is the p-style table of (a*, b*), mapped
        # back by w* = -reverse(w).
        lr.clear_caches()
        want_p, want_q = oracle.oracle_block_tables(shape, bound)
        lr.clear_caches()
        assert block_table(shape.p, shape, bound) == want_p
        q_table = block_table(shape.q, shape, bound)
        assert {
            (dual(a), dual(b)): {delta: {dual(m) for m in ms} for delta, ms in per_delta.items()}
            for (a, b), per_delta in q_table.items()
        } == want_q


def test_block_table_expands_each_unordered_pair_once(monkeypatch):
    # V_a (x) V_b is V_a0 (x) V_b0 shifted by (a_last + b_last) 1, where
    # w0 = w - w_last 1, and V_a (x) V_b = V_b (x) V_a: the rows of every
    # pair reuse one product per unordered pair of classes {a0, b0}.
    calls = []
    tensor = lr._tensor
    monkeypatch.setattr(lr, "_tensor", lambda a, b: calls.append((a, b)) or tensor(a, b))
    for length, n_pairs in ((3, 120), (1, 1)):
        calls.clear()
        table = block_table(length, Shape(3, 1), 2)
        pairs = [tuple(sorted(c)) for c in calls]
        blocks = semigroup.dominant_box_vectors(length, 2)
        classes = {tuple(x - a[-1] for x in a) for a in blocks}
        assert len(pairs) == len(set(pairs)) == n_pairs
        assert set(pairs) == {tuple(sorted((a, b))) for a in classes for b in classes}
        assert all(table[a, b] == table[b, a] for a, b in table)


class TestAdditivity:
    def test_sum_of_members_is_member(self):
        rng = random.Random(40)
        for shape, bound in [(Shape(1, 1), 2), (Shape(2, 1), 1), (Shape(2, 2), 1)]:
            triples = semigroup.enumerate_semigroup(shape, bound)
            for _ in range(60):
                t1 = rng.choice(triples)
                t2 = rng.choice(triples)
                s = tuple(
                    tuple(a + b for a, b in zip(x, y))
                    for x, y in zip(t1, t2)
                )
                assert symq.horn_membership(*s, shape)
