"""Facet certification: the checks of a candidate, search, and file format."""

import hashlib
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracle
from holocone import reference22, ressayre, schubert as sc, semigroup
from holocone.polyhedral import (cone_from_points, dot, facets_of_points, primitive,
                                 reduce_mod_lineality)
from holocone.weights import (Shape, WeylElement, all_weyl_elements, blocks, identity_weyl,
                              longest_weyl, pairing)


def cand(gamma, w1, w2):
    return ressayre.RessayreCandidate(gamma, w1, w2)


def check(gamma, w1, w2, shape):
    return ressayre.check_candidate(cand(gamma, w1, w2), shape)


class TestAdmissible:
    def test_central_gamma(self):
        for shape in [Shape(1, 1), Shape(2, 2)]:
            g = (1,) * shape.rank
            assert ressayre.admissible(g, shape)

    def test_rank_one_generic(self):
        assert ressayre.admissible((1, 0), Shape(1, 1))

    def test_two_two_rank_check(self):
        s = Shape(2, 2)
        # gamma = (1,0;0,0): tight roots e2-e3, e2-e4, e3-e4 (and negatives)
        # span a 2-dim space = span(R_o) cap gamma-perp.
        assert ressayre.admissible((1, 0, 0, 0), s)
        # gamma = (3,1;0,0) leaves only e3-e4: rank 1 < 2.
        assert not ressayre.admissible((3, 1, 0, 0), s)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ressayre.admissible((0, 0), Shape(1, 1))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ressayre.admissible((1, 0, 0), Shape(2, 2))

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_closed_form_matches_rank_oracle(self, data):
        shape = data.draw(
            st.sampled_from(
                [Shape(1, 1), Shape(2, 1), Shape(2, 2), Shape(3, 1), Shape(3, 2), Shape(3, 3)]
            )
        )
        values = st.sampled_from([-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2)])
        gamma = tuple(
            data.draw(st.lists(values, min_size=shape.rank, max_size=shape.rank))
        )
        if not any(gamma):
            return
        assert ressayre.admissible(gamma, shape) == oracle.oracle_admissible(
            gamma, shape.rank
        )

    def test_closed_form_matches_rank_oracle_exhaustive(self):
        for shape in (Shape(2, 1), Shape(2, 2), Shape(3, 2)):
            for gamma in product((-1, 0, Fraction(1, 2), 1), repeat=shape.rank):
                if any(gamma):
                    assert ressayre.admissible(gamma, shape) == (
                        oracle.oracle_admissible(gamma, shape.rank)
                    ), gamma


class TestRelationA:
    def test_central_true(self):
        s = Shape(2, 2)
        e = identity_weyl(s)
        assert check((1, 1, 1, 1), e, e, s)["relation_A"]

    def test_rank_one_explicit_count(self):
        s = Shape(1, 1)
        e = identity_weyl(s)
        # no compact roots; rhs counts the q-weight e1-e2 against gamma
        assert not check((1, -1), e, e, s)["relation_A"]
        assert check((1, 2), e, e, s)["relation_A"]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_is_the_schubert_degree_condition(self, data):
        # For admissible gamma (two values a, b), Relation (A) holds exactly
        # when the codimensions of the cells of gamma, w1.gamma and w2.gamma
        # plus the Euler rank equal dim F_gamma; failing it gives k = 0.
        shape = data.draw(st.sampled_from([Shape(2, 2), Shape(3, 1), Shape(3, 2)]))
        a, b = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
        mask = data.draw(st.lists(st.booleans(), min_size=shape.rank, max_size=shape.rank))
        g = tuple(a if m else b for m in mask)
        assume(any(g))
        w1, w2 = (data.draw(st.sampled_from(all_weyl_elements(shape))) for _ in range(2))
        cells = (g, w1.apply(g, shape), w2.apply(g, shape))
        codim = sum(sc.inversions(sc.cell_class_rep(blk)) for t in cells for blk in blocks(t, shape))
        euler = sum(pairing(h, g) > 0 for h in oracle.noncompact_positive_roots(shape))
        dim = sum(pairing(r, g) != 0 for r in oracle.compact_positive_roots(shape))
        res = ressayre.check_candidate(cand(g, w1, w2), shape)
        assert res["relation_A"] == (codim + euler == dim)
        if not res["relation_A"]:
            assert res["schubert_k"] == 0


class TestTraceCondition:
    def test_central_always(self):
        s = Shape(2, 2)
        for w in all_weyl_elements(s)[:6]:
            assert check((2, 2, 2, 2), w, w, s)["trace_condition"]

    def test_homogeneous_in_gamma(self):
        s = Shape(2, 2)
        rng = random.Random(50)
        ws = all_weyl_elements(s)
        for _ in range(100):
            g = tuple(rng.randint(-3, 3) for _ in range(4))
            if all(v == 0 for v in g):
                continue
            w1, w2 = rng.choice(ws), rng.choice(ws)
            base = check(g, w1, w2, s)["trace_condition"]
            for t in (2, 3, Fraction(1, 2)):
                gt = tuple(t * v for v in g)
                assert check(gt, w1, w2, s)["trace_condition"] == base


class TestClosedFormsAgainstRootLists:
    """Relation (A) (schubert._degree_condition) and the trace sums read
    one list of pair differences (schubert._pair_differences); the oracle
    sums over the explicit root vectors.  The private checks take
    gamma = 0 too, which check_candidate refuses."""

    @pytest.mark.parametrize(
        "shape, values, pairs_per_gamma",
        [
            (Shape(3, 3), (-1, 0, 1), 4),
            (Shape(2, 1), (-1, 0, Fraction(1, 2), 1), None),
            (Shape(3, 2), (-1, 0, 1), 6),
        ],
    )
    def test_every_gamma(self, shape, values, pairs_per_gamma):
        # Every gamma in values^(p+q); all Weyl pairs, or a seeded sample.
        rng = random.Random(52)
        ws = all_weyl_elements(shape)
        w0 = longest_weyl(shape)
        for g in product(values, repeat=shape.rank):
            if pairs_per_gamma is None:
                pairs = list(product(ws, repeat=2))
            else:
                pairs = [(rng.choice(ws), rng.choice(ws)) for _ in range(pairs_per_gamma)]
            f = oracle.oracle_positive_sum(g, shape)
            for w1, w2 in pairs:
                t1, t2 = w1.apply(g, shape), w2.apply(g, shape)
                lhs, rhs = sc._pair_differences(blocks(g, shape), (blocks(t1, shape), blocks(t2, shape)))
                got = sc._degree_condition(lhs, rhs)
                assert got == oracle.oracle_relation_A(g, w1, w2, shape)
                want = f == sum(
                    oracle.oracle_positive_sum(w0.compose(w).apply(g, shape), shape)
                    for w in (w1, w2)
                )
                assert (sum(d for d in lhs if d > 0) == sum(d for d in rhs if d > 0)) == want


class TestScaleInvariance:
    def test_all_predicates(self):
        s = Shape(2, 2)
        rng = random.Random(51)
        ws = all_weyl_elements(s)
        for _ in range(40):
            g = tuple(rng.randint(-2, 2) for _ in range(4))
            if all(v == 0 for v in g):
                continue
            w1, w2 = rng.choice(ws), rng.choice(ws)
            c1 = ressayre.check_candidate(cand(g, w1, w2), s)
            g2 = tuple(3 * v for v in g)
            c2 = ressayre.check_candidate(cand(g2, w1, w2), s)
            assert c1 == c2


class TestWeylConsistency:
    def test_invariance_under_stabilizer_of_gamma(self):
        # With the C-side Weyl element pinned to w0, the residual
        # reparametrization freedom is sigma in the stabilizer of gamma:
        # (gamma, w1 sigma^{-1}, w2 sigma^{-1}) is the same candidate.
        s = Shape(2, 2)
        rng = random.Random(52)
        ws = all_weyl_elements(s)
        for _ in range(60):
            g = tuple(rng.randint(-1, 1) for _ in range(4))
            if all(v == 0 for v in g):
                continue
            stab = [w for w in ws if w.apply(g, s) == g]
            w1, w2 = rng.choice(ws), rng.choice(ws)
            sig = rng.choice(stab)
            base = cand(g, w1, w2)
            moved = cand(
                g, w1.compose(sig.inverse()), w2.compose(sig.inverse())
            )
            assert ressayre.inequality_of(base, s) == ressayre.inequality_of(
                moved, s
            )
            assert ressayre.check_candidate(
                base, s
            ) == ressayre.check_candidate(moved, s)

    @pytest.mark.parametrize("shape", [Shape(2, 2), Shape(3, 1), Shape(3, 2)])
    def test_independent_stabilizer_moves(self, shape):
        # (gamma, w1 s1, w2 s2) with s1, s2 in Stab(gamma) chosen apart:
        # every check reads w only through w.gamma or its Stab(gamma) coset.
        rng = random.Random(53)
        ws = all_weyl_elements(shape)
        for _ in range(60):
            g = tuple(rng.randint(-1, 1) for _ in range(shape.rank))
            if all(v == 0 for v in g):
                continue
            stab = [w for w in ws if w.apply(g, shape) == g]
            w1, w2 = rng.choice(ws), rng.choice(ws)
            s1, s2 = rng.choice(stab), rng.choice(stab)
            assert ressayre.check_candidate(
                cand(g, w1, w2), shape
            ) == ressayre.check_candidate(cand(g, w1.compose(s1), w2.compose(s2)), shape)


class TestSchubertCondition:
    def test_point_flag_with_empty_euler(self):
        # F_gamma a point and q^{gamma>0} empty: all classes are 1, k = 1.
        s = Shape(2, 2)
        e = identity_weyl(s)
        assert check((1, 1, 2, 2), e, e, s)["schubert_k"] == 1

    def test_degenerate_euler_rejects(self):
        s = Shape(1, 1)
        e = identity_weyl(s)
        # gamma = (1; 0): point flag but one positive q-weight, Euler = 0.
        assert check((1, 0), e, e, s)["schubert_k"] == 0

    def test_requires_admissible(self):
        # A gamma of three values gets no Schubert number and no certificate.
        s = Shape(2, 2)
        e = identity_weyl(s)
        res = check((3, 1, 0, 0), e, e, s)
        assert not res["admissible"] and res["schubert_k"] == 0 and not res["certified"]
        assert ressayre.certify_normal(ressayre.inequality_of(cand((3, 1, 0, 0), e, e), s), s) is None


class TestVerdict:
    """certified is admissible and k >= 1.  Relation (A) and the trace
    identity are reported beside it and follow from it."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_relation_A_is_the_trace_identity_for_two_values(self, data):
        # With two values u > v every nonzero pair difference is +-(u - v).
        shape = data.draw(st.sampled_from([Shape(2, 1), Shape(2, 2), Shape(3, 1), Shape(3, 2)]))
        values = st.sampled_from([-2, -1, 0, 1, 2, Fraction(3, 2)])
        a, b = data.draw(st.lists(values, min_size=2, max_size=2, unique=True))
        mask = data.draw(st.lists(st.booleans(), min_size=shape.rank, max_size=shape.rank))
        g = tuple(a if m else b for m in mask)
        assume(any(g))
        w1, w2 = (data.draw(st.sampled_from(all_weyl_elements(shape))) for _ in range(2))
        res = check(g, w1, w2, shape)
        assert res["admissible"]
        assert res["relation_A"] == res["trace_condition"]

    @pytest.mark.parametrize(
        "shape, values", [(Shape(2, 2), (-1, 0, 1)), (Shape(2, 1), (-1, 0, 1, 2))], ids=str
    )
    def test_certified_is_the_four_way_rule(self, shape, values):
        ws = all_weyl_elements(shape)
        certified = 0
        for g in product(values, repeat=shape.rank):
            if any(g):
                for w1, w2 in product(ws, repeat=2):
                    res = check(g, w1, w2, shape)
                    assert res["certified"] == oracle.oracle_certified(res), (g, w1, w2)
                    certified += res["certified"]
        assert certified

    def test_relation_A_without_the_trace_identity(self):
        # gamma of three values: the two reported checks differ.
        s = Shape(2, 1)
        e = identity_weyl(s)
        res = check((2, 0, 1), e, e, s)
        assert res["relation_A"] and not res["trace_condition"]
        assert not res["admissible"] and not res["certified"]


class TestInequalityOf:
    def test_central_gives_sum_functional(self):
        s = Shape(2, 2)
        e = identity_weyl(s)
        got = ressayre.inequality_of(cand((1, 1, 1, 1), e, e), s)
        assert got == (1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1)

    def test_rank_one_facet(self):
        s = Shape(1, 1)
        e = identity_weyl(s)
        got = ressayre.inequality_of(cand((-1, 0), e, e), s)
        assert got == (-1, 0, -1, 0, 1, 0)  # a1 + b1 <= c1


MALFORMED_WEYL = [
    WeylElement((0, 0), (0, 1)),  # a repeated index
    WeylElement((0, 1, 2), (0, 1)),  # a p-block of length 3
    WeylElement((0,), (0, 1)),  # a p-block of length 1
    WeylElement((1, 2), (0, 1)),  # not a permutation of range(2)
    WeylElement((0, 1), (0.0, 1.0)),  # float entries
    ((0, 1),),  # not a pair
    WeylElement((True, 0), (0, 1)),  # a bool entry
    WeylElement((0, 1), (np.int64(1), 0)),  # a numpy int64 entry
    WeylElement((1.0, 0), (0, 1)),  # a 1.0 entry
    WeylElement((0, 1), (1, 1)),  # a repeated index in the q-block
]


@pytest.mark.parametrize("slot", ["w1", "w2"])
@pytest.mark.parametrize("bad", MALFORMED_WEYL, ids=repr)
@pytest.mark.parametrize(
    "predicate",
    [
        ressayre.check_candidate,
        ressayre.inequality_of,
    ],
    ids=lambda f: f.__name__,
)
def test_malformed_weyl_element_is_value_error(predicate, bad, slot):
    s = Shape(2, 2)
    e = identity_weyl(s)
    ws = {"w1": e, "w2": e, slot: bad}
    with pytest.raises(ValueError, match=slot):
        predicate(cand((1, 0, 0, 0), ws["w1"], ws["w2"]), s)


SHORT = (1, 0, 0)  # one entry short of a U(2,2) weight


@pytest.mark.parametrize(
    "call",
    [
        lambda s, e: sc.intersection_number(SHORT, (SHORT, (0, 1, 0)), s),
        lambda s, e: ressayre.check_candidate(cand(SHORT, e, e), s),
        lambda s, e: ressayre.inequality_of(cand(SHORT, e, e), s),
        lambda s, e: ressayre.certify_normal((0, -1, 0, 0, 0, -1, 0, 0, 0, 1, 0), s),
    ],
    ids=["intersection_number", "check_candidate", "inequality_of", "certify_normal"],
)
def test_input_of_the_wrong_length_is_value_error(call):
    # Each public certification entry checks lengths at the boundary;
    # the private kernel behind it checks nothing.
    s = Shape(2, 2)
    with pytest.raises(ValueError):
        call(s, identity_weyl(s))


CHAMBER = ressayre.chamber_facet_normals(Shape(2, 2))[0]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ressayre.is_chamber_facet(CHAMBER + (0,), Shape(2, 2)), "triples"),
        (lambda: ressayre.is_chamber_facet(CHAMBER[:11], Shape(2, 2)), "triples"),
        (lambda: reduce_mod_lineality((1, 0, 0, 5), [(1, 1, 1)]), "length"),
        (lambda: reduce_mod_lineality((1, 0), [(1, 1, 1)]), "length"),
        (lambda: reduce_mod_lineality((1, 0, 0), [(1, 1, 1), (1, 1)]), "length"),
    ],
    ids=["chamber-long", "chamber-short", "reduce-long", "reduce-short", "reduce-second-row"],
)
def test_normal_of_the_wrong_length_is_value_error(call, message):
    # zip would otherwise truncate the longer vector and answer anyway.
    with pytest.raises(ValueError, match=message):
        call()


class TestCertifyNormals:
    def test_rank_one_facet_certificate(self):
        s = Shape(1, 1)
        cert = ressayre.certify_normal((-1, 0, -1, 0, 1, 0), s)
        assert cert is not None and cert.k == 1

    def test_equality_facet_both_orientations(self):
        s = Shape(2, 2)
        eq = reference22.TRACE_EQUALITY
        for nrm in (eq, tuple(-x for x in eq)):
            cert = ressayre.certify_normal(nrm, s)
            assert cert is not None and cert.k == 1
            # central gamma certifies the equality facet
            g = cert.candidate.gamma
            assert len(set(g)) == 1

    def test_sample_cross_facets(self):
        s = Shape(2, 2)
        for nrm in [
            (0, -1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0),  # a2+b2 <= c2
            (0, -1, 0, -1, 0, -1, 0, -1, 1, 0, 0, 1),  # ... <= c1+c4
        ]:
            cert = ressayre.certify_normal(nrm, s)
            assert cert is not None and cert.k >= 1

    def test_certificate_functional_matches_normal(self):
        s = Shape(2, 2)
        eqs = (ressayre.trace_equality_normal(s),)
        from holocone.polyhedral import reduce_mod_lineality

        for nrm in reference22.CROSS_INEQUALITIES:
            cert = ressayre.certify_normal(nrm, s)
            assert cert is not None
            got = ressayre.inequality_of(cert.candidate, s)
            assert reduce_mod_lineality(got, eqs) == reduce_mod_lineality(
                nrm, eqs
            )

    def test_soundness_on_semigroup(self):
        # Certified functionals are nonnegative on every semigroup point.
        s = Shape(2, 2)
        pts = [
            l + m + n
            for (l, m, n) in semigroup.enumerate_semigroup(s, 1)
        ]
        for nrm in reference22.CROSS_INEQUALITIES:
            cert = ressayre.certify_normal(nrm, s)
            fn = ressayre.inequality_of(cert.candidate, s)
            assert all(dot(fn, x) >= 0 for x in pts)

    def test_chamber_facets_classified(self):
        s = Shape(2, 2)
        for nrm in reference22.DOMINANCE_INEQUALITIES:
            assert ressayre.is_chamber_facet(nrm, s)
        for nrm in reference22.CROSS_INEQUALITIES:
            assert not ressayre.is_chamber_facet(nrm, s)
        # dominance facet in a shifted representative
        shifted = tuple(
            a - b
            for a, b in zip(
                (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1),
                reference22.TRACE_EQUALITY,
            )
        )
        assert ressayre.is_chamber_facet(shifted, s)

    def test_chamber_keys_match_per_call_reduction(self):
        def per_call(normal, shape):
            eqs = (ressayre.trace_equality_normal(shape),)
            key = oracle.oracle_reduce_mod(normal, eqs)
            return any(
                key == oracle.oracle_reduce_mod(c, eqs)
                for c in ressayre.chamber_facet_normals(shape)
            )

        rng = random.Random(4)
        for shape in (Shape(1, 1), Shape(2, 1), Shape(2, 2), Shape(3, 1)):
            n = 3 * shape.rank
            trace = ressayre.trace_equality_normal(shape)
            normals = list(ressayre.chamber_facet_normals(shape))
            normals += [tuple(x + 2 * t for x, t in zip(c, trace)) for c in normals]
            normals += [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(200)]
            if shape == Shape(2, 2):
                normals += reference22.CROSS_INEQUALITIES + reference22.DOMINANCE_INEQUALITIES
            for nrm in normals:
                if any(nrm):
                    assert ressayre.is_chamber_facet(nrm, shape) == per_call(nrm, shape)

    def test_zero_c_block_has_no_certificate(self):
        s = Shape(2, 2)
        assert (
            ressayre.certify_normal(
                (1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), s
            )
            is None
        )


def indicator_normals(shape):
    """Every distinct (w1.1_S, w2.1_S, -w0.1_S) over the proper nonempty S."""
    n = shape.rank
    ws = all_weyl_elements(shape)
    out = set()
    for ind in product((0, 1), repeat=n):
        if 0 < sum(ind) < n:
            orbit = {w.apply(ind, shape) for w in ws}
            c = tuple(-x for x in longest_weyl(shape).apply(ind, shape))
            out.update(a + b + c for a in orbit for b in orbit)
    return sorted(out)


SCAN_SHAPES = [Shape(2, 1), Shape(2, 2), Shape(3, 1), Shape(3, 2)]


class TestOnePairPerNormal:
    """certify_normal checks one closed-form Weyl pair; the oracle scans
    them all and must return the same certificate, pair included."""

    def test_indicator_normal_count(self):
        assert sum(len(indicator_normals(s)) for s in SCAN_SHAPES) == 784

    @pytest.mark.parametrize("shape", SCAN_SHAPES, ids=str)
    def test_indicator_normals(self, shape):
        certified = 0
        for nrm in indicator_normals(shape):
            got = ressayre.certify_normal(nrm, shape)
            assert got == oracle.oracle_certify_normal(nrm, shape), nrm
            certified += got is not None
        assert certified

    @pytest.mark.parametrize("shape", SCAN_SHAPES, ids=str)
    def test_box_one_hull_facets(self, shape):
        cone = cone_from_points(semigroup.enumerate_semigroup_points(shape, 1))
        for nrm in cone.inequalities:
            assert ressayre.certify_normal(nrm, shape) == oracle.oracle_certify_normal(nrm, shape)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_integer_normals(self, data):
        shape = data.draw(st.sampled_from([Shape(2, 2), Shape(3, 1)]))
        n = shape.rank
        ints = st.integers(-2, 2)
        g = tuple(data.draw(st.lists(ints, min_size=n, max_size=n)))
        w1, w2 = (data.draw(st.sampled_from(all_weyl_elements(shape))) for _ in range(2))
        nrm = list(w1.apply(g, shape) + w2.apply(g, shape))
        nrm += [-x for x in longest_weyl(shape).apply(g, shape)]
        for i in data.draw(st.lists(st.integers(0, 3 * n - 1), max_size=2)):
            nrm[i] = data.draw(ints)
        nrm = [data.draw(st.integers(1, 3)) * x for x in nrm]
        if any(nrm):
            assert ressayre.certify_normal(nrm, shape) == oracle.oracle_certify_normal(nrm, shape)


# (indicator normals, certified, certified with k = 1, sha256 prefix of
# the repr of the certificates in indicator_normals order) per shape
CERTIFIED_COUNTS = [
    (Shape(2, 1), (18, 5, 5, "75209592ddd43ae7")),
    (Shape(2, 2), (98, 13, 13, "7517016b2b26ba62")),
    (Shape(3, 1), (110, 17, 17, "42b8e03e4aa2c3e8")),
    (Shape(3, 2), (558, 38, 38, "1c9249a548c8d4ca")),
    (Shape(4, 1), (690, 55, 55, "377ca0d784c2c7d6")),
    (Shape(3, 3), (3134, 103, 103, "7b3aa18c02eb7b6d")),
    (Shape(4, 2), (3458, 117, 116, "164582d1bc438f74")),
    (Shape(4, 3), (19374, 314, 311, "747fe11a7608bed9")),
    (Shape(5, 2), (22518, 384, 375, "7bc727ae8134b6e9")),
]


@pytest.mark.parametrize("shape, counts", CERTIFIED_COUNTS, ids=[str(s) for s, _ in CERTIFIED_COUNTS])
def test_certified_indicator_normal_counts(shape, counts):
    certs = [ressayre.certify_normal(nrm, shape) for nrm in indicator_normals(shape)]
    good = [c for c in certs if c is not None]
    sha = hashlib.sha256(repr(good).encode()).hexdigest()[:16]
    assert (len(certs), len(good), sum(c.k == 1 for c in good), sha) == counts


# The box-1 pipeline per shape: (points, facets, equalities, non-chamber
# facets, certified ones, sha256 prefix of the sorted facets and equalities)
BOX_ONE_TABLE = [
    (Shape(3, 2), (10534, 47, 1, 38, 38, "4c9a7849249964ae")),
    (Shape(3, 3), (41947, 115, 1, 103, 103, "e9dd5b4e80c9ba64")),
    (Shape(4, 1), (4040, 64, 1, 55, 55, "c24d18ba509904fb")),
    (Shape(4, 2), (28678, 128, 1, 116, 116, "65b605cdf963c8c1")),
    (Shape(5, 1), (9000, 197, 1, 185, 185, "ba00e63c02b33bdf")),
    (Shape(4, 3), (120442, 326, 1, 311, 311, "3a686d3aa8c4be39")),
    (Shape(5, 2), (65387, 373, 1, 358, 345, "97e530c3f6824ad6")),
]


@pytest.mark.parametrize("shape, row", BOX_ONE_TABLE, ids=[str(s) for s, _ in BOX_ONE_TABLE])
def test_box_one_table(shape, row):
    points = semigroup.enumerate_semigroup_points(shape, 1)
    ineqs, eqs = facets_of_points(points, 3 * shape.rank)
    noncham = [n for n in ineqs if not ressayre.is_chamber_facet(n, shape)]
    certified = sum(ressayre.certify_normal(n, shape) is not None for n in noncham)
    sha = hashlib.sha256(repr((sorted(ineqs), sorted(eqs))).encode()).hexdigest()[:16]
    assert (len(points), len(ineqs), len(eqs), len(noncham), certified, sha) == row


class TestCertificateFiles:
    def test_round_trip(self, tmp_path):
        s = Shape(2, 2)
        normals = [
            (0, -1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0),
            (1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),  # uncertified
        ]
        results = ressayre.search_certificates(s, normals)
        path = tmp_path / "certs.txt"
        ressayre.save_certificates(results, s, path)
        back = ressayre.load_certificates(path)
        assert [n for n, _ in back] == [primitive(n) for n in normals]
        assert back[0][1] is not None and back[0][1].k == results[0][1].k
        assert back[1][1] is None

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("wrong 1\n")
        with pytest.raises(ValueError):
            ressayre.load_certificates(path)


CERT_HEADER = "holocone-certificates 1 p=2 q=2\n"
CERT_LINE = "facet 0,-1,0,0,0,-1,0,0,0,1,0,0 CERTIFIED"
CERT_FIELDS = {"gamma": "0,0,-1,0", "w1": "0,1|0,1", "w2": "1,0|0,1", "k": "1"}


def cert_line(**changes):
    fields = {**CERT_FIELDS, **changes}
    return CERT_LINE + "".join(
        f" {k}={v}" for k, v in fields.items() if v is not None
    ) + "\n"


# Lines that save_certificates never writes, each refused naming its field:
# id -> (line, field).
NEVER_WRITTEN = {
    "gamma-zero": (cert_line(gamma="0,0,0,0"), "gamma"),
    "repeated-k": (cert_line().replace(" k=1", " k=1 k=2"), "'k'"),
    "unknown-field": (cert_line(junk="3"), "'junk'"),
    "field-after-UNCERTIFIED": (CERT_LINE.replace("CERTIFIED", "UNCERTIFIED") + " k=1\n", "'k=1'"),
}


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("", id="empty-file"),
        pytest.param("holocone-certificates\n", id="header-only"),
        pytest.param("holocone-certificates x p=2 q=2\n", id="version-x"),
        pytest.param(CERT_HEADER + "facet 1,0\n", id="two-fields"),
        pytest.param(CERT_HEADER + "facet\n", id="one-field"),
        pytest.param(CERT_HEADER + "edge 1,0 UNCERTIFIED\n", id="not-a-facet"),
        pytest.param(CERT_HEADER + cert_line().replace("CERTIFIED", "MAYBE"), id="unknown-status"),
        pytest.param(CERT_HEADER + "facet 1,x UNCERTIFIED\n", id="normal-x"),
        pytest.param(CERT_HEADER + "facet 1,0.5 UNCERTIFIED\n", id="normal-0.5"),
        *(
            pytest.param(CERT_HEADER + cert_line(**{key: None}), id=f"missing-{key}")
            for key in CERT_FIELDS
        ),
        pytest.param(CERT_HEADER + CERT_LINE + " gamma\n", id="field-without-="),
        pytest.param(CERT_HEADER + cert_line(gamma="0,0,x,0"), id="gamma-x"),
        pytest.param(CERT_HEADER + cert_line(k="1/2"), id="k-1/2"),
        pytest.param(CERT_HEADER + cert_line(w1="0,1"), id="w1-no-bar"),
        pytest.param(CERT_HEADER + cert_line(w1="0,1|0|1"), id="w1-two-bars"),
        pytest.param(CERT_HEADER + cert_line(w2="0,y|0,1"), id="w2-y"),
        pytest.param(CERT_HEADER + cert_line(w2="0,0|0,1"), id="w2-not-a-permutation"),
        pytest.param(CERT_HEADER + "facet 1,0 UNCERTIFIED\n", id="normal-of-the-wrong-length"),
        pytest.param("holocone-certificates 1\n" + cert_line(), id="header-without-shape"),
        pytest.param(CERT_HEADER + cert_line(w1="0,1,2|0,1"), id="w1-of-the-wrong-shape"),
        pytest.param(CERT_HEADER + cert_line(k="0"), id="k-0"),
        pytest.param(CERT_HEADER + cert_line(gamma="0,-1"), id="gamma-of-the-wrong-length"),
        pytest.param(CERT_HEADER + "facet 1_0" + ",0" * 11 + " UNCERTIFIED\n", id="normal-underscore"),
        *(pytest.param(CERT_HEADER + line, id=key) for key, (line, _) in NEVER_WRITTEN.items()),
    ],
)
def test_malformed_certificate_file_is_value_error(tmp_path, text):
    path = tmp_path / "certs.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        ressayre.load_certificates(path)


@pytest.mark.parametrize("line, field", NEVER_WRITTEN.values(), ids=NEVER_WRITTEN)
def test_never_written_line_error_names_its_field(tmp_path, line, field):
    path = tmp_path / "certs.txt"
    path.write_text(CERT_HEADER + line)
    with pytest.raises(ValueError, match=field):
        ressayre.load_certificates(path)


# Headers that save_certificates never writes, each refused naming its
# field: id -> (header, field).
NEVER_WRITTEN_HEADERS = {
    "repeated-p": ("holocone-certificates 1 p=3 q=2 p=2\n", "'p'"),
    "unknown-field": ("holocone-certificates 1 p=2 q=2 junk=3\n", "'junk'"),
    "missing-q": ("holocone-certificates 1 p=2\n", "'q'"),
}


@pytest.mark.parametrize("header, field", NEVER_WRITTEN_HEADERS.values(), ids=NEVER_WRITTEN_HEADERS)
def test_never_written_header_error_names_its_field(tmp_path, header, field):
    path = tmp_path / "certs.txt"
    path.write_text(header + cert_line())
    with pytest.raises(ValueError, match=field):
        ressayre.load_certificates(path)


CERT_TOKENS = st.sampled_from(
    ["facet", "CERTIFIED", "UNCERTIFIED", CERT_LINE.split()[1], "1,0", "gamma", "=", "k=0"]
    + [f"{k}={v}" for k, v in CERT_FIELDS.items()]
)
CERT_LINES = st.one_of(
    st.text(max_size=40),
    st.lists(st.one_of(CERT_TOKENS, st.text(max_size=6)), max_size=8).map(" ".join),
)


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(CERT_LINES, max_size=3))
def test_any_certificate_line_is_read_or_value_error(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("certs") / "certs.txt"
    path.write_text(CERT_HEADER + "\n".join(lines), encoding="utf-8")
    try:
        ressayre.load_certificates(path)
    except ValueError:
        pass


def test_certificate_fixture_line_parses(tmp_path):
    path = tmp_path / "certs.txt"
    path.write_text(CERT_HEADER + cert_line())
    [(normal, cert)] = ressayre.load_certificates(path)
    assert cert.normal == normal and cert.k == 1
    assert cert.candidate.w2 == ressayre.WeylElement((1, 0), (0, 1))


# The text forms of MALFORMED_WEYL a certificate line can hold ("wp|wq",
# 0-based images); each is refused in either Weyl field, naming it.
MALFORMED_WEYL_FIELDS = {
    "repeated-index": "0,0|0,1",
    "p-block-of-length-3": "0,1,2|0,1",
    "p-block-of-length-1": "0|0,1",
    "not-a-permutation-of-range-2": "1,2|0,1",
    "non-integral-entries": "0,1|0.5,1",
    "not-a-pair": "0,1",
    "bool-entry": "True,0|0,1",
    "three-blocks": "0,1|0,1|0,1",
    "fraction-entry": "1/2,0|0,1",
    "repeated-index-in-q-block": "0,1|1,1",
}


@pytest.mark.parametrize("slot", ["w1", "w2"])
@pytest.mark.parametrize("text", MALFORMED_WEYL_FIELDS.values(), ids=MALFORMED_WEYL_FIELDS)
def test_malformed_weyl_field_is_value_error(tmp_path, text, slot):
    path = tmp_path / "certs.txt"
    path.write_text(CERT_HEADER + cert_line(**{slot: text}))
    with pytest.raises(ValueError, match=rf"\b{slot}\b"):
        ressayre.load_certificates(path)
