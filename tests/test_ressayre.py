"""Facet certification: the four conditions, search, and file format."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from holocone import reference22, ressayre, semigroup
from holocone.polyhedral import dot, primitive
from holocone.weights import Shape, WeylElement, all_weyl_elements, identity_weyl


def cand(gamma, w1, w2):
    return ressayre.RessayreCandidate(gamma, w1, w2)


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
        assert ressayre.relation_A(cand((1, 1, 1, 1), e, e), s)

    def test_rank_one_explicit_count(self):
        s = Shape(1, 1)
        e = identity_weyl(s)
        # no compact roots; rhs counts the q-weight e1-e2 against gamma
        assert not ressayre.relation_A(cand((1, -1), e, e), s)
        assert ressayre.relation_A(cand((1, 2), e, e), s)


class TestTraceCondition:
    def test_central_always(self):
        s = Shape(2, 2)
        for w in all_weyl_elements(s)[:6]:
            assert ressayre.trace_condition(
                cand((2, 2, 2, 2), w, w), s
            )

    def test_homogeneous_in_gamma(self):
        s = Shape(2, 2)
        rng = random.Random(50)
        ws = all_weyl_elements(s)
        for _ in range(100):
            g = tuple(rng.randint(-3, 3) for _ in range(4))
            if all(v == 0 for v in g):
                continue
            w1, w2 = rng.choice(ws), rng.choice(ws)
            base = ressayre.trace_condition(cand(g, w1, w2), s)
            for t in (2, 3, Fraction(1, 2)):
                gt = tuple(t * v for v in g)
                assert (
                    ressayre.trace_condition(cand(gt, w1, w2), s) == base
                )


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


class TestSchubertCondition:
    def test_point_flag_with_empty_euler(self):
        # F_gamma a point and q^{gamma>0} empty: all classes are 1, k = 1.
        s = Shape(2, 2)
        e = identity_weyl(s)
        assert ressayre.schubert_condition(cand((1, 1, 2, 2), e, e), s) == 1

    def test_degenerate_euler_rejects(self):
        s = Shape(1, 1)
        e = identity_weyl(s)
        # gamma = (1; 0): point flag but one positive q-weight, Euler = 0.
        assert ressayre.schubert_condition(cand((1, 0), e, e), s) == 0

    def test_requires_admissible(self):
        s = Shape(2, 2)
        e = identity_weyl(s)
        with pytest.raises(ValueError):
            ressayre.schubert_condition(cand((3, 1, 0, 0), e, e), s)


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

    def test_zero_c_block_has_no_certificate(self):
        s = Shape(2, 2)
        assert (
            ressayre.certify_normal(
                (1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), s
            )
            is None
        )


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
