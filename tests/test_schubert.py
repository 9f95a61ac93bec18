"""Schubert calculus: polynomials, products read off by divided
differences, duality, Euler classes, and the Schubert numbers of facet
candidates, checked against the Monk-rule oracle."""

import random
from itertools import product

import pytest

import oracle
from holocone import lr, ressayre, schubert as sc
from holocone.weights import Shape, all_weyl_elements


def full_flag(shape: Shape) -> sc.FlagType:
    return sc.FlagType((1,) * shape.p, (1,) * shape.q)


def basis_class(wp, wq):
    return {(wp, wq): 1}


class TestSchubertPolynomials:
    def test_identity_is_one(self):
        assert sc.schubert_polynomial((0, 1, 2)) == {(0, 0, 0): 1}

    def test_simple_transpositions(self):
        # S_{s_1} = x_1, S_{s_2} = x_1 + x_2
        assert sc.schubert_polynomial((1, 0, 2)) == {(1, 0, 0): 1}
        assert sc.schubert_polynomial((0, 2, 1)) == {
            (1, 0, 0): 1,
            (0, 1, 0): 1,
        }

    def test_longest_element_staircase(self):
        assert sc.schubert_polynomial((2, 1, 0)) == {(2, 1, 0): 1}

    def test_full_s3_table(self):
        # Classical table of the six Schubert polynomials for n = 3.
        table = {
            (0, 1, 2): {(0, 0, 0): 1},
            (1, 0, 2): {(1, 0, 0): 1},
            (0, 2, 1): {(1, 0, 0): 1, (0, 1, 0): 1},
            (1, 2, 0): {(1, 1, 0): 1},
            (2, 0, 1): {(2, 0, 0): 1},
            (2, 1, 0): {(2, 1, 0): 1},
        }
        for w, want in table.items():
            assert sc.schubert_polynomial(w) == want


class TestPermutationHelpers:
    def test_compose_inverse(self):
        rng = random.Random(30)
        for _ in range(50):
            w = tuple(rng.sample(range(4), 4))
            assert sc.compose(w, sc.inverse_perm(w)) == sc.identity_perm(4)

    def test_min_coset_rep(self):
        assert sc.min_coset_rep((2, 0, 1, 3), (2, 2)) == (0, 2, 1, 3)
        assert sc.is_min_coset_rep((0, 2, 1, 3), (2, 2))
        assert not sc.is_min_coset_rep((2, 0, 1, 3), (2, 2))


class TestProducts:
    def test_unit_acts_trivially(self):
        shape = Shape(3, 1)
        f = full_flag(shape)
        rng = random.Random(31)
        for _ in range(20):
            wp = tuple(rng.sample(range(3), 3))
            cls = basis_class(wp, (0,))
            assert (
                sc.schubert_multiply(sc.unit_class(shape), cls, f, shape)
                == cls
            )

    def test_monk_example_u3(self):
        shape = Shape(3, 1)
        f = full_flag(shape)
        s1, s2 = (1, 0, 2), (0, 2, 1)
        got = sc.schubert_multiply(
            basis_class(s1, (0,)), basis_class(s2, (0,)), f, shape
        )
        assert got == {
            ((1, 2, 0), (0,)): 1,
            ((2, 0, 1), (0,)): 1,
        }

    def test_commutative_and_associative(self):
        shape = Shape(3, 1)
        f = full_flag(shape)
        rng = random.Random(32)
        perms = sc.all_perms(3)
        for _ in range(15):
            a = basis_class(rng.choice(perms), (0,))
            b = basis_class(rng.choice(perms), (0,))
            c = basis_class(rng.choice(perms), (0,))
            ab = sc.schubert_multiply(a, b, f, shape)
            ba = sc.schubert_multiply(b, a, f, shape)
            assert ab == ba
            abc1 = sc.schubert_multiply(ab, c, f, shape)
            bc = sc.schubert_multiply(b, c, f, shape)
            abc2 = sc.schubert_multiply(a, bc, f, shape)
            assert abc1 == abc2

    def test_structure_constants_nonnegative(self):
        shape = Shape(3, 1)
        f = full_flag(shape)
        for u in sc.all_perms(3):
            for v in sc.all_perms(3):
                prod = sc.schubert_multiply(
                    basis_class(u, (0,)), basis_class(v, (0,)), f, shape
                )
                assert all(c > 0 for c in prod.values())

    def test_degrees_add(self):
        shape = Shape(3, 1)
        f = full_flag(shape)
        for u in sc.all_perms(3):
            for v in sc.all_perms(3):
                prod = sc.schubert_multiply(
                    basis_class(u, (0,)), basis_class(v, (0,)), f, shape
                )
                want = sc.inversions(u) + sc.inversions(v)
                for (wp, _), _c in prod.items():
                    assert sc.inversions(wp) == want

    def test_rejects_non_min_rep(self):
        shape = Shape(4, 1)
        f = sc.FlagType((2, 2), (1,))
        bad = basis_class((1, 0, 2, 3), (0,))
        with pytest.raises(ValueError):
            sc.schubert_multiply(bad, bad, f, shape)


def gr_perm(lam, k, n):
    """Grassmannian permutation (0-based) of a partition in the k x (n-k) box."""
    lam = tuple(lam) + (0,) * (k - len(lam))
    first = [lam[k - 1 - i] + i for i in range(k)]
    rest = [v for v in range(n) if v not in first]
    return tuple(first) + tuple(rest)


class TestGrassmannian:
    def test_gr24_sigma1_squared(self):
        shape = Shape(4, 1)
        f = sc.FlagType((2, 2), (1,))
        s1 = basis_class(gr_perm((1,), 2, 4), (0,))
        got = sc.schubert_multiply(s1, s1, f, shape)
        want = {
            (gr_perm((2,), 2, 4), (0,)): 1,
            (gr_perm((1, 1), 2, 4), (0,)): 1,
        }
        assert got == want

    def test_agrees_with_lr_rule(self):
        # Exhaustive over Gr(k, n), n <= 5: products in the full-flag
        # model match Littlewood-Richardson numbers inside the box.
        for n in range(2, 6):
            for k in range(1, n):
                shape = Shape(n, 1)
                f = sc.FlagType((k, n - k), (1,))
                box = [
                    lam
                    for lam in _partitions_in_box(k, n - k)
                ]
                for lam in box:
                    for mu in box:
                        prod = sc.schubert_multiply(
                            basis_class(gr_perm(lam, k, n), (0,)),
                            basis_class(gr_perm(mu, k, n), (0,)),
                            f,
                            shape,
                        )
                        for nu in box:
                            want = lr.lr_coefficient(
                                _pad(lam, k), _pad(mu, k), _pad(nu, k)
                            )
                            got = prod.get((gr_perm(nu, k, n), (0,)), 0)
                            assert got == want, (n, k, lam, mu, nu)


def _pad(lam, k):
    return tuple(lam) + (0,) * (k - len(lam))


def _partitions_in_box(rows, cols):
    out = [()]
    cur = [()]
    for _ in range(rows * cols):
        nxt = []
        for p in cur:
            first = p[0] if p else 0
            for v in range(1, cols + 1):
                if not p:
                    nxt.append((v,))
                elif len(p) < rows and v <= p[-1]:
                    nxt.append(p + (v,))
        cur = [q for q in set(nxt)]
        out.extend(cur)
    seen = set()
    uniq = []
    for p in out:
        if p not in seen and len(p) <= rows and all(x <= cols for x in p):
            seen.add(p)
            uniq.append(p)
    return uniq


class TestPoincareDuality:
    def test_full_flag_u3(self):
        shape = Shape(3, 1)
        f = full_flag(shape)
        w0 = sc.longest_perm(3)
        for u in sc.all_perms(3):
            for v in sc.all_perms(3):
                k = sc.point_coefficient(
                    sc.schubert_multiply(
                        basis_class(u, (0,)), basis_class(v, (0,)), f, shape
                    ),
                    f,
                    shape,
                )
                want = 1 if v == sc.compose(w0, u) else 0
                assert k == want

    def test_product_flag_u2_u2(self):
        shape = Shape(2, 2)
        f = full_flag(shape)
        w0 = sc.longest_perm(2)
        perms = sc.all_perms(2)
        for up in perms:
            for uq in perms:
                for vp in perms:
                    for vq in perms:
                        k = sc.point_coefficient(
                            sc.schubert_multiply(
                                basis_class(up, uq),
                                basis_class(vp, vq),
                                f,
                                shape,
                            ),
                            f,
                            shape,
                        )
                        want = (
                            1
                            if vp == sc.compose(w0, up)
                            and vq == sc.compose(w0, uq)
                            else 0
                        )
                        assert k == want

    def test_point_and_unit_coefficients(self):
        shape = Shape(3, 1)
        f = full_flag(shape)
        assert sc.point_coefficient(sc.point_class(f, shape), f, shape) == 1
        assert sc.point_coefficient(sc.unit_class(shape), f, shape) == 0


class TestFlagTypes:
    def test_examples(self):
        s = Shape(2, 2)
        assert sc.flag_type_of((1, 0, 0, 0), s) == sc.FlagType((1, 1), (2,))
        assert sc.flag_type_of((1, 1, 0, 0), s) == sc.FlagType((2,), (2,))

    def test_scale_invariance(self):
        rng = random.Random(33)
        s = Shape(2, 2)
        for _ in range(100):
            g = tuple(rng.randint(-3, 3) for _ in range(4))
            if all(v == 0 for v in g):
                continue
            g3 = tuple(3 * v for v in g)
            assert sc.flag_type_of(g, s) == sc.flag_type_of(g3, s)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sc.flag_type_of((0, 0, 0, 0), Shape(2, 2))

    def test_base_cell_codegree(self):
        # codegree of [X_gamma] counts compact positive roots with
        # negative pairing against gamma, per block.
        from holocone.weights import pairing
        from oracle import compact_positive_roots

        rng = random.Random(34)
        s = Shape(2, 2)
        for _ in range(100):
            g = tuple(rng.randint(-2, 2) for _ in range(4))
            if all(v == 0 for v in g):
                continue
            ((wp, wq),) = sc.class_of_base_cell(g, s).keys()
            want = sum(
                1
                for a in compact_positive_roots(s)
                if pairing(a, g) < 0
            )
            assert sc.inversions(wp) + sc.inversions(wq) == want


class TestEulerClass:
    def test_empty_product_is_unit(self):
        s = Shape(2, 2)
        assert sc.euler_class_q_positive((0, 0, 1, 1), s) == sc.unit_class(s)

    def test_rank_one_point_flag_vanishes(self):
        # Shape (1,1), gamma = (1; 0): one positive weight on a point
        # flag variety; its first Chern class is 0, so the class is 0.
        s = Shape(1, 1)
        assert sc.euler_class_q_positive((1, 0), s) == {}

    def test_homogeneous_of_expected_codegree(self):
        from holocone.weights import pairing
        from oracle import noncompact_positive_roots

        rng = random.Random(35)
        s = Shape(2, 2)
        for _ in range(100):
            g = tuple(rng.randint(-2, 2) for _ in range(4))
            if all(v == 0 for v in g):
                continue
            rank = sum(
                1 for h in noncompact_positive_roots(s) if pairing(h, g) > 0
            )
            cls = sc.euler_class_q_positive(g, s)
            for (wp, wq), _c in cls.items():
                assert sc.inversions(wp) + sc.inversions(wq) == rank

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            sc.euler_class_q_positive((0, 0), Shape(1, 1))


def compositions(n):
    """Every composition of n into positive parts."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, n + 1) for rest in compositions(n - k)]


def min_reps(comp):
    return [w for w in sc.all_perms(sum(comp)) if sc.is_min_coset_rep(w, comp)]


class TestAgainstMonkOracle:
    """The divided-difference kernel against the earlier Monk-rule engine
    (tests/oracle.py): products of multi-term classes of mixed degree,
    Euler classes, and the Schubert numbers of facet candidates."""

    @pytest.mark.parametrize(
        "shape", [Shape(2, 2), Shape(3, 2), Shape(3, 3), Shape(4, 2)], ids=str
    )
    def test_products_over_every_flag_type(self, shape):
        rng = random.Random(36)
        for comp_p in compositions(shape.p):
            for comp_q in compositions(shape.q):
                f = sc.FlagType(comp_p, comp_q)
                basis = [(u, v) for u in min_reps(comp_p) for v in min_reps(comp_q)]
                for _ in range(3):
                    # up to three classes each, coefficients -2, 1, 2 or 3
                    a, b = (
                        {key: rng.choice((-2, 1, 2, 3)) for key in rng.choices(basis, k=3)}
                        for _ in range(2)
                    )
                    got = sc.schubert_multiply(a, b, f, shape)
                    assert got == oracle.oracle_schubert_multiply(a, b, shape), (f, a, b)

    def test_products_of_mixed_degree(self):
        # (x_1 + 2 S_120(x) + 3 y_1)(x_1 + y_1) on the full flags of U(3,2):
        # the product has parts of degree 2 and 3, with coefficients > 1.
        shape = Shape(3, 2)
        f = sc.FlagType((1, 1, 1), (1, 1))
        e, s = (0, 1), (1, 0)
        a = {((1, 0, 2), e): 1, ((1, 2, 0), e): 2, ((0, 1, 2), s): 3}
        b = {((1, 0, 2), e): 1, ((0, 1, 2), s): 1}
        got = sc.schubert_multiply(a, b, f, shape)
        assert got == oracle.oracle_schubert_multiply(a, b, shape)
        assert len({sc.inversions(u) + sc.inversions(v) for u, v in got}) == 2
        assert max(got.values()) > 1

    @pytest.mark.parametrize("shape", [Shape(2, 2), Shape(3, 2), Shape(3, 3)], ids=str)
    def test_euler_class(self, shape):
        rng = random.Random(37)
        for _ in range(60):
            g = tuple(rng.randint(-2, 2) for _ in range(shape.rank))
            if any(g):
                got = sc.euler_class_q_positive(g, shape)
                assert got == oracle.oracle_euler_class(g, shape), g

    @pytest.mark.parametrize("shape", [Shape(2, 2), Shape(3, 1)], ids=str)
    def test_schubert_condition_every_candidate(self, shape):
        ws = all_weyl_elements(shape)
        nonzero = 0
        for g in product((-1, 0, 1), repeat=shape.rank):
            if any(g) and ressayre.admissible(g, shape):
                for w1 in ws:
                    for w2 in ws:
                        c = ressayre.RessayreCandidate(g, w1, w2)
                        k = ressayre.schubert_condition(c, shape)
                        assert k == oracle.oracle_schubert_condition(c, shape), c
                        nonzero += k != 0
        assert nonzero

    def test_schubert_condition_sample_u33(self):
        shape = Shape(3, 3)
        rng = random.Random(38)
        ws = all_weyl_elements(shape)
        gammas = [
            g
            for g in product((-1, 0, 1), repeat=shape.rank)
            if any(g) and ressayre.admissible(g, shape)
        ]
        nonzero = 0
        for _ in range(400):
            c = ressayre.RessayreCandidate(rng.choice(gammas), rng.choice(ws), rng.choice(ws))
            k = ressayre.schubert_condition(c, shape)
            assert k == oracle.oracle_schubert_condition(c, shape), c
            nonzero += k != 0
        assert nonzero
