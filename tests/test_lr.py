"""Littlewood-Richardson engine against an independent Schur oracle."""

import contextlib
import importlib
import io
import itertools
import pkgutil
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import holocone
import oracle
from holocone import lr, polyhedral, reference22, ressayre, schubert, symq, verify
from holocone.weights import Shape, all_weyl_elements


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_weyl_dim_matches_fraction_product(self, n):
        # Every dominant weight of length n with entries in [-3, 3].
        for lam in itertools.product(range(3, -4, -1), repeat=n):
            if list(lam) != sorted(lam, reverse=True):
                continue
            want = Fraction(1)
            for i, j in itertools.combinations(range(n), 2):
                want *= Fraction(lam[i] - lam[j] + j - i, j - i)
            assert lr.weyl_dim(lam) == want

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            lr.lr_coefficient((1, 0), (1, 0, 0), (2, 0))

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            lr.lr_coefficient((0, 1), (1, 0), (1, 1))

    @pytest.mark.parametrize(
        "fn, weights",
        [
            (lr.lr_coefficient, ((1.5, 0), (1, 0), (2.5, 0))),
            (lr.lr_coefficient, ((Fraction(3, 2), 0), (1, 0), (Fraction(5, 2), 0))),
            (lr.triple_multiplicity, ((1.5, 0), (1, 0), (0, 0), (2.5, 0))),
            (lr.tensor_expand, ((Fraction(1, 2), 0), (1, 0))),
            (lr.weyl_dim, ((Fraction(1, 2), 0),)),
            (lr.lr_coefficient, ((float("inf"), 0), (0, 0), (float("inf"), 0))),
        ],
        ids=["lr-1.5", "lr-3/2", "triple-1.5", "tensor-1/2", "weyl_dim-1/2", "lr-inf"],
    )
    def test_non_integral_rejected(self, fn, weights):
        with pytest.raises(ValueError, match="integral"):
            fn(*weights)

    @pytest.mark.parametrize(
        "weights",
        [
            ((1.5,), (1,), (2.5,)),
            ((0, -1), (1,), (1,)),
            ((1,), (0, -1), (1,)),
            ((1,), (1,), (1, 1, -1)),
            ((0, 1), (1,), (1, 1)),
            ((Fraction(1, 2),), (0,), (Fraction(1, 2),)),
        ],
        ids=["non-integral", "lam-negative", "mu-negative", "nu-negative", "increasing",
             "fraction"],
    )
    def test_count_tableaux_takes_only_partitions(self, weights):
        with pytest.raises(ValueError):
            lr.lr_count_tableaux(*weights)

    def test_count_tableaux_of_partitions_of_any_lengths(self):
        # Zeros and lengths do not matter, and integral entries read as ints.
        assert lr.lr_count_tableaux((2, 1), (2, 1, 0), (3, 2, 1)) == 2
        assert lr.lr_count_tableaux((), (1,), (1,)) == 1
        assert lr.lr_count_tableaux((1.0,), (Fraction(1),), (1, 1)) == 1
        cases = [((2, 1), (1,), (3, 1)), ((1, 1), (2,), (2, 2)), ((2,), (2,), (2, 1, 1))]
        for lam, mu, nu in cases:
            want = oracle.oracle_lr_count_tableaux(lam, mu, nu)
            assert lr.lr_count_tableaux(lam, mu, nu) == want

    def test_integral_entries_of_any_type_read_as_ints(self):
        assert lr.lr_coefficient((1.0, 0), (Fraction(1), 0), (2, 0)) == 1
        assert lr.triple_multiplicity((1.0, 0), (1, 0), (0, 0), (2, 0)) == 1
        assert lr.tensor_expand((1.0, 0), (Fraction(1), 0)) == {(2, 0): 1, (1, 1): 1}
        assert lr.weyl_dim((2.0, 0)) == 3


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

    @given(st.data(), st.integers(1, 4), st.sampled_from(["free", "zero", "equal"]))
    @settings(max_examples=300, deadline=None)
    def test_skew_products_match_tableau_counts(self, data, n, second):
        # The duality read of V_lam (x) V_mu off one skew expansion against
        # one content-fixed tableau count per candidate nu.
        def weight():
            parts = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            return tuple(sorted(parts, reverse=True))

        lam = weight()
        mu = {"free": weight, "zero": lambda: (0,) * n, "equal": lambda: lam}[second]()
        assert lr._tensor(lam, mu) == oracle.oracle_tensor_expand(lam, mu)
        assert lr._tensor(mu, lam) == oracle.oracle_tensor_expand(lam, mu)


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


def _partition(data, rows, top, inside=None):
    """A partition with at most `rows` parts and parts <= top, without
    trailing zeros; inside `inside` when that is given."""
    parts, prev = [], top
    for r in range(rows):
        bound = min(prev, inside[r] if r < len(inside) else 0) if inside is not None else prev
        v = data.draw(st.integers(0, bound))
        if v == 0:
            break
        parts.append(v)
        prev = v
    return tuple(parts)


class TestSkew:
    def test_examples(self):
        assert lr._skew((2, 1), (2, 1), 3) == {(): 1}  # empty skew
        assert lr._skew((), (), 2) == {(): 1}
        assert lr._skew((2,), (1, 1), 2) == {}  # kappa not inside nu
        assert lr._skew((2, 1), (1,), 2) == {(2,): 1, (1, 1): 1}
        assert lr._skew((2, 1), (1,), 1) == {(2,): 1}  # maxlen < len(nu)
        assert lr._skew((3, 2, 1), (2, 1), 3) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
        assert lr._skew((1,), (), 0) == {}  # no letters for a nonempty skew
        # One letter is Pieri's rule, so a part of 10^20 takes no walk.
        assert lr._skew((10**20, 5), (7,), 1) == {(10**20 - 2,): 1}

    def test_walk_is_sized_by_the_skew_diagram(self):
        # Only the skew cells of each row are stored, not nu_1 letters.
        lr.clear_caches()
        tracemalloc.start()
        try:
            assert lr.lr_coefficient((10**6, 0), (0, 0), (10**6, 0)) == 1
            assert lr.lr_coefficient((10**6, 1, 0), (1, 1, 0), (10**6, 2, 1)) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @given(st.data(), st.sampled_from(["free", "inside", "equal", "domino"]))
    @settings(max_examples=300, deadline=None)
    def test_one_letter_is_pieris_rule(self, data, how):
        # s_{nu/kappa} with one letter against the tableau count of every
        # d: kappa not inside nu, nu = kappa, horizontal strips and skews
        # holding a vertical domino all occur.
        lr.clear_caches()
        nu = _partition(data, 4, 6)
        if how == "free":
            kappa = _partition(data, 4, 6)
        elif how == "inside":
            kappa = _partition(data, 4, 6, inside=nu)
        elif how == "equal":
            kappa = nu
        else:
            # Remove a vertical domino from nu, then maybe more cells.
            ends = [
                i
                for i in range(len(nu) - 1)
                if nu[i] == nu[i + 1] and (i + 2 == len(nu) or nu[i + 2] < nu[i])
            ]
            assume(ends)
            i = data.draw(st.sampled_from(ends))
            kappa = lr._partition(
                tuple(x - (r in (i, i + 1)) for r, x in enumerate(nu)), 0
            )
            if data.draw(st.booleans()):
                kappa = _partition(data, 4, 6, inside=kappa)
        got = lr._skew(nu, kappa, 1)
        want = {}
        for d in range(sum(nu) + 1):
            c = oracle.oracle_lr_count_tableaux(kappa, (d,), nu)
            if c:
                want[lr._partition((d,), 0)] = c
        assert got == want

    @given(st.data(), st.booleans(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_tableau_counts(self, data, contained, m):
        # c^nu_{kappa,delta} for every partition delta of |nu| - |kappa|
        # with at most m parts; kappa is drawn inside nu or freely, so
        # kappa not inside nu, empty skews and m < len(nu) all occur.
        nu = _partition(data, 4, 5)
        kappa = _partition(data, 4, 5, inside=nu if contained else None)
        got = lr._skew(nu, kappa, m)
        size = sum(nu) - sum(kappa)
        want = {}
        for delta in lr.partitions(size, m) if size >= 0 else ():
            c = oracle.oracle_lr_count_tableaux(kappa, delta, nu)
            if c:
                want[delta] = c
        assert got == want

    def test_two_rows_match_tableau_counts(self):
        # Every nu/kappa with at most two nonempty rows, nu_1 <= 6 and up
        # to 4 rows (so an empty row can part the two), at every maxlen.
        def inside(outer):
            for w in itertools.product(*(range(x + 1) for x in outer)):
                if list(w) == sorted(w, reverse=True):
                    yield w

        lr.clear_caches()
        checked = 0
        for nu in inside((6, 6, 6, 6)):
            nu = lr._partition(nu, 0)
            for kappa in inside(nu):
                if sum(k != x for k, x in zip(kappa, nu)) > 2:
                    continue
                kappa = lr._partition(kappa, 0)
                size = sum(nu) - sum(kappa)
                want = {}
                for delta in lr.partitions(size, len(nu)):
                    c = oracle.oracle_lr_count_tableaux(kappa, delta, nu)
                    if c:
                        want[delta] = c
                for m in range(1, len(nu) + 1):
                    got = lr._skew(nu, kappa, m)
                    assert got == {d: c for d, c in want.items() if len(d) <= m}
                    checked += 1
        assert checked > 1000

    def test_triple_multiplicity_matches_composition(self):
        # sum over kappa of c^kappa_{lam,mu} c^nu_{kappa,delta}, from the
        # validating public functions, on weights with negative parts.
        rng = random.Random(17)
        for _ in range(300):
            n = rng.choice([2, 3])
            lam, mu, delta = (
                tuple(sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True))
                for _ in range(3)
            )
            kappas = lr.tensor_expand(lam, mu)
            nus = {nu for kappa in kappas for nu in lr.tensor_expand(kappa, delta)}
            nu = rng.choice(sorted(nus))
            want = sum(c * lr.lr_coefficient(kappa, delta, nu) for kappa, c in kappas.items())
            assert lr.triple_multiplicity(lam, mu, delta, nu) == want
            assert lr.triple_multiplicity(lam, mu, delta, lr.shift(nu, 1)) == 0


class TestCanonicalCacheKey:
    def test_shifted_weights_add_no_cache_entry(self):
        lr.clear_caches()
        lam, mu, nu = (2, 1, 0), (2, 1, 0), (3, 2, 1)
        assert lr.lr_coefficient(lam, mu, nu) == 2
        entries = dict(lr._skew_cache)
        assert entries
        for a, b in [(1, 0), (0, -2), (-3, 5), (4, 4)]:
            got = lr.lr_coefficient(
                lr.shift(lam, a), lr.shift(mu, b), lr.shift(nu, a + b)
            )
            assert got == 2
            # nu shifted alone has the wrong size: the answer is 0
            assert lr.lr_coefficient(lam, mu, lr.shift(nu, a - b + 1)) == 0
        assert lr._skew_cache == entries

    def test_shifted_tensor_expand_adds_no_cache_entry(self):
        lr.clear_caches()
        lam, mu, delta, nu = (2, 1, 0), (1, 0, 0), (1, 0, 0), (3, 2, 0)
        base = lr.tensor_expand(lam, mu)
        triple = lr.triple_multiplicity(lam, mu, delta, nu)
        assert triple == 2
        entries = dict(lr._skew_cache)
        assert entries
        for a, b in [(1, 0), (0, -2), (-3, 5)]:
            got = lr.tensor_expand(lr.shift(lam, a), lr.shift(mu, b))
            assert got == {lr.shift(k, a + b): c for k, c in base.items()}
            assert lr.triple_multiplicity(
                lr.shift(lam, a), lr.shift(mu, b), delta, lr.shift(nu, a + b)
            ) == triple
        assert lr._skew_cache == entries


    def test_swapped_and_shifted_blocks_reuse_the_triple_memo(self):
        # [V_nu : V_lam (x) V_mu (x) V_delta] is symmetric in lam and mu,
        # so (mu, lam, nu) and shifted weights hit the memo of (lam, mu, nu).
        shape = Shape(3, 3)
        lam, mu, nu = (3, 1, 0, 1, 0, -2), (1, 1, 0, 0, 0, -1), (4, 2, 1, 0, -1, -2)
        lr.clear_caches()
        assert symq.holomorphic_multiplicity(lam, mu, nu, shape) == 6
        entries = dict(lr._triple_cache)
        assert entries
        with mock.patch.object(lr, "_skew_fillings", wraps=lr._skew_fillings) as walks:
            assert symq.holomorphic_multiplicity(mu, lam, nu, shape) == 6
            for a, b in [(1, 0), (0, -2), (-3, 5)]:
                got = symq.holomorphic_multiplicity(
                    lr.shift(lam, a), lr.shift(mu, b), lr.shift(nu, a + b), shape
                )
                assert got == 6
        assert walks.call_count == 0
        assert lr._triple_cache == entries


class TestPartitions:
    @pytest.mark.parametrize("args", [(3, -1), (3, 1.5), (1.5, 2), (-1, 2)])
    def test_refuses_negative_or_non_integer_arguments(self, args):
        with pytest.raises(ValueError):
            lr.partitions(*args)

    def test_no_parts(self):
        assert lr.partitions(0, 0) == [()]
        assert lr.partitions(3, 0) == []


class TestPartitionForm:
    @given(
        st.lists(st.integers(-4, 4), max_size=5),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_shift_then_strip(self, parts, repeats, below):
        # w weakly decreasing, possibly with negative parts, its last entry
        # repeated, and s at most w_last (s = w_last strips every repeat);
        # the empty weight occurs, with s <= 0.
        w = tuple(sorted(parts, reverse=True))
        if w:
            w += (w[-1],) * repeats
        s = lr._last(w) - below
        assert lr._partition(w, s) == oracle._strip_zeros(lr.shift(w, -s))


def _triple_by_oracle(lam, mu, nu, maxlen):
    """sum over rho of c^nu_{lam,rho} c^rho_{mu,delta}, by delta, from
    tableau counts, after shifting lam and mu to end in 0."""
    a, b = lam[-1], mu[-1]
    lam, mu, nu = lr.shift(lam, -a), lr.shift(mu, -b), lr.shift(nu, -a - b)
    out = {}
    if nu[-1] < 0:
        return out
    n = len(nu)
    for rho in lr.partitions(sum(nu) - sum(lam), n) if sum(nu) >= sum(lam) else ():
        c1 = oracle.oracle_lr_count_tableaux(lam, rho, nu)
        if not c1:
            continue
        for delta in lr.partitions(sum(rho) - sum(mu), maxlen) if sum(rho) >= sum(mu) else ():
            c2 = oracle.oracle_lr_count_tableaux(mu, delta, rho)
            if c2:
                out[delta] = out.get(delta, 0) + c1 * c2
    return out


class TestTripleExpand:
    @given(st.data(), st.integers(2, 3), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_matches_two_level_tableau_sum_in_both_orders(self, data, n, maxlen):
        weight = st.lists(st.integers(-2, 3), min_size=n, max_size=n).map(
            lambda w: tuple(sorted(w, reverse=True))
        )
        lam, mu = data.draw(weight), data.draw(weight)
        nu = data.draw(
            st.lists(st.integers(-3, 6), min_size=n, max_size=n).map(
                lambda w: tuple(sorted(w, reverse=True))
            )
        )
        want = _triple_by_oracle(lam, mu, nu, maxlen)
        lr.clear_caches()
        assert lr._triple_expand(lam, mu, nu, maxlen) == want
        lr.clear_caches()
        assert lr._triple_expand(mu, lam, nu, maxlen) == want
        assert lr._triple_expand(lam, mu, nu, maxlen) == want
        # Another letter bound on a warm memo gets its own answer.
        other = n + 1 - maxlen
        assert lr._triple_expand(mu, lam, nu, other) == _triple_by_oracle(lam, mu, nu, other)


def module_memos():
    """Every module-level dict of the package whose name ends in _cache."""
    out = {}
    for info in pkgutil.iter_modules(holocone.__path__):
        module = importlib.import_module(f"holocone.{info.name}")
        for name, value in vars(module).items():
            if name.endswith("_cache") and isinstance(value, dict):
                out[f"{info.name}.{name}"] = value
    return out


class TestClearCaches:
    def test_clearing_leaves_every_memo_empty(self):
        # A verify22 pass and one request of each serve kind fill every
        # memo; the two clear calls a cold start makes empty them all.
        with contextlib.redirect_stderr(io.StringIO()):
            assert verify.verify22(bound=1, out=io.StringIO()) == 0
        s22, s33 = Shape(2, 2), Shape(3, 3)
        ref = reference22.reference_cone()
        triple = ((1, 0, 0, -1), (1, 0, 0, 0), (2, 1, 0, -1))
        symq.holomorphic_multiplicity(*triple, s22)
        assert symq.holomorphic_multiplicity(
            (2, 1, 0, 0, -1, -1), (2, 1, 0, 0, -1, -1), (4, 3, 1, -1, -2, -3), s33
        ) == 18
        polyhedral.cone_member(ref, sum(triple, ()))
        polyhedral.recession_cone(polyhedral.slice_at(ref, triple[0], triple[1])).with_v_rep()
        w = all_weyl_elements(s33)
        ressayre.check_candidate(ressayre.RessayreCandidate((1, 0, 0, 0, 0, -1), w[0], w[1]), s33)
        memos = module_memos()
        assert {
            "lr._skew_cache", "lr._triple_cache", "polyhedral._slice_cache"
        } <= set(memos)
        assert all(memos.values()), [k for k, v in memos.items() if not v]
        lr.clear_caches()
        schubert.clear_caches()
        assert [k for k, v in module_memos().items() if v] == []
