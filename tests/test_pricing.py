"""Price-curve tests: frozen closed forms, duality with the allocation
curves, chain exactness, and cross-construction consistency."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kselect.cost_model import make_cost_model
from kselect.errors import ValidationError
from kselect.lower_bound import eval_psi, solve_alpha_star, solve_alpha_star_general
from kselect.pricing import (
    build_pricing_scheme,
    build_pricing_scheme_general,
    build_pricing_scheme_k2,
    build_scheme,
    inverse_price,
    price_at,
    prices_for_seeds,
)


def random_high_value_model(rng, k_max: int = 8):
    k = int(rng.integers(1, k_max + 1))
    L = float(rng.uniform(1.0, 3.0))
    U = L * float(rng.uniform(1.2, 8.0))
    ms = np.sort(rng.uniform(0.0, 0.9 * L, size=k))
    return make_cost_model(L=L, U=U, k=k, marginals=[float(x) for x in ms])


def random_general_model(rng, k_max: int = 8):
    k = int(rng.integers(2, k_max + 1))
    L = float(rng.uniform(1.0, 3.0))
    U = L * float(rng.uniform(1.5, 8.0))
    ms = np.sort(rng.uniform(0.0, min(1.8 * L, 0.9 * U), size=k))
    ms[0] = min(ms[0], 0.9 * L)
    return make_cost_model(L=L, U=U, k=k, marginals=[float(x) for x in ms])


@pytest.fixture(scope="module")
def single_unit_scheme():
    # L=1, U=e, c=0: alpha* = 2, xi* = 1/2, phi(s) = e^{2(s - 1/2)} above xi*
    m = make_cost_model(L=1.0, U=math.e, k=1, marginals=[0.0])
    return build_pricing_scheme(m)


class TestSingleUnitClosedForm:
    def test_alpha_and_xi(self, single_unit_scheme):
        sch = single_unit_scheme
        assert sch.alpha_star == pytest.approx(2.0, abs=1e-9)
        assert sch.k_underbar_star == 1
        assert sch.xi_star == pytest.approx(0.5, abs=1e-9)

    def test_curve_values(self, single_unit_scheme):
        sch = single_unit_scheme
        assert price_at(sch, 1, 0.0) == 1.0
        assert price_at(sch, 1, 0.3) == 1.0
        assert price_at(sch, 1, 0.75) == pytest.approx(math.exp(0.5), rel=1e-8)
        assert price_at(sch, 1, 1.0) == pytest.approx(math.e, rel=1e-9)

    def test_guarantee_formula(self, single_unit_scheme):
        # alpha* e^{alpha*/k} = 2 e^2
        assert single_unit_scheme.cr_guarantee == pytest.approx(
            2.0 * math.exp(2.0), rel=1e-8
        )

    def test_inverse_round_trip_and_floor(self, single_unit_scheme):
        sch = single_unit_scheme
        assert inverse_price(sch, 1, math.exp(0.5)) == pytest.approx(0.75, abs=1e-10)
        # at the floor price the supremum seed is xi*, not 0
        assert inverse_price(sch, 1, 1.0) == pytest.approx(0.5, abs=1e-9)
        assert inverse_price(sch, 1, math.e) == 1.0


class TestSchemeShape:
    def test_interval_chain(self):
        rng = np.random.default_rng(31)
        for builder, gen in (
            (build_pricing_scheme, random_high_value_model),
            (build_pricing_scheme_general, random_general_model),
        ):
            for _ in range(8):
                m = gen(rng)
                sch = builder(m)
                ivs = sch.price_intervals
                assert len(ivs) == m.k
                assert ivs[0][0] == m.L
                for (l0, u0), (l1, _) in zip(ivs, ivs[1:]):
                    assert u0 == l1  # shared floats, no tolerance
                assert abs(ivs[-1][1] - m.U) <= 1e-6
                for i in range(1, m.k + 1):
                    assert price_at(sch, i, 0.0) == ivs[i - 1][0]
                    assert price_at(sch, i, 1.0) == ivs[i - 1][1]

    def test_curves_nondecreasing(self):
        rng = np.random.default_rng(37)
        m = random_general_model(rng)
        sch = build_pricing_scheme_general(m)
        grid = np.linspace(0.0, 1.0, 200)
        for i in range(1, m.k + 1):
            vals = [price_at(sch, i, float(s)) for s in grid]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_threshold_unit_floor(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = random_high_value_model(rng)
            sch = build_pricing_scheme(m)
            ku, xi = sch.k_underbar_star, sch.xi_star
            for s in (0.0, 0.5 * xi, xi):
                assert price_at(sch, ku, s) == m.L
            for i in range(1, ku):
                assert price_at(sch, i, 1.0) == m.L

    def test_price_chain_exact_over_sampled_vectors(self):
        rng = np.random.default_rng(43)
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sch = build_pricing_scheme_general(m)
        prices = prices_for_seeds(sch, rng.random((10_000, 10)))
        assert np.all(np.diff(prices, axis=1) >= 0.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(53)
        m = random_general_model(rng)
        sch = build_pricing_scheme_general(m)
        seeds = rng.random((100, m.k))
        vec = prices_for_seeds(sch, seeds)
        for r in range(0, 100, 7):
            for i in range(1, m.k + 1):
                assert vec[r, i - 1] == pytest.approx(
                    price_at(sch, i, float(seeds[r, i - 1])), rel=1e-12
                )

    def test_extreme_seeds(self):
        rng = np.random.default_rng(59)
        m = random_high_value_model(rng)
        sch = build_pricing_scheme(m)
        zeros = prices_for_seeds(sch, np.zeros((1, m.k)))
        ones = prices_for_seeds(sch, np.ones((1, m.k)))
        for i in range(m.k):
            assert zeros[0, i] == sch.price_intervals[i][0]
            assert ones[0, i] == sch.price_intervals[i][1]

    def test_top_price_mean_matches_integral(self):
        # E[phi_k(S)] for a single exponential segment:
        # c_k + (L_k - c_k) (k/alpha)(e^{alpha/k} - 1)
        m = make_cost_model(L=1.0, U=8.0, k=3, marginals=[0.0, 0.0, 0.0])
        sch = build_pricing_scheme(m)
        assert sch.k_underbar_star == 1
        a, k = sch.alpha_star, 3
        assert a == pytest.approx(1.0 + math.log(8.0), abs=1e-9)
        L_k, c_k = sch.price_intervals[-1][0], 0.0
        want = c_k + (L_k - c_k) * (k / a) * (math.exp(a / k) - 1.0)
        rng = np.random.default_rng(61)
        draws = prices_for_seeds(sch, rng.random((100_000, 3)))[:, -1]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - want) <= 3.0 * se


class TestDuality:
    def test_inverse_equals_allocation_curve(self):
        rng = np.random.default_rng(67)
        cases = []
        for _ in range(5):
            m = random_high_value_model(rng)
            cases.append((m, build_pricing_scheme(m), solve_alpha_star(m)))
        for _ in range(5):
            m = random_general_model(rng)
            cases.append((m, build_pricing_scheme_general(m), solve_alpha_star_general(m)))
        for m, sch, sol in cases:
            for _ in range(50):
                i = int(rng.integers(1, m.k + 1))
                v = float(rng.uniform(m.L, m.U))
                assert inverse_price(sch, i, v) == pytest.approx(
                    eval_psi(sol, m, i, v), abs=1e-8
                )

    def test_round_trip_through_ramp_segments(self):
        rng = np.random.default_rng(71)
        for builder, gen in (
            (build_pricing_scheme, random_high_value_model),
            (build_pricing_scheme_general, random_general_model),
        ):
            m = gen(rng)
            sch = builder(m)
            for i in range(1, m.k + 1):
                for seg in sch.segments[i - 1]:
                    if seg.rate == 0.0:
                        continue
                    for t in np.linspace(0.01, 0.99, 25):
                        s = float(seg.s_lo + t * (seg.s_hi - seg.s_lo))
                        v = price_at(sch, i, s)
                        assert inverse_price(sch, i, v) == pytest.approx(s, abs=1e-9)


class TestTwoUnitConstruction:
    def test_first_branch_frozen(self):
        # zero costs, U = e^2: alpha* = 3 >= threshold 2, xi* = 2/3,
        # U_1 = e^{1/2}, guarantee alpha* itself
        m = make_cost_model(L=1.0, U=math.exp(2.0), k=2, marginals=[0.0, 0.0])
        sch = build_pricing_scheme_k2(m)
        assert sch.alpha_star == pytest.approx(3.0, abs=1e-8)
        assert sch.k_underbar_star == 1
        assert sch.xi_star == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert sch.price_intervals[0][1] == pytest.approx(math.exp(0.5), rel=1e-8)
        assert sch.price_intervals[1][1] == m.U
        assert sch.cr_guarantee == sch.alpha_star

    def test_second_branch_pins_first_curve(self):
        # costs hug L and U sits close to L, keeping alpha* under the branch
        # threshold (2L - c1 - c2)/(L - c1) = 1.5
        m = make_cost_model(L=1.0, U=1.03, k=2, marginals=[0.9, 0.95])
        sch = build_pricing_scheme_k2(m)
        sol = solve_alpha_star(m)
        threshold = (2.0 - 0.9 - 0.95) / (1.0 - 0.9)
        assert sch.alpha_star < threshold
        assert sch.k_underbar_star == 2 == sol.k_underbar
        assert 0.0 < sch.xi_star < 1.0
        for s in np.linspace(0.0, 1.0, 20):
            assert price_at(sch, 1, float(s)) == 1.0
        assert price_at(sch, 2, 0.5 * sch.xi_star) == 1.0
        assert price_at(sch, 2, 1.0) == 1.03

    def test_branch_matches_threshold_unit_of_solver(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            m = random_high_value_model(rng)
            if m.k != 2:
                continue
            sch = build_pricing_scheme_k2(m)
            assert sch.k_underbar_star == solve_alpha_star(m).k_underbar

    @pytest.mark.parametrize(
        "marginals,U",
        [([0.0, 0.0], math.exp(2.0)), ([0.9, 0.95], 1.03), ([0.1, 0.4], 3.0)],
    )
    def test_consistent_with_generic_high_value_curves(self, marginals, U):
        m = make_cost_model(L=1.0, U=U, k=2, marginals=marginals)
        a = build_pricing_scheme_k2(m)
        b = build_pricing_scheme(m)
        for i in (1, 2):
            for s in np.linspace(0.0, 1.0, 101):
                assert price_at(a, i, float(s)) == pytest.approx(
                    price_at(b, i, float(s)), abs=1e-8
                )

    def test_near_tie_brackets_agree(self):
        # zero costs with U = e put alpha* within bisection error of the
        # branch threshold; both branches then coincide with the pinned curve
        m = make_cost_model(L=1.0, U=math.e, k=2, marginals=[0.0, 0.0])
        sch = build_pricing_scheme_k2(m)
        for s in np.linspace(0.0, 1.0, 50):
            assert price_at(sch, 1, float(s)) == pytest.approx(1.0, abs=1e-6)
        assert price_at(sch, 2, 1.0) == pytest.approx(math.e, abs=1e-8)

    def test_rejects_wrong_shape(self):
        m1 = make_cost_model(L=1.0, U=3.0, k=1, marginals=[0.0])
        with pytest.raises(ValidationError):
            build_pricing_scheme_k2(m1)
        m_gen = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        with pytest.raises(ValidationError):
            build_pricing_scheme_k2(m_gen)


class TestGeneralConstruction:
    def test_reduces_to_high_value_curves(self):
        rng = np.random.default_rng(79)
        for _ in range(5):
            m = random_high_value_model(rng, k_max=6)
            a = build_pricing_scheme(m)
            b = build_pricing_scheme_general(m)
            assert abs(a.alpha_star - b.alpha_star) <= 1e-6
            for i in range(1, m.k + 1):
                for s in np.linspace(0.0, 1.0, 25):
                    assert price_at(a, i, float(s)) == pytest.approx(
                        price_at(b, i, float(s)), abs=1e-6
                    )

    def test_piece_junctions_are_continuous(self):
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sch = build_pricing_scheme_general(m)
        for i in range(1, 11):
            segs = sch.segments[i - 1]
            for left, right in zip(segs, segs[1:]):
                assert left.v_hi == right.v_lo
                if left.rate:
                    from_left = left.cost + (left.v_lo - left.cost) * math.exp(
                        left.rate * (left.s_hi - left.s_lo)
                    )
                    assert from_left == pytest.approx(right.v_lo, rel=1e-10)
                assert price_at(sch, i, left.s_hi) == right.v_lo

    def test_single_unit_guarantee_formula(self):
        # k=1: max formula collapses to alpha*(1 + (U_1 - c_1)/f*(L))
        m = make_cost_model(L=1.0, U=math.e, k=1, marginals=[0.0])
        sch = build_pricing_scheme_general(m)
        assert sch.cr_guarantee == pytest.approx(2.0 * (1.0 + math.e), rel=1e-6)

    def test_reference_setup_guarantee(self):
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sch = build_pricing_scheme_general(m)
        assert sch.kind == "general"
        assert sch.cr_guarantee > sch.alpha_star
        assert math.isfinite(sch.cr_guarantee)


class TestDispatchAndValidation:
    def test_dispatch_kinds(self):
        m2 = make_cost_model(L=1.0, U=3.0, k=2, marginals=[0.2, 0.4])
        assert build_scheme(m2).kind == "two_unit"
        m3 = make_cost_model(L=1.0, U=3.0, k=3, marginals=[0.2, 0.3, 0.4])
        assert build_scheme(m3).kind == "high_value"
        mg = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        assert build_scheme(mg).kind == "general"

    def test_two_unit_guarantee_beats_generic_factor(self):
        m = make_cost_model(L=1.0, U=3.0, k=2, marginals=[0.2, 0.4])
        sch = build_scheme(m)
        assert sch.cr_guarantee == sch.alpha_star
        assert sch.cr_guarantee < sch.alpha_star * math.exp(sch.alpha_star / 2.0)

    def test_high_value_rejected_by_wrong_builder(self):
        mg = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        with pytest.raises(ValidationError):
            build_pricing_scheme(mg)

    def test_argument_validation(self, single_unit_scheme):
        sch = single_unit_scheme
        with pytest.raises(ValidationError):
            price_at(sch, 0, 0.5)
        with pytest.raises(ValidationError):
            price_at(sch, 2, 0.5)
        with pytest.raises(ValidationError):
            price_at(sch, 1, 1.5)
        with pytest.raises(ValidationError):
            price_at(sch, 1, -0.1)
        with pytest.raises(ValidationError):
            inverse_price(sch, 1, 0.5)
        with pytest.raises(ValidationError):
            inverse_price(sch, 1, 5.0)
        with pytest.raises(ValidationError):
            prices_for_seeds(sch, np.zeros((4, 3)))
        with pytest.raises(ValidationError):
            prices_for_seeds(sch, np.full((4, 1), 1.5))

    def test_degenerate_range_prices_flat(self):
        m = make_cost_model(L=2.0, U=2.0, k=2, marginals=[0.5, 1.0])
        sch = build_scheme(m)
        for i in (1, 2):
            for s in (0.0, 0.4, 1.0):
                assert price_at(sch, i, s) == 2.0
