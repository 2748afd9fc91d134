"""Bound solver tests.

Oracles used here and nowhere else:

* a closed-form sum for the chain endpoint u_k at any alpha (expanding the
  per-unit recursion into powers of e^{alpha/k}), evaluated independently
  of the recursion in the module under test;
* the closed-form high-value chain and its bisection (``closed_form.py``),
  which the package no longer carries;
* hand-solved setups with frozen k_underbar / xi / interval values;
* a hand-derived transcendental equation for one general-regime setup,
  checked as a residual at the solver's alpha.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from closed_form import closed_form_alpha, closed_form_chain

from kselect.cost_model import make_cost_model
from kselect.errors import DegenerateModelError, SolverError, ValidationError
from kselect.lower_bound import (
    _integral_over_pole,
    _solve_u,
    build_intervals,
    build_intervals_general,
    compute_k_underbar,
    compute_xi,
    eval_psi,
    integrate_g,
    solve_alpha_star,
    solve_alpha_star_general,
    verify_equality,
)


def chain_end_closed_form(model, alpha: float) -> float:
    """u_k as a single sum in powers of e^{alpha/k} (high-value only)."""
    k, L, ms = model.k, model.L, model.marginals
    ku = compute_k_underbar(model, alpha)
    xi = compute_xi(model, alpha, ku)
    r = alpha / k
    c = ms[ku - 1]
    total = (L - c) * math.exp(r * (k + 1 - ku - xi)) + c * math.exp(r * (k - ku))
    for i in range(ku + 1, k + 1):
        total += ms[i - 1] * (1.0 - math.exp(r)) * math.exp(r * (k - i))
    return total


def random_high_value_model(rng, k_max: int = 10):
    k = int(rng.integers(1, k_max + 1))
    L = float(rng.uniform(1.0, 3.0))
    U = L * float(rng.uniform(1.2, 8.0))
    ms = np.sort(rng.uniform(0.0, 0.9 * L, size=k))
    return make_cost_model(L=L, U=U, k=k, marginals=[float(x) for x in ms])


def random_general_model(rng, k_max: int = 10):
    k = int(rng.integers(2, k_max + 1))
    L = float(rng.uniform(1.0, 3.0))
    U = L * float(rng.uniform(1.5, 8.0))
    ms = np.sort(rng.uniform(0.0, min(1.8 * L, 0.9 * U), size=k))
    ms[0] = min(ms[0], 0.9 * L)  # keep the setup non-degenerate
    return make_cost_model(L=L, U=U, k=k, marginals=[float(x) for x in ms])


class TestKUnderbarAndXi:
    def test_threshold_moves_with_alpha(self):
        m = make_cost_model(L=1.0, U=3.0, k=2, marginals=[0.25, 0.5])
        # conjugate(L) = 2 - 0.75 = 1.25; first prefix sum is 0.75
        assert compute_k_underbar(m, 1.0) == 2
        assert compute_k_underbar(m, 1.5) == 2  # 1.25 / 1.5 > 0.75
        assert compute_k_underbar(m, 2.0) == 1  # 0.625 <= 0.75
        assert compute_k_underbar(m, 10.0) == 1

    def test_xi_frozen_values(self):
        m = make_cost_model(L=1.0, U=3.0, k=2, marginals=[0.25, 0.5])
        # alpha = 1.6: target 0.78125, head 0.75, denom 0.5
        assert compute_xi(m, 1.6, 2) == pytest.approx(0.0625, abs=1e-15)
        # alpha = 2: k_underbar = 1, xi = 0.625 / 0.75
        assert compute_xi(m, 2.0, 1) == pytest.approx(5.0 / 6.0, rel=1e-14)
        # alpha = 1 exhausts every prefix: tie at xi = 1
        assert compute_xi(m, 1.0, 2) == 1.0

    def test_single_unit_free_production(self):
        m = make_cost_model(L=2.0, U=9.0, k=1, marginals=[0.0])
        for alpha in (1.0, 1.7, 4.0):
            assert compute_k_underbar(m, alpha) == 1
            assert compute_xi(m, alpha, 1) == pytest.approx(1.0 / alpha, rel=1e-14)

    def test_xi_in_unit_interval_and_threshold_minimal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_general_model(rng)
            alpha = float(rng.uniform(1.0, 8.0))
            ku = compute_k_underbar(m, alpha)
            xi = compute_xi(m, alpha, ku)
            assert 0.0 < xi <= 1.0
            # minimality: the prefix one unit shorter must fall below target
            from kselect.cost_model import conjugate

            target = conjugate(m, m.L) / alpha
            if ku > 1:
                head = sum(m.L - c for c in m.marginals[: ku - 1])
                assert head < target

    def test_degenerate_floor_cost(self):
        m = make_cost_model(L=1.0, U=3.0, k=2, marginals=[1.0, 1.5])
        with pytest.raises(DegenerateModelError):
            compute_k_underbar(m, 2.0)
        with pytest.raises(DegenerateModelError):
            solve_alpha_star_general(m)

    def test_alpha_validation(self):
        m = make_cost_model(L=1.0, U=3.0, k=1, marginals=[0.0])
        for bad in (0.5, 0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                compute_k_underbar(m, bad)
            with pytest.raises(ValidationError):
                compute_xi(m, bad, 1)
        with pytest.raises(ValidationError):
            compute_xi(m, 2.0, 0)
        with pytest.raises(ValidationError):
            compute_xi(m, 2.0, 2)


class TestExactIntegration:
    def test_integrate_g_frozen(self):
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        assert integrate_g(m, 1.0, 4.0) == pytest.approx(5.0, abs=1e-15)
        assert integrate_g(m, 1.0, 1.5) == pytest.approx(0.5, abs=1e-15)
        assert integrate_g(m, 2.5, 3.0) == pytest.approx(1.0, abs=1e-15)
        assert integrate_g(m, 3.0, 3.0) == 0.0

    def test_pole_integral_frozen(self):
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        want = math.log(3.0) + 2.0 * math.log(3.5 / 1.5)
        assert _integral_over_pole(m, 0.5, 1.0, 4.0) == pytest.approx(want, rel=1e-14)

    def test_solve_u_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = random_general_model(rng)
            c = float(m.marginals[int(rng.integers(0, m.k))])
            a = c + float(rng.uniform(0.05, 2.0))
            target = float(rng.uniform(0.0, 6.0))
            u = _solve_u(m, c, a, target)
            assert u >= a
            back = _integral_over_pole(m, c, a, u)
            assert back == pytest.approx(target, rel=1e-10, abs=1e-10)

    def test_solve_u_zero_target_is_identity(self):
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        assert _solve_u(m, 0.5, 1.25, 0.0) == pytest.approx(1.25, rel=1e-15)


class TestChainsAtFixedAlpha:
    def test_closed_form_sum_matches_recursion(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = random_high_value_model(rng)
            alpha = float(rng.uniform(1.0, 6.0))
            sol = build_intervals(m, alpha)
            assert sol.intervals[-1][1] == pytest.approx(
                chain_end_closed_form(m, alpha), rel=1e-10
            )

    def test_general_route_agrees_on_high_value_setups(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            m = random_high_value_model(rng)
            alpha = float(rng.uniform(1.0, 6.0))
            ku, xi, intervals = closed_form_chain(m, alpha)
            b = build_intervals_general(m, alpha)
            assert ku == b.k_underbar
            assert xi == pytest.approx(b.xi, abs=1e-12)
            for (la, ua), (lb, ub) in zip(intervals, b.intervals):
                assert la == pytest.approx(lb, rel=1e-9)
                assert ua == pytest.approx(ub, rel=1e-9)

    def test_chain_is_contiguous_and_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            m = random_general_model(rng)
            sol = solve_alpha_star_general(m)
            assert sol.intervals[0][0] == m.L
            for (l0, u0), (l1, _) in zip(sol.intervals, sol.intervals[1:]):
                assert u0 == l1
                assert u0 > l0
            for (ell, u), i in zip(sol.intervals, range(sol.k_underbar, m.k + 1)):
                assert ell > m.marginals[i - 1] or (
                    i == sol.k_underbar and ell == m.L
                )

    def test_frozen_zero_cost_chain(self):
        # k = 2, free production, alpha = 2: the threshold ties (xi = 1) and
        # the chain is (L, L), (L, L e).
        m = make_cost_model(L=1.0, U=math.e, k=2, marginals=[0.0, 0.0])
        sol = build_intervals(m, 2.0)
        assert sol.k_underbar == 1
        assert sol.xi == 1.0
        assert sol.intervals[0] == (1.0, 1.0)
        assert sol.intervals[1][1] == pytest.approx(math.e, rel=1e-15)

    def test_general_route_rejects_infeasible_alpha(self):
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        # the second interval cannot open until alpha exceeds 1 + ln 3
        with pytest.raises(ValidationError):
            build_intervals_general(m, 1.5)
        build_intervals_general(m, 2.3)  # feasible


class TestSolver:
    def test_single_unit_closed_form(self):
        # c = 0: alpha* = 1 + ln(U/L); with U/L = e the bound is exactly 2
        m = make_cost_model(L=1.0, U=math.e, k=1, marginals=[0.0])
        sol = solve_alpha_star(m)
        assert sol.alpha == pytest.approx(2.0, abs=1e-9)
        m2 = make_cost_model(L=2.0, U=14.0, k=1, marginals=[0.0])
        assert solve_alpha_star(m2).alpha == pytest.approx(1.0 + math.log(7.0), abs=1e-9)

    def test_zero_cost_k2_matches_single_unit(self):
        m = make_cost_model(L=1.0, U=math.e, k=2, marginals=[0.0, 0.0])
        sol = solve_alpha_star(m)
        assert sol.alpha == pytest.approx(2.0, abs=1e-8)

    def test_endpoint_hits_u(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = random_general_model(rng)
            sol = solve_alpha_star_general(m)
            assert abs(sol.intervals[-1][1] - m.U) <= 1e-8
        for _ in range(40):
            m = random_high_value_model(rng)
            sol = solve_alpha_star(m)
            assert abs(sol.intervals[-1][1] - m.U) <= 1e-8

    def test_routes_agree_on_alpha(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            m = random_high_value_model(rng, k_max=8)
            alpha = closed_form_alpha(m)
            ku, xi, _ = closed_form_chain(m, alpha)
            b = solve_alpha_star_general(m)
            assert abs(alpha - b.alpha) <= 1e-6
            assert ku == b.k_underbar
            assert xi == pytest.approx(b.xi, abs=1e-6)
            assert solve_alpha_star(m).alpha == b.alpha

    def test_general_route_scales_to_large_k(self):
        # c_k ~ 2 > L: most units walk several g-pieces; the walk carries its
        # piece index, so the bisection stays linear in k per step
        m = make_cost_model(L=1.0, U=30.0, k=2000, quadratic_coeff=1.0 / 2000.0)
        assert not m.high_value
        started = time.perf_counter()
        sol = solve_alpha_star_general(m)
        assert time.perf_counter() - started < 2.0
        assert abs(sol.intervals[-1][1] - m.U) <= 1e-8

    def test_general_setup_hand_equation(self):
        # L=1, U=4, c=(0.5, 2): for alpha above 1 + ln 3,
        #   u_1 = 0.5 + 1.5 e^{(alpha - 1 - ln 3)/2},
        #   u_2 = 2 + (u_1 - 2) e^{alpha/2},
        # so alpha* satisfies (e^{(alpha - 1 - ln3)/2} - 1) e^{alpha/2} = 4/3.
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        sol = solve_alpha_star_general(m)
        a = sol.alpha
        assert a > 1.0 + math.log(3.0)
        resid = (math.exp((a - 1.0 - math.log(3.0)) / 2.0) - 1.0) * math.exp(a / 2.0) - 4.0 / 3.0
        assert abs(resid) <= 1e-7
        assert sol.k_underbar == 1
        assert sol.xi == pytest.approx(1.0 / a, rel=1e-12)

    def test_degenerate_interval_u_equals_l(self):
        m = make_cost_model(L=2.0, U=2.0, k=2, marginals=[0.5, 1.0])
        for sol in (solve_alpha_star(m), solve_alpha_star_general(m)):
            assert sol.alpha == 1.0
            assert any("U == L" in n for n in sol.notes)
            assert all(iv == (2.0, 2.0) for iv in sol.intervals)

    def test_top_unit_priced_out_raises(self):
        # c_k >= U: the last unit can never sell, so no chain ends at U
        m = make_cost_model(L=1.0, U=2.0, k=2, marginals=[0.5, 2.5])
        with pytest.raises(SolverError, match="cannot terminate at U"):
            solve_alpha_star_general(m)
        m_eq = make_cost_model(L=1.0, U=2.0, k=2, marginals=[0.5, 2.0])
        with pytest.raises(SolverError):
            solve_alpha_star_general(m_eq)

    def test_bad_tolerance(self):
        m = make_cost_model(L=1.0, U=3.0, k=1, marginals=[0.0])
        with pytest.raises(ValidationError):
            solve_alpha_star(m, tol=0.0)

    def test_wrong_regime_rejected(self):
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        with pytest.raises(ValidationError):
            solve_alpha_star(m)
        with pytest.raises(ValidationError):
            build_intervals(m, 2.0)

    def test_guarantee_decays_with_capacity(self):
        # same cost ladder shape, growing k: the per-step factor e^{alpha*/k}
        # must fall strictly (more units means more room to hedge)
        factors = []
        for k in (2, 3, 5, 8):
            ms = [(2 * i - 1) / 59.0 for i in range(1, k + 1)]
            m = make_cost_model(L=1.0, U=10.0, k=k, marginals=ms)
            sol = solve_alpha_star(m)
            factors.append(math.exp(sol.alpha / k))
        assert all(a > b for a, b in zip(factors, factors[1:]))

    def test_reference_large_setup_solves(self):
        # k=10, quadratic ladder reaching above L: general regime
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        assert not m.high_value
        sol = solve_alpha_star_general(m)
        assert abs(sol.intervals[-1][1] - 30.0) <= 1e-8
        assert sol.alpha > 1.0
        assert verify_equality(sol, m, grid_size=400) <= 1e-6


class TestPsi:
    def test_constant_below_threshold_and_ramp_above(self):
        m = make_cost_model(L=1.0, U=3.0, k=3, marginals=[0.1, 0.2, 0.3])
        sol = solve_alpha_star(m)
        for i in range(1, sol.k_underbar):
            assert eval_psi(sol, m, i, m.L) == 1.0
            assert eval_psi(sol, m, i, m.U) == 1.0
        assert eval_psi(sol, m, sol.k_underbar, m.L) == pytest.approx(
            min(1.0, sol.xi), abs=1e-15
        )
        for i in range(sol.k_underbar + 1, m.k + 1):
            ell, u = sol.interval(i)
            assert eval_psi(sol, m, i, ell) == 0.0
            if u <= m.U:
                assert eval_psi(sol, m, i, u) >= 1.0 - 1e-9

    def test_monotone_and_clamped(self):
        rng = np.random.default_rng(17)
        for solver, gen in (
            (solve_alpha_star, random_high_value_model),
            (solve_alpha_star_general, random_general_model),
        ):
            for _ in range(10):
                m = gen(rng, k_max=6)
                sol = solver(m)
                grid = np.linspace(m.L, m.U, 120)
                for i in range(1, m.k + 1):
                    vals = [eval_psi(sol, m, i, float(v)) for v in grid]
                    assert all(0.0 <= p <= 1.0 for p in vals)
                    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
                # the top unit must exhaust exactly at U
                assert eval_psi(sol, m, m.k, m.U) >= 1.0 - 1e-8

    def test_frozen_log_curve(self):
        m = make_cost_model(L=1.0, U=math.e, k=2, marginals=[0.0, 0.0])
        sol = build_intervals(m, 2.0)
        assert eval_psi(sol, m, 1, 1.7) == 1.0  # xi = 1: unit 1 saturated at L
        assert eval_psi(sol, m, 2, math.sqrt(math.e)) == pytest.approx(0.5, rel=1e-12)
        assert eval_psi(sol, m, 2, math.e) == pytest.approx(1.0, rel=1e-12)

    def test_input_validation(self):
        m = make_cost_model(L=1.0, U=3.0, k=2, marginals=[0.2, 0.4])
        sol = solve_alpha_star(m)
        with pytest.raises(ValidationError):
            eval_psi(sol, m, 0, 2.0)
        with pytest.raises(ValidationError):
            eval_psi(sol, m, 3, 2.0)
        with pytest.raises(ValidationError):
            eval_psi(sol, m, 1, 0.5)
        with pytest.raises(ValidationError):
            sol.interval(3)


class TestWelfareIdentity:
    def test_residual_small_at_bound_and_above(self):
        rng = np.random.default_rng(29)
        models = [random_high_value_model(rng, k_max=6) for _ in range(3)]
        models += [make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])]
        for m in models:
            if m.high_value:
                sol = solve_alpha_star(m)
                above = build_intervals(m, sol.alpha + 0.5)
            else:
                sol = solve_alpha_star_general(m)
                above = build_intervals_general(m, sol.alpha + 0.5)
            assert verify_equality(sol, m, grid_size=500) <= 1e-6
            assert verify_equality(above, m, grid_size=500) <= 1e-6

    def test_degenerate_interval_residual(self):
        m = make_cost_model(L=2.0, U=2.0, k=2, marginals=[0.5, 1.0])
        sol = solve_alpha_star(m)
        assert verify_equality(sol, m, grid_size=10) <= 1e-12

    def test_grid_validation(self):
        m = make_cost_model(L=1.0, U=3.0, k=1, marginals=[0.0])
        sol = solve_alpha_star(m)
        with pytest.raises(ValidationError):
            verify_equality(sol, m, grid_size=1)
