"""Bound solver tests.

Oracles used here and nowhere else:

* a closed-form sum for the chain endpoint u_k at any alpha (expanding the
  per-unit recursion into powers of e^{alpha/k}), evaluated independently
  of the recursion in the module under test;
* the closed-form high-value chain and its bisection (``closed_form.py``),
  which the package no longer carries;
* the float-by-float bisection on alpha (``closed_form.bisect_alpha``),
  which the solver's ITP search must match bit for bit;
* the root of the same chain walked in 40-digit arithmetic
  (``mp_chain.MpChain``), which bounds the solver's alpha error in ulps;
* hand-solved setups with frozen k_underbar / xi / interval values;
* a hand-derived transcendental equation for one general-regime setup,
  checked as a residual at the solver's alpha;
* the exact expected welfare of the curves (``exact_welfare.py``) on the
  staged adversary family ``hard_instance``.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import time
from array import array

import numpy as np
import pytest
from closed_form import (
    bisect_alpha,
    closed_form_alpha,
    closed_form_chain,
    scan_k_underbar,
    scan_xi,
)
from exact_welfare import dynamic_welfare

from kselect import lower_bound
from kselect.cost_model import conjugate, make_cost_model
from kselect.errors import DegenerateModelError, SolverError, ValidationError
from kselect.instances import hard_instance
from kselect.lower_bound import (
    DEFAULT_TOL,
    _rises,
    build_intervals,
    chain_residual,
    eval_psi,
    solve_alpha_star,
    threshold,
)


def chain_end_closed_form(model, alpha: float) -> float:
    """u_k as a single sum in powers of e^{alpha/k} (high-value only)."""
    k, L, ms = model.k, model.L, model.marginals
    ku, xi = threshold(model, alpha)
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
        assert threshold(m, 1.0)[0] == 2
        assert threshold(m, 1.5)[0] == 2  # 1.25 / 1.5 > 0.75
        assert threshold(m, 2.0)[0] == 1  # 0.625 <= 0.75
        assert threshold(m, 10.0)[0] == 1

    def test_xi_frozen_values(self):
        m = make_cost_model(L=1.0, U=3.0, k=2, marginals=[0.25, 0.5])
        # alpha = 1.6: target 0.78125, head 0.75, denom 0.5
        assert threshold(m, 1.6) == (2, pytest.approx(0.0625, abs=1e-15))
        # alpha = 2: k_underbar = 1, xi = 0.625 / 0.75
        assert threshold(m, 2.0) == (1, pytest.approx(5.0 / 6.0, rel=1e-14))
        # alpha = 1 exhausts every prefix: tie at xi = 1
        assert threshold(m, 1.0) == (2, 1.0)

    def test_single_unit_free_production(self):
        m = make_cost_model(L=2.0, U=9.0, k=1, marginals=[0.0])
        for alpha in (1.0, 1.7, 4.0):
            assert threshold(m, alpha) == (1, pytest.approx(1.0 / alpha, rel=1e-14))

    def test_xi_in_unit_interval_and_threshold_minimal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_general_model(rng)
            alpha = float(rng.uniform(1.0, 8.0))
            ku, xi = threshold(m, alpha)
            assert 0.0 < xi <= 1.0
            # minimality: the prefix one unit shorter must fall below target
            target = conjugate(m, m.L) / alpha
            if ku > 1:
                head = sum(m.L - c for c in m.marginals[: ku - 1])
                assert head < target

    def test_prefix_table_matches_the_scan(self):
        # bit for bit, on setups with ties, costs exactly at L and above it,
        # and at alphas whose target lands on a prefix sum
        rng = np.random.default_rng(2026)
        for _ in range(300):
            k = int(rng.integers(1, 60))
            L = float(rng.uniform(1.0, 3.0))
            ms = rng.uniform(0.0, float(rng.choice([0.9, 1.5, 3.0])) * L, size=k)
            if rng.random() < 0.5:
                ms = rng.choice(np.append(ms[: max(1, k // 3)], L), size=k)
            ms = np.sort(ms)
            ms[0] = min(ms[0], 0.9 * L)
            m = make_cost_model(L=L, U=4.0 * L, k=k, marginals=ms.tolist())
            top = conjugate(m, L)
            on_prefix = [top / p for p in m.floor_prefix if p > 0.0 and top / p >= 1.0]
            alphas = [1.0, *rng.uniform(1.0, 30.0, size=4).tolist(), *on_prefix[:6]]
            for alpha in alphas:
                ku, xi = threshold(m, alpha)
                assert ku == scan_k_underbar(m, alpha)
                assert xi.hex() == scan_xi(m, alpha, ku).hex()

    def test_degenerate_floor_cost(self):
        m = make_cost_model(L=1.0, U=3.0, k=2, marginals=[1.0, 1.5])
        with pytest.raises(DegenerateModelError):
            threshold(m, 2.0)
        with pytest.raises(DegenerateModelError):
            solve_alpha_star(m)

    def test_alpha_validation(self):
        m = make_cost_model(L=1.0, U=3.0, k=1, marginals=[0.0])
        for bad in (0.5, 0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                threshold(m, bad)


class TestExactIntegration:
    def test_conjugate_rise_frozen(self):
        # the integral of g over [a, b] is the rise of the conjugate
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        assert conjugate(m, 4.0) - conjugate(m, 1.0) == pytest.approx(5.0, abs=1e-15)
        assert conjugate(m, 1.5) - conjugate(m, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert conjugate(m, 3.0) - conjugate(m, 2.5) == pytest.approx(1.0, abs=1e-15)
        assert conjugate(m, 3.0) - conjugate(m, 3.0) == 0.0

    def test_pole_integral_frozen(self):
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        want = math.log(3.0) + 2.0 * math.log(3.5 / 1.5)
        assert _rises(m, [0.5], [1.0], [4.0])[0] == pytest.approx(want, rel=1e-14)

    def test_first_unit_round_trip(self):
        # the walk's first unit integrates g(eta) / (eta - c) from L up to
        # alpha (1 - xi); integrating back over its interval gives the target
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = random_general_model(rng)
            alpha = solve_alpha_star(m).alpha * float(rng.uniform(1.0, 2.5))
            sol = build_intervals(m, alpha)
            c = m.marginals[sol.k_underbar - 1]
            ell, u = sol.intervals[0]
            assert ell == m.L and u >= ell
            back = _rises(m, [c], [ell], [u])[0]
            assert back == pytest.approx(alpha * (1.0 - sol.xi), rel=1e-10, abs=1e-10)

    def test_first_unit_zero_target_is_identity(self):
        # xi = 1 at alpha = 2 (conjugate(L) / 2 = 0.75 = L - c_1): the first
        # unit's target alpha (1 - xi) is 0, so its interval is [L, L]
        m = make_cost_model(L=1.25, U=4.0, k=2, marginals=[0.5, 0.5])
        sol = build_intervals(m, 2.0)
        assert (sol.k_underbar, sol.xi) == (1, 1.0)
        assert sol.intervals[0][1] == pytest.approx(1.25, rel=1e-15)


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
            b = build_intervals(m, alpha)
            assert ku == b.k_underbar
            assert xi == pytest.approx(b.xi, abs=1e-12)
            for (la, ua), (lb, ub) in zip(intervals, b.intervals):
                assert la == pytest.approx(lb, rel=1e-9)
                assert ua == pytest.approx(ub, rel=1e-9)

    def test_chain_is_contiguous_and_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            m = random_general_model(rng)
            sol = solve_alpha_star(m)
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
        assert sol.interval(1) == (1.0, 1.0)
        assert sol.intervals[1][1] == pytest.approx(math.e, rel=1e-15)

    def test_general_route_rejects_infeasible_alpha(self):
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        # the second interval cannot open until alpha exceeds 1 + ln 3
        with pytest.raises(ValidationError):
            build_intervals(m, 1.5)
        build_intervals(m, 2.3)  # feasible


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
            sol = solve_alpha_star(m)
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
            b = solve_alpha_star(m)
            assert abs(alpha - b.alpha) <= 1e-6
            assert ku == b.k_underbar
            assert xi == pytest.approx(b.xi, abs=1e-6)

    def test_general_route_scales_to_large_k(self):
        # c_k ~ 2 > L: most units walk several g-pieces; the walk carries its
        # piece index, so the bisection stays linear in k per step
        m = make_cost_model(L=1.0, U=30.0, k=2000, quadratic_coeff=1.0 / 2000.0)
        assert not m.high_value
        started = time.perf_counter()
        sol = solve_alpha_star(m)
        assert time.perf_counter() - started < 2.0
        assert abs(sol.intervals[-1][1] - m.U) <= 1e-8

    def test_general_setup_hand_equation(self):
        # L=1, U=4, c=(0.5, 2): for alpha above 1 + ln 3,
        #   u_1 = 0.5 + 1.5 e^{(alpha - 1 - ln 3)/2},
        #   u_2 = 2 + (u_1 - 2) e^{alpha/2},
        # so alpha* satisfies (e^{(alpha - 1 - ln3)/2} - 1) e^{alpha/2} = 4/3.
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        sol = solve_alpha_star(m)
        a = sol.alpha
        assert a > 1.0 + math.log(3.0)
        resid = (math.exp((a - 1.0 - math.log(3.0)) / 2.0) - 1.0) * math.exp(a / 2.0) - 4.0 / 3.0
        assert abs(resid) <= 1e-7
        assert sol.k_underbar == 1
        assert sol.xi == pytest.approx(1.0 / a, rel=1e-12)

    def test_degenerate_interval_u_equals_l(self):
        m = make_cost_model(L=2.0, U=2.0, k=2, marginals=[0.5, 1.0])
        sol = solve_alpha_star(m)
        assert sol.alpha == 1.0
        assert any("U == L" in n for n in sol.notes)
        assert sol.intervals.tolist() == [[2.0, 2.0]] * (m.k - sol.k_underbar + 1)

    def test_top_unit_priced_out_raises(self):
        # c_k >= U: the last unit can never sell, so no chain ends at U; with
        # U == L too (c_k = U == L is the flat range, alpha fixed at 1)
        for L, U, c_k in ((1.0, 2.0, 2.5), (2.0, 2.0, 3.0)):
            m = make_cost_model(L=L, U=U, k=2, marginals=[0.5, c_k])
            with pytest.raises(SolverError, match="cannot terminate at U"):
                solve_alpha_star(m)
        m_eq = make_cost_model(L=1.0, U=2.0, k=2, marginals=[0.5, 2.0])
        with pytest.raises(SolverError):
            solve_alpha_star(m_eq)

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
        sol = solve_alpha_star(m)
        assert m.regime == "general"
        assert abs(sol.intervals[-1][1] - 30.0) <= 1e-8
        assert sol.alpha > 1.0
        assert chain_residual(sol, m) <= 1e-9


def random_edge_model(rng, kind: str):
    """Setups at the edges of the solver's range, by ``kind``: one unit, two
    units, a tied ladder, or U just above L."""
    L = float(rng.uniform(1.0, 3.0))
    if kind == "k1":
        c = float(rng.uniform(0.0, 0.99 * L))
        return make_cost_model(L=L, U=L * float(rng.uniform(1.001, 10.0)), k=1, marginals=[c])
    if kind == "k2":
        ms = sorted(float(x) for x in rng.uniform(0.0, 1.5 * L, size=2))
        ms[0] = min(ms[0], 0.9 * L)
        return make_cost_model(L=L, U=L * float(rng.uniform(2.0, 6.0)), k=2, marginals=ms)
    k = int(rng.integers(2, 20))
    if kind == "tied":
        ms = [float(rng.uniform(0.0, 0.9 * L))] * (k // 2)
        ms += [float(rng.uniform(ms[0], 1.5 * L))] * (k - k // 2)
        return make_cost_model(L=L, U=L * float(rng.uniform(2.0, 6.0)), k=k, marginals=ms)
    assert kind == "narrow"
    ms = sorted(float(x) for x in rng.uniform(0.0, 0.9 * L, size=k))
    U = L * (1.0 + float(10.0 ** rng.uniform(-12.0, -3.0)))
    return make_cost_model(L=L, U=U, k=k, marginals=ms)


def random_setups(seed: int, per_kind: int = 70):
    rng = np.random.default_rng(seed)
    for _ in range(per_kind):
        yield random_high_value_model(rng, k_max=30)
        yield random_general_model(rng, k_max=30)
        for kind in ("k1", "k2", "tied", "narrow"):
            yield random_edge_model(rng, kind)


BENCHMARK_MODELS = {
    10: make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0),
    500: make_cost_model(L=1.0, U=30.0, k=500, quadratic_coeff=1.0 / 500.0),
    20000: make_cost_model(L=1.0, U=30.0, k=20000, quadratic_coeff=0.45 / 20000.0),
}


def counted_solve(monkeypatch, model):
    """The solver's solution and its walks of the chain kernel ``_chain``:
    the search walks, which ask for u_k alone, and the walks that record
    the chain's ends."""
    searched = recorded = 0
    walk = lower_bound._chain

    def counting(m, alpha, ends=None):
        nonlocal searched, recorded
        if ends is None:
            searched += 1
        else:
            recorded += 1
        return walk(m, alpha, ends)

    with monkeypatch.context() as patch:
        patch.setattr(lower_bound, "_chain", counting)
        sol = solve_alpha_star(model)
    return sol, searched, recorded


class TestItpSearch:
    """The ITP search lands on the alpha the float-by-float bisection finds,
    in far fewer chain walks and never more than one walk beyond it."""

    def test_same_alpha_bits_as_bisection(self, monkeypatch):
        setups = list(random_setups(2024))
        assert len(setups) >= 400
        for m in setups:
            alpha, bisect_walks = bisect_alpha(m)
            sol, walks, recorded = counted_solve(monkeypatch, m)
            assert sol.alpha.hex() == alpha.hex(), (m.L, m.U, m.marginals)
            assert walks <= bisect_walks + 1, (m.L, m.U, m.marginals)
            assert recorded == 1

    @pytest.mark.parametrize("k", sorted(BENCHMARK_MODELS))
    def test_benchmark_models(self, monkeypatch, k):
        m = BENCHMARK_MODELS[k]
        sol, walks, recorded = counted_solve(monkeypatch, m)
        assert sol.alpha.hex() == bisect_alpha(m)[0].hex()
        # k = 20000 took 16 walks before the probe next to an end that
        # regula falsi lands on
        assert (walks, recorded) == ({10: 13, 500: 12, 20000: 13}[k], 1)

    @pytest.mark.parametrize(
        "model, pinned",
        [
            # u_k is steep in alpha where c_k is close to L; regula falsi on
            # u_k itself took 58 walks here and 36 on the k = 10^5 model,
            # which took 17 before the probe next to an end
            (make_cost_model(L=1.0, U=3.0, k=1, marginals=[0.99999]), 15),
            (make_cost_model(L=1.0, U=30.0, k=10**5, quadratic_coeff=0.45e-5), 15),
        ],
        ids=["k1-steep", "k100000"],
    )
    def test_steep_setups(self, monkeypatch, model, pinned):
        sol, walks, recorded = counted_solve(monkeypatch, model)
        assert sol.alpha.hex() == bisect_alpha(model)[0].hex()
        assert (walks, recorded) == (pinned, 1)

    def test_worst_case_is_bisection_plus_one(self, monkeypatch):
        # u_k = U + (alpha - 3.7)^3 is flat at its root, where regula falsi
        # crawls; the projection still ends the search within the 52 halvings
        # of [2, 4] plus one step, after the bracket walks at alpha 1, 2, 4
        m = make_cost_model(L=1.0, U=30.0, k=1, marginals=[0.5])
        walks = 0

        def cubic_chain(model, alpha, ends=None):
            nonlocal walks
            u = model.U + (alpha - 3.7) ** 3
            if ends is None:
                walks += 1
            else:
                ends.append(u)
            return 1, 0.5, u

        monkeypatch.setattr(lower_bound, "_chain", cubic_chain)
        sol = solve_alpha_star(m)
        assert abs(sol.alpha - 3.7) <= 1e-3
        assert walks > 3
        assert walks <= 3 + 52 + 1

    def test_returned_chain_is_the_one_walked_at_alpha(self):
        for m in random_setups(7, per_kind=3):
            sol = solve_alpha_star(m)
            assert build_intervals(m, sol.alpha).ends == sol.ends

    def test_end_test_scales_with_u(self):
        # at U = 10^6 the adjacent floats that end the search leave u_k about
        # 3e-9 from U: beyond DEFAULT_TOL, within DEFAULT_TOL * U
        m = make_cost_model(L=1.0, U=1e6, k=3, marginals=[0.99, 0.99, 0.99])
        sol = solve_alpha_star(m)
        end = sol.intervals[-1][1]
        assert DEFAULT_TOL < abs(end - m.U) <= DEFAULT_TOL * m.U
        # the neighbouring float puts the chain end on the other side of U
        side = math.inf if end < m.U else -math.inf
        other = build_intervals(m, math.nextafter(sol.alpha, side)).intervals[-1][1]
        assert (end - m.U) * (other - m.U) < 0.0


def random_large_setups(seed: int, count: int):
    """High-value and general setups, alternating, with k up to 2000: each
    draws k uniformly below a cap that is log-uniform in [2, 2000]."""
    rng = np.random.default_rng(seed)
    for n in range(count):
        k_max = int(2000.0 ** rng.uniform(0.1, 1.0))
        draw = random_high_value_model if n % 2 else random_general_model
        yield draw(rng, k_max=k_max)


class TestAccuracy:
    """The solver's alpha against the root of the same chain walked in 40
    digits (``mp_chain.MpChain``), in ulps of alpha."""

    @pytest.mark.parametrize(
        "k, coeff, ulps",
        [
            (10, 1.0 / 16.0, 1.0),
            (500, 1.0 / 500.0, 1.0),
            (2000, 1.0 / 2000.0, 1.0),
            (200, 0.45 / 200.0, 1.0),
            (2000, 0.45 / 2000.0, 1.0),
            (20000, 0.45 / 20000.0, 20.0),
        ],
    )
    def test_quadratic_ladders(self, k, coeff, ulps):
        pytest.importorskip("mpmath")
        from mp_chain import MpChain

        m = make_cost_model(L=1.0, U=30.0, k=k, quadratic_coeff=coeff)
        assert abs(MpChain(m).ulps_off(solve_alpha_star(m).alpha)) <= ulps

    def test_random_setups(self):
        pytest.importorskip("mpmath")
        from mp_chain import MpChain

        worst = max(
            abs(MpChain(m).ulps_off(solve_alpha_star(m).alpha))
            for m in random_large_setups(2026, 40)
        )
        # the worst measured over 840 such setups (seeds 0 to 20) is 30.4
        # ulps, a general setup with c_k close to U whose error comes from
        # the walk below the top marginal
        assert worst <= 32.0


def end_only_agrees(m, alpha) -> bool:
    """Whether the search's walk (u_k alone) agrees with build_intervals at
    alpha: the same k_underbar, xi and chain end, bit for bit, or None
    exactly where build_intervals raises. True when the chain is feasible."""
    chain = lower_bound._chain(m, alpha)
    try:
        sol = build_intervals(m, alpha)
    except ValidationError:
        assert chain is None, (m.L, m.U, m.marginals, alpha)
        return False
    assert chain is not None, (m.L, m.U, m.marginals, alpha)
    ku, xi, end = chain
    assert (ku, xi.hex(), end.hex()) == (
        sol.k_underbar, sol.xi.hex(), sol.intervals[-1][1].hex()
    ), (m.L, m.U, m.marginals, alpha)
    return True


class TestWalkKernel:
    """The search walks keep only u_k; build_intervals walks the same kernel
    and records every end."""

    def test_end_only_walk_is_the_recorded_end(self):
        rng = np.random.default_rng(31)
        feasible = infeasible = 0
        for m in random_setups(2024):
            star = solve_alpha_star(m).alpha
            alphas = [1.0, star, math.nextafter(star, 0.0), math.nextafter(star, math.inf)]
            alphas += rng.uniform(1.0, star, size=3).tolist()
            alphas += (star * rng.uniform(1.0, 3.0, size=3)).tolist()
            for alpha in alphas:
                if end_only_agrees(m, max(alpha, 1.0)):
                    feasible += 1
                else:
                    infeasible += 1
        assert feasible > 2000 and infeasible > 200

    def test_overflowing_tail_step_is_infinite(self):
        # alpha / k = 1000: e^{alpha/k} - 1 overflows, and the chain ends at inf
        m = make_cost_model(L=1.0, U=30.0, k=2, marginals=[0.1, 0.2])
        assert build_intervals(m, 2000.0).ends.tolist() == [1.0, math.inf, math.inf]
        assert lower_bound._chain(m, 2000.0)[2] == math.inf

    # Chains built to reach the top marginal c_k exactly, or one ulp above
    # it, from below (unit 1's interval crosses every other piece). At or
    # above c_k g = k, as in the plain loop; only above it may the loop
    # drop the test u <= c_i.
    @pytest.mark.parametrize(
        "marginals, ulps_above, feasible",
        [
            # on c_2: unit 2 opens at its own cost
            ([0.25, float.fromhex("0x1.72acb8a9fa642p+2")], 0, False),
            # one ulp above c_2: the plain loop from unit 2 on
            ([0.25, float.fromhex("0x1.72acb8a9fa640p+2")], 1, True),
            # on c_3, with c_2 below it: unit 2 lifts the chain off c_3
            ([0.25, 1.5, float.fromhex("0x1.70e43b2edb5e7p+1")], 0, True),
            # one ulp above c_3, with c_2 below it
            ([0.25, 1.5, float.fromhex("0x1.70e43b2edb5e4p+1")], 1, True),
        ],
    )
    def test_chain_entering_the_top_piece(self, marginals, ulps_above, feasible):
        m = make_cost_model(L=1.0, U=30.0, k=len(marginals), marginals=marginals)
        ends = [m.L]
        lower_bound._chain(m, 3.0, ends)
        c_top = m.marginals[-1]
        assert ends[1] == (math.nextafter(c_top, math.inf) if ulps_above else c_top)
        assert end_only_agrees(m, 3.0) is feasible


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
        for gen in (random_high_value_model, random_general_model):
            for _ in range(10):
                m = gen(rng, k_max=6)
                sol = solve_alpha_star(m)
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


def integral_by_pieces(model, c, a, b) -> float:
    """The integral of g(eta) / (eta - c) over [a, b], one constant-g piece
    at a time, each ending at the next breakpoint of ``g_steps`` or at b."""
    bps, counts = model.g_steps
    j = bisect.bisect_right(bps, a)  # the piece holding a
    total = 0.0
    while a < b:
        end = min(b, bps[j]) if j < len(bps) else b
        total += counts[j] * math.log((end - c) / (a - c))
        a, j = end, j + 1
    return total


def residual_by_definition(solution, model) -> float:
    """``chain_residual`` by its definition, one unit at a time from
    ``integral_by_pieces``: the largest |rise / alpha - share|, with the
    rise of a descending end taken negative; inf when an interval opens at
    or below its unit's cost, 0 when U == L."""
    if model.U == model.L:
        return 0.0
    share, worst = 1.0 - solution.xi, 0.0
    ends = list(solution.ends)
    for c, ell, u in zip(model.marginals[solution.k_underbar - 1 :], ends, ends[1:]):
        lo, hi = min(ell, u), max(ell, u)
        if lo <= c:
            return math.inf
        rise = integral_by_pieces(model, c, lo, hi) / solution.alpha
        worst = max(worst, abs((rise if u >= ell else -rise) - share))
        share = 1.0
    return worst


class TestChainCertificate:
    def test_residual_is_the_unit_by_unit_definition(self):
        setups = [*random_setups(2024), BENCHMARK_MODELS[10], BENCHMARK_MODELS[500]]
        chains = [(solve_alpha_star(m), m) for m in setups]
        # the scrambled and the flat benchmark chain and a descending end, as below
        bench = BENCHMARK_MODELS[10]
        bench_sol = solve_alpha_star(bench)
        ends = np.array(bench_sol.ends)
        inner = np.sort(np.random.default_rng(4).uniform(ends[0], ends[-1], len(ends) - 2))
        for other in ([ends[0], *inner, ends[-1]], [bench.L] * (len(ends) - 1) + [bench.U]):
            chains.append((dataclasses.replace(bench_sol, ends=array("d", other)), bench))
        tie = make_cost_model(L=1.7, U=4.0, k=2, marginals=[0.4, 0.4])
        sol = build_intervals(tie, 2.0)
        descending = array("d", [1.7, math.nextafter(1.7, 0.0), sol.ends[2]])
        chains.append((dataclasses.replace(sol, ends=descending), tie))
        for sol, m in chains:
            got, want = chain_residual(sol, m), residual_by_definition(sol, m)
            assert got == want or abs(got - want) <= 1e-12

    def test_residual_small_at_bound_and_above(self):
        rng = np.random.default_rng(29)
        models = [random_high_value_model(rng, k_max=6) for _ in range(3)]
        models += [random_general_model(rng, k_max=6) for _ in range(3)]
        models += [make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])]
        for m in models:
            sol = solve_alpha_star(m)
            above = build_intervals(m, sol.alpha + 0.5)
            assert chain_residual(sol, m) <= 1e-9
            assert chain_residual(above, m) <= 1e-9

    def test_solver_chains_certify(self):
        setups = [*random_setups(2024), *BENCHMARK_MODELS.values()]
        worst = max(chain_residual(solve_alpha_star(m), m) for m in setups)
        assert worst <= 1e-9

    def test_degenerate_interval_residual(self):
        # U == L: alpha is fixed at 1 and no chain equation applies
        m = make_cost_model(L=2.0, U=2.0, k=2, marginals=[0.5, 1.0])
        sol = solve_alpha_star(m)
        assert chain_residual(sol, m) == 0.0

    def test_end_rounding_below_the_one_before(self):
        # xi = 1 at alpha = 2: unit 1's share is 0, and its end
        # 0.4 + (1.7 - 0.4) rounds one ulp below L = 1.7; the walk sets it
        # back to L, so the ends never decrease
        m = make_cost_model(L=1.7, U=4.0, k=2, marginals=[0.4, 0.4])
        sol = build_intervals(m, 2.0)
        assert 0.4 + (1.7 - 0.4) < 1.7
        assert sol.xi == 1.0 and list(sol.ends[:2]) == [1.7, 1.7]
        assert np.all(np.diff(sol.ends) >= 0.0)
        assert chain_residual(sol, m) <= 1e-9
        # a descending end, built by hand, counts as a negative rise
        below = math.nextafter(1.7, 0.0)
        descending = dataclasses.replace(sol, ends=array("d", [1.7, below, sol.ends[2]]))
        assert descending.ends[1] < descending.ends[0]
        assert chain_residual(descending, m) <= 1e-9

    def test_scrambled_chain_fails(self):
        # the benchmark chain with its interior ends replaced by sorted
        # random points still runs end to end from L to U, and a check whose
        # sums telescope passes it; the per-unit equations do not
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sol = solve_alpha_star(m)
        assert chain_residual(sol, m) <= 1e-9
        ends = np.array(sol.ends)
        inner = np.sort(np.random.default_rng(4).uniform(ends[0], ends[-1], len(ends) - 2))
        scrambled = dataclasses.replace(sol, ends=array("d", [ends[0], *inner, ends[-1]]))
        assert chain_residual(scrambled, m) > 0.1

    def test_interval_at_or_below_its_cost_is_infinite(self):
        # every interval but the last is [L, L]; unit 9 costs 17/16 > L
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sol = solve_alpha_star(m)
        flat = array("d", [m.L] * (len(sol.ends) - 1) + [m.U])
        assert chain_residual(dataclasses.replace(sol, ends=flat), m) == math.inf

    @pytest.mark.parametrize(
        "L,U,costs,eps",
        [
            (1.0, 30.0, {"quadratic_coeff": 1.0 / 16.0, "k": 10}, 0.5),
            (1.0, 10.0, {"quadratic_coeff": 1.0 / 59.0, "k": 3}, 0.25),
            (1.0, 10.0, {"quadratic_coeff": 1.0 / 59.0, "k": 5}, 0.25),
            (1.0, 4.0, {"marginals": [0.1, 0.2, 0.3], "k": 3}, 0.05),
        ],
        ids=["benchmark", "curves-k3", "curves-k5", "high-value-k3"],
    )
    def test_curves_meet_alpha_on_the_adversary_family(self, L, U, costs, eps):
        # k buyers at each stage L, L + eps, ..., v: the exact expected
        # welfare of the curves is at least conjugate(v) / alpha* for every
        # terminal v on the grid, and the family attains alpha*
        m = make_cost_model(L=L, U=U, **costs)
        sol = solve_alpha_star(m)
        stages = [L + j * eps for j in range(round((U - L) / eps) + 1)]
        ratios = [
            conjugate(m, v) / dynamic_welfare(sol, m, hard_instance(m, eps, v).valuations)
            for v in stages
        ]
        assert max(ratios) <= sol.alpha * (1.0 + 1e-12)
        assert max(ratios) == pytest.approx(sol.alpha, rel=1e-9)

