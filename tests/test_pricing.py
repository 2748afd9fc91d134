"""Price-curve tests: frozen closed forms, duality with the allocation
curves, chain exactness, agreement with the solver's chain, metamorphic
relations, the reported guarantee on the exact staircase, and the curve
table's lookups against a literal scan of the segments."""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
import re
import tracemalloc
from array import array
from itertools import pairwise
from unittest import mock

import numpy as np
import pytest
from exact_welfare import dynamic_welfare, eval_psi
from hypothesis import assume, example, find, given, settings
from hypothesis import strategies as st

from kselect import jsontext
from kselect.cost_model import allocation_count_g, conjugate, make_cost_model
from kselect.errors import ValidationError
from kselect.instances import hard_instance
from kselect.lower_bound import solve_alpha_star
from kselect.mechanisms import offline_opt
from kselect.pricing import (
    _scheme,
    build_scheme,
    inverse_price,
    max_file_bytes,
    price_at,
    prices_for_seeds,
    scheme_from_json,
    scheme_json_chunks,
    scheme_to_json,
    static_prices_for_quantiles,
)


def random_high_value_model(rng, k_max: int = 8, k_min: int = 1):
    k = int(rng.integers(k_min, k_max + 1))
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
    return build_scheme(m)


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
        for gen in (random_high_value_model, random_general_model):
            for _ in range(8):
                m = gen(rng)
                sch = build_scheme(m)
                ivs = sch.price_intervals
                assert len(ivs) == m.k
                assert ivs[0][0] == m.L
                for (l0, u0), (l1, _) in zip(ivs, ivs[1:]):
                    assert u0 == l1  # shared floats, no tolerance
                assert abs(ivs[-1][1] - m.U) <= 1e-6
                for i in range(1, m.k + 1):
                    assert price_at(sch, i, 0.0) == ivs[i - 1][0]
                    assert price_at(sch, i, 1.0) == ivs[i - 1][1]

    def test_top_price_never_exceeds_u(self):
        # the solver stops within its tolerance of U on either side; the
        # scheme clamps the chain end, so no posted price lies above U
        rng = np.random.default_rng(83)
        setups = [random_high_value_model(rng) for _ in range(60)]
        setups += [random_general_model(rng) for _ in range(60)]
        setups += [random_high_value_model(rng, k_max=2, k_min=2) for _ in range(60)]
        above = 0
        for m in setups:
            sch = build_scheme(m)
            top = prices_for_seeds(sch, np.ones((1, m.k)))[0, -1]
            assert top <= m.U
            assert sch.price_intervals[-1][1] == top
            assert max(seg["v_hi"] for seg in scheme_to_json(sch)["segments"][-1]) <= m.U
            assert abs(top - m.U) <= 1e-8
            above += solve_alpha_star(m).intervals[-1][1] > m.U
        assert above > 0  # the clamp is exercised

    def test_curves_nondecreasing(self):
        rng = np.random.default_rng(37)
        m = random_general_model(rng)
        sch = build_scheme(m)
        grid = np.linspace(0.0, 1.0, 200)
        for i in range(1, m.k + 1):
            vals = [price_at(sch, i, float(s)) for s in grid]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_threshold_unit_floor(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = random_high_value_model(rng)
            sch = build_scheme(m)
            ku, xi = sch.k_underbar_star, sch.xi_star
            for s in (0.0, 0.5 * xi, xi):
                assert price_at(sch, ku, s) == m.L
            for i in range(1, ku):
                assert price_at(sch, i, 1.0) == m.L

    def test_price_chain_exact_over_sampled_vectors(self):
        rng = np.random.default_rng(43)
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sch = build_scheme(m)
        prices = prices_for_seeds(sch, rng.random((10_000, 10)))
        assert np.all(np.diff(prices, axis=1) >= 0.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(53)
        m = random_general_model(rng)
        sch = build_scheme(m)
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
        sch = build_scheme(m)
        zeros = prices_for_seeds(sch, np.zeros((1, m.k)))
        ones = prices_for_seeds(sch, np.ones((1, m.k)))
        for i in range(m.k):
            assert zeros[0, i] == sch.price_intervals[i][0]
            assert ones[0, i] == sch.price_intervals[i][1]

    def test_top_price_mean_matches_integral(self):
        # E[phi_k(S)] for a single exponential segment:
        # c_k + (L_k - c_k) (k/alpha)(e^{alpha/k} - 1)
        m = make_cost_model(L=1.0, U=8.0, k=3, marginals=[0.0, 0.0, 0.0])
        sch = build_scheme(m)
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
            cases.append((m, build_scheme(m), solve_alpha_star(m)))
        for _ in range(5):
            m = random_general_model(rng)
            cases.append((m, build_scheme(m), solve_alpha_star(m)))
        for m, sch, sol in cases:
            for _ in range(50):
                i = int(rng.integers(1, m.k + 1))
                v = float(rng.uniform(m.L, m.U))
                assert inverse_price(sch, i, v) == pytest.approx(
                    eval_psi(sol, m, i, v), abs=1e-8
                )

    def test_round_trip_through_ramp_segments(self):
        rng = np.random.default_rng(71)
        for gen in (random_high_value_model, random_general_model):
            m = gen(rng)
            sch = build_scheme(m)
            for i, unit in enumerate(scheme_to_json(sch)["segments"], start=1):
                for seg in unit:
                    if seg["rate"] == 0.0:
                        continue
                    for t in np.linspace(0.01, 0.99, 25):
                        s = float(seg["s_lo"] + t * (seg["s_hi"] - seg["s_lo"]))
                        v = price_at(sch, i, s)
                        assert inverse_price(sch, i, v) == pytest.approx(s, abs=1e-9)


class TestTwoUnitConstruction:
    def test_first_branch_frozen(self):
        # zero costs, U = e^2: alpha* = 3 >= threshold 2, xi* = 2/3,
        # U_1 = e^{1/2}, guarantee alpha* itself
        m = make_cost_model(L=1.0, U=math.exp(2.0), k=2, marginals=[0.0, 0.0])
        sch = build_scheme(m)
        assert sch.kind == "two_unit"
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
        sch = build_scheme(m)
        sol = solve_alpha_star(m)
        threshold = (2.0 - 0.9 - 0.95) / (1.0 - 0.9)
        assert sch.kind == "two_unit"
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
            sch = build_scheme(m)
            assert sch.k_underbar_star == solve_alpha_star(m).k_underbar

    def test_near_tie_brackets_agree(self):
        # zero costs with U = e put alpha* within bisection error of the
        # branch threshold; both branches then coincide with the pinned curve
        m = make_cost_model(L=1.0, U=math.e, k=2, marginals=[0.0, 0.0])
        sch = build_scheme(m)
        assert sch.kind == "two_unit"
        for s in np.linspace(0.0, 1.0, 50):
            assert price_at(sch, 1, float(s)) == pytest.approx(1.0, abs=1e-6)
        assert price_at(sch, 2, 1.0) == pytest.approx(math.e, abs=1e-8)


class TestGeneralConstruction:
    def test_piece_junctions_are_continuous(self):
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sch = build_scheme(m)
        for i, segs in enumerate(scheme_to_json(sch)["segments"], start=1):
            for left, right in zip(segs, segs[1:]):
                assert left["v_hi"] == right["v_lo"]
                if left["rate"]:
                    from_left = left["cost"] + (left["v_lo"] - left["cost"]) * math.exp(
                        left["rate"] * (left["s_hi"] - left["s_lo"])
                    )
                    assert from_left == pytest.approx(right["v_lo"], rel=1e-10)
                assert price_at(sch, i, left["s_hi"]) == right["v_lo"]

    def test_two_unit_general_guarantee_formula(self):
        # L=1, U=4, c=(0.5, 2): U_1 = 0.5 + 1.5 e^{(alpha - 1 - ln 3)/2},
        # f*(L) = 0.5 and f*(U_1) = (U_1 - 0.5) + max(U_1 - 2, 0)
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 2.0])
        sch = build_scheme(m)
        a = sch.alpha_star
        u1 = 0.5 + 1.5 * math.exp((a - 1.0 - math.log(3.0)) / 2.0)
        first = a * (1.0 + (u1 - 0.5) / 0.5)
        second = a * (1.0 + (4.0 - 2.0) / ((u1 - 0.5) + max(u1 - 2.0, 0.0)))
        assert sch.kind == "general"
        assert sch.cr_guarantee == pytest.approx(max(first, second), rel=1e-6)

    def test_reference_setup_guarantee(self):
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sch = build_scheme(m)
        assert sch.kind == "general"
        assert sch.cr_guarantee > sch.alpha_star
        assert math.isfinite(sch.cr_guarantee)

    def test_general_guarantee_is_the_unit_loop(self):
        # build_scheme computes max_i alpha (1 + (U_i - c_i) / f*(U_{i-1}))
        # in one array pass; this loop over conjugate() is the reference,
        # bit for bit, on ladders with ties and with a marginal at L
        rng = np.random.default_rng(41)
        for n in range(120):
            m = random_general_model(rng, k_max=12)
            if n % 3 == 1:  # tied ladder
                inner = rng.choice(m.marginals, size=m.k - 2).tolist()
                ms = sorted([m.marginals[0], *inner, m.marginals[-1]])
                m = make_cost_model(L=m.L, U=m.U, k=m.k, marginals=ms)
            elif n % 3 == 2:  # one marginal exactly at L
                ms = sorted([*m.marginals[:-1], m.L])
                m = make_cost_model(L=m.L, U=m.U, k=m.k, marginals=ms)
            if m.high_value:
                continue
            sch = build_scheme(m)
            a = sch.alpha_star
            uppers = [m.L] + [hi for _, hi in sch.price_intervals]
            want = max(
                a * (1.0 + (uppers[i] - m.marginals[i - 1]) / conjugate(m, uppers[i - 1]))
                for i in range(1, m.k + 1)
            )
            assert sch.cr_guarantee.hex() == want.hex()


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


def test_chain_price_intervals_and_cost_tables_are_float_columns():
    # the solve and pricing paths hold each per-unit number in a float
    # column (a packed array("d")), not in one tuple per unit
    k = 20000
    m = make_cost_model(L=1.0, U=30.0, k=k, quadratic_coeff=0.45 / k)
    sol = solve_alpha_star(m)
    scheme = build_scheme(m)
    n = k - sol.k_underbar + 1  # units with an interval
    sizes = {
        "ends": (sol.ends, n + 1),
        # a floor and a ramp on the threshold unit, one segment on the others
        "columns": (scheme.columns, 6 * (k + 1)),
        "cumulative": (m.cumulative, k + 1),
        "floor_prefix": (m.floor_prefix, k),
        "breakpoints": (m.g_steps[0], k),
        "counts": (m.g_steps[1], k + 1),
    }
    for name, (column, size) in sizes.items():
        assert isinstance(column, array) and column.typecode == "d", name
        assert len(column) == size, name
    for view, shape in ((sol.intervals, (n, 2)), (scheme.price_intervals, (k, 2))):
        assert view.dtype == np.float64 and view.shape == shape
        assert not view.flags.writeable
    assert np.shares_memory(sol.intervals, np.frombuffer(sol.ends))
    assert all(type(x) is float for x in sol.interval(k))


# ---------------------------------------------------------------------------
# the direct JSON writer


def scheme_json_text(scheme) -> str:
    """The pricing JSON as ``kselect pricing`` writes it, without the
    final newline: the join of scheme_json_chunks."""
    return "".join(scheme_json_chunks(scheme))


def stdlib_text(scheme) -> str:
    return json.dumps(scheme_to_json(scheme), indent=2, sort_keys=True) + "\n"


def tail_units(scheme) -> int:
    """Units past the threshold unit whose interval starts at or above the
    top marginal, where g = k: the units of one segment each."""
    top, ku = scheme.model.marginals[-1], scheme.k_underbar_star
    return int(np.count_nonzero(scheme.price_intervals[ku:, 0] >= top))


# tail length aimed at -> (kinds, U / L range); "one" also lifts the top
# marginal close to U, which leaves only unit k above it
TAILS = {
    "any": (("general", "high_value", "two_unit"), (1.2, 6.0)),
    "none": (("high_value",), (1.0001, 1.01)),
    "one": (("general",), (1.2, 6.0)),
    "many": (("general", "high_value"), (2.0, 6.0)),
}


@st.composite
def built_schemes(draw):
    """A scheme of a random general, high-value or two-unit setup; k = 1,
    pairwise tied marginals and tails (see tail_units) of 0, 1 and many
    units are among the draws."""
    tail = draw(st.sampled_from(sorted(TAILS)))
    kinds, (lo, hi) = TAILS[tail]
    kind = draw(st.sampled_from(kinds))
    L = draw(st.floats(1.0, 3.0))
    U = L * draw(st.floats(lo, hi))
    if kind == "two_unit":
        k = 2
    else:
        k = draw(st.integers(4 if tail == "many" else 2 if kind == "general" else 1, 12))
    cap = min(1.8 * L, 0.9 * U) if kind == "general" else 0.9 * L
    ms = sorted(draw(st.lists(st.floats(0.0, cap), min_size=k, max_size=k)))
    if draw(st.booleans()):
        ms = [ms[i - i % 2] for i in range(k)]
    if kind == "general":
        ms[0], ms[-1] = min(ms[0], 0.9 * L), max(ms[-1], L)
    if tail == "one":
        ms[-1] = max(ms[-1], U * draw(st.floats(0.8, 0.97)))
    scheme = build_scheme(make_cost_model(L=L, U=U, k=k, marginals=ms))
    if tail != "any":
        n = tail_units(scheme)
        assume({"none": n == 0, "one": n == 1, "many": n > 1}[tail])
    return scheme


NAMED_SETUPS = {
    # name: (L, U, marginals, property the setup must have)
    "single-unit": (1.0, math.e, [0.0], lambda s: s.model.k == 1),
    "two-unit": (1.0, 5.0, [0.25, 0.5], lambda s: s.kind == "two_unit"),
    "tied-high-value": (
        2.0, 9.0, [0.1, 0.1, 0.1, 0.7, 0.7, 1.5],
        lambda s: s.kind == "high_value" and s.k_underbar_star > 1,
    ),
    "tied-general": (
        1.0, 10.0, [0.2, 0.2, 0.5, 0.5, 0.5, 2.0, 2.0],
        lambda s: s.kind == "general" and s.k_underbar_star > 1,
    ),
    "flat-range": (2.0, 2.0, [0.5, 1.0, 1.5], lambda s: s.alpha_star == 1.0),
    # unit 1 is flat, so its cost is 0.0 and only the marginal is -0.0
    "negative-zero-marginal": (1.0, 4.0, [-0.0, 0.2, 0.3], lambda s: s.k_underbar_star > 1),
}


class TestSchemeJsonText:
    @settings(max_examples=200, deadline=None)
    @given(built_schemes())
    def test_matches_the_stdlib_indent_encoder(self, scheme):
        assert scheme_json_text(scheme) + "\n" == stdlib_text(scheme)

    @pytest.mark.parametrize("name", sorted(NAMED_SETUPS))
    def test_named_setups(self, name):
        L, U, ms, has_property = NAMED_SETUPS[name]
        scheme = build_scheme(make_cost_model(L=L, U=U, k=len(ms), marginals=ms))
        assert has_property(scheme)
        assert scheme_json_text(scheme) + "\n" == stdlib_text(scheme)

    @settings(max_examples=150, deadline=None)
    @given(built_schemes(), st.integers(1, 3))
    def test_chunks_of_a_few_units_join_to_the_stdlib_text(self, scheme, units):
        with mock.patch.object(jsontext, "CHUNK_UNITS", units):
            chunks = list(scheme_json_chunks(scheme))
        assert "".join(chunks) + "\n" == stdlib_text(scheme)
        # the head, then per array its chunks, its close and the text after it
        assert len(chunks) == 1 + 3 * (-(-scheme.model.k // units) + 2)

    def test_non_finite_numbers_read_as_the_stdlib_writes_them(self):
        # no scheme file with these rates loads, so they are set in memory
        m = make_cost_model(L=1.0, U=10.0, k=4, marginals=[0.5, 1.5, 2.5, 3.5])
        built = build_scheme(m)
        cols = np.frombuffer(built.columns).reshape(6, -1).copy()
        cols[5, built._offsets[1:4]] = [math.nan, math.inf, -math.inf]  # units 2-4
        scheme = dataclasses.replace(built, columns=array("d", cols.ravel().tolist()))
        text = scheme_json_text(scheme) + "\n"
        assert text == stdlib_text(scheme)
        assert '"rate": NaN,' in text
        assert '"rate": Infinity,' in text and '"rate": -Infinity,' in text


def test_number_texts_are_the_json_texts_of_the_column():
    column = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.5, -0.0, 1e300, 1.5])
    texts, at = jsontext.number_texts(column)
    assert texts[at].tolist() == [json.dumps(x) for x in column.tolist()]
    assert len(texts) == 7  # each distinct float once; -0.0 and 0.0 apart


def test_number_texts_formats_its_distinct_floats_a_slice_at_a_time():
    # 6*10^5 numbers, 4*10^5 of them distinct 17-digit floats: formatting
    # every distinct float at once held all their Python floats and texts
    # beside the texts array, 16.1 MB over what the call returns; a slice of
    # 2^16 at a time, 5.5 MB
    distinct = 1.0 + np.random.default_rng(0).random(400_000)
    floats = np.concatenate([distinct, distinct[::2]])
    tracemalloc.start()
    try:
        texts, at = jsontext.number_texts(floats)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= 8e6
    assert len(texts) == len(np.unique(distinct))
    assert texts[at].tolist() == [repr(x) for x in floats.tolist()]


_TEXT = st.text(st.characters(blacklist_characters="%\0\1"), max_size=4)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]),
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_TEXT, kids, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES, st.integers(0, 3), st.data())
def test_layout_is_the_stdlib_indent_text_with_its_marks_filled(value, depth, data):
    def text(v, d):
        return json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n" + "  " * d)

    fills = []  # the text of each mark, in the order the marks are written

    def mark(v, d):
        how = data.draw(st.sampled_from(["keep", "field", "section"]))
        if how == "section":
            fills.append(text(v, d))
            return jsontext.SECTION
        if isinstance(v, dict):
            return {key: mark(v[key], d + 1) for key in sorted(v)}
        if isinstance(v, list):
            return [mark(x, d + 1) for x in v]
        if how == "field":
            fills.append(json.dumps(v))
            return jsontext.FIELD
        return v

    marked = mark(value, depth)
    parts = re.split("%s|\0", jsontext.layout(marked, depth))
    assert len(parts) == len(fills) + 1
    filled = "".join(p + f for p, f in zip(parts, fills)) + parts[-1]
    assert filled == text(value, depth)


def test_negative_zero_is_written_once_and_other_zeros_stay_positive():
    L, U, ms, _ = NAMED_SETUPS["negative-zero-marginal"]
    scheme = build_scheme(make_cost_model(L=L, U=U, k=len(ms), marginals=ms))
    text = scheme_json_text(scheme)
    assert text + "\n" == stdlib_text(scheme)
    assert text.count("-0.0") == 1
    assert '"marginals": [\n        -0.0,' in text
    units = json.loads(text)["segments"]
    # every unit's first s_lo, and the flat unit's cost and rate
    zeros = [unit[0]["s_lo"] for unit in units] + [units[0][0]["cost"], units[0][0]["rate"]]
    assert zeros == [0.0] * len(zeros)
    assert all(math.copysign(1.0, z) == 1.0 for z in zeros)


def test_a_negative_price_in_a_scheme_file_is_reported_with_its_unit_and_field():
    scheme = build_scheme(make_cost_model(L=1.0, U=4.0, k=3, marginals=[0.1, 0.2, 0.3]))
    obj = scheme_to_json(scheme)
    obj["segments"][2][0]["v_lo"] = -1.0
    want = r"scheme unit 3 segment 1: v_lo -1.0 is not the 1.9145\d* its model builds at alpha_star"
    with pytest.raises(ValidationError, match=want):
        scheme_from_json(obj)


@pytest.mark.parametrize("regime", ["general", "high_value"])
@settings(max_examples=100, deadline=None)
@given(scheme=built_schemes())
def test_every_built_curve_tiles_the_seeds_and_chains_its_prices(regime, scheme):
    """The curve builder's output, column by column: each unit's segments
    run end to end over the seeds [0, 1]; every price lies in [L, U] with
    v_lo <= v_hi; unit 1 starts at L and each later unit at the previous
    unit's last v_hi; v_lo never decreases; a ramp's rate is alpha* / g, g
    the number of marginals at or below its v_lo, and a flat segment's 0."""
    model = scheme.model
    assume(model.regime == regime)
    L, U = model.L, model.U
    s_lo, s_hi, v_lo, v_hi, _, rate = np.frombuffer(scheme.columns).reshape(6, -1)
    ends = np.cumsum(scheme.sizes)
    last, first = ends - 1, ends - np.frombuffer(scheme.sizes, dtype=np.int64)
    inner = np.setdiff1d(np.arange(len(s_lo)), last)
    assert min(scheme.sizes) >= 1
    assert (s_lo[first] == 0.0).all() and (s_hi[last] == 1.0).all()
    assert (s_hi[inner] == s_lo[inner + 1]).all() and (s_lo <= s_hi).all()
    assert ((L <= v_lo) & (v_lo <= v_hi) & (v_hi <= U)).all()
    assert v_lo[0] == L and (v_lo[first[1:]] == v_hi[last[:-1]]).all()
    assert (np.diff(v_lo) >= 0.0).all()
    ramp = scheme.alpha_star / allocation_count_g(model, v_lo)
    assert (rate == np.where(v_hi > v_lo, ramp, 0.0)).all()


@settings(max_examples=100, deadline=None)
@given(built_schemes())
def test_every_built_scheme_loads_back_equal(scheme):
    assert scheme_from_json(json.loads(scheme_json_text(scheme))) == scheme


@settings(max_examples=50, deadline=None)
@given(built_schemes())
def test_a_scheme_object_loads_back_with_an_equal_model(scheme):
    model = scheme_from_json(scheme_to_json(scheme)).model
    assert model == scheme.model
    assert model.marginals.tobytes() == scheme.model.marginals.tobytes()  # -0.0 kept


def two_unit_scheme(L, U, marginals):
    return build_scheme(make_cost_model(L=L, U=U, k=2, marginals=marginals))


@settings(max_examples=200, deadline=None)
@given(built_schemes())
# two-unit setups on which separate k = 2 formulas once disagreed with the
# solver: xi 0.8095650886590087 against ...084, and a tie (xi = 1) whose
# first chain end rounded one ulp below L
@example(two_unit_scheme(1.0, 2.0, [0.2, 0.6]))
@example(two_unit_scheme(1.7, 3.933766376996758, [0.4, 0.4]))
def test_every_built_scheme_reports_the_solvers_chain(scheme):
    model = scheme.model
    sol = solve_alpha_star(model)
    assert scheme.alpha_star.hex() == sol.alpha.hex()
    assert scheme.k_underbar_star == sol.k_underbar
    assert scheme.xi_star.hex() == sol.xi.hex()
    two_unit = model.k == 2 and model.high_value
    assert scheme.kind == ("two_unit" if two_unit else model.regime)
    if two_unit:
        assert scheme.cr_guarantee == sol.alpha
    # (L, L) below the threshold unit, then the chain, its end clamped to U
    ku = sol.k_underbar
    intervals = scheme.price_intervals.tolist()
    chain = sol.intervals.tolist()
    chain[-1][1] = min(chain[-1][1], model.U)
    assert intervals == [[model.L, model.L]] * (ku - 1) + chain


# ---------------------------------------------------------------------------
# random explicit ladders: metamorphic relations, and the guarantee on the
# exact staircase


@st.composite
def explicit_ladders(draw, k_max: int = 59):
    """(L, U, marginals) of a high-value or general setup with k <= k_max;
    high-value with k = 2 is the two-unit kind."""
    L = draw(st.floats(1.0, 3.0))
    U = L * draw(st.floats(1.2, 40.0))
    k = draw(st.integers(1, k_max))
    general = k > 1 and draw(st.booleans())
    cap = min(1.8 * L, 0.9 * U) if general else 0.9 * L
    ms = sorted(draw(st.lists(st.floats(0.0, cap), min_size=k, max_size=k)))
    if general:
        ms[0], ms[-1] = min(ms[0], 0.9 * L), max(ms[-1], L)
    return L, U, ms


def ladder_alpha(L, U, ms) -> float:
    return solve_alpha_star(make_cost_model(L=L, U=U, k=len(ms), marginals=ms)).alpha


@settings(max_examples=100, deadline=None)
@given(explicit_ladders(), st.sampled_from((2.0, 8.0)))
def test_scaling_every_price_and_cost_scales_the_curves_exactly(ladder, lam):
    # alpha* and the seeds are ratios of prices; rate = alpha* / g is an
    # exponent in seed space, so it does not scale either
    L, U, ms = ladder
    base = build_scheme(make_cost_model(L=L, U=U, k=len(ms), marginals=ms))
    scaled = build_scheme(
        make_cost_model(L=lam * L, U=lam * U, k=len(ms), marginals=[lam * c for c in ms])
    )
    assert scaled.alpha_star.hex() == base.alpha_star.hex()
    assert scaled.sizes == base.sizes
    old, new = (np.frombuffer(s.columns).reshape(6, -1) for s in (base, scaled))
    seeds_and_rates = [0, 1, 5]  # s_lo, s_hi, rate; then v_lo, v_hi, cost
    assert new[seeds_and_rates].tobytes() == old[seeds_and_rates].tobytes()
    assert new[2:5].tobytes() == (lam * old[2:5]).tobytes()


@settings(max_examples=100, deadline=None)
@given(explicit_ladders())
def test_alpha_rises_with_u_and_falls_with_l(ladder):
    L, U, ms = ladder
    alpha = ladder_alpha(L, U, ms)
    assert ladder_alpha(L, 1.1 * U, ms) >= alpha
    assert ladder_alpha(1.05 * L, U, ms) <= alpha


@settings(max_examples=60, deadline=None)
@given(explicit_ladders(k_max=5))
def test_the_reported_guarantee_holds_on_the_exact_staircase(ladder):
    # k buyers at each stage of a 40-step grid from L up to every terminal:
    # OPT over the exact expected welfare of the curves is at least 1 and at
    # most alpha*, which it reaches at the first stage (the floor is built
    # for f*(L) / alpha*), so at most the reported guarantee
    L, U, ms = ladder
    model = make_cost_model(L=L, U=U, k=len(ms), marginals=ms)
    scheme, sol = build_scheme(model), solve_alpha_star(model)
    eps = (U - L) / 40
    ratios = []
    for j in range(41):
        inst = hard_instance(model, eps, min(L + j * eps, U))
        ratios.append(offline_opt(inst, model)[0] / dynamic_welfare(sol, model, inst.valuations))
    assert min(ratios) >= 1.0
    assert max(ratios) <= scheme.alpha_star * (1.0 + 1e-12)
    assert scheme.alpha_star <= scheme.cr_guarantee


# ---------------------------------------------------------------------------
# the curve builder against the per-unit loop it replaced


def reference_g_pieces(model, a, b):
    """Yield (lo, hi, g) sub-intervals of [a, b] on which g is constant."""
    if b < a:
        raise ValidationError(f"empty integration range [{a}, {b}]")
    bps, counts = model.g_steps
    j = bisect.bisect_right(bps, a)  # the piece holding a
    lo = a
    while lo < b:
        hi = min(b, bps[j]) if j < len(bps) else b
        yield lo, hi, counts[j]
        lo = hi
        j += 1


def reference_columns(model, sol):
    """The curve columns and segment counts of ``sol``'s chain, by the
    builder that walked each unit below the top marginal piece by piece
    and wrote the units above it as column slices, kept verbatim as a
    reference. Its zero-width branch (``if not raw``) never runs: a
    zero-width interval other than the threshold unit's needs U == L, and
    there every later unit lies above c_k, in the slices."""
    alpha, ku, xi = sol.alpha, sol.k_underbar, sol.xi
    L, k = model.L, model.k
    ends = np.frombuffer(sol.ends)  # u_{ku - 1} = L, ..., u_k
    walked = min(max(1, int(np.searchsorted(ends, model.marginals[-1]))), len(ends) - 1)
    rows: list[list[float]] = []  # segments of the units walked piece by piece
    sizes = [1] * (ku - 1)
    for i, (ell, u) in enumerate(pairwise(sol.ends[: walked + 1]), ku):
        c = model.marginals[i - 1]
        raw: list[list[float]] = []
        s = 0.0
        if i == ku:
            raw.append([0.0, xi, L, L, c, 0.0])
            s = xi
        if u > ell:
            for a, b, g in reference_g_pieces(model, ell, u):
                span = (g / alpha) * math.log((b - c) / (a - c))
                raw.append([s, s + span, a, b, c, alpha / g])
                s = s + span
        if not raw:  # zero-width interval with no floor piece (u == ell == L)
            raw.append([0.0, 1.0, ell, ell, c, 0.0])
            s = 1.0
        if abs(s - 1.0) > 1e-9:
            raise AssertionError(f"unit {i} seed spans sum to {s}, expected 1")
        raw[-1][1] = 1.0
        rows += raw
        sizes.append(len(raw))
    i = ku + walked  # the first unit above the top marginal
    lo, hi, c = ends[walked:-1], ends[walked + 1 :], model.marginal_column[i - 1 :]
    ramp = hi > lo
    with np.errstate(divide="ignore", invalid="ignore"):
        span = (k / alpha) * np.log((hi - c) / (lo - c))
    off = np.flatnonzero(ramp & (np.abs(span - 1.0) > 1e-9))
    if off.size:
        raise AssertionError(f"unit {i + off[0]} seed spans sum to {span[off[0]]}, expected 1")
    head = ku - 1 + len(rows)  # segments before the tail
    cols = np.empty((6, head + len(lo)))
    cols[:, : ku - 1] = np.array([[0.0], [1.0], [L], [L], [0.0], [0.0]])
    cols[:, ku - 1 : head] = np.array(rows).T
    tail = cols[:, head:]
    tail[0], tail[1], tail[2], tail[3], tail[4] = 0.0, 1.0, lo, hi, c
    tail[5] = np.where(ramp, alpha / k, 0.0)
    cols[3, -1] = min(cols[3, -1], model.U)  # v_hi of unit k's last segment
    sizes += [1] * len(lo)
    return cols, tuple(sizes)


def scheme_of(L, U, k, **cost):
    return build_scheme(make_cost_model(L=L, U=U, k=k, **cost))


@settings(max_examples=100, deadline=None)
@given(built_schemes())
@example(scheme_of(1.0, 30.0, 200, marginals=[0.1] + [1.0 + j * 1e-9 for j in range(199)]))
def test_every_scheme_file_fits_its_byte_ceiling(scheme):
    # the clustered example puts one piece per marginal in a unit
    k = scheme.model.k
    assert sum(scheme.sizes) <= 2 * k + 1
    assert len(scheme_json_text(scheme).encode()) <= max_file_bytes(k)


@settings(max_examples=200, deadline=None)
@given(built_schemes())
@example(scheme_of(2.0, 2.0, 2, marginals=[0.5, 2.0]))  # flat-range: every interval [L, L]
@example(scheme_of(1.7, 3.933766376996758, 2, marginals=[0.4, 0.4]))  # xi = 1: [L, L] first
@example(scheme_of(1.0, math.e, 1, marginals=[0.0]))
@example(scheme_of(1.0, 30.0, 10, quadratic_coeff=1.0 / 16.0))  # the benchmark setup
@example(scheme_of(1.0, 30.0, 500, quadratic_coeff=1.0 / 500.0))  # price-general
# unit 1's interval crosses six pieces, unit 2's two
@example(scheme_of(1.0, 10.0, 7, marginals=[0.2, 1.1, 1.2, 1.3, 1.4, 1.5, 2.0]))
# marginals packed just above L: unit 1 has 41 segments, unit 2 one
@example(scheme_of(1.0, 30.0, 40, marginals=[0.1] + [1.0 + i * 1e-8 for i in range(1, 40)]))
def test_builder_matches_the_per_unit_reference(scheme):
    cols, sizes = reference_columns(scheme.model, solve_alpha_star(scheme.model))
    assert scheme.sizes == array("q", sizes)
    assert scheme.columns.tobytes() == cols.tobytes()


def test_built_schemes_draw_tails_of_none_one_and_many_units():
    # find searches until a scheme with each tail appears (2 stands for
    # many), so the check does not rest on which examples one run draws
    for tail in (0, 1, 2):

        def has_tail(scheme, tail=tail):
            return scheme.kind != "two_unit" and min(tail_units(scheme), 2) == tail

        search = settings(max_examples=2000, deadline=None, database=None)
        find(built_schemes(), has_tail, settings=search)


# ---------------------------------------------------------------------------
# the curve table


def literal_price(unit, s: float) -> float:
    """A unit's curve at seed s by a scan of its segments, as scheme_to_json
    lists them: the last one that
    starts at or below s, read with the table's rule (v_hi at or past s_hi,
    v_lo at or below s_lo, the clamped exponential in between)."""
    seg = [seg for seg in unit if seg["s_lo"] <= s][-1]
    if s >= seg["s_hi"]:
        return seg["v_hi"]
    if s <= seg["s_lo"]:
        return seg["v_lo"]
    p = seg["cost"] + (seg["v_lo"] - seg["cost"]) * np.exp(seg["rate"] * (s - seg["s_lo"]))
    return float(min(max(p, seg["v_lo"]), seg["v_hi"]))


def boundary_seeds(scheme) -> list[float]:
    """Every segment boundary of every unit and the floats either side of
    it, within [0, 1]."""
    units = scheme_to_json(scheme)["segments"]
    edges = {x for unit in units for seg in unit for x in (seg["s_lo"], seg["s_hi"])}
    near = {y for x in edges for y in (math.nextafter(x, -1.0), x, math.nextafter(x, 2.0))}
    return sorted(y for y in near if 0.0 <= y <= 1.0)


class TestCurveTable:
    @settings(max_examples=100, deadline=None)
    @given(built_schemes(), st.integers(0, 2**32 - 1))
    def test_forward_lookup_is_the_literal_scan(self, scheme, seed):
        rng = np.random.default_rng(seed)
        k = scheme.model.k
        grid = boundary_seeds(scheme) + rng.random(40).tolist()
        table = prices_for_seeds(scheme, np.repeat(np.array(grid)[:, None], k, axis=1))
        for i, unit in enumerate(scheme_to_json(scheme)["segments"], start=1):
            want = [literal_price(unit, s) for s in grid]
            assert table[:, i - 1].tolist() == want, i
            assert [price_at(scheme, i, s) for s in grid] == want, i
        # the price chain, with no tolerance, at shared and at random seeds
        assert np.all(np.diff(table, axis=1) >= 0.0)
        assert np.all(np.diff(prices_for_seeds(scheme, rng.random((200, k))), axis=1) >= 0.0)

    @settings(max_examples=100, deadline=None)
    @given(built_schemes(), st.integers(0, 2**32 - 1))
    def test_static_quantile_is_unit_j_plus_1_at_seed_qk_minus_j(self, scheme, seed):
        k = scheme.model.k
        q = np.concatenate([np.arange(k + 1) / k, np.random.default_rng(seed).random(60)])
        for x, p in zip(q.tolist(), static_prices_for_quantiles(scheme, q).tolist()):
            j = min(math.floor(x * k), k - 1)
            assert p == price_at(scheme, j + 1, x * k - j)

    @settings(max_examples=100, deadline=None)
    @given(built_schemes(), st.integers(0, 2**32 - 1))
    def test_inverse_lookup_is_a_right_inverse(self, scheme, seed):
        rng = np.random.default_rng(seed)
        for i, (lo, hi) in enumerate(scheme.price_intervals, start=1):
            for v in [lo, hi, *rng.uniform(lo, hi, 20).tolist()]:
                assert price_at(scheme, i, inverse_price(scheme, i, v)) == pytest.approx(
                    v, rel=1e-12, abs=0.0
                )
        assert inverse_price(scheme, scheme.k_underbar_star, scheme.model.L) == scheme.xi_star
