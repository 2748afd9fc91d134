"""Mechanism tests: hand-traced runs, the sell kernel against a literal
per-arrival reading of the sell rule, an exhaustive-subset oracle for the
offline optimum, trial-stream layout and determinism, surrogate behavior,
the guarantee as an empirical upper bound on OPT / E[welfare], and the
exact-welfare oracle against brute-force integration over seeds."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from exact_welfare import dynamic_welfare, price_cdfs, static_welfare
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from kselect import mechanisms
from kselect.cli import _mechanism
from kselect.cost_model import make_cost_model
from kselect.errors import SolverError, ValidationError
from kselect.instances import Instance, gen_iid, hard_instance, read_instance
from kselect.mechanisms import (
    MAX_TRIAL_CELLS,
    Mechanism,
    _price_matrix,
    _welfares,
    expected_welfare,
    instance_rng,
    instance_sim_seed,
    offline_opt,
    ratio_to_opt,
    run_posted_price,
    run_trial,
    static_prices_for_quantiles,
    trial_rng,
    trial_welfares,
)
from kselect.lower_bound import solve_alpha_star
from kselect.pricing import (
    Curves,
    build_scheme,
    inverse_price,
    price_at,
    prices_for_seeds,
)


def mechanism(scheme, kind, sigma=0.5):
    """The mechanism the command line builds for ``kind``, at ``sigma`` for pinned."""
    return _mechanism(scheme, f"pinned:{sigma!r}" if kind == "pinned" else kind)[1]


def opt_by_subset_enumeration(instance, model):
    """Try every feasible buyer subset; the contract's sorted-prefix search
    must match this exactly."""
    vals = instance.valuations
    best, best_size = 0.0, 0
    for size in range(1, min(model.k, len(vals)) + 1):
        for combo in itertools.combinations(vals, size):
            w = sum(combo) - model.cumulative[size]
            if w > best + 1e-12:
                best, best_size = w, size
    return best, best_size


class TestRunPostedPrice:
    def test_hand_traced_run(self):
        # reject, then sell unit 1, then sell unit 2: welfare 3.2 - 0.3 = 2.9
        m = make_cost_model(L=1.0, U=2.0, k=2, marginals=[0.1, 0.2])
        out = run_posted_price((1.05, 1.5), Instance((1.0, 1.2, 2.0)), m)
        assert [d.accepted for d in out.decisions] == [False, True, True]
        assert [d.posted_price for d in out.decisions] == [1.05, 1.05, 1.5]
        assert out.units_sold == 2
        assert out.welfare == pytest.approx(2.9, abs=1e-12)
        assert out.revenue == pytest.approx(1.05 + 1.5 - 0.3, abs=1e-12)

    def test_acceptance_at_exact_equality(self):
        m = make_cost_model(L=1.0, U=2.0, k=1, marginals=[0.0])
        out = run_posted_price((1.5,), Instance((1.5,)), m)
        assert out.decisions[0].accepted
        assert out.units_sold == 1

    def test_sold_out_posts_nothing(self):
        m = make_cost_model(L=1.0, U=2.0, k=1, marginals=[0.0])
        out = run_posted_price((1.0,), Instance((1.0, 1.8)), m)
        assert out.decisions[0].accepted
        assert out.decisions[1].posted_price is None
        assert not out.decisions[1].accepted
        assert out.units_sold == 1

    def test_empty_instance(self):
        m = make_cost_model(L=1.0, U=2.0, k=2, marginals=[0.1, 0.2])
        out = run_posted_price((1.0, 1.5), Instance(()), m)
        assert out.units_sold == 0
        assert out.welfare == 0.0

    def test_validation(self):
        m = make_cost_model(L=1.0, U=2.0, k=2, marginals=[0.1, 0.2])
        with pytest.raises(ValidationError, match="arrival 2"):
            run_posted_price((1.0, 1.5), Instance((1.5, 0.9)), m)
        with pytest.raises(ValidationError, match=r"^expected 2 finite prices, got \[1\.0\]$"):
            run_posted_price((1.0,), Instance((1.5,)), m)
        for bad in ((1.0, math.nan), (math.inf, 1.5), (1.0, -math.inf)):
            with pytest.raises(ValidationError, match="^expected 2 finite prices, got "):
                run_posted_price(bad, Instance((1.5,)), m)

    @pytest.mark.parametrize("bad", ["nan", "inf", "2.5"])
    def test_first_bad_arrival_is_named_however_late(self, tmp_path, bad):
        # read_instance takes nan and inf as numbers; arrival 1001 is bad too
        m = make_cost_model(L=1.0, U=2.0, k=2, marginals=[0.1, 0.2])
        path = tmp_path / "instance.txt"
        path.write_text("1.5\n" * 999 + f"{bad}\n0.5\n")
        inst = read_instance(path)
        want = re.escape(f"arrival 1000: valuation {float(bad)} outside [1.0, 2.0]")
        with pytest.raises(ValidationError, match=f"^{want}$"):
            run_posted_price((1.0, 1.5), inst, m)
        with pytest.raises(ValidationError, match=f"^{want}$"):
            expected_welfare(Mechanism(build_scheme(m)), inst, m, 4, 0)

    def test_accepted_prices_nondecreasing(self):
        rng = np.random.default_rng(211)
        m = make_cost_model(L=1.0, U=5.0, k=4, marginals=[0.1, 0.2, 0.3, 0.4])
        dyn = Mechanism(build_scheme(m))
        inst = gen_iid(m, 60, 3.0, 2.0, rng)
        for t in range(20):
            out = run_trial(dyn, inst, m, 999, t)
            taken = [d.posted_price for d in out.decisions if d.accepted]
            assert all(a <= b for a, b in zip(taken, taken[1:]))
            assert out.units_sold == sum(d.accepted for d in out.decisions)


def sequential_run(prices, valuations, model):
    """The sell rule read literally, one step per arrival: sale positions,
    (posted price, accepted) per arrival, welfare and revenue."""
    kappa, sum_v, sum_p, sales, trace = 0, 0.0, 0.0, [], []
    for t, v in enumerate(valuations):
        if kappa == model.k:
            trace.append((None, False))
            continue
        p = prices[kappa]
        trace.append((p, v >= p))
        if v >= p:
            sum_v += v
            sum_p += p
            sales.append(t)
            kappa += 1
    cost = model.cumulative[kappa]
    return sales, trace, sum_v - cost, sum_p - cost


@st.composite
def kernel_cases(draw):
    """A scheme of a random general, high-value or two-unit setup, a price
    matrix of one of the three mechanisms, and arrivals of length 0, 1, 2^m
    or 2^m + 1, some of them set exactly to posted prices."""
    kind = draw(st.sampled_from(("general", "high_value", "two_unit")))
    L = draw(st.floats(1.0, 3.0))
    U = L * draw(st.floats(1.5, 6.0))
    if kind == "two_unit":
        k = 2
    else:
        k = draw(st.integers(2 if kind == "general" else 1, 6))
    cap = min(1.8 * L, 0.9 * U) if kind == "general" else 0.9 * L
    ms = sorted(draw(st.lists(st.floats(0.0, cap), min_size=k, max_size=k)))
    if kind == "general":
        ms[0], ms[-1] = min(ms[0], 0.9 * L), max(ms[-1], L)
    model = make_cost_model(L=L, U=U, k=k, marginals=ms)
    scheme = build_scheme(model)
    mech_kind = draw(st.sampled_from(("r-dynamic", "static", "pinned")))
    sigma = draw(st.floats(0.0, 1.0)) if mech_kind == "pinned" else 0.5
    mech = mechanism(scheme, mech_kind, sigma)
    seed = draw(st.integers(0, 2**32 - 1))
    P = _price_matrix(mech, range(draw(st.integers(1, 12))), seed)
    m = draw(st.integers(0, 9))
    n = draw(st.sampled_from((0, 1, 2**m, 2**m + 1)))
    rng = np.random.default_rng(seed)
    vals = rng.uniform(L, U, size=n)
    ties = rng.random(n) < draw(st.sampled_from((0.0, 0.3, 1.0)))
    vals[ties] = rng.choice(P.ravel(), size=int(ties.sum()))
    return model, P, Instance(tuple(vals.tolist()))


class TestSellKernel:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_rows_match_the_sequential_rule(self, case):
        model, P, inst = case
        w, pos = _welfares(P, inst, model)
        n = len(inst)
        for r, row in enumerate(P.tolist()):
            sales, trace, welfare, revenue = sequential_run(row, inst.valuations, model)
            assert pos[r].tolist() == sales + [n] * (model.k - len(sales))
            assert w[r].hex() == welfare.hex()
            out = run_posted_price(row, inst, model)
            assert out.welfare.hex() == welfare.hex()
            assert out.revenue.hex() == revenue.hex()
            assert out.units_sold == len(sales)
            assert [(d.posted_price, d.accepted) for d in out.decisions] == trace

    def test_extra_memory_is_linear_in_arrivals(self):
        # an n log n sparse table would need 20 * 8n bytes here
        n = 2**20
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        inst = Instance(tuple(np.random.default_rng(3).uniform(1.0, 30.0, n).tolist()))
        P = prices_for_seeds(build_scheme(m), np.random.default_rng(4).random((4, m.k)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _welfares(P, inst, m)
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert extra < 4 * n * 8


class TestOfflineOpt:
    def test_frozen_examples(self):
        m = make_cost_model(L=1.0, U=10.0, k=3, marginals=[1.0, 2.0, 4.0])
        assert offline_opt(Instance((5.0, 3.0, 2.0)), m) == (5.0, 2)
        assert offline_opt(Instance(()), m) == (0.0, 0)
        m1 = make_cost_model(L=1.0, U=10.0, k=1, marginals=[1.0])
        assert offline_opt(Instance((2.0,)), m1) == (1.0, 1)

    def test_smallest_count_on_ties(self):
        # adding a unit priced exactly at the next valuation changes nothing
        m = make_cost_model(L=1.0, U=10.0, k=2, marginals=[0.0, 3.0])
        assert offline_opt(Instance((5.0, 3.0)), m) == (5.0, 1)

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(223)
        for _ in range(120):
            k = int(rng.integers(1, 5))
            L = float(rng.uniform(1.0, 2.0))
            U = L * float(rng.uniform(1.5, 5.0))
            ms = np.sort(rng.uniform(0.0, 1.2 * L, size=k))
            ms[0] = min(ms[0], 0.9 * L)
            m = make_cost_model(L=L, U=U, k=k, marginals=[float(x) for x in ms])
            T = int(rng.integers(0, 11))
            inst = Instance(tuple(float(v) for v in rng.uniform(L, U, size=T)))
            got = offline_opt(inst, m)
            want = opt_by_subset_enumeration(inst, m)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == want[1]


    def test_matches_the_prefix_loop_and_enumeration_on_ties(self):
        # tied valuations and tied marginals, k > n and n = 0: the NumPy
        # pass gives the sorted-prefix loop's result bit for bit and the
        # enumeration's welfare (whose count a tie within 1e-12 can move)
        def prefix_loop(instance, model):
            vals = sorted(instance.valuations, reverse=True)
            best, best_j, acc = 0.0, 0, 0.0
            for j in range(1, min(model.k, len(vals)) + 1):
                acc += vals[j - 1]
                w = acc - model.cumulative[j]
                if w > best:
                    best, best_j = w, j
            return best, best_j

        rng = np.random.default_rng(5)
        for n in range(300):
            k = int(rng.integers(1, 7))
            pool = rng.uniform(0.0, 3.0, size=3)
            m = make_cost_model(L=1.0, U=4.0, k=k, marginals=np.sort(rng.choice(pool, k)).tolist())
            levels = [1.0, 2.5, 4.0, *pool[pool >= 1.0]]
            T = n % 9  # 0..8 arrivals, so k > n in many runs
            inst = Instance(tuple(float(v) for v in rng.choice(levels, T)))
            got = offline_opt(inst, m)
            want = prefix_loop(inst, m)
            assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])
            assert type(got[0]) is float and type(got[1]) is int
            assert got[0] == pytest.approx(opt_by_subset_enumeration(inst, m)[0], abs=1e-12)


class TestSubstreams:
    def test_run_trial_bit_identical(self):
        m = make_cost_model(L=1.0, U=4.0, k=3, marginals=[0.1, 0.2, 0.3])
        dyn = Mechanism(build_scheme(m))
        inst = gen_iid(m, 40, 2.5, 1.0, np.random.default_rng(5))
        a = run_trial(dyn, inst, m, 42, 17)
        b = run_trial(dyn, inst, m, 42, 17)
        assert a == b
        c = run_trial(dyn, inst, m, 42, 18)
        assert c != a

    def test_estimate_reproducible_and_matches_per_trial_runs(self):
        m = make_cost_model(L=1.0, U=4.0, k=3, marginals=[0.1, 0.2, 0.3])
        dyn = Mechanism(build_scheme(m))
        inst = gen_iid(m, 30, 2.5, 1.0, np.random.default_rng(7))
        est1 = expected_welfare(dyn, inst, m, trials=200, master_seed=42)
        est2 = expected_welfare(dyn, inst, m, trials=200, master_seed=42)
        assert est1 == est2
        manual = np.mean([run_trial(dyn, inst, m, 42, t).welfare for t in range(200)])
        assert est1.mean == float(manual)

    def test_run_trial_is_an_engine_row(self):
        # k arrivals at U buy every unit, so the posted prices are the whole row
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sch = build_scheme(m)
        dyn = Mechanism(sch)
        stat = Mechanism(sch, static=True)
        inst = Instance((m.U,) * m.k)
        for t in range(20):
            posted = [d.posted_price for d in run_trial(dyn, inst, m, 8, t).decisions]
            row = prices_for_seeds(sch, trial_rng(8, t, m.k).random(m.k)[None])[0]
            assert posted == row.tolist()
            posted = [d.posted_price for d in run_trial(stat, inst, m, 8, t).decisions]
            p = static_prices_for_quantiles(sch, np.array([trial_rng(8, t, m.k).random()]))[0]
            assert posted == [p] * m.k

    def test_instance_seeds_keep_their_spawn_keys(self):
        for master, idx in ((0, 0), (11, 3), (2**40, 299)):
            ref = np.random.default_rng(np.random.SeedSequence(master, spawn_key=(0, idx)))
            assert instance_rng(master, idx).random(4).tolist() == ref.random(4).tolist()
            ss = np.random.SeedSequence(master, spawn_key=(1, idx))
            assert instance_sim_seed(master, idx) == int(ss.generate_state(1, np.uint64)[0])

    def test_trials_validation(self):
        m = make_cost_model(L=1.0, U=4.0, k=1, marginals=[0.0])
        dyn = Mechanism(build_scheme(m))
        with pytest.raises(ValidationError):
            expected_welfare(dyn, Instance((2.0,)), m, trials=0, master_seed=1)

    def test_trials_times_k_ceiling(self):
        # checked before any draw, on the rows drawn: pinned draws one row,
        # so it runs at the ceiling and past it, where the other kinds are
        # refused one trial past it
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.0, 0.5])
        scheme = build_scheme(m)
        top = MAX_TRIAL_CELLS // 2
        for trials in (top, top + 1):
            pinned = mechanism(scheme, "pinned")
            assert expected_welfare(pinned, Instance((2.0,)), m, trials, 1).trials == trials
        for kind, trials in (("r-dynamic", top + 1), ("static", 10**400)):
            with pytest.raises(ValidationError, match="exceeds the ceiling"):
                expected_welfare(mechanism(scheme, kind), Instance((2.0,)), m, trials, 1)


def philox_rows(master_seed, k, trials):
    """Rows 0..trials-1 of the keyed stream, from one contiguous random_raw
    draw: each row is ceil(k / 4) four-word blocks, and its first k words w
    map to the uniforms (w >> 11) * 2**-53."""
    key = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    width = 4 * -(-k // 4)
    raw = np.random.Philox(key=key).random_raw(trials * width).reshape(trials, width)
    return (raw[:, :k] >> np.uint64(11)) * 2.0**-53


class TestTrialStreams:
    @pytest.mark.parametrize("k", [1, 3, 4, 5, 10, 17])
    def test_rows_are_runs_of_one_contiguous_stream(self, k):
        for seed in (0, 8, 2**63):
            want = philox_rows(seed, k, 12)
            got = np.stack([trial_rng(seed, t, k).random(k) for t in range(12)])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("counter", [2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**200])
    def test_counters_at_and_past_64_bits_read_the_keyed_stream(self, counter):
        # k = 4 takes one counter block per row, so trial t starts at block t
        key = np.random.SeedSequence(6).generate_state(2, np.uint64)
        want = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = trial_rng(6, counter, 4).random(8)
        assert got.tobytes() == want.tobytes()

    def test_rows_do_not_depend_on_draw_order(self):
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        dyn = Mechanism(build_scheme(m))
        order = np.random.default_rng(3).permutation(40)
        forward = np.stack([trial_rng(5, t, m.k).random(m.k) for t in range(40)])
        shuffled = np.stack([trial_rng(5, t, m.k).random(m.k) for t in order])
        assert shuffled.tobytes() == forward[order].tobytes()
        engine = _price_matrix(dyn, range(40), 5)
        assert _price_matrix(dyn, order, 5).tobytes() == engine[order].tobytes()

    def test_master_seeds_give_different_rows(self):
        seeds = list(range(40)) + [2**40, 2**64 - 1]
        first = {s: trial_rng(s, 0, 4).random(4).tobytes() for s in seeds}
        assert len(set(first.values())) == len(seeds)
        # each seed's key survives being evicted from the key cache
        assert all(trial_rng(s, 0, 4).random(4).tobytes() == first[s] for s in seeds)

    def test_static_quantile_is_the_first_word_of_the_row(self):
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sch = build_scheme(m)
        q = philox_rows(21, m.k, 30)[:, 0]
        want = static_prices_for_quantiles(sch, q)
        got = _price_matrix(Mechanism(sch, static=True), range(30), 21)
        assert got.tobytes() == np.repeat(want[:, None], m.k, axis=1).tobytes()


class TestExpectedWelfare:
    def test_single_buyer_always_accepts(self):
        # top price is U = e and utility at equality is accepted, so the one
        # buyer at v = e buys in every trial: zero variance, ratio exactly 1
        m = make_cost_model(L=1.0, U=math.e, k=1, marginals=[0.0])
        dyn = Mechanism(build_scheme(m))
        est = expected_welfare(dyn, Instance((math.e,)), m, trials=300, master_seed=3)
        assert est.mean == pytest.approx(math.e, rel=1e-12)
        assert est.std_error == 0.0
        assert ratio_to_opt(offline_opt(Instance((math.e,)), m)[0], est.mean) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_a_U_equal_L_model_runs_one_row(self):
        # every price is L at every seed: the curves are fixed, so the
        # estimate is the one run, drawn from no stream
        m = make_cost_model(L=2.0, U=2.0, k=3, marginals=[0.1, 0.3, 0.7])
        dyn = Mechanism(build_scheme(m))
        assert dyn.curves.fixed and dyn.rows(7) == 1
        inst = Instance((2.0, 2.0, 2.0))
        with mock.patch.object(mechanisms, "trial_rng", side_effect=AssertionError("drew")):
            est = expected_welfare(dyn, inst, m, trials=7, master_seed=1)
        assert est.mean == run_posted_price([2.0] * m.k, inst, m).welfare == 4.9
        assert (est.std_error, est.trials) == (0.0, 7)

    def test_flat_scheme_has_zero_variance(self):
        m = make_cost_model(L=2.0, U=2.0, k=2, marginals=[0.5, 1.0])
        dyn = Mechanism(build_scheme(m))
        inst = Instance((2.0, 2.0, 2.0))
        est = expected_welfare(dyn, inst, m, trials=50, master_seed=9)
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(run_trial(dyn, inst, m, 9, 0).welfare, abs=1e-12)

    def test_ratio_bounded_by_guarantee(self):
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sch = build_scheme(m)
        dyn = Mechanism(sch)
        for seed in (31, 37, 41):
            inst = gen_iid(m, 120, 15.0, 15.0, np.random.default_rng(seed))
            est = expected_welfare(dyn, inst, m, trials=1500, master_seed=seed)
            opt, _ = offline_opt(inst, m)
            slack = 3.0 * opt * est.std_error / est.mean**2
            assert ratio_to_opt(opt, est.mean) <= sch.cr_guarantee + slack

    def test_hard_instance_ratio_near_two_unit_bound(self):
        m = make_cost_model(L=1.0, U=5.0, k=2, marginals=[0.25, 0.5])
        sch = build_scheme(m)
        dyn = Mechanism(sch)
        assert sch.kind == "two_unit"
        inst = hard_instance(m, epsilon=0.01, terminal_stage=5.0)
        est = expected_welfare(dyn, inst, m, trials=20_000, master_seed=77)
        assert abs(ratio_to_opt(offline_opt(inst, m)[0], est.mean) - sch.alpha_star) <= 0.08

    def test_target_must_be_a_mechanism_of_the_model(self):
        # a model other than the scheme's once gave a wrong mean with no
        # error (other costs) or an IndexError (other k)
        m = make_cost_model(L=1.0, U=4.0, k=3, marginals=[0.1, 0.2, 0.3])
        sch = build_scheme(m)
        inst = Instance((3.9,) * 4)
        same = make_cost_model(L=1.0, U=4.0, k=3, marginals=[0.1, 0.2, 0.3])
        est = expected_welfare(Mechanism(sch), inst, same, trials=50, master_seed=1)
        assert est == expected_welfare(Mechanism(sch), inst, sch.model, 50, 1)
        others = (
            make_cost_model(L=1.0, U=4.0, k=3, marginals=[0.5, 0.6, 0.7]),
            make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.1, 0.2]),
        )
        for kind in ("r-dynamic", "pinned", "static"):
            for other in others:
                with pytest.raises(ValidationError, match="built for another model"):
                    expected_welfare(mechanism(sch, kind), inst, other, 50, 1)
                with pytest.raises(ValidationError, match="built for another model"):
                    run_trial(mechanism(sch, kind), inst, other, 1, 0)
        for target in (sch, "r-dynamic"):
            with pytest.raises(ValidationError, match="expected a Mechanism"):
                expected_welfare(target, inst, m, 50, 1)
            with pytest.raises(ValidationError, match="expected a Mechanism"):
                run_trial(target, inst, m, 1, 0)

    def test_empty_instance_ratio_convention(self):
        m = make_cost_model(L=1.0, U=2.0, k=1, marginals=[0.0])
        dyn = Mechanism(build_scheme(m))
        est = expected_welfare(dyn, Instance(()), m, trials=5, master_seed=1)
        assert est.mean == 0.0
        assert ratio_to_opt(offline_opt(Instance(()), m)[0], est.mean) == 1.0
        assert ratio_to_opt(1.0, 0.0) == math.inf
        assert ratio_to_opt(2.0, 0.5) == 4.0


@st.composite
def row_cuts(draw, kind):
    """A mechanism of ``kind`` on a random setup, an instance, a seed, and
    trials with a cut of the estimate's rows into contiguous slices; or,
    one time in four, trials past the cell ceiling and one slice."""
    L = draw(st.floats(1.0, 3.0))
    U = L * draw(st.floats(1.5, 6.0))
    k = draw(st.integers(1, 6))
    ms = sorted(draw(st.lists(st.floats(0.0, 1.5 * L), min_size=k, max_size=k)))
    ms[0] = min(ms[0], 0.9 * L)
    model = make_cost_model(L=L, U=U, k=k, marginals=ms)
    try:
        scheme = build_scheme(model)
    except SolverError:  # exit 3: c_k = U, or too near U (test_cli)
        reject()
    mech = mechanism(scheme, kind, draw(st.floats(0.0, 1.0)))
    seed = draw(st.integers(0, 2**64 - 1))
    rng = np.random.default_rng(seed)
    inst = Instance(tuple(rng.uniform(L, U, draw(st.integers(0, 40))).tolist()))
    if draw(st.integers(0, 3)) == 0:
        trials = MAX_TRIAL_CELLS // k + draw(st.integers(1, 10**9))
        start = draw(st.integers(0, mech.rows(trials) - 1))
        cut = [start, start + draw(st.integers(1, 50))]
    else:
        trials = draw(st.integers(1, 80))
        rows = mech.rows(trials)
        cut = sorted({0, rows, *draw(st.lists(st.integers(0, rows), max_size=6))})
    return mech, inst, seed, trials, [slice(a, b) for a, b in itertools.pairwise(cut)]


@st.composite
def explicit_ladders(draw, max_k=50):
    """A random explicit ladder of k <= max_k units in either regime."""
    general = draw(st.booleans())
    L = draw(st.floats(1.0, 3.0))
    U = L * draw(st.floats(1.5, 6.0))
    k = draw(st.integers(2 if general else 1, max_k))
    cap = min(1.8 * L, 0.9 * U) if general else 0.9 * L
    ms = sorted(draw(st.lists(st.floats(0.0, cap), min_size=k, max_size=k)))
    if general:
        ms[0], ms[-1] = min(ms[0], 0.9 * L), max(ms[-1], L)
    model = make_cost_model(L=L, U=U, k=k, marginals=ms)
    assert model.regime == ("general" if general else "high_value")
    return model


@st.composite
def tied_setups(draw):
    """A scheme on a random explicit ladder of k <= 50 units in either
    regime, a seed and arrivals drawn from at most four distinct values."""
    model = draw(explicit_ladders())
    pool = draw(st.lists(st.floats(model.L, model.U), min_size=1, max_size=4))
    inst = Instance(tuple(draw(st.lists(st.sampled_from(pool), max_size=60))))
    return build_scheme(model), draw(st.integers(0, 2**64 - 1)), inst


@st.composite
def flat_setups(draw):
    """A ladder of k <= 30 units in either regime, a price vector in [L, U]
    that need not be sorted, often at L or U, a seed and arrivals that
    often sit exactly at a price."""
    model = draw(explicit_ladders(max_k=30))
    L, U = model.L, model.U
    one = st.one_of(st.sampled_from((L, U)), st.floats(L, U))
    prices = draw(st.lists(one, min_size=model.k, max_size=model.k))
    pool = st.one_of(st.sampled_from(prices), st.floats(L, U))
    inst = Instance(tuple(draw(st.lists(pool, max_size=40))))
    return model, prices, draw(st.integers(0, 2**64 - 1)), inst


class TestTrialWelfares:
    @pytest.mark.parametrize("kind", ["r-dynamic", "pinned", "static"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_cut_of_the_rows_joins_to_the_estimate(self, kind, data):
        mech, inst, seed, trials, parts = data.draw(row_cuts(kind))
        model = mech.curves.model
        if mech.rows(trials) * model.k > MAX_TRIAL_CELLS:
            with pytest.raises(ValidationError) as whole:
                expected_welfare(mech, inst, model, trials, seed)
            with pytest.raises(ValidationError) as part:
                trial_welfares(mech, inst, model, trials, seed, parts[0])
            assert str(part.value) == str(whole.value)
            return
        full = trial_welfares(mech, inst, model, trials, seed)
        joined = np.concatenate(
            [trial_welfares(mech, inst, model, trials, seed, p) for p in parts]
        )
        assert joined.tobytes() == full.tobytes()
        assert float(joined.mean()) == expected_welfare(mech, inst, model, trials, seed).mean

    @pytest.mark.parametrize("kind", ["r-dynamic", "pinned", "static"])
    @settings(max_examples=40, deadline=None)
    @given(setup=tied_setups(), sigma=st.floats(0.0, 1.0))
    def test_no_trial_beats_the_offline_optimum(self, kind, setup, sigma):
        scheme, seed, inst = setup
        model = scheme.model
        opt = offline_opt(inst, model)[0]
        w = trial_welfares(mechanism(scheme, kind, sigma), inst, model, 20, seed)
        assert w.max() <= opt + 1e-12 * opt


class TestFlatCurves:
    @settings(max_examples=60, deadline=None)
    @given(setup=flat_setups())
    def test_every_seed_posts_the_price_vector(self, setup):
        model, prices, seed, _ = setup
        flat = Curves.flat(model, prices)
        assert flat.fixed and flat.sizes.tolist() == [1] * model.k
        seeds = np.vstack(([0.0] * model.k, [1.0] * model.k))
        seeds = np.vstack((seeds, np.random.default_rng(seed).random((4, model.k))))
        want = np.array([prices] * len(seeds))
        assert prices_for_seeds(flat, seeds).tobytes() == want.tobytes()
        for i, p in enumerate(prices, start=1):
            for s in seeds[:, i - 1].tolist():
                assert price_at(flat, i, s).hex() == p.hex()

    @settings(max_examples=60, deadline=None)
    @given(setup=flat_setups(), data=st.data())
    def test_inverse_price_is_the_step_at_the_price(self, setup, data):
        model, prices, _, _ = setup
        flat = Curves.flat(model, prices)
        for i, p in enumerate(prices, start=1):
            below, above = math.nextafter(p, -math.inf), math.nextafter(p, math.inf)
            extra = data.draw(st.floats(model.L, model.U))
            for v in (model.L, model.U, p, below, above, extra):
                assert inverse_price(flat, i, v) == (1.0 if v >= p else 0.0)

    @settings(max_examples=60, deadline=None)
    @given(setup=flat_setups(), trials=st.integers(1, 50))
    def test_an_estimate_is_one_run_drawn_from_no_stream(self, setup, trials):
        model, prices, seed, inst = setup
        mech = Mechanism(Curves.flat(model, prices))
        assert mech.rows(trials) == 1
        assert Mechanism(mech.curves, static=True).rows(trials) == trials
        run = run_posted_price(prices, inst, model)
        with mock.patch.object(mechanisms, "trial_rng", side_effect=AssertionError("drew")):
            w = trial_welfares(mech, inst, model, trials, seed)
            assert run_trial(mech, inst, model, seed, trials - 1) == run
        assert w.tobytes() == np.array([run.welfare]).tobytes()

    @pytest.mark.parametrize(
        "prices",
        [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [], [[1.0, 2.0, 3.0]], [1.0, math.nan, 2.0],
         [math.inf, 2.0, 3.0]],
        ids=["short", "long", "empty", "nested", "nan", "inf"],
    )
    def test_a_wrong_length_or_a_non_finite_price_is_invalid(self, prices):
        # one check, pricing.price_vector, serves the curves and the runner
        m = make_cost_model(L=1.0, U=4.0, k=3, marginals=[0.1, 0.2, 0.3])
        with pytest.raises(ValidationError, match="^expected 3 finite prices, got "):
            Curves.flat(m, prices)
        with pytest.raises(ValidationError, match="^expected 3 finite prices, got "):
            run_posted_price(prices, Instance((1.5,)), m)


class TestSurrogates:
    def test_pinned_extremes_and_determinism(self):
        m = make_cost_model(L=1.0, U=4.0, k=3, marginals=[0.1, 0.2, 0.3])
        sch = build_scheme(m)
        label, lo = _mechanism(sch, "pinned:0")
        hi = mechanism(sch, "pinned", 1.0)
        inst = gen_iid(m, 25, 2.5, 1.0, np.random.default_rng(43))
        out_lo = run_trial(lo, inst, m, 0, 0)
        posted = [d.posted_price for d in out_lo.decisions if d.posted_price is not None]
        assert posted[0] == sch.price_intervals[0][0]
        out_hi = run_trial(hi, inst, m, 0, 0)
        first_hi = next(d.posted_price for d in out_hi.decisions if d.posted_price is not None)
        assert first_hi == sch.price_intervals[0][1]
        assert run_trial(lo, inst, m, 5, 3) == run_trial(lo, inst, m, 11, 8)
        est = expected_welfare(lo, inst, m, trials=40, master_seed=0)
        assert est.std_error == 0.0
        assert lo.curves.fixed and label == "d-dynamic-surrogate(sigma=0)"

    def test_pinned_sigma_validation(self):
        m = make_cost_model(L=1.0, U=4.0, k=1, marginals=[0.0])
        sch = build_scheme(m)
        for spec in ("pinned:1.2", {"kind": "pinned", "sigma": 1.2}):
            with pytest.raises(ValidationError, match="sigma 1.2 outside"):
                _mechanism(sch, spec)
        # only pinned reads sigma
        assert _mechanism(sch, "static")[0] == "r-static-surrogate"
        with pytest.raises(ValidationError, match="only pinned takes a sigma"):
            _mechanism(sch, "static:1.2")
        # an unknown kind fails when the spec is read, not at the first estimate
        for kind in ("bogus", "", None):
            with pytest.raises(ValidationError, match="expected r-dynamic, pinned or static"):
                _mechanism(sch, {"kind": kind})

    def test_static_is_keyword_only(self):
        # the old spelling Mechanism(scheme, "static") must not read as static
        sch = build_scheme(make_cost_model(L=1.0, U=4.0, k=1, marginals=[0.0]))
        with pytest.raises(TypeError):
            Mechanism(sch, "static")
        assert [f.name for f in dataclasses.fields(Mechanism)] == ["curves", "static"]

    def test_static_quantile_extremes(self):
        m = make_cost_model(L=1.0, U=4.0, k=3, marginals=[0.1, 0.2, 0.3])
        sch = build_scheme(m)
        ps = static_prices_for_quantiles(sch, np.array([0.0, 1.0]))
        assert ps[0] == 1.0
        # q = 1 is the top of the chain, which the solver ends within 1e-9 of U
        assert ps[1] == sch.price_intervals[-1][1]
        assert ps[1] == pytest.approx(4.0, abs=1e-9)
        grid = static_prices_for_quantiles(sch, np.linspace(0.0, 1.0, 41))
        assert np.all(np.diff(grid) >= -1e-12)
        for q in (1.5, -0.5, math.nan):
            with pytest.raises(ValidationError, match=r"quantiles outside \[0, 1\]"):
                static_prices_for_quantiles(sch, np.array([q]))

    @pytest.mark.parametrize(
        "L, U, k, marginals, kind",
        [
            (1.0, 30.0, 10, None, "general"),
            (1.0, 4.0, 3, [0.1, 0.2, 0.3], "high_value"),
            (1.0, 5.0, 2, [0.25, 0.5], "two_unit"),  # first curve ramps
            (1.0, 2.0, 2, [0.0, 0.0], "two_unit"),  # first curve pinned at L
            (1.0, math.e, 1, [0.0], "high_value"),
        ],
        ids=["general", "high-value-k3", "two-unit-ramp", "two-unit-floor", "k1"],
    )
    def test_static_quantiles_invert_the_aggregate_cdf(self, L, U, k, marginals, kind):
        # F = mean_i psi_i from the allocation curves, sharing no price table
        if marginals is None:
            m = make_cost_model(L=L, U=U, k=k, quadratic_coeff=1.0 / 16.0)
        else:
            m = make_cost_model(L=L, U=U, k=k, marginals=marginals)
        sch = build_scheme(m)
        assert sch.kind == kind
        q = np.unique(np.concatenate([np.linspace(0.0, 1.0, 2001), np.arange(k + 1) / k]))
        p = static_prices_for_quantiles(sch, q)
        F = price_cdfs(solve_alpha_star(m), m, p).mean(axis=0)
        above = p > L
        assert np.all(np.abs(F[above] - q[above]) <= 1e-12)
        assert np.all(F[~above] >= q[~above])
        assert np.all(p[~above] == L)
        assert np.all(np.diff(p) >= 0.0)

    def test_static_single_unit_matches_dynamic_distribution(self):
        m = make_cost_model(L=1.0, U=math.e, k=1, marginals=[0.0])
        sch = build_scheme(m)
        dyn = Mechanism(sch)
        label, stat = _mechanism(sch, "static")
        inst = Instance((1.3, 2.0, 2.5))
        a = expected_welfare(dyn, inst, m, trials=4000, master_seed=55)
        b = expected_welfare(stat, inst, m, trials=4000, master_seed=56)
        assert abs(a.mean - b.mean) <= 3.0 * (a.std_error + b.std_error)
        assert stat.static and label == "r-static-surrogate"

    def test_static_posts_one_price(self):
        m = make_cost_model(L=1.0, U=4.0, k=3, marginals=[0.1, 0.2, 0.3])
        stat = Mechanism(build_scheme(m), static=True)
        out = run_trial(stat, Instance((3.9, 3.9, 3.9, 3.9)), m, 5, 2)
        posted = {d.posted_price for d in out.decisions if d.posted_price is not None}
        assert len(posted) == 1


class TestEnsembleMonotonicity:
    def test_runs_never_fall_two_units_behind(self):
        # on a staged instance, by the arrival at which the most-sold run has
        # omega units, every run must have at least omega - 1
        m = make_cost_model(L=1.0, U=3.0, k=2, marginals=[0.2, 0.4])
        sch = build_scheme(m)
        inst = hard_instance(m, epsilon=0.05, terminal_stage=3.0)
        rng = np.random.default_rng(61)
        seed_vectors = [np.zeros(2), np.ones(2)]
        seed_vectors += [rng.random(2) for _ in range(62)]
        sold = []
        for seeds in seed_vectors:
            prices = tuple(price_at(sch, i, float(seeds[i - 1])) for i in (1, 2))
            out = run_posted_price(prices, inst, m)
            sold.append(np.cumsum([d.accepted for d in out.decisions]))
        sold = np.array(sold)
        top = sold.max(axis=0)
        for omega in range(1, int(top.max()) + 1):
            tau = int(np.argmax(top >= omega))
            assert sold[:, tau].min() >= omega - 1


def _seed_cells(cuts, n=50):
    """Midpoints and widths of [0, 1] cut on a uniform n-grid and at ``cuts``."""
    edges = np.unique(np.concatenate([np.linspace(0.0, 1.0, n + 1), cuts]))
    return (edges[:-1] + edges[1:]) / 2, np.diff(edges)


class TestExactWelfareOracle:
    """The exact-welfare oracle of criterion 11 against brute-force integration.

    A run's outcome changes only where some unit's price crosses an arrival's
    value, at the seed ``inverse_price(i, v_t)`` (for the static surrogate,
    at the mean of these over units). A seed grid cut there as well is
    constant on every cell, so its midpoint sum is the exact integral.
    """

    def test_dynamic_matches_seed_grid(self):
        m = make_cost_model(L=1.0, U=4.0, k=2, marginals=[0.5, 1.5])
        sch = build_scheme(m)
        inst = Instance((1.6, 1.2, 3.1, 1.9, 2.4, 3.8))
        cells = [
            _seed_cells([inverse_price(sch, i, v) for v in inst.valuations]) for i in (1, 2)
        ]
        brute = 0.0
        for s1, w1 in zip(*cells[0]):
            for s2, w2 in zip(*cells[1]):
                prices = (price_at(sch, 1, s1), price_at(sch, 2, s2))
                out = run_posted_price(prices, inst, m)
                brute += w1 * w2 * out.welfare
        exact = dynamic_welfare(solve_alpha_star(m), m, inst.valuations)
        assert exact == pytest.approx(brute, abs=1e-9)

    def test_static_matches_quantile_grid(self):
        m = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
        sch = build_scheme(m)
        inst = gen_iid(m, 12, 15.0, 15.0, np.random.default_rng(5))
        units = range(1, m.k + 1)
        cuts = [np.mean([inverse_price(sch, i, v) for i in units]) for v in inst.valuations]
        qs, widths = _seed_cells(cuts, n=1000)
        brute = sum(
            w * run_posted_price((float(p),) * m.k, inst, m).welfare
            for q, w, p in zip(qs, widths, static_prices_for_quantiles(sch, qs))
        )
        exact = static_welfare(solve_alpha_star(m), m, inst.valuations)
        assert exact == pytest.approx(brute, abs=1e-9)

