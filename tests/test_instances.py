"""Instance generator tests: staged family by hand, truncated normals
against a quadrature oracle, the generators bit for bit against their
list-based references, and lossless file round trips."""

from __future__ import annotations

import math
import os
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kselect import instances
from kselect.cli import main
from kselect.cost_model import make_cost_model
from kselect.errors import ValidationError
from kselect.instances import (
    MAX_ARRIVALS,
    MAX_LINE_CHARS,
    Instance,
    gen_iid,
    gen_low2high,
    gen_sorted,
    hard_instance,
    instance_text,
    read_instance,
)


def truncated_normal_mean(L: float, U: float, mu: float, sdev: float) -> float:
    """Quadrature oracle: mean of N(mu, sdev) conditioned on [L, U]."""
    xs = np.linspace(L, U, 200_001)
    pdf = np.exp(-0.5 * ((xs - mu) / sdev) ** 2)
    dx = xs[1] - xs[0]
    trap = lambda y: dx * (y.sum() - 0.5 * (y[0] + y[-1]))
    return trap(xs * pdf) / trap(pdf)


def ks_statistic(a, b) -> float:
    a, b = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    xs = np.concatenate([a, b])
    fa = np.searchsorted(a, xs, side="right") / len(a)
    fb = np.searchsorted(b, xs, side="right") / len(b)
    return float(np.abs(fa - fb).max())


BENCH = make_cost_model(L=1.0, U=30.0, k=10, quadratic_coeff=1.0 / 16.0)
BENCH_JSON = '{"L": 1, "U": 30, "k": 10, "cost": {"type": "quadratic", "coeff": 0.0625}}'


@pytest.fixture
def wide_model():
    return BENCH


def reference_truncated_normal(model, n, mu, sdev, rng) -> tuple[list[float], int]:
    """The list-based rejection sampler the generators ran before an
    instance was a float column, with no ceiling on its rounds: its values,
    and the batches it drew."""
    if sdev == 0.0:
        return [float(mu)] * n, 0
    out: list[float] = []
    batches = 0
    while len(out) < n:
        draws = rng.normal(mu, sdev, size=max(2 * (n - len(out)), 64))
        kept = draws[(draws >= model.L) & (draws <= model.U)]
        out.extend(float(v) for v in kept[: n - len(out)])
        batches += 1
    return out, batches


def reference_hard(model, epsilon: float, terminal_stage: float) -> list[float]:
    """The stage loop hard_instance ran before: k copies of stage j = L + j * eps,
    the last stage the terminal itself."""
    j_t = round((terminal_stage - model.L) / epsilon)
    vals = []
    for j in range(j_t + 1):
        stage = terminal_stage if j == j_t else model.L + j * epsilon
        vals.extend([stage] * model.k)
    return vals


def same_bits(inst: Instance, ref: list[float]) -> bool:
    return inst.valuations.tobytes() == array("d", ref).tobytes()


class TestHardInstance:
    def test_hand_example(self):
        m = make_cost_model(L=1.0, U=1.25, k=2, marginals=[0.1, 0.2])
        inst = hard_instance(m, epsilon=0.1, terminal_stage=1.2)
        assert list(inst.valuations) == [1.0, 1.0, 1.1, 1.1, 1.2, 1.2]

    def test_terminal_at_floor(self):
        m = make_cost_model(L=1.0, U=2.0, k=3, marginals=[0.1, 0.2, 0.3])
        inst = hard_instance(m, epsilon=0.25, terminal_stage=1.0)
        assert list(inst.valuations) == [1.0, 1.0, 1.0]

    def test_epsilon_wider_than_range(self):
        m = make_cost_model(L=1.0, U=2.0, k=2, marginals=[0.1, 0.2])
        inst = hard_instance(m, epsilon=5.0, terminal_stage=1.0)
        assert list(inst.valuations) == [1.0, 1.0]

    def test_off_grid_terminal_rejected(self):
        m = make_cost_model(L=1.0, U=2.0, k=2, marginals=[0.1, 0.2])
        with pytest.raises(ValidationError):
            hard_instance(m, epsilon=0.1, terminal_stage=1.15)
        with pytest.raises(ValidationError):
            hard_instance(m, epsilon=0.1, terminal_stage=2.5)
        with pytest.raises(ValidationError):
            hard_instance(m, epsilon=0.0, terminal_stage=1.0)

    def test_terminal_snaps_within_tolerance(self):
        m = make_cost_model(L=1.0, U=2.0, k=1, marginals=[0.1])
        # 1 + 3*0.1 accumulates to 1.3000000000000003 in floats; the grid
        # check must snap, not reject
        inst = hard_instance(m, epsilon=0.1, terminal_stage=1.3)
        assert inst.valuations[-1] == 1.3

    def test_long_grid_stays_in_bounds(self, wide_model):
        inst = hard_instance(wide_model, epsilon=0.01, terminal_stage=30.0)
        vals = np.array(inst.valuations)
        assert len(inst) == 10 * 2901
        assert vals.min() == 1.0
        assert vals.max() == 30.0
        assert np.all(vals <= 30.0)
        assert np.all(np.diff(vals) >= 0.0)

    def test_k_copies_per_stage(self, wide_model):
        inst = hard_instance(wide_model, epsilon=1.0, terminal_stage=4.0)
        assert len(inst) == 10 * 4
        for stage, count in zip(*np.unique(inst.valuations, return_counts=True)):
            assert count == 10


class TestAgainstReference:
    """Every generator gives its list-based reference's values bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        sorted_=st.booleans(),
        n=st.integers(0, 300),
        mu=st.floats(0.0, 31.0),
        sdev=st.just(0.0) | st.floats(1.0, 40.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sorted_=False, n=0, mu=15.0, sdev=15.0, seed=0)
    @example(sorted_=True, n=5, mu=12.5, sdev=0.0, seed=0)
    def test_iid_and_sorted(self, sorted_, n, mu, sdev, seed):
        assume(sdev > 0.0 or 1.0 <= mu <= 30.0)
        ref, _ = reference_truncated_normal(BENCH, n, mu, sdev, np.random.default_rng(seed))
        gen = gen_sorted if sorted_ else gen_iid
        inst = gen(BENCH, n, mu, sdev, np.random.default_rng(seed))
        assert same_bits(inst, sorted(ref) if sorted_ else ref)

    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.just(0) | st.integers(0, 200),
        n2=st.just(0) | st.integers(0, 200),
        mu=st.tuples(st.floats(0.0, 31.0), st.floats(0.0, 31.0)),
        sdev=st.tuples(st.floats(1.0, 40.0), st.floats(1.0, 40.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n1=0, n2=40, mu=(7.5, 22.5), sdev=(7.5, 7.5), seed=17)
    @example(n1=40, n2=0, mu=(7.5, 22.5), sdev=(7.5, 7.5), seed=17)
    def test_low2high(self, n1, n2, mu, sdev, seed):
        rng = np.random.default_rng(seed)
        ref = reference_truncated_normal(BENCH, n1, mu[0], sdev[0], rng)[0]
        ref += reference_truncated_normal(BENCH, n2, mu[1], sdev[1], rng)[0]
        args = (n1, mu[0], sdev[0], n2, mu[1], sdev[1], np.random.default_rng(seed))
        assert same_bits(gen_low2high(BENCH, *args), ref)

    @settings(max_examples=60, deadline=None)
    @given(
        L=st.floats(1.0, 3.0),
        k=st.integers(1, 4),
        eps=st.floats(1e-3, 2.0),
        j_t=st.just(0) | st.integers(0, 300),
        ulps=st.integers(-3, 3),
    )
    @example(L=1.0, k=2, eps=0.1, j_t=3, ulps=-1)  # terminal one ulp below stage 1 + 3 * 0.1
    def test_hard(self, L, k, eps, j_t, ulps):
        # the terminal a few ulps off L + j_t * eps, within the snap tolerance
        terminal = L + j_t * eps
        for _ in range(abs(ulps)):
            terminal = float(np.nextafter(terminal, math.copysign(math.inf, ulps)))
        assume(terminal >= L)
        m = make_cost_model(L=L, U=terminal + 1.0, k=k, marginals=[0.0] * k)
        assert same_bits(hard_instance(m, eps, terminal), reference_hard(m, eps, terminal))

    @pytest.mark.parametrize("ceiling, n, sdev", [(1, 1, 15.0), (2, 20, 60.0)])
    def test_the_last_allowed_round_may_fill_the_request(self, monkeypatch, ceiling, n, sdev):
        ref, batches = reference_truncated_normal(BENCH, n, 15.0, sdev, np.random.default_rng(0))
        assert batches == ceiling
        monkeypatch.setattr(instances, "_MAX_REJECTION_ROUNDS", ceiling)
        assert same_bits(gen_iid(BENCH, n, 15.0, sdev, np.random.default_rng(0)), ref)
        monkeypatch.setattr(instances, "_MAX_REJECTION_ROUNDS", ceiling - 1)
        with pytest.raises(ValidationError, match="stalled"):
            gen_iid(BENCH, n, 15.0, sdev, np.random.default_rng(0))


class TestInstance:
    @pytest.mark.parametrize(
        "values",
        [(1.5, 2), [1.5, 2.0], np.array([1.5, 2.0]), array("d", [1.5, 2.0])],
        ids=["tuple", "list", "ndarray", "array"],
    )
    def test_packs_any_float_sequence_and_compares_by_value(self, values):
        inst = Instance(values, "x")
        assert type(inst.valuations) is array and inst.valuations.typecode == "d"
        assert type(inst.valuations[1]) is float
        assert inst == Instance((1.5, 2.0), "x")
        assert inst != Instance((1.5, 2.5), "x") and inst != Instance((1.5, 2.0), "y")
        if not isinstance(values, tuple):
            values[0] = 9.0  # packing copied the values
            assert inst.valuations[0] == 1.5

    def test_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Instance((1.5,)))


class TestSizeCeiling:
    """No generator builds more than MAX_ARRIVALS arrivals; the check comes
    before any list is built, so each call below returns at once."""

    def test_hard_instance_just_past_the_ceiling(self, wide_model):
        # 10 copies of 10^6 + 1 stages: 10,000,010 arrivals
        with pytest.raises(ValidationError, match="10000010 arrivals exceed"):
            hard_instance(wide_model, epsilon=1e-5, terminal_stage=11.0)

    @pytest.mark.parametrize("eps", [1e-9, 1e-300, 5e-324])
    def test_hard_instance_tiny_epsilon(self, wide_model, eps):
        # 5e-324 makes the stage count overflow to inf
        with pytest.raises(ValidationError, match="more than"):
            hard_instance(wide_model, epsilon=eps, terminal_stage=30.0)

    def test_stochastic_generators(self, wide_model):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="ceiling"):
            gen_iid(wide_model, MAX_ARRIVALS + 1, 15.0, 15.0, rng)
        with pytest.raises(ValidationError, match="ceiling"):
            gen_sorted(wide_model, MAX_ARRIVALS + 1, 15.0, 15.0, rng)
        half = MAX_ARRIVALS // 2 + 1
        with pytest.raises(ValidationError, match="ceiling"):
            gen_low2high(wide_model, half, 7.5, 7.5, half, 22.5, 7.5, rng)


class TestStochasticGenerators:
    def test_iid_bounds_and_mean(self, wide_model):
        rng = np.random.default_rng(101)
        inst = gen_iid(wide_model, 1000, 15.0, 15.0, rng)
        vals = np.array(inst.valuations)
        assert len(vals) == 1000
        assert vals.min() >= 1.0 and vals.max() <= 30.0
        want = truncated_normal_mean(1.0, 30.0, 15.0, 15.0)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - want) <= 3.0 * se

    def test_reproducible(self, wide_model):
        a = gen_iid(wide_model, 50, 15.0, 15.0, np.random.default_rng(7))
        b = gen_iid(wide_model, 50, 15.0, 15.0, np.random.default_rng(7))
        assert a.valuations == b.valuations

    def test_empty_and_degenerate(self, wide_model):
        rng = np.random.default_rng(0)
        assert list(gen_iid(wide_model, 0, 15.0, 15.0, rng).valuations) == []
        inst = gen_iid(wide_model, 4, 12.5, 0.0, rng)
        assert list(inst.valuations) == [12.5] * 4
        with pytest.raises(ValidationError):
            gen_iid(wide_model, 4, 0.5, 0.0, rng)
        with pytest.raises(ValidationError):
            gen_iid(wide_model, -1, 15.0, 15.0, rng)

    def test_rejection_stall_detected(self, wide_model):
        rng = np.random.default_rng(1)
        with pytest.raises(ValidationError, match="stalled"):
            gen_iid(wide_model, 10, 1000.0, 1e-3, rng)

    def test_sorted_is_sorted_permutation(self, wide_model):
        srt = gen_sorted(wide_model, 300, 15.0, 15.0, np.random.default_rng(11))
        iid = gen_iid(wide_model, 300, 15.0, 15.0, np.random.default_rng(11))
        assert list(srt.valuations) == sorted(srt.valuations)
        assert sorted(srt.valuations) == sorted(iid.valuations)

    def test_low2high_blocks(self, wide_model):
        rng = np.random.default_rng(13)
        inst = gen_low2high(wide_model, 500, 7.5, 7.5, 500, 22.5, 7.5, rng)
        vals = np.array(inst.valuations)
        assert len(vals) == 1000
        assert vals.min() >= 1.0 and vals.max() <= 30.0
        assert vals[:500].mean() < vals[500:].mean()

    def test_low2high_empty_first_block(self, wide_model):
        a = gen_low2high(wide_model, 0, 7.5, 7.5, 40, 22.5, 7.5, np.random.default_rng(17))
        b = gen_iid(wide_model, 40, 22.5, 7.5, np.random.default_rng(17))
        assert a.valuations == b.valuations

    def test_low2high_identical_blocks_match_iid(self, wide_model):
        inst = gen_low2high(wide_model, 800, 15.0, 15.0, 800, 15.0, 15.0, np.random.default_rng(19))
        ref = gen_iid(wide_model, 1600, 15.0, 15.0, np.random.default_rng(23))
        # two-sample Kolmogorov-Smirnov at the 1% level for n,m = 1600
        crit = 1.63 * np.sqrt(2.0 / 1600.0)
        assert ks_statistic(inst.valuations, ref.valuations) < crit


class TestFileIO:
    def test_round_trip_exact(self, wide_model, tmp_path):
        rng = np.random.default_rng(29)
        inst = gen_iid(wide_model, 64, 15.0, 15.0, rng)
        path = tmp_path / "inst.txt"
        path.write_text("".join(instance_text(inst)))
        back = read_instance(path)
        assert back.valuations == inst.valuations
        assert back.label == inst.label

    def test_no_label(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("".join(instance_text(Instance((1.5, 2.0)))))
        back = read_instance(path)
        assert list(back.valuations) == [1.5, 2.0]
        assert back.label == ""

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.5\n2.0\nabc\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_instance(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert list(read_instance(path).valuations) == []

    def test_line_ceiling_names_the_line_and_reads_no_further(self, tmp_path):
        path = tmp_path / "lines.txt"
        ok = " " * (MAX_LINE_CHARS - 3) + "1.5"
        path.write_text(f"2.0\n{ok}\n\n" + "1.5\n" * 20000 + "2" * (MAX_LINE_CHARS + 1) + "\n")
        with pytest.raises(ValidationError, match=f"line 20004: longer than {MAX_LINE_CHARS}"):
            read_instance(path)
        path.write_text(f"2.0\n{ok}")
        assert list(read_instance(path).valuations) == [2.0, 1.5]
        # a gigabyte line with no newline: a sparse file, refused after one block
        with open(path, "w") as fh:
            fh.write("1.5\n")
        os.truncate(path, 2**30)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="line 2: longer than"):
                read_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_arrival_ceiling_checked_while_reading(self, tmp_path, monkeypatch):
        monkeypatch.setattr(instances, "MAX_ARRIVALS", 3)
        path = tmp_path / "long.txt"
        path.write_text("# label: x\n1.5\n\n2.0\n2.5\n")
        assert list(read_instance(path).valuations) == [1.5, 2.0, 2.5]
        path.write_text("1.5\n2.0\n2.5\n3.0\nabc\n")
        with pytest.raises(ValidationError, match="more than 3 arrivals"):
            read_instance(path)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1_0", 10.0),
            ("\u0661", 1.0),
            (" \t2.5  ", 2.5),
            ("nan", math.nan),
            ("inf", math.inf),
            ("+1e5", 1e5),
        ],
        ids=["underscore", "arabic-indic", "padded", "nan", "inf", "plus"],
    )
    def test_reads_what_float_reads(self, tmp_path, text, value):
        path = tmp_path / "inst.txt"
        path.write_text(f"2.0\n{text}\n", encoding="utf-8")
        assert read_instance(path).valuations.tobytes() == array("d", [2.0, value]).tobytes()

    @pytest.mark.parametrize("text", ["2.5 # c", "0x10"])
    def test_refuses_what_float_refuses(self, tmp_path, capsys, text):
        path = tmp_path / "inst.txt"
        path.write_text(f"2.0\n{text}\n")
        code = main(["simulate", "--model", BENCH_JSON, "--instance", str(path), "--trials", "1"])
        assert code == 2
        assert f"line 2: not a number: {text!r}" in capsys.readouterr().err

    def test_reader_holds_one_float_column(self, tmp_path):
        path = tmp_path / "iid.txt"
        inst = gen_iid(BENCH, 100_000, 15.0, 15.0, np.random.default_rng(0))
        path.write_text("".join(instance_text(inst)))
        tracemalloc.start()
        try:
            back = read_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == inst
        # the traced peak was 4.0 MB when the reader built a list, then a
        # tuple, of Python floats; appending to one float column, 1.7 MB,
        # and 0.9 MB once that column was handed to the Instance uncopied
        # and read 8K characters at a time: 0.8 MB of it is the column
        assert peak <= 1.0e6
