import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kselect.cost_model import (
    MAX_K,
    allocation_count_g,
    conjugate,
    make_cost_model,
    model_from_json,
    model_to_json,
)
from kselect.errors import ValidationError


def conjugate_by_enumeration(model, v):
    """Oracle: brute-force max of v*i - f(i) over i = 0..k."""
    return max(v * i - model.cumulative[i] for i in range(model.k + 1))


def random_model(rng, k_max=12, allow_general=True):
    k = int(rng.integers(1, k_max + 1))
    L = 1.0 + float(rng.uniform(0.0, 4.0))
    U = L + float(rng.uniform(0.0, 20.0))
    top = L * (2.0 if allow_general else 0.9)
    ms = np.sort(rng.uniform(0.0, top, size=k))
    return make_cost_model(L, U, k, marginals=ms.tolist())


class TestConstruction:
    def test_quadratic_rule_expands_to_odd_marginals(self):
        m = make_cost_model(1.0, 10.0, 10, quadratic_coeff=1.0 / 59.0)
        for i in range(1, 11):
            assert m.marginals[i - 1] == pytest.approx((2 * i - 1) / 59.0, rel=1e-15)
        assert m.high_value  # c_10 = 19/59 < 1

    def test_zero_cost_single_unit(self):
        m = make_cost_model(1.0, 2.0, 1, marginals=[0.0])
        assert m.cumulative[1] == 0.0

    def test_decreasing_marginals_rejected(self):
        with pytest.raises(ValidationError):
            make_cost_model(1.0, 2.0, 2, marginals=[0.5, 0.3])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(L=1.0, U=0.5, k=1, marginals=[0.0]),
            dict(L=0.2, U=2.0, k=1, marginals=[0.0]),
            dict(L=1.0, U=2.0, k=0, marginals=[]),
            dict(L=1.0, U=2.0, k=2, marginals=[-0.1, 0.2]),
            dict(L=1.0, U=2.0, k=2, marginals=[0.1]),
            dict(L=1.0, U=2.0, k=1),
            dict(L=1.0, U=2.0, k=1, marginals=[0.0], quadratic_coeff=1.0),
            dict(L=float("nan"), U=2.0, k=1, marginals=[0.0]),
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            make_cost_model(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(quadratic_coeff=1e-9), dict(marginals=[0.5])],
        ids=["quadratic", "explicit"],
    )
    def test_capacity_ceiling_checked_before_any_marginal(self, kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ValidationError, match="ceiling"):
                make_cost_model(1.0, 2.0, MAX_K + 1, **kwargs)
            assert tracemalloc.get_traced_memory()[1] - base < 2**16
        finally:
            tracemalloc.stop()

    def test_high_value_flag_boundary(self):
        # c_k == L is not high-value: the flag requires strict c_k < L.
        m = make_cost_model(1.0, 10.0, 30, quadratic_coeff=1.0 / 59.0)
        assert m.marginals[-1] == pytest.approx(1.0)
        assert not m.high_value


def loop_tables(model):
    """cumulative, floor_prefix and g_steps by the left-to-right loops that
    the NumPy passes must equal bit for bit."""
    acc, cumulative = 0.0, [0.0]
    for c in model.marginals:
        acc += c
        cumulative.append(acc)
    acc, floor_prefix = 0.0, []
    for c in model.marginals:
        acc += model.L - c
        floor_prefix.append(acc)
    bps, counts = [], [0.0]
    for n, c in enumerate(model.marginals, start=1):
        if bps and c == bps[-1]:
            counts[-1] = float(n)
        else:
            bps.append(c)
            counts.append(float(n))
    return cumulative, floor_prefix, bps, counts


def float_bits(xs) -> list[int]:
    return np.array(xs, dtype=float).view(np.int64).tolist()


@st.composite
def ladders(draw):
    """(L, marginals): k = 1..40, with runs of ties and -0.0 among them."""
    L = draw(st.floats(1.0, 5.0))
    k = draw(st.integers(1, 40))
    ms = sorted(draw(st.lists(st.floats(0.0, 2.0 * L), min_size=k, max_size=k)))
    tie = draw(st.integers(1, 4))
    ms = [ms[i - i % tie] for i in range(k)]
    zeros = draw(st.integers(0, k))
    ms[:zeros] = [draw(st.sampled_from((0.0, -0.0))) for _ in range(zeros)]
    return L, ms


class TestCostTables:
    @settings(max_examples=300, deadline=None)
    @given(ladders())
    def test_numpy_tables_equal_the_loops_bit_for_bit(self, ladder):
        L, ms = ladder
        m = make_cost_model(L, L + 1.0, len(ms), marginals=ms)
        cumulative, floor_prefix, bps, counts = loop_tables(m)
        got_bps, got_counts = m.g_steps
        for table in (m.cumulative, m.floor_prefix, got_bps, got_counts):
            assert table.typecode == "d"  # float columns, read as Python floats
        assert float_bits(m.cumulative) == float_bits(cumulative)
        assert float_bits(m.floor_prefix) == float_bits(floor_prefix)
        assert float_bits(got_bps) == float_bits(bps)
        assert got_counts.tolist() == counts

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 200), st.floats(0.0, 10.0))
    def test_quadratic_marginals_equal_the_loop_bit_for_bit(self, k, a):
        m = make_cost_model(1.0, 2.0, k, quadratic_coeff=a)
        assert float_bits(m.marginals) == float_bits([a * (2 * i - 1) for i in range(1, k + 1)])
        assert all(type(c) is float for c in m.marginals)

    @settings(max_examples=100, deadline=None)
    @given(ladders(), st.sampled_from((-0.0, 0.0, 0.3, 1.0 / 59.0)))
    def test_marginal_column_is_a_read_only_view_of_the_marginals(self, ladder, a):
        L, ms = ladder
        for m in (
            make_cost_model(L, L + 1.0, len(ms), marginals=ms),
            make_cost_model(L, L + 1.0, len(ms), quadratic_coeff=a),
        ):
            assert isinstance(m.marginals, array) and m.marginals.typecode == "d"
            column = m.marginal_column
            assert column.dtype == np.float64
            assert np.shares_memory(column, m.marginals)
            assert float_bits(column) == float_bits(m.marginals)
            assert not column.flags.writeable

    @pytest.mark.parametrize(
        "kwargs",
        [dict(quadratic_coeff=1e-5), dict(marginals=(1e-5 * np.arange(1, 2 * 10**5, 2)).tolist())],
        ids=["quadratic", "explicit"],
    )
    def test_the_model_holds_its_ladder_once(self, kwargs):
        # 10^5 marginals are 0.8 MB as one float column; a tuple of them
        # held 4.0 MB and peaked at 4.8 MB while the model was built
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            m = make_cost_model(1.0, 2.0, 10**5, **kwargs)
            held, peak = (n - base for n in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert m.marginals[-1] == pytest.approx(1e-5 * (2 * 10**5 - 1))
        assert held <= 1.2e6
        assert peak <= 2.4e6

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 200), st.sampled_from((-0.0, 0.0, 0.3, 1.0 / 59.0)))
    def test_quadratic_and_explicit_spellings_compare_equal(self, k, a):
        quadratic = make_cost_model(1.0, 2.0, k, quadratic_coeff=a)
        explicit = make_cost_model(1.0, 2.0, k, marginals=[a * (2 * i - 1) for i in range(1, k + 1)])
        assert quadratic == explicit
        assert quadratic != make_cost_model(1.0, 2.0, k, quadratic_coeff=a + 1.0)

    def test_a_model_has_no_hash(self):
        with pytest.raises(TypeError):
            hash(make_cost_model(1.0, 2.0, 2, marginals=[0.1, 0.2]))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(marginals=[0.5, 0.3]), "marginals must be non-decreasing: c_2 = 0.3 < c_1 = 0.5"),
            (dict(marginals=[-0.1, 0.2]), "marginal c_1 = -0.1 must be finite and >= 0"),
            (dict(marginals=[0.2, -0.1]), "marginal c_2 = -0.1 must be finite and >= 0"),
            (
                dict(marginals=[0.1, 0.5, 0.3, -1.0]),
                "marginals must be non-decreasing: c_3 = 0.3 < c_2 = 0.5",
            ),
            (dict(quadratic_coeff=-1.0), "marginal c_1 = -1.0 must be finite and >= 0"),
            (dict(quadratic_coeff=1e308), "marginal c_2 = inf must be finite and >= 0"),
        ],
    )
    def test_the_first_bad_marginal_is_the_error(self, kwargs, message):
        k = len(kwargs.get("marginals", [0.0] * 4))
        with pytest.raises(ValidationError) as err:
            make_cost_model(1.0, 2.0, k, **kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "marginals, want",
        [
            # accepted: the marginals as float() reads them, bit for bit
            ([-0.0, 0.1, 0.7], (-0.0, 0.1, 0.7)),
            (["0.1", " 2.5e-1 ", "1_0"], (0.1, 0.25, 10.0)),
            ([0, 3, 2**60 + 1], (0.0, 3.0, float(2**60 + 1))),
            ([False, True], (0.0, 1.0)),
            ([np.float32(0.1), 0.5], (float(np.float32(0.1)), 0.5)),
            ([0.25, "0.5", 1], (0.25, 0.5, 1.0)),
            # rejected: the error of the first bad marginal
            ([None, 1.0], "marginal c_1 must be a number, got None"),
            ([0.5, "x"], "marginal c_2 must be a number, got 'x'"),
            ([0.5, "nan"], "marginal c_2 must be finite, got 'nan'"),
            ([0.5, math.inf], "marginal c_2 must be finite, got inf"),
            ([0.5, 10**400], f"marginal c_2 must be finite, got {10**400!r}"),
            ([[1.0], 2.0], "marginal c_1 must be a number, got [1.0]"),
            ([[1.0], [2.0]], "marginal c_1 must be a number, got [1.0]"),
            ([0.5, {"c": 1.0}], "marginal c_2 must be a number, got {'c': 1.0}"),
            ({"c": 1.0}, "marginals must be a list of numbers, got {'c': 1.0}"),
            ([1.0 + 0.0j], "marginal c_1 must be a number, got (1+0j)"),
            (0.5, "marginals must be a list of numbers, got 0.5"),
        ],
    )
    def test_explicit_marginals_read_as_float_reads_each(self, marginals, want):
        k = len(marginals) if isinstance(marginals, list) else 1
        if isinstance(want, str):
            with pytest.raises(ValidationError) as err:
                make_cost_model(1.0, 20.0, k, marginals=marginals)
            assert str(err.value) == want
        else:
            m = make_cost_model(1.0, 20.0, k, marginals=marginals)
            assert all(type(c) is float for c in m.marginals)
            assert float_bits(m.marginals) == float_bits(want)
            assert float_bits(m.marginal_column) == float_bits(want)


class TestCumulativeCost:
    def test_quadratic_sixteenth(self):
        m = make_cost_model(1.0, 30.0, 10, quadratic_coeff=1.0 / 16.0)
        assert m.cumulative[4] == pytest.approx(1.0, abs=1e-12)

    def test_empty_sum(self):
        m = make_cost_model(1.0, 2.0, 3, marginals=[1, 2, 4])
        assert m.cumulative[0] == 0.0

    def test_explicit_sum(self):
        m = make_cost_model(1.0, 2.0, 3, marginals=[1, 2, 4])
        assert m.cumulative[3] == 7.0


class TestConjugate:
    def test_quadratic_example(self):
        m = make_cost_model(1.0, 30.0, 10, quadratic_coeff=1.0 / 16.0)
        # maximizer i=8: 8 - 64/16 = 4
        assert conjugate(m, 1.0) == pytest.approx(4.0, abs=1e-12)
        assert allocation_count_g(m, 1.0) == 8

    def test_at_zero(self):
        m = make_cost_model(1.0, 2.0, 3, marginals=[1, 2, 4])
        assert conjugate(m, 0.0) == 0.0

    def test_explicit_example(self):
        m = make_cost_model(1.0, 2.0, 3, marginals=[1, 2, 4])
        assert conjugate(m, 3.0) == pytest.approx(3.0, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_model(rng)
            for v in rng.uniform(0.0, m.U * 1.2, size=20):
                assert conjugate(m, float(v)) == pytest.approx(
                    conjugate_by_enumeration(m, float(v)), abs=1e-12
                )

    def test_convex_and_nondecreasing(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_model(rng)
            grid = np.linspace(0.0, m.U * 1.5, 200)
            vals = [conjugate(m, float(v)) for v in grid]
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-12)
            assert np.all(np.diff(diffs) >= -1e-9)


    def test_an_array_gives_the_one_point_values_bit_for_bit(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            m = random_model(rng)
            grid = np.concatenate(
                (rng.uniform(0.0, m.U * 1.2, size=20), m.marginal_column, [0.0, -0.0])
            )
            g = allocation_count_g(m, grid)
            f = conjugate(m, grid)
            assert g.tolist() == [allocation_count_g(m, v) for v in grid.tolist()]
            assert [x.hex() for x in f.tolist()] == [
                conjugate(m, v).hex() for v in grid.tolist()
            ]
            assert type(allocation_count_g(m, 1.0)) is int and type(conjugate(m, 1.0)) is float

    def test_an_array_with_a_negative_cell_names_the_first(self):
        m = make_cost_model(1.0, 2.0, 2, marginals=[0.5, 1.0])
        for call in (allocation_count_g, conjugate):
            with pytest.raises(ValidationError, match=r"got -0\.25 at cell 2"):
                call(m, np.array([0.0, 1.5, -0.25, -3.0]))


class TestAllocationCount:
    def test_below_first_and_above_last(self):
        m = make_cost_model(1.0, 2.0, 3, marginals=[0.2, 0.5, 0.9])
        assert allocation_count_g(m, 0.1) == 0
        assert allocation_count_g(m, 0.9) == 3
        assert allocation_count_g(m, 5.0) == 3

    def test_step_jumps_exactly_at_distinct_marginals(self):
        m = make_cost_model(1.0, 2.0, 4, marginals=[0.2, 0.2, 0.5, 0.9])
        assert allocation_count_g(m, 0.2) == 2  # double jump at a repeated marginal
        assert allocation_count_g(m, 0.2 - 1e-12) == 0
        assert allocation_count_g(m, 0.5 - 1e-12) == 2

    def test_equals_conjugate_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = random_model(rng)
            for v in rng.uniform(0.0, m.U, size=10):
                g = allocation_count_g(m, float(v))
                if g >= 1:
                    assert conjugate(m, float(v)) == pytest.approx(
                        float(v) * g - m.cumulative[g], abs=1e-12
                    )

    def test_negative_valuation_rejected(self):
        m = make_cost_model(1.0, 2.0, 1, marginals=[0.0])
        with pytest.raises(ValidationError):
            allocation_count_g(m, -0.5)


class TestJson:
    def test_round_trip(self):
        m = make_cost_model(1.5, 9.0, 3, marginals=[0.1, 0.4, 0.4])
        assert model_from_json(model_to_json(m)) == m

    def test_quadratic_spec(self):
        obj = {"L": 1, "U": 10, "k": 10, "cost": {"type": "quadratic", "coeff": 1 / 59}}
        m = model_from_json(obj)
        assert m.marginals[0] == pytest.approx(1 / 59)

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            {"L": 1, "U": 2, "k": 1},
            {"L": 1, "U": 2, "k": 1, "cost": {"type": "mystery"}},
            {"L": 1, "U": 2, "k": 1, "cost": {"type": "explicit"}},
            {"L": 1, "U": 2, "k": 1, "cost": {"type": "quadratic"}},
        ],
    )
    def test_malformed_spec_rejected(self, obj):
        with pytest.raises(ValidationError):
            model_from_json(obj)
