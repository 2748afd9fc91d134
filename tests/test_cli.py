"""End-to-end checks of the kselect command line."""

import contextlib
import importlib
import io
import json
import math
import multiprocessing
import os
import pkgutil
import re
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kselect
from kselect import cli, jsontext
from kselect.cli import COMMANDS, main
from kselect.cost_model import make_cost_model, model_to_json
from kselect.errors import SolverError, ValidationError
from kselect.instances import hard_instance, instance_text, read_instance
from kselect.lower_bound import build_intervals, solve_alpha_star
from kselect.mechanisms import (
    Mechanism,
    expected_welfare,
    offline_opt,
    ratio_to_opt,
    run_posted_price,
)
from kselect.pricing import (
    _scheme,
    build_scheme,
    prices_for_seeds,
    scheme_from_json,
    scheme_to_json,
)

E_MODEL = '{"L": 1, "U": 2.718281828459045, "k": 1, "cost": {"type": "explicit", "marginals": [0]}}'
FIG_MODEL = '{"L": 1, "U": 10, "k": 10, "cost": {"type": "quadratic", "coeff": 0.016949152542372881}}'
K2_MODEL = '{"L": 1, "U": 5, "k": 2, "cost": {"type": "explicit", "marginals": [0.25, 0.5]}}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# solve


def test_solve_single_unit_closed_form(capsys):
    code, out, _ = run_cli(capsys, "solve", "--model", E_MODEL)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["alpha_star"] - 2.0) <= 1e-9
    assert payload["regime"] == "high_value"
    assert payload["k_underbar"] == 1
    assert payload["intervals"][-1]["u"] == pytest.approx(math.e, abs=1e-8)


def _model_with(**changes):
    spec = {"L": 1, "U": 5, "k": 2, "cost": {"type": "explicit", "marginals": [0.25, 0.5]}}
    cost = changes.pop("cost", {})
    spec.update(changes)
    spec["cost"] = {**spec["cost"], **cost}
    return json.dumps(spec)


NOT_UTF8 = "<a file that starts with byte 0xff>"


def _edit_segment(unit: int, seg: int, **fields):
    def change(obj):
        obj["segments"][unit - 1][seg].update(fields)

    return change


def _edit_top_price(unit: int, top: float):
    def change(obj):
        obj["price_intervals"][unit - 1][1] = top

    return change


def _move_junction(unit: int, price: float):
    """Move the top of unit's price interval and the bottom of the next
    unit's to ``price``, so that the intervals still chain."""

    def change(obj):
        obj["price_intervals"][unit - 1][1] = obj["price_intervals"][unit][0] = price

    return change


def _move_seed_junction(unit: int, seed: float):
    """Move the seed where unit's floor ends and its ramp starts, on both."""

    def change(obj):
        floor, ramp = obj["segments"][unit - 1]
        floor["s_hi"] = ramp["s_lo"] = seed

    return change


# Scheme files whose curves, alpha*, k_underbar*, xi*, price intervals, kind
# or guarantee are not the ones the model builds at the file's alpha*. The
# base is the `pricing` output for L=1, U=4, c=(0.1, 0.2, 0.3): one segment
# on units 1 and 3, and on unit 2 a floor on [0, xi] followed by a ramp from
# L to 1.91; the price intervals are [1, 1], [1, 1.91] and [1.91, 4]. The
# last three entries keep every price in [L, U] and chained, and every rate
# alpha* / g, yet move unit 3's price at seed 0.5 from 2.744 to 4.0 (cost)
# or unit 2's at seed 0.9 from 1.778 to 1.832 (junction).
BAD_SCHEMES = {
    "<scheme: unit 2 has no segment>": lambda obj: obj["segments"][1].clear(),
    "<scheme: unit 3 starts at seed 0.25>": _edit_segment(3, 0, s_lo=0.25),
    "<scheme: unit 3 ends at seed 0.75>": _edit_segment(3, 0, s_hi=0.75),
    "<scheme: unit 2 has a gap>": _edit_segment(2, 1, s_lo=0.5),
    "<scheme: unit 2 goes back in seed>": _edit_segment(2, 0, s_hi=1.5),
    "<scheme: unit 2's v_lo decreases>": _edit_segment(2, 1, v_lo=0.5),
    "<scheme: unit 3 starts at price 0.5>": _edit_segment(3, 0, v_lo=0.5),
    "<scheme: unit 3 starts below unit 2's top>": _edit_segment(3, 0, v_lo=1.5),
    "<scheme: unit 3 ends above U>": _edit_segment(3, 0, v_hi=4.5),
    "<scheme: unit 3's price interval ends at NaN>": _edit_top_price(3, math.nan),
    "<scheme: unit 3's price interval is reversed>": _edit_top_price(3, 1.5),
    "<scheme: unit 3's price interval ends above U>": _edit_top_price(3, 4.5),
    "<scheme: unit 2's price interval ends short of unit 3's>": _edit_top_price(2, 1.5),
    "<scheme: kind two_unit>": lambda obj: obj.update(kind="two_unit"),
    "<scheme: cr_guarantee 1.0>": lambda obj: obj.update(cr_guarantee=1.0),
    "<scheme: unit 2's and unit 3's price intervals meet at 1.5>": _move_junction(2, 1.5),
    "<scheme: unit 3 starts at price 2.5, above unit 2's top>": _edit_segment(3, 0, v_lo=2.5),
    # the guarantee alpha e^{alpha / k} overflows a float: inf, not the file's
    "<scheme: alpha_star 1e6>": lambda obj: obj.update(alpha_star=1e6),
    "<scheme: alpha_star inf>": lambda obj: obj.update(alpha_star=math.inf, cr_guarantee=math.inf),
    "<scheme: k_underbar_star + 1>": lambda obj: obj.update(
        k_underbar_star=obj["k_underbar_star"] + 1
    ),
    "<scheme: xi_star / 2>": lambda obj: obj.update(xi_star=obj["xi_star"] / 2),
    "<scheme: alpha_star 10**400>": lambda obj: obj.update(alpha_star=10**400),
    "<scheme: unit 3's cost -5>": _edit_segment(3, 0, cost=-5.0),
    "<scheme: unit 3's cost -1e300>": _edit_segment(3, 0, cost=-1e300),
    "<scheme: unit 2's junction at seed 0.0404>": _move_seed_junction(2, 0.0404),
    "<scheme: unit 3's segment list removed>": lambda obj: obj["segments"].pop(),
}


def _bad_scheme_file(tmp_path, name) -> str:
    model = make_cost_model(1.0, 4.0, 3, marginals=[0.1, 0.2, 0.3])
    obj = scheme_to_json(build_scheme(model))
    BAD_SCHEMES[name](obj)
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(obj))
    return str(path)


# scheme or config files holding these JSON values
JSON_FILES = {
    "<file: []>": [],
    "<file: mechanisms 5>": {"mechanisms": 5},
    "<file: trials [1]>": {"trials": [1]},
    "<file: trials 1.5>": {"trials": 1.5},
    "<file: prices and pin-seeds>": {"prices": [1, 2], "pin_seeds": [0.1, 0.9]},
    "<file: seed 3>": {"seed": 3},
}


def _given_file(tmp_path, token: str) -> str:
    """The path of the file a placeholder token names, written in tmp_path;
    any other token as it is."""
    if token == NOT_UTF8:
        path = tmp_path / "not-utf8"
        path.write_bytes(b'\xff{"L": 1}\n')
        return str(path)
    if token in BAD_SCHEMES:
        return _bad_scheme_file(tmp_path, token)
    if token in JSON_FILES:
        path = tmp_path / "given.json"
        path.write_text(json.dumps(JSON_FILES[token]))
        return str(path)
    return token

# instance flags that the JSON --spec replaced
REMOVED_INSTANCE_FLAGS = (
    "kind", "eps", "terminal", "count", "mu", "sdev", "n1", "mu1", "sdev1", "n2", "mu2", "sdev2",
)


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--model", _model_with(cost={"marginals": "ab"})),
        ("solve", "--model", _model_with(cost={"marginals": [0.1, None]})),
        ("solve", "--model", _model_with(L="x")),
        ("solve", "--model", _model_with(cost={"type": "quadratic", "coeff": [1]})),
        ("pricing", "--model", K2_MODEL, "--samples", "-3"),
        (
            "instances", "--model", FIG_MODEL,
            "--spec", '{"kind": "hard", "eps": 9e-6, "terminal": 10}',
        ),
        ("instances", "--model", FIG_MODEL, "--spec", '{"kind": "hard", "eps": 5e-324}'),
        ("instances", "--model", FIG_MODEL, "--spec", '{"kind": "iid", "n": 10000001}'),
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull, "--pin-seeds", "0.5,nan"),
        ("solve", "--model", "[1]"),
        ("solve", "--model", NOT_UTF8),
        ("solve", "--config", NOT_UTF8, "--model", K2_MODEL),
        ("simulate", "--model", K2_MODEL, "--instance", NOT_UTF8),
        ("simulate", "--scheme", NOT_UTF8, "--instance", os.devnull),
        ("solve", "--model", _model_with(k=10**6 + 1, cost={"type": "quadratic", "coeff": 1e-9})),
        ("pricing", "--model", K2_MODEL, "--samples", "5000000"),
        ("solve", "--model", K2_MODEL, "--regime", "general"),
        ("pricing", "--model", K2_MODEL, "--builder", "general"),
        (
            "solve", "--tol", "1000", "--model",
            '{"L":1,"U":30,"k":10,"cost":{"type":"quadratic","coeff":0.001}}',
        ),
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull,
         "--mechanism", "pinned", "--sigma", "0.5"),
        ("instances", "--model", K2_MODEL, "--seed", "-1"),
        ("instances", "--model", K2_MODEL, "--seed", "-1", "--spec", '{"kind": "hard"}'),
        *[("instances", "--model", K2_MODEL, f"--{flag}", "1") for flag in REMOVED_INSTANCE_FLAGS],
        ("curves", "--k-min", "2", "--k-max", "4", "--l", "x"),
        ("curves", "--k-min", "2", "--k-max", "4", "--u", "x"),
        ("curves", "--k-min", "2", "--k-max", "4", "--cost-coeff", "x"),
        ("curves", "--k-min", "1000001", "--k-max", "1000002"),
        ("curves", "--k-min", "2", "--k-max", str(10**6)),
        ("experiment", "--model", K2_MODEL, "--instances", '{"kind": "iid", "count": 1000001}'),
        *[("simulate", "--scheme", name, "--instance", os.devnull) for name in BAD_SCHEMES],
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull, "--mechanism", "r-dynamic:7"),
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull, "--mechanism", "static:0.3"),
        (
            "experiment", "--model", K2_MODEL, "--instances", '{"kind": "iid", "count": 1}',
            "--mechanisms", "pinned:0.3,static:0.3",
        ),
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull, "--mechanism", "pinned:"),
        (
            "experiment", "--model", K2_MODEL, "--instances", '{"kind": "iid", "count": 1}',
            "--mechanisms", "pinned:,static",
        ),
        ("solve", "--model", _model_with(U=10**400)),
        ("solve", "--model", _model_with(cost={"marginals": [0.25, 10**400]})),
        ("instances", "--model", K2_MODEL, "--spec", json.dumps({"kind": "iid", "mu": 10**400})),
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull,
         "--prices", "1,2", "--pin-seeds", "0.1,0.9"),
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull,
         "--config", "<file: prices and pin-seeds>"),
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull,
         "--pin-seeds", "0.1,0.9", "--mechanism", "static"),
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull,
         "--prices", "1,2", "--trials", "9"),
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull,
         "--pin-seeds", "0.1,0.9", "--config", "<file: seed 3>"),
        ("simulate", "--scheme", "<file: []>", "--instance", os.devnull),
        ("experiment", "--model", K2_MODEL, "--config", "<file: mechanisms 5>"),
        ("instances", "--model", K2_MODEL, "--spec", "notjson"),
        ("experiment", "--model", K2_MODEL, "--mechanisms", ","),
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull,
         "--config", "<file: trials [1]>"),
        ("simulate", "--model", K2_MODEL, "--instance", os.devnull,
         "--config", "<file: trials 1.5>"),
        ("instances", "--model", K2_MODEL, "--spec", '{"kind": "iid", "sdev": -1}'),
    ],
    ids=[
        "marginals-string",
        "marginals-null",
        "L-string",
        "coeff-list",
        "negative-samples",
        "hard-past-size-ceiling",
        "hard-subnormal-eps",
        "iid-past-size-ceiling",
        "nan-pinned-seed",
        "model-json-array",
        "model-not-utf8",
        "config-not-utf8",
        "instance-not-utf8",
        "scheme-not-utf8",
        "k-past-size-ceiling",
        "samples-past-size-ceiling",
        "no-regime-flag",
        "no-builder-flag",
        "no-tol-flag",
        "no-sigma-flag",
        "negative-seed",
        "negative-seed-hard",
        *[f"no-{flag}-flag" for flag in REMOVED_INSTANCE_FLAGS],
        "curves-L-string",
        "curves-U-string",
        "curves-coeff-string",
        "curves-k-past-size-ceiling",
        "curves-units-past-size-ceiling",
        "count-past-size-ceiling",
        "scheme-unit-without-segment",
        "scheme-unit-not-from-seed-0",
        "scheme-unit-not-to-seed-1",
        "scheme-unit-with-gap",
        "scheme-unit-going-back",
        "scheme-v_lo-decreasing",
        "scheme-price-below-L",
        "scheme-chain-broken",
        "scheme-price-above-U",
        "scheme-interval-nan",
        "scheme-interval-reversed",
        "scheme-interval-above-U",
        "scheme-interval-gap",
        "scheme-kind-not-the-models",
        "scheme-guarantee-not-the-curves",
        "scheme-intervals-chain-off-the-curves",
        "scheme-curves-with-a-gap",
        "scheme-guarantee-overflows",
        "scheme-alpha-star-inf",
        "scheme-k_underbar-off-by-one",
        "scheme-xi-halved",
        "scheme-alpha-star-past-float-range",
        "scheme-cost-negative",
        "scheme-cost-past-the-clamp",
        "scheme-junction-moved-on-both-segments",
        "scheme-unit-count-short",
        "sigma-on-r-dynamic",
        "sigma-on-static",
        "sigma-on-static-in-list",
        "empty-sigma",
        "empty-sigma-in-list",
        "U-past-float-range",
        "marginal-past-float-range",
        "mu-past-float-range",
        "prices-with-pin-seeds",
        "prices-with-pin-seeds-from-config",
        "mechanism-beside-pin-seeds",
        "trials-beside-prices",
        "seed-beside-pin-seeds-from-config",
        "scheme-json-array",
        "config-mechanisms-number",
        "spec-not-json",
        "no-mechanism-in-list",
        "config-trials-list",
        "config-trials-fraction",
        "negative-sdev",
    ],
)
def test_malformed_input_exits_2_without_traceback(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *[_given_file(tmp_path, a) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert "No such file" not in err


@pytest.mark.parametrize("case", ["alpha-off-the-root", "no-scheme-in-floats"])
def test_a_scheme_file_whose_model_builds_no_scheme_at_its_alpha_exits_2(capsys, tmp_path, case):
    if case == "alpha-off-the-root":
        # curves and computed fields rebuilt at alpha* (1 + 1e-6): the file
        # agrees with itself, but its chain ends above U
        model = make_cost_model(1.0, 4.0, 3, marginals=[0.1, 0.2, 0.3])
        alpha = solve_alpha_star(model).alpha * (1 + 1e-6)
        obj = scheme_to_json(_scheme(model, build_intervals(model, alpha)))
        why = "is not a bound the solver accepts"
    else:
        # the solver finds alpha*, but the curves have no float form, so
        # `pricing` exits 3; the file is another model's scheme, given this
        # model and its alpha*
        L, U = 2.2886, 1.5 * 2.2886
        model = make_cost_model(L, U, 4, marginals=[0.0, 0.0, 0.0, math.nextafter(U, 0.0)])
        assert run_cli(capsys, "pricing", "--model", json.dumps(model_to_json(model)))[0] == 3
        obj = scheme_to_json(build_scheme(make_cost_model(L, U, 4, marginals=[0.0] * 4)))
        obj.update(model=model_to_json(model), alpha_star=solve_alpha_star(model).alpha)
        why = "no scheme: unit 4 seed spans sum to"
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "simulate", "--scheme", str(path), "--instance", os.devnull)
    assert (code, out) == (2, "")
    assert err.startswith("error: scheme alpha_star: ")
    assert why in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,token",
    [
        (("solve", "--mod", K2_MODEL), "--mod"),
        (("solve", "--mo", K2_MODEL), "--mo"),
        (("solve", f"--model={K2_MODEL}"), f"--model={K2_MODEL}"),
        (("slove", "--model", K2_MODEL), "slove"),
        (("--hlp",), "--hlp"),
        (("solve", "-m", K2_MODEL), "-m"),
        (("solve", K2_MODEL), K2_MODEL),
    ],
    ids=["prefix", "shorter-prefix", "equals-sign", "unknown-subcommand", "root-typo", "short",
         "bare-value"],
)
def test_a_token_not_spelt_as_an_option_exits_2(capsys, argv, token):
    # each input has one spelling: an option is its exact name, then its value
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert repr(token) in err.splitlines()[0]
    assert err.splitlines()[1].startswith("usage: kselect")


def test_no_subcommand_exits_2_with_the_usage_line(capsys):
    code, out, err = run_cli(capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: no subcommand")
    assert err.splitlines()[1].startswith("usage: kselect {solve,")


def test_the_token_after_an_option_is_its_value(capsys):
    # a value that starts with a dash is still the value, not an option
    code, out, err = run_cli(capsys, "instances", "--model", K2_MODEL, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be")
    code, out, err = run_cli(capsys, "solve", "--out", "--model")
    assert (code, out) == (2, "")
    assert err.startswith("error: no model given")


@pytest.mark.parametrize(
    "argv,cfg",
    [
        (("simulate", "--instance", os.devnull), {"mechanism": {"kind": "static", "sigma": 0.3}}),
        (
            ("experiment", "--instances", '{"kind": "iid", "count": 1}'),
            {"mechanisms": [{"kind": "pinned", "sigma": 0.3}, {"kind": "r-dynamic", "sigma": 0.5}]},
        ),
    ],
    ids=["simulate-static", "experiment-r-dynamic"],
)
def test_config_sigma_on_a_kind_but_pinned_exits_2(tmp_path, capsys, argv, cfg):
    # only pinned reads sigma; a sigma given to another kind is not ignored
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, argv[0], "--config", str(path), "--model", K2_MODEL, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: mechanism ") and err.count("\n") == 1
    assert "only pinned takes a sigma" in err


@pytest.mark.parametrize("mode", [("--prices", "1,2"), ("--pin-seeds", "0.1,0.9")])
@pytest.mark.parametrize("option, value", [("mechanism", "pinned:0.3"), ("trials", 7), ("seed", 3)])
def test_a_trace_refuses_an_option_it_ignores(tmp_path, capsys, mode, option, value):
    # given as a flag or from --config: the same refusal, naming the option
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({option: value}))
    argv = ("simulate", "--model", K2_MODEL, "--instance", os.devnull, *mode)
    want = (2, "", f"error: --{option} does nothing beside {mode[0]}: drop it\n")
    assert run_cli(capsys, *argv, f"--{option}", str(value)) == want
    assert run_cli(capsys, *argv, "--config", str(cfg)) == want


@pytest.mark.parametrize("flag", ["prices", "pin-seeds"])
def test_non_finite_number_lists_are_rejected_on_parse(capsys, flag):
    code, out, err = run_cli(
        capsys, "simulate", "--model", K2_MODEL, "--instance", os.devnull, f"--{flag}", "nan,inf"
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} must be finite")


def test_solve_invalid_model_exits_2(capsys):
    bad = '{"L": 0.5, "U": 2, "k": 1, "cost": {"type": "explicit", "marginals": [0]}}'
    code, out, err = run_cli(capsys, "solve", "--model", bad)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_solve_unsolvable_chain_exits_3(capsys):
    stuck = '{"L": 1, "U": 2, "k": 2, "cost": {"type": "explicit", "marginals": [0.5, 2.5]}}'
    code, out, err = run_cli(capsys, "solve", "--model", stuck)
    assert code == 3
    assert out == ""
    assert "no solution" in err


@pytest.mark.parametrize("U", ["2", "2.0000001"])
def test_flat_range_with_a_top_unit_above_u_exits_3(capsys, tmp_path, U):
    # c_2 = 3 > U: the top unit can never sell, whether or not U == L, so
    # no alpha is reported and simulate prices no unit below its cost
    model = '{"L": 2, "U": %s, "k": 2, "cost": {"type": "explicit", "marginals": [0.5, 3.0]}}' % U
    inst = tmp_path / "inst.txt"
    inst.write_text("2\n2\n2\n")
    for argv in (("solve",), ("simulate", "--instance", str(inst))):
        code, out, err = run_cli(capsys, *argv, "--model", model)
        assert (code, out) == (3, "")
        assert "no solution: c_k = 3.0 >= U" in err


@pytest.mark.parametrize("top", [math.nextafter(1.5, 0.0), 1.5 - 1e-9])
def test_a_top_marginal_too_near_u_exits_3(capsys, tmp_path, top):
    # u_{k-1} must open within about (U - c_k) e^{-alpha/k} of c_k, below float
    # resolution here, so unit k's seed spans cannot sum to 1: no scheme is
    # built, and every command that prices exits 3 rather than raising;
    # solve, whose chain then misses unit k's equation, exits 3 as well
    model = json.dumps(
        {"L": 1, "U": 1.5, "k": 4, "cost": {"type": "explicit", "marginals": [0, 0, 0, top]}}
    )
    inst = tmp_path / "inst.txt"
    inst.write_text("1.2\n1.5\n")
    for argv in (("pricing",), ("simulate", "--instance", str(inst), "--trials", "3")):
        code, out, err = run_cli(capsys, *argv, "--model", model)
        assert (code, out) == (3, "")
        assert re.search(r"no scheme: unit 4 seed spans sum to \S+, not 1", err)
    code, out, err = run_cli(capsys, "solve", "--model", model)
    assert (code, out) == (3, "")
    assert re.search(r"no solution: the chain misses its equations by \S+ of alpha", err)


def test_solve_end_test_scales_with_u(capsys):
    # the search ends on adjacent floats whose chain ends lie 3e-9 from U
    big = (
        '{"L": 1, "U": 1000000, "k": 3, '
        '"cost": {"type": "explicit", "marginals": [0.99, 0.99, 0.99]}}'
    )
    code, out, err = run_cli(capsys, "solve", "--model", big)
    assert (code, err) == (0, "")
    assert json.loads(out)["intervals"][-1]["u"] == pytest.approx(1e6, abs=1e-3)


def test_solve_missing_model_exits_2(capsys):
    code, _, err = run_cli(capsys, "solve")
    assert code == 2
    assert "model" in err


def solve_stdlib_text(model) -> str:
    """The solve payload through the stdlib's indenting encoder."""
    sol = solve_alpha_star(model)
    payload = {
        "alpha_star": sol.alpha,
        "k_underbar": sol.k_underbar,
        "xi": sol.xi,
        "regime": model.regime,
        "intervals": [
            {"i": sol.k_underbar + j, "ell": lo, "u": hi}
            for j, (lo, hi) in enumerate(sol.intervals)
        ],
        "notes": list(sol.notes),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def solve_stdout(model) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", "--model", json.dumps(model_to_json(model))])
    return code, out.getvalue()


@st.composite
def solve_setups(draw):
    """A random setup, general or high-value, with ties; U == L in some."""
    L = draw(st.floats(1.0, 3.0))
    U = L if draw(st.booleans()) else L * draw(st.floats(1.01, 6.0))
    k = draw(st.integers(1, 12))
    ms = sorted(draw(st.lists(st.floats(0.0, 0.9 * U), min_size=k, max_size=k)))
    if draw(st.booleans()):
        ms = [ms[i - i % 2] for i in range(k)]
    return make_cost_model(L, U, k, marginals=ms)


@settings(max_examples=150, deadline=None)
@given(solve_setups(), st.integers(1, 3))
def test_solve_writes_the_stdlib_indent_text(model, units):
    with mock.patch.object(jsontext, "CHUNK_UNITS", units):
        code, out = solve_stdout(model)
    if code == 0:
        assert out == solve_stdlib_text(model)


def test_solve_writes_both_notes_as_the_stdlib_does():
    # U == L fixes alpha at 1, where the threshold unit sells out exactly
    model = make_cost_model(2.0, 2.0, 3, marginals=[0.0, 0.5, 0.5])
    code, out = solve_stdout(model)
    assert code == 0
    assert out == solve_stdlib_text(model)
    assert json.loads(out)["notes"] == [
        "U == L: alpha fixed at 1",
        "k_underbar threshold met exactly (xi == 1)",
    ]


def test_output_dir_env_var_resolves_relative_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KSELECT_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "solve", "--model", E_MODEL, "--out", "sub/sol.json")
    assert code == 0
    assert out == ""
    written = tmp_path / "sub" / "sol.json"
    assert written.is_file()
    assert json.loads(written.read_text())["alpha_star"] == pytest.approx(2.0, abs=1e-9)
    # absolute paths ignore the environment override
    target = tmp_path / "abs.json"
    code, _, _ = run_cli(capsys, "solve", "--model", E_MODEL, "--out", str(target))
    assert code == 0 and target.is_file()


def test_out_write_is_atomic(tmp_path, monkeypatch, capsys):
    target = tmp_path / "sol.json"
    target.write_text("old\n")
    code, _, _ = run_cli(capsys, "solve", "--model", E_MODEL, "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["alpha_star"] == pytest.approx(2.0, abs=1e-9)
    target.write_text("old\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    code, out, err = run_cli(capsys, "solve", "--model", E_MODEL, "--out", str(target))
    assert code == 2 and out == "" and "disk full" in err
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sol.json"]


def test_out_writes_through_a_symlink_to_its_target(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out, _ = run_cli(capsys, "solve", "--model", E_MODEL, "--out", str(link))
    assert (code, out) == (0, "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["alpha_star"] == pytest.approx(2.0, abs=1e-9)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


def test_out_writes_into_a_fifo_without_replacing_it(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # a reader must hold the FIFO open, or opening it to write would block
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, _ = run_cli(capsys, "solve", "--model", E_MODEL, "--out", str(fifo))
        assert (code, out) == (0, "")
        received = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]
    assert received == run_cli(capsys, "solve", "--model", E_MODEL)[1]


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": json.loads(K2_MODEL), "trials": 30}))
    inst = write_inst(tmp_path, [1.0, 3.0, 4.5])
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--instance", inst)
    assert code == 0
    assert json.loads(out)["trials"] == 30
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--instance", inst, "--trials", "40"
    )
    assert code == 0
    assert json.loads(out)["trials"] == 40


def _long_options(options: dict) -> set[str]:
    return {f"--{name}" for name in options}


# One valid run per case: for each option, its flag text and the JSON value
# a config file gives for the same input. {inst}, {scheme} and {tmp} stand
# for files made by the test.
CONFIG_CASES = {
    "solve": {"model": (K2_MODEL, json.loads(K2_MODEL)), "out": ("{tmp}/o.json",) * 2},
    "pricing": {"model": (FIG_MODEL, FIG_MODEL), "samples": ("4", 4)},
    "instances": {
        "model": (K2_MODEL, K2_MODEL),
        "spec": ('{"kind": "low2high", "n1": 3, "n2": 4}', {"kind": "low2high", "n1": 3, "n2": 4}),
        "seed": ("3", 3),
    },
    "simulate": {
        "scheme": ("{scheme}",) * 2,
        "instance": ("{inst}",) * 2,
        "mechanism": ("static", "static"),
        "trials": ("7", 7),
        "seed": ("2", 2),
    },
    "simulate-pinned": {
        "model": (K2_MODEL, json.loads(K2_MODEL)),
        "instance": ("{inst}",) * 2,
        "pin-seeds": ("0.25,0.75", [0.25, 0.75]),
    },
    "simulate-prices": {
        "model": (K2_MODEL, K2_MODEL),
        "instance": ("{inst}",) * 2,
        "prices": ("1.5,2.5", [1.5, 2.5]),
    },
    "experiment": {
        "model": (K2_MODEL, json.loads(K2_MODEL)),
        "instances": ('{"kind": "iid", "count": 2, "n": 8}', {"kind": "iid", "count": 2, "n": 8}),
        "mechanisms": ("pinned:0.25,static", ["pinned:0.25", "static"]),
        "trials": ("5", 5),
        "master-seed": ("4", 4),
    },
    "curves": {
        "k-min": ("3", 3),
        "k-max": ("4", 4),
        "l": ("1.5", 1.5),
        "u": ("5", 5),
        "cost-coeff": ("0.05", 0.05),
    },
}


def test_config_cases_cover_every_option():
    covered: dict[str, set[str]] = {}
    for case, options in CONFIG_CASES.items():
        covered.setdefault(case.split("-")[0], set()).update(f"--{o}" for o in options)
    # every subcommand takes --out from one shared entry of the option
    # table; it is checked once, under solve
    assert "--out" in covered["solve"]
    covered = {name: options | {"--out"} for name, options in covered.items()}
    assert covered == {
        name: _long_options(options) - {"--config"} for name, (_, _, options) in COMMANDS.items()
    }


@pytest.mark.parametrize(
    "case,option", [(case, option) for case, opts in CONFIG_CASES.items() for option in opts]
)
def test_config_value_gives_the_same_output_as_the_flag(tmp_path, capsys, case, option):
    files = {"{tmp}": str(tmp_path), "{inst}": write_inst(tmp_path, [1.0, 3.0, 4.5, 2.0])}
    files["{scheme}"] = str(tmp_path / "scheme.json")
    assert main(["pricing", "--model", K2_MODEL, "--out", files["{scheme}"]]) == 0

    def fill(value):
        if isinstance(value, str):
            for mark, path in files.items():
                value = value.replace(mark, path)
        return value

    command = case.split("-")[0]
    flags = {o: fill(text) for o, (text, _) in CONFIG_CASES[case].items()}
    default = COMMANDS[command][2][option][0]
    assert default is None or str(default) != flags[option]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({option: fill(CONFIG_CASES[case][option][1])}))

    def run(moved):
        argv = [command] + (["--config", str(cfg)] if moved else [])
        for o, text in flags.items():
            if not (moved and o == option):
                argv += [f"--{o}", text]
        code, out, err = run_cli(capsys, *argv)
        written = ""
        if "out" in flags:
            written = open(flags["out"]).read()
            os.unlink(flags["out"])
        return code, out, err, written

    by_flag = run(moved=False)
    assert by_flag[0] == 0
    assert run(moved=True) == by_flag


@pytest.mark.parametrize(
    "argv,cfg",
    [
        (("solve", "--model", K2_MODEL), {"tol": 1000}),
        (("solve", "--model", K2_MODEL), {"modle": 1}),
        (("solve", "--model", K2_MODEL), {"samples": 3}),
        (("instances", "--model", K2_MODEL), {"kind": "hard"}),
        (("simulate", "--model", K2_MODEL, "--instance", os.devnull), {"sigma": 0.3}),
        (("simulate", "--model", K2_MODEL, "--instance", os.devnull), {"config": "cfg.json"}),
    ],
    ids=["tol", "misspelt-model", "other-subcommand", "kind", "sigma", "config"],
)
def test_config_key_that_names_no_option_exits_2(tmp_path, capsys, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, argv[0], "--config", str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert repr(next(iter(cfg))) in err


@pytest.mark.parametrize(
    "argv,cfg",
    [
        (("simulate", "--model", K2_MODEL, "--instance", os.devnull), {"trials": float("inf")}),
        (("experiment", "--model", K2_MODEL), {"master-seed": -1}),
        (("simulate", "--model", K2_MODEL), {"instance": True}),
        (("solve", "--model", K2_MODEL), {"out": 5}),
    ],
    ids=["infinite-trials", "negative-seed", "instance-not-a-path", "out-not-a-path"],
)
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, argv[0], "--config", str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {next(iter(cfg))} must be ")


@pytest.mark.parametrize(
    "argv,key",
    [
        (("instances", "--spec", '{"kind": "iid", "eps": 0.1}'), "eps"),
        (("instances", "--spec", '{"kind": "hard", "n": 5}'), "n"),
        (("instances", "--spec", '{"kind": "sorted", "count": 5}'), "count"),
        (("experiment", "--instances", '{"kind": "iid", "count": 1, "eps": 0.1}'), "eps"),
    ],
)
def test_spec_key_its_kind_does_not_read_exits_2(capsys, argv, key):
    code, out, err = run_cli(capsys, *argv, "--model", K2_MODEL)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert repr(key) in err


def test_root_level_config_is_invalid_input(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    code, out, err = run_cli(capsys, "--config", str(cfg), "solve", "--model", K2_MODEL)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert run_cli(capsys, "solve", "--config", str(cfg), "--model", K2_MODEL)[0] == 0


def test_config_without_a_value_returns_2_and_help_returns_0(capsys):
    code, out, err = run_cli(capsys, "solve", "--config")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    for argv in (["--help"], ["solve", "--help"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: kselect")
    out = run_cli(capsys, "-h")[1]
    for name in ("solve", "pricing", "instances", "simulate", "experiment", "curves"):
        assert re.search(rf"^  {name} ", out, re.M), name
    code, out, _ = run_cli(capsys, "pricing", "--help")
    assert code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out)) - {"--help"}
    assert flags == _long_options(COMMANDS["pricing"][2])


def test_readme_names_exactly_the_options_of_each_subcommand():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    preamble, *subsections = section.split("\n### ")
    flag = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
    named = {}
    for text in subsections:
        name, _, body = text.partition("\n")
        named[name.strip()] = set(flag.findall(body))
    defined = {name: _long_options(options) for name, (_, _, options) in COMMANDS.items()}
    assert named == defined
    assert set(flag.findall(preamble)) <= set().union(*defined.values())


def test_readme_library_section_names_exactly_the_package_root():
    # A kselect function or class named bare in the section's inline code or
    # in its Python example is a root entry point; any other is written
    # with its module, as `pricing.price_at`.
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    section = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    texts = re.findall(r"```python\n(.*?)```", section, re.S)
    texts += re.findall(r"(?<!`)`([^`\n]+)`(?!`)", section)
    api = set()
    for info in pkgutil.iter_modules(kselect.__path__):
        if info.name.startswith("_"):
            continue  # __main__ runs the command line on import
        mod = importlib.import_module(f"kselect.{info.name}")
        api |= {
            name for name, value in vars(mod).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == mod.__name__
        }
    word = re.compile(r"(?<![\w.])[A-Za-z_]\w*")
    named = {w for text in texts for w in word.findall(text) if w in api}
    assert named == set(kselect.__all__)


# ---------------------------------------------------------------------------
# pricing


def test_pricing_json_round_trips_to_identical_scheme(tmp_path, capsys):
    out_path = tmp_path / "scheme.json"
    code, _, _ = run_cli(capsys, "pricing", "--model", FIG_MODEL, "--out", str(out_path))
    assert code == 0
    loaded = scheme_from_json(json.loads(out_path.read_text()))
    model = make_cost_model(1.0, 10.0, 10, quadratic_coeff=1.0 / 59.0)
    assert loaded == build_scheme(model)


PRICE_HIGHVALUE = json.dumps(
    {"L": 1, "U": 30, "k": 20000, "cost": {"type": "quadratic", "coeff": 0.45 / 20000}}
)


def test_simulate_reads_the_scheme_file_pricing_wrote_on_a_tie(tmp_path, capsys):
    # xi = 1 at alpha = 2: the chain end that rounds below L is set back to
    # L, so every price of the file lies in [L, U]
    model = json.dumps(
        {"L": 1.7, "U": 3.933766376996758, "k": 2,
         "cost": {"type": "explicit", "marginals": [0.4, 0.4]}}
    )
    scheme = tmp_path / "scheme.json"
    code, _, _ = run_cli(capsys, "pricing", "--model", model, "--out", str(scheme))
    assert code == 0
    inst = write_inst(tmp_path, [1.8, 3.5, 2.0])
    code, _, err = run_cli(
        capsys, "simulate", "--scheme", str(scheme), "--instance", inst, "--trials", "20"
    )
    assert code == 0, err


def test_pricing_builds_no_segment_objects_and_holds_its_memory(tmp_path):
    out = tmp_path / "scheme.json"
    tracemalloc.start()
    try:
        code = main(["pricing", "--model", PRICE_HIGHVALUE, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # the traced peak was 25.4 MB when every segment was a Segment object,
    # 20.2 MB when the whole text was written at once and 13.3 MB streamed;
    # with the chain and the price intervals as float columns, 11.9 MB
    assert peak <= 12.5e6


def test_solve_holds_its_memory(tmp_path):
    out = tmp_path / "solve.json"
    tracemalloc.start()
    try:
        code = main(["solve", "--model", PRICE_HIGHVALUE, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # the traced peak was 7.1 MB when the chain was one tuple per interval,
    # each end formatted twice; as one column of ends, 4.4 MB
    assert peak <= 5e6


def test_pricing_csv_samples_give_monotone_curves(capsys):
    code, out, _ = run_cli(capsys, "pricing", "--model", K2_MODEL, "--samples", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "unit,s,phi"
    assert len(lines) == 1 + 2 * 9
    by_unit = {}
    for row in lines[1:]:
        unit, s, phi = row.split(",")
        by_unit.setdefault(int(unit), []).append((float(s), float(phi)))
    for unit, pts in by_unit.items():
        assert pts[0][0] == 0.0 and pts[-1][0] == 1.0
        phis = [p for _, p in pts]
        assert all(a <= b for a, b in zip(phis, phis[1:]))


# ---------------------------------------------------------------------------
# instances


def test_pricing_samples_stream_one_unit_at_a_time(tmp_path, capsys):
    # 10^5 curve points: holding every CSV line at once peaked at 15.9 MB
    bench = '{"L": 1, "U": 30, "k": 10, "cost": {"type": "quadratic", "coeff": 0.0625}}'
    out = tmp_path / "curves.csv"
    tracemalloc.start()
    try:
        code = main(["pricing", "--model", bench, "--samples", "9999", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 15.9e6 / 3
    lines = out.read_text().split("\n")
    assert len(lines) == 1 + 10 * 10_000 + 1 and lines[-1] == ""
    assert lines[0] == "unit,s,phi" and lines[1] == "1,0,1"
    assert lines[-2] == "10,1,30"


def test_instances_hard_matches_library_output(capsys):
    code, out, _ = run_cli(
        capsys, "instances", "--model", K2_MODEL,
        "--spec", '{"kind": "hard", "eps": 0.5, "terminal": 2}',
    )
    assert code == 0
    model = make_cost_model(1.0, 5.0, 2, marginals=[0.25, 0.5])
    assert out == "".join(instance_text(hard_instance(model, 0.5, 2.0)))


def test_instances_writes_its_text_in_blocks(tmp_path):
    bench = '{"L": 1, "U": 30, "k": 10, "cost": {"type": "quadratic", "coeff": 0.0625}}'
    out = tmp_path / "iid.txt"
    argv = ["instances", "--model", bench, "--spec", '{"kind": "iid", "n": 100000}']
    tracemalloc.start()
    try:
        code = main([*argv, "--seed", "0", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(read_instance(out)) == 100_000
    # the traced peak was 14.7 MB when the valuations were a tuple of floats
    # and the text one string; as a float column written in blocks, 7.3 MB
    assert peak <= 10e6


def test_instances_seed_reproducibility(tmp_path, capsys):
    args = ["instances", "--model", K2_MODEL, "--spec", '{"kind": "iid", "n": 50}', "--seed", "7"]
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    code, other, _ = run_cli(capsys, *args[:-1], "8")
    assert other != first


# ---------------------------------------------------------------------------
# simulate


def write_inst(tmp_path, values, name="inst.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


def test_simulate_explicit_prices_trace(tmp_path, capsys):
    model = '{"L": 1, "U": 2, "k": 2, "cost": {"type": "explicit", "marginals": [0.1, 0.2]}}'
    inst = write_inst(tmp_path, [1.0, 1.2, 2.0])
    code, out, _ = run_cli(
        capsys, "simulate", "--model", model, "--instance", inst, "--prices", "1.05,1.5"
    )
    assert code == 0
    payload = json.loads(out)
    assert [d["accepted"] for d in payload["decisions"]] == [False, True, True]
    assert payload["units_sold"] == 2
    assert payload["welfare"] == 1.2 + 2.0 - 0.3
    assert payload["revenue"] == 1.05 + 1.5 - 0.3


def test_simulate_pinned_trace_is_deterministic(tmp_path, capsys):
    inst = write_inst(tmp_path, [1.0, 3.0, 4.5, 5.0])
    args = ["simulate", "--model", K2_MODEL, "--instance", inst, "--pin-seeds", "0.25,0.75"]
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["seeds"] == [0.25, 0.75]
    assert len(payload["prices"]) == 2
    # wrong seed count is a validation failure
    code, _, err = run_cli(
        capsys, "simulate", "--model", K2_MODEL, "--instance", inst, "--pin-seeds", "0.5"
    )
    assert code == 2 and "2" in err


def test_simulate_pinned_draws_one_row_past_the_trial_ceiling(tmp_path, capsys):
    # 2000 trials * k = 6000 is past the ceiling, but pinned draws one row:
    # the --pin-seeds trace at sigma on every unit
    k = 6000
    model = json.dumps({"L": 1, "U": 30, "k": k, "cost": {"type": "quadratic", "coeff": 0.45 / k}})
    args = ["simulate", "--model", model, "--instance", write_inst(tmp_path, [2.0, 30.0, 5.0])]
    code, out, _ = run_cli(capsys, *args, "--mechanism", "pinned")
    assert code == 0
    code, trace, _ = run_cli(capsys, *args, "--pin-seeds", ",".join(["0.5"] * k))
    assert code == 0
    assert json.loads(out)["mean_welfare"] == json.loads(trace)["welfare"]
    code, _, err = run_cli(capsys, *args, "--mechanism", "r-dynamic")
    assert code == 2 and "exceeds the ceiling" in err


def test_simulate_estimate_reproducible_and_ratio_at_least_one(tmp_path, capsys):
    inst = write_inst(tmp_path, [1.0, 2.0, 3.0, 4.0, 5.0, 4.0])
    args = [
        "simulate", "--model", K2_MODEL, "--instance", inst,
        "--trials", "400", "--seed", "11",
    ]
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["trials"] == 400
    assert payload["ratio_to_opt"] >= 1.0
    assert payload["mean_welfare"] > 0.0
    assert payload["opt"] == 5.0 + 4.0 - 0.75


def test_simulate_empty_instance_has_zero_welfare(tmp_path, capsys):
    inst = write_inst(tmp_path, [])
    code, out, _ = run_cli(
        capsys, "simulate", "--model", K2_MODEL, "--instance", inst, "--prices", "1.5,2.5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["welfare"] == 0.0
    assert payload["units_sold"] == 0


def trace_stdlib_text(prices, seeds, instance, model) -> str:
    """The simulate trace through the stdlib's indenting encoder, one dict
    per arrival."""
    out = run_posted_price(prices, instance, model)
    payload = {
        "prices": prices,
        "seeds": seeds,
        "decisions": [
            {"posted_price": d.posted_price, "accepted": d.accepted} for d in out.decisions
        ],
        "units_sold": out.units_sold,
        "welfare": out.welfare,
        "revenue": out.revenue,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("units", [1, 2, jsontext.CHUNK_UNITS])
def test_simulate_trace_is_the_stdlib_indent_text(tmp_path, capsys, units):
    # random small runs through --prices and --pin-seeds, among them runs
    # that sell out (null posted prices after), instances with no arrivals
    # and a price -0.0, given as the token after its flag like any value
    rng = np.random.default_rng(units)
    seen = set()
    for run in range(48):
        k = int(rng.integers(1, 5))
        L, U = 1.0, float(rng.choice([1.0, 3.0, 30.0]))
        model = make_cost_model(L, U, k, marginals=np.sort(rng.uniform(0.0, 0.9, k)).tolist())
        inst = write_inst(tmp_path, rng.choice(rng.uniform(L, U, 3), run % 7).tolist())
        argv = ["simulate", "--model", json.dumps(model_to_json(model)), "--instance", inst]
        if run % 2:
            flag, seeds = "--pin-seeds", rng.uniform(0.0, 1.0, k).tolist()
            prices = prices_for_seeds(build_scheme(model), np.array([seeds]))[0].tolist()
            argv += [flag, ",".join(map(repr, seeds))]
        else:
            flag, seeds = "--prices", []
            prices = np.sort(rng.uniform(0.0, U, k)).tolist()
            prices[0] = -0.0 if run % 4 else prices[0]
            argv += [flag, ",".join(map(repr, prices))]
        with mock.patch.object(jsontext, "CHUNK_UNITS", units):
            code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == trace_stdlib_text(prices, seeds, read_instance(inst), model)
        seen |= {flag} | {mark for mark in ('"decisions": []', "null", "-0.0") if mark in out}
    assert seen == {"--prices", "--pin-seeds", '"decisions": []', "null", "-0.0"}


def test_simulate_trace_streams_and_holds_its_memory(tmp_path):
    bench = '{"L": 1, "U": 30, "k": 10, "cost": {"type": "quadratic", "coeff": 0.0625}}'
    inst = write_inst(tmp_path, np.random.default_rng(0).uniform(1.0, 30.0, 10**5).tolist())
    out = tmp_path / "trace.json"
    argv = ["simulate", "--model", bench, "--instance", inst, "--out", str(out)]
    tracemalloc.start()
    try:
        code = main([*argv, "--pin-seeds", ",".join(["0.5"] * 10)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # the traced peak was 69.5 MB when the trace was one dict per arrival
    # laid out by the indenting encoder; streamed, 5.7 MB, most of it the
    # instance read in
    assert peak <= 7e6
    assert len(json.loads(out.read_text())["decisions"]) == 10**5


def test_simulate_scheme_file_must_match_model(tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    code, _, _ = run_cli(capsys, "pricing", "--model", K2_MODEL, "--out", str(scheme_path))
    assert code == 0
    inst = write_inst(tmp_path, [2.0, 3.0])
    code, _, _ = run_cli(
        capsys, "simulate", "--scheme", str(scheme_path), "--instance", inst,
        "--trials", "5", "--seed", "1",
    )
    assert code == 0
    code, _, err = run_cli(
        capsys, "simulate", "--scheme", str(scheme_path), "--model", FIG_MODEL,
        "--instance", inst, "--trials", "5", "--seed", "1",
    )
    assert code == 2
    assert "disagrees" in err


# ---------------------------------------------------------------------------
# experiment


def test_experiment_single_pinned_instance_single_point(tmp_path, capsys):
    spec = '{"kind": "hard", "count": 1, "eps": 1.0, "terminal": 5.0}'
    code, out, _ = run_cli(
        capsys, "experiment", "--model", K2_MODEL, "--instances", spec,
        "--mechanisms", "pinned:0.5", "--trials", "1", "--master-seed", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "mechanism,surrogate,empirical_ratio,cumulative_fraction"
    assert len(lines) == 2
    name, flag, ratio, frac = lines[1].split(",")
    assert name == "d-dynamic-surrogate(sigma=0.5)"
    assert flag == "true"
    assert frac == "1"
    model = make_cost_model(1.0, 5.0, 2, marginals=[0.25, 0.5])
    mech = Mechanism(build_scheme(model), "pinned", 0.5)
    inst = hard_instance(model, 1.0, 5.0)
    est = expected_welfare(mech, inst, model, 1, 0)
    want = ratio_to_opt(offline_opt(inst, model)[0], est.mean)
    assert float(ratio) == pytest.approx(want, rel=1e-11)


def test_experiment_cdf_is_valid_and_rerun_is_byte_identical(tmp_path, capsys):
    args = [
        "experiment", "--model", K2_MODEL,
        "--instances", '{"kind": "iid", "count": 6, "n": 40}',
        "--mechanisms", "r-dynamic,pinned:0.25,static",
        "--trials", "60", "--master-seed", "5",
    ]
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    rows = [line.split(",") for line in first.strip().split("\n")[1:]]
    seen = {}
    for name, flag, ratio, frac in rows:
        seen.setdefault(name, []).append((float(ratio), float(frac), flag))
    assert set(seen) == {"r-dynamic", "d-dynamic-surrogate(sigma=0.25)", "r-static-surrogate"}
    # each kind's derived labels are the ones the CSV shows
    scheme = build_scheme(make_cost_model(1.0, 5.0, 2, marginals=[0.25, 0.5]))
    mechs = [Mechanism(scheme), Mechanism(scheme, "pinned", 0.25), Mechanism(scheme, "static")]
    assert {name: pts[0][2] for name, pts in seen.items()} == {
        m.name: "true" if m.surrogate else "false" for m in mechs
    }
    for name, pts in seen.items():
        ratios = [r for r, _, _ in pts]
        fracs = [f for _, f, _ in pts]
        flags = {f for _, _, f in pts}
        assert len(pts) == 6
        assert ratios == sorted(ratios)
        assert all(a < b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == 1.0
        assert flags == ({"false"} if name == "r-dynamic" else {"true"})


def test_experiment_reports_failing_instance_index(capsys):
    spec = '{"kind": "iid", "count": 2, "n": 5, "mu": 50.0, "sdev": 0.0}'
    code, _, err = run_cli(
        capsys, "experiment", "--model", K2_MODEL, "--instances", spec, "--trials", "1"
    )
    assert code == 2
    assert "instance 0" in err


# the experiment's trial rows shared among forked workers: PARALLEL_ARGS
# draws 61 rows an instance (30 + 1 + 30), 427 in all, and three workers
# take rows 0-141, 142-283 and 284-426, so this process sells instances 0,
# 1 and the start of 2, one child the rest of 2, 3 and the start of 4, and
# the other the rest of 4, 5 and 6

PARALLEL_ARGS = (
    "experiment", "--model", FIG_MODEL,
    "--instances", '{"kind": "iid", "count": 7, "n": 40}',
    "--mechanisms", "r-dynamic,pinned:0.25,static",
    "--trials", "30", "--master-seed", "4",
)


@pytest.fixture
def forked(monkeypatch):
    """Pids of the experiment workers forked during a test, with every run
    made to share its trial rows among three workers, however few."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    monkeypatch.setattr(cli, "PARALLEL_MIN_ROWS", 0)
    return pids


def assert_reaped(pids):
    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def fail_instances(monkeypatch, error, failing):
    """Make generating each instance in ``failing`` raise ``error``."""
    real = cli.instance_rng

    def instance_rng(master_seed, idx):
        if idx in failing:
            raise error(f"no draw for {idx}")
        return real(master_seed, idx)

    monkeypatch.setattr(cli, "instance_rng", instance_rng)


def test_forked_experiment_gives_the_in_process_bytes(capsys, monkeypatch, forked):
    code, shared, _ = run_cli(capsys, *PARALLEL_ARGS)
    assert code == 0 and len(forked) == 2
    assert_reaped(forked)
    monkeypatch.setattr(cli, "PARALLEL_MIN_ROWS", 10**12)
    assert run_cli(capsys, *PARALLEL_ARGS) == (0, shared, "")
    assert len(forked) == 2
    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    monkeypatch.setattr(cli, "PARALLEL_MIN_ROWS", 0)
    assert run_cli(capsys, *PARALLEL_ARGS) == (0, shared, "")
    assert len(forked) == 2


def test_a_one_instance_experiment_shares_its_rows_with_the_in_process_bytes(
    capsys, monkeypatch, forked
):
    args = list(PARALLEL_ARGS)
    args[args.index("--instances") + 1] = '{"kind": "iid", "count": 1, "n": 40}'
    code, shared, _ = run_cli(capsys, *args)
    assert code == 0 and len(forked) == 2
    assert_reaped(forked)
    monkeypatch.setattr(cli, "PARALLEL_MIN_ROWS", 10**12)
    assert run_cli(capsys, *args) == (0, shared, "")
    assert len(forked) == 2


@pytest.mark.parametrize(
    "error, code", [(ValidationError, 2), (SolverError, 3)], ids=["invalid", "solver"]
)
@pytest.mark.parametrize(
    "failing",
    [{1, 3}, {3, 5}, {5, 6}, {2, 3}, {4, 6}],
    ids=["parent-first", "children", "child-first", "split-parent-child", "split-children"],
)
def test_forked_experiment_reports_the_lowest_failing_instance(
    capsys, monkeypatch, forked, error, code, failing
):
    # the lowest failing instance lies in this process's rows, in the first
    # child's or the last child's only, or across this process's and a
    # child's, or two children's
    fail_instances(monkeypatch, error, failing)
    got = run_cli(capsys, *PARALLEL_ARGS)
    assert len(forked) == 2
    assert_reaped(forked)
    lowest = min(failing)
    assert got == (code, "", f"error: instance {lowest}: no draw for {lowest}\n")
    monkeypatch.setattr(cli, "PARALLEL_MIN_ROWS", 10**12)
    assert run_cli(capsys, *PARALLEL_ARGS) == got


def test_experiment_runs_in_process_when_no_worker_starts(capsys, monkeypatch, forked):
    _, want, _ = run_cli(capsys, *PARALLEL_ARGS)

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_cli(capsys, *PARALLEL_ARGS) == (0, want, "")
    monkeypatch.delattr(os, "fork")
    assert run_cli(capsys, *PARALLEL_ARGS) == (0, want, "")


def test_experiment_does_not_fork_while_another_thread_runs(capsys, forked):
    _, want, _ = run_cli(capsys, *PARALLEL_ARGS)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert run_cli(capsys, *PARALLEL_ARGS) == (0, want, "")
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    assert len(forked) == 2  # the first run's workers only


def test_a_worker_that_dies_is_an_error_and_every_child_is_reaped(
    capsys, monkeypatch, forked
):
    parent = os.getpid()
    real = cli.instance_rng

    def instance_rng(master_seed, idx):
        if os.getpid() != parent and idx == 4:
            os._exit(9)
        return real(master_seed, idx)

    monkeypatch.setattr(cli, "instance_rng", instance_rng)
    code, out, err = run_cli(capsys, *PARALLEL_ARGS)
    assert (code, out) == (2, "")
    assert "ended without its results" in err
    assert_reaped(forked)


def test_an_interrupt_kills_and_reaps_every_worker(capsys, monkeypatch, forked):
    parent = os.getpid()
    real = cli.instance_rng

    def instance_rng(master_seed, idx):
        if os.getpid() != parent:
            time.sleep(60)  # a child runs until it is killed
        elif idx == 1:  # in this process's rows
            raise KeyboardInterrupt
        return real(master_seed, idx)

    monkeypatch.setattr(cli, "instance_rng", instance_rng)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(list(PARALLEL_ARGS))
    assert time.monotonic() - start < 30
    assert len(forked) == 2
    assert_reaped(forked)


# ---------------------------------------------------------------------------
# curves


def test_curves_two_unit_row_reports_alpha_star_exactly(capsys):
    code, out, _ = run_cli(capsys, "curves", "--k-min", "2", "--k-max", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,alpha_star,cr_guarantee,regime"
    first = lines[1].split(",")
    assert first[0] == "2"
    assert first[1] == first[2]  # the two-unit construction needs no extra factor
    assert all(line.split(",")[3] == "high_value" for line in lines[1:])


def test_curves_skips_unsolvable_rows_and_reports_them(capsys):
    code, out, err = run_cli(
        capsys, "curves", "--k-min", "24", "--k-max", "28",
        "--u", "1.05", "--cost-coeff", "0.02",
    )
    assert code == 0
    ks = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
    assert ks == ["24", "25", "26"]
    assert "k=27" in err and "k=28" in err


def test_curves_regime_column_flips_where_costs_cross_l(capsys):
    code, out, _ = run_cli(capsys, "curves", "--k-min", "29", "--k-max", "31")
    assert code == 0
    regimes = {line.split(",")[0]: line.split(",")[3] for line in out.strip().split("\n")[1:]}
    assert regimes == {"29": "high_value", "30": "general", "31": "general"}


@pytest.mark.parametrize(
    "flag,value", [("--l", "0.5"), ("--u", "0.5"), ("--cost-coeff", "-1"), ("--cost-coeff", "2")]
)
def test_curves_rejects_an_invalid_setup_before_any_capacity(capsys, flag, value):
    # L below 1, U below L, a negative coefficient and c_1 = coeff >= L are
    # wrong at every k: invalid input, not a sweep of unsolvable rows
    code, out, err = run_cli(capsys, "curves", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "k=" not in err


def test_curves_runs_a_range_whose_units_sum_to_the_ceiling(capsys, monkeypatch):
    # each row builds and solves a model of size k, so the ceiling bounds
    # the capacities summed over the range
    monkeypatch.setattr(kselect.cli, "MAX_CURVE_UNITS", 2 + 3 + 4)
    assert run_cli(capsys, "curves", "--k-min", "2", "--k-max", "4")[0] == 0
    assert run_cli(capsys, "curves", "--k-min", "2", "--k-max", "5")[0] == 2


def test_curves_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "curves", "--k-min", "5", "--k-max", "2")
    assert code == 2
    assert "k-min" in err


# ---------------------------------------------------------------------------
# process-level entry


def fresh_interpreter(cwd, *argv) -> str:
    """stdout of ``python *argv`` in a new interpreter that finds the
    package where this process found it."""
    src = os.path.dirname(os.path.dirname(kselect.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120, env=env, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_module_invocation_in_subprocess():
    # the child finds the package where this process found it, installed or not
    out = fresh_interpreter(None, "-m", "kselect.cli", "solve", "--model", E_MODEL)
    assert json.loads(out)["alpha_star"] == pytest.approx(2.0, abs=1e-9)


def test_package_invocation_in_subprocess():
    out = fresh_interpreter(None, "-m", "kselect", "solve", "--model", E_MODEL)
    assert json.loads(out)["alpha_star"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("module", ["kselect", "kselect.cli"])
def test_importing_the_package_loads_no_random_stack(tmp_path, module):
    probe = f"import sys, {module}; print('numpy.random' in sys.modules)"
    assert fresh_interpreter(tmp_path, "-c", probe) == "False\n"


def test_size_ceilings_reject_before_allocating(capsys):
    huge_k = _model_with(k=10**8, cost={"type": "quadratic", "coeff": 1e-9})
    tracemalloc.start()
    try:
        for argv in (
            ("pricing", "--model", huge_k),
            ("pricing", "--model", FIG_MODEL, "--samples", "1000000"),
            ("curves", "--k-min", "1", "--k-max", str(10**9)),
            ("experiment", "--model", FIG_MODEL, "--instances", '{"kind": "iid", "count": 1e9}'),
            ("simulate", "--model", FIG_MODEL, "--instance", os.devnull, "--trials", "1000001"),
        ):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert "exceeds the ceiling" in err
            assert tracemalloc.get_traced_memory()[1] - base < 2**20
    finally:
        tracemalloc.stop()


def test_instance_file_past_the_arrival_ceiling_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(kselect.instances, "MAX_ARRIVALS", 4)
    inst = tmp_path / "inst.txt"
    inst.write_text("2\n" * 5)
    code, out, err = run_cli(capsys, "simulate", "--model", K2_MODEL, "--instance", str(inst))
    assert (code, out) == (2, "")
    assert "more than 4 arrivals" in err


@pytest.mark.parametrize(
    "flag, ceiling",
    [
        ("--model", "MAX_MODEL_FILE_BYTES"),
        ("--config", "MAX_CONFIG_FILE_BYTES"),
        ("--scheme", "MAX_SCHEME_FILE_BYTES"),
    ],
)
def test_json_file_past_its_byte_ceiling_exits_2_unread(capsys, tmp_path, flag, ceiling):
    # a sparse file one byte past the ceiling: refused on its size alone
    limit = getattr(cli, ceiling)
    big = tmp_path / "big.json"
    big.touch()
    os.truncate(big, limit + 1)
    inst = tmp_path / "inst.txt"
    inst.write_text("2\n")
    argv = ["simulate", flag, str(big), "--instance", str(inst), "--trials", "1"]
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert f"exceeds the ceiling of {limit} bytes" in err
    assert peak < 2**20


def test_json_file_at_its_byte_ceiling_is_read(capsys, tmp_path, monkeypatch):
    model = tmp_path / "model.json"
    model.write_text(K2_MODEL)
    argv = ("solve", "--model", str(model))
    want = run_cli(capsys, "solve", "--model", K2_MODEL)
    monkeypatch.setattr(cli, "MAX_MODEL_FILE_BYTES", len(K2_MODEL))
    assert run_cli(capsys, *argv) == want
    model.write_text(K2_MODEL + " ")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and f"exceeds the ceiling of {len(K2_MODEL)} bytes" in err


def test_config_pipe_past_its_byte_ceiling_exits_2(capsys, tmp_path, monkeypatch):
    # a pipe's size reads 0: the read itself stops one byte past the ceiling
    monkeypatch.setattr(cli, "MAX_CONFIG_FILE_BYTES", 100)
    fifo = tmp_path / "config.fifo"
    os.mkfifo(fifo)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(fifo, "w") as fh:
            fh.write(json.dumps({"model": json.loads(K2_MODEL), "out": "x" * 200}))

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        code, out, err = run_cli(capsys, "solve", "--config", str(fifo))
    finally:
        writer.join(30)
    assert (code, out) == (2, "")
    assert "exceeds the ceiling of 100 bytes" in err


def test_model_json_helpers_agree_with_cli_input():
    model = make_cost_model(1.0, 5.0, 2, marginals=[0.25, 0.5])
    assert model_to_json(model) == json.loads(K2_MODEL)
