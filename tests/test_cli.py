"""End-to-end checks of the kselect command line."""

import json
import math
import os
import subprocess
import sys

import pytest

import kselect
from kselect import (
    build_scheme,
    expected_welfare,
    hard_instance,
    instance_text,
    make_cost_model,
    make_pinned_deterministic,
    model_to_json,
    scheme_from_json,
)
from kselect.cli import main

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


def test_solve_regime_override_routes_agree(capsys):
    # one solver route: --regime only checks the setup and sets the label
    code, out_hv, _ = run_cli(capsys, "solve", "--model", FIG_MODEL, "--regime", "high_value")
    assert code == 0
    code, out_gen, _ = run_cli(capsys, "solve", "--model", FIG_MODEL, "--regime", "general")
    assert code == 0
    a, b = json.loads(out_hv), json.loads(out_gen)
    assert (a.pop("regime"), b.pop("regime")) == ("high_value", "general")
    assert a == b


GEN2_MODEL = '{"L": 1, "U": 4, "k": 2, "cost": {"type": "explicit", "marginals": [0.5, 2]}}'


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--regime", "high_value"),
        ("pricing", "--builder", "high_value"),
    ],
)
def test_high_value_route_rejects_general_setup(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--model", GEN2_MODEL)
    assert code == 2
    assert out == ""
    assert "c_k < L" in err
    assert "Traceback" not in err


def _model_with(**changes):
    spec = {"L": 1, "U": 5, "k": 2, "cost": {"type": "explicit", "marginals": [0.25, 0.5]}}
    cost = changes.pop("cost", {})
    spec.update(changes)
    spec["cost"] = {**spec["cost"], **cost}
    return json.dumps(spec)


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--model", _model_with(cost={"marginals": "ab"})),
        ("solve", "--model", _model_with(cost={"marginals": [0.1, None]})),
        ("solve", "--model", _model_with(L="x")),
        ("solve", "--model", _model_with(cost={"type": "quadratic", "coeff": [1]})),
        ("pricing", "--model", K2_MODEL, "--samples", "-3"),
    ],
    ids=["marginals-string", "marginals-null", "L-string", "coeff-list", "negative-samples"],
)
def test_malformed_input_exits_2_without_traceback(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


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


def test_solve_missing_model_exits_2(capsys):
    code, _, err = run_cli(capsys, "solve")
    assert code == 2
    assert "model" in err


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


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": json.loads(FIG_MODEL), "regime": "general"}))
    code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["regime"] == "general"
    code, out, _ = run_cli(capsys, "solve", "--config", str(cfg), "--regime", "high_value")
    assert code == 0
    assert json.loads(out)["regime"] == "high_value"


# ---------------------------------------------------------------------------
# pricing


def test_pricing_json_round_trips_to_identical_scheme(tmp_path, capsys):
    out_path = tmp_path / "scheme.json"
    code, _, _ = run_cli(capsys, "pricing", "--model", FIG_MODEL, "--out", str(out_path))
    assert code == 0
    loaded = scheme_from_json(json.loads(out_path.read_text()))
    model = make_cost_model(1.0, 10.0, 10, quadratic_coeff=1.0 / 59.0)
    assert loaded == build_scheme(model)


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


def test_instances_hard_matches_library_output(capsys):
    code, out, _ = run_cli(
        capsys, "instances", "--model", K2_MODEL, "--kind", "hard",
        "--eps", "0.5", "--terminal", "2",
    )
    assert code == 0
    model = make_cost_model(1.0, 5.0, 2, marginals=[0.25, 0.5])
    assert out == instance_text(hard_instance(model, 0.5, 2.0))


def test_instances_seed_reproducibility(tmp_path, capsys):
    args = ["instances", "--model", K2_MODEL, "--kind", "iid", "--count", "50", "--seed", "7"]
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
    mech = make_pinned_deterministic(build_scheme(model), 0.5)
    inst = hard_instance(model, 1.0, 5.0)
    want = expected_welfare(mech, inst, model, 1, 0).ratio_to_opt
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


def test_curves_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "curves", "--k-min", "5", "--k-max", "2")
    assert code == 2
    assert "k-min" in err


# ---------------------------------------------------------------------------
# process-level entry


def test_module_invocation_in_subprocess():
    # the child finds the package where this process found it, installed or not
    src = os.path.dirname(os.path.dirname(kselect.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "kselect.cli", "solve", "--model", E_MODEL],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["alpha_star"] == pytest.approx(2.0, abs=1e-9)


def test_model_json_helpers_agree_with_cli_input():
    model = make_cost_model(1.0, 5.0, 2, marginals=[0.25, 0.5])
    assert model_to_json(model) == json.loads(K2_MODEL)
