"""Tests of the benchmark harness itself (not of kselect).

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

from kselect import cli, mechanisms  # noqa: E402

TINY_EXP = replace(
    run.WORKLOADS["exp-iid"], instances={"kind": "iid", "count": 3}, trials=60
)
TINY_PRICE = replace(
    run.WORKLOADS["price-general"],
    model={"L": 1, "U": 30, "k": 12, "cost": {"type": "quadratic", "coeff": 2 / 12**2}},
)
GOLDEN = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


def test_self_time_subtracts_the_union_of_child_spans():
    records = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a", 2.0, 3.0, 1],  # same name nested: counted once in total_s
        ["b", 3.5, 6.0, 0],  # overlaps a; the union [1, 6] is covered
        ["c", 8.0, 12.0, 0],  # runs past its parent; only [8, 10] counts
    ]
    assert spans.self_times(records) == pytest.approx([10 - 5 - 2, 2.0, 1.0, 2.5, 4.0])
    summary = spans.summarize(records, names=("root", "a", "b", "c"))
    assert summary["a.calls"] == 2
    assert summary["a.total_s"] == pytest.approx(3.0)
    assert summary["a.self_s"] == pytest.approx(3.0)
    assert summary["root.self_s"] == pytest.approx(3.0)


def test_recorded_self_times_add_up_to_the_root_span():
    mod = types.ModuleType("kselect.fake_layer")
    mod.leaf = lambda n: sum(range(n))
    mod.mid = lambda n: [mod.leaf(n) for _ in range(3)]
    mod.table = {"mid": mod.mid}
    mod.top = lambda n: mod.table["mid"](n) + [mod.leaf(n)]
    sys.modules[mod.__name__] = mod
    try:
        rec = spans.Recorder("t", {"leaf": ("n", lambda args, _r: args["n"])})
        targets = {name: (mod.__name__, (name,)) for name in ("top", "mid", "leaf")}
        rec.install(targets)
        mod.top(20000)
        rec.restore()
    finally:
        del sys.modules[mod.__name__]
    summary = spans.summarize(rec.records, names=targets)
    assert summary["leaf.calls"] == 4 and summary["mid.calls"] == 1
    assert rec.counts["leaf.n"] == 4 * 20000
    total_self = sum(summary[f"{n}.self_s"] for n in targets)
    assert total_self == pytest.approx(summary["top.total_s"], rel=1e-9)
    assert mod.table["mid"] is mod.mid  # restored, dict values included


def test_missing_wrapped_function_is_reported_absent(tmp_path, monkeypatch):
    targets = dict(spans.TARGETS)
    targets["mechanisms.gone"] = ("kselect.mechanisms", ("no_longer_here",))
    # a hook written for a parameter name that no longer exists
    rec = spans.Recorder("t", {"cli.main": ("args", lambda args, _r: args["renamed"])})
    rec.install(targets)
    try:
        out = tmp_path / "scheme.json"
        assert cli.main(TINY_PRICE.argv(0, str(out))) == 0
    finally:
        rec.restore()
    assert rec.absent == ["mechanisms.gone"]
    assert rec.broken_counts == {"cli.main.args"}
    assert spans.summarize(rec.records)["cli.main.calls"] == 1
    monkeypatch.delattr(mechanisms, "run_trial")
    assert worker.live_fraction([], 4) is None


def test_pricing_check_rejects_a_perturbed_alpha_star(tmp_path):
    golden = make_reference.pricing_golden("tiny", TINY_PRICE, tmp_path)
    out = tmp_path / "scheme.json"
    cli.main(TINY_PRICE.argv(0, str(out)))
    obj = json.loads(out.read_text())
    assert checks.check_pricing(json.dumps(obj), golden) == []
    perturbed = dict(obj, alpha_star=obj["alpha_star"] * (1 + 1e-7))
    assert any("alpha_star" in p for p in checks.check_pricing(json.dumps(perturbed), golden))
    obj["segments"][5][-1]["v_lo"] *= 1.001
    assert any("sampled prices" in p for p in checks.check_pricing(json.dumps(obj), golden))


def test_experiment_check_rejects_a_truncated_csv(tmp_path):
    out = tmp_path / "ratios.csv"
    assert cli.main(TINY_EXP.argv(5, str(out))) == 0
    text = out.read_text()
    expected = checks.experiment_reference(
        TINY_EXP.model, TINY_EXP.instances, TINY_EXP.mechanisms, TINY_EXP.trials, 5,
        GOLDEN["experiment"],
    )
    assert checks.check_experiment(text, expected) == []
    truncated = "\n".join(text.split("\n")[:-2]) + "\n"
    assert any("rows, expected 3" in p for p in checks.check_experiment(truncated, expected))
    assert checks.check_experiment(text[:-1], expected)
    pinned = [line for line in text.split("\n") if line.startswith("d-dynamic")][0]
    changed = text.replace(pinned, pinned.replace(",true,", ",true,9", 1))
    assert any("pinned" in p for p in checks.check_experiment(changed, expected))


@pytest.mark.parametrize("trace", [False, True])
def test_a_second_seed_runs_clean(tmp_path, monkeypatch, trace):
    monkeypatch.setattr(run, "LIVE_TRIALS", 2)
    line, record = run.measure("tiny", TINY_EXP, 7, 0.0, trace, workdir=tmp_path)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == run.MIN_OPS
    want = run.PER_LAYER if trace else run.END_TO_END
    assert set(line["metrics"]) == set(want)
    assert record["absent"] == []
    assert len({op["sha256"] for op in record["ops"]}) == 1
    for op in record["ops"]:
        speed = run.CAL_REF_S / ((op["cal_before_s"] + op["cal_after_s"]) / 2)
        assert op["scaled_run_s"] == pytest.approx(op["run_s"] * speed)
        assert op["scaled_setup_s"] == pytest.approx(
            op["import_s"] * run.CAL_REF_S / op["cal_before_s"]
        )
    if trace:
        m = {k: v["value"] for k, v in line["metrics"].items()}
        assert m["trace.self_coverage"] == pytest.approx(1.0, abs=1e-3)
        assert m["mechanisms.trial_rng.calls"] == 3 * TINY_EXP.trials * 2
        assert 0.0 < m["mechanisms.kernel.live_fraction"] < 1.0
        first = json.loads((tmp_path / record["spans_file"]).read_text().split("\n")[0])
        assert set(first) == {"run", "id", "parent", "name", "start", "end"}


def test_benchmark_json_matches_the_harness():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    meta = json.loads((HERE / "meta.json").read_text())
    mapped = [m for group in meta["layer_map"] for m in group["metrics"]]
    assert sorted(mapped) == sorted(run.PER_LAYER)
    for group in meta["layer_map"]:
        assert set(group["moves"]) <= set(run.END_TO_END)
        assert set(group["on"]) <= set(run.WORKLOADS)
