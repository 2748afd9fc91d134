"""kselect benchmark: four CLI workloads, end-to-end metrics or per-layer spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload exp-iid --seed 0 --seconds 25 --trace 0

Each operation is one ``kselect.cli.main(argv)`` call in a fresh interpreter
(worker.py), run one at a time in a closed loop until ``--seconds`` have
passed. ``--seed`` is passed to the CLI as ``--master-seed`` and also seeds
the output check's own Monte-Carlo reference. Every output is checked
(checks.py); an operation fails on a non-zero exit, a traceback, or a failed
check. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

Every reported time is scaled to one reference speed by a calibration
timed beside it in the same process (CAL_REF_S below; perfbench/README.md).
With ``--trace 0`` the metrics are the end-to-end ones, from untraced
operations. With ``--trace 1`` operations alternate untraced and traced; the
traced ones record spans around kselect's public functions (spans.py) and
the metrics are per layer, each the median over the traced operations.

A record of the run (per-operation times, output SHA-256 digests, machine
facts, absent spans) is written to ``.perfbench/`` in the repository root,
with the raw spans of a traced run beside it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import worker
from spans import STATS, TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

MIN_OPS = 2  # a traced run needs one untraced and one traced operation
LIVE_TRIALS = 8  # trial indices sampled per estimate for the live fraction
OP_TIMEOUT_S = 120
# worker.calibrate()'s median time on the reference machine (2-core x86_64
# VM, Python 3.11.7, NumPy 2.4.6). Every reported time t is scaled to
# t * CAL_REF_S / (calibrate() time beside it), i.e. to the reference speed;
# raw times stay in the run record.
CAL_REF_S = 0.023
NOISE_NOTE = (
    "shared VM that allows neither CPU pinning nor cache drops: noise is "
    "handled by repeated operations and medians, "
    "and every time is scaled by a calibration timed beside it"
)

BENCH_MODEL = {"L": 1, "U": 30, "k": 10, "cost": {"type": "quadratic", "coeff": 0.0625}}


@dataclass(frozen=True)
class Workload:
    command: str  # "experiment" | "pricing"
    model: dict
    instances: dict = field(default_factory=dict)
    mechanisms: str = ""
    trials: int = 0

    def argv(self, seed: int, out: str) -> list[str]:
        argv = [self.command, "--model", json.dumps(self.model)]
        if self.command == "experiment":
            argv += [
                "--instances", json.dumps(self.instances),
                "--mechanisms", self.mechanisms,
                "--trials", str(self.trials),
                "--master-seed", str(seed),
            ]
        return argv + ["--out", out]

    @property
    def work(self) -> int:
        """Trial-arrival steps of all estimates, or price curves built."""
        if self.command == "experiment":
            n_mechs = len(self.mechanisms.split(","))
            arrivals = self.instances.get("n", 1000)
            return self.instances["count"] * n_mechs * self.trials * arrivals
        return self.model["k"]

    @property
    def suffix(self) -> str:
        return ".csv" if self.command == "experiment" else ".json"


WORKLOADS = {
    "exp-iid": Workload(
        "experiment", BENCH_MODEL, {"kind": "iid", "count": 5},
        "r-dynamic,pinned:0.5,static", 2000,
    ),
    "exp-sorted": Workload(
        "experiment", BENCH_MODEL, {"kind": "sorted", "count": 3}, "r-dynamic", 10000,
    ),
    "price-general": Workload(
        "pricing", {"L": 1, "U": 30, "k": 500, "cost": {"type": "quadratic", "coeff": 1 / 500}},
    ),
    "price-highvalue": Workload(
        "pricing",
        {"L": 1, "U": 30, "k": 20000, "cost": {"type": "quadratic", "coeff": 0.45 / 20000}},
    ),
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
}
COUNT_METRICS = [f"{span}.{name}" for span, (name, _) in worker.hooks([]).items()]
PER_LAYER = {
    **{f"{span}.{stat}": ("count" if stat == "calls" else "s") for span in TARGETS for stat in STATS},
    **{name: "count" for name in COUNT_METRICS},
    "mechanisms.kernel.live_fraction": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.self_coverage": "fraction",
}


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "noise": NOISE_NOTE,
    }


def run_worker(spec: dict, workdir: Path) -> dict:
    """Run worker.py once; the result dict, with ``error`` set on failure."""
    result_path = workdir / "op-result.json"
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec), str(result_path)],
            capture_output=True, text=True, timeout=OP_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {OP_TIMEOUT_S} s"}
    if proc.returncode != 0 or "Traceback" in proc.stderr or not result_path.exists():
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result.get("rc", 0) != 0:
        result["error"] = f"kselect exit {result['rc']}: {proc.stderr.strip()[-2000:]}"
    return result


class OutputCheck:
    """Checks each operation's output; the first in full, the rest by digest.

    The program is deterministic for fixed inputs, so every later output of
    the run must be byte-identical to the first one that passed the check.
    """

    def __init__(self, name: str, wl: Workload, seed: int, golden: dict):
        self.golden = golden.get(name, {})
        if wl.command == "experiment":
            expected = checks.experiment_reference(
                wl.model, wl.instances, wl.mechanisms, wl.trials, seed, golden["experiment"]
            )
            self._full = lambda text: checks.check_experiment(text, expected)
        else:
            self._full = lambda text: checks.check_pricing(text, self.golden)
        self.digest: str | None = None

    def __call__(self, data: bytes) -> tuple[str, list[str]]:
        digest = checks.sha256(data)
        if self.digest is not None:
            same = digest == self.digest
            return digest, [] if same else ["output differs from the run's first output"]
        problems = self._full(data.decode("utf-8"))
        if not problems:
            self.digest = digest
        return digest, problems


def measure(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path = WORKDIR) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result line, run record)."""
    workdir.mkdir(parents=True, exist_ok=True)
    golden = json.loads(REFERENCE.read_text(encoding="utf-8"))
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    spans_path = workdir / f"{name}.spans.jsonl"  # one per workload bounds disk use
    spans_path.unlink(missing_ok=True)
    out_path = workdir / f"out-{name}{wl.suffix}"

    run_worker({"argv": None}, workdir)  # warm-up: bytecode and file caches
    check = OutputCheck(name, wl, seed, golden)
    argv = wl.argv(seed, str(out_path))

    ops, traced_ops, absent = [], [], set()
    live = None
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        traced = trace and len(ops) % 2 == 1
        spec = {"argv": argv, "trace": traced, "run_id": f"{tag}-op{len(ops)}",
                "spans_path": str(spans_path),
                "live_trials": LIVE_TRIALS if traced and not traced_ops else 0}
        out_path.unlink(missing_ok=True)
        res = run_worker(spec, workdir)
        op = {"traced": traced, "problems": [],
              **{k: res.get(k) for k in ("import_s", "cal_before_s", "run_s", "cal_after_s", "rss_mb")}}
        if "error" in res:
            op["problems"].append(res["error"])
        elif not out_path.exists():
            op["problems"].append("no output written")
        else:
            op["sha256"], op["problems"] = check(out_path.read_bytes())
            op["scale"] = CAL_REF_S / statistics.mean([res["cal_before_s"], res["cal_after_s"]])
            op["scaled_setup_s"] = res["import_s"] * CAL_REF_S / res["cal_before_s"]
            op["scaled_run_s"] = res["run_s"] * op["scale"]
        ops.append(op)
        if traced and not op["problems"]:
            traced_ops.append({**res, "scale": op["scale"]})
            absent.update(res.get("absent", ()))
            if "live_fraction" in res:
                live = res["live_fraction"]

    failed = sum(bool(op["problems"]) for op in ops)
    good = [op for op in ops if not op["problems"]]
    untraced = [op for op in good if not op["traced"]]
    metrics: dict[str, float] = {}
    if untraced:
        run_s = statistics.median(op["scaled_run_s"] for op in untraced)
        if trace and traced_ops:
            metrics = layer_metrics(traced_ops, run_s, live, absent)
        elif not trace:
            metrics = {
                "run_s": run_s,
                "setup_s": statistics.median(op["scaled_setup_s"] for op in good),
                "peak_rss_mb": statistics.median(op["rss_mb"] for op in untraced),
                "throughput_per_s": wl.work / run_s,
            }
    units = PER_LAYER if trace else END_TO_END
    correct = failed == 0 and set(metrics) == set(units)
    line = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "argv": argv, "machine": machine_facts(),
        "reference_sha256": check.golden.get("sha256"),
        "cal_ref_s": CAL_REF_S, "ops": ops, "absent": sorted(absent),
        "spans_file": spans_path.name if trace else None,
        "result": line,
    }
    (workdir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return line, record


def layer_metrics(traced_ops: list[dict], run_s: float, live, absent: set) -> dict:
    """Per-layer medians over the traced operations, times scaled like run_s.

    A span or count whose function no longer exists reads 0 and is listed in
    the run record's ``absent``; the live fraction reads 0 when it cannot be
    sampled.
    """
    out = {}
    for key, unit in PER_LAYER.items():
        values = [
            op["layers"].get(key, 0.0) * (op["scale"] if unit == "s" else 1.0)
            for op in traced_ops
        ]
        out[key] = statistics.median(values)
    out["mechanisms.kernel.live_fraction"] = live or 0.0
    if live is None:
        absent.add("mechanisms.kernel.live_fraction")
    traced_s = [op["run_s"] * op["scale"] for op in traced_ops]
    out["trace.overhead_frac"] = statistics.median(traced_s) / run_s - 1.0
    out["trace.self_coverage"] = statistics.median(
        sum(op["layers"].get(f"{span}.self_s", 0.0) for span in TARGETS) / op["run_s"]
        for op in traced_ops
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "kselect" / "cli.py").is_file():
        print(f"error: no kselect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    line, record = measure(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    for op in record["ops"]:
        print(f"op traced={op['traced']} run_s={op['run_s']} scaled={op.get('scaled_run_s')} "
              f"sha256={op.get('sha256')} problems={op['problems']}", file=sys.stderr)
    if record["absent"]:
        print(f"absent: {', '.join(record['absent'])}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
