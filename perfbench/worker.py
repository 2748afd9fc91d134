"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON RESULT_PATH

Times ``import kselect.cli`` (set-up), then, when the spec holds an argv,
one ``kselect.cli.main(argv)`` call. With ``"trace": true`` the call runs
with spans installed (see spans.py) and the spans are appended to
``spans_path``. The result, a JSON object, is written to RESULT_PATH.
"""

import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def hooks(captured: list):
    """Work counts per span; the welfare hook also keeps each estimate's inputs."""

    def welfare(args, _result):
        captured.append(
            (args["target"], args["instance"], args["model"], args["master_seed"])
        )
        return args["trials"] * len(args["instance"])

    return {
        "mechanisms.expected_welfare": ("trial_arrivals", welfare),
        "mechanisms.static_prices_for_quantiles": (
            "quantiles",
            lambda args, _r: len(args["q"]),
        ),
        "pricing.prices_for_seeds": ("rows", lambda args, _r: len(args["seeds"])),
        "instances.generate": ("arrivals", lambda _args, result: len(result)),
    }


def live_fraction(captured, trials: int) -> float | None:
    """Share of arrival steps taken while a trial still has a unit unsold.

    Sampled with the public ``run_trial`` on trial indices 0..trials-1 of
    every Monte-Carlo estimate the operation made (pinned estimates run no
    kernel and are skipped); 0 when it made none. None when ``run_trial``
    no longer exists.
    """
    from kselect import mechanisms

    run_trial = getattr(mechanisms, "run_trial", None)
    if run_trial is None:
        return None
    live = total = 0
    for target, instance, model, seed in captured:
        if getattr(target, "kind", None) == "pinned":
            continue
        for t in range(trials):
            decisions = run_trial(target, instance, model, seed, t).decisions
            live += sum(d.posted_price is not None for d in decisions)
            total += len(decisions)
    return live / total if total else 0.0


def calibrate(passes: int = 3) -> float:
    """Seconds taken by a fixed mix of interpreter, NumPy and JSON work.

    The mix resembles the program's own (bytecode loops, many small NumPy
    calls, serialisation), so its time follows the speed the shared host
    gives this process at the moment. Timed next to each operation, it lets
    run.py scale the operation's times to one reference speed. The fastest
    of ``passes`` passes is returned, since interruptions only add time.
    """
    return min(_calibration_pass() for _ in range(passes))


def _calibration_pass() -> float:
    import json

    import numpy as np

    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(40000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    grid = np.linspace(0.0, 1.0, 64)
    a = (np.arange(20000.0).reshape(2000, 10) * 0.618) % 1.0
    for _ in range(40):
        b = np.exp(a * 0.3) + np.searchsorted(grid, a[:, 0])[:, None]
        a = np.clip(b - np.floor(b), 0.0, 1.0)
    rows = [{"s": x, "v": 3.0 * x} for x in a[:500, 0].tolist()]
    for _ in range(20):
        json.dumps(rows)
    return time.perf_counter() - t0


def _add_layers(result: dict, recorder, captured: list, spec: dict) -> None:
    from spans import summarize

    recorder.write(spec["spans_path"])
    layers = summarize(recorder.records)
    for key, value in recorder.counts.items():
        if key not in recorder.broken_counts:
            layers[key] = value
    result["layers"] = layers
    result["absent"] = recorder.absent + sorted(recorder.broken_counts)
    if spec.get("live_trials"):
        result["live_fraction"] = live_fraction(captured, spec["live_trials"])


def main() -> int:
    spec_text, result_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, _SRC)
    t0 = time.perf_counter()
    import kselect.cli as cli

    result = {"import_s": time.perf_counter() - t0}

    import json
    import resource

    spec = json.loads(spec_text)
    argv = spec.get("argv")
    if argv is not None:
        calibrate(1)  # the first pass pays one-time NumPy and JSON set-up
        result["cal_before_s"] = calibrate()
        recorder = None
        if spec.get("trace"):
            from spans import Recorder

            captured: list = []
            recorder = Recorder(spec["run_id"], hooks(captured))
            recorder.install()
        try:
            t0 = time.perf_counter()
            result["rc"] = cli.main(argv)
            result["run_s"] = time.perf_counter() - t0
        finally:
            if recorder is not None:
                recorder.restore()
        result["cal_after_s"] = calibrate()
        if recorder is not None:
            _add_layers(result, recorder, captured, spec)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
