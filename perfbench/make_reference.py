"""Regenerate perfbench/reference.json from the program as it stands.

Usage (from the repository root): python3 perfbench/make_reference.py

Only for a declared change of output: the golden values are what the
benchmark's output checks compare against. For each pricing workload it
stores the output's SHA-256, ``alpha_star``, ``kind`` and curve prices
sampled with the program's own ``price_at``; for the experiment workloads
the benchmark setup's curve segments and its pinned prices at sigma = 0.5.
"""

import json
import sys
from pathlib import Path

import checks
import run

sys.path.insert(0, str(run.ROOT / "src"))

from kselect import cli  # noqa: E402
from kselect.cost_model import model_from_json  # noqa: E402
from kselect.pricing import build_scheme, price_at, scheme_from_json, scheme_to_json  # noqa: E402

SEEDS = (0.0, 0.1, 0.5, 0.9, 1.0)
SIGMAS = (0.5,)


def sampled_units(k: int) -> list[int]:
    picks = {1, 2, k // 4, k // 2, 3 * k // 4, k - 1, k}
    picks.update(range(1, k + 1, max(1, k // 50)))
    return sorted(u for u in picks if 1 <= u <= k)


def pricing_golden(name: str, wl: run.Workload, workdir: Path) -> dict:
    out = workdir / f"reference-{name}.json"
    if cli.main(wl.argv(0, str(out))) != 0:
        raise SystemExit(f"{name}: kselect failed")
    data = out.read_bytes()
    out.unlink()
    obj = json.loads(data)
    scheme = scheme_from_json(obj)
    k = scheme.model.k
    return {
        "sha256": checks.sha256(data),
        "alpha_star": obj["alpha_star"],
        "kind": obj["kind"],
        "k": k,
        "samples": [[u, s, price_at(scheme, u, s)] for u in sampled_units(k) for s in SEEDS],
    }


def main() -> int:
    run.WORKDIR.mkdir(exist_ok=True)
    scheme = build_scheme(model_from_json(run.BENCH_MODEL))
    k = scheme.model.k
    golden = {
        "experiment": {
            "model": run.BENCH_MODEL,
            "segments": scheme_to_json(scheme)["segments"],
            "pinned_prices": {
                repr(sigma): [price_at(scheme, i, sigma) for i in range(1, k + 1)]
                for sigma in SIGMAS
            },
        }
    }
    for name, wl in run.WORKLOADS.items():
        if wl.command == "pricing":
            golden[name] = pricing_golden(name, wl, run.WORKDIR)
    run.REFERENCE.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
