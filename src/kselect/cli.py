"""Command line front end.

Subcommands:

* solve       bound value and interval chain for a setup, as JSON
* pricing     price curves for a setup, as JSON (or sampled CSV)
* instances   arrival-sequence files (hard staircase or truncated normals)
* simulate    one mechanism on one instance: trace or Monte-Carlo estimate
* experiment  empirical-ratio CDF data across generated instances, as CSV
* curves      guarantee-versus-capacity sweep for a cost family, as CSV

Every subcommand accepts ``--config FILE`` holding a JSON object whose keys
provide argument defaults; explicit flags override the file. Relative
``--out`` paths resolve under $KSELECT_OUTPUT_DIR when it is set. Exit codes:
0 success, 2 invalid input, 3 solver non-convergence.
"""

import argparse
import json
import os
import sys

import numpy as np

from .cost_model import CostModel, as_float, make_cost_model, model_from_json
from .errors import SolverError, ValidationError
from .instances import (
    Instance,
    gen_iid,
    gen_low2high,
    gen_sorted,
    hard_instance,
    instance_text,
    read_instance,
)
from .lower_bound import DEFAULT_TOL, solve_alpha_star, solve_alpha_star_general
from .mechanisms import (
    Mechanism,
    expected_welfare,
    make_pinned_deterministic,
    make_static_random,
    offline_opt,
    run_posted_price,
)
from .pricing import (
    PriceVector,
    build_pricing_scheme,
    build_pricing_scheme_general,
    build_pricing_scheme_k2,
    build_scheme,
    price_at,
    scheme_from_json,
    scheme_to_json,
)

OUTPUT_DIR_ENV = "KSELECT_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# small coercion and output helpers


def _fmt(x: float) -> str:
    """CSV number format: 12 significant digits."""
    return f"{float(x):.12g}"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = _resolve_out(out)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _as_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if isinstance(value, (float, str)) and float(value) != out:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return out


def _float_list(name: str, value) -> list[float]:
    """Accept a comma string from the command line or a list from a config."""
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = value
    else:
        raise ValidationError(f"{name} must be a comma list or JSON array")
    return [as_float(name, p) for p in parts]


def _load_model(args) -> CostModel:
    """Model from --model (inline JSON or a file path) or a config dict."""
    spec = getattr(args, "model", None)
    if spec is None:
        raise ValidationError(
            "no model given: pass --model JSON (or a path) or set 'model' in --config"
        )
    if isinstance(spec, dict):
        return model_from_json(spec)
    text = str(spec).strip()
    if not text.startswith("{"):
        with open(text, encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model spec is not valid JSON: {exc}") from None
    return model_from_json(obj)


# ---------------------------------------------------------------------------
# solve / pricing


def _solve_auto(model: CostModel, tol: float):
    solver = solve_alpha_star if model.high_value else solve_alpha_star_general
    return solver(model, tol)


_SOLVERS = {
    "auto": _solve_auto,
    "high_value": solve_alpha_star,
    "general": solve_alpha_star_general,
}


def cmd_solve(args) -> int:
    model = _load_model(args)
    sol = _SOLVERS[args.regime](model, as_float("tol", args.tol))
    payload = {
        "alpha_star": sol.alpha,
        "k_underbar": sol.k_underbar,
        "xi": sol.xi,
        "regime": sol.regime,
        "intervals": [
            {"i": sol.k_underbar + j, "ell": lo, "u": hi}
            for j, (lo, hi) in enumerate(sol.intervals)
        ],
        "notes": list(sol.notes),
    }
    _emit(_json_text(payload), args.out)
    return 0


_BUILDERS = {
    "auto": build_scheme,
    "high_value": build_pricing_scheme,
    "two_unit": build_pricing_scheme_k2,
    "general": build_pricing_scheme_general,
}


def cmd_pricing(args) -> int:
    model = _load_model(args)
    scheme = _BUILDERS[args.builder](model, as_float("tol", args.tol))
    samples = _as_int("samples", args.samples)
    if samples < 0:
        raise ValidationError(f"samples must be >= 0, got {samples}")
    if samples > 0:
        lines = ["unit,s,phi"]
        for i in range(1, model.k + 1):
            for j in range(samples + 1):
                s = j / samples
                lines.append(f"{i},{_fmt(s)},{_fmt(price_at(scheme, i, s))}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text(scheme_to_json(scheme)), args.out)
    return 0


# ---------------------------------------------------------------------------
# instances


def _spawned_rng(master_seed: int, lane: int, index: int) -> np.random.Generator:
    """Independent substream addressed by (lane, index) under one master seed."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(lane, index))
    )


def _sim_seed(master_seed: int, index: int) -> int:
    """Per-instance simulation seed, decoupled from the generation stream."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(1, index))
    return int(ss.generate_state(1, np.uint64)[0])


def _build_instance(model: CostModel, spec: dict, rng: np.random.Generator) -> Instance:
    kind = spec.get("kind")
    if kind == "hard":
        eps = as_float("eps", spec.get("eps", 0.01))
        terminal = as_float("terminal", spec.get("terminal", model.U))
        return hard_instance(model, eps, terminal)
    if kind in ("iid", "sorted"):
        n = _as_int("n", spec.get("n", 1000))
        mu = as_float("mu", spec.get("mu", 15.0))
        sdev = as_float("sdev", spec.get("sdev", 15.0))
        gen = gen_iid if kind == "iid" else gen_sorted
        return gen(model, n, mu, sdev, rng)
    if kind == "low2high":
        return gen_low2high(
            model,
            _as_int("n1", spec.get("n1", 500)),
            as_float("mu1", spec.get("mu1", 7.5)),
            as_float("sdev1", spec.get("sdev1", 7.5)),
            _as_int("n2", spec.get("n2", 500)),
            as_float("mu2", spec.get("mu2", 22.5)),
            as_float("sdev2", spec.get("sdev2", 7.5)),
            rng,
        )
    raise ValidationError(
        f"unknown instance kind {kind!r}: expected hard, iid, sorted or low2high"
    )


def cmd_instances(args) -> int:
    model = _load_model(args)
    spec = {
        "kind": args.kind,
        "eps": args.eps,
        "terminal": args.terminal if args.terminal is not None else model.U,
        "n": args.count,
        "mu": args.mu,
        "sdev": args.sdev,
        "n1": args.n1,
        "mu1": args.mu1,
        "sdev1": args.sdev1,
        "n2": args.n2,
        "mu2": args.mu2,
        "sdev2": args.sdev2,
    }
    rng = np.random.default_rng(_as_int("seed", args.seed))
    inst = _build_instance(model, spec, rng)
    _emit(instance_text(inst), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _make_mechanism(scheme, kind: str, sigma) -> Mechanism:
    if kind == "r-dynamic":
        return Mechanism(name="r-dynamic", kind="r-dynamic", scheme=scheme, surrogate=False)
    if kind == "pinned":
        return make_pinned_deterministic(scheme, as_float("sigma", sigma))
    if kind == "static":
        return make_static_random(scheme)
    raise ValidationError(
        f"unknown mechanism {kind!r}: expected r-dynamic, pinned or static"
    )


def _outcome_json(outcome, prices, seeds) -> dict:
    return {
        "prices": list(prices),
        "seeds": list(seeds),
        "decisions": [
            {"posted_price": d.posted_price, "accepted": d.accepted}
            for d in outcome.decisions
        ],
        "units_sold": outcome.units_sold,
        "welfare": outcome.welfare,
        "revenue": outcome.revenue,
    }


def cmd_simulate(args) -> int:
    scheme = None
    if args.scheme is not None:
        with open(args.scheme, encoding="utf-8") as fh:
            scheme = scheme_from_json(json.load(fh))
        model = scheme.model
        if getattr(args, "model", None) is not None and _load_model(args) != model:
            raise ValidationError("--model disagrees with the model stored in --scheme")
    else:
        model = _load_model(args)
    instance = read_instance(args.instance)

    if args.prices is not None:
        prices = _float_list("prices", args.prices)
        if len(prices) != model.k:
            raise ValidationError(f"expected {model.k} prices, got {len(prices)}")
        pv = PriceVector(prices=tuple(prices), seeds=())
        out = run_posted_price(pv, instance, model)
        _emit(_json_text(_outcome_json(out, pv.prices, pv.seeds)), args.out)
        return 0

    if scheme is None:
        scheme = build_scheme(model, as_float("tol", args.tol))

    if args.pin_seeds is not None:
        seeds = _float_list("pin-seeds", args.pin_seeds)
        if len(seeds) != model.k:
            raise ValidationError(f"expected {model.k} seeds, got {len(seeds)}")
        for s in seeds:
            if not 0.0 <= s <= 1.0:
                raise ValidationError(f"seed {s} outside [0, 1]")
        prices = tuple(price_at(scheme, i, seeds[i - 1]) for i in range(1, model.k + 1))
        pv = PriceVector(prices=prices, seeds=tuple(seeds))
        out = run_posted_price(pv, instance, model)
        _emit(_json_text(_outcome_json(out, pv.prices, pv.seeds)), args.out)
        return 0

    mech = _make_mechanism(scheme, args.mechanism, args.sigma)
    est = expected_welfare(
        mech, instance, model, _as_int("trials", args.trials), _as_int("seed", args.seed)
    )
    opt, opt_units = offline_opt(instance, model)
    payload = {
        "mechanism": mech.name,
        "surrogate": mech.surrogate,
        "trials": est.trials,
        "mean_welfare": est.mean,
        "std_error": est.std_error,
        "opt": opt,
        "opt_units": opt_units,
        "ratio_to_opt": est.ratio_to_opt,
    }
    _emit(_json_text(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# experiment


def _parse_mechanism_specs(raw) -> list[tuple[str, float]]:
    """Normalize 'r-dynamic,pinned:0.5,static' or a JSON list of specs."""
    if isinstance(raw, str):
        items = [p.strip() for p in raw.split(",") if p.strip()]
    elif isinstance(raw, (list, tuple)):
        items = list(raw)
    else:
        raise ValidationError("mechanisms must be a comma list or JSON array")
    if not items:
        raise ValidationError("no mechanisms requested")
    out = []
    for item in items:
        if isinstance(item, dict):
            kind = item.get("kind")
            sigma = as_float("sigma", item.get("sigma", 0.5))
        else:
            kind, _, rest = str(item).partition(":")
            sigma = as_float("sigma", rest) if rest else 0.5
        if kind not in ("r-dynamic", "pinned", "static"):
            raise ValidationError(
                f"unknown mechanism {kind!r}: expected r-dynamic, pinned or static"
            )
        out.append((kind, sigma))
    return out


def cmd_experiment(args) -> int:
    model = _load_model(args)
    inst_spec = args.instances
    if isinstance(inst_spec, str):
        try:
            inst_spec = json.loads(inst_spec)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"instance spec is not valid JSON: {exc}") from None
    if not isinstance(inst_spec, dict):
        raise ValidationError("instance spec must be a JSON object")
    count = _as_int("count", inst_spec.get("count", 300))
    trials = _as_int("trials", args.trials)
    master_seed = _as_int("master-seed", args.master_seed)
    if count < 1:
        raise ValidationError(f"instance count must be >= 1, got {count}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")

    scheme = build_scheme(model, as_float("tol", args.tol))
    mechs = [
        _make_mechanism(scheme, kind, sigma)
        for kind, sigma in _parse_mechanism_specs(args.mechanisms)
    ]

    ratios: list[list[float]] = [[] for _ in mechs]
    for idx in range(count):
        try:
            inst = _build_instance(model, inst_spec, _spawned_rng(master_seed, 0, idx))
            seed = _sim_seed(master_seed, idx)
            for m, mech in enumerate(mechs):
                est = expected_welfare(mech, inst, model, trials, seed)
                ratios[m].append(est.ratio_to_opt)
        except (ValidationError, SolverError) as exc:
            raise type(exc)(f"instance {idx}: {exc}") from exc

    lines = ["mechanism,surrogate,empirical_ratio,cumulative_fraction"]
    for m, mech in enumerate(mechs):
        flag = "true" if mech.surrogate else "false"
        ordered = sorted(zip(ratios[m], range(count)))
        for pos, (ratio, _) in enumerate(ordered, start=1):
            lines.append(f"{mech.name},{flag},{_fmt(ratio)},{_fmt(pos / count)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# curves


def cmd_curves(args) -> int:
    k_min = _as_int("k-min", args.k_min)
    k_max = _as_int("k-max", args.k_max)
    if k_min < 1 or k_max < k_min:
        raise ValidationError(f"need 1 <= k-min <= k-max, got {k_min}..{k_max}")
    tol = as_float("tol", args.tol)
    lines = ["k,alpha_star,cr_guarantee,regime"]
    emitted = 0
    for k in range(k_min, k_max + 1):
        try:
            model = make_cost_model(
                as_float("L", args.l), as_float("U", args.u), k,
                quadratic_coeff=as_float("cost-coeff", args.cost_coeff),
            )
            scheme = build_scheme(model, tol)
        except (ValidationError, SolverError) as exc:
            print(f"k={k}: {exc}", file=sys.stderr)
            continue
        regime = "high_value" if model.high_value else "general"
        lines.append(f"{k},{_fmt(scheme.alpha_star)},{_fmt(scheme.cr_guarantee)},{regime}")
        emitted += 1
    if emitted == 0:
        raise SolverError(f"no solvable capacity in {k_min}..{k_max}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON file of argument defaults")
    shared.add_argument("--out", help="output path (stdout when omitted)")

    model_opts = argparse.ArgumentParser(add_help=False)
    model_opts.add_argument("--model", help="model JSON, inline or a file path")
    model_opts.add_argument("--tol", default=DEFAULT_TOL, help="solver tolerance")

    parser = argparse.ArgumentParser(
        prog="kselect",
        description="solver, pricing and simulation toolkit for capacitated "
        "posted-price selling with non-decreasing marginal costs",
    )
    parser.add_argument("--config", help="JSON file of argument defaults")
    subs_action = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    p = subs["solve"] = subs_action.add_parser(
        "solve", parents=[shared, model_opts], help="bound value and interval chain"
    )
    p.add_argument(
        "--regime",
        choices=tuple(_SOLVERS),
        default="auto",
        help="check the setup against a regime and label the output with it "
        "(auto picks by the c_k < L test)",
    )
    p.set_defaults(func=cmd_solve)

    p = subs["pricing"] = subs_action.add_parser(
        "pricing", parents=[shared, model_opts], help="price curves as JSON or CSV"
    )
    p.add_argument(
        "--builder",
        choices=tuple(_BUILDERS),
        default="auto",
        help="curve construction (auto picks the strongest applicable)",
    )
    p.add_argument(
        "--samples",
        default=0,
        help="emit CSV sampling each curve at this many steps instead of JSON",
    )
    p.set_defaults(func=cmd_pricing)

    p = subs["instances"] = subs_action.add_parser(
        "instances", parents=[shared, model_opts], help="write an arrival sequence"
    )
    p.add_argument("--kind", choices=("hard", "iid", "sorted", "low2high"), default="iid")
    p.add_argument("--seed", default=0, help="generation seed")
    p.add_argument("--eps", default=0.01, help="hard: stage increment")
    p.add_argument("--terminal", default=None, help="hard: last stage (default U)")
    p.add_argument("--count", default=1000, help="iid/sorted: number of arrivals")
    p.add_argument("--mu", default=15.0, help="iid/sorted: normal mean")
    p.add_argument("--sdev", default=15.0, help="iid/sorted: normal deviation")
    p.add_argument("--n1", default=500, help="low2high: first block size")
    p.add_argument("--mu1", default=7.5, help="low2high: first block mean")
    p.add_argument("--sdev1", default=7.5, help="low2high: first block deviation")
    p.add_argument("--n2", default=500, help="low2high: second block size")
    p.add_argument("--mu2", default=22.5, help="low2high: second block mean")
    p.add_argument("--sdev2", default=7.5, help="low2high: second block deviation")
    p.set_defaults(func=cmd_instances)

    p = subs["simulate"] = subs_action.add_parser(
        "simulate", parents=[shared, model_opts], help="run one mechanism on one instance"
    )
    p.add_argument("--instance", required=True, help="instance file to replay")
    p.add_argument("--scheme", help="scheme JSON from the pricing subcommand")
    p.add_argument(
        "--mechanism", choices=("r-dynamic", "pinned", "static"), default="r-dynamic"
    )
    p.add_argument("--sigma", default=0.5, help="pinned: fixed seed in [0, 1]")
    p.add_argument("--trials", default=2000, help="Monte-Carlo trials")
    p.add_argument("--seed", default=0, help="master seed for trial substreams")
    p.add_argument("--pin-seeds", help="comma seeds; one deterministic trace")
    p.add_argument("--prices", help="comma prices; bypass the scheme entirely")
    p.set_defaults(func=cmd_simulate)

    p = subs["experiment"] = subs_action.add_parser(
        "experiment", parents=[shared, model_opts], help="empirical-ratio CDF data"
    )
    p.add_argument(
        "--instances",
        default='{"kind": "iid", "count": 300}',
        help="instance spec JSON: kind, count and distribution parameters",
    )
    p.add_argument(
        "--mechanisms",
        default="r-dynamic,pinned:0.5,static",
        help="comma list; pinned takes an optional :sigma suffix",
    )
    p.add_argument("--trials", default=2000, help="Monte-Carlo trials per instance")
    p.add_argument("--master-seed", default=0, help="seed for all substreams")
    p.set_defaults(func=cmd_experiment)

    p = subs["curves"] = subs_action.add_parser(
        "curves", parents=[shared], help="guarantee sweep over capacities"
    )
    p.add_argument("--k-min", default=2)
    p.add_argument("--k-max", default=40)
    p.add_argument("--l", default=1.0, help="lowest valuation")
    p.add_argument("--u", default=10.0, help="highest valuation")
    p.add_argument(
        "--cost-coeff", default=1.0 / 59.0, help="a in the cumulative cost a*i^2"
    )
    p.add_argument("--tol", default=DEFAULT_TOL, help="solver tolerance")
    p.set_defaults(func=cmd_curves)

    return parser, subs


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subs = build_parser()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    try:
        if known.config is not None:
            with open(known.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
            if not isinstance(cfg, dict):
                raise ValidationError("config file must hold a JSON object")
            sub_name = next((a for a in rest if not a.startswith("-")), None)
            target = subs.get(sub_name, parser)
            keys = {str(k).replace("-", "_"): v for k, v in cfg.items()}
            keys.pop("func", None)
            keys.pop("command", None)
            target.set_defaults(**keys)
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2


if __name__ == "__main__":
    sys.exit(main())
