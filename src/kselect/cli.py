"""Command line front end.

Subcommands:

* solve       bound value and interval chain for a setup, as JSON
* pricing     price curves for a setup, as JSON (or sampled CSV)
* instances   arrival-sequence files (hard staircase or truncated normals)
* simulate    one mechanism on one instance: trace or Monte-Carlo estimate
* experiment  empirical-ratio CDF data across generated instances, as CSV
* curves      guarantee-versus-capacity sweep for a cost family, as CSV

Every subcommand accepts ``--config FILE`` holding a JSON object whose keys
name options of that subcommand and provide their defaults; explicit flags
override the file, and a key that names no option is invalid input. Relative
``--out`` paths resolve under $KSELECT_OUTPUT_DIR when it is set. Exit codes:
0 success, 2 invalid input, 3 solver non-convergence.

``experiment`` evaluates its instances on the CPUs in the process's
affinity mask, in forked workers, and its output matches a one-CPU run
byte for byte.
"""

import argparse
import json
import os
import pickle
import sys
import threading
from collections.abc import Iterator
from itertools import chain

import numpy as np

from . import jsontext
from .cost_model import MAX_K, CostModel, as_float, as_int, make_cost_model, model_from_json
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
from .lower_bound import solve_alpha_star, threshold
from .mechanisms import (
    MAX_TRIAL_CELLS,
    Mechanism,
    expected_welfare,
    instance_rng,
    instance_sim_seed,
    offline_opt,
    ratio_to_opt,
    run_posted_price,
)
from .pricing import build_scheme, prices_for_seeds, scheme_from_json, scheme_json_chunks

OUTPUT_DIR_ENV = "KSELECT_OUTPUT_DIR"
# Largest `pricing --samples` table, in (samples + 1) * k cells.
MAX_SAMPLE_CELLS = 10**7
# Most units one `curves` run solves, its capacities summed.
MAX_CURVE_UNITS = 10**7
# Most instances one `experiment` run generates and estimates.
MAX_INSTANCES = 10**6
# Rows one `experiment` run draws (each estimate's trials, one for pinned,
# summed over instances and mechanisms) from which its instances are shared
# among worker processes; smaller runs stay in this process. On a 2-core
# x86_64 VM, with the benchmark model (k = 10, 1000 arrivals), a forked
# worker cost 3-5 ms over evaluating its instance here; at 2000-2400 rows
# (about 20 ms in one process) two CPUs saved 2-3 ms, and at 60 rows they
# lost 4 ms.
PARALLEL_MIN_ROWS = 2000


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


def _path(name: str, value) -> str:
    """A file path option's value; from --config it must be a string too."""
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a path, got {value!r}")
    return value


def _emit(text, out: str | None) -> None:
    """Write ``text``, one string or an iterable of string parts written in
    turn, to stdout or to the file ``out``."""
    parts = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(parts)
        return
    # a renamed temp file would replace a symlink, not its target
    path = os.path.realpath(_resolve_out(_path("out", out)))
    if os.path.exists(path) and not os.path.isfile(path):
        # a FIFO or a device cannot be renamed over: write into it
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        return
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    # write beside the target, then rename over it: a failed write leaves
    # any existing file whole
    tmp = os.path.join(parent, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _items(name: str, value) -> list:
    """Items of a comma list (command line) or of a JSON array (config)."""
    if isinstance(value, str):
        return [p.strip() for p in value.split(",") if p.strip()]
    if isinstance(value, list):
        return value
    raise ValidationError(f"{name} must be a comma list or JSON array")


def _read_json_file(path: str, what: str):
    """Parse a UTF-8 JSON file; undecodable bytes or bad JSON are invalid input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None


def _json_object(what: str, value, path_ok: bool = False) -> dict:
    """A JSON object given as inline text or, from --config, as an object.
    With ``path_ok``, text that is not JSON may name a file holding it."""
    if isinstance(value, str):
        text = value.strip()
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            if not (path_ok and os.path.isfile(text)):
                nor_file = " nor a file" if path_ok else ""
                raise ValidationError(f"{what} is not valid JSON{nor_file}: {exc}") from None
            value = _read_json_file(text, f"{what} file")
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return value


def _load_model(args) -> CostModel:
    """Model from --model (inline JSON or a file path) or a config object."""
    if args.model is None:
        raise ValidationError(
            "no model given: pass --model JSON (or a path) or set 'model' in --config"
        )
    return model_from_json(_json_object("model spec", args.model, path_ok=True))


# ---------------------------------------------------------------------------
# solve / pricing


def _solution_json_chunks(model: CostModel, sol) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)`` for the
    solve payload: alpha_star, k_underbar, xi, the model's regime, notes and one
    ``{"i", "ell", "u"}`` object per interval, streamed like the pricing
    JSON (see jsontext). Interval j runs from chain end j to end j + 1, so
    each end is formatted once."""
    ku, n = sol.k_underbar, len(sol.ends) - 1
    texts, at = jsontext.number_texts(np.frombuffer(sol.ends))

    def fields(a: int, b: int) -> list:
        ends = texts[at[a : b + 1]]
        return list(chain.from_iterable(zip(ends[:-1], range(ku + a, ku + b), ends[1:])))

    num = json.dumps
    template = jsontext.obj(
        [
            ("alpha_star", num(sol.alpha)),
            ("intervals", jsontext.SECTION),
            ("k_underbar", num(ku)),
            ("notes", jsontext.block("[]", list(map(num, sol.notes)), 1)),
            ("regime", num(model.regime)),
            ("xi", num(sol.xi)),
        ],
        0,
    )
    interval = jsontext.obj([("ell", "%s"), ("i", "%s"), ("u", "%s")], 2)
    return jsontext.document(template, [jsontext.array_chunks([interval] * n, 1, fields)])


def cmd_solve(args) -> int:
    model = _load_model(args)
    sol = solve_alpha_star(model)
    _emit(chain(_solution_json_chunks(model, sol), ("\n",)), args.out)
    return 0


def _sample_rows(scheme, samples: int):
    """CSV text of every curve at seeds j / samples, yielded one unit at a
    time so that only one unit's rows are held as text at once."""
    k = scheme.model.k
    grid = np.arange(samples + 1) / samples
    table = prices_for_seeds(scheme, np.broadcast_to(grid[:, None], (samples + 1, k)))
    s_text = [_fmt(s) for s in grid.tolist()]
    yield "unit,s,phi\n"
    for i in range(1, k + 1):
        phis = table[:, i - 1].tolist()
        yield "".join([f"{i},{s},{_fmt(phi)}\n" for s, phi in zip(s_text, phis)])


def cmd_pricing(args) -> int:
    model = _load_model(args)
    samples = as_int("samples", args.samples, minimum=0)
    if (samples + 1) * model.k > MAX_SAMPLE_CELLS:
        raise ValidationError(
            f"(samples + 1) * k = {(samples + 1) * model.k} curve points "
            f"exceeds the ceiling of {MAX_SAMPLE_CELLS}"
        )
    scheme = build_scheme(model)
    if samples > 0:
        _emit(_sample_rows(scheme, samples), args.out)
    else:
        _emit(chain(scheme_json_chunks(scheme), ("\n",)), args.out)
    return 0


# ---------------------------------------------------------------------------
# instances


# The keys an instance spec of each kind reads, in the generator's argument
# order, with their defaults: an int default makes the key an integer, and a
# hard spec's terminal stage defaults to the model's U.
_SPEC_DEFAULTS = {
    "hard": {"eps": 0.01, "terminal": None},
    "iid": {"n": 1000, "mu": 15.0, "sdev": 15.0},
    "sorted": {"n": 1000, "mu": 15.0, "sdev": 15.0},
    "low2high": {"n1": 500, "mu1": 7.5, "sdev1": 7.5, "n2": 500, "mu2": 22.5, "sdev2": 7.5},
}
_GENERATORS = {"iid": gen_iid, "sorted": gen_sorted, "low2high": gen_low2high}


def _build_instance(model: CostModel, spec: dict, rng: np.random.Generator) -> Instance:
    kind = spec.get("kind")
    defaults = _SPEC_DEFAULTS.get(kind) if isinstance(kind, str) else None
    if defaults is None:
        raise ValidationError(
            f"unknown instance kind {kind!r}: expected hard, iid, sorted or low2high"
        )
    for key in spec:
        if key != "kind" and key not in defaults:
            raise ValidationError(f"instance spec key {key!r} is not read by kind {kind!r}")
    params = []
    for key, default in defaults.items():
        value = spec.get(key, model.U if default is None else default)
        params.append(as_int(key, value) if isinstance(default, int) else as_float(key, value))
    if kind == "hard":
        return hard_instance(model, *params)
    return _GENERATORS[kind](model, *params, rng)


def cmd_instances(args) -> int:
    model = _load_model(args)
    spec = _json_object("instance spec", args.spec)
    rng = np.random.default_rng(as_int("seed", args.seed, minimum=0))
    _emit(instance_text(_build_instance(model, spec, rng)), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _mechanism(scheme, spec) -> Mechanism:
    """Mechanism of a ``kind[:sigma]`` spec, or of a config object
    ``{"kind": ..., "sigma": ...}``. Only pinned takes sigma, 0.5 when
    omitted; a sigma on any other kind is invalid input."""
    if isinstance(spec, dict):
        kind, has_sigma = spec.get("kind"), "sigma" in spec
        sigma = spec.get("sigma", 0.5)
    else:
        kind, sep, rest = str(spec).partition(":")
        has_sigma, sigma = bool(sep), rest if sep else 0.5
    if has_sigma and kind != "pinned":
        Mechanism(scheme, kind)  # an unknown kind is the error to report
        raise ValidationError(f"mechanism {spec!r}: only pinned takes a sigma")
    return Mechanism(scheme, kind, as_float("sigma", sigma))


def _outcome_json(outcome, prices, seeds) -> dict:
    return {
        "prices": prices,
        "seeds": seeds,
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
        scheme = scheme_from_json(_read_json_file(_path("scheme", args.scheme), "scheme file"))
        model = scheme.model
        if args.model is not None and _load_model(args) != model:
            raise ValidationError("--model disagrees with the model stored in --scheme")
    else:
        model = _load_model(args)
    if args.instance is None:
        raise ValidationError("no instance given: pass --instance FILE")
    instance = read_instance(_path("instance", args.instance))

    if args.prices is not None:
        prices = [as_float("prices", p) for p in _items("prices", args.prices)]
        if len(prices) != model.k:
            raise ValidationError(f"expected {model.k} prices, got {len(prices)}")
        out = run_posted_price(prices, instance, model)
        _emit(_json_text(_outcome_json(out, prices, [])), args.out)
        return 0

    if scheme is None:
        scheme = build_scheme(model)

    if args.pin_seeds is not None:
        seeds = [as_float("pin-seeds", p) for p in _items("pin-seeds", args.pin_seeds)]
        if len(seeds) != model.k:
            raise ValidationError(f"expected {model.k} seeds, got {len(seeds)}")
        prices = prices_for_seeds(scheme, np.array([seeds]))[0].tolist()
        out = run_posted_price(prices, instance, model)
        _emit(_json_text(_outcome_json(out, prices, seeds)), args.out)
        return 0

    mech = _mechanism(scheme, args.mechanism)
    est = expected_welfare(
        mech, instance, model, as_int("trials", args.trials),
        as_int("seed", args.seed, minimum=0),
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
        "ratio_to_opt": ratio_to_opt(opt, est.mean),
    }
    _emit(_json_text(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# experiment


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the platform has none."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def _share(fn, first: int, count: int, step: int) -> tuple[list, tuple | None]:
    """fn(i) for i = first, first + step, ... below count, stopping at the
    first that raises: the results so far and (i, exception), or None."""
    done = []
    for i in range(first, count, step):
        try:
            done.append(fn(i))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _shared_map(fn, count: int, workers: int) -> list:
    """[fn(i) for i in range(count)], index i evaluated by worker i % workers.

    This process is worker 0 and forks the others, which pickle their share
    back through a pipe. A worker that cannot be started has its share
    evaluated here. The exception of the lowest failing index is raised, as
    the serial loop would raise it. Every child is reaped before this
    returns or raises, killed first if it is still running.
    """
    children = []  # (worker, pid, read end)
    reaped = set()
    try:
        for w in range(1, workers):
            try:
                r, wr = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                break
            if pid == 0:  # the child: never return into the caller's stack
                code = 1
                try:
                    os.close(r)
                    with open(wr, "wb") as fh:
                        pickle.dump(_share(fn, w, count, workers), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            children.append((w, pid, r))
        forked = {w for w, _, _ in children}
        shares = {w: _share(fn, w, count, workers) for w in range(workers) if w not in forked}
        for w, pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            reaped.add(pid)
            if status != 0 or not data:
                raise ChildProcessError(
                    f"experiment worker {pid} ended without its results (wait status {status})"
                )
            shares[w] = pickle.loads(data)
    finally:
        for _, pid, r in children:
            os.close(r)
            if pid not in reaped:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    out: list = [None] * count
    failures = []
    for w, (done, failure) in shares.items():
        out[w : w + workers * len(done) : workers] = done
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return out


def cmd_experiment(args) -> int:
    model = _load_model(args)
    inst_spec = dict(_json_object("instance spec", args.instances))
    count = as_int("count", inst_spec.pop("count", 300), minimum=1)
    if count > MAX_INSTANCES:
        raise ValidationError(f"count = {count} exceeds the ceiling of {MAX_INSTANCES}")
    trials = as_int("trials", args.trials, minimum=1)
    master_seed = as_int("master-seed", args.master_seed, minimum=0)
    specs = _items("mechanisms", args.mechanisms)
    if not specs:
        raise ValidationError("no mechanisms requested")

    scheme = build_scheme(model)
    mechs = [_mechanism(scheme, spec) for spec in specs]

    def instance_ratios(idx: int) -> list[float]:
        try:
            inst = _build_instance(model, inst_spec, instance_rng(master_seed, idx))
            seed = instance_sim_seed(master_seed, idx)
            opt, _ = offline_opt(inst, model)
            return [
                ratio_to_opt(opt, expected_welfare(mech, inst, model, trials, seed).mean)
                for mech in mechs
            ]
        except (ValidationError, SolverError) as exc:
            raise type(exc)(f"instance {idx}: {exc}") from exc

    # instances are independent, so they may run on every CPU this process
    # may use, with at most MAX_TRIAL_CELLS cells drawn per CPU at once; a
    # fork while other threads run could copy a lock one of them holds
    rows = [mech.rows(trials) for mech in mechs]
    workers = 1
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    if forkable and count * sum(rows) >= PARALLEL_MIN_ROWS:
        workers = max(1, min(_cpus(), count, MAX_TRIAL_CELLS // (max(rows) * model.k)))
    ratios = list(zip(*_shared_map(instance_ratios, count, workers)))

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
    k_min = as_int("k-min", args.k_min)
    k_max = as_int("k-max", args.k_max)
    if k_min < 1 or k_max < k_min:
        raise ValidationError(f"need 1 <= k-min <= k-max, got {k_min}..{k_max}")
    if k_max > MAX_K:
        raise ValidationError(f"k-max = {k_max} exceeds the ceiling of {MAX_K}")
    units = (k_min + k_max) * (k_max - k_min + 1) // 2  # each row solves k units
    if units > MAX_CURVE_UNITS:
        raise ValidationError(
            f"capacities {k_min}..{k_max} sum to {units}, over the ceiling of {MAX_CURVE_UNITS}"
        )
    L, U = as_float("L", args.l), as_float("U", args.u)
    coeff = as_float("cost-coeff", args.cost_coeff)
    # L, U and the coefficient are checked once, at k = 1, where no marginal
    # overflows, and so is c_1 = coeff < L, which holds at every k or at
    # none; the rows skip only what depends on k
    threshold(make_cost_model(L, U, 1, quadratic_coeff=coeff), 1.0)
    lines = ["k,alpha_star,cr_guarantee,regime"]
    emitted = 0
    for k in range(k_min, k_max + 1):
        try:
            model = make_cost_model(L, U, k, quadratic_coeff=coeff)
            scheme = build_scheme(model)
        except (ValidationError, SolverError) as exc:
            print(f"k={k}: {exc}", file=sys.stderr)
            continue
        lines.append(
            f"{k},{_fmt(scheme.alpha_star)},{_fmt(scheme.cr_guarantee)},{model.regime}"
        )
        emitted += 1
    if emitted == 0:
        raise SolverError(f"no solvable capacity in {k_min}..{k_max}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line (an unknown flag, a missing or invalid
    value) as invalid input: ``error: ...`` on stderr and exit 2, through
    the same handler as every other input check."""

    def error(self, message):
        raise ValidationError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON file of defaults for this subcommand's options")
    shared.add_argument("--out", help="output path (stdout when omitted)")

    model_opts = argparse.ArgumentParser(add_help=False)
    model_opts.add_argument("--model", help="model JSON, inline or a file path")

    parser = _Parser(
        prog="kselect",
        description="solver, pricing and simulation toolkit for capacitated "
        "posted-price selling with non-decreasing marginal costs",
    )
    subs_action = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    p = subs["solve"] = subs_action.add_parser(
        "solve", parents=[shared, model_opts], help="bound value and interval chain"
    )
    p.set_defaults(func=cmd_solve)

    p = subs["pricing"] = subs_action.add_parser(
        "pricing", parents=[shared, model_opts], help="price curves as JSON or CSV"
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
    p.add_argument(
        "--spec",
        default='{"kind": "iid"}',
        help="instance spec JSON: kind and its distribution parameters",
    )
    p.add_argument("--seed", default=0, help="generation seed")
    p.set_defaults(func=cmd_instances)

    p = subs["simulate"] = subs_action.add_parser(
        "simulate", parents=[shared, model_opts], help="run one mechanism on one instance"
    )
    p.add_argument("--instance", help="instance file to replay")
    p.add_argument("--scheme", help="scheme JSON from the pricing subcommand")
    p.add_argument(
        "--mechanism",
        default="r-dynamic",
        help="r-dynamic, static or pinned; pinned takes an optional :sigma suffix",
    )
    p.add_argument("--trials", default=2000, help="Monte-Carlo trials")
    p.add_argument("--seed", default=0, help="master seed keying the trial stream")
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
    p.set_defaults(func=cmd_curves)

    return parser, subs


def _config_defaults(args) -> dict:
    """Defaults from the ``--config`` file: a JSON object whose keys, with
    dashes or underscores, name options of the chosen subcommand."""
    cfg = _read_json_file(args.config, "config file")
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    options = vars(args).keys() - {"command", "func", "config"}
    defaults = {}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in options:
            raise ValidationError(f"config key {key!r} is not an option of {args.command}")
        defaults[dest] = value
    return defaults


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subs = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            subs[args.command].set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2


if __name__ == "__main__":
    sys.exit(main())
