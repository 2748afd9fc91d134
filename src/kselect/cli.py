"""Command line front end.

Subcommands:

* solve       bound value and interval chain for a setup, as JSON
* pricing     price curves for a setup, as JSON (or sampled CSV)
* instances   arrival-sequence files (hard staircase or truncated normals)
* simulate    one mechanism on one instance: trace or Monte-Carlo estimate
* experiment  empirical-ratio CDF data across generated instances, as CSV
* curves      guarantee-versus-capacity sweep for a cost family, as CSV

The command line is the subcommand, then ``--name VALUE`` pairs: each name
is an option of that subcommand in the table ``COMMANDS``, spelt in full,
and the token after it is its value. ``-h`` or ``--help`` prints the usage
and the options. Any other command line is invalid input.

Every subcommand accepts ``--config FILE`` holding a JSON object whose keys
name options of that subcommand and provide their defaults; explicit flags
override the file, and a key that names no option is invalid input. Relative
``--out`` paths resolve under $KSELECT_OUTPUT_DIR when it is set. Exit codes:
0 success, 2 invalid input, 3 solver non-convergence.

``experiment`` lays the trial rows of all its estimates end to end and
splits them evenly among the CPUs in the process's affinity mask, in
forked workers; its output matches a one-CPU run byte for byte.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
from collections.abc import Iterator
from itertools import accumulate, chain
from types import SimpleNamespace

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
from .lower_bound import DEFAULT_TOL, chain_residual, solve_alpha_star, threshold
from .mechanisms import (
    MAX_TRIAL_CELLS,
    Mechanism,
    expected_welfare,
    instance_rng,
    instance_sim_seed,
    offline_opt,
    ratio_to_opt,
    run_posted_price,
    seed_rng,
    trial_welfares,
)
from .pricing import Curves, build_scheme, prices_for_seeds, scheme_json_chunks

OUTPUT_DIR_ENV = "KSELECT_OUTPUT_DIR"
# Largest `pricing --samples` table, in (samples + 1) * k cells.
MAX_SAMPLE_CELLS = 10**7
# Most units one `curves` run solves, its capacities summed.
MAX_CURVE_UNITS = 10**7
# Most instances one `experiment` run generates and estimates.
MAX_INSTANCES = 10**6
# Most bytes of a model file: MAX_K explicit marginals at 64 bytes each,
# room for the longest float text (24 characters), a separator and an
# indent. A config file may add --prices or --pin-seeds, k numbers.
MAX_MODEL_FILE_BYTES = 64 * MAX_K
MAX_CONFIG_FILE_BYTES = 2 * MAX_MODEL_FILE_BYTES
# Rows one `experiment` run draws (each estimate's trials, one for pinned,
# summed over instances and mechanisms) from which it shares them among
# worker processes, each taking at least half as many; smaller runs stay in
# this process. On a 2-core x86_64 VM, with the benchmark model (k = 10,
# 1000 arrivals), a row sells in about 5 us and a forked worker costs 5-6 ms:
# two CPUs lost 1-6 ms at 60-5000 rows, broke even near 6000 and saved
# 10-12 ms at 8000-10^4 (perfbench's experiments, 2*10^4 and 3*10^4 rows,
# ran 0.12 and 0.18 s against 0.16 and 0.26 s on one CPU).
PARALLEL_MIN_ROWS = 2000
# A solve interval and a trace decision as array items, each field's place in
# the order json.dumps writes the keys
_INTERVAL_ITEM = jsontext.layout(dict.fromkeys(("ell", "i", "u"), jsontext.FIELD), 2)
_DECISION_ITEM = jsontext.layout(dict.fromkeys(("accepted", "posted_price"), jsontext.FIELD), 2)


# ---------------------------------------------------------------------------
# small coercion and output helpers


def _fmt(x: float) -> str:
    """CSV number format: 12 significant digits."""
    return f"{float(x):.12g}"


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


def _read_json_file(path: str, what: str, max_bytes: int):
    """Parse a UTF-8 JSON file of at most ``max_bytes`` bytes; a larger file,
    undecodable bytes or bad JSON are invalid input."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # a pipe's size reads 0, so the read stops one byte past the ceiling
        data = fh.read(max_bytes + 1) if size <= max_bytes else b""
    if max(size, len(data)) > max_bytes:
        raise ValidationError(f"{what} {path} exceeds the ceiling of {max_bytes} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {path} is not UTF-8 text: {exc}") from None
    del data  # the parse holds the text only
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None


def _json_object(what: str, value, file_bytes: int = 0) -> dict:
    """A JSON object given as inline text or, from --config, as an object.
    With ``file_bytes``, text that is not JSON may name a file of at most
    that many bytes holding it."""
    if isinstance(value, str):
        text = value.strip()
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            if not (file_bytes and os.path.isfile(text)):
                nor_file = " nor a file" if file_bytes else ""
                raise ValidationError(f"{what} is not valid JSON{nor_file}: {exc}") from None
            value = _read_json_file(text, f"{what} file", file_bytes)
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return value


def _load_model(args) -> CostModel:
    """Model from --model (inline JSON or a file path) or a config object."""
    if args.model is None:
        raise ValidationError(
            "no model given: pass --model JSON (or a path) or set 'model' in --config"
        )
    return model_from_json(_json_object("model spec", args.model, MAX_MODEL_FILE_BYTES))


# ---------------------------------------------------------------------------
# solve / pricing


def _solution_json_chunks(model: CostModel, sol) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)`` for the
    solve payload: alpha_star, k_underbar, xi, the model's regime, notes and one
    ``{"i", "ell", "u"}`` object per interval, streamed like the pricing
    JSON (see jsontext). Interval j runs from chain end j to end j + 1, so
    each end is formatted once."""
    ku, n = sol.k_underbar, len(sol.ends) - 1
    text = jsontext.number_texts(np.frombuffer(sol.ends))

    def fields(a: int, b: int) -> list:
        ends = text(a, b + 1)
        return list(chain.from_iterable(zip(ends[:-1], range(ku + a, ku + b), ends[1:])))

    template = jsontext.layout(
        {
            "alpha_star": sol.alpha,
            "intervals": jsontext.SECTION,
            "k_underbar": ku,
            "notes": sol.notes,
            "regime": model.regime,
            "xi": sol.xi,
        }
    )
    return jsontext.document(template, [jsontext.array_chunks([_INTERVAL_ITEM] * n, 1, fields)])


def cmd_solve(args) -> int:
    model = _load_model(args)
    sol = solve_alpha_star(model)
    # the chain ends at U, yet an end too near its unit's cost to resolve
    # can miss that unit's equation; pricing refuses the same chain
    residual = chain_residual(sol, model)
    if not residual <= DEFAULT_TOL:
        raise SolverError(
            f"no solution: the chain misses its equations by {residual:.3e} of alpha, "
            f"over the tolerance {DEFAULT_TOL:g}"
        )
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


def _build_instance(model: CostModel, spec: dict, rng: np.random.Generator | None) -> Instance:
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
    seed = as_int("seed", args.seed, minimum=0)
    # the hard family draws nothing, so it gets no generator
    rng = None if spec.get("kind") == "hard" else seed_rng(seed)
    _emit(instance_text(_build_instance(model, spec, rng)), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _mechanism(scheme, spec) -> tuple[str, Mechanism]:
    """The label and mechanism of a ``kind[:sigma]`` spec, or of a config
    object ``{"kind": ..., "sigma": ...}``; pinned posts the scheme's prices
    at seed sigma, 0.5 when omitted, as flat curves. Only pinned takes
    sigma; a sigma on any other kind is invalid input."""
    if isinstance(spec, dict):
        kind, has_sigma = spec.get("kind"), "sigma" in spec
        sigma = spec.get("sigma", 0.5)
    else:
        kind, sep, rest = str(spec).partition(":")
        has_sigma, sigma = bool(sep), rest if sep else 0.5
    if kind == "pinned":
        sigma = as_float("sigma", sigma)
        if not 0.0 <= sigma <= 1.0:
            raise ValidationError(f"sigma {sigma} outside [0, 1]")
        prices = prices_for_seeds(scheme, np.full((1, scheme.model.k), sigma))[0]
        return f"d-dynamic-surrogate(sigma={sigma:g})", Mechanism(Curves.flat(scheme.model, prices))
    if kind not in ("r-dynamic", "static"):
        raise ValidationError(f"unknown mechanism {kind!r}: expected r-dynamic, pinned or static")
    if has_sigma:
        raise ValidationError(f"mechanism {spec!r}: only pinned takes a sigma")
    static = kind == "static"
    return ("r-static-surrogate" if static else "r-dynamic"), Mechanism(scheme, static=static)


def _trace_chunks(outcome, prices: list, seeds: list) -> Iterator[str]:
    """The text of ``json.dumps(trace, indent=2, sort_keys=True)`` for one
    posted-price run: the outcome's fields, its prices and seeds, and one
    ``{"accepted", "posted_price"}`` object per arrival, streamed like the
    pricing JSON (see jsontext). Posted prices are finite or None."""
    trace = {**vars(outcome), "decisions": jsontext.SECTION, "prices": prices, "seeds": seeds}

    def fields(a: int, b: int) -> Iterator[str]:
        for d in outcome.decisions[a:b]:
            yield "true" if d.accepted else "false"
            yield "null" if d.posted_price is None else repr(d.posted_price)

    items = jsontext.array_chunks([_DECISION_ITEM] * len(outcome.decisions), 1, fields)
    return jsontext.document(jsontext.layout(trace), [items])


def cmd_simulate(args) -> int:
    if args.prices is not None and args.pin_seeds is not None:
        raise ValidationError("--prices and --pin-seeds exclude each other: give one")
    # a trace posts the given prices, or the curves' at the given seeds: it draws no trial
    trace = "prices" if args.prices is not None else "pin-seeds"
    values = args.prices if args.prices is not None else args.pin_seeds
    if values is not None:
        for name in ("mechanism", "trials", "seed"):
            if name in args.given:
                raise ValidationError(f"--{name} does nothing beside --{trace}: drop it")
    model = _load_model(args)
    if args.instance is None:
        raise ValidationError("no instance given: pass --instance FILE")
    instance = read_instance(_path("instance", args.instance))
    scheme = None if args.prices is not None else build_scheme(model)  # --prices builds none

    if values is not None:
        values = [as_float(trace, p) for p in _items(trace, values)]
        if len(values) != model.k:
            what = trace.removeprefix("pin-")
            raise ValidationError(f"expected {model.k} {what}, got {len(values)}")
        seeds = values if trace == "pin-seeds" else []
        prices = prices_for_seeds(scheme, [seeds])[0].tolist() if seeds else values
        out = run_posted_price(prices, instance, model)
        _emit(chain(_trace_chunks(out, prices, seeds), ("\n",)), args.out)
        return 0

    label, mech = _mechanism(scheme, args.mechanism)
    est = expected_welfare(
        mech, instance, model, as_int("trials", args.trials),
        as_int("seed", args.seed, minimum=0),
    )
    opt, opt_units = offline_opt(instance, model)
    payload = {
        "mechanism": label,
        "surrogate": label != "r-dynamic",
        "trials": est.trials,
        "mean_welfare": est.mean,
        "std_error": est.std_error,
        "opt": opt,
        "opt_units": opt_units,
        "ratio_to_opt": ratio_to_opt(opt, est.mean),
    }
    _emit(jsontext.layout(payload) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# experiment


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the platform has none."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def _outcome(fn, w: int) -> tuple:
    """(fn(w), None), or (None, the exception fn(w) raised)."""
    try:
        return fn(w), None
    except Exception as exc:
        return None, exc


def _shared_map(fn, workers: int) -> list:
    """[fn(w) for w in range(workers)], each call in its own worker.

    This process is worker 0 and forks the others, which pickle their
    result, or the exception they raised, back through a pipe. A call whose
    worker cannot be started runs here. The lowest failing worker's
    exception is raised. Every child is reaped before this returns or
    raises, killed first if it is still running.
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
                        pickle.dump(_outcome(fn, w), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            children.append((w, pid, r))
        forked = {w for w, _, _ in children}
        outcomes = {w: _outcome(fn, w) for w in range(workers) if w not in forked}
        for w, pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            reaped.add(pid)
            if status != 0 or not data:
                raise ChildProcessError(
                    f"experiment worker {pid} ended without its results (wait status {status})"
                )
            outcomes[w] = pickle.loads(data)
    finally:
        for _, pid, r in children:
            os.close(r)
            if pid not in reaped:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    for w in range(workers):
        if outcomes[w][1] is not None:
            raise outcomes[w][1]
    return [outcomes[w][0] for w in range(workers)]


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
    labels, mechs = zip(*[_mechanism(scheme, spec) for spec in specs])

    # estimate (idx, m) draws rows idx * per + ends[m] up to idx * per +
    # ends[m + 1] of the run's total; worker w sells rows w * total // workers
    # up to (w + 1) * total // workers
    rows = [mech.rows(trials) for mech in mechs]
    ends = list(accumulate(rows, initial=0))
    per = ends[-1]
    total = count * per

    def sell(w: int) -> list[tuple]:
        """(idx, m, opt, value) for each estimate with rows in worker w's
        range, in row order: value is the estimate's mean when the range
        holds all its rows, else its welfares on the rows it holds."""
        lo, hi = w * total // workers, (w + 1) * total // workers
        out = []
        for idx in range(lo // per, -(-hi // per)):
            try:
                inst = _build_instance(model, inst_spec, instance_rng(master_seed, idx))
                seed = instance_sim_seed(master_seed, idx)
                opt, _ = offline_opt(inst, model)
                for m, mech in enumerate(mechs):
                    a, b = idx * per + ends[m], idx * per + ends[m + 1]
                    if lo <= a and b <= hi:
                        value = expected_welfare(mech, inst, model, trials, seed).mean
                    elif max(a, lo) < min(b, hi):
                        cut = slice(max(a, lo) - a, min(b, hi) - a)
                        value = trial_welfares(mech, inst, model, trials, seed, cut)
                    else:
                        continue
                    out.append((idx, m, opt, value))
            except (ValidationError, SolverError) as exc:
                raise type(exc)(f"instance {idx}: {exc}") from exc
        return out

    # a worker draws one estimate's cells at a time, so all of them hold at
    # most MAX_TRIAL_CELLS, and sells at least PARALLEL_MIN_ROWS / 2 rows; a
    # fork while other threads run could copy a lock one of them holds
    workers = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        cells = max(rows) * model.k
        fill = total // max(1, PARALLEL_MIN_ROWS // 2)
        workers = max(1, min(_cpus(), MAX_TRIAL_CELLS // cells, fill))
    opts = [0.0] * count
    means = [[0.0] * count for _ in mechs]
    parts: dict[tuple, list] = {}  # welfares of each estimate split between workers
    for idx, m, opt, value in chain.from_iterable(_shared_map(sell, workers)):
        opts[idx] = opt
        if isinstance(value, float):
            means[m][idx] = value
        else:
            parts.setdefault((idx, m), []).append(value)
    for (idx, m), slices in parts.items():
        means[m][idx] = float(np.concatenate(slices).mean())
    ratios = [[ratio_to_opt(opt, mean) for opt, mean in zip(opts, col)] for col in means]

    lines = ["mechanism,surrogate,empirical_ratio,cumulative_fraction"]
    for m, label in enumerate(labels):
        flag = "false" if label == "r-dynamic" else "true"
        ordered = sorted(zip(ratios[m], range(count)))
        for pos, (ratio, _) in enumerate(ordered, start=1):
            lines.append(f"{label},{flag},{_fmt(ratio)},{_fmt(pos / count)}")
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
# command line


# Options as name -> (default, help), spelt --name VALUE on the command line
# and name in a config file. Every subcommand takes the shared ones, and
# all but curves take --model too.
_SHARED = {
    "config": (None, "JSON file of defaults for this subcommand's options"),
    "out": (None, "output path (stdout when omitted)"),
}
_MODEL = _SHARED | {"model": (None, "model JSON, inline or a file path")}
# subcommand -> (its function, its summary, its options)
COMMANDS = {
    "solve": (cmd_solve, "bound value and interval chain", _MODEL),
    "pricing": (cmd_pricing, "price curves as JSON or CSV", _MODEL | {
        "samples": (0, "emit CSV sampling each curve at this many steps instead of JSON"),
    }),
    "instances": (cmd_instances, "write an arrival sequence", _MODEL | {
        "spec": ('{"kind": "iid"}', "instance spec JSON: kind and its distribution parameters"),
        "seed": (0, "generation seed"),
    }),
    "simulate": (cmd_simulate, "run one mechanism on one instance", _MODEL | {
        "instance": (None, "instance file to replay"),
        "mechanism": (
            "r-dynamic", "r-dynamic, static or pinned; pinned takes an optional :sigma suffix"
        ),
        "trials": (2000, "Monte-Carlo trials"),
        "seed": (0, "master seed keying the trial stream"),
        "pin-seeds": (None, "comma seeds; one deterministic trace"),
        "prices": (None, "comma prices; bypass the scheme entirely"),
    }),
    "experiment": (cmd_experiment, "empirical-ratio CDF data", _MODEL | {
        "instances": (
            '{"kind": "iid", "count": 300}',
            "instance spec JSON: kind, count and distribution parameters",
        ),
        "mechanisms": (
            "r-dynamic,pinned:0.5,static", "comma list; pinned takes an optional :sigma suffix"
        ),
        "trials": (2000, "Monte-Carlo trials per instance"),
        "master-seed": (0, "seed for all substreams"),
    }),
    "curves": (cmd_curves, "guarantee sweep over capacities", _SHARED | {
        "k-min": (2, "smallest capacity"),
        "k-max": (40, "largest capacity"),
        "l": (1.0, "lowest valuation"),
        "u": (10.0, "highest valuation"),
        "cost-coeff": (1.0 / 59.0, "a in the cumulative cost a*i^2"),
    }),
}
_HELP = ("-h", "--help")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: kselect {{{','.join(COMMANDS)}}} [--OPTION VALUE ...]"
    flags = (f"[--{name} {name.upper()}]" for name in COMMANDS[command][2])
    return " ".join(("usage: kselect", command, "[-h]", *flags))


def _help(command: str | None) -> str:
    """The usage line, then each subcommand's summary, or each option of
    ``command`` with its help and default."""
    if command is None:
        body = [
            "solver, pricing and simulation toolkit for capacitated posted-price selling",
            "with non-decreasing marginal costs",
            "",
            "subcommands:",
        ]
        body += [f"  {name:<12}{summary}" for name, (_, summary, _) in COMMANDS.items()]
        body += ["", "kselect SUBCOMMAND --help lists the options of SUBCOMMAND."]
    else:
        body = [COMMANDS[command][1], "", "options:", "  -h, --help", "      print this help"]
        for name, (default, text) in COMMANDS[command][2].items():
            shown = "" if default is None else f" (default: {default})"
            body += [f"  --{name} {name.upper()}", f"      {text}{shown}"]
    return "\n".join([_usage(command), "", *body]) + "\n"


def _parse(argv: list[str]) -> tuple[str, dict] | None:
    """The subcommand ``argv`` names and the values its flags give, by
    option name; None when it asks for help, which is printed. Each flag is
    an exact option name followed by its value, which is the next token
    whatever it holds, so ``--seed -1`` gives the seed -1."""
    if argv and argv[0] in _HELP:
        sys.stdout.write(_help(None))
        return None
    if not argv or argv[0] not in COMMANDS:
        what = f"unknown subcommand {argv[0]!r}" if argv else "no subcommand given"
        raise ValidationError(f"{what}: expected one of {', '.join(COMMANDS)}\n{_usage(None)}")
    command, tokens = argv[0], iter(argv[1:])
    options, flags = COMMANDS[command][2], {}
    for token in tokens:
        if token in _HELP:
            sys.stdout.write(_help(command))
            return None
        if not token.startswith("--") or token[2:] not in options:
            raise ValidationError(f"unknown option {token!r}\n{_usage(command)}")
        value = next(tokens, None)
        if value is None:
            raise ValidationError(f"option {token} needs a value\n{_usage(command)}")
        flags[token[2:]] = value
    return command, flags


def _config_defaults(command: str, path: str) -> dict:
    """Defaults from the ``--config`` file: a JSON object whose keys, with
    dashes or underscores, name options of the chosen subcommand."""
    cfg = _read_json_file(path, "config file", MAX_CONFIG_FILE_BYTES)
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    options = COMMANDS[command][2].keys() - {"config"}
    defaults = {}
    for key, value in cfg.items():
        name = key.replace("_", "-")
        if name not in options:
            raise ValidationError(f"config key {key!r} is not an option of {command}")
        defaults[name] = value
    return defaults


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        parsed = _parse(argv)
        if parsed is None:
            return 0
        command, flags = parsed
        run, _, options = COMMANDS[command]
        given = flags
        if "config" in flags:
            given = _config_defaults(command, flags["config"]) | flags
        values = {name: default for name, (default, _) in options.items()} | given
        # the command learns which options were given, as flags or from
        # --config, so it can refuse one its mode ignores
        args = {name.replace("-", "_"): value for name, value in values.items()}
        return run(SimpleNamespace(**args, given=given.keys()))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
