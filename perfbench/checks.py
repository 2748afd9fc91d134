"""Output checks for the benchmark's workloads and the references behind them.

Pricing outputs are compared with golden values stored in reference.json
(taken from the program's own ``price_at`` when the benchmark was defined):
``alpha_star`` and sampled curve prices within PRICE_REL_TOL, plus the
structure every scheme must have (curves tile [0, 1], the price chain never
decreases, the last curve ends at U).

Experiment outputs are compared with a reference rebuilt here from the seed:
the instances are regenerated from their documented substreams, the pinned
baseline is replayed exactly from the golden prices, and the r-dynamic and
static medians are re-estimated by an independent Monte-Carlo loop. Medians
must agree within MEDIAN_Z standard errors, so a declared change of random
stream passes while a broken kernel does not.
"""

import hashlib
import json
import math

import numpy as np

PRICE_REL_TOL = 1e-9
CHAIN_END_TOL = 1e-8  # |phi_k(1) - U|; the solver stops within 1e-9 of U
RATIO_FLOOR = 1.0 - 1e-12  # every ratio opt / mean is at least 1
MEDIAN_Z = 6.0
REFERENCE_TRIALS = 4000
HEADER = "mechanism,surrogate,empirical_ratio,cumulative_fraction"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fmt(x: float) -> str:
    """The CLI's CSV number format."""
    return f"{float(x):.12g}"


class Curves:
    """Vectorized price curves read from serialized segments.

    Segments of all units are laid out in one table keyed by ``2*unit + s_lo``
    so a single ``searchsorted`` picks, for any (unit, seed), the last
    segment of that unit starting at or below the seed.
    """

    def __init__(self, segments):
        rows = [
            (u, g["s_lo"], g["s_hi"], g["v_lo"], g["v_hi"], g["cost"], g["rate"])
            for u, unit in enumerate(segments)
            for g in unit
        ]
        table = np.array(rows, dtype=float).reshape(-1, 7)
        self.k = len(segments)
        self.unit = table[:, 0].astype(np.int64)
        self.s_lo, self.s_hi, self.v_lo, self.v_hi, self.cost, self.rate = table[:, 1:].T
        self.key = 2.0 * table[:, 0] + self.s_lo

    def prices(self, units, s) -> np.ndarray:
        """Price of curve ``units`` (0-based) at seed ``s``, elementwise."""
        units = np.asarray(units)
        s = np.asarray(s, dtype=float)
        i = np.searchsorted(self.key, 2.0 * units + s, side="right") - 1
        s_lo, v_lo, v_hi = self.s_lo[i], self.v_lo[i], self.v_hi[i]
        p = self.cost[i] + (v_lo - self.cost[i]) * np.exp(self.rate[i] * (s - s_lo))
        p = np.clip(p, v_lo, v_hi)
        p = np.where(s <= s_lo, v_lo, p)
        return np.where(s >= self.s_hi[i], v_hi, p)

    def tiling_problems(self) -> list[str]:
        """Each unit's segments must start at 0, meet end to end and end at 1."""
        first = np.r_[True, self.unit[1:] != self.unit[:-1]]
        last = np.r_[first[1:], True]
        problems = []
        if len(np.unique(self.unit)) != self.k:
            problems.append("some unit has no segment")
        if np.any(self.s_lo[first] != 0.0) or np.any(self.s_hi[last] != 1.0):
            problems.append("a curve does not span seeds [0, 1]")
        inner = ~last[:-1]
        if np.any(np.abs(self.s_hi[:-1][inner] - self.s_lo[1:][inner]) > 1e-12):
            problems.append("a curve's segments do not meet end to end")
        return problems


def _close(a: float, b: float, rel: float = PRICE_REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_pricing(text: str, golden: dict) -> list[str]:
    """Problems with one ``kselect pricing`` JSON output; empty when correct."""
    try:
        obj = json.loads(text)
        alpha = float(obj["alpha_star"])
        model = obj["model"]
        L, U, k = float(model["L"]), float(model["U"]), int(model["k"])
        curves = Curves(obj["segments"])
        n_intervals = len(obj["price_intervals"])
        kind, cr = obj["kind"], float(obj["cr_guarantee"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed pricing output: {exc!r}"]
    problems = []
    if not _close(alpha, golden["alpha_star"]):
        problems.append(f"alpha_star {alpha!r} != reference {golden['alpha_star']!r}")
    if kind != golden["kind"]:
        problems.append(f"kind {kind!r} != reference {golden['kind']!r}")
    if not cr >= alpha * (1.0 - PRICE_REL_TOL):
        problems.append(f"guarantee {cr!r} is below alpha_star {alpha!r}")
    if k != golden["k"] or curves.k != k or n_intervals != k:
        return problems + [f"expected {golden['k']} curves and intervals"]
    problems += curves.tiling_problems()
    if problems:
        return problems
    units = np.arange(k)
    p0 = curves.prices(units, np.zeros(k))
    p1 = curves.prices(units, np.ones(k))
    if np.any(p1[:-1] > p0[1:]) or np.any(p0 > p1):
        problems.append("price chain decreases")
    if p0.min() < L or p1.max() > U + CHAIN_END_TOL or abs(p1[-1] - U) > CHAIN_END_TOL:
        problems.append(f"prices leave [L, U] or the last curve does not end at U={U}")
    sample = np.array(golden["samples"], dtype=float)
    got = curves.prices(sample[:, 0].astype(np.int64) - 1, sample[:, 1])
    bad = np.abs(got - sample[:, 2]) > PRICE_REL_TOL * np.maximum(1.0, np.abs(sample[:, 2]))
    if np.any(bad):
        unit, s, want = sample[np.argmax(bad)]
        problems.append(
            f"{int(bad.sum())} sampled prices differ, e.g. unit {int(unit)} at "
            f"seed {s}: {got[np.argmax(bad)]!r} != reference {want!r}"
        )
    return problems


# ---------------------------------------------------------------------------
# experiment


def marginals(model: dict) -> list[float]:
    """c_i = a * (2i - 1) for the quadratic cost f(i) = a * i^2."""
    a = float(model["cost"]["coeff"])
    return [a * (2 * i - 1) for i in range(1, int(model["k"]) + 1)]


def cumulative(ms: list[float]) -> list[float]:
    acc, out = 0.0, [0.0]
    for c in ms:
        acc += c
        out.append(acc)
    return out


def regenerate_instance(model: dict, spec: dict, seed: int, index: int) -> list[float]:
    """Arrivals of instance ``index``: spawn key (0, index) under ``seed``.

    Normal(mu, sdev) draws kept inside [L, U] by rejection, in batches of
    max(2 * missing, 64), sorted ascending for kind "sorted".
    """
    L, U = float(model["L"]), float(model["U"])
    n = int(spec.get("n", 1000))
    mu, sdev = float(spec.get("mu", 15.0)), float(spec.get("sdev", 15.0))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, index)))
    out: list[float] = []
    while len(out) < n:
        draws = rng.normal(mu, sdev, size=max(2 * (n - len(out)), 64))
        kept = draws[(draws >= L) & (draws <= U)]
        out.extend(float(v) for v in kept[: n - len(out)])
    return sorted(out) if spec["kind"] == "sorted" else out


def offline_opt(vals: list[float], cum: list[float]) -> float:
    best, acc = 0.0, 0.0
    for j, v in enumerate(sorted(vals, reverse=True)[: len(cum) - 1], start=1):
        acc += v
        best = max(best, acc - cum[j])
    return best


def posted_price_welfare(prices: list[float], vals: list[float], cum: list[float]) -> float:
    """One pass of the sequential mechanism with fixed prices."""
    sold, sum_v = 0, 0.0
    for v in vals:
        if sold < len(prices) and v >= prices[sold]:
            sum_v += v
            sold += 1
    return sum_v - cum[sold]


def _ratio(opt: float, mean: float) -> float:
    if mean > 0.0:
        return opt / mean
    return math.inf if opt > 0.0 else 1.0


def mc_welfares(P: np.ndarray, vals: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Welfare of each row of prices P (trials, k): unit j sells to the first
    arrival after unit j-1's sale whose value reaches P[:, j]."""
    trials, k = P.shape
    n = len(vals)
    steps = np.arange(n)
    last = np.full(trials, -1)
    sold = np.zeros(trials, dtype=np.int64)
    sum_v = np.zeros(trials)
    for j in range(k):
        ok = (vals[None, :] >= P[:, j, None]) & (steps[None, :] > last[:, None])
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)
        sum_v += np.where(hit, vals[first], 0.0)
        last = np.where(hit, first, n)
        sold += hit
    return sum_v - cum[sold]


def parse_mechanisms(raw: str) -> list[tuple[str, str, float | None]]:
    """(output name, kind, sigma) for each entry of a --mechanisms list."""
    out = []
    for item in raw.split(","):
        kind, _, rest = item.strip().partition(":")
        if kind == "pinned":
            sigma = float(rest) if rest else 0.5
            out.append((f"d-dynamic-surrogate(sigma={sigma:g})", kind, sigma))
        elif kind == "static":
            out.append(("r-static-surrogate", kind, None))
        else:
            out.append(("r-dynamic", kind, None))
    return out


def experiment_reference(model: dict, spec: dict, mechanisms: str, trials: int,
                         seed: int, golden: dict) -> dict:
    """What a correct ``kselect experiment`` output must show for this seed."""
    k = int(model["k"])
    cum = cumulative(marginals(model))
    cum_arr = np.array(cum)
    curves = Curves(golden["segments"])
    count = int(spec["count"])
    expected = {"count": count, "mechanisms": [], "pinned": {}, "medians": {}}
    instances = [regenerate_instance(model, spec, seed, i) for i in range(count)]
    opts = [offline_opt(vals, cum) for vals in instances]
    for m, (name, kind, sigma) in enumerate(parse_mechanisms(mechanisms)):
        expected["mechanisms"].append([name, "false" if kind == "r-dynamic" else "true"])
        if kind == "pinned":
            prices = golden["pinned_prices"][repr(sigma)]
            ratios = [
                _ratio(opt, posted_price_welfare(prices, vals, cum))
                for vals, opt in zip(instances, opts)
            ]
            expected["pinned"][name] = [fmt(r) for r in sorted(ratios)]
            continue
        ratios, spreads = [], []
        for i, (vals, opt) in enumerate(zip(instances, opts)):
            rng = np.random.default_rng([seed, i, m, 0x5EED])
            if kind == "static":
                q = rng.random(REFERENCE_TRIALS) * k
                unit = np.minimum(q.astype(np.int64), k - 1)
                P = np.repeat(curves.prices(unit, q - unit)[:, None], k, axis=1)
            else:
                P = curves.prices(np.arange(k), rng.random((REFERENCE_TRIALS, k)))
            w = mc_welfares(P, np.array(vals), cum_arr)
            ratio = _ratio(opt, float(w.mean()))
            ratios.append(ratio)
            spreads.append(ratio * float(w.std(ddof=1)) / max(float(w.mean()), 1e-300))
        se = max(spreads) * math.sqrt(1.0 / REFERENCE_TRIALS + 1.0 / trials)
        expected["medians"][name] = [float(np.median(ratios)), MEDIAN_Z * se]
    return expected


def check_experiment(text: str, expected: dict) -> list[str]:
    """Problems with one ``kselect experiment`` CSV output; empty when correct."""
    lines = text.split("\n")
    if lines[0] != HEADER or lines[-1] != "":
        return ["missing CSV header or final newline"]
    blocks: dict[str, list[list[str]]] = {}
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != 4:
            return [f"malformed row {line!r}"]
        blocks.setdefault(fields[0], []).append(fields[1:])
    want_names = [name for name, _ in expected["mechanisms"]]
    if list(blocks) != want_names:
        return [f"mechanisms {list(blocks)} != expected {want_names}"]
    count = expected["count"]
    problems = []
    for name, flag in expected["mechanisms"]:
        rows = blocks[name]
        if len(rows) != count:
            problems.append(f"{name}: {len(rows)} rows, expected {count}")
            continue
        try:
            ratios = [float(r[1]) for r in rows]
        except ValueError:
            problems.append(f"{name}: a ratio is not a number")
            continue
        if any(r[0] != flag for r in rows):
            problems.append(f"{name}: surrogate flag is not {flag}")
        if [r[2] for r in rows] != [fmt(pos / count) for pos in range(1, count + 1)]:
            problems.append(f"{name}: cumulative_fraction is not pos/count")
        if min(ratios) < RATIO_FLOOR or ratios != sorted(ratios):
            problems.append(f"{name}: ratios below 1 or not ascending")
        if name in expected["pinned"] and [r[1] for r in rows] != expected["pinned"][name]:
            problems.append(f"{name}: pinned rows differ from the replayed reference")
        if name in expected["medians"]:
            ref, tol = expected["medians"][name]
            got = float(np.median(ratios))
            if not abs(got - ref) <= tol:
                problems.append(
                    f"{name}: median ratio {got:.6f} is {abs(got - ref):.6f} from "
                    f"reference {ref:.6f} (tolerance {tol:.6f})"
                )
    return problems
