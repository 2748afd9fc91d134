"""Posted-price mechanism execution, welfare estimation, offline optimum.

The sequential mechanism posts the price of the next unsold unit to each
arriving buyer; a buyer purchases iff utility v - p is non-negative (accept
at exact equality). Expected welfare is estimated over independent trials.
Each master seed keys one counter-based Philox stream, and trial t reads
row t of it: the k words from counter block t * ceil(k / 4), four words
per block. Any trial is addressable without drawing the others, so results
are reproducible and independent of the order trials are drawn in.
numpy.random is loaded at the first draw, not on import: the seed
sequence type that hands Philox its key is made then, and annotations are
never evaluated, so a command that draws nothing never loads it.

A Mechanism is price curves, drawn seed by seed or, static, as one price
for every unit; a price vector is flat curves (pricing.Curves.flat). One
function, _price_matrix, draws the prices of any set of trials, and fixed
curves draw nothing: trial_welfares sells any range of its rows,
expected_welfare averages its ``rows(trials)`` rows (one for fixed curves),
and run_trial replays one row through run_posted_price.
Its prices are lookups in the pricing layer's flat curve table, through
prices_for_seeds and static_prices_for_quantiles; the layout stays there.

One function, _welfares, sells: it builds an implicit max-tree over the
arrivals once per call and, for each unit in turn, moves every live trial
straight to the first later arrival whose valuation reaches the unit's
price, in O(log n) vector steps. A trial costs k such jumps, never a step
per arrival, and the tree holds about 2n floats. run_posted_price is its
one-row run, with the trace rebuilt from the sale positions.

Two documented baseline surrogates accompany the randomized mechanism:
a deterministic variant, flat curves of the prices at one seed, and a
static-random variant that draws a single price from the aggregate price
distribution and posts it to everyone. Both are labeled as surrogates in
every output (cli._mechanism); they stand in for external baseline
designs whose exact constructions are not reproduced here.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .cost_model import CostModel
from .errors import ValidationError
from .instances import Instance
from .pricing import Curves, price_vector, prices_for_seeds, static_prices_for_quantiles


@dataclass(frozen=True)
class BuyerDecision:
    posted_price: float | None  # None once all units are sold
    accepted: bool


@dataclass(frozen=True)
class RunOutcome:
    decisions: tuple[BuyerDecision, ...]
    units_sold: int
    welfare: float
    revenue: float


@dataclass(frozen=True)
class WelfareEstimate:
    """std_error is the sample standard error of per-trial welfare. It
    understates the error when a rare outcome is never drawn: on an i.i.d.
    instance of the acceptance tests it reads 2.8e-15 at 400 trials while
    the mean is 0.0059 off the exact expected welfare."""

    mean: float
    std_error: float
    trials: int


# Most cells (rows drawn times k) one estimate may draw, checked before any
# draw; fixed curves draw one row whatever the trials. An estimate holds its
# seeds, prices and sale positions for every cell at once, 20-50 bytes a
# cell (more at small k), so this caps it near 0.5 GB; the largest the
# tests and benchmark workloads ask for is 2 * 10**5 cells.
MAX_TRIAL_CELLS = 10**7


@dataclass(frozen=True)
class Mechanism:
    """Price curves and the way their prices are drawn: each trial draws
    every unit's seed uniformly and posts the curves' prices (the same at
    every seed for fixed curves), or with ``static`` posts one draw from the
    aggregate price distribution to every buyer, a single-price surrogate."""

    curves: Curves
    static: bool = field(default=False, kw_only=True)

    def rows(self, trials: int) -> int:
        """Rows an estimate of ``trials`` trials sells: one for fixed curves, not static."""
        return 1 if self.curves.fixed and not self.static else trials


def _checked(target, model: CostModel) -> Mechanism:
    """target, which must be a Mechanism whose curves were built for model."""
    if not isinstance(target, Mechanism):
        raise ValidationError(f"expected a Mechanism, got {type(target)!r}")
    if target.curves.model != model:
        raise ValidationError("the mechanism's curves were built for another model")
    return target


def run_posted_price(
    prices: Sequence[float], instance: Instance, model: CostModel
) -> RunOutcome:
    """Execute one pass of the sequential mechanism over the arrivals, traced.

    The sales come from the Monte-Carlo kernel's one-row run; the trace is
    rebuilt from the sale positions: unit j + 1 is posted to every arrival
    after unit j's sale up to and including its own. ``prices`` must be k
    finite numbers (pricing.price_vector).
    """
    p = price_vector(model, prices)
    prices = p.tolist()
    _check_valuations(instance, model)
    welfare, pos = _welfares(p[None], instance, model)
    n = len(instance)
    sales = [t for t in pos[0].tolist() if t < n]
    decisions: list[BuyerDecision] = []
    for p, t in zip(prices, sales):
        decisions += [BuyerDecision(posted_price=p, accepted=False)] * (t - len(decisions))
        decisions.append(BuyerDecision(posted_price=p, accepted=True))
    units = len(sales)
    unsold = prices[units] if units < model.k else None
    decisions += [BuyerDecision(posted_price=unsold, accepted=False)] * (n - len(decisions))
    sum_p = 0.0
    for p in prices[:units]:
        sum_p += p
    return RunOutcome(
        decisions=tuple(decisions),
        units_sold=units,
        welfare=float(welfare[0]),
        revenue=sum_p - model.cumulative[units],
    )


def _check_valuations(instance: Instance, model: CostModel) -> None:
    """Every valuation finite and in [L, U], or an error naming the first
    that is not."""
    v = np.frombuffer(instance.valuations)
    bad = ~(np.isfinite(v) & (v >= model.L) & (v <= model.U))
    if bad.any():
        t = int(bad.argmax())
        raise ValidationError(
            f"arrival {t + 1}: valuation {instance.valuations[t]} "
            f"outside [{model.L}, {model.U}]"
        )


def offline_opt(instance: Instance, model: CostModel) -> tuple[float, int]:
    """Best achievable welfare with full foresight, and its unit count.

    Serving the j highest-valued buyers dominates any other choice of j
    buyers, so the search is over j alone; ties resolve to the smallest j,
    and j = 0 (welfare 0) wins unless some j earns more. One NumPy pass:
    welfare[j] is the sum of the j highest valuations, added highest first,
    less f(j).
    """
    top = np.sort(np.frombuffer(instance.valuations))[::-1][: model.k]
    welfare = np.cumsum(np.append(0.0, top)) - np.frombuffer(model.cumulative)[: len(top) + 1]
    j = int(np.argmax(welfare))
    return float(welfare[j]), j


def ratio_to_opt(opt: float, mean: float) -> float:
    """Empirical competitive ratio opt / mean: inf when mean <= 0 < opt, and
    1 when neither the optimum nor the mechanism earns anything."""
    if mean > 0.0:
        return opt / mean
    return math.inf if opt > 0.0 else 1.0


# ---------------------------------------------------------------------------
# seed streams


@functools.cache
def _key_type() -> type:
    """The seed sequence type that hands Philox a fixed key, the two uint64
    words it asks for, so building a trial's generator neither hashes a seed
    nor draws OS entropy. Made on first use, as its base class lives in
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint64):
            return self.key

    return PhiloxKey


@functools.lru_cache(maxsize=16)
def _philox_key(master_seed: int):
    key = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    key.flags.writeable = False
    return _key_type()(key)


def trial_rng(master_seed: int, trial_index: int, k: int) -> np.random.Generator:
    """Generator of trial trial_index's k uniforms: row trial_index of the
    Philox stream keyed by SeedSequence(master_seed).generate_state(2, uint64).

    Rows are ceil(k / 4) counter blocks of four 64-bit words; the row starts
    at block trial_index * ceil(k / 4), and random(k) maps its first k words
    w to (w >> 11) * 2**-53. One random_raw draw of the whole stream,
    reshaped to rows of 4 * ceil(k / 4) words, gives every row bit for bit.
    """
    counter = trial_index * -(-k // 4)
    if 0 <= counter < 1 << 64:
        # the same counter as four uint64 words, which Philox takes without
        # its slower int conversion; a plain list [c, 0, 0, 0] can pass
        # through float near 2**64 and start another stream
        words = np.zeros(4, np.uint64)
        words[0] = counter
        counter = words
    return np.random.Generator(np.random.Philox(_philox_key(master_seed), counter=counter))


def instance_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generation stream of experiment instance ``index``: spawn key (0, index)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(0, index)))


def instance_sim_seed(master_seed: int, index: int) -> int:
    """Simulation seed of experiment instance ``index``: spawn key (1, index)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(1, index))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# price draws


def _price_matrix(mech: Mechanism, trial_indices, master_seed: int) -> np.ndarray:
    """Posted prices, (n, k); row r depends only on trial_indices[r]."""
    curves, k = mech.curves, mech.curves.model.k
    if mech.static:
        qs = np.array([trial_rng(master_seed, t, k).random() for t in trial_indices])
        return np.repeat(static_prices_for_quantiles(curves, qs)[:, None], k, axis=1)
    seeds = np.zeros((len(trial_indices), k))
    if not curves.fixed:
        for t, row in zip(trial_indices, seeds):
            trial_rng(master_seed, t, k).random(out=row)
    return prices_for_seeds(curves, seeds)


# ---------------------------------------------------------------------------
# Monte-Carlo welfare estimation


def _max_tree(valuations) -> tuple[np.ndarray, list[int]]:
    """Implicit max-tree over the arrivals, about 2n floats in one array.

    Level l, stored from offsets[l], holds the maximum of each aligned block
    of 2^l arrivals (its last block may be short) and then one -inf cell, so
    a block index one past the end reads -inf. Level 0 is the valuations
    themselves; the top level has at most one block. np.fmax skips NaN, so a
    NaN arrival never sells and never hides a buyer in its block.
    """
    lens = [len(valuations)]
    while lens[-1] > 1:
        lens.append((lens[-1] + 1) // 2)
    offsets = [0]
    for m in lens:
        offsets.append(offsets[-1] + m + 1)
    tree = np.empty(offsets.pop())
    tree[: lens[0]] = valuations
    for lev, m in enumerate(lens):
        a = offsets[lev]
        tree[a + m] = -math.inf
        if lev + 1 < len(lens):
            c, h = offsets[lev + 1], lens[lev + 1]
            np.fmax(tree[a : a + 2 * h : 2], tree[a + 1 : a + 2 * h : 2], out=tree[c : c + h])
    return tree, offsets


def _first_at_least(tree, offsets, n: int, start: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per row r, the first arrival t >= start[r] with valuation >= p[r], else n.

    Climb: at level l row r looks at block b, whose arrivals before start[r]
    are all known to lie below p[r], so block b holds the answer iff its
    maximum reaches p[r]. On a miss the search moves to block (b + 1) // 2
    of the next level, whose part before start[r] has just been ruled out.
    Descend: from the block that holds the answer, take the left child
    whenever its maximum reaches p[r]. Both take O(log n) vector steps.
    """
    rows, b, q = np.arange(len(p)), start, p
    hits = []
    for off in offsets:
        hit = tree[off + b] >= q
        hits.append((rows[hit], b[hit]))
        miss = ~hit
        rows, b, q = rows[miss], (b[miss] + 1) >> 1, q[miss]
        if not rows.size:
            break
    out = np.full(len(p), n)
    rows, b = hits.pop()
    for lev in range(len(hits), 0, -1):
        b = 2 * b
        b += tree[offsets[lev - 1] + b] < p[rows]
        r, c = hits[lev - 1]
        rows, b = np.concatenate((rows, r)), np.concatenate((b, c))
    out[rows] = b
    return out


def _welfares(P: np.ndarray, instance: Instance, model: CostModel):
    """Welfare of posting row r of P to the arrivals, and each unit's sale position.

    Event-driven: unit j + 1 of every live trial jumps at once to the first
    arrival after unit j's sale whose valuation reaches its price, so a
    trial costs k searches of O(log n) steps, never a step per arrival.
    Returns (welfare (trials,), positions (trials, k)), with n for a unit
    left unsold. Sold valuations are added unit by unit in sale order.
    """
    trials, k = P.shape
    n = len(instance)
    tree, offsets = _max_tree(np.frombuffer(instance.valuations))
    pos = np.full((trials, k), n)
    sum_v = np.zeros(trials)
    live = np.arange(trials)
    start = np.zeros(trials, dtype=np.intp)
    for j in range(k):
        if not live.size:
            break
        t = _first_at_least(tree, offsets, n, start, P[live, j])
        sold = t < n
        live, t = live[sold], t[sold]
        pos[live, j] = t
        sum_v[live] += tree[t]
        start = t + 1
    units = np.count_nonzero(pos < n, axis=1)
    return sum_v - np.asarray(model.cumulative)[units], pos


def run_trial(
    target, instance: Instance, model: CostModel, master_seed: int, trial_index: int
) -> RunOutcome:
    """Row trial_index of the Monte-Carlo engine, traced; bit-identical on rerun."""
    prices = _price_matrix(_checked(target, model), [trial_index], master_seed)[0]
    return run_posted_price(prices, instance, model)


def trial_welfares(
    target, instance: Instance, model: CostModel, trials: int, master_seed: int,
    part: slice = slice(None),
) -> np.ndarray:
    """Welfare of each trial row in ``part`` of an estimate of ``trials``
    trials: rows ``range(target.rows(trials))[part]``, in order.

    The checks are the whole estimate's, whatever ``part`` is, and row r's
    welfare depends on r alone, so the parts of any cut of the rows,
    joined, are the whole estimate's vector bit for bit.
    """
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials}")
    mech = _checked(target, model)
    rows = mech.rows(trials)
    if rows * model.k > MAX_TRIAL_CELLS:
        raise ValidationError(
            f"trials * k exceeds the ceiling of {MAX_TRIAL_CELLS} (k = {model.k})"
        )
    _check_valuations(instance, model)
    w, _ = _welfares(_price_matrix(mech, range(rows)[part], master_seed), instance, model)
    return w


def expected_welfare(
    target, instance: Instance, model: CostModel, trials: int, master_seed: int
) -> WelfareEstimate:
    """Monte-Carlo estimate of expected welfare: the mean of trial_welfares.
    A caller that splits the rows among workers, as ``experiment`` does,
    gets the same mean, bit for bit, from the parts joined in row order.

    std_error is the sample standard error of per-trial welfare (0 for
    fixed curves, which run once); see WelfareEstimate for when it
    understates the error. The ratio to the optimum is ratio_to_opt of
    offline_opt and the mean, computed once per instance by the caller.
    """
    w = trial_welfares(target, instance, model, trials, master_seed)
    mean = float(w.mean())
    std_error = float(w.std(ddof=1) / math.sqrt(len(w))) if len(w) > 1 else 0.0
    return WelfareEstimate(mean=mean, std_error=std_error, trials=trials)
