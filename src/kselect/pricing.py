"""Randomized dynamic price curves built on top of the bound solver.

Each unit i gets a price curve phi_i mapping a seed s in [0, 1] to a posted
price in the unit's price interval [L_i, U_i]. The curves are the exact
inverses of the bound solver's allocation curves: drawing each seed uniformly
and posting phi_i for the next unsold unit i makes the mechanism's expected
welfare competitive with the offline optimum.

One construction, build_scheme, gives the curves for any valid setup. Each
constant-g piece of a unit's interval becomes one exponential segment, plus
a constant floor on the threshold unit; in high-value setups (c_k < L) each
unit has one segment.

A scheme is its model, its bound alpha_star and its curves, stored as six
float columns, not as one object per segment. Its threshold unit and floor
share (``k_underbar_star``, ``xi_star``) are computed from alpha_star by
lower_bound.threshold, and its price intervals, ``kind`` and guarantee
``cr_guarantee`` from the curves and the model, each in one place (see
PricingScheme). build_scheme and scheme_from_json write the columns
directly: build_scheme writes the flat units below the threshold and the
one-segment units above the top marginal as slices of the solver's chain
ends and the marginals, and walks only the units between piece by piece.
scheme_to_json lists the columns segment by segment.

Every lookup reads one cached flat table over the columns
(``PricingScheme._table``), keyed by ``unit + 1j * s_lo`` and
``unit + 1j * v_lo``. NumPy orders complex numbers by real part, then
imaginary part, so one ``np.searchsorted`` finds the segment of any
(unit, seed) or (unit, price) pair exactly, where a float key such as
``2 * unit + s`` rounds near segment boundaries. ``_prices``
(seed -> price) serves price_at, prices_for_seeds and
static_prices_for_quantiles; ``_seeds`` (price -> seed) serves inverse_price.

scheme_to_json and scheme_from_json are the dict form of a scheme, and they
round-trip every float bit-exactly; scheme_from_json rejects curves the
table cannot read, prices that leave [L, U] or break the price chain
(a unit must start at the price where the one before it ends, L for unit
1), rates that are not alpha_star / g, and a file whose k_underbar_star,
xi_star, price intervals, kind or guarantee are not the ones its model,
alpha_star and curves give. scheme_json_chunks streams the text of
``json.dumps(scheme_to_json(scheme), indent=2, sort_keys=True)``
straight from the columns, without the stdlib's pure-Python indenting
encoder: the marginals, price intervals and segments go out a fixed
number of units at a time, and each distinct float of the document is
formatted once (see jsontext). ``kselect pricing`` writes the chunks as
they come.
"""

import json
import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise

import numpy as np

from . import jsontext
from .cost_model import CostModel, model_from_json, model_to_json, packed
from .errors import ValidationError
from .lower_bound import LowerBoundSolution, _exp, g_pieces, solve_alpha_star, threshold


# One segment of a price curve. Constant piece: rate == 0 and the price is
# v_lo everywhere on [s_lo, s_hi]. Exponential piece: price = cost + (v_lo -
# cost) * e^{rate * (s - s_lo)}, reaching v_hi at s_hi. Evaluations clamp
# into [v_lo, v_hi] so shared endpoints are hit exactly.
_SEGMENT_FIELDS = ("s_lo", "s_hi", "v_lo", "v_hi", "cost", "rate")
# What a scheme file states and a scheme computes, in the order the loader
# compares them
_COMPUTED_FIELDS = ("k_underbar_star", "xi_star", "price_intervals", "kind", "cr_guarantee")


@dataclass(frozen=True)
class PricingScheme:
    """Price curves of every unit and the bound they meet.

    The curves are stored as columns: ``columns`` holds the six
    ``_SEGMENT_FIELDS`` columns back to back, each listing every unit's
    segments unit-major and seed-ordered, and ``sizes[i - 1]`` is the number
    of segments of unit i. The columns are an ``array("d")`` field, so
    schemes compare by value. Everything else a scheme reports follows from
    the model, ``alpha_star`` and the curves and is computed, not stored:
    ``k_underbar_star`` and ``xi_star`` (``lower_bound.threshold`` at
    alpha_star), ``price_intervals`` (each unit's first v_lo and last
    v_hi), ``kind`` and ``cr_guarantee``.
    """

    model: CostModel
    alpha_star: float
    columns: array  # array("d"): the _SEGMENT_FIELDS columns back to back
    sizes: tuple[int, ...]  # segments per unit

    @cached_property
    def _threshold(self) -> tuple[int, float]:
        """``(k_underbar_star, xi_star)``, computed once."""
        return threshold(self.model, self.alpha_star)

    @property
    def k_underbar_star(self) -> int:
        """The threshold unit at alpha_star; the units below it are flat at L."""
        return self._threshold[0]

    @property
    def xi_star(self) -> float:
        """The threshold unit's floor share: its curve is L on seeds [0, xi_star]."""
        return self._threshold[1]

    @cached_property
    def _offsets(self) -> np.ndarray:
        """Row offsets of the units, from ``sizes`` converted once: unit i's
        segments are rows ``_offsets[i - 1]`` up to ``_offsets[i]``."""
        sizes = np.fromiter(self.sizes, dtype=np.intp, count=len(self.sizes))
        return np.concatenate(([0], np.cumsum(sizes)))

    @cached_property
    def price_intervals(self) -> np.ndarray:
        """The price intervals as a read-only (k, 2) array: row i - 1 is
        ``(L_i, U_i)``, unit i's first v_lo and last v_hi."""
        _, _, v_lo, v_hi = _column_view(self)[:4]
        out = np.column_stack((v_lo[self._offsets[:-1]], v_hi[self._offsets[1:] - 1]))
        out.flags.writeable = False
        return out

    @property
    def kind(self) -> str:
        """"two_unit" for a high-value model with k = 2, else the model's regime."""
        model = self.model
        return "two_unit" if model.high_value and model.k == 2 else model.regime

    @cached_property
    def cr_guarantee(self) -> float:
        """The competitive ratio the curves guarantee: alpha_star for
        "two_unit", alpha_star e^{alpha_star / k} for "high_value", and for
        "general" max_i alpha_star (1 + (U_i - c_i) / f*(L_i)), where
        L_i = U_{i-1} (U_0 = L) is unit i's lowest price."""
        alpha, model = self.alpha_star, self.model
        if self.kind == "two_unit":
            return alpha
        if model.high_value:
            return alpha * _exp(alpha / model.k)
        # one pass over the units; the conjugate at L_i is L_i g - f(g)
        # with g = #marginals <= L_i, as in conjugate(). It is positive:
        # L_i >= L > c_1, which threshold() checks
        lo, hi = self.price_intervals.T
        ms = model.marginal_column
        g = np.searchsorted(ms, lo, side="right")
        conj = lo * g - np.frombuffer(model.cumulative)[g]
        return float(np.max(alpha * (1.0 + (hi - ms) / conj)))

    @cached_property
    def _table(self):
        """(s_key, v_key, first row of each unit, _SEGMENT_FIELDS columns)."""
        cols = _column_view(self)
        offsets = self._offsets
        unit = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        return unit + 1j * cols[0], unit + 1j * cols[2], offsets[:-1], cols


def _column_view(scheme: PricingScheme) -> np.ndarray:
    """The scheme's columns as a (6, segments) array sharing their memory."""
    return np.frombuffer(scheme.columns).reshape(len(_SEGMENT_FIELDS), -1)


def _check_unit(model: CostModel, i: int) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= model.k:
        raise ValidationError(f"unit index {i} out of range 1..{model.k}")


def _prices(table, units, s: np.ndarray) -> np.ndarray:
    """Curve of unit ``units`` (from 0) at seed ``s`` in [0, 1], cell by cell
    over the two broadcast together; unchecked. Segment endpoints return the
    stored values exactly and the interior is clamped into [v_lo, v_hi], so
    junction floats are never overshot."""
    s_key, _, _, cols = table
    idx = np.searchsorted(s_key, units + 1j * s, side="right") - 1
    s_lo, s_hi, v_lo, v_hi, cost, rate = cols[:, idx]
    p = np.clip(cost + (v_lo - cost) * np.exp(rate * (s - s_lo)), v_lo, v_hi)
    p = np.where(s <= s_lo, v_lo, p)
    return np.where(s >= s_hi, v_hi, p)


def _seeds(table, units, v: np.ndarray) -> np.ndarray:
    """sup{s in [0, 1] : phi(s) <= v} of unit ``units`` (from 0) at price
    ``v``, cell by cell; 0 below the unit's lowest price. Unchecked. The
    unit's last segment with v_lo <= v holds it: its right end on a constant
    piece or at the top of a ramp."""
    _, v_key, first, cols = table
    idx = np.searchsorted(v_key, units + 1j * v, side="right") - 1
    s_lo, s_hi, v_lo, v_hi, cost, rate = cols[:, idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip(s_lo + np.log((v - cost) / (v_lo - cost)) / rate, s_lo, s_hi)
    s = np.where((rate == 0.0) | (v >= v_hi), np.minimum(s_hi, 1.0), s)
    return np.where(idx < first[units], 0.0, s)


def price_at(scheme: PricingScheme, i: int, s: float) -> float:
    """Price curve of unit i at seed s, clamped into [L_i, U_i]."""
    _check_unit(scheme.model, i)
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"seed {s} outside [0, 1]")
    return float(_prices(scheme._table, i - 1, np.array([s], dtype=float))[0])


def inverse_price(scheme: PricingScheme, i: int, v: float) -> float:
    """sup{s in [0,1] : phi_i(s) <= v}; 0 when even the lowest price exceeds v.

    On constant pieces the supremum is the right endpoint, so at v = L the
    threshold unit returns xi_star rather than 0.
    """
    _check_unit(scheme.model, i)
    model = scheme.model
    if not model.L - 1e-9 <= v <= model.U + 1e-9:
        raise ValidationError(f"valuation {v} outside [{model.L}, {model.U}]")
    return float(_seeds(scheme._table, i - 1, np.array([v], dtype=float))[0])


_BLOCK_CELLS = 1 << 15  # cells per prices_for_seeds block; bounds its temporaries


def prices_for_seeds(scheme: PricingScheme, seeds: np.ndarray) -> np.ndarray:
    """Vectorized curve evaluation: seeds (n, k) -> prices (n, k).

    Column i - 1 is unit i's curve, evaluated as by price_at, so every row
    satisfies the price chain P_1 <= ... <= P_k with no tolerance.
    """
    seeds = np.asarray(seeds, dtype=float)
    k = scheme.model.k
    if seeds.ndim != 2 or seeds.shape[1] != k:
        raise ValidationError(f"seed array must have shape (n, {k})")
    if seeds.size and not (seeds.min() >= 0.0 and seeds.max() <= 1.0):
        raise ValidationError("seeds outside [0, 1]")
    out = np.empty(seeds.shape)
    step = max(1, _BLOCK_CELLS // k)
    for r in range(0, len(seeds), step):
        out[r : r + step] = _prices(scheme._table, np.arange(k), seeds[r : r + step])
    return out


def static_prices_for_quantiles(scheme: PricingScheme, q: np.ndarray) -> np.ndarray:
    """Exact quantiles of the aggregate price law F(v) = mean_i P(phi_i(s) <= v).

    The curves tile the price chain end to end: unit i's curve ends where
    unit i + 1's starts, and the constant floors make the atom at L. So the
    generalized inverse of F at q is unit J + 1's curve at seed qk - J,
    with J = min(floor(qk), k - 1). For uniform q this is a uniform unit at
    a uniform seed, so the draw follows F even for curves that do not tile.
    """
    q = np.asarray(q, dtype=float)
    if q.size and not (q.min() >= 0.0 and q.max() <= 1.0):
        raise ValidationError("quantiles outside [0, 1]")
    k = scheme.model.k
    x = q * k
    unit = np.minimum(np.floor(x), k - 1)
    return _prices(scheme._table, unit, x - unit)


# ---------------------------------------------------------------------------
# builders


def _scheme(model: CostModel, sol: LowerBoundSolution) -> PricingScheme:
    """Curves inverting the solution's piecewise-log allocation curves.

    Each constant-g piece [a, b] of unit i's interval consumes a seed span of
    (g / alpha) * ln((b - c_i) / (a - c_i)) and prices as
    c_i + (a - c_i) e^{(alpha / g)(s - s0)} on it. Spans telescope to 1 by
    construction; the last endpoint is snapped to exactly 1. The last unit's
    top price is clamped to U, since the solver stops within its tolerance
    of U on either side.

    The units below the threshold unit are flat at L. The threshold unit,
    and every later unit whose interval starts below the top marginal c_k,
    are walked piece by piece (``g_pieces``); one ``searchsorted`` of the
    chain ends against c_k counts them. Every unit after them lies above
    c_k, where g = k, and has one segment: seeds [0, 1], prices u_{i-1} to
    u_i, cost c_i, rate alpha / k (0 on a zero-width interval). The run
    below and the run above are written as column slices, the second from
    slices of the chain ends and the marginals, and its spans are checked
    at once.
    """
    alpha, ku, xi = sol.alpha, sol.k_underbar, sol.xi
    L, k = model.L, model.k
    ends = np.frombuffer(sol.ends)  # u_{ku - 1} = L, ..., u_k
    walked = min(max(1, int(np.searchsorted(ends, model.marginals[-1]))), len(ends) - 1)
    rows: list[list[float]] = []  # segments of the units walked piece by piece
    sizes = [1] * (ku - 1)
    for i, (ell, u) in enumerate(pairwise(sol.ends[: walked + 1]), ku):
        c = model.marginals[i - 1]
        raw: list[list[float]] = []
        s = 0.0
        if i == ku:
            raw.append([0.0, xi, L, L, c, 0.0])
            s = xi
        if u > ell:
            for a, b, g in g_pieces(model, ell, u):
                span = (g / alpha) * math.log((b - c) / (a - c))
                raw.append([s, s + span, a, b, c, alpha / g])
                s = s + span
        if not raw:  # zero-width interval with no floor piece (u == ell == L)
            raw.append([0.0, 1.0, ell, ell, c, 0.0])
            s = 1.0
        if abs(s - 1.0) > 1e-9:
            raise AssertionError(f"unit {i} seed spans sum to {s}, expected 1")
        raw[-1][1] = 1.0
        rows += raw
        sizes.append(len(raw))
    i = ku + walked  # the first unit above the top marginal
    lo, hi, c = ends[walked:-1], ends[walked + 1 :], model.marginal_column[i - 1 :]
    ramp = hi > lo
    with np.errstate(divide="ignore", invalid="ignore"):
        span = (k / alpha) * np.log((hi - c) / (lo - c))
    off = np.flatnonzero(ramp & (np.abs(span - 1.0) > 1e-9))
    if off.size:
        raise AssertionError(f"unit {i + off[0]} seed spans sum to {span[off[0]]}, expected 1")
    head = ku - 1 + len(rows)  # segments before the tail
    cols = np.empty((len(_SEGMENT_FIELDS), head + len(lo)))
    cols[:, : ku - 1] = np.array([[0.0], [1.0], [L], [L], [0.0], [0.0]])
    cols[:, ku - 1 : head] = np.array(rows).T
    tail = cols[:, head:]
    tail[0], tail[1], tail[2], tail[3], tail[4] = 0.0, 1.0, lo, hi, c
    tail[5] = np.where(ramp, alpha / k, 0.0)
    cols[3, -1] = min(cols[3, -1], model.U)  # v_hi of unit k's last segment
    sizes += [1] * len(lo)
    return PricingScheme(model=model, alpha_star=alpha, columns=packed(cols), sizes=tuple(sizes))


def build_scheme(model: CostModel) -> PricingScheme:
    """Price curves for any valid setup; their guarantee is
    ``PricingScheme.cr_guarantee``."""
    return _scheme(model, solve_alpha_star(model))


def scheme_to_json(scheme: PricingScheme) -> dict:
    """Serialize a scheme; floats survive the JSON round trip bit-exactly.
    ``segments`` lists each unit's segments, seed-ordered, as objects keyed
    by _SEGMENT_FIELDS."""
    rows = [dict(zip(_SEGMENT_FIELDS, row)) for row in zip(*_column_view(scheme).tolist())]
    return {
        "model": model_to_json(scheme.model),
        "alpha_star": scheme.alpha_star,
        "k_underbar_star": scheme.k_underbar_star,
        "xi_star": scheme.xi_star,
        "cr_guarantee": scheme.cr_guarantee,
        "kind": scheme.kind,
        "price_intervals": scheme.price_intervals.tolist(),
        "segments": [rows[a:b] for a, b in pairwise(scheme._offsets.tolist())],
    }


def scheme_json_chunks(scheme: PricingScheme) -> Iterator[str]:
    """The text of ``json.dumps(scheme_to_json(scheme), indent=2,
    sort_keys=True)``, written from the columns in chunks (see jsontext).

    One template holds the layout, with keys in sorted order and the few
    scalars written in. The marginals, price intervals and segments are
    streamed into it jsontext.CHUNK_UNITS units at a time, from the texts
    of their numbers, made once for the whole document. The numbers are
    copied from the columns into one array in the order they are written.
    """
    model = scheme.model
    k = model.k
    fields = sorted(_SEGMENT_FIELDS)
    cols = _column_view(scheme)
    numbers = np.empty(3 * k + cols.size)
    numbers[:k] = model.marginal_column
    numbers[k : 3 * k].reshape(-1, 2)[:] = scheme.price_intervals
    rows = numbers[3 * k :].reshape(-1, len(fields))
    for f, name in enumerate(fields):
        rows[:, f] = cols[_SEGMENT_FIELDS.index(name)]
    texts, at = jsontext.number_texts(numbers)
    # the numbers of unit i's segments start at row_stops[i]
    row_stops = 3 * k + len(fields) * scheme._offsets
    segment = jsontext.obj([(f, "%s") for f in fields], 3)
    unit_templates = {n: jsontext.block("[]", [segment] * n, 2) for n in set(scheme.sizes)}
    num = json.dumps
    cost = jsontext.obj([("marginals", jsontext.SECTION), ("type", '"explicit"')], 2)
    spec = [("L", num(model.L)), ("U", num(model.U)), ("cost", cost), ("k", num(k))]
    template = jsontext.obj(
        [
            ("alpha_star", num(scheme.alpha_star)),
            ("cr_guarantee", num(scheme.cr_guarantee)),
            ("k_underbar_star", num(scheme.k_underbar_star)),
            ("kind", num(scheme.kind)),
            ("model", jsontext.obj(spec, 1)),
            ("price_intervals", jsontext.SECTION),
            ("segments", jsontext.SECTION),
            ("xi_star", num(scheme.xi_star)),
        ],
        0,
    )
    return jsontext.document(
        template,
        [
            jsontext.array_chunks(["%s"] * k, 3, lambda a, b: texts[at[a:b]]),
            jsontext.array_chunks(
                [jsontext.block("[]", ["%s", "%s"], 2)] * k,
                1,
                lambda a, b: texts[at[k + 2 * a : k + 2 * b]],
            ),
            jsontext.array_chunks(
                [unit_templates[n] for n in scheme.sizes],
                1,
                lambda a, b: texts[at[row_stops[a] : row_stops[b]]],
            ),
        ],
    )


def _check_curves(scheme: PricingScheme) -> None:
    """Reject curves that the table lookups cannot read, whose prices
    leave [L, U] or break the price chain P_1 <= ... <= P_k, or whose rates
    are not alpha_star's.

    Each unit needs a segment, and its segments must run end to end from
    seed 0 to seed 1. Every price lies in [L, U], so a NaN fails, and each
    segment has v_lo <= v_hi. A unit's first v_lo is the previous unit's
    last v_hi (L for unit 1), so the price intervals run end to end from
    L; every later v_lo lies at or above the v_lo before it. A ramp
    (v_hi > v_lo) has rate alpha_star / g, with g the number of marginals
    at or below its v_lo, and a flat segment rate 0. Each test is one
    comparison over the columns.
    """
    offsets = scheme._offsets
    sizes = np.diff(offsets)
    if sizes.min() < 1:
        raise ValidationError(f"scheme unit {sizes.argmin() + 1} has no segment")
    s_lo, s_hi, v_lo, v_hi, _, rate = _column_view(scheme)
    end = np.zeros(len(s_lo), dtype=bool)
    end[offsets[1:] - 1] = True
    start = np.roll(end, 1)  # the last row ends unit k, so row 0 starts unit 1
    L, U = scheme.model.L, scheme.model.U
    floor = np.where(start, np.roll(v_hi, 1), np.roll(v_lo, 1))
    floor[0] = L
    g = np.searchsorted(scheme.model.marginal_column, v_lo, side="right")
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp_rate = scheme.alpha_star / g
    for bad, why in (
        (
            ~(s_lo <= s_hi)
            | (start & (s_lo != 0.0))
            | np.where(end, s_hi != 1.0, s_hi != np.roll(s_lo, -1)),
            "segments must run end to end over [0, 1]",
        ),
        (
            ~((L <= v_lo) & (v_lo <= U) & (L <= v_hi) & (v_hi <= U)),
            f"prices must lie in [L, U] = [{L}, {U}]",
        ),
        (v_lo > v_hi, "a segment's v_lo exceeds its v_hi"),
        (
            start & (v_lo != floor),
            f"the first v_lo must be the previous unit's last v_hi (L = {L} for unit 1)",
        ),
        (v_lo < floor, "v_lo falls below the v_lo before it"),
        (
            rate != np.where(v_hi > v_lo, ramp_rate, 0.0),
            "a segment's rate is not alpha_star / g (0 where v_lo == v_hi)",
        ),
    ):
        if bad.any():
            raise ValidationError(f"scheme unit {start[: bad.argmax() + 1].sum()}: {why}")


def scheme_from_json(obj: dict) -> PricingScheme:
    """Rebuild a scheme emitted by :func:`scheme_to_json`. Each field the
    scheme computes, ``k_underbar_star``, ``xi_star``, ``price_intervals``,
    ``kind`` and ``cr_guarantee``, must equal the file's."""
    if not isinstance(obj, dict):
        raise ValidationError("scheme spec must be a JSON object")
    try:
        model = model_from_json(obj["model"])
        units = obj["segments"]
        sizes = tuple(len(unit) for unit in units)
        columns = array(
            "d", (float(seg[f]) for f in _SEGMENT_FIELDS for unit in units for seg in unit)
        )
        stated = {name: np.asarray(obj[name]) for name in _COMPUTED_FIELDS}
        scheme = PricingScheme(
            model=model, alpha_star=float(obj["alpha_star"]), columns=columns, sizes=sizes
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed scheme spec: {exc!r}") from None
    if len(sizes) != model.k:
        raise ValidationError("scheme spec does not match the model's unit count")
    _check_curves(scheme)
    for name, value in stated.items():
        computed = getattr(scheme, name)
        if not np.array_equal(value, computed):
            shown = repr(computed) if np.isscalar(computed) else "one"
            raise ValidationError(
                f"scheme {name} is not the {shown} its model, alpha_star and curves give"
            )
    return scheme
