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

Curves are a model and its units' segments, stored as six float columns,
not as one object per segment: a scheme's randomized curves, or
``Curves.flat`` of one price vector, one constant segment per unit
(price_vector checks such a vector here and for the mechanisms). A
scheme (PricingScheme, a Curves) adds its bound alpha_star. Its threshold
unit and floor share (``k_underbar_star``, ``xi_star``) are computed from
alpha_star by lower_bound.threshold, and its price intervals, ``kind`` and
guarantee ``cr_guarantee`` from the curves and the model, each in one
place (see PricingScheme). build_scheme writes the columns directly, from
one lower_bound.g_pieces call over every unit's interval, with no loop
over the units. scheme_to_json lists the columns segment by segment.

Every lookup reads one cached flat table over the columns
(``Curves._table``), keyed by ``unit + 1j * s_lo`` and
``unit + 1j * v_lo``. NumPy orders complex numbers by real part, then
imaginary part, so one ``np.searchsorted`` finds the segment of any
(unit, seed) or (unit, price) pair exactly, where a float key such as
``2 * unit + s`` rounds near segment boundaries. ``_prices``
(seed -> price) serves price_at, prices_for_seeds and
static_prices_for_quantiles; ``_seeds`` (price -> seed) serves inverse_price.

scheme_to_json and scheme_from_json are the dict form of a scheme, and they
round-trip every float bit-exactly. scheme_from_json loads a file only as
the scheme its model builds at the file's alpha_star: one chain walk at
that alpha, accepted by the solver's own end test (lower_bound.solution_at),
then the curve builder. The file's segment counts, its six columns, bit for
bit, and its five computed fields must equal the rebuilt scheme's, so an
edited cost, rate or junction is invalid input, and so is a file written
with other alpha_star bits or by a libm whose log gives other bits.
scheme_json_chunks streams the text of
``json.dumps(scheme_to_json(scheme), indent=2, sort_keys=True)``:
``json.dumps`` lays out the file (both writers take its fields from
``_scheme_file``) and its three arrays are streamed in from the columns
(see jsontext). ``kselect pricing`` writes the chunks as they come.
"""

import math
import operator
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise

import numpy as np

from . import jsontext, lower_bound
from .cost_model import CostModel, conjugate, model_from_json, model_to_json
from .errors import SolverError, ValidationError
from .lower_bound import LowerBoundSolution, _exp, g_pieces, solve_alpha_star, threshold


# One segment of a price curve. Constant piece: rate == 0 and the price is
# v_lo everywhere on [s_lo, s_hi]. Exponential piece: price = cost + (v_lo -
# cost) * e^{rate * (s - s_lo)}, reaching v_hi at s_hi. Evaluations clamp
# into [v_lo, v_hi] so shared endpoints are hit exactly.
_SEGMENT_FIELDS = ("s_lo", "s_hi", "v_lo", "v_hi", "cost", "rate")
_segment_row = operator.itemgetter(*_SEGMENT_FIELDS)  # a segment object's numbers
# The scheme file's fields that a scheme computes: _scheme_file writes them,
# and the loader compares them in this order
_COMPUTED_FIELDS = ("k_underbar_star", "xi_star", "price_intervals", "kind", "cr_guarantee")
# A segment in its unit's list and a price interval in the file's list, each
# number's place in the order json.dumps writes it
_SEGMENT_ITEM = jsontext.layout(dict.fromkeys(_SEGMENT_FIELDS, jsontext.FIELD), 3)
_INTERVAL_ITEM = jsontext.layout([jsontext.FIELD] * 2, 2)


def price_vector(model: CostModel, prices) -> np.ndarray:
    """``prices`` as a float array, checked: k finite prices, one per unit."""
    try:
        p = np.asarray(prices, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged or not numbers
        raise ValidationError(f"expected {model.k} finite prices, got {prices!r}") from None
    if p.shape != (model.k,) or not np.isfinite(p).all():
        raise ValidationError(f"expected {model.k} finite prices, got {p.tolist()!r}")
    return p


@dataclass(frozen=True)
class Curves:
    """Price curves of every unit, stored as columns: ``columns`` holds the
    six ``_SEGMENT_FIELDS`` columns back to back, each listing every unit's
    segments unit-major and seed-ordered, and ``sizes[i - 1]`` is the number
    of segments of unit i. Both are ``array`` fields, so curves compare by
    value."""

    model: CostModel
    columns: array  # array("d"): the _SEGMENT_FIELDS columns back to back
    sizes: array  # array("q"): segments per unit

    @classmethod
    def flat(cls, model: CostModel, prices) -> "Curves":
        """Unit i prices at ``prices[i - 1]`` on every seed: one segment
        ``(0, 1, p_i, p_i, 0, 0)`` per unit."""
        p = price_vector(model, prices)
        cols = np.concatenate((np.zeros(model.k), np.ones(model.k), p, p, np.zeros(2 * model.k)))
        return cls(model, array("d", cols.tobytes()), array("q", [1]) * model.k)

    @cached_property
    def fixed(self) -> bool:
        """Each unit has one segment with v_lo == v_hi: one price at every seed."""
        return self.sizes.count(1) == len(self.sizes) and np.array_equal(*self.price_intervals.T)

    @cached_property
    def _offsets(self) -> np.ndarray:
        """Row offsets of the units: unit i's segments are rows
        ``_offsets[i - 1]`` up to ``_offsets[i]``."""
        return np.concatenate(([0], np.cumsum(np.frombuffer(self.sizes, dtype=np.int64))))

    @cached_property
    def price_intervals(self) -> np.ndarray:
        """The price intervals as a read-only (k, 2) array: row i - 1 is
        ``(L_i, U_i)``, unit i's first v_lo and last v_hi."""
        _, _, v_lo, v_hi = _column_view(self)[:4]
        out = np.column_stack((v_lo[self._offsets[:-1]], v_hi[self._offsets[1:] - 1]))
        out.flags.writeable = False
        return out

    @cached_property
    def _table(self):
        """(s_key, v_key, first row of each unit, _SEGMENT_FIELDS columns)."""
        cols = _column_view(self)
        offsets = self._offsets
        unit = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        return unit + 1j * cols[0], unit + 1j * cols[2], offsets[:-1], cols


@dataclass(frozen=True)
class PricingScheme(Curves):
    """The curves of the bound solver's chain and the bound they meet.
    Everything else a scheme reports follows from the model, alpha_star and
    the curves and is computed, not stored: ``k_underbar_star`` and
    ``xi_star`` (``lower_bound.threshold`` at alpha_star), ``price_intervals``
    (each unit's first v_lo and last v_hi), ``kind`` and ``cr_guarantee``."""

    alpha_star: float

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
        # one pass over the units; the conjugate is positive: L_i >= L > c_1,
        # which threshold() checks
        lo, hi = self.price_intervals.T
        conj = conjugate(model, lo)
        return float(np.max(alpha * (1.0 + (hi - model.marginal_column) / conj)))


def _column_view(curves: Curves) -> np.ndarray:
    """The curves' columns as a (6, segments) array sharing their memory."""
    return np.frombuffer(curves.columns).reshape(len(_SEGMENT_FIELDS), -1)


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


def price_at(curves: Curves, i: int, s: float) -> float:
    """Price curve of unit i at seed s, clamped into [L_i, U_i]."""
    _check_unit(curves.model, i)
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"seed {s} outside [0, 1]")
    return float(_prices(curves._table, i - 1, np.array([s], dtype=float))[0])


def inverse_price(curves: Curves, i: int, v: float) -> float:
    """sup{s in [0,1] : phi_i(s) <= v}; 0 when even the lowest price exceeds v.

    On constant pieces the supremum is the right endpoint, so at v = L the
    threshold unit returns xi_star rather than 0.
    """
    _check_unit(curves.model, i)
    model = curves.model
    if not model.L - 1e-9 <= v <= model.U + 1e-9:
        raise ValidationError(f"valuation {v} outside [{model.L}, {model.U}]")
    return float(_seeds(curves._table, i - 1, np.array([v], dtype=float))[0])


_BLOCK_CELLS = 1 << 15  # cells per prices_for_seeds block; bounds its temporaries


def prices_for_seeds(curves: Curves, seeds: np.ndarray) -> np.ndarray:
    """Vectorized curve evaluation: seeds (n, k) -> prices (n, k).

    Column i - 1 is unit i's curve, evaluated as by price_at, so every row
    of a built scheme satisfies the price chain P_1 <= ... <= P_k with no
    tolerance.
    """
    seeds = np.asarray(seeds, dtype=float)
    k = curves.model.k
    if seeds.ndim != 2 or seeds.shape[1] != k:
        raise ValidationError(f"seed array must have shape (n, {k})")
    if seeds.size and not (seeds.min() >= 0.0 and seeds.max() <= 1.0):
        raise ValidationError("seeds outside [0, 1]")
    out = np.empty(seeds.shape)
    step = max(1, _BLOCK_CELLS // k)
    for r in range(0, len(seeds), step):
        out[r : r + step] = _prices(curves._table, np.arange(k), seeds[r : r + step])
    return out


def static_prices_for_quantiles(curves: Curves, q: np.ndarray) -> np.ndarray:
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
    k = curves.model.k
    x = q * k
    unit = np.minimum(np.floor(x), k - 1)
    return _prices(curves._table, unit, x - unit)


# ---------------------------------------------------------------------------
# builders


def _scheme(model: CostModel, sol: LowerBoundSolution) -> PricingScheme:
    """Curves inverting the solution's piecewise-log allocation curves.

    The units below the threshold unit are flat at L. The pieces of every
    later unit come from one ``g_pieces`` call: a piece [a, b] of unit i
    spans seeds (g / alpha) * ln((b - c_i) / (a - c_i)) and prices as
    c_i + (a - c_i) e^{(alpha / g)(s - s0)}; a zero-width piece is flat,
    of span 1. The threshold unit's floor, L on seeds [0, xi], comes first
    and replaces its piece if its interval is empty. Spans add up left to
    right, the units of 2^(e-1) to 2^e - 1 pieces as the rows of one grid
    2^e wide, so the loop runs at most log2(most pieces in a unit) times.
    They telescope to 1 within 1e-9; each unit's last end is snapped to 1,
    so its last span is never stored, and the others take libm's log,
    whose bits NumPy's kernels do not always match. The top price is
    clamped to U, which the chain meets within the solver's tolerance.
    """
    alpha, ku, xi, L = sol.alpha, sol.k_underbar, sol.xi, model.L
    ends = np.frombuffer(sol.ends)  # u_{ku - 1} = L, ..., u_k
    per_unit = array("q", [1]) * model.k  # segments per unit, made before the temporaries
    sizes = np.frombuffer(per_unit, dtype=np.int64)[ku - 1 :]  # written in place
    owner, a, b, g, sizes[:] = g_pieces(model, ends[:-1], ends[1:])
    skip = int(a[0] == b[0])  # the floor replaces the threshold unit's flat piece
    columns = array("d", [0.0]) * (len(_SEGMENT_FIELDS) * (ku - skip + len(owner)))
    cols = np.frombuffer(columns).reshape(len(_SEGMENT_FIELDS), -1)  # written in place
    _, s, v_lo, v_hi, cost, rate = cols[:, ku - skip :]  # the pieces' rows
    v_lo[:], v_hi[:] = a, b
    np.take(model.marginal_column[ku - 1 :], owner, out=cost)
    with np.errstate(divide="ignore", invalid="ignore"):  # U == L: c_i may equal L
        ratio = (b - cost) / (a - cost)
    inner = np.append(owner[1:] == owner[:-1], False)  # all but each unit's last piece
    np.log(ratio, out=s)
    s[inner] = np.fromiter(map(math.log, ratio[inner].tolist()), float)
    s *= g / alpha  # each piece's span
    np.divide(alpha, g, out=rate)
    s[a == b], rate[a == b] = 1.0, 0.0  # zero-width pieces
    cols[:, : ku - 1] = np.array([[0.0], [1.0], [L], [L], [0.0], [0.0]])
    cols[1:, ku - 1] = xi, L, L, model.marginals[ku - 1], 0.0  # the floor
    sizes[0] += 1 - skip
    s_lo, s = cols[0, ku - 1 :], cols[1, ku - 1 :]  # s: each span, then the seed it reaches
    last = np.cumsum(sizes) - 1  # each unit's last row
    starts = last + 1 - sizes
    long = np.flatnonzero(sizes > 1)
    band = np.frexp(sizes[long])[1]  # 2^(band - 1) <= a unit's size < 2^band
    for e in np.flatnonzero(np.bincount(band)):
        group = long[band == e]
        rows = starts[group, None] + np.arange(2**e)  # padded past each unit's end
        mine = rows <= last[group, None]
        s[rows[mine]] = np.add.accumulate(np.take(s, rows, mode="clip"), axis=1)[mine]
    off = np.flatnonzero(np.abs(s[last] - 1.0) > 1e-9)
    if off.size:
        i = off[0]  # an end too near its unit's cost to resolve the unit's spans
        raise SolverError(f"no scheme: unit {ku + i} seed spans sum to {s[last[i]]}, not 1")
    s_lo[1:] = s[:-1]
    s_lo[starts] = 0.0
    s[last] = 1.0
    cols[3, -1] = min(cols[3, -1], model.U)  # v_hi of unit k's last segment
    return PricingScheme(model=model, alpha_star=alpha, columns=columns, sizes=per_unit)


def build_scheme(model: CostModel) -> PricingScheme:
    """Price curves for any valid setup; their guarantee is
    ``PricingScheme.cr_guarantee``."""
    return _scheme(model, solve_alpha_star(model))


def _scheme_file(scheme: PricingScheme, price_intervals, segments, marginals=None) -> dict:
    """The scheme file: the model spec, alpha_star and the computed fields,
    with ``price_intervals`` and ``segments`` as given, and ``marginals`` in
    place of the model's list when given."""
    file = {"model": model_to_json(scheme.model, marginals), "alpha_star": scheme.alpha_star}
    file.update({name: getattr(scheme, name) for name in _COMPUTED_FIELDS})
    return file | {"price_intervals": price_intervals, "segments": segments}


def scheme_to_json(scheme: PricingScheme) -> dict:
    """Serialize a scheme; floats survive the JSON round trip bit-exactly.
    ``segments`` lists each unit's segments, seed-ordered, as objects keyed
    by _SEGMENT_FIELDS."""
    rows = [dict(zip(_SEGMENT_FIELDS, row)) for row in zip(*_column_view(scheme).tolist())]
    segments = [rows[a:b] for a, b in pairwise(scheme._offsets.tolist())]
    return _scheme_file(scheme, scheme.price_intervals.tolist(), segments)


def scheme_json_chunks(scheme: PricingScheme) -> Iterator[str]:
    """The text of ``json.dumps(scheme_to_json(scheme), indent=2,
    sort_keys=True)``, written from the columns in chunks (see jsontext).

    The marginals, price intervals and segments are streamed into the
    file's layout jsontext.CHUNK_UNITS units at a time, from the texts of
    their numbers, made once for the whole document. The numbers are
    copied from the columns into one array in the order they are written,
    a segment's fields in sorted order, as ``json.dumps`` writes keys.
    """
    model = scheme.model
    k = model.k
    fields = sorted(_SEGMENT_FIELDS)
    cols = _column_view(scheme)
    file = _scheme_file(scheme, jsontext.SECTION, jsontext.SECTION, jsontext.SECTION)
    numbers = np.empty(3 * k + cols.size)
    numbers[:k] = model.marginal_column
    numbers[k : 3 * k].reshape(-1, 2)[:] = scheme.price_intervals
    rows = numbers[3 * k :].reshape(-1, len(fields))
    for f, name in enumerate(fields):
        rows[:, f] = cols[_SEGMENT_FIELDS.index(name)]
    texts, at = jsontext.number_texts(numbers)
    # the numbers of unit i's segments start at row_stops[i]
    row_stops = 3 * k + len(fields) * scheme._offsets
    unit_templates = {n: jsontext.block([_SEGMENT_ITEM] * n, 2) for n in set(scheme.sizes)}
    return jsontext.document(
        jsontext.layout(file),
        [
            jsontext.array_chunks(
                [jsontext.layout(jsontext.FIELD, 3)] * k, 3, lambda a, b: texts[at[a:b]]
            ),
            jsontext.array_chunks(
                [_INTERVAL_ITEM] * k, 1, lambda a, b: texts[at[k + 2 * a : k + 2 * b]]
            ),
            jsontext.array_chunks(
                [unit_templates[n] for n in scheme.sizes],
                1,
                lambda a, b: texts[at[row_stops[a] : row_stops[b]]],
            ),
        ],
    )


def scheme_from_json(obj: dict) -> PricingScheme:
    """Load a scheme file: the scheme its model builds at its alpha_star
    (``lower_bound.solution_at``, then the curve builder), whose sizes,
    six columns, bit for bit, and computed fields must be the file's. A
    difference, or a rebuild that fails, raises ValidationError naming the
    first unit and field that differ."""
    if not isinstance(obj, dict):
        raise ValidationError("scheme spec must be a JSON object")
    try:
        model = model_from_json(obj["model"])
        alpha = float(obj["alpha_star"])
        units = obj["segments"]
        sizes = array("q", map(len, units))
        # segment-major: row by row, each segment's fields in _SEGMENT_FIELDS order
        rows = array("d", chain.from_iterable(map(_segment_row, chain.from_iterable(units))))
        stated = {name: np.asarray(obj[name]) for name in _COMPUTED_FIELDS}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed scheme spec: {exc!r}") from None
    if len(sizes) != model.k:
        raise ValidationError("scheme spec does not match the model's unit count")
    try:
        scheme = _scheme(model, lower_bound.solution_at(model, alpha))
    except (SolverError, ValidationError) as exc:
        raise ValidationError(f"scheme alpha_star: {exc}") from None
    built = "its model builds at alpha_star"
    if sizes != scheme.sizes:
        i = next(i for i, pair in enumerate(zip(sizes, scheme.sizes)) if pair[0] != pair[1])
        raise ValidationError(
            f"scheme unit {i + 1}: {sizes[i]} segments, not the {scheme.sizes[i]} {built}"
        )
    # segment by segment, bit for bit: a -0.0 or a NaN differs too
    mine = np.frombuffer(rows).reshape(-1, len(_SEGMENT_FIELDS))
    want = _column_view(scheme).T
    differ = mine.view(np.int64) != want.view(np.int64)
    if differ.any():
        row, f = divmod(int(differ.argmax()), len(_SEGMENT_FIELDS))
        unit = int(np.searchsorted(scheme._offsets, row, side="right"))
        raise ValidationError(
            f"scheme unit {unit} segment {row - scheme._offsets[unit - 1] + 1}: "
            f"{_SEGMENT_FIELDS[f]} {mine[row, f]} is not the {want[row, f]} {built}"
        )
    for name, value in stated.items():
        computed = getattr(scheme, name)
        if not np.array_equal(value, computed):
            shown = repr(computed) if np.isscalar(computed) else "one"
            raise ValidationError(f"scheme {name} is not the {shown} {built}")
    return scheme
