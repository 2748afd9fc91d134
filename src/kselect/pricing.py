"""Randomized dynamic price curves built on top of the bound solver.

Each unit i gets a price curve phi_i mapping a seed s in [0, 1] to a posted
price in the unit's price interval [L_i, U_i]. The curves are the exact
inverses of the bound solver's allocation curves: drawing each seed uniformly
and posting phi_i for the next unsold unit i makes the mechanism's expected
welfare competitive with the offline optimum.

Two constructions:

* the general curves, for any valid setup: each constant-g piece of a unit's
  interval becomes one exponential segment, plus a constant floor on the
  threshold unit. build_pricing_scheme_general reports the guarantee
  max_i alpha_star * (1 + (U_i - c_i) / f*(U_{i-1})) with U_0 = L;
  build_pricing_scheme builds the same curves for high-value setups
  (c_k < L, where each unit has one segment) and reports
  alpha_star * e^{alpha_star / k}.
* build_pricing_scheme_k2: two-unit high-value setups. A two-branch special
  form whose guarantee is alpha_star itself (no extra factor).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cost_model import CostModel, conjugate, model_from_json, model_to_json
from .errors import ValidationError
from .lower_bound import (
    DEFAULT_TOL,
    LowerBoundSolution,
    g_pieces,
    piece_index,
    solve_alpha_star,
    solve_alpha_star_general,
)


@dataclass(frozen=True)
class Segment:
    """One parametric piece of a price curve.

    Constant piece: rate == 0 and the price is v_lo everywhere on
    [s_lo, s_hi]. Exponential piece: price = cost + (v_lo - cost) *
    e^{rate * (s - s_lo)}, reaching v_hi at s_hi. Evaluations clamp into
    [v_lo, v_hi] so shared endpoints are hit exactly.
    """

    s_lo: float
    s_hi: float
    v_lo: float
    v_hi: float
    cost: float
    rate: float


@dataclass(frozen=True)
class PricingScheme:
    model: CostModel
    alpha_star: float
    k_underbar_star: int
    xi_star: float
    segments: tuple[tuple[Segment, ...], ...]  # one tuple per unit, seed-ordered
    price_intervals: tuple[tuple[float, float], ...]  # (L_i, U_i) for i = 1..k
    cr_guarantee: float
    kind: str  # "high_value" | "two_unit" | "general"

    @cached_property
    def _unit_tables(self):
        """Per-unit segment fields as arrays, for vectorized evaluation."""
        tables = []
        for segs in self.segments:
            tables.append(
                tuple(
                    np.array([getattr(seg, f) for seg in segs])
                    for f in ("s_lo", "s_hi", "cost", "v_lo", "v_hi", "rate")
                )
            )
        return tuple(tables)


@dataclass(frozen=True)
class PriceVector:
    prices: tuple[float, ...]
    seeds: tuple[float, ...]


def _check_unit(model: CostModel, i: int) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= model.k:
        raise ValidationError(f"unit index {i} out of range 1..{model.k}")


def price_at(scheme: PricingScheme, i: int, s: float) -> float:
    """Price curve of unit i at seed s, clamped into [L_i, U_i]."""
    _check_unit(scheme.model, i)
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"seed {s} outside [0, 1]")
    segs = scheme.segments[i - 1]
    for seg in reversed(segs):
        if s >= seg.s_lo:
            # endpoints return the stored values exactly; the interior is
            # clamped so junction floats are never overshot
            if seg.rate == 0.0 or s == seg.s_lo:
                return seg.v_lo
            if s >= seg.s_hi:
                return seg.v_hi
            v = seg.cost + (seg.v_lo - seg.cost) * math.exp(seg.rate * (s - seg.s_lo))
            return min(max(v, seg.v_lo), seg.v_hi)
    raise AssertionError("segments do not cover [0, 1]")


def inverse_price(scheme: PricingScheme, i: int, v: float) -> float:
    """sup{s in [0,1] : phi_i(s) <= v}; 0 when even the lowest price exceeds v.

    On constant pieces the supremum is the right endpoint, so at v = L the
    threshold unit returns xi_star rather than 0.
    """
    _check_unit(scheme.model, i)
    model = scheme.model
    if not model.L - 1e-9 <= v <= model.U + 1e-9:
        raise ValidationError(f"valuation {v} outside [{model.L}, {model.U}]")
    for seg in reversed(scheme.segments[i - 1]):
        if v >= seg.v_lo:
            if seg.rate == 0.0 or v >= seg.v_hi:
                return min(seg.s_hi, 1.0)
            s = seg.s_lo + math.log((v - seg.cost) / (seg.v_lo - seg.cost)) / seg.rate
            return min(max(s, seg.s_lo), seg.s_hi)
    return 0.0


def prices_for_seeds(scheme: PricingScheme, seeds: np.ndarray) -> np.ndarray:
    """Vectorized curve evaluation: seeds (n, k) -> prices (n, k).

    Matches price_at segment selection exactly; each column is clamped into
    its segment's [v_lo, v_hi], so every row satisfies the price chain
    P_1 <= ... <= P_k with no tolerance.
    """
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 2 or seeds.shape[1] != scheme.model.k:
        raise ValidationError(f"seed array must have shape (n, {scheme.model.k})")
    if seeds.size and (seeds.min() < 0.0 or seeds.max() > 1.0):
        raise ValidationError("seeds outside [0, 1]")
    out = np.empty_like(seeds)
    for col, (s_lo, s_hi, cost, v_lo, v_hi, rate) in enumerate(scheme._unit_tables):
        s = seeds[:, col]
        idx = np.searchsorted(s_lo, s, side="right") - 1
        p = cost[idx] + (v_lo[idx] - cost[idx]) * np.exp(rate[idx] * (s - s_lo[idx]))
        p = np.clip(p, v_lo[idx], v_hi[idx])
        # same endpoint semantics as price_at
        p = np.where(s <= s_lo[idx], v_lo[idx], p)
        p = np.where(s >= s_hi[idx], v_hi[idx], p)
        out[:, col] = p
    return out


# ---------------------------------------------------------------------------
# builders


def _flat_unit(L: float) -> tuple[Segment, ...]:
    return (Segment(0.0, 1.0, L, L, 0.0, 0.0),)


def _price_intervals(model: CostModel, sol: LowerBoundSolution):
    return tuple((model.L, model.L) for _ in range(sol.k_underbar - 1)) + sol.intervals


def _scheme(model: CostModel, sol: LowerBoundSolution, kind: str, cr: float) -> PricingScheme:
    """Curves inverting the solution's piecewise-log allocation curves.

    Each constant-g piece [a, b] of unit i's interval consumes a seed span of
    (g / alpha) * ln((b - c_i) / (a - c_i)) and prices as
    c_i + (a - c_i) e^{(alpha / g)(s - s0)} on it. Spans telescope to 1 by
    construction; the last endpoint is snapped to exactly 1. The intervals
    are contiguous, so the g-piece index carries from one unit to the next.
    """
    alpha, ku, xi = sol.alpha, sol.k_underbar, sol.xi
    L = model.L
    segments: list[tuple[Segment, ...]] = [_flat_unit(L) for _ in range(ku - 1)]
    top = len(model.g_steps[0])
    j = piece_index(model, L)
    for i, (ell, u) in enumerate(sol.intervals, start=ku):
        c = model.marginals[i - 1]
        raw: list[list[float]] = []
        s = 0.0
        if i == ku:
            raw.append([0.0, xi, L, L, c, 0.0])
            s = xi
        if u > ell:
            for a, b, g in g_pieces(model, ell, u, j):
                span = (g / alpha) * math.log((b - c) / (a - c))
                raw.append([s, s + span, a, b, c, alpha / g])
                s = s + span
        if not raw:  # zero-width interval with no floor piece (u == ell == L)
            raw.append([0.0, 1.0, ell, ell, c, 0.0])
            s = 1.0
        if abs(s - 1.0) > 1e-9:
            raise AssertionError(f"unit {i} seed spans sum to {s}, expected 1")
        raw[-1][1] = 1.0
        segments.append(tuple([Segment(*vals) for vals in raw]))
        if j < top:
            j = piece_index(model, u, j)
    return PricingScheme(
        model=model,
        alpha_star=alpha,
        k_underbar_star=ku,
        xi_star=xi,
        segments=tuple(segments),
        price_intervals=_price_intervals(model, sol),
        cr_guarantee=cr,
        kind=kind,
    )


def build_pricing_scheme(model: CostModel, tol: float = DEFAULT_TOL) -> PricingScheme:
    """Curves for high-value setups (c_k < L), with guarantee alpha e^{alpha/k}."""
    if not model.high_value:
        raise ValidationError(
            "exponential-curve construction requires c_k < L; "
            "use build_pricing_scheme_general"
        )
    sol = solve_alpha_star(model, tol)
    return _scheme(model, sol, "high_value", sol.alpha * math.exp(sol.alpha / model.k))


def build_pricing_scheme_k2(model: CostModel, tol: float = DEFAULT_TOL) -> PricingScheme:
    """Two-unit construction whose guarantee is alpha_star itself.

    Branches on which curve carries the randomization: when alpha_star is
    at least (2L - c1 - c2) / (L - c1) the first unit's curve ramps and the
    second starts where it ends; otherwise the first curve is pinned at L
    and the second carries a constant floor up to seed xi_star.
    """
    if model.k != 2:
        raise ValidationError(f"two-unit construction requires k = 2, got k = {model.k}")
    if not model.high_value:
        raise ValidationError("two-unit construction requires c_2 < L")
    sol = solve_alpha_star(model, tol)
    a = sol.alpha
    L, U = model.L, model.U
    c1, c2 = model.marginals
    threshold = (2.0 * L - c1 - c2) / (L - c1)
    if a >= threshold:
        xi = threshold / a
        u1 = (L - c1) * math.exp((1.0 - xi) * a / 2.0) + c1
        unit1 = [Segment(0.0, xi, L, L, c1, 0.0)]
        if xi < 1.0:
            unit1.append(Segment(xi, 1.0, L, u1, c1, a / 2.0))
        unit2 = (Segment(0.0, 1.0, u1, U, c2, a / 2.0),)
        segments = (tuple(unit1), unit2)
        intervals = ((L, u1), (u1, U))
        ku, xi_star = 1, xi
    else:
        xi = ((2.0 * L - c1 - c2) / a - (L - c1)) / (L - c2)
        xi = min(xi, 1.0)
        unit2 = [Segment(0.0, xi, L, L, c2, 0.0)]
        if xi < 1.0:
            unit2.append(Segment(xi, 1.0, L, U, c2, a / 2.0))
        segments = (_flat_unit(L), tuple(unit2))
        intervals = ((L, L), (L, U))
        ku, xi_star = 2, xi
    return PricingScheme(
        model=model,
        alpha_star=a,
        k_underbar_star=ku,
        xi_star=xi_star,
        segments=segments,
        price_intervals=intervals,
        cr_guarantee=a,
        kind="two_unit",
    )


def build_pricing_scheme_general(model: CostModel, tol: float = DEFAULT_TOL) -> PricingScheme:
    """Curves for any valid setup.

    Guarantee max_i alpha (1 + (U_i - c_i) / f*(U_{i-1})) with U_0 = L.
    """
    sol = solve_alpha_star_general(model, tol)
    uppers = [model.L] + [iv[1] for iv in _price_intervals(model, sol)]
    cr = max(
        sol.alpha * (1.0 + (uppers[i] - model.marginals[i - 1]) / conjugate(model, uppers[i - 1]))
        for i in range(1, model.k + 1)
    )
    return _scheme(model, sol, "general", cr)


def build_scheme(model: CostModel, tol: float = DEFAULT_TOL) -> PricingScheme:
    """Two-unit form for k = 2 high-value setups, else the high-value or
    general labelling of the shared curves."""
    if model.high_value:
        if model.k == 2:
            return build_pricing_scheme_k2(model, tol)
        return build_pricing_scheme(model, tol)
    return build_pricing_scheme_general(model, tol)


_SEGMENT_FIELDS = ("s_lo", "s_hi", "v_lo", "v_hi", "cost", "rate")


def scheme_to_json(scheme: PricingScheme) -> dict:
    """Serialize a scheme; floats survive the JSON round trip bit-exactly."""
    return {
        "model": model_to_json(scheme.model),
        "alpha_star": scheme.alpha_star,
        "k_underbar_star": scheme.k_underbar_star,
        "xi_star": scheme.xi_star,
        "cr_guarantee": scheme.cr_guarantee,
        "kind": scheme.kind,
        "price_intervals": [[lo, hi] for lo, hi in scheme.price_intervals],
        "segments": [
            [{f: getattr(seg, f) for f in _SEGMENT_FIELDS} for seg in unit]
            for unit in scheme.segments
        ],
    }


def scheme_from_json(obj: dict) -> PricingScheme:
    """Rebuild a scheme emitted by :func:`scheme_to_json`."""
    if not isinstance(obj, dict):
        raise ValidationError("scheme spec must be a JSON object")
    try:
        model = model_from_json(obj["model"])
        segments = tuple(
            tuple(Segment(**{f: float(seg[f]) for f in _SEGMENT_FIELDS}) for seg in unit)
            for unit in obj["segments"]
        )
        intervals = tuple((float(lo), float(hi)) for lo, hi in obj["price_intervals"])
        scheme = PricingScheme(
            model=model,
            alpha_star=float(obj["alpha_star"]),
            k_underbar_star=int(obj["k_underbar_star"]),
            xi_star=float(obj["xi_star"]),
            segments=segments,
            price_intervals=intervals,
            cr_guarantee=float(obj["cr_guarantee"]),
            kind=str(obj["kind"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scheme spec: {exc!r}") from None
    if len(scheme.segments) != model.k or len(scheme.price_intervals) != model.k:
        raise ValidationError("scheme spec does not match the model's unit count")
    return scheme
