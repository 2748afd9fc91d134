"""Tight competitive-ratio bound and per-unit allocation curves.

For a setup {L, U, k, c} the bound ``alpha_star`` is the smallest ratio any
online policy (randomized included) can guarantee against adversarial
arrivals. It is pinned down by a chain of valuation intervals
``[ell_i, u_i]``, one per unit from ``k_underbar`` upward: unit i's
allocation curve ``psi_i(v)`` (the probability a bound-achieving policy has
sold at least i units once arrivals have swept past valuation v) rises from
0 to 1 across its interval, and the chain must end exactly at
``u_k = U``. ``u_k`` grows monotonically with alpha, so the bound is the
root of ``u_k(alpha) = U`` in a bracket, found by an ITP search
(interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS 47(1),
2020).

One solver, ``solve_alpha_star``, builds the chain for every valid cost
ladder: the curves integrate the allocation-count step function ``g``,
exactly and piece by piece (``g`` is constant between distinct marginals),
never by quadrature. High-value setups (``c_k < L``) are the special case
where every interval lies above all marginals, so ``g = k`` throughout and
each curve is one logarithm; the solution's ``regime`` label records which
case the setup is (``model.high_value``) and changes nothing else. The
search shrinks the bracket to adjacent floats, the same pair that
float-by-float bisection ends on, and accepts the chain whose end lies
within ``DEFAULT_TOL`` of U, or else within ``DEFAULT_TOL * U``. Its steps
interpolate on u_k, so on the benchmark setups it walks the chain 13 to 22
times where bisection walks it 56 or 57, and never more than one walk
beyond it.

Each chain walk is one kernel, ``_chain``. It reads ``k_underbar`` (a
bisect) and ``xi`` (one lookup) off the model's cached prefix table
``CostModel.floor_prefix``, then walks one step per unit, keeping only the
current end: exact g-piece integration, inlined, while the chain is at or
below the top marginal, and a multiply-add by e^{alpha/k} once it is
above, where no unit can open below its cost and the loop tests nothing.
The search walks return ``(k_underbar, xi, u_k)`` alone; one more walk at
the answer, ``build_intervals``, records the chain ends. The solution holds
them as one float column, ``LowerBoundSolution.ends``, from which the
``(ell_i, u_i)`` pairs are read as a view, never built one tuple per unit.
Every walk does the same float operations in the same order, so the
recorded chain ends on the u_k the search saw.

The walk's cost, not the number of walks, is what is left to cut. Near
the root the computed u_k is a staircase at the scale of one ulp of alpha:
at k = 20000, over the 300 floats above alpha_star, 86% of one-ulp steps
leave u_k unchanged and one step moves it by up to 2.3e-13, where the
slope predicts 2.9e-14. So the last halvings cannot be interpolated.
"""

import bisect
import math
from array import array
from dataclasses import dataclass
from itertools import pairwise

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cost_model import CostModel, conjugate
from .errors import DegenerateModelError, SolverError, ValidationError

DEFAULT_TOL = 1e-9
MAX_BRACKET = 2.0**40


@dataclass(frozen=True)
class LowerBoundSolution:
    """Bound value plus the interval chain that certifies it.

    ``ends`` is the chain as one float column: ``u_{k_underbar - 1} = L``,
    then ``u_{k_underbar}, ..., u_k``. Unit ``i``'s interval runs from the
    end before it to its own, so ``intervals[j]`` is ``(ell_i, u_i)`` for
    unit ``i = k_underbar + j``; units below ``k_underbar`` have no
    interval (their allocation curve is constant 1). ``xi`` is the
    fractional sell-out level of unit ``k_underbar`` at valuation L.
    """

    alpha: float
    k_underbar: int
    xi: float
    ends: array  # array("d"): u_{k_underbar - 1} = L, ..., u_k
    regime: str  # "high_value" | "general"
    notes: tuple[str, ...] = ()

    @property
    def intervals(self) -> np.ndarray:
        """The ``(ell_i, u_i)`` rows, i = k_underbar..k: a read-only (n, 2)
        view of ``ends``, in which row j's u is row j + 1's ell."""
        return sliding_window_view(np.frombuffer(self.ends), 2)

    def interval(self, i: int) -> tuple[float, float]:
        """``(ell_i, u_i)`` of unit i, as Python floats."""
        j = i - self.k_underbar
        if not 0 <= j < len(self.ends) - 1:
            raise ValidationError(f"unit {i} has no interval (chain starts at {self.k_underbar})")
        return self.ends[j], self.ends[j + 1]


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 1.0:
        raise ValidationError(f"alpha must be a finite value >= 1, got {alpha}")
    return alpha


def compute_k_underbar(model: CostModel, alpha: float) -> int:
    """Smallest unit count whose price-floor profit covers the bound's share.

    Returns the least j with ``sum_{i<=j} (L - c_i) >= conjugate(L) / alpha``.
    A policy that is alpha-competitive must, facing k buyers at valuation L,
    already extract a 1/alpha fraction of the offline value conjugate(L);
    j is the number of whole units that takes.
    """
    alpha = _check_alpha(alpha)
    prefix, peak = model.floor_prefix, model.floor_peak
    best = prefix[peak - 1]
    if best <= 0.0:
        raise DegenerateModelError(
            "no unit sells at a profit at the lowest valuation (c_1 >= L)"
        )
    # best equals conjugate(L) analytically; the min() only absorbs the
    # one-ulp drift of sequential summation at the alpha = 1 tie.
    target = min(conjugate(model, model.L) / alpha, best)
    # the prefix does not decrease up to its peak, and the peak reaches target
    return bisect.bisect_left(prefix, target, 0, peak) + 1


def compute_xi(model: CostModel, alpha: float, k_underbar: int) -> float:
    """Fractional sell-out level of unit k_underbar at valuation L; in (0, 1]."""
    alpha = _check_alpha(alpha)
    if not 1 <= k_underbar <= model.k:
        raise ValidationError(f"k_underbar out of range: {k_underbar}")
    L = model.L
    denom = L - model.marginals[k_underbar - 1]
    if denom <= 0.0:
        raise DegenerateModelError(
            "xi undefined: lowest valuation equals the marginal cost of unit "
            f"{k_underbar}"
        )
    head = model.floor_prefix[k_underbar - 2] if k_underbar > 1 else 0.0
    xi = (conjugate(model, L) / alpha - head) / denom
    return min(xi, 1.0)


# ---------------------------------------------------------------------------
# exact piecewise integration of the step function g


def piece_index(model: CostModel, v: float, start: int | None = None) -> int:
    """Index of the g-piece holding v (see ``CostModel.g_steps``).

    A caller sweeping v upward passes the index it reached last as ``start``;
    the scan then moves forward from there instead of searching afresh.
    """
    bps = model.g_steps[0]
    if start is None:
        return bisect.bisect_right(bps, v)
    j = start
    while j < len(bps) and bps[j] <= v:
        j += 1
    return j


def g_pieces(model: CostModel, a: float, b: float, j: int | None = None):
    """Yield (lo, hi, g) sub-intervals of [a, b] on which g is constant.

    ``j`` is the piece holding a, when the caller already knows it.
    """
    if b < a:
        raise ValidationError(f"empty integration range [{a}, {b}]")
    bps, counts = model.g_steps
    if j is None:
        j = piece_index(model, a)
    lo = a
    while lo < b:
        hi = min(b, bps[j]) if j < len(bps) else b
        yield lo, hi, counts[j]
        lo = hi
        j += 1


def _integral_over_pole(model: CostModel, c: float, a: float, b: float) -> float:
    """Exact integral of g(eta) / (eta - c) over [a, b]; needs a > c."""
    total = 0.0
    for lo, hi, g in g_pieces(model, a, b):
        if g:
            total += g * math.log((hi - c) / (lo - c))
    return total


# ---------------------------------------------------------------------------
# the interval chain


def _chain(model: CostModel, alpha: float, ends: list | None = None):
    """One walk up the interval chain at alpha: ``(k_underbar, xi, u_k)``, or
    None when alpha is infeasibly low.

    Infeasible means some interval would open at or below its own marginal
    cost (an integrand pole), which happens for small alpha when costs reach
    above L. Feasibility is monotone in alpha, so the search on alpha treats
    None as "chain falls short of U". When ``ends`` is a list, the walk
    appends ``u_{k_underbar}, ..., u_k`` to it (a list appends faster than
    an ``array``, which is made from it once): unit i's interval runs from
    the end before it (L for the first) to its own. The search asks for u_k
    alone; ``build_intervals`` records the ends.

    Unit i's end is the u where the integral of g(eta) / (eta - c_i) from
    the end before it reaches its target: alpha (1 - xi) for unit
    k_underbar, alpha for the rest. g is constant on each piece between
    distinct marginals (``CostModel.g_steps``), so the walk adds one exact
    log per piece and inverts inside the piece where the target is met. The
    intervals are contiguous, so the index of the piece holding the current
    end carries from one unit to the next.

    Once the chain is above the top marginal, g = k for every later unit,
    and each one scales by the same e^{alpha/k} in a plain multiply-add
    loop with no feasibility test. None is needed: u_i - c_i is exact when
    c_i >= u_{i-1} / 2, and otherwise the factor (over 1 + 1e-6, as
    alpha >= 1 and k <= MAX_K) outweighs its rounding, so the computed u_i
    is never below u_{i-1}, and the chain stays above every later cost. A
    chain that lands on the top marginal exactly stays in the checked
    loop, whose top piece is the same multiply-add, until it is above.
    """
    k_underbar = compute_k_underbar(model, alpha)
    xi = compute_xi(model, alpha, k_underbar)
    bps, counts = model.g_steps
    ms, k = model.marginals, model.k
    top, c_top = len(bps), bps[-1]
    log = math.log
    u = model.L
    j = bisect.bisect_right(bps, u)  # piece holding u; g > 0 there, as u > c_1
    c = ms[k_underbar - 1]
    target = alpha * (1.0 - xi)
    i = k_underbar  # units walked, counting the one in hand
    while True:
        lo, acc, p = u, 0.0, j
        while p < top:
            hi = bps[p]
            piece = counts[p] * log((hi - c) / (lo - c))
            if acc + piece >= target:
                break
            acc += piece
            lo = hi
            p += 1
        u = c + (lo - c) * _exp((target - acc) / counts[p])
        if ends is not None:
            ends.append(u)
        if i == k:
            return k_underbar, xi, u
        if u > c_top:
            break
        if u >= lo:  # pieces j..p-1 all end at or below lo
            j = p
        while j < top and bps[j] <= u:
            j += 1
        c = ms[i]
        if u <= c:
            return None
        target = alpha
        i += 1
    step = _exp(alpha / k)
    if ends is None:
        for c in ms[i:]:
            u = c + (u - c) * step
    else:
        for c in ms[i:]:
            u = c + (u - c) * step
            ends.append(u)
    return k_underbar, xi, u


def _mk_solution(
    model: CostModel, alpha, k_underbar, xi, ends: array, notes=()
) -> LowerBoundSolution:
    if xi == 1.0:
        notes = notes + ("k_underbar threshold met exactly (xi == 1)",)
    return LowerBoundSolution(
        alpha=alpha,
        k_underbar=k_underbar,
        xi=xi,
        ends=ends,
        regime="high_value" if model.high_value else "general",
        notes=notes,
    )


def build_intervals(model: CostModel, alpha: float) -> LowerBoundSolution:
    """Interval chain at a given alpha via exact piecewise-log integration."""
    alpha = _check_alpha(alpha)
    ends = [model.L]
    chain = _chain(model, alpha, ends)
    if chain is None:
        raise ValidationError(
            f"alpha = {alpha} is below the feasible range for this setup "
            "(an interval would open below its unit's marginal cost)"
        )
    return _mk_solution(model, alpha, chain[0], chain[1], array("d", ends))


# ---------------------------------------------------------------------------
# root search on alpha


def solve_alpha_star(model: CostModel) -> LowerBoundSolution:
    """Tight bound for any valid cost ladder, labelled by ``model.high_value``."""
    U = model.U

    if U == model.L:
        # Degenerate valuation range: a single admissible value. No chain can
        # end strictly inside [L, U], so fix alpha at 1 with flat intervals.
        k_underbar = compute_k_underbar(model, 1.0)
        xi = compute_xi(model, 1.0, k_underbar)
        flat = array("d", [model.L]) * (model.k - k_underbar + 2)
        return _mk_solution(
            model, 1.0, k_underbar, xi, flat, notes=("U == L: alpha fixed at 1",)
        )

    if model.marginals[-1] >= U:
        # The top unit can never sell (its marginal cost reaches the highest
        # admissible valuation), so u_k > c_k >= U at every feasible alpha
        # and the chain cannot terminate at U.
        raise SolverError(
            f"no solution: c_k = {model.marginals[-1]} >= U = {U}, "
            "so the interval chain cannot terminate at U"
        )

    # The search walks ask for u_k alone; build_intervals walks the chain
    # once more at the answer to record its ends.
    def u_of(alpha):
        chain = _chain(model, alpha)
        return -math.inf if chain is None else chain[2]

    lo, hi = 1.0, 2.0
    u_lo = u_of(lo)
    if abs(u_lo - U) <= DEFAULT_TOL:
        return build_intervals(model, lo)
    if u_lo > U:
        raise SolverError(f"no bracket: chain already exceeds U at alpha = {lo}")
    u_hi = u_of(hi)
    while u_hi < U:
        lo, u_lo = hi, u_hi
        hi *= 2.0
        if hi > MAX_BRACKET:
            raise SolverError(f"bracket growth exhausted at alpha = {hi}")
        u_hi = u_of(hi)

    # ITP (interpolate, truncate, project): step to the regula falsi point,
    # nudged towards the midpoint by kappa1 * width^2 (kappa2 = 2) and kept
    # within r of the midpoint. r shrinks so that the search never needs
    # more than n0 = 1 step beyond bisection's n_half, and it ends on the
    # same adjacent floats. The bracket [lo, 2 lo] holds 2^52 floats spaced
    # ulp(lo) apart, so n_half = 52. An infeasible end (u = -inf) or equal
    # end values take the midpoint.
    kappa1 = 0.2 / (hi - lo)
    spacing = math.ulp(lo)
    n_max = math.ceil(math.log2((hi - lo) / spacing)) + 1
    for j in range(200):
        if not (u_lo <= U <= u_hi):
            raise SolverError("monotone search invariant violated")
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        x = mid
        if math.isfinite(u_lo) and math.isfinite(u_hi) and u_lo != u_hi:
            width = hi - lo
            x_f = (lo * (u_hi - U) - hi * (u_lo - U)) / (u_hi - u_lo)
            delta = kappa1 * width * width
            sigma = 1.0 if mid > x_f else -1.0
            x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
            r = max(spacing * 2.0 ** (n_max - j - 1) - 0.5 * width, 0.0)
            x = x_t if abs(x_t - mid) <= r else mid - sigma * r
            if not lo < x < hi:
                x = mid
        u_x = u_of(x)
        if u_x >= U:
            hi, u_hi = x, u_x
        else:
            lo, u_lo = x, u_x

    # lo and hi are adjacent floats, whose chain ends lie a gap apart that
    # grows with U; an end within DEFAULT_TOL wins first, hi before lo. An
    # infeasible lo (u_lo = -inf) never wins.
    for tol in (DEFAULT_TOL, DEFAULT_TOL * U):
        if abs(u_hi - U) <= tol:
            return build_intervals(model, hi)
        if abs(u_lo - U) <= tol:
            return build_intervals(model, lo)
    raise SolverError(
        f"search exhausted: |u_k - U| = {abs(u_hi - U):.3e} exceeds "
        f"tol = {DEFAULT_TOL * max(U, 1.0):.3e}"
    )


# Not part of the API. perfbench/spans.py times the solver under this name
# too, and its tests fail when a name it wraps is missing; drop the alias
# when the harness renames its solver spans.
solve_alpha_star_general = solve_alpha_star


# ---------------------------------------------------------------------------
# allocation curves and the feasibility identity


def eval_psi(solution: LowerBoundSolution, model: CostModel, i: int, v: float) -> float:
    """Allocation curve of unit i at valuation v, clamped to [0, 1].

    Units below k_underbar are constant 1. Unit k_underbar starts at xi when
    v = L; higher units start at 0 at the left edge of their interval. Values
    are clamped to absorb last-digit rounding at interval endpoints.
    """
    if not 1 <= i <= model.k:
        raise ValidationError(f"unit index {i} out of range 1..{model.k}")
    if not model.L - 1e-9 <= v <= model.U + 1e-9:
        raise ValidationError(f"valuation {v} outside [{model.L}, {model.U}]")
    if i < solution.k_underbar:
        return 1.0
    ell, _ = solution.interval(i)
    c = model.marginals[i - 1]
    alpha = solution.alpha
    if i == solution.k_underbar:
        if v <= model.L:
            return min(1.0, solution.xi)
        raw = solution.xi + _integral_over_pole(model, c, model.L, v) / alpha
    else:
        if v <= ell:
            return 0.0
        raw = _integral_over_pole(model, c, ell, v) / alpha
    return min(1.0, max(0.0, raw))


def verify_equality(
    solution: LowerBoundSolution, model: CostModel, grid_size: int = 1000
) -> float:
    """Max residual of the welfare-accounting identity over a valuation grid.

    For a chain built at any admissible alpha, the expected welfare the
    allocation curves promise up to valuation v must equal the offline value
    scaled by 1/alpha:

        sum_i psi_i(L) * (L - c_i) + sum_i int_L^v (eta - c_i) d psi_i(eta)
            = (1/alpha) * conjugate(v)

    Each inner integral is evaluated in closed form: d psi_i concentrates on
    unit i's interval, where (eta - c_i) d psi_i reduces to g(eta)/alpha d eta,
    whose integral is the rise of the conjugate.
    """
    if grid_size < 2:
        raise ValidationError("grid_size must be at least 2")
    L, U = model.L, model.U
    alpha = solution.alpha
    ms = model.marginals
    k_underbar, xi = solution.k_underbar, solution.xi
    head = model.floor_prefix[k_underbar - 2] if k_underbar > 1 else 0.0
    base = head + xi * (L - ms[k_underbar - 1])
    max_residual = 0.0
    for t in range(grid_size):
        v = L + (U - L) * t / (grid_size - 1)
        acc = base
        for ell, u in pairwise(solution.ends):
            top = min(v, u)
            if top > ell:
                acc += (conjugate(model, top) - conjugate(model, ell)) / alpha
        max_residual = max(max_residual, abs(acc - conjugate(model, v) / alpha))
    return max_residual
