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
each curve is one logarithm. The solution does not record which case
the setup is: that is the model's own ``CostModel.regime``. The search
shrinks the bracket to adjacent floats, the same pair that
float-by-float bisection ends on, and accepts the chain whose end lies
within ``DEFAULT_TOL`` of U, or else within ``DEFAULT_TOL * U``. Its steps
interpolate on log(u_k - c_k), which is close to linear in alpha where
u_k grows like e^alpha, so on the benchmark setups it walks the chain 12
to 14 times where bisection walks it 56 or 57, and never more than one
walk beyond it.

Each chain walk is one kernel, ``_chain``. It takes ``k_underbar`` and
``xi`` from ``threshold``, the one place they are computed (a bisect and
one lookup in the model's cached prefix table ``CostModel.floor_prefix``),
then walks one step per unit, keeping only the current end: exact g-piece
integration, inlined, while the chain is at or below the top marginal, and
``u += (u - c) * expm1(alpha/k)`` once it is above, where no unit can open
below its cost and the loop tests nothing.
A walk returns one float, u_k, or -inf where alpha is infeasible, and the
search probes with it as it is. One more walk at the answer,
``build_intervals``, records the chain ends, which the solution holds as
one float column, ``LowerBoundSolution.ends``, beside ``threshold``'s
``k_underbar`` and ``xi``; the ``(ell_i, u_i)`` pairs are read from it as
a view, never built one tuple per unit.

That tail step is linear in u, so its end has a closed form
(``_tail_estimate``). A search walk whose tail has ``TAIL_ESTIMATE_MIN``
units or more takes it in place of the loop wherever it lies more than
``ESTIMATE_MARGIN * U`` from U and from the end test's bounds, where the
walk's rounding cannot carry the walked end across them. So the estimate
steers the search but never decides which adjacent floats it ends on, nor
which of them it accepts: near U every walk is exact, with the float
operations of ``build_intervals`` in the same order, and the recorded
chain ends on the u_k the search saw. At k = 20000 (price-highvalue) the
search walks the chain 5 times and estimates it 9 times. Near the root of
so long a chain the walked u_k is a staircase of rounding steps, on which
regula falsi keeps one end for many steps; there the search scales the z
of an end it keeps twice running by the Anderson-Bjorck factor (BIT 13,
1973), which leaves ITP's bound on the step count intact.

The tail step adds the rise ``expm1(alpha/k)``, whose rounding is
relative to e^{alpha/k} - 1, about alpha/k, where a multiply by a rounded
e^{alpha/k} puts a relative error of up to 1.1e-16 on every step. Over k
units that error compounds and made the computed u_k a staircase in
alpha: at k = 20000 the multiply left alpha 666 ulps off the root of the
same chain in 40-digit arithmetic, and the rise leaves it 17 ulps off; on
the quadratic ladders up to k = 2000 it is within one ulp.

``g_pieces`` cuts intervals into their constant-g pieces, all at once; the
curve builder (``pricing``) and ``chain_residual`` take every unit's pieces
from it. The certificate integrates each unit's curve over its interval,
apart from the walk, and compares the rise with the unit's share of alpha.
"""

import bisect
import math
from array import array
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cost_model import CostModel, conjugate
from .errors import DegenerateModelError, SolverError, ValidationError

DEFAULT_TOL = 1e-9
MAX_BRACKET = 2.0**40
# A search walk estimates a tail of this many units or more in closed form
# (``_tail_estimate``); a shorter one costs no more to walk (about 20 us at
# 400 units on a 2-core x86 VM, either way).
TAIL_ESTIMATE_MIN = 512
# The estimate stands in for the walk only farther than this share of U
# from U and from the end test's bounds: about 1000 times the walk's
# largest measured stray from it.
ESTIMATE_MARGIN = 1e-10


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


def _exp(x: float, f=math.exp) -> float:
    """``f(x)`` (``math.exp`` or ``math.expm1``), or inf where it overflows."""
    try:
        return f(x)
    except OverflowError:
        return math.inf


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 1.0:
        raise ValidationError(f"alpha must be a finite value >= 1, got {alpha}")
    return alpha


def threshold(model: CostModel, alpha: float) -> tuple[int, float]:
    """The threshold unit ``k_underbar`` at alpha and its floor share ``xi``.

    ``k_underbar`` is the least j with ``sum_{i<=j} (L - c_i) >=
    conjugate(L) / alpha``: a policy that is alpha-competitive must, facing
    k buyers at valuation L, already extract a 1/alpha fraction of the
    offline value conjugate(L), and j is the number of whole units that
    takes. ``xi`` in (0, 1] is the fractional sell-out level of unit
    ``k_underbar`` at L. Every unit up to ``floor_peak`` sells at a profit
    at L, so its ``L - c`` is positive.
    """
    alpha = _check_alpha(alpha)
    prefix, peak = model.floor_prefix, model.floor_peak
    best = prefix[peak - 1]
    if best <= 0.0:
        raise DegenerateModelError(
            "no unit sells at a profit at the lowest valuation (c_1 >= L)"
        )
    share = conjugate(model, model.L) / alpha
    # best equals conjugate(L) analytically; the min() only absorbs the
    # one-ulp drift of sequential summation at the alpha = 1 tie. The
    # prefix does not decrease up to its peak, and the peak reaches it.
    ku = bisect.bisect_left(prefix, min(share, best), 0, peak) + 1
    head = prefix[ku - 2] if ku > 1 else 0.0
    return ku, min((share - head) / (model.L - model.marginals[ku - 1]), 1.0)


# ---------------------------------------------------------------------------
# exact piecewise integration of the step function g


def g_pieces(model: CostModel, lo, hi):
    """Every constant-g piece of the intervals ``[lo[n], hi[n]]``, at once:
    ``(owner, a, b, g, count)``, where piece p is ``[a[p], b[p]]`` of
    interval ``owner[p]``, g is ``g[p]`` on it, and interval n has
    ``count[n]`` pieces, left to right, each ending at the next breakpoint
    of ``CostModel.g_steps`` or at hi. An empty interval is one piece of
    zero width."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if (hi < lo).any():
        raise ValidationError("an integration range ends below its start")
    bps, counts = (np.frombuffer(t) for t in model.g_steps)
    first = np.searchsorted(bps, lo, side="right")  # the piece holding lo
    # an interval's last piece is the first whose breakpoint is at or above hi
    count = np.maximum(np.searchsorted(bps, hi) - first, 0) + 1
    starts = np.cumsum(count) - count
    owner = np.repeat(np.arange(len(lo)), count)
    j = (first - starts)[owner] + np.arange(len(owner))  # each piece's index in g_steps
    b = np.take(bps, j, mode="clip")
    b[starts + count - 1] = hi
    a = np.roll(b, 1)
    a[starts] = lo
    return owner, a, b, counts[j], count


def _rises(model: CostModel, c, lo, hi) -> np.ndarray:
    """Exact integral of g(eta) / (eta - c[n]) over each ``[lo[n], hi[n]]``;
    needs lo > c."""
    owner, a, b, g, _ = g_pieces(model, lo, hi)
    c = np.asarray(c, dtype=float)[owner]
    return np.bincount(owner, weights=g * np.log((b - c) / (a - c)), minlength=len(lo))


# ---------------------------------------------------------------------------
# the interval chain


def _chain(model: CostModel, alpha: float, ends: list | None = None) -> float:
    """One walk up the interval chain at alpha: its end u_k, or -inf when
    alpha is infeasibly low.

    Infeasible means some interval would open at or below its own marginal
    cost (an integrand pole), which happens for small alpha when costs reach
    above L. Feasibility is monotone in alpha, and -inf is below U, so the
    search on alpha reads it as a chain that falls short of U with no
    translation. When ``ends`` is a list, the walk appends ``u_{k_underbar},
    ..., u_k`` to it (a list appends faster than an ``array``, which is made
    from it once): unit i's interval runs from the end before it (L for the
    first) to its own. The search asks for u_k alone; ``build_intervals``
    records the ends. A search walk whose tail above the top marginal has
    ``TAIL_ESTIMATE_MIN`` units or more may return ``_tail_estimate``'s u_k
    in place of walking it; a recording walk never does.

    Unit i's end is the u where the integral of g(eta) / (eta - c_i) from
    the end before it reaches its target: alpha (1 - xi) for unit
    k_underbar, alpha for the rest. g is constant on each piece between
    distinct marginals (``CostModel.g_steps``), so the walk adds one exact
    log per piece and inverts inside the piece where the target is met; an
    end that rounds below the start of that piece is set back to it. The
    intervals are contiguous, so the index of the piece holding the current
    end carries from one unit to the next.

    Once the chain is above the top marginal, g = k for every later unit,
    and each one grows by the same factor e^{alpha/k}, written as the step
    ``u += (u - c_i) * rise`` with ``rise = expm1(alpha / k)``, in a plain
    loop with no feasibility test. None is needed: u - c_i and rise are
    non-negative, so each step adds a non-negative term, the computed u_i
    is never below u_{i-1}, and the chain stays above every later cost. A
    rise that overflows is inf, so the chain ends at inf. A chain that
    lands on the top marginal exactly stays in the checked loop, whose top
    piece is the same integration, until it is above.
    """
    k_underbar, xi = threshold(model, alpha)
    bps, counts = model.g_steps
    ms, k = model.marginals, model.k
    top, c_top = len(bps), bps[-1]
    log = math.log
    u = model.L
    j = bisect.bisect_right(bps, u)  # piece holding u; g > 0 there, as u > c_1
    c = ms[k_underbar - 1]
    target = alpha * (1.0 - xi)
    i = k_underbar  # the unit in hand
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
        if u < lo:
            # rounded below the start of its piece (a share of 0 gives
            # c + (lo - c)); set back, so the ends never decrease
            u = lo
        if ends is not None:
            ends.append(u)
        if i == k:
            return u
        if u > c_top:
            break
        j = p  # pieces j..p-1 all end at or below lo <= u
        while j < top and bps[j] <= u:
            j += 1
        c = ms[i]
        if u <= c:
            return -math.inf
        target = alpha
        i += 1
    rise = _exp(alpha / k, math.expm1)
    if ends is None:
        if k - i >= TAIL_ESTIMATE_MIN:
            estimate = _tail_estimate(model, i, u, rise)
            if estimate is not None:
                return estimate
        for c in ms[i:]:
            u += (u - c) * rise
    else:
        for c in ms[i:]:
            u += (u - c) * rise
            ends.append(u)
    return u


def _powers(step: float, n: int) -> np.ndarray:
    """exp(-t * step) for t = 0..n-1, each the product of at most log2(n)
    ``math.exp`` values, by doubling."""
    out = np.empty(n)
    out[0] = 1.0
    t = 1
    while t < n:
        np.multiply(out[: min(t, n - t)], math.exp(-t * step), out=out[t : 2 * t])
        t *= 2
    return out


def _tail_estimate(model: CostModel, i: int, u: float, rise: float) -> float | None:
    """u_k in closed form, from the chain's end u = u_i above the top
    marginal, or None where the search must walk the tail instead.

    Over the m = k - i units left, with q = 1 + rise, v = u - c_k and
    d_t = c_k - c_{i+1+t} >= 0, the steps ``u += (u - c) * rise`` sum to
    u_k = c_k + q^m v + rise q^(m-1) sum_t d_t q^-t, t = 0..m-1: non-negative
    terms, so nothing cancels. Each q^-t is a product of ``math.exp`` values
    of multiples of log1p(rise) (``_powers``): a few ulps off, with the same
    bits on every host.

    The walk rounds each of its steps, and its end strays from this sum by
    about 1e-13 of the larger of U and u_k (9.1e-14 at most over the
    estimates of the k = 10^6 searches, high-value and general). The
    estimate stands in for the walk only where no such stray can change
    what the search reads from it: it must be finite and lie more than
    ``ESTIMATE_MARGIN * U`` from U and from both bounds of the end test,
    |u_k - U| = DEFAULT_TOL and DEFAULT_TOL * U.
    """
    U, c_k, m = model.U, model.marginals[-1], model.k - i
    step = math.log1p(rise)
    with np.errstate(over="ignore"):
        tail = float(((c_k - model.marginal_column[i:]) * _powers(step, m)).sum())
    estimate = c_k + (_exp(m * step) * (u - c_k) + rise * _exp((m - 1) * step) * tail)
    gap, margin = abs(estimate - U), ESTIMATE_MARGIN * U
    if math.isfinite(estimate) and all(
        abs(gap - bound) > margin for bound in (0.0, DEFAULT_TOL, DEFAULT_TOL * U)
    ):
        return estimate
    return None


def _mk_solution(alpha, k_underbar, xi, ends: array, notes=()) -> LowerBoundSolution:
    if xi == 1.0:
        notes = notes + ("k_underbar threshold met exactly (xi == 1)",)
    return LowerBoundSolution(alpha=alpha, k_underbar=k_underbar, xi=xi, ends=ends, notes=notes)


def build_intervals(model: CostModel, alpha: float) -> LowerBoundSolution:
    """Interval chain at a given alpha via exact piecewise-log integration."""
    alpha = _check_alpha(alpha)
    ends = [model.L]
    if _chain(model, alpha, ends) == -math.inf:
        raise ValidationError(
            f"alpha = {alpha} is below the feasible range for this setup "
            "(an interval would open below its unit's marginal cost)"
        )
    return _mk_solution(alpha, *threshold(model, alpha), array("d", ends))


# ---------------------------------------------------------------------------
# root search on alpha


def _ab_scale(z_old: float, z_new: float) -> float:
    """Anderson-Bjorck factor for the end a step kept a second time running:
    1 - z_new / z_old, where the moved end's z went from z_old to z_new, or
    1/2 when that is not a positive number."""
    scale = 1.0 - z_new / z_old if z_old else 0.0
    return scale if scale > 0.0 else 0.5


def solve_alpha_star(model: CostModel) -> LowerBoundSolution:
    """Tight bound for any valid cost ladder."""
    U = model.U

    if U == model.L and model.marginals[-1] <= U:
        # Degenerate valuation range: a single admissible value. No chain can
        # end strictly inside [L, U], so fix alpha at 1 with flat intervals.
        # A top unit that costs more than U can never sell, so that setup
        # takes the c_k >= U error below, as it does for any U.
        k_underbar, xi = threshold(model, 1.0)
        flat = array("d", [model.L]) * (model.k - k_underbar + 2)
        return _mk_solution(1.0, k_underbar, xi, flat, notes=("U == L: alpha fixed at 1",))

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
    lo, hi = 1.0, 2.0
    u_lo = _chain(model, lo)
    if abs(u_lo - U) <= DEFAULT_TOL:
        return build_intervals(model, lo)
    if u_lo > U:
        raise SolverError(f"no bracket: chain already exceeds U at alpha = {lo}")
    u_hi = _chain(model, hi)
    while u_hi < U:
        lo, u_lo = hi, u_hi
        hi *= 2.0
        if hi > MAX_BRACKET:
            raise SolverError(f"bracket growth exhausted at alpha = {hi}")
        u_hi = _chain(model, hi)

    # ITP (interpolate, truncate, project): step to the regula falsi point,
    # nudged towards the midpoint by kappa1 * width^2 (kappa2 = 2) and kept
    # within r of the midpoint. r shrinks so that the search never needs
    # more than n0 = 1 step beyond bisection's n_half, and it ends on the
    # same adjacent floats. The bracket [lo, 2 lo] holds 2^52 floats spaced
    # ulp(lo) apart, so n_half = 52. The interpolation runs on
    # z = log((u_k - c_k) / (U - c_k)), whose root is u_k = U: u_k - c_k
    # grows about like e^alpha, so z is close to linear in alpha where u_k
    # itself is steep. An infeasible end (z = -inf), an infinite one, or
    # ends whose z values are equal (two distinct u_k can round to the same
    # log) take the midpoint. On a chain long enough to estimate a tail, an
    # end kept twice running has its z scaled by ``_ab_scale``, which pulls
    # the next regula falsi point towards it (see the module docstring); the
    # scaled z keeps its sign, so the projection keeps its bound.
    c_k = model.marginals[-1]

    def z_of(u):
        ratio = (u - c_k) / (U - c_k)  # -inf when infeasible; 0 if it underflows
        return math.log(ratio) if ratio > 0.0 else -math.inf

    z_lo, z_hi = z_of(u_lo), z_of(u_hi)
    kappa1 = 0.2 / (hi - lo)
    spacing = math.ulp(lo)
    n_max = math.ceil(math.log2((hi - lo) / spacing)) + 1
    moved = 0  # 1 after a step that moved hi, -1 after one that moved lo
    scaled = model.k >= TAIL_ESTIMATE_MIN
    for j in range(200):
        if not (u_lo <= U <= u_hi):
            raise SolverError("monotone search invariant violated")
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        x = mid
        if math.isfinite(z_lo) and math.isfinite(z_hi) and z_lo != z_hi:
            width = hi - lo
            x_f = (lo * z_hi - hi * z_lo) / (z_hi - z_lo)
            # a point on or past an end (u_k = U exactly at hi makes it hi
            # itself) would fall back to the midpoint, which then halves the
            # gap from the far end step by step: probe next to the end
            if x_f <= lo:
                x_f = math.nextafter(lo, hi)
            elif x_f >= hi:
                x_f = math.nextafter(hi, lo)
            delta = kappa1 * width * width
            sigma = 1.0 if mid > x_f else -1.0
            x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
            r = max(spacing * 2.0 ** (n_max - j - 1) - 0.5 * width, 0.0)
            x = x_t if abs(x_t - mid) <= r else mid - sigma * r
            if not lo < x < hi:
                x = mid
        u_x = _chain(model, x)
        z_x = z_of(u_x)
        if u_x >= U:
            if moved > 0 and scaled:
                z_lo *= _ab_scale(z_hi, z_x)
            hi, u_hi, z_hi, moved = x, u_x, z_x, 1
        else:
            if moved < 0 and scaled:
                z_hi *= _ab_scale(z_lo, z_x)
            lo, u_lo, z_lo, moved = x, u_x, z_x, -1

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


def solution_at(model: CostModel, alpha: float) -> LowerBoundSolution:
    """The solver's solution at a given alpha, found with no search: the
    chain ``build_intervals`` walks, if its end passes the solver's end test
    ``|u_k - U| <= DEFAULT_TOL * max(1, U)``. Where the solver needs no
    search (U == L fixes alpha at 1; c_k >= U has no solution), its answer
    must be alpha. Raises SolverError otherwise."""
    U = model.U
    fixed = U == model.L or model.marginals[-1] >= U
    sol = solve_alpha_star(model) if fixed else build_intervals(model, alpha)
    if sol.alpha != alpha or not abs(sol.ends[-1] - U) <= DEFAULT_TOL * max(1.0, U):
        raise SolverError(
            f"alpha = {alpha!r} is not a bound the solver accepts: the chain at "
            f"{sol.alpha!r} ends at {sol.ends[-1]!r}, U = {U!r}"
        )
    return sol


# Not part of the API. perfbench/spans.py times the solver under this name
# too, and its tests fail when a name it wraps is missing; drop the alias
# when the harness renames its solver spans.
solve_alpha_star_general = solve_alpha_star


# ---------------------------------------------------------------------------
# the chain certificate


def chain_residual(solution: LowerBoundSolution, model: CostModel) -> float:
    """Largest miss of the per-unit chain equations, as a share of alpha.

    Unit i's curve rises over its interval by the integral of
    g(eta) / (eta - c_i) from ell_i to u_i, divided by alpha; the chain
    makes that rise 1 - xi for unit k_underbar and 1 for every later unit.
    The integrals are taken over every unit's ``g_pieces`` at once, not by
    the walk that built the chain, so wrong ends fail the check while the
    solver's chain passes at any feasible alpha. Returns the largest
    |rise - share|, inf when an interval opens at or below its unit's cost,
    and 0 when U == L, where alpha is fixed at 1 and no chain equation
    applies. An end below the one before it, which the solver's walk never
    writes, counts as a negative rise. The end test |u_k - U| is the
    solver's, not this check's.
    """
    if model.U == model.L:
        return 0.0
    ell, u = solution.intervals.T
    lo, hi = np.minimum(ell, u), np.maximum(ell, u)
    c = model.marginal_column[solution.k_underbar - 1 :]
    if np.any(lo <= c):
        return math.inf
    rise = np.copysign(_rises(model, c, lo, hi), u - ell) / solution.alpha
    rise[0] += solution.xi  # unit k_underbar's share is 1 - xi
    return float(np.max(np.abs(rise - 1.0)))
