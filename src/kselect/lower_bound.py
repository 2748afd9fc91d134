"""Tight competitive-ratio bound and per-unit allocation curves.

For a setup {L, U, k, c} the bound ``alpha_star`` is the smallest ratio any
online policy (randomized included) can guarantee against adversarial
arrivals. It is pinned down by a chain of valuation intervals
``[ell_i, u_i]``, one per unit from ``k_underbar`` upward: unit i's
allocation curve ``psi_i(v)`` (the probability a bound-achieving policy has
sold at least i units once arrivals have swept past valuation v) rises from
0 to 1 across its interval, and the chain must end exactly at
``u_k = U``. ``u_k`` grows monotonically with alpha, so the bound is found
by bisection.

One route builds the chain for every valid cost ladder: the curves integrate
the allocation-count step function ``g``, exactly and piece by piece (``g``
is constant between distinct marginals), never by quadrature. High-value
setups (``c_k < L``) are the special case where every interval lies above
all marginals, so ``g = k`` throughout and each curve is one logarithm; the
``*_general`` entry points and the high-value ones differ only in the
``regime`` label and the ``c_k < L`` check.
"""

import bisect
import math
from dataclasses import dataclass

from .cost_model import CostModel, conjugate
from .errors import DegenerateModelError, SolverError, ValidationError

DEFAULT_TOL = 1e-9
MAX_BRACKET = 2.0**40


@dataclass(frozen=True)
class LowerBoundSolution:
    """Bound value plus the interval chain that certifies it.

    ``intervals[j]`` holds ``(ell_i, u_i)`` for unit ``i = k_underbar + j``;
    units below ``k_underbar`` have no interval (their allocation curve is
    constant 1). ``xi`` is the fractional sell-out level of unit
    ``k_underbar`` at valuation L.
    """

    alpha: float
    k_underbar: int
    xi: float
    intervals: tuple[tuple[float, float], ...]
    regime: str  # "high_value" | "general"
    notes: tuple[str, ...] = ()

    def interval(self, i: int) -> tuple[float, float]:
        if not self.k_underbar <= i <= self.k_underbar + len(self.intervals) - 1:
            raise ValidationError(f"unit {i} has no interval (chain starts at {self.k_underbar})")
        return self.intervals[i - self.k_underbar]


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
    L = model.L
    prefixes = []
    acc = 0.0
    for c in model.marginals:
        acc += L - c
        prefixes.append(acc)
    best = max(prefixes)
    if best <= 0.0:
        raise DegenerateModelError(
            "no unit sells at a profit at the lowest valuation (c_1 >= L)"
        )
    # best equals conjugate(L) analytically; the min() only absorbs the
    # one-ulp drift of sequential summation at the alpha = 1 tie.
    target = min(conjugate(model, L) / alpha, best)
    for i, p in enumerate(prefixes, start=1):
        if p >= target:
            return i
    raise AssertionError("prefix maximum not reached")


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
    head = sum(L - c for c in model.marginals[: k_underbar - 1])
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


def integrate_g(model: CostModel, a: float, b: float) -> float:
    """Integral of the allocation count g over [a, b]: the conjugate's rise."""
    if b < a:
        raise ValidationError(f"empty integration range [{a}, {b}]")
    return conjugate(model, b) - conjugate(model, a)


def _integral_over_pole(model: CostModel, c: float, a: float, b: float) -> float:
    """Exact integral of g(eta) / (eta - c) over [a, b]; needs a > c."""
    total = 0.0
    for lo, hi, g in g_pieces(model, a, b):
        if g:
            total += g * math.log((hi - c) / (lo - c))
    return total


def _solve_u(
    model: CostModel, c: float, a: float, target: float, j: int | None = None
) -> float:
    """Smallest u >= a with integral_a^u g(eta)/(eta - c) d eta = target.

    Walks constant-g pieces from the one holding a (``j``, when known)
    accumulating their exact log contributions and inverts inside the piece
    where the target is met. Overflows to +inf rather than raising (callers
    treat that as "beyond any cap").
    """
    bps, counts = model.g_steps
    if j is None:
        j = piece_index(model, a)
    acc = 0.0
    lo = a
    while True:
        hi = bps[j] if j < len(bps) else math.inf
        g = counts[j]
        if g:
            piece = g * math.log((hi - c) / (lo - c)) if math.isfinite(hi) else math.inf
            if acc + piece >= target:
                return c + (lo - c) * _exp((target - acc) / g)
            acc += piece
        elif not math.isfinite(hi):
            raise AssertionError("allocation count vanishes above all marginals")
        lo = hi
        j += 1


# ---------------------------------------------------------------------------
# the interval chain


def _chain(model: CostModel, alpha: float):
    """Interval chain via exact g-integrals; None when alpha is infeasibly low.

    Infeasible means some interval would open at or below its own marginal
    cost (an integrand pole), which happens for small alpha when costs
    reach above L. Feasibility is monotone in alpha, so the bisection
    treats None as "chain falls short of U".

    The intervals are contiguous, so the walk carries the index of the
    g-piece holding the current endpoint from one unit to the next. Above
    every marginal g = k, and each unit there scales by the same e^{alpha/k}.
    """
    k_underbar = compute_k_underbar(model, alpha)
    xi = compute_xi(model, alpha, k_underbar)
    ms = model.marginals
    top = len(model.g_steps[0])
    step = _exp(alpha / model.k)
    j = piece_index(model, model.L)
    u = _solve_u(model, ms[k_underbar - 1], model.L, alpha * (1.0 - xi), j)
    intervals = [(model.L, u)]
    for i in range(k_underbar + 1, model.k + 1):
        if j < top:
            j = piece_index(model, u, j)
        ell, c = u, ms[i - 1]
        if ell <= c:
            return None
        if j == top:
            u = c + (ell - c) * step
        else:
            u = _solve_u(model, c, ell, alpha, j)
        intervals.append((ell, u))
    return k_underbar, xi, intervals


def _mk_solution(alpha, chain, regime, notes=()) -> LowerBoundSolution:
    k_underbar, xi, intervals = chain
    if xi == 1.0:
        notes = notes + ("k_underbar threshold met exactly (xi == 1)",)
    return LowerBoundSolution(
        alpha=alpha,
        k_underbar=k_underbar,
        xi=xi,
        intervals=tuple(intervals),
        regime=regime,
        notes=notes,
    )


def _intervals_at(model: CostModel, alpha: float, regime: str) -> LowerBoundSolution:
    alpha = _check_alpha(alpha)
    chain = _chain(model, alpha)
    if chain is None:
        raise ValidationError(
            f"alpha = {alpha} is below the feasible range for this setup "
            "(an interval would open below its unit's marginal cost)"
        )
    return _mk_solution(alpha, chain, regime)


def build_intervals(model: CostModel, alpha: float) -> LowerBoundSolution:
    """Interval chain at a given alpha for a high-value setup (c_k < L)."""
    if not model.high_value:
        raise ValidationError(
            "high-value chain requires c_k < L; use build_intervals_general"
        )
    return _intervals_at(model, alpha, "high_value")


def build_intervals_general(model: CostModel, alpha: float) -> LowerBoundSolution:
    """Interval chain at a given alpha via exact piecewise-log integration."""
    return _intervals_at(model, alpha, "general")


# ---------------------------------------------------------------------------
# bisection on alpha


def _solve(model: CostModel, regime: str, tol: float) -> LowerBoundSolution:
    if not (tol > 0.0):
        raise ValidationError(f"tolerance must be positive, got {tol}")
    U = model.U

    if U == model.L:
        # Degenerate valuation range: a single admissible value. No chain can
        # end strictly inside [L, U], so fix alpha at 1 with flat intervals.
        k_underbar = compute_k_underbar(model, 1.0)
        xi = compute_xi(model, 1.0, k_underbar)
        flat = tuple((model.L, model.L) for _ in range(k_underbar, model.k + 1))
        return _mk_solution(
            1.0, (k_underbar, xi, flat), regime, notes=("U == L: alpha fixed at 1",)
        )

    if model.marginals[-1] >= U:
        # The top unit can never sell (its marginal cost reaches the highest
        # admissible valuation), so u_k > c_k >= U at every feasible alpha
        # and the chain cannot terminate at U.
        raise SolverError(
            f"no solution: c_k = {model.marginals[-1]} >= U = {U}, "
            "so the interval chain cannot terminate at U"
        )

    def u_of(alpha):
        chain = _chain(model, alpha)
        return (-math.inf, None) if chain is None else (chain[2][-1][1], chain)

    lo, hi = 1.0, 2.0
    u_lo, chain_lo = u_of(lo)
    if abs(u_lo - U) <= tol and chain_lo is not None:
        return _mk_solution(lo, chain_lo, regime)
    if u_lo > U:
        raise SolverError(f"no bracket: chain already exceeds U at alpha = {lo}")
    u_hi, chain_hi = u_of(hi)
    while u_hi < U:
        hi *= 2.0
        if hi > MAX_BRACKET:
            raise SolverError(f"bracket growth exhausted at alpha = {hi}")
        u_hi, chain_hi = u_of(hi)

    for _ in range(200):
        if not (u_lo <= U <= u_hi):
            raise SolverError("monotone bisection invariant violated")
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        u_mid, chain_mid = u_of(mid)
        if u_mid >= U:
            hi, u_hi, chain_hi = mid, u_mid, chain_mid
        else:
            lo, u_lo, chain_lo = mid, u_mid, chain_mid

    if abs(u_hi - U) <= tol:
        return _mk_solution(hi, chain_hi, regime)
    if chain_lo is not None and abs(u_lo - U) <= tol:
        return _mk_solution(lo, chain_lo, regime)
    raise SolverError(
        f"bisection exhausted: |u_k - U| = {abs(u_hi - U):.3e} exceeds tol = {tol}"
    )


def solve_alpha_star(model: CostModel, tol: float = DEFAULT_TOL) -> LowerBoundSolution:
    """Tight bound for a high-value setup (c_k < L), labelled ``high_value``."""
    if not model.high_value:
        raise ValidationError(
            "high-value solver requires c_k < L; use solve_alpha_star_general"
        )
    return _solve(model, "high_value", tol)


def solve_alpha_star_general(
    model: CostModel, tol: float = DEFAULT_TOL
) -> LowerBoundSolution:
    """Tight bound for any valid cost ladder via exact piecewise integration."""
    return _solve(model, "general", tol)


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
    base = sum(L - c for c in ms[: k_underbar - 1]) + xi * (L - ms[k_underbar - 1])
    max_residual = 0.0
    for t in range(grid_size):
        v = L + (U - L) * t / (grid_size - 1)
        acc = base
        for ell, u in solution.intervals:
            top = min(v, u)
            if top > ell:
                acc += integrate_g(model, ell, top) / alpha
        max_residual = max(max_residual, abs(acc - conjugate(model, v) / alpha))
    return max_residual
