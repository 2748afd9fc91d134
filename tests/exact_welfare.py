"""Exact expected welfare of the randomized mechanisms, as a test oracle.

The package estimates expected welfare by Monte Carlo: it draws seeds,
evaluates its price tables and runs its sell kernel. This module computes
the same expectations exactly from the solver's allocation curves, sharing
none of that code.

Unit i posts P_i = phi_i(s_i) with s_i uniform on [0, 1], and phi_i is the
nondecreasing inverse of the allocation curve psi_i, so
P(P_i <= v) = psi_i(v) (``eval_psi``), the atom at L included.

* r-dynamic: seeds are independent across units. Once unit i is on offer
  from arrival tau on, it sells to the first arrival t >= tau with
  v_t >= P_i, which is arrival t with probability
  max(psi_i(v_t) - max_{tau <= s < t} psi_i(v_s), 0). Carrying the
  distribution of each unit's sale time to the next unit is a dynamic
  program over sale times, O(k n^2) at worst.
* static surrogate: one price p drawn from the aggregate CDF
  F = mean_i psi_i is posted for every unit. Its welfare W(p) is constant
  for p in (v_(j-1), v_(j)] over the sorted values, so
  E = sum_j (F(v_(j)) - F(v_(j-1))) W(v_(j)) with F(v_(0)) = 0.
"""

from __future__ import annotations

import numpy as np

from kselect.errors import ValidationError
from kselect.lower_bound import _rises


def eval_psi(solution, model, i: int, v: float) -> float:
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
    ell, _ = solution.interval(i)  # L for unit k_underbar
    start = solution.xi if i == solution.k_underbar else 0.0
    if v <= ell:
        return start
    c = model.marginals[i - 1]
    raw = start + float(_rises(model, [c], [ell], [v])[0]) / solution.alpha
    return min(1.0, max(0.0, raw))


def price_cdfs(solution, model, values) -> np.ndarray:
    """(k, n) array of psi_i(v_t), the probability that unit i's price is <= v_t.

    psi_i is 1 below k_underbar, 0 below unit i's interval (xi at L for the
    threshold unit) and 1 from its top end on. Inside the interval it is
    ``eval_psi``: the floor share plus the rise of the allocation curve from
    ell_i to v_t, taken for every such (unit, value) pair in one
    ``_rises`` call.
    """
    v = np.asarray(values, dtype=float)
    out = np.ones((model.k, v.size))
    ku = solution.k_underbar
    ell, u = (end[:, None] for end in solution.intervals.T)  # units k_underbar..k
    start = np.zeros(len(ell))
    start[0] = solution.xi
    unit, t = np.nonzero((v > ell) & (v < u))
    rise = _rises(model, model.marginal_column[ku - 1 :][unit], ell[unit, 0], v[t])
    out[ku - 1 :] = np.where(v >= u, 1.0, start[:, None])
    out[ku - 1 + unit, t] = np.clip(start[unit] + rise / solution.alpha, 0.0, 1.0)
    return out


def dynamic_welfare(solution, model, values) -> float:
    """Expected welfare of the randomized dynamic curves on a fixed arrival order."""
    v = np.asarray(values, dtype=float)
    n = v.size
    psi = price_cdfs(solution, model, v)
    arrivals = np.arange(n)
    # start[tau]: probability that the unit now on offer first meets arrival tau
    start = np.zeros(n + 1)
    start[0] = 1.0
    welfare = 0.0
    for i in range(model.k):
        taus = np.flatnonzero(start[:n])
        # row tau, column t: max of psi_i over arrivals tau..t (0 before tau)
        reach = np.where(arrivals >= taus[:, None], psi[i], 0.0)
        np.maximum.accumulate(reach, axis=1, out=reach)
        sale = start[taus] @ np.diff(reach, axis=1, prepend=0.0)
        welfare += float(sale @ (v - model.marginals[i]))
        start = np.zeros(n + 1)
        start[1:] = sale
    return welfare


def static_welfare(solution, model, values) -> float:
    """Expected welfare of the single-price surrogate on a fixed arrival order."""
    v = np.asarray(values, dtype=float)
    ordered = np.sort(v)
    mass = np.diff(price_cdfs(solution, model, ordered).mean(axis=0), prepend=0.0)
    # price ordered[j]: the first k arrivals valued at least that much buy
    eligible = v >= ordered[:, None]
    buys = eligible & (np.cumsum(eligible, axis=1) <= model.k)
    sold = buys.sum(axis=1)
    welfare = buys @ v - np.asarray(model.cumulative)[sold]
    return float(mass @ welfare)
