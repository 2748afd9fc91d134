"""Closed-form interval chain for high-value setups (c_k < L), as a test oracle.

When every marginal lies below L, each interval sits above all marginals, so
the allocation count g is k throughout and every unit's allocation curve is a
single logarithm. Its interval then has a closed form:

    u_{k_underbar} = c + (L - c) e^{(1 - xi) alpha / k}
    u_i            = c_i + (u_{i-1} - c_i) e^{alpha / k}

The package builds chains by walking g piece by piece; these tests compare it
against this independent recursion.
"""

from __future__ import annotations

import math

from kselect.lower_bound import compute_k_underbar, compute_xi


def closed_form_chain(model, alpha: float):
    """(k_underbar, xi, intervals) of the high-value chain at alpha."""
    assert model.high_value, "closed-form chain needs c_k < L"
    k_underbar = compute_k_underbar(model, alpha)
    xi = compute_xi(model, alpha, k_underbar)
    rate = alpha / model.k
    ms = model.marginals
    c = ms[k_underbar - 1]
    u = (model.L - c) * math.exp((1.0 - xi) * rate) + c
    intervals = [(model.L, u)]
    for c in ms[k_underbar:]:
        ell = u
        u = (ell - c) * math.exp(rate) + c
        intervals.append((ell, u))
    return k_underbar, xi, intervals


def closed_form_alpha(model) -> float:
    """Smallest alpha whose closed-form chain reaches U, by plain bisection."""

    def end(alpha):
        return closed_form_chain(model, alpha)[2][-1][1]

    lo, hi = 1.0, 2.0
    while end(hi) < model.U:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if end(mid) >= model.U:
            hi = mid
        else:
            lo = mid
    return hi
