"""Closed-form interval chain for high-value setups (c_k < L), the O(k)
scans for k_underbar and xi, and the float-by-float bisection on alpha, as
test oracles.

When every marginal lies below L, each interval sits above all marginals, so
the allocation count g is k throughout and every unit's allocation curve is a
single logarithm. Its interval then has a closed form:

    u_{k_underbar} = c + (L - c) e^{(1 - xi) alpha / k}
    u_i            = c_i + (u_{i-1} - c_i) e^{alpha / k}

The package builds chains by walking g piece by piece; these tests compare it
against this independent recursion.

The package reads k_underbar and xi off a cached prefix table of L - c_i;
``scan_k_underbar`` and ``scan_xi`` recompute them by a plain scan over all
units on every call, summing left to right as the table does.

The package finds alpha_star by an ITP search; ``bisect_alpha`` halves the
bracket instead, one float at a time, and counts its chain walks.
"""

from __future__ import annotations

import math

from kselect.cost_model import conjugate
from kselect.lower_bound import DEFAULT_TOL, _chain, threshold


def scan_k_underbar(model, alpha: float) -> int:
    """Least j with sum_{i<=j} (L - c_i) >= min(conjugate(L) / alpha, max prefix)."""
    prefixes = []
    acc = 0.0
    for c in model.marginals:
        acc += model.L - c
        prefixes.append(acc)
    target = min(conjugate(model, model.L) / alpha, max(prefixes))
    return next(j for j, p in enumerate(prefixes, start=1) if p >= target)


def scan_xi(model, alpha: float, k_underbar: int) -> float:
    """Fractional sell-out level of unit k_underbar at L, the head summed in order."""
    L = model.L
    head = 0.0
    for c in model.marginals[: k_underbar - 1]:
        head += L - c
    xi = (conjugate(model, L) / alpha - head) / (L - model.marginals[k_underbar - 1])
    return min(xi, 1.0)


def closed_form_chain(model, alpha: float):
    """(k_underbar, xi, intervals) of the high-value chain at alpha."""
    assert model.high_value, "closed-form chain needs c_k < L"
    k_underbar, xi = threshold(model, alpha)
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


def bisect_alpha(model):
    """(alpha, chain walks) of the float-by-float bisection on alpha.

    The bracket-and-bisect loop the package's solver ran before it switched
    to ITP, over the same ``_chain`` walk: alpha doubles from [1, 2] until
    the chain reaches U, then the bracket halves down to adjacent floats,
    and the end within ``DEFAULT_TOL`` of U is the answer (hi first). Every
    walk records its ends, so none takes the solver's tail estimate. Only
    setups with a solution are meant; the solver's error paths are not
    reproduced.
    """
    U = model.U
    walks = 0

    def u_of(alpha):
        nonlocal walks
        walks += 1
        return _chain(model, alpha, [])

    lo, hi = 1.0, 2.0
    u_lo = u_of(lo)
    if abs(u_lo - U) <= DEFAULT_TOL:
        return lo, walks
    u_hi = u_of(hi)
    while u_hi < U:
        hi *= 2.0
        u_hi = u_of(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        u_mid = u_of(mid)
        if u_mid >= U:
            hi, u_hi = mid, u_mid
        else:
            lo, u_lo = mid, u_mid
    return (hi if abs(u_hi - U) <= DEFAULT_TOL else lo), walks
