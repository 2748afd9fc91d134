"""The interval chain in 40-digit arithmetic, and the root of u_k(alpha) = U
on it, as a test oracle for the accuracy of the solver's alpha.

``MpChain`` walks the same chain as the package's ``_chain``, with every
quantity an mpmath number carried to ``DIGITS`` significant digits:
k_underbar and xi from exact prefix sums of L - c_i, then one unit at a
time, g piece by piece over ``CostModel.g_steps`` (an exact log per piece,
inverted inside the piece where the unit's target is met) while the chain
is at or below the top marginal, and the closed-form recursion

    u_i = c_i + (u_{i-1} - c_i) e^{alpha / k}

once it is above, where g = k. High-value setups (c_k < L) start above the
top marginal, so their whole chain is the recursion.

``root`` solves u_k(alpha) = U by a secant started from the float solver's
alpha, which lies within a few ulps of the root, so that it takes a few
walks where a bisection to 40 digits would take over a hundred.
"""

from __future__ import annotations

import bisect
import math

from mpmath import mp, mpf

DIGITS = 40


class MpChain:
    """The chain of one model, walked in ``DIGITS``-digit arithmetic."""

    def __init__(self, model):
        self.model = model
        with mp.workdps(DIGITS):
            self.L, self.U = mpf(model.L), mpf(model.U)
            self.ms = [mpf(c) for c in model.marginals]
            prefix, acc = [], mpf(0)
            for c in self.ms:
                acc += self.L - c
                prefix.append(acc)
            self.prefix = prefix
            self.conj_L = max(max(prefix), mpf(0))
            bps, counts = model.g_steps
            self.bps = [mpf(b) for b in bps]
            self.counts = [int(n) for n in counts]

    def end(self, alpha: mpf) -> mpf | None:
        """u_k at alpha, or None when some unit would open at or below its
        own marginal cost; called inside ``mp.workdps(DIGITS)``."""
        ms, k, bps, counts = self.ms, self.model.k, self.bps, self.counts
        top = len(bps)
        share = self.conj_L / alpha
        k_underbar = next(j for j, p in enumerate(self.prefix, 1) if p >= share)
        head = self.prefix[k_underbar - 2] if k_underbar > 1 else mpf(0)
        xi = min((share - head) / (self.L - ms[k_underbar - 1]), mpf(1))
        u = self.L
        j = bisect.bisect_right(bps, u)
        target = alpha * (1 - xi)
        i = k_underbar
        while True:
            c = ms[i - 1]
            if u <= c:
                return None
            lo, acc = u, mpf(0)
            while j < top:
                piece = counts[j] * mp.log((bps[j] - c) / (lo - c))
                if acc + piece >= target:
                    break
                acc += piece
                lo = bps[j]
                j += 1
            u = c + (lo - c) * mp.exp((target - acc) / counts[j])
            while j < top and bps[j] <= u:
                j += 1
            if i == k:
                return u
            i += 1
            target = alpha
            if u > bps[-1]:
                break
        # above the top marginal g = k, so each later unit is one step of
        # the closed-form recursion
        rise = mp.exp(alpha / k)
        for c in ms[i - 1 :]:
            u = c + (u - c) * rise
        return u

    def root(self, alpha0: float) -> mpf:
        """The alpha where u_k = U, to ``DIGITS`` digits, by a secant from
        alpha0 and alpha0 (1 + 2^-30)."""
        with mp.workdps(DIGITS):
            x0 = mpf(alpha0)
            x1 = x0 * (1 + mpf(2) ** -30)
            f0, f1 = self.end(x0) - self.U, self.end(x1) - self.U
            for _ in range(30):
                x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
                f1 = self.end(x1) - self.U
                if abs(x1 - x0) <= abs(x1) * mpf(10) ** (8 - DIGITS):
                    return x1
        raise AssertionError(f"secant did not converge from alpha = {alpha0!r}")

    def ulps_off(self, alpha: float) -> float:
        """How far alpha lies from the root, in ulps of alpha."""
        with mp.workdps(DIGITS):
            return float((mpf(alpha) - self.root(alpha)) / math.ulp(alpha))
