"""Setup data for the selection problem: valuation bounds and production costs.

A setup consists of valuation bounds ``1 <= L <= U``, a capacity ``k``, and
marginal production costs ``c_1 <= ... <= c_k`` (diseconomies of scale: each
additional unit costs at least as much to produce as the previous one).
Cumulative cost is ``f(j) = c_1 + ... + c_j`` with ``f(0) = 0``.

Two derived quantities drive the solvers:

* ``conjugate(model, v) = max_{0 <= i <= k} (v*i - f(i))`` -- the best offline
  welfare extractable from an unlimited supply of buyers at valuation ``v``.
  The maximum admits ``i = 0`` so the conjugate is never negative.
* ``allocation_count_g(model, v)`` -- the number of marginals at or below
  ``v``, which is both the maximizer of the conjugate and its slope.
"""

import bisect
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import ValidationError


@dataclass(frozen=True)
class CostModel:
    """Immutable setup {L, U, k, marginals}. Build via :func:`make_cost_model`."""

    L: float
    U: float
    k: int
    marginals: tuple[float, ...]

    @cached_property
    def cumulative(self) -> tuple[float, ...]:
        """Cumulative costs f(0)..f(k), with f(0) = 0."""
        acc = 0.0
        out = [0.0]
        for c in self.marginals:
            acc += c
            out.append(acc)
        return tuple(out)

    @cached_property
    def g_steps(self) -> tuple[tuple[float, ...], array]:
        """Step table of g: the distinct marginals ``b`` and g on each piece.

        Piece j is ``[b[j-1], b[j])`` (unbounded below for j = 0, above for
        j = len(b)); ``bisect_right(b, v)`` is the piece holding v, and g
        equals ``counts[j]`` throughout it. The counts are a packed array
        so that large ladders do not hold one int object per piece.
        """
        bps: list[float] = []
        counts = array("q", [0])
        for n, c in enumerate(self.marginals, start=1):
            if bps and c == bps[-1]:
                counts[-1] = n
            else:
                bps.append(c)
                counts.append(n)
        return tuple(bps), counts

    @property
    def high_value(self) -> bool:
        """True when every marginal cost lies strictly below L."""
        return self.marginals[-1] < self.L


def as_float(name: str, value) -> float:
    """``float(value)``, raising ValidationError instead of TypeError/ValueError."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None


def make_cost_model(
    L: float,
    U: float,
    k: int,
    marginals: Sequence[float] | None = None,
    quadratic_coeff: float | None = None,
) -> CostModel:
    """Validate and build a setup.

    Costs are given either as an explicit list of ``k`` marginals or as the
    coefficient ``a`` of the quadratic cumulative rule ``f(i) = a*i**2``,
    which expands to marginals ``c_i = a*(2i - 1)``.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"capacity k must be a positive integer, got {k!r}")
    L = as_float("L", L)
    U = as_float("U", U)
    if not (math.isfinite(L) and math.isfinite(U)):
        raise ValidationError("valuation bounds must be finite")
    if L < 1.0:
        raise ValidationError(f"lowest valuation L must be >= 1, got {L}")
    if U < L:
        raise ValidationError(f"need L <= U, got L={L}, U={U}")
    if (marginals is None) == (quadratic_coeff is None):
        raise ValidationError("give exactly one of marginals or quadratic_coeff")
    if marginals is None:
        a = as_float("quadratic coefficient", quadratic_coeff)
        if not math.isfinite(a):
            raise ValidationError("quadratic coefficient must be finite")
        # c_i = f(i) - f(i-1) for f(i) = a*i^2
        ms = tuple(a * (2 * i - 1) for i in range(1, k + 1))
    else:
        if isinstance(marginals, (str, bytes, dict)):
            raise ValidationError(f"marginals must be a list of numbers, got {marginals!r}")
        try:
            ms = tuple(as_float(f"marginal c_{i}", c) for i, c in enumerate(marginals, 1))
        except TypeError:
            raise ValidationError(f"marginals must be a list of numbers, got {marginals!r}") from None
        if len(ms) != k:
            raise ValidationError(f"expected {k} marginals, got {len(ms)}")
    for i, c in enumerate(ms):
        if not math.isfinite(c) or c < 0.0:
            raise ValidationError(f"marginal c_{i + 1} = {c} must be finite and >= 0")
        if i > 0 and c < ms[i - 1]:
            raise ValidationError(
                f"marginals must be non-decreasing: c_{i + 1} = {c} < c_{i} = {ms[i - 1]}"
            )
    return CostModel(L=L, U=U, k=k, marginals=ms)


def cumulative_cost(model: CostModel, j: int) -> float:
    """Total cost f(j) of producing the first j units; f(0) = 0."""
    if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j <= model.k:
        raise ValidationError(f"unit count must lie in 0..{model.k}, got {j!r}")
    return model.cumulative[j]


def allocation_count_g(model: CostModel, v: float) -> int:
    """Number of marginals <= v: the slope of the conjugate at v.

    Non-decreasing step function of v with jumps at the distinct marginals;
    it is also the production level that maximizes ``v*i - f(i)``.
    """
    if v < 0.0:
        raise ValidationError(f"valuation must be >= 0, got {v}")
    return bisect.bisect_right(model.marginals, v)


def conjugate(model: CostModel, v: float) -> float:
    """max over i in {0,..,k} of ``v*i - f(i)``; never negative."""
    g = allocation_count_g(model, v)
    return v * g - model.cumulative[g]


def model_to_json(model: CostModel) -> dict:
    """Serialize to the interchange schema (costs always explicit)."""
    return {
        "L": model.L,
        "U": model.U,
        "k": model.k,
        "cost": {"type": "explicit", "marginals": list(model.marginals)},
    }


def model_from_json(obj: dict) -> CostModel:
    """Parse the interchange schema; accepts explicit or quadratic costs."""
    if not isinstance(obj, dict):
        raise ValidationError("model spec must be a JSON object")
    try:
        L, U, k, cost = obj["L"], obj["U"], obj["k"], obj["cost"]
    except KeyError as exc:
        raise ValidationError(f"model spec missing key {exc.args[0]!r}") from None
    if not isinstance(cost, dict) or "type" not in cost:
        raise ValidationError("model cost spec must be an object with a 'type'")
    if cost["type"] == "explicit":
        if "marginals" not in cost:
            raise ValidationError("explicit cost spec needs 'marginals'")
        return make_cost_model(L, U, k, marginals=cost["marginals"])
    if cost["type"] == "quadratic":
        if "coeff" not in cost:
            raise ValidationError("quadratic cost spec needs 'coeff'")
        return make_cost_model(L, U, k, quadratic_coeff=cost["coeff"])
    raise ValidationError(f"unknown cost type {cost['type']!r}")
