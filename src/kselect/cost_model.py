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
  ``v``, which is both the maximizer of the conjugate and its slope. It is
  the one search of the marginals; both take a valuation or an array.

The marginals and the per-unit tables a model derives from them --
cumulative costs, the price-floor prefix and the step table of g -- are
float columns (``array("d")``), each built once by a NumPy pass: scalar
readers index them for Python floats, and vector readers view them with
``np.frombuffer``.
"""

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ValidationError

# Largest capacity accepted; checked before any marginal is built.
MAX_K = 10**6


def packed(values: np.ndarray) -> array:
    """A float column: ``values`` copied once into a packed ``array("d")``.

    Indexing it gives Python floats, not NumPy scalars (whose ``repr``
    differs), ``np.frombuffer`` views it without a copy, and as a dataclass
    field it compares by value, where an ndarray field makes ``==`` raise.
    """
    out = array("d")
    out.frombytes(memoryview(np.ascontiguousarray(values, dtype=np.float64)).cast("B"))
    return out


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """0.0, then the running sums of ``terms``, added left to right (as
    ``np.cumsum`` adds); after the leading 0.0 a first term -0.0 sums to 0.0."""
    return np.cumsum(np.append(0.0, terms))


@dataclass(frozen=True)
class CostModel:
    """Immutable setup {L, U, k, marginals}. Build via :func:`make_cost_model`.

    ``marginals`` is one float column, and ``marginal_column`` a read-only
    NumPy view of it.
    """

    L: float
    U: float
    k: int
    marginals: array  # array("d"): c_1..c_k
    __hash__ = None  # == compares the column by value; it has no hash

    @cached_property
    def marginal_column(self) -> np.ndarray:
        """The marginals as a read-only float64 view of their column."""
        out = np.frombuffer(self.marginals)
        out.flags.writeable = False
        return out

    @cached_property
    def cumulative(self) -> array:
        """Cumulative costs f(0)..f(k), with f(0) = 0, added left to right."""
        return packed(_running_sum(self.marginal_column))

    @cached_property
    def floor_prefix(self) -> array:
        """Running sums ``sum_{i<=j} (L - c_i)`` for j = 1..k, added left to right.

        The price-floor profit of the first j units at valuation L.
        """
        return packed(_running_sum(self.L - self.marginal_column)[1:])

    @cached_property
    def floor_peak(self) -> int:
        """Number of units up to the first maximum of ``floor_prefix``.

        The terms ``L - c_i`` never increase, so the prefix does not decrease
        over these units and is searchable with ``bisect``.
        """
        return int(np.argmax(np.frombuffer(self.floor_prefix))) + 1

    @cached_property
    def g_steps(self) -> tuple[array, array]:
        """Step table of g: the distinct marginals ``b`` and g on each piece.

        Piece j is ``[b[j-1], b[j])`` (unbounded below for j = 0, above for
        j = len(b)); ``bisect_right(b, v)`` is the piece holding v, and g
        equals ``counts[j]`` throughout it. The counts are stored as floats,
        exact for any k up to 2^53, so the chain walk multiplies float by
        float. A run of equal marginals (-0.0 equals 0.0) is one
        breakpoint, its first value.
        """
        ms = self.marginal_column
        first = np.ones(len(ms), dtype=bool)
        first[1:] = ms[1:] != ms[:-1]
        ends = np.append(np.flatnonzero(first[1:]), len(ms) - 1) + 1.0
        return packed(ms[first]), packed(np.append(0.0, ends))

    @property
    def high_value(self) -> bool:
        """True when every marginal cost lies strictly below L."""
        return self.marginals[-1] < self.L

    @property
    def regime(self) -> str:
        """The setup's label: "high_value" when every marginal cost lies
        strictly below L, "general" otherwise."""
        return "high_value" if self.high_value else "general"


def as_float(name: str, value) -> float:
    """``float(value)`` if finite; anything else raises ValidationError."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # an int beyond the float range
        raise ValidationError(f"{name} must be finite, got {value!r}") from None
    if not math.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return out


def as_int(name: str, value, minimum: int | None = None) -> int:
    """An integer given as an int, an integral float or a decimal string,
    and at least ``minimum`` when one is given; anything else raises
    ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        out = int(value)
    except (ValueError, OverflowError):
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if isinstance(value, float) and value != out:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and out < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {out}")
    return out


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
    if k > MAX_K:
        raise ValidationError(f"capacity k = {k} exceeds the ceiling of {MAX_K}")
    L = as_float("L", L)
    U = as_float("U", U)
    if L < 1.0:
        raise ValidationError(f"lowest valuation L must be >= 1, got {L}")
    if U < L:
        raise ValidationError(f"need L <= U, got L={L}, U={U}")
    if (marginals is None) == (quadratic_coeff is None):
        raise ValidationError("give exactly one of marginals or quadratic_coeff")
    if marginals is None:
        a = as_float("quadratic coefficient", quadratic_coeff)
        # c_i = f(i) - f(i-1) for f(i) = a*i^2
        with np.errstate(over="ignore"):
            arr = a * np.arange(1.0, 2.0 * k, 2.0)
    else:
        if isinstance(marginals, (str, bytes, dict)):
            raise ValidationError(f"marginals must be a list of numbers, got {marginals!r}")
        # one NumPy pass; what it does not read as a 1-D column of finite
        # numbers (strings, None, nested lists, NaN, ...) takes the
        # per-element loop, which converts it as float() does or words the
        # error of the first bad marginal
        try:
            arr = np.array(marginals)
        except (TypeError, ValueError, OverflowError):
            arr = np.array(None)
        if not (arr.ndim == 1 and arr.dtype.kind in "fiub" and np.isfinite(arr).all()):
            try:
                arr = np.array(
                    [as_float(f"marginal c_{i}", c) for i, c in enumerate(marginals, 1)]
                )
            except TypeError:
                raise ValidationError(
                    f"marginals must be a list of numbers, got {marginals!r}"
                ) from None
        arr = arr.astype(np.float64, copy=False)
        if len(arr) != k:
            raise ValidationError(f"expected {k} marginals, got {len(arr)}")
    if (~np.isfinite(arr) | (arr < 0.0)).any() or (arr[1:] < arr[:-1]).any():
        # the error of the first bad marginal
        ms = arr.tolist()
        for i, c in enumerate(ms):
            if not math.isfinite(c) or c < 0.0:
                raise ValidationError(f"marginal c_{i + 1} = {c} must be finite and >= 0")
            if i > 0 and c < ms[i - 1]:
                raise ValidationError(
                    f"marginals must be non-decreasing: c_{i + 1} = {c} < c_{i} = {ms[i - 1]}"
                )
    return CostModel(L=L, U=U, k=k, marginals=packed(arr))


def allocation_count_g(model: CostModel, v):
    """Number of marginals <= v: the slope of the conjugate at v.

    Non-decreasing step function of v with jumps at the distinct marginals;
    it is also the production level that maximizes ``v*i - f(i)``. A float
    gives an int, an array an int array; a negative cell raises an error
    naming the first (in C order).
    """
    g = model.marginal_column.searchsorted(v, "right")
    if not isinstance(g, np.ndarray):
        if v < 0.0:
            raise ValidationError(f"valuation must be >= 0, got {v}")
        return int(g)
    cells = np.ravel(v)
    negative = np.flatnonzero(cells < 0.0)
    if negative.size:
        cell = negative[0]
        raise ValidationError(f"valuation must be >= 0, got {cells[cell]} at cell {cell}")
    return g


def conjugate(model: CostModel, v):
    """max over i in {0,..,k} of ``v*i - f(i)``; never negative. A float
    gives a float, an array an array, cell by cell as the float calls."""
    g = allocation_count_g(model, v)
    if isinstance(g, int):
        return v * g - model.cumulative[g]
    return v * g - np.frombuffer(model.cumulative)[g]


def model_to_json(model: CostModel, marginals=None) -> dict:
    """Serialize to the interchange schema (costs always explicit). A writer
    that streams the marginals passes the mark of their place as
    ``marginals``, so that their list is never built."""
    if marginals is None:
        marginals = model.marginals.tolist()
    return {
        "L": model.L,
        "U": model.U,
        "k": model.k,
        "cost": {"type": "explicit", "marginals": marginals},
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
