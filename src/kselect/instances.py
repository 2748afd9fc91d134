"""Arrival-instance generators and file I/O.

Valuations are one float column. The staged worst-case family posts k identical
buyers at each stage L, L+eps, ...; stochastic generators draw truncated
normals by rejection. Generated valuations lie in [L, U] by construction, never
by clamping, and no generator builds, nor ``read_instance`` reads, more than
MAX_ARRIVALS arrivals or a line of more than MAX_LINE_CHARS characters.
"""

from __future__ import annotations

import math
import os
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .cost_model import CostModel, packed
from .errors import ValidationError

# rejection sampling gives up after this many rounds without filling the
# request (acceptance rate effectively zero)
_MAX_REJECTION_ROUNDS = 10_000

# most arrivals one instance may hold: checked before a generated one is
# built, and line by line while a file is read
MAX_ARRIVALS = 10_000_000
# most characters one line of an instance file may hold, its newline not
# counted: a longer line is refused before the rest of it is read
MAX_LINE_CHARS = 1024
_TEXT_BLOCK = 1 << 16  # valuations per block of text instance_text yields


def _check_size(n: int) -> None:
    if n > MAX_ARRIVALS:
        raise ValidationError(f"{n} arrivals exceed the ceiling of {MAX_ARRIVALS}")


@dataclass(frozen=True)
class Instance:
    """Arrivals in order; any float sequence is packed into ``array("d")``."""

    valuations: array
    label: str = ""
    __hash__ = None  # == compares the column by value; it has no hash

    def __post_init__(self):
        object.__setattr__(self, "valuations", packed(self.valuations))

    def __len__(self) -> int:
        return len(self.valuations)


def hard_instance(model: CostModel, epsilon: float, terminal_stage: float) -> Instance:
    """k identical buyers at each stage L, L+eps, ..., terminal_stage.

    terminal_stage must sit on the eps-grid anchored at L (snapped within
    1e-12 relative); stages are computed as L + j*eps, not by accumulation.
    """
    if not (isinstance(epsilon, (int, float)) and math.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon}")
    L, U = model.L, model.U
    if not L <= terminal_stage <= U:
        raise ValidationError(f"terminal stage {terminal_stage} outside [{L}, {U}]")
    steps = (terminal_stage - L) / epsilon  # inf when epsilon is tiny against the range
    if steps >= MAX_ARRIVALS:
        raise ValidationError(f"epsilon {epsilon:g} gives more than {MAX_ARRIVALS} arrivals")
    j_t = round(steps)
    snapped = L + j_t * epsilon
    if abs(snapped - terminal_stage) > 1e-12 * max(1.0, abs(terminal_stage)):
        raise ValidationError(
            f"terminal stage {terminal_stage} is not on the epsilon grid "
            f"(nearest stage {snapped})"
        )
    _check_size((j_t + 1) * model.k)
    stages = L + np.arange(j_t + 1) * epsilon
    stages[-1] = terminal_stage
    return Instance(
        valuations=np.repeat(stages, model.k),
        label=f"hard(eps={epsilon:g}, terminal={terminal_stage:g})",
    )


def _truncated_normal(
    model: CostModel, n: int, mu: float, sdev: float, rng: np.random.Generator
) -> np.ndarray:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError(f"n must be a non-negative integer, got {n}")
    _check_size(n)
    if not (math.isfinite(mu) and math.isfinite(sdev)) or sdev < 0:
        raise ValidationError(f"bad distribution parameters mu={mu}, sdev={sdev}")
    L, U = model.L, model.U
    if sdev == 0.0:
        if not L <= mu <= U:
            raise ValidationError(f"degenerate draw at mu={mu} falls outside [{L}, {U}]")
        return np.full(n, float(mu))
    kept, missing, rounds = [np.empty(0)], n, 0
    while missing and rounds < _MAX_REJECTION_ROUNDS:
        draws = rng.normal(mu, sdev, size=max(2 * missing, 64))
        kept.append(draws[(draws >= L) & (draws <= U)][:missing])
        missing, rounds = missing - len(kept[-1]), rounds + 1
    if missing:
        raise ValidationError(
            f"rejection sampling stalled: N({mu}, {sdev}) almost never lands in [{L}, {U}]"
        )
    return np.concatenate(kept)


def gen_iid(
    model: CostModel, n: int, mu: float, sdev: float, rng: np.random.Generator
) -> Instance:
    """n independent draws from normal(mu, sdev) conditioned on [L, U]."""
    vals = _truncated_normal(model, n, mu, sdev, rng)
    return Instance(vals, label=f"iid(n={n}, mu={mu:g}, sdev={sdev:g})")


def gen_sorted(
    model: CostModel, n: int, mu: float, sdev: float, rng: np.random.Generator
) -> Instance:
    """Same draw as gen_iid, then arrivals sorted ascending."""
    vals = np.sort(_truncated_normal(model, n, mu, sdev, rng))
    return Instance(vals, label=f"sorted(n={n}, mu={mu:g}, sdev={sdev:g})")


def gen_low2high(
    model: CostModel,
    n1: int,
    mu1: float,
    sdev1: float,
    n2: int,
    mu2: float,
    sdev2: float,
    rng: np.random.Generator,
) -> Instance:
    """A low-valued block followed by a high-valued block, one stream."""
    if isinstance(n1, int) and isinstance(n2, int):
        _check_size(n1 + n2)
    low = _truncated_normal(model, n1, mu1, sdev1, rng)
    high = _truncated_normal(model, n2, mu2, sdev2, rng)
    return Instance(
        np.concatenate((low, high)),
        label=(
            f"low2high(n1={n1}, mu1={mu1:g}, sdev1={sdev1:g}, "
            f"n2={n2}, mu2={mu2:g}, sdev2={sdev2:g})"
        ),
    )


def instance_text(instance: Instance) -> Iterator[str]:
    """File body, in blocks: optional label comment plus one valuation per line."""
    if instance.label:
        yield f"# label: {instance.label}\n"
    vals = instance.valuations
    for a in range(0, len(vals), _TEXT_BLOCK):
        yield "".join([f"{v:.17g}\n" for v in vals[a : a + _TEXT_BLOCK]])


def _lines(fh, path) -> Iterator[str]:
    """The lines of a text file, read 8K characters at a time, so a line
    longer than MAX_LINE_CHARS is refused, by its number, once that much of
    it has been read. A block's lines, held as strings, take about 0.1 MB
    (0.8 MB at 64K characters, as much as 10^5 valuations)."""
    tail, seen = "", 0
    while block := fh.read(1 << 13):
        *lines, tail = (tail + block).split("\n")
        if max(map(len, lines), default=0) > MAX_LINE_CHARS or len(tail) > MAX_LINE_CHARS:
            lines.append(tail)
            first = next(i for i, line in enumerate(lines) if len(line) > MAX_LINE_CHARS)
            raise ValidationError(
                f"{path}: line {seen + first + 1}: longer than {MAX_LINE_CHARS} characters"
            )
        seen += len(lines)
        yield from lines
    if tail:
        yield tail


def read_instance(path: str | os.PathLike) -> Instance:
    label = ""
    vals = array("d")
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(_lines(fh, path), start=1):
                text = line.strip()
                if not text:
                    continue
                if text.startswith("#"):
                    if text.startswith("# label:"):
                        label = text[len("# label:") :].strip()
                    continue
                try:
                    vals.append(float(text))
                except ValueError:
                    raise ValidationError(f"{path}: line {lineno}: not a number: {text!r}")
                if len(vals) > MAX_ARRIVALS:
                    raise ValidationError(
                        f"{path}: more than {MAX_ARRIVALS} arrivals (the ceiling)"
                    )
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    instance = Instance(array("d"), label=label)
    # the column is this reader's alone, so it is handed over, not copied
    object.__setattr__(instance, "valuations", vals)
    return instance
