"""Arrival-instance generators and file I/O.

The staged worst-case family posts k identical buyers at each valuation
stage L, L+eps, ... ; stochastic generators draw truncated normals by
rejection. Every generated valuation lies in [L, U] by construction, never
by clamping, and no generator builds, nor ``read_instance`` reads, more
than MAX_ARRIVALS arrivals or a line of more than MAX_LINE_CHARS characters.
"""

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .cost_model import CostModel
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


def _check_size(n: int) -> None:
    if n > MAX_ARRIVALS:
        raise ValidationError(f"{n} arrivals exceed the ceiling of {MAX_ARRIVALS}")


@dataclass(frozen=True)
class Instance:
    valuations: tuple[float, ...]
    label: str = ""

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
    vals = []
    for j in range(j_t + 1):
        stage = terminal_stage if j == j_t else L + j * epsilon
        vals.extend([stage] * model.k)
    return Instance(
        valuations=tuple(vals),
        label=f"hard(eps={epsilon:g}, terminal={terminal_stage:g})",
    )


def _truncated_normal(
    model: CostModel, n: int, mu: float, sdev: float, rng: np.random.Generator
) -> list[float]:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError(f"n must be a non-negative integer, got {n}")
    _check_size(n)
    if not (math.isfinite(mu) and math.isfinite(sdev)) or sdev < 0:
        raise ValidationError(f"bad distribution parameters mu={mu}, sdev={sdev}")
    L, U = model.L, model.U
    if sdev == 0.0:
        if not L <= mu <= U:
            raise ValidationError(f"degenerate draw at mu={mu} falls outside [{L}, {U}]")
        return [float(mu)] * n
    out: list[float] = []
    for _ in range(_MAX_REJECTION_ROUNDS):
        if len(out) >= n:
            break
        draws = rng.normal(mu, sdev, size=max(2 * (n - len(out)), 64))
        kept = draws[(draws >= L) & (draws <= U)]
        out.extend(float(v) for v in kept[: n - len(out)])
    else:
        raise ValidationError(
            f"rejection sampling stalled: N({mu}, {sdev}) almost never lands in [{L}, {U}]"
        )
    return out


def gen_iid(
    model: CostModel, n: int, mu: float, sdev: float, rng: np.random.Generator
) -> Instance:
    """n independent draws from normal(mu, sdev) conditioned on [L, U]."""
    vals = _truncated_normal(model, n, mu, sdev, rng)
    return Instance(tuple(vals), label=f"iid(n={n}, mu={mu:g}, sdev={sdev:g})")


def gen_sorted(
    model: CostModel, n: int, mu: float, sdev: float, rng: np.random.Generator
) -> Instance:
    """Same draw as gen_iid, then arrivals sorted ascending."""
    vals = sorted(_truncated_normal(model, n, mu, sdev, rng))
    return Instance(tuple(vals), label=f"sorted(n={n}, mu={mu:g}, sdev={sdev:g})")


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
    vals = _truncated_normal(model, n1, mu1, sdev1, rng)
    vals += _truncated_normal(model, n2, mu2, sdev2, rng)
    return Instance(
        tuple(vals),
        label=(
            f"low2high(n1={n1}, mu1={mu1:g}, sdev1={sdev1:g}, "
            f"n2={n2}, mu2={mu2:g}, sdev2={sdev2:g})"
        ),
    )


def instance_text(instance: Instance) -> str:
    """File body: optional label comment plus one valuation per line."""
    lines = []
    if instance.label:
        lines.append(f"# label: {instance.label}")
    lines.extend(f"{v:.17g}" for v in instance.valuations)
    return "\n".join(lines) + "\n" if lines else ""


def _lines(fh, path) -> Iterator[str]:
    """The lines of a text file, read 64K characters at a time, so a line
    longer than MAX_LINE_CHARS is refused, by its number, once that much of
    it has been read."""
    tail, seen = "", 0
    while block := fh.read(1 << 16):
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
    vals: list[float] = []
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
    return Instance(tuple(vals), label=label)
