"""Span recording around kselect's public functions, installed from outside.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it began (its parent). Spans of one operation share a run
id. They are kept in memory and written to a file when the operation ends.

Wrappers are installed by replacing every binding of the original function
in the loaded ``kselect`` modules (module attributes and dict values such as
the CLI's builder table), and removed again by :meth:`Recorder.restore`. A
target function that no longer exists is reported as absent; nothing fails.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# span name -> (module, functions wrapped under that name). Each function is
# one that a module calls in the module below it, or the CLI entry point.
TARGETS = {
    "cli.main": ("kselect.cli", ("main",)),
    "cost_model.model_from_json": ("kselect.cost_model", ("model_from_json",)),
    "lower_bound.solve_alpha_star": ("kselect.lower_bound", ("solve_alpha_star",)),
    "lower_bound.solve_alpha_star_general": (
        "kselect.lower_bound",
        ("solve_alpha_star_general",),
    ),
    "pricing.build": (
        "kselect.pricing",
        (
            "build_scheme",
            "build_pricing_scheme",
            "build_pricing_scheme_k2",
            "build_pricing_scheme_general",
        ),
    ),
    "pricing.scheme_to_json": ("kselect.pricing", ("scheme_to_json",)),
    "pricing.prices_for_seeds": ("kselect.pricing", ("prices_for_seeds",)),
    "mechanisms.expected_welfare": ("kselect.mechanisms", ("expected_welfare",)),
    "mechanisms.trial_rng": ("kselect.mechanisms", ("trial_rng",)),
    "mechanisms.static_prices_for_quantiles": (
        "kselect.mechanisms",
        ("static_prices_for_quantiles",),
    ),
    "mechanisms.offline_opt": ("kselect.mechanisms", ("offline_opt",)),
    "mechanisms.run_trial": ("kselect.mechanisms", ("run_trial",)),
    "instances.generate": (
        "kselect.instances",
        ("gen_iid", "gen_sorted", "gen_low2high", "hard_instance"),
    ),
}

STATS = ("calls", "total_s", "self_s")


class Recorder:
    """In-memory span store for one operation, plus per-span work counts.

    ``hooks`` maps a span name to ``(count_name, fn)``; ``fn`` gets the bound
    arguments (by parameter name) and the result and returns the work count
    of that call. A hook that no longer fits the function's signature leaves
    the count absent instead of raising.
    """

    def __init__(self, run_id: str, hooks=None):
        self.run_id = run_id
        self.hooks = dict(hooks or {})
        self.records: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.broken_counts: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def wrap(self, name: str, fn):
        records, stack, clock = self.records, self._stack, time.perf_counter
        hook = self.hooks.get(name)
        signature = _signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(records))
            records.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook:
                self._count(name, hook, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, hook, signature, args, kwargs, result) -> None:
        count_name, fn = hook
        key = f"{name}.{count_name}"
        try:
            bound = signature.bind(*args, **kwargs).arguments
            self.counts[key] += fn(bound, result)
        except (TypeError, KeyError, AttributeError, ValueError):
            self.broken_counts.add(key)

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the names of those that do not."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "kselect" or n.startswith("kselect."))
        ]
        for span, (module_name, functions) in targets.items():
            module = sys.modules.get(module_name)
            found = False
            for fname in functions:
                original = getattr(module, fname, None)
                if not callable(original):
                    continue
                found = True
                wrapper = self.wrap(span, original)
                for m in modules:
                    self._rebind(vars(m), original, wrapper)
            if not found:
                self.absent.append(span)

    def _rebind(self, namespace: dict, original, wrapper) -> None:
        for key, value in list(namespace.items()):
            if value is original:
                self._patched.append((namespace, key, original))
                namespace[key] = wrapper
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        self._patched.append((value, dkey, original))
                        value[dkey] = wrapper

    def restore(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    def write(self, path: str) -> None:
        """Append this operation's spans to ``path``, one JSON object a line."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.records):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": i,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def self_times(records) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(records):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(records):
        covered = 0.0
        run_lo = run_hi = None
        for c_lo, c_hi in sorted(children.get(i, ())):
            c_lo, c_hi = max(c_lo, start), min(c_hi, end)
            if c_hi <= c_lo:
                continue
            if run_hi is None or c_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = c_lo, c_hi
            else:
                run_hi = max(run_hi, c_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(end - start - covered)
    return out


def summarize(records, names=TARGETS) -> dict[str, float]:
    """``<span>.calls``, ``.total_s`` and ``.self_s`` for every span name.

    ``total_s`` counts only the outermost span of a name, so a wrapped
    function calling another wrapped under the same name is not counted
    twice; ``self_s`` sums every span's self time. Names without spans get 0.
    """
    out = {f"{n}.{s}": 0.0 for n in names for s in STATS}
    selfs = self_times(records)
    for i, (name, start, end, parent) in enumerate(records):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[i]
        p = parent
        while p >= 0 and records[p][0] != name:
            p = records[p][3]
        if p < 0:
            out[f"{name}.total_s"] += end - start
    return out
