"""Spans around p1height's public layer calls, recorded from outside the package.

Each target is wrapped at the module attribute its caller looks up, so no
file under src/ changes: ``cli._execute`` finds ``parse_map``,
``trial_division`` and ``canonical_height`` in ``p1height.cli``;
``MapLift.from_forms`` and ``MapLift.cofactor_identity`` find
``resultant`` and ``cofactors`` in ``p1height.forms``; ``canonical_height``
finds both series drivers in ``p1height.height``.  ``cofactors`` runs
lazily inside ``arch_height`` (through ``arch_step_bound``), so it is a
child of ``arch.series`` and its time is subtracted from that span's self
time.

A span is [name, start, end, parent index, job id], kept in memory.
"""

from __future__ import annotations

import functools
import importlib
from bisect import bisect_right
from time import perf_counter

# (module, attribute, span name); the span name's prefix is its layer
TARGETS = (
    ("p1height.cli", "run", "cli.run"),
    ("p1height.cli", "parse_map", "forms.parse_map"),
    ("p1height.forms", "resultant", "forms.resultant"),
    ("p1height.forms", "cofactors", "forms.cofactors"),
    ("p1height.cli", "trial_division", "nonarch.trial_division"),
    ("p1height.cli", "canonical_height", "height.assemble"),
    ("p1height.height", "nonarch_height", "nonarch.gcd_loop"),
    ("p1height.height", "nonarch_height_factored", "nonarch.gcd_loop"),
    ("p1height.height", "arch_height", "arch.series"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
LAYERS = ("forms", "nonarch", "arch", "height", "cli")


class Tracer:
    """Installs span-recording wrappers on the targets, and removes them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for modname, attr, name in TARGETS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper


def self_times(spans: list[list], pauses) -> list[float]:
    """Each span's duration minus its direct children and the pauses inside it.

    pauses are (start, duration) pairs of host-speed kernel runs; each is
    taken from the innermost span it interrupted.  The self times of one
    job's spans therefore add up to its time without pauses.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    roots = [i for i, span in enumerate(spans) if span[3] is None] + [len(spans)]
    root_starts = [spans[i][1] for i in roots[:-1]]
    for t, d in pauses:
        k = bisect_right(root_starts, t) - 1
        if k < 0 or t >= spans[roots[k]][2]:
            continue
        # spans of one job follow its root; the latest started one around t is innermost
        out[max(i for i in range(roots[k], roots[k + 1]) if spans[i][1] <= t < spans[i][2])] -= d
    return out


def layer_metrics(spans: list[list], jobs: int, pauses) -> dict[str, float]:
    """Per-job self time and calls of each span name, and each layer's share of job time."""
    own = self_times(spans, pauses)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    for (name, *_), t in zip(spans, own):
        self_s[name] += t
        calls[name] += 1
    job_time = sum(own)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = self_s[name] / jobs
        out[f"{name}.calls"] = calls[name] / jobs
    for layer in LAYERS:
        busy = sum(t for name, t in self_s.items() if name.startswith(layer + "."))
        out[f"{layer}.share"] = busy / job_time
    out["nonarch.gcd_loop.share"] = self_s["nonarch.gcd_loop"] / job_time
    return out
