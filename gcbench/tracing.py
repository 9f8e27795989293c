"""In-memory span tracing of gcruin's public functions, from outside the package.

``Tracer.install`` wraps every public function of each gcruin module (the
names in its ``__all__``) plus ``Distribution.sample`` and
``Distribution.quantile``.  A module that imported a function by name holds
its own reference, so the wrapper replaces the function under every name
that refers to it in any gcruin module.  ``uninstall`` puts the originals
back.  Each call records a span (name, parent, start, end, tag, count).

A layer's self time is its span time minus the time its child spans cover;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from typing import NamedTuple

#: gcruin modules whose public functions are traced, in import order
MODULES = ("measures", "convolutions", "williamson", "walks", "risk", "ruin", "cli")

#: per-call work counters, read from the call's bound arguments
COUNTERS = {
    "measures.Distribution.sample": ("draws", lambda a: a["n"]),
    "walks.apply_step_batch": ("elements", lambda a: a["x"].shape[0]),
    "walks.simulate_terminal_generic": ("moves", lambda a: a["n"] * a["paths"]),
    "ruin.mc_ruin": ("paths", lambda a: a["paths"]),
    "ruin.alpha_ruin_volterra": ("steps", lambda a: a["steps"]),
}

#: spans tagged with a property of their input, for per-kind self time
TAGS = {"walks.apply_step_batch": lambda a: a["alg"].kind}


class Span(NamedTuple):
    name: str
    parent: int
    start: float
    end: float
    tag: str | None
    count: float


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        counter = COUNTERS.get(name)
        tagger = TAGS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            tag, count = None, 0
            if counter or tagger:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if counter:
                    count = counter[1](bound.arguments)
                if tagger:
                    tag = tagger(bound.arguments)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, parent, start, end, tag, count)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"{self.package.__name__}.{m}") for m in MODULES]
        namespaces = [self.package, *mods]
        for short, mod in zip(MODULES, mods):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapper = self._wrap(f"{short}.{attr}", fn)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is fn:
                                self._restore.append((ns, key, val))
                                setattr(ns, key, wrapper)
        dist = self.package.measures.Distribution
        for attr in ("sample", "quantile"):
            fn = vars(dist)[attr]
            self._restore.append((dist, attr, fn))
            setattr(dist, attr, self._wrap(f"measures.Distribution.{attr}", fn))

    def uninstall(self) -> None:
        for ns, key, val in reversed(self._restore):
            setattr(ns, key, val)
        self._restore.clear()

    def take(self) -> list[Span]:
        """Return the recorded spans and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def top_level_seconds(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent < 0)


def layer_metrics(*traces: list[Span]) -> dict[str, float]:
    """Per-layer calls, self time and work counters over one or more span
    lists (each with its own parent indices), keyed
    ``<module>.<function>.<quantity>``."""
    out: dict[str, float] = defaultdict(float)
    elements = 0.0
    for spans in traces:
        for s, own in zip(spans, self_times(spans)):
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += own
            if s.tag is not None:
                out[f"{s.name}.{s.tag}.self_s"] += own
            if s.name in COUNTERS:
                out[f"{s.name}.{COUNTERS[s.name][0]}"] += s.count
            # steps per mc_ruin path: paired claim/premium moves under mc_ruin
            if s.name == "walks.apply_step_batch":
                p = s.parent
                while p >= 0 and spans[p].name != "ruin.mc_ruin":
                    p = spans[p].parent
                if p >= 0:
                    elements += s.count
    paths = out.get("ruin.mc_ruin.paths", 0.0)
    out["ruin.mc_ruin.steps_per_path"] = elements / (2.0 * paths) if paths else 0.0
    return dict(out)
