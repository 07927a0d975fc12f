"""Spans around deferlab's public functions, recorded from outside the package.

``Tracer.install`` replaces a function at every name it is bound to inside
the loaded ``deferlab`` modules, so ``deferlab.harness.train`` (bound by
``from .deferral import train``) is traced as well as
``deferlab.deferral.train``. Wrappers pass arguments, return values and
exceptions through unchanged. Spans are kept in flat arrays and summarised
after the run by ``summarize``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
import types
from array import array
from collections import defaultdict

# Layer boundaries, as "<module>.<function>" under the deferlab package.
SPANS = (
    "config.parse_config",
    "simulate.generate_gaussian_task",
    "simulate.draw_context_set",
    "simulate.expert_predict_batch",
    "experts.build_representation",
    "nets.forward",
    "nets.backward",
    "nets.relu_pattern",
    "nets.sgd_step",
    "deferral.train",
    "deferral.train_pop_avg",
    "evaluation.score_cases",
    "evaluation.case_priorities",
    "evaluation.build_curves",
    "evaluation.area_under",
    "evaluation.write_curve_csv",
    "evaluation.write_metrics_csv",
    "theory.bayes_optimal_reference",
    "harness.run_experiment",
)


class TraceError(RuntimeError):
    """A traced span cannot be installed or never fired."""


def _forward_counts(counters, fn, args, kwargs, result):
    net = args[0] if args else kwargs["net"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    rows = x.shape[0] if x.ndim == 2 else 1
    counters["nets.forward.rows"] += rows
    counters["nets.forward.flops_computed"] += 2 * rows * sum(
        layer.weights.size for layer in net.layers
    )


def _train_counts(counters, query, cfg, result, experts):
    epochs = len(result.history)
    counters["deferral.epochs_run"] += epochs
    counters["deferral.batches"] += epochs * -(-len(query) // cfg.batch_size)
    counters["deferral.pair_steps"] += epochs * len(query) * experts


def _ea_train_counts(counters, fn, args, kwargs, result):
    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    _train_counts(counters, a["query"], a["cfg"], result, len(a["contexts"]))


def _pop_train_counts(counters, fn, args, kwargs, result):
    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    # The baseline's loss has one term per example, whatever the cohort size.
    _train_counts(counters, a["query"], a["cfg"], result, 1)


def _curve_bytes(counters, fn, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["evaluation.write_curve_csv.bytes"] += os.path.getsize(path)


# Counts read from arguments and return values after a call returns.
AFTER_CALL = {
    "nets.forward": _forward_counts,
    "deferral.train": _ea_train_counts,
    "deferral.train_pop_avg": _pop_train_counts,
    "evaluation.write_curve_csv": _curve_bytes,
}


class Tracer:
    """Records one span per call of each wrapped function, plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` recording a span named ``name`` around each call."""
        name_id = len(self.names)
        self.names.append(name)
        after = AFTER_CALL.get(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock, counters = self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(counters, fn, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "deferlab", spans=SPANS) -> None:
        """Wrap each span's function at every binding in the loaded package.

        Raises ``TraceError`` when a span names no function, so a renamed
        or moved function cannot make its layer silently read 0.
        """
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == package or n.startswith(package + ".")) and m is not None
        ]
        for span in spans:
            module_name, func_name = span.rsplit(".", 1)
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, func_name, None)
            if not isinstance(original, types.FunctionType):
                raise TraceError(f"span {span}: {package}.{span} is not a function")
            traced = self.wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def dump(self, prefix: str) -> None:
        """Write the spans to ``prefix.bin`` and names and counters to ``prefix.json``."""
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(prefix + ".json", "w") as fh:
            json.dump(
                {"names": self.names, "count": len(self.start), "counters": dict(self.counters)},
                fh,
            )


def load(prefix: str):
    """Read a dump back as (counters, [(name, start, end, parent index), ...])."""
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    n = meta["count"]
    name_of, parent, start, end = array("i"), array("i"), array("d"), array("d")
    with open(prefix + ".bin", "rb") as fh:
        for arr in (name_of, parent, start, end):
            arr.fromfile(fh, n)
    names = meta["names"]
    spans = [(names[name_of[i]], start[i], end[i], parent[i]) for i in range(n)]
    return meta["counters"], spans


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for s, e in sorted(intervals):
        total += max(0.0, e - max(s, reach))
        reach = max(reach, e)
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive seconds ``s`` and ``self_s``.

    ``spans`` is a list of (name, start, end, parent index or -1). A span's
    self time is its duration minus the part of it that its direct child
    spans cover, each child clipped to the parent's interval.
    """
    children = defaultdict(list)
    for name, s, e, p in spans:
        if p >= 0:
            children[p].append((s, e))
    out: dict[str, dict[str, float]] = {}
    for i, (name, s, e, _) in enumerate(spans):
        stats = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        inner = [(max(cs, s), min(ce, e)) for cs, ce in children.get(i, ()) if ce > s and cs < e]
        stats["calls"] += 1
        stats["s"] += e - s
        stats["self_s"] += (e - s) - covered(inner)
    return out
