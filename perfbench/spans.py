"""Spans around ldpkit's layer boundaries, recorded from the benchmark's
own code by rebinding the names one module imports from another.

Each call through a rebound name records a span (name, start, end,
parent) in memory. At the end of an op the op's spans are folded into
per-name totals: calls, total time, and self time (a span's duration
minus the durations of its direct children, which are disjoint and lie
inside it). A large audit makes about 10^6 spans, so spans are kept for
one op at a time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). A module that imported a function by
# name holds its own reference, so each importing module is rebound.
BINDINGS = (
    ("ldpkit.contraction", "egamma", "dist.egamma"),
    ("ldpkit.ldp", "egamma", "dist.egamma"),
    ("ldpkit.contraction", "tv", "dist.tv"),
    ("ldpkit.kernel", "Kernel.row", "kernel.Kernel.row"),
    ("ldpkit.kernel", "Kernel.__post_init__", "kernel.Kernel.init"),
    ("ldpkit.ldp", "pushforward", "kernel.pushforward"),
    ("ldpkit.cli", "load_kernel", "kernel.load_kernel"),
    ("ldpkit.ldp", "eta_gamma_two_point", "contraction.eta_gamma_two_point"),
    ("ldpkit.cli", "eta_gamma_two_point", "contraction.eta_gamma_two_point"),
    ("ldpkit.ldp", "delta_at", "ldp.delta_at"),
    ("ldpkit.cli", "delta_at", "ldp.delta_at"),
    ("ldpkit.ldp", "privacy_profile", "ldp.privacy_profile"),
    ("ldpkit.ldp", "tightest_epsilon", "ldp.tightest_epsilon"),
    ("ldpkit.ldp", "verify_equivalence", "ldp.verify_equivalence"),
    ("ldpkit.cli", "verify_equivalence", "ldp.verify_equivalence"),
    ("ldpkit.info", "simpson", "info.simpson"),
    ("ldpkit.info", "bu_igamma", "info.bu_igamma"),
    ("ldpkit.cli", "bu_igamma", "info.bu_igamma"),
    ("ldpkit.info", "bu_mutual_information", "info.bu_mutual_information"),
    ("ldpkit.cli", "bu_mutual_information", "info.bu_mutual_information"),
    ("ldpkit.bounds", "bayes_gamma_opt_lb", "bounds.bayes_gamma_opt_lb"),
    ("ldpkit.cli", "bayes_gamma_opt_lb", "bounds.bayes_gamma_opt_lb"),
    ("ldpkit.bounds", "bayes_egamma_lb", "bounds.bayes_egamma_lb"),
    ("ldpkit.cli", "bayes_egamma_lb", "bounds.bayes_egamma_lb"),
    ("ldpkit.bounds", "bayes_xu_raginsky_private", "bounds.bayes_xu_raginsky_private"),
    ("ldpkit.cli", "bayes_xu_raginsky_private", "bounds.bayes_xu_raginsky_private"),
    ("ldpkit.bounds", "grid_max", "oracle.grid_max"),
    ("ldpkit.cli", "write_csv", "cli.write_csv"),
    ("ldpkit.cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self):
        self.ids: dict[str, int] = {}
        self.calls: dict[str, float] = defaultdict(float)
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self.missing: set[str] = set()  # span names with no binding left to rebind
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        return self.ids.setdefault(name, len(self.ids))

    def inside(self, name: str) -> bool:
        nid = self.ids.get(name)
        return any(self._name[i] == nid for i in self._stack)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(tracer, *args)`` adds counters."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            if count is not None:
                count(self, *args, **kwargs)
            i = len(self._start)
            self._name.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._end.append(0.0)
            self._stack.append(i)
            self._start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self._end[i] = time.perf_counter()
                self._stack.pop()

        return traced

    def end_op(self):
        """Fold the finished op's spans into the per-name totals."""
        names = np.array(self._name, dtype=np.intp)
        parents = np.array(self._parent, dtype=np.intp)
        dur = np.array(self._end) - np.array(self._start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.ids)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        for name, nid in self.ids.items():
            self.calls[name] += calls[nid]
            self.total[name] += total[nid]
            self.own[name] += own[nid]
        self.ops += 1
        for column in (self._name, self._parent, self._start, self._end):
            column.clear()

    @contextlib.contextmanager
    def installed(self):
        """Rebind every name in BINDINGS for the duration of the block."""
        import ldpkit.cli  # noqa: F401  (loads every module named below)

        hooks = {
            "contraction.eta_gamma_two_point": _count_scan,
            "oracle.grid_max": _count_grid,
        }
        saved, found = [], set()
        for module, attr, name in BINDINGS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
            if original is None:
                continue
            found.add(name)
            fn = _trace_info_fn(self, original) if name == "bounds.bayes_gamma_opt_lb" else original
            saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, fn, hooks.get(name)))
        self.missing = {name for _, _, name in BINDINGS} - found
        try:
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)


def _count_scan(tracer: Tracer, k, *args, **kwargs):
    tracer.counts["scan_bytes"] += 2 * k.input_size**2 * k.output_size * 8
    if tracer.inside("ldp.tightest_epsilon"):
        tracer.counts["tightest_scans"] += 1


def _count_grid(tracer: Tracer, objective, *grids, **kwargs):
    tracer.counts["grid_points"] += float(np.prod([np.size(g) for g in grids]))


def _trace_info_fn(tracer: Tracer, gamma_opt):
    """bayes_gamma_opt_lb, with the caller's info_fn traced as bounds.info_fn."""

    def call(cfg, *args, **kwargs):
        if getattr(cfg, "info_fn", None) is not None:
            cfg = dataclasses.replace(cfg, info_fn=tracer.wrap("bounds.info_fn", cfg.info_fn))
        return gamma_opt(cfg, *args, **kwargs)

    return call
