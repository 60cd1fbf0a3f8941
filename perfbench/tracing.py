"""In-memory spans around the public functions of each floqchern layer.

`Tracer.install()` swaps every public function a layer module defines for
a wrapper that records one span per call, in every floqchern namespace
that holds a reference to it (modules import each other's functions by
name), and `uninstall()` puts the originals back.  The package's own
source is not touched.  Spans recorded inside forked pool workers stay
in those workers and are not seen here.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time

LAYERS = ("drive", "effective", "optimizer", "bloch", "validate", "svg", "cli")

#: scalar helpers called many times per evaluation; a span each would
#: cost more than the work they do
UNTRACED = {"wrap_angle", "family_harmonic_integer", "default_geometry", "worker_count"}


def _tag(name, args, kwargs):
    """Attributes kept with a span: the BZ grid of a Chern diagram, the
    k-points x steps of a propagator comparison, and the problem whose
    starts `sobol_starts` draws (one call per maximisation run)."""
    if name == "optimizer.sobol_starts":
        return args[0] if args else kwargs["problem"]
    if name == "bloch.phase_diagram":
        return kwargs.get("N1", 48)
    if name == "validate.compare_effective" and isinstance(args[4], int):
        return args[4] * args[4] * args[5].steps_per_period
    return None


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, request, name, start, end, tag)
        self.request = 0
        self._stack = []
        self._next = 1
        self._patched = []       # (namespace, attribute, original)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer.request, name, start, end,
                                     _tag(name, args, kwargs)))
        return traced

    def install(self):
        package = sys.modules["floqchern"]
        namespaces = [package] + [sys.modules[f"floqchern.{m}"] for m in LAYERS]
        for layer in LAYERS:
            module = sys.modules[f"floqchern.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or attr in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._patched.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def sweep_problems(self):
        """The problems maximised by the first traced `sweep_targets` call:
        the tags of the `sobol_starts` spans directly under it."""
        sweeps = [s[0] for s in self.spans if s[3] == "optimizer.sweep_targets"]
        return [s[6] for s in self.spans
                if s[3] == "optimizer.sobol_starts" and sweeps and s[1] == min(sweeps)]

    def durations(self, name, tag=None):
        return [s[5] - s[4] for s in self.spans
                if s[3] == name and (tag is None or s[6] == tag)]

    def cli_self_times(self):
        """Per `cli.main` call: its duration minus the time spent in the
        library calls the CLI layer made (its non-cli child spans)."""
        by_id = {s[0]: s for s in self.spans}
        inner = {}
        for s in self.spans:
            parent = by_id.get(s[1])
            if parent is not None and parent[3].startswith("cli.") and not s[3].startswith("cli."):
                root = parent
                while root[3] != "cli.main" and root[1] in by_id:
                    root = by_id[root[1]]
                inner[root[0]] = inner.get(root[0], 0.0) + (s[5] - s[4])
        return [(s[5] - s[4]) - inner.get(s[0], 0.0) for s in self.spans if s[3] == "cli.main"]

    def write(self, path):
        """All spans as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("id\tparent\trequest\tname\tstart_s\tend_s\ttag\n")
            for sid, parent, req, name, start, end, tag in self.spans:
                if hasattr(tag, "phi_target"):
                    tag = f"{tag.family}:{tag.phi_target!r}:{tag.r_threshold!r}"
                f.write(f"{sid}\t{parent}\t{req}\t{name}\t{start:.9f}\t{end:.9f}\t"
                        f"{'' if tag is None else tag}\n")
