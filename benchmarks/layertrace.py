"""Layer spans and work counters for the traced benchmark run.

The layers are the modules `diagrams`, `orbits`, `series`, `sheaves`,
`oracle` and `cli`.  `LayerTracer.install` wraps every public function
defined in a layer and rebinds the wrapper under every name that holds the
function: in its own module, in the other layer modules that import it with
`from .x import y` (such as `sheaves.stratum_dim_ai` or
`cli.enumerate_by_size`) and in the package namespace.  Nothing under `src/`
is edited; `uninstall` puts the original functions back.

A span opens only when a call crosses into a different layer; calls inside a
layer run unwrapped apart from their counters.  Spans are folded as they
close: a layer's self time is its spans' time minus their child spans', and
the span tree is kept as parent-layer -> child-layer edges with a count and a
time.  Methods and constructors (e.g. `FilledDiagram(...)`) are not span
boundaries, so their time counts toward the calling layer.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("diagrams", "orbits", "series", "sheaves", "oracle", "cli")
HARNESS = "bench"

# Counters named in BENCHMARK.json, besides <layer>.calls and <layer>.self_s.
COUNTERS = (
    "diagrams.emitted",
    "orbits.admissible_checked",
    "orbits.admissible_kept",
    "orbits.strata",
    "series.mul_calls",
    "sheaves.labels",
    "sheaves.complexes",
    "oracle.systems",
    "oracle.unknowns",
    "oracle.mat_mul_calls",
    "cli.bytes_out",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _add_len(counter):
    def hook(tracer, args, kwargs, result):
        tracer.counts[counter] += len(result)
    return hook


def _admissible(tracer, args, kwargs, result):
    tracer.counts["orbits.admissible_checked"] += 1
    tracer.counts["orbits.admissible_kept"] += bool(result)


def _series_mul(tracer, args, kwargs, result):
    tracer.counts["series.mul_calls"] += 1


def _nullspace(tracer, args, kwargs, result):
    tracer.counts["oracle.systems"] += 1
    tracer.counts["oracle.unknowns"] += _arg(args, kwargs, 1, "ncols")


def _mat_mul(tracer, args, kwargs, result):
    tracer.counts["oracle.mat_mul_calls"] += 1


def _stratum_dim(tracer, args, kwargs, result):
    stratum = _arg(args, kwargs, 0, "stratum")
    grading = _arg(args, kwargs, 1, "grading")
    tracer.dim_inputs.append(("stratum", grading.dims, stratum.mu))


def _orbit_dim(tracer, args, kwargs, result):
    # The diagram fixes its own box counts, so it is the whole input.
    tracer.dim_inputs.append(("orbit", _arg(args, kwargs, 0, "diagram")))


HOOKS = {
    ("diagrams", "enumerate_diagrams"): _add_len("diagrams.emitted"),
    ("diagrams", "enumerate_by_size"): _add_len("diagrams.emitted"),
    ("orbits", "admissible_for_case"): _admissible,
    ("orbits", "enumerate_strata_ai"): _add_len("orbits.strata"),
    ("orbits", "enumerate_strata_ii"): _add_len("orbits.strata"),
    ("series", "series_mul"): _series_mul,
    ("sheaves", "catalog_ai"): _add_len("sheaves.labels"),
    ("sheaves", "catalog_ii"): _add_len("sheaves.labels"),
    ("sheaves", "orbital_complexes"): _add_len("sheaves.complexes"),
    ("oracle", "nullspace"): _nullspace,
    ("oracle", "mat_mul"): _mat_mul,
    ("oracle", "stratum_dim_ai"): _stratum_dim,
    ("oracle", "orbit_dim"): _orbit_dim,
}


def _ratio(num, den) -> float:
    """num / den, and 0.0 when nothing was attempted."""
    return num / den if den else 0.0


class LayerTracer:
    def __init__(self):
        self.package = importlib.import_module("gradedorbits")
        self.modules = {
            layer: importlib.import_module(f"gradedorbits.{layer}") for layer in LAYERS
        }
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter."""
        # A frame is [layer, start, time spent in child spans].
        self.stack = [[HARNESS, 0.0, 0.0]]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])
        self.counts = Counter()
        self.dim_inputs: list = []

    def public_functions(self):
        """(layer, name, function) for every public function a layer defines."""
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    yield layer, name, obj

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        wrappers = {
            fn: self._wrap(layer, name, fn) for layer, name, fn in self.public_functions()
        }
        for namespace in (self.package, *self.modules.values()):
            for name, obj in list(vars(namespace).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._saved.append((namespace, name, obj))
                    setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        for namespace, name, obj in reversed(self._saved):
            setattr(namespace, name, obj)
        self._saved.clear()

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    self._close(frame, end, stack[-1])
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _close(self, frame, end, parent) -> None:
        layer, start, child_s = frame
        duration = end - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child_s
        parent[2] += duration
        edge = self.edges[(parent[0], layer)]
        edge[0] += 1
        edge[1] += duration

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of BENCHMARK.json except the run-level
        `trace.overhead_frac` and `fail_frac`."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["orbits.keep_ratio"] = _ratio(
            self.counts["orbits.admissible_kept"], self.counts["orbits.admissible_checked"]
        )
        out["oracle.distinct_ratio"] = _ratio(
            len(set(self.dim_inputs)), len(self.dim_inputs)
        )
        return out

    def span_tree(self) -> dict[str, list]:
        """Parent layer -> child layer edges: [spans, seconds]."""
        return {
            f"{parent}>{child}": [count, seconds]
            for (parent, child), (count, seconds) in sorted(self.edges.items())
        }
