"""In-memory span tracer for the traced sample.

Spans are recorded from the benchmark's own files: each traced function is
replaced, at the name its caller looks up, by a wrapper that opens a span
(name, start, end, parent) around the call.  Transforms are counted by
wrappers on `numpy.fft` and `scipy.fft` installed before `nematicflow` is
imported, so a later `from numpy.fft import rfftn` or a scipy backend is
still counted.  Each transform is a span of its own, charged to the span
that encloses it.

Importing this module imports nothing outside the standard library;
`install_fft_counters` imports numpy.fft and scipy.fft.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

FFT_SPAN = "spectral.fft"
ROOT_SPAN = "runner.run"

_FFT_NAMES = {
    "1d": ("fft", "ifft", "rfft", "irfft"),
    "2d": ("fft2", "ifft2", "rfft2", "irfft2"),
    "nd": ("fftn", "ifftn", "rfftn", "irfftn"),
}

# (span name, module whose global the caller looks up, attribute).  The
# module is the caller's, not the definer's: `runner` calls `step` through
# its own imported name, so that is the name that must be replaced.
TARGETS = (
    (ROOT_SPAN, "runner", "run"),
    ("dynamics.step", "runner", "step"),
    ("dynamics.suggest_dt", "runner", "suggest_dt"),
    ("scenarios.build_scenario", "runner", "build_scenario"),
    ("runner.write_snapshot", "runner", "write_snapshot"),
    ("runner.write_timeseries", "runner", "write_timeseries"),
    ("diagnostics.measure", "diagnostics", "measure"),
    ("diagnostics.blowup_integrand", "diagnostics", "blowup_integrand"),
    ("dynamics._nonlinear", "dynamics", "_nonlinear"),
    ("state.normalize_director", "dynamics", "normalize_director"),
    # called by the sample process itself during set-up
    ("config.load_config", "config", "load_config"),
    ("scenarios.build_scenario", "scenarios", "build_scenario"),
)

# The phases of one accepted step; their transforms make up the per-step
# count.  A phase is a span called directly by the root span.
STEP_PHASES = ("dynamics.step", "dynamics.suggest_dt",
               "diagnostics.blowup_integrand")
RECORD_PHASE = "diagnostics.measure"


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_ns", "top",
                 "phase", "extra")

    def __init__(self, name, parent, top, phase):
        self.name = name
        self.parent = parent
        self.top = top
        self.phase = phase
        self.child_ns = 0
        self.extra = None
        self.start = time.perf_counter_ns()
        self.end = None

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    """Spans kept in memory, in the order they were opened.  `top` is a
    span's outermost ancestor (itself for a root); `phase` is the name of
    its ancestor called directly by that root."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self._stack = []

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            span = Span(name, None, None, None)
            span.top = span
        else:
            phase = name if parent.parent is None else parent.phase
            span = Span(name, parent, parent.top, phase)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_ns += span.ns

    def wrap(self, name, fn, after=None):
        """Return `fn` wrapped in a span; `after(args, result)` may return a
        dict stored with the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                span.extra = after(args, result)
            return result

        return traced

    def _wrap_fft(self, api, fn, kind):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack and self._stack[-1].name == FFT_SPAN:
                # a transform implemented through another wrapped one
                return fn(*args, **kwargs)
            span = self._open(FFT_SPAN)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            a = args[0] if args else kwargs.get("a", kwargs.get("x"))
            span.extra = {
                "api": api,
                "arrays": _transform_count(a, kind, args, kwargs),
                "bytes": int(getattr(a, "nbytes", 0) + result.nbytes),
            }
            return result

        return counted

    def install_fft_counters(self) -> None:
        """Wrap the transforms of numpy.fft and scipy.fft in place.  Must run
        before nematicflow is imported."""
        for modname in ("numpy.fft", "scipy.fft"):
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            for kind, names in _FFT_NAMES.items():
                for attr in names:
                    fn = getattr(module, attr, None)
                    if fn is not None:
                        api = f"{modname}.{attr}"
                        setattr(module, attr, self._wrap_fft(api, fn, kind))

    def install_layer_wrappers(self) -> list:
        """Wrap every target at its caller's name.  Returns the targets that
        do not exist; their metrics are reported as missing, never as 0."""
        missing = []
        for span_name, modname, attr in TARGETS:
            try:
                module = importlib.import_module(f"nematicflow.{modname}")
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.wrap(span_name, fn, _AFTER.get(attr)))
            else:
                missing.append(f"{modname}.{attr}")
                self.absent.add(span_name)
        return missing

    def run_spans(self) -> list:
        """The spans of the one root `runner.run` call and its callees."""
        roots = [s for s in self.spans if s.parent is None and s.name == ROOT_SPAN]
        if len(roots) != 1:
            raise RuntimeError(f"expected one {ROOT_SPAN} span, got {len(roots)}")
        return [s for s in self.spans if s.top is roots[0]]

    def counts(self) -> dict:
        """Exact call and transform counts, keyed by root, phase and name.
        Two traced runs of one workload and seed must give equal dicts."""
        out = {}
        for s in self.spans:
            key = f"{s.top.name}/{s.phase}/{s.name}"
            entry = out.setdefault(key, [0, 0])
            entry[0] += 1
            if s.name == FFT_SPAN:
                entry[1] += s.extra["arrays"]
        return dict(sorted(out.items()))

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this traced sample as {name: (value, unit)}.
        A metric is left out, never reported as 0, when a span it needs did
        not fire: its target is missing, or its layer does not run on this
        workload (no snapshots at `snapshot_every = 0`)."""
        spans = self.run_spans()
        root = spans[0]
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        ffts = by_name.get(FFT_SPAN, [])
        # set-up spans lie outside the run: those are taken from every root
        fired = {s.name for s in self.spans}

        def calls(name):
            return len(by_name.get(name, ()))

        def median_ms(name, own=False):
            return statistics.median(
                s.self_ns if own else s.ns for s in by_name[name]) / 1e6

        def total_ns(name):
            return sum(s.ns for s in by_name.get(name, ()))

        def fft_per_call(phases, field):
            # transforms of each phase over that phase's calls, summed
            total = 0.0
            for phase in phases:
                n = sum(1 if field is None else s.extra[field]
                        for s in ffts if s.phase == phase)
                total += n / calls(phase)
            return total

        metrics = {}

        def put(name, needs, unit, value):
            if fired.issuperset(needs):
                metrics[name] = (value(), unit)

        fft, step, nonlinear = (FFT_SPAN,), "dynamics.step", "dynamics._nonlinear"
        blowup = "diagnostics.blowup_integrand"
        put("spectral.fft.calls_per_step", fft + STEP_PHASES, "count",
            lambda: fft_per_call(STEP_PHASES, None))
        put("spectral.fft.arrays_per_step", fft + STEP_PHASES, "count",
            lambda: fft_per_call(STEP_PHASES, "arrays"))
        put("spectral.fft.calls_per_record", fft + (RECORD_PHASE,), "count",
            lambda: fft_per_call((RECORD_PHASE,), None))
        put("spectral.fft.arrays_per_record", fft + (RECORD_PHASE,), "count",
            lambda: fft_per_call((RECORD_PHASE,), "arrays"))
        put("spectral.fft.s", fft, "s", lambda: total_ns(FFT_SPAN) / 1e9)
        put("spectral.fft.share", fft, "1",
            lambda: total_ns(FFT_SPAN) / root.ns)
        put("spectral.fft.bytes", fft, "B",
            lambda: sum(s.extra["bytes"] for s in ffts))

        put("dynamics.step.ms", (step,), "ms", lambda: median_ms(step))
        put("dynamics.step.self_ms", (step,), "ms",
            lambda: median_ms(step, own=True))
        put("dynamics._nonlinear.ms", (nonlinear,), "ms",
            lambda: median_ms(nonlinear))
        put("dynamics._nonlinear.calls_per_step", (nonlinear, step), "count",
            lambda: calls(nonlinear) / calls(step))
        put("dynamics.suggest_dt.ms", ("dynamics.suggest_dt",), "ms",
            lambda: median_ms("dynamics.suggest_dt"))
        put("state.normalize_director.ms", ("state.normalize_director",), "ms",
            lambda: median_ms("state.normalize_director"))

        put("diagnostics.blowup_integrand.ms", (blowup,), "ms",
            lambda: median_ms(blowup))
        put("diagnostics.measure.ms", (RECORD_PHASE,), "ms",
            lambda: median_ms(RECORD_PHASE))
        put("diagnostics.share", (blowup, RECORD_PHASE), "1",
            lambda: (total_ns(blowup) + total_ns(RECORD_PHASE)) / root.ns)

        put("scenarios.build_scenario.s", ("scenarios.build_scenario",), "s",
            lambda: statistics.median(s.ns for s in self.spans
                                      if s.name == "scenarios.build_scenario")
            / 1e9)
        put("config.load_config.ms", ("config.load_config",), "ms",
            lambda: statistics.median(s.ns for s in self.spans
                                      if s.name == "config.load_config") / 1e6)

        for name in ("runner.write_snapshot", "runner.write_timeseries"):
            put(f"{name}.ms", (name,), "ms", lambda name=name: total_ns(name) / 1e6)
            put(f"{name}.bytes", (name,), "B", lambda name=name: sum(
                s.extra["bytes"] for s in by_name[name]))
        put("runner.self_s", (ROOT_SPAN,), "s", lambda: root.self_ns / 1e9)
        return metrics

def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _scenario_seed(args, result):
    return {"seed": args[1].parameters.get("seed")}


_AFTER = {
    "write_snapshot": _file_bytes,
    "write_timeseries": _file_bytes,
    "build_scenario": _scenario_seed,
}


def _transform_count(a, kind, args, kwargs) -> int:
    """Number of single transforms one call performs: the array size over
    the product of the transformed axes' lengths."""
    shape = getattr(a, "shape", None)
    if not shape:
        return 1
    if kind == "1d":
        axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
    else:
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            axes = (-2, -1) if kind == "2d" else range(len(shape))
    size = 1
    for n in shape:
        size *= n
    per = 1
    for ax in axes:
        per *= shape[ax]
    return size // per
