"""Timing hooks installed from outside the package.

Nothing here edits `chatterdetect`: module-level names are replaced in
the module that looks them up (for example `chatterdetect.dataset.
extract_frames`, which `build_dataset` calls), layer methods are wrapped
per model instance, and every replacement is undone on exit.
"""

from __future__ import annotations

import importlib
import math
import time
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

from spans import SpanRecorder

# Names the network's layers carry in metric names, in model.layers order.
LAYER_NAMES = (
    "conv1", "relu1", "pool1",
    "conv2", "relu2", "pool2",
    "flatten",
    "dense1", "relu3", "dropout",
    "dense2", "relu4",
    "dense3",
)

# (module that looks the name up, attribute, span name): calls the
# package makes internally, so the benchmark cannot wrap them at the call.
INNER_CALLS = (
    ("chatterdetect.synth", "generate", "synth.generate"),
    ("chatterdetect.synth", "save_wav", "signal_io.save_wav"),
    ("chatterdetect.synth", "load_wav", "signal_io.load_wav"),
    ("chatterdetect.dataset", "extract_frames", "spectral.extract_frames"),
    ("chatterdetect.spectral", "magnitude_spectrum", "spectral.magnitude_spectrum"),
    ("chatterdetect.spectral", "renormalize", "spectral.renormalize"),
)

# Public functions the workloads call directly: (module, attribute).
API_CALLS = (
    ("synth", "generate_corpus"),
    ("synth", "write_corpus"),
    ("synth", "read_corpus"),
    ("spectral", "extract_frames"),
    ("signal_io", "save_wav"),
    ("signal_io", "load_wav"),
    ("dataset", "build_dataset"),
    ("dataset", "save_dataset"),
    ("dataset", "load_dataset"),
    ("model", "build_model"),
    ("model", "train"),
    ("model", "save_model"),
    ("model", "load_model"),
    ("model", "predict_batch"),
    ("evaluation", "build_report"),
    ("evaluation", "emit_report"),
)


def layer_name(i: int) -> str:
    return LAYER_NAMES[i] if i < len(LAYER_NAMES) else f"layer{i}"


class Probes:
    """Owns the span recorder and every hook; `api` is what workloads call."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.rec = SpanRecorder()
        self.api = SimpleNamespace()
        for module, attr in API_CALLS:
            fn = getattr(importlib.import_module(f"chatterdetect.{module}"), attr)
            setattr(self.api, attr, self.rec.wrap(f"{module}.{attr}", fn) if traced else fn)

    @contextmanager
    def tracing(self, on: bool = True):
        """Record spans, including the package's inner calls, inside the
        block (if `on` and this is a traced run)."""
        if not (on and self.traced):
            yield
            return
        undo = []
        try:
            for module_name, attr, span in INNER_CALLS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self.rec.wrap(span, original))
                undo.append((module, attr, original))
            dataset = importlib.import_module("chatterdetect.dataset")
            cls = dataset.LabeledDataset
            original = cls.split_arrays
            cls.split_arrays = self.rec.wrap("dataset.split_arrays", original)
            undo.append((cls, "split_arrays", original))
            self.rec.enabled = True
            yield
        finally:
            self.rec.enabled = False
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def instrument_model(self, model, clock: "StepClock | None" = None, spans=None):
        """Wrap each layer's forward/backward of this model instance.

        Training forwards (those given a context) record `model.<l>.fwd`,
        inference forwards `model.<l>.infer`. The step clock, if given,
        stamps every call into the first layer's forward. Without spans
        (the default for an untraced run) the clock is the only hook.
        """
        rec = self.rec
        spans = self.traced if spans is None else spans
        for i, layer in enumerate(model.layers):
            if not spans and (i > 0 or clock is None):
                break
            name = f"model.{layer_name(i)}"
            fwd, bwd = layer.forward, layer.backward

            def forward(x, ctx=None, _fwd=fwd, _name=name, _first=(i == 0), **kw):
                if _first and clock is not None:
                    clock.stamp(ctx is not None)
                if not rec.enabled:
                    return _fwd(x, ctx, **kw)
                idx = rec.open(_name + (".fwd" if ctx is not None else ".infer"))
                try:
                    return _fwd(x, ctx, **kw)
                finally:
                    rec.close(idx)

            layer.forward = forward
            if spans:
                layer.backward = rec.wrap(name + ".bwd", bwd)


class StepClock:
    """Timestamps of calls into the first layer, which split training
    into steps (a call with a context) and validation passes (without).

    Given a span recorder as `alternate`, it records spans on every
    second training step only (never during validation), so traced and
    plain steps interleave under the same machine conditions. With
    `alloc=True` it records, per training step, the tracemalloc peak
    above the traced memory at the step's start.
    """

    def __init__(self, alloc: bool = False, alternate: SpanRecorder | None = None):
        self.times: list[float] = []
        self.training: list[bool] = []
        self.traced: list[bool] = []
        self.alloc = alloc
        self.alternate = alternate
        self.step_peaks: list[int] = []
        self._base = None
        self._steps = 0

    def stamp(self, training: bool) -> None:
        if self.alloc:
            current, peak = tracemalloc.get_traced_memory()
            if self._base is not None:
                self.step_peaks.append(peak - self._base)
            tracemalloc.reset_peak()
            self._base = current if training else None
        if self.alternate is not None:
            self.alternate.enabled = training and self._steps % 2 == 1
        self._steps += training
        self.traced.append(self.alternate is not None and self.alternate.enabled)
        self.times.append(time.perf_counter())
        self.training.append(training)

    def split(self, t_end: float):
        """(steps as (start, end, traced), validation passes as (start, end)).

        A step runs from its first-layer call to the next call of any
        kind; a validation pass from its first call to the next step, or
        to `t_end` after the last epoch.
        """
        steps, vals = [], []
        n = len(self.times)
        for i in range(n):
            end = self.times[i + 1] if i + 1 < n else t_end
            if self.training[i]:
                steps.append((self.times[i], end, self.traced[i]))
            elif i == 0 or self.training[i - 1]:
                j = i + 1
                while j < n and not self.training[j]:
                    j += 1
                vals.append((self.times[i], self.times[j] if j < n else t_end))
        return steps, vals


def layer_flops(model, probe_input) -> dict[str, int]:
    """Forward FLOPs per frame for each layer, from the shapes a one-frame
    inference pass actually sees: 2 per multiply-add plus one per bias add
    for conv and dense, one per element for ReLU and per input element for
    pooling. Flatten and inference-time dropout do no arithmetic."""
    shapes = {}
    originals = []
    for i, layer in enumerate(model.layers):
        fwd = layer.forward

        def forward(x, ctx=None, _fwd=fwd, _i=i, **kw):
            y = _fwd(x, ctx, **kw)
            shapes[_i] = (x.shape, y.shape)
            return y

        originals.append((layer, fwd))
        layer.forward = forward
    try:
        importlib.import_module("chatterdetect.model").predict_batch(model, probe_input)
    finally:
        for layer, fwd in originals:
            layer.forward = fwd

    out = {}
    for i, layer in enumerate(model.layers):
        (x_shape, y_shape) = shapes[i]
        x_elems = math.prod(x_shape[1:])
        y_elems = math.prod(y_shape[1:])
        kind = type(layer).__name__.lower()
        if "w" in getattr(layer, "params", ()):
            w = layer.w
            positions = y_elems // w.shape[1]
            flops = 2 * positions * w.size + y_elems
        elif "relu" in kind:
            flops = y_elems
        elif "pool" in kind:
            flops = x_elems
        else:
            continue
        out[layer_name(i)] = flops
    return out
