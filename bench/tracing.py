"""In-memory span tracer that wraps the public functions of the eegcnn modules.

Each traced call records a span ``[name, start, end, parent]``. A span's self
time is its duration minus the part of it that its child spans cover.

A function is wrapped in every ``eegcnn`` module namespace that binds it (for
example ``forward`` is bound in ``eegcnn.model``, ``eegcnn.train``,
``eegcnn.metrics`` and ``eegcnn.interpret``), so calls made through any of
those names are seen. A function that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Layer (eegcnn module) -> public functions timed at that layer.
TRACED = {
    "data": ("load_subject_csv", "split_dataset"),
    "preprocess": ("apply_zero_phase", "welch_psd_batch"),
    "model": ("conv1d_same", "forward", "backward"),
    "train": ("train", "adam_step", "cross_entropy"),
    "metrics": ("evaluate", "roc_auc"),
    "interpret": (
        "pooling_sensitivity",
        "gen_sinusoid_probe",
        "conv_filter_response",
        "gen_white_noise",
    ),
    "experiments": ("run_sweep", "group_psd"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
}

# Counters kept by the hooks below, computed from argument shapes.
COUNTERS = (
    "model.forward.calls_train",
    "model.forward.calls_eval",
    "model.backward.calls",
    "model.conv.flops",
    "model.im2col.bytes",
    "data.csv_bytes",
)
# Figures a deterministic program repeats exactly for one seed.
REPEATING = (*COUNTERS, "train.adam_step.calls")

# Errors a counting hook may meet if a later refactor changes a signature; the
# traced call itself still runs.
_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Spans and counters of the traced calls, kept in memory until taken."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_train_t: int | None = None
        self._hooks = {
            "model.forward": self._on_forward,
            "model.conv1d_same": self._on_conv,
            "model.backward": self._on_backward,
            "data.load_subject_csv": self._on_csv,
        }

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        hook = self._hooks.get(name)
        if hook is not None:
            try:
                hook(args, kwargs)
            except _HOOK_ERRORS:
                self.hook_errors.add(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def take(self) -> tuple[list[list], Counter]:
        """Return and clear the spans and counters recorded so far."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counter()
        return spans, counters

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in each eegcnn namespace that binds it."""
        self.absent = []
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "eegcnn" or name.startswith("eegcnn."))
        ]
        for layer, names in TRACED.items():
            mod = sys.modules.get(f"eegcnn.{layer}")
            for fn_name in names:
                span_name = f"{layer}.{fn_name}"
                orig = getattr(mod, fn_name, None) if mod is not None else None
                if not callable(orig):
                    self.absent.append(span_name)
                    continue
                wrapper = self._wrapper(span_name, orig)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, orig))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches = []

    def _wrapper(self, span_name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(span_name, fn, *args, **kwargs)

        return traced

    # -- counting hooks (computed from argument shapes) -----------------------

    def _conv_work(self, params, shape) -> int:
        """Count one conv over an input of ``shape`` ([C, T] or [..., C, T])."""
        out_c, in_c, kernel = params.conv_weight.shape
        t = shape[-1]
        batch = math.prod(shape[:-2]) if len(shape) > 2 else 1
        self.counters["model.conv.flops"] += 2 * out_c * in_c * kernel * t * batch
        self.counters["model.im2col.bytes"] += 8 * in_c * kernel * t * batch
        return t

    def _on_forward(self, args, kwargs):
        mode = _arg(args, kwargs, 2, "mode", "eval")
        self.counters[f"model.forward.calls_{mode}"] += 1
        t = self._conv_work(_arg(args, kwargs, 0, "params"), _shape(_arg(args, kwargs, 1, "x")))
        if mode == "train":
            self._last_train_t = t

    def _on_conv(self, args, kwargs):
        # a conv made inside forward is already counted by the forward hook
        if self._stack and self.spans[self._stack[-1]][0] == "model.forward":
            return
        self._conv_work(_arg(args, kwargs, 0, "params"), _shape(_arg(args, kwargs, 1, "x")))

    def _on_backward(self, args, kwargs):
        # the weight gradient is one GEMM of the forward's size over a fresh
        # unrolled input, per example of the batch the logits gradient covers
        self.counters["model.backward.calls"] += 1
        params = _arg(args, kwargs, 1, "params")
        grad_shape = _shape(_arg(args, kwargs, 2, "grad_logits"))
        cache_input = getattr(_arg(args, kwargs, 0, "cache"), "input", None)
        t = _shape(cache_input)[-1] if cache_input is not None else self._last_train_t
        batch = grad_shape[0] if len(grad_shape) > 1 else 1
        self._conv_work(params, (batch, params.conv_weight.shape[1], t))

    def _on_csv(self, args, kwargs):
        self.counters["data.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _shape(x) -> tuple[int, ...]:
    shape = getattr(x, "shape", None)
    if shape is None:
        raise TypeError("argument has no shape")
    return tuple(shape)


def self_times(spans: list[list]) -> tuple[dict, Counter, dict, dict]:
    """Per-name self time, per-name call count, per-name inclusive time, and
    per root-span name the sum of the self times of every span under it."""
    n = len(spans)
    covered = [0.0] * n
    root = [0] * n
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    subtree: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        own = (end - start) - covered[i]
        self_s[name] += own
        inclusive[name] += end - start
        calls[name] += 1
        subtree[spans[root[i]][0]] += own
    return self_s, calls, inclusive, subtree
