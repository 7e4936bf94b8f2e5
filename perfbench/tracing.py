"""Span and count recording around the public functions of floatdyn's layers.

Nothing in ``src/`` is edited.  For a run, :class:`Rebinding` points every
module global of ``floatdyn.autodiff``, ``floatdyn.model``,
``floatdyn.physics`` and ``floatdyn.training`` that names a traced function
at a wrapper, in this process only, and puts the originals back on exit.
A name is rebound where it is looked up: ``training`` imports
``stream_eval`` by name, so ``training.stream_eval`` is rebound as well as
``model.stream_eval``.  Callers in the benchmark reach the layers through
module attributes (``ph.generate_dataset``), never through names imported
into the benchmark, so they see the wrappers too.

:class:`StepClock` is the only hook the untraced run installs: two clock
reads per training step, so that step-time percentiles exist without
tracing.  :class:`Tracer` records a span (name, start, end, parent, rep)
at each layer boundary plus exact counts, and turns them into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import math
import time
from collections import Counter, defaultdict
from statistics import median

from floatdyn import autodiff as ad
from floatdyn import model as md
from floatdyn import physics as ph
from floatdyn import training as tr

LAYER_MODULES = (ad, md, ph, tr)

# counts that must repeat exactly between two traced reps of one seed
REPEATED_COUNTS = ("tape_nodes", "vjp_calls", "derivative_calls", "integrate_calls", "rk4_steps")

# per-layer metric -> (span name, unit); the value is the median call duration
SPAN_METRICS = {
    "autodiff.backward_ms": ("autodiff.backward", "ms"),
    "autodiff.adam_step_ms": ("autodiff.adam_step", "ms"),
    "autodiff.forward_mlp_ms": ("autodiff.forward_mlp", "ms"),
    "model.stream_eval_o1_ms": ("model.stream_eval_o1", "ms"),
    "model.stream_eval_o2_ms": ("model.stream_eval_o2", "ms"),
    "model.stream_eval_np_ms": ("model.stream_eval_np", "ms"),
    "model.fhnn_derivative_ms": ("model.fhnn_derivative", "ms"),
    "model.fhnn_derivative_np_ms": ("model.fhnn_derivative_np", "ms"),
    "model.neural_ode_derivative_ms": ("model.neural_ode_derivative", "ms"),
    "model.rollout_model_s": ("model.rollout_model", "s"),
    "training.forward_ms": ("training.forward", "ms"),
    "training.val_ms": ("training.val", "ms"),
    "training.epoch_s": ("training.epoch", "s"),
    "physics.generate_dataset_s": ("physics.generate_dataset", "s"),
    "physics.integrate_ms": ("physics.integrate", "ms"),
}

# per-layer metric -> (numerator count, denominator count or None, scale, unit)
COUNT_METRICS = {
    "autodiff.tape_nodes_per_step": ("tape_nodes", "steps", 1.0, "count"),
    "autodiff.vjp_calls_per_step": ("vjp_calls", "steps", 1.0, "count"),
    "autodiff.tape_bytes_per_step": ("tape_bytes", "steps", 1.0, "bytes"),
    "autodiff.gc_collections_per_step": ("gc_collections", "steps", 1.0, "count"),
    "autodiff.gc_pause_ms_per_step": ("gc_pause_s", "steps", 1e3, "ms"),
    "model.derivative_calls_per_rollout": ("derivative_calls", "rollouts", 1.0, "count"),
    "training.steps_per_epoch": ("steps", "epochs", 1.0, "count"),
    "physics.integrate_calls": ("integrate_calls", None, 1.0, "count"),
    "physics.rk4_steps": ("rk4_steps", None, 1.0, "count"),
    "physics.rows_per_integrate": ("integrate_rows", "integrate_calls", 1.0, "count"),
}

OVERHEAD_METRIC = ("trace.overhead_frac", "ratio")

# per-layer metric -> (unit, better); more rows per integrate call is batching
PER_LAYER = {
    **{name: (spec[-1], "lower") for name, spec in {**SPAN_METRICS, **COUNT_METRICS}.items()},
    "physics.rows_per_integrate": ("count", "higher"),
    OVERHEAD_METRIC[0]: (OVERHEAD_METRIC[1], "lower"),
}

_SCALE = {"ms": 1e3, "s": 1.0}


def _tape_mode(params) -> bool:
    return isinstance(next(iter(params.items()))[1], ad.Var)


class Rebinding:
    """Swaps functions in the layer modules on entry and restores them on exit."""

    def __init__(self) -> None:
        self._swaps: list[tuple[object, str, object, object]] = []

    def rebind(self, func, wrapper) -> None:
        for module in LAYER_MODULES:
            for name, value in vars(module).items():
                if value is func:
                    self._swaps.append((module, name, func, wrapper))

    def __enter__(self):
        for module, name, _, wrapper in self._swaps:
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, func, _ in reversed(self._swaps):
            setattr(module, name, func)


class StepClock(Rebinding):
    """Wall time of each training step: tape-mode ``training_losses`` to ``adam_step`` return."""

    def __init__(self) -> None:
        super().__init__()
        self.step_s: list[float] = []
        self._t0 = math.nan
        losses, adam = tr.training_losses, ad.adam_step

        def training_losses(model, *args, params=None, **kwargs):
            if params is not None:
                self._t0 = time.perf_counter()
            return losses(model, *args, params=params, **kwargs)

        def adam_step(*args, **kwargs):
            try:
                return adam(*args, **kwargs)
            finally:
                self.step_s.append(time.perf_counter() - self._t0)

        self.rebind(losses, training_losses)
        self.rebind(adam, adam_step)


class Tracer(Rebinding):
    """Spans and counts for every traced call; one ``rep`` per pipeline run."""

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.reps: list[int] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.rep = 0
        self._stack: list[int] = []
        self._in_train = 0
        self._gc_t0 = 0.0
        self._install()

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.reps.append(self.rep)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()

    def _span(self, name_of, func):
        def wrapper(*args, **kwargs):
            idx = self.begin(name_of(*args, **kwargs))
            try:
                return func(*args, **kwargs)
            finally:
                self.end(idx)

        return wrapper

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[self.rep][key] += n

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._in_train:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self._count("gc_collections")
            self.counts[self.rep]["gc_pause_s"] += time.perf_counter() - self._gc_t0

    # -- wrappers -------------------------------------------------------------

    def _install(self) -> None:
        fixed = lambda name: (lambda *a, **k: name)  # noqa: E731
        backward = ad.backward

        def traced_backward(tape, root):
            idx = self.begin("autodiff.backward")
            try:
                backward(tape, root)
            finally:
                self.end(idx)
            adj = tape.adjoints
            self._count("steps")
            self._count("tape_nodes", len(tape))
            self._count("vjp_calls", sum(len(tape.parents[i]) for i in range(len(adj)) if adj[i] is not None))
            self._count("tape_bytes", sum(v.nbytes for v in tape.values))

        self.rebind(backward, traced_backward)
        self.rebind(ad.adam_step, self._span(fixed("autodiff.adam_step"), ad.adam_step))
        self.rebind(ad.forward_mlp, self._span(fixed("autodiff.forward_mlp"), ad.forward_mlp))

        def stream_name(params, x, y, desc, order=2):
            if not _tape_mode(params):
                return "model.stream_eval_np" if order == 1 else "model.stream_eval_np_o2"
            return f"model.stream_eval_o{order}"

        def fhnn_name(s, t, params, *args, **kwargs):
            return "model.fhnn_derivative" if _tape_mode(params) else "model.fhnn_derivative_np"

        self.rebind(md.stream_eval, self._span(stream_name, md.stream_eval))
        self.rebind(md.fhnn_derivative, self._span(fhnn_name, md.fhnn_derivative))
        self.rebind(
            md.neural_ode_derivative,
            self._span(fixed("model.neural_ode_derivative"), md.neural_ode_derivative),
        )
        rollout_model = md.rollout_model

        def traced_rollout(derivative_fn, *args, **kwargs):
            def counted(s, t):
                self._count("derivative_calls")
                return derivative_fn(s, t)

            self._count("rollouts")
            idx = self.begin("model.rollout_model")
            try:
                return rollout_model(counted, *args, **kwargs)
            finally:
                self.end(idx)

        self.rebind(rollout_model, traced_rollout)

        losses = tr.training_losses

        def loss_name(model, *args, params=None, **kwargs):
            return "training.val" if params is None else "training.forward"

        self.rebind(losses, self._span(loss_name, losses))
        learning_rate, train = tr.learning_rate, tr.train

        def traced_learning_rate(config, epoch):
            # called once at the top of every epoch: it closes the last epoch span
            if self._stack and self.names[self._stack[-1]] == "training.epoch":
                self.end(self._stack[-1])
            self._count("epochs")
            self.begin("training.epoch")
            return learning_rate(config, epoch)

        def traced_train(*args, **kwargs):
            idx = self.begin("training.train")
            self._in_train += 1
            try:
                return train(*args, **kwargs)
            finally:
                self._in_train -= 1
                while self._stack and self._stack[-1] != idx:
                    self.end(self._stack[-1])
                self.end(idx)

        self.rebind(learning_rate, traced_learning_rate)
        self.rebind(train, traced_train)

        integrate, rk4_step = ph.integrate, ph.rk4_step

        def traced_integrate(f, s0, *args, **kwargs):
            self._count("integrate_calls")
            self._count("integrate_rows", 1 if getattr(s0, "ndim", 1) == 1 else len(s0))
            idx = self.begin("physics.integrate")
            try:
                return integrate(f, s0, *args, **kwargs)
            finally:
                self.end(idx)

        def counted_rk4_step(*args, **kwargs):
            self._count("rk4_steps")
            return rk4_step(*args, **kwargs)

        self.rebind(integrate, traced_integrate)
        self.rebind(rk4_step, counted_rk4_step)
        self.rebind(
            ph.generate_dataset,
            self._span(fixed("physics.generate_dataset"), ph.generate_dataset),
        )

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return super().__enter__()

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        super().__exit__(*exc)

    # -- analysis -------------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end in zip(self.names, self.starts, self.ends):
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's durations."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - child[i]
        return dict(out)

    def count_mismatches(self) -> list[str]:
        """Counts in REPEATED_COUNTS that differ between traced reps."""
        reps = sorted(self.counts)
        bad = []
        for key in REPEATED_COUNTS:
            values = [self.counts[r][key] for r in reps]
            if len(set(values)) > 1:
                bad.append(f"{key}: {values}")
        return bad

    def layer_metrics(self, overhead_frac: float) -> dict[str, dict]:
        """Every per-layer metric; 0 where the workload does not reach the layer."""
        durations = self.durations()
        metrics = {}
        for metric, (span, unit) in SPAN_METRICS.items():
            values = durations.get(span)
            metrics[metric] = {"value": median(values) * _SCALE[unit] if values else 0.0, "unit": unit}
        first = self.counts[min(self.counts)] if self.counts else Counter()
        for metric, (num, den, scale, unit) in COUNT_METRICS.items():
            value = first[num] * scale
            if den is not None:
                value = value / first[den] if first[den] else 0.0
            metrics[metric] = {"value": value, "unit": unit}
        name, unit = OVERHEAD_METRIC
        metrics[name] = {"value": overhead_frac, "unit": unit}
        return metrics

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "rep": r}
            for n, s, e, p, r in zip(self.names, self.starts, self.ends, self.parents, self.reps)
        ]
