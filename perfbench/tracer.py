"""Span recorder and rebinding tracer for the per-layer (traced) pass.

Spans are recorded from the benchmark's own code: each traced public
function of ``nllvm_lab`` is replaced, in every ``nllvm_lab`` module that
holds a reference to it, by a wrapper that opens a span around the call.
``Tracer.restore`` puts every original binding back, so untraced passes run
the program exactly as shipped.

A span is ``(id, name, start, end, parent_id, task_id, thread_id)``.  Parent
links follow a per-thread stack; a task that ``parallel_map`` runs on a pool
thread is parented to the ``parallel_map`` span that submitted it, so the
pool's threads never interleave on one stack.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import itertools
import logging
import sys
import threading
import time

# (span name, module, attribute).  An attribute of the form "Class.method"
# is patched on the class itself.  The span name is also the metric prefix.
TRACED = (
    ("cli.dispatch", "nllvm_lab.cli", "dispatch"),
    ("verify_harness.check_hellinger_bound", "nllvm_lab.verify_harness", "check_hellinger_bound"),
    ("verify_harness.check_logsup_bound", "nllvm_lab.verify_harness", "check_logsup_bound"),
    ("verify_harness.restricted_min_kl_experiment", "nllvm_lab.verify_harness", "restricted_min_kl_experiment"),
    ("verify_harness.gp_support_probe", "nllvm_lab.verify_harness", "gp_support_probe"),
    ("verify_harness.risk_bound_experiment", "nllvm_lab.verify_harness", "risk_bound_experiment"),
    ("runtime.parallel_map", "nllvm_lab._runtime", "parallel_map"),
    ("nllvm_posterior.fit_mcmc", "nllvm_lab.nllvm_posterior", "fit_mcmc"),
    ("nllvm_posterior.update_latents", "nllvm_lab.nllvm_posterior", "update_latents"),
    ("nllvm_posterior.update_transfer", "nllvm_lab.nllvm_posterior", "update_transfer"),
    ("nllvm_posterior.update_sigma", "nllvm_lab.nllvm_posterior", "update_sigma"),
    ("nllvm_posterior.predictive_density", "nllvm_lab.nllvm_posterior", "predictive_density"),
    ("gpivi.optimize", "nllvm_lab.gpivi", "optimize"),
    ("gpivi.practical_objective", "nllvm_lab.gpivi", "practical_objective"),
    ("gpivi.q_density", "nllvm_lab.gpivi", "q_density"),
    ("gpivi.risk_integral", "nllvm_lab.gpivi", "risk_integral"),
    ("gpivi.risk_bound_rhs", "nllvm_lab.gpivi", "risk_bound_rhs"),
    ("gpivi.RestrictedFamily", "nllvm_lab.gpivi", "RestrictedFamily.__init__"),
    ("gpivi.RestrictedFamily.min_kl", "nllvm_lab.gpivi", "RestrictedFamily.min_kl"),
    ("transfer_map.mixture_density", "nllvm_lab.transfer_map", "mixture_density"),
    ("transfer_map.quantile_of", "nllvm_lab.transfer_map", "quantile_of"),
    ("grid_density.divergence", "nllvm_lab.grid_density", "divergence"),
    ("grid_density.kl_values", "nllvm_lab.grid_density", "kl_values"),
    ("grid_density.convolve_values", "nllvm_lab.grid_density", "convolve_values"),
    ("hi_order_kernel.fbeta_iterative", "nllvm_lab.hi_order_kernel", "fbeta_iterative"),
    # the jitter-escalated GP Cholesky that gp_prior, nllvm_posterior and
    # verify_harness all import under its private name
    ("gp_prior.chol", "nllvm_lab.gp_prior", "_chol_with_escalation"),
    ("gp_prior.sample_path_conditional", "nllvm_lab.gp_prior", "sample_path_conditional"),
)

# Span of one parallel_map task on a pool thread; feeds busy_frac only.
TASK_SPAN = "runtime.parallel_map.task"

# Extra per-layer figures, with their units, beyond calls / s / self_s.
EXTRAS = (
    ("runtime.parallel_map.tasks", "count"),
    ("runtime.parallel_map.busy_frac", "ratio"),
    ("nllvm_posterior.update_sigma.accept_frac", "ratio"),
    ("nllvm_posterior.update_latents.underflow_n", "count"),
    ("gpivi.optimize.sweeps", "count"),
    ("gpivi.practical_objective.raised", "count"),
    ("gpivi.practical_objective.ok_frac", "ratio"),
    ("transfer_map.mixture_density.grid_pts", "count"),
    ("transfer_map.mixture_density.refine_calls", "count"),
)

OVERHEAD = ("trace.overhead_s", "s")


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name, _, _ in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRAS)
    units[OVERHEAD[0]] = OVERHEAD[1]
    return units


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = {}
        self.task_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, parent=None):
        """Start a span; its parent is the thread's innermost open span
        unless ``parent`` is given.  Returns a handle for :meth:`close`."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, name: str, handle) -> float:
        end = time.perf_counter()
        span_id, parent, start = handle
        self._stack().pop()
        self.spans.append(
            (span_id, name, start, end, parent, self.task_id, threading.get_ident())
        )
        return end - start

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount


def _spanned(rec: SpanRecorder, name: str, fn, after=None, on_error=None):
    """Wrap ``fn`` so that each call is a span named ``name``.

    ``after(args, kwargs, result)`` updates counters from a completed call;
    ``on_error(exc)`` sees an exception before it propagates.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        handle = rec.open()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            rec.close(name, handle)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


class _UnderflowCounter(logging.Handler):
    """Counts observations in update_latents' underflow-fallback warning."""

    def __init__(self, rec: SpanRecorder) -> None:
        super().__init__(logging.WARNING)
        self._rec = rec

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("latent conditional underflowed"):
            self._rec.add("nllvm_posterior.update_latents.underflow_n", int(record.args[0]))


class Tracer:
    """Rebinds every traced name to a span-recording wrapper.

    Use as a context manager; leaving it restores every original binding and
    detaches the log handler, even when the traced code raised.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: list = []
        self._handler = None

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self) -> None:
        from nllvm_lab._runtime import worker_count
        from nllvm_lab.gpivi import SupportError
        from nllvm_lab.transfer_map import CoverageError

        rec = self.rec

        def mixture_after(args, kwargs, result):
            spec = kwargs["spec"] if "spec" in kwargs else args[2]
            rec.add("transfer_map.mixture_density.grid_pts", spec.n)
            if kwargs.get("refine", True):
                rec.add("transfer_map.mixture_density.refine_calls", 1)

        def sigma_after(args, kwargs, result):
            # update_sigma returns its input state object on rejection
            rec.add("nllvm_posterior.update_sigma.accepted", result is not args[0])

        def optimize_after(args, kwargs, result):
            rec.add("gpivi.optimize.sweeps", result.n_sweeps)

        def objective_error(exc):
            # optimize turns these into an infinite objective value
            if isinstance(exc, (CoverageError, SupportError)):
                rec.add("gpivi.practical_objective.raised", 1)

        after = {
            "transfer_map.mixture_density": mixture_after,
            "nllvm_posterior.update_sigma": sigma_after,
            "gpivi.optimize": optimize_after,
        }
        on_error = {"gpivi.practical_objective": objective_error}
        for name, module_name, attr in TRACED:
            module = sys.modules[module_name]
            class_name, _, method = attr.rpartition(".")
            if class_name:
                cls = getattr(module, class_name)
                self._bind(cls, method, _spanned(rec, name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            if name == "runtime.parallel_map":
                wrapped = self._parallel_map(original, worker_count)
            else:
                wrapped = _spanned(rec, name, original, after.get(name), on_error.get(name))
            self._rebind_everywhere(original, wrapped)

        self._handler = _UnderflowCounter(rec)
        logging.getLogger("nllvm_lab.nllvm_posterior").addHandler(self._handler)

    def _parallel_map(self, original, worker_count):
        rec = self.rec

        @functools.wraps(original)
        def parallel_map(fn, items):
            items = list(items)
            handle = rec.open()
            parent = handle[0]

            def task(item):
                task_handle = rec.open(parent=parent)
                try:
                    return fn(item)
                finally:
                    rec.add("runtime.parallel_map.busy_s", rec.close(TASK_SPAN, task_handle))

            try:
                return original(task, items)
            finally:
                elapsed = rec.close("runtime.parallel_map", handle)
                rec.add("runtime.parallel_map.tasks", len(items))
                rec.add("runtime.parallel_map.capacity_s", elapsed * worker_count(len(items)))

        return parallel_map

    def _bind(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapped) -> None:
        """Point every nllvm_lab module's reference to ``original`` at ``wrapped``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "nllvm_lab" and not mod_name.startswith("nllvm_lab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bind(module, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        if self._handler is not None:
            logging.getLogger("nllvm_lab.nllvm_posterior").removeHandler(self._handler)
            self._handler = None


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for span_id, _, start, end, _, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_metrics(rec: SpanRecorder) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name."""
    selfs = self_times(rec.spans)
    out = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for span_id, name, start, end, _, _, _ in rec.spans:
        if name == TASK_SPAN:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += selfs[span_id]

    c = rec.counters

    def ratio(num, den):
        return num / den if den else 0.0

    out["runtime.parallel_map.tasks"] = int(c.get("runtime.parallel_map.tasks", 0))
    out["runtime.parallel_map.busy_frac"] = ratio(
        c.get("runtime.parallel_map.busy_s", 0.0), c.get("runtime.parallel_map.capacity_s", 0.0)
    )
    out["nllvm_posterior.update_sigma.accept_frac"] = ratio(
        c.get("nllvm_posterior.update_sigma.accepted", 0),
        out["nllvm_posterior.update_sigma.calls"],
    )
    out["nllvm_posterior.update_latents.underflow_n"] = int(
        c.get("nllvm_posterior.update_latents.underflow_n", 0)
    )
    out["gpivi.optimize.sweeps"] = int(c.get("gpivi.optimize.sweeps", 0))
    raised = int(c.get("gpivi.practical_objective.raised", 0))
    calls = out["gpivi.practical_objective.calls"]
    out["gpivi.practical_objective.raised"] = raised
    out["gpivi.practical_objective.ok_frac"] = ratio(calls - raised, calls)
    out["transfer_map.mixture_density.grid_pts"] = int(
        c.get("transfer_map.mixture_density.grid_pts", 0)
    )
    out["transfer_map.mixture_density.refine_calls"] = int(
        c.get("transfer_map.mixture_density.refine_calls", 0)
    )
    return out
