"""Layer timing from outside the program, and the per-layer table.

:func:`instrument` wraps the public functions of each layer at class or
module level so that every call opens a span on the program's own tracer
(``repro.obs.get_tracer()``).  Forked pool workers inherit the patched
classes and modules, and the pool already ships worker spans back to the
parent.  Instance attributes are never patched: an algorithm pickled for
the pool must not carry local functions.

:func:`layer_table` turns one traced window (span records, counter
deltas, the op profiler's table) into the ``PER_LAYER`` metrics of
:mod:`perfbench.spec`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

from perfbench.spans import SpanTable, quantile

# (module, attribute path, span name).  Module-level functions are also
# replaced wherever another module imported them by name.
WRAPPED = [
    ("repro.optim.sgd", "SGD.step", "optim.sgd_step"),
    ("repro.core.selection_policies", "StaticSaliencyPolicy.select",
     "core.select"),
    ("repro.pruning.selector", "select_salient", "core.select_salient"),
    ("repro.core.aggregation", "salient_aggregate", "core.salient_aggregate"),
    ("repro.core.gradient_control", "refresh_client_variate",
     "core.variate_refresh"),
    ("repro.fl.parallel", "SerialExecutor.collect", "executor.collect"),
    ("repro.fl.parallel", "ProcessPoolRoundExecutor.collect",
     "executor.collect"),
    ("repro.fl.scale.store", "ClientStateStore.get", "scale.store_get"),
    ("repro.fl.scale.fold", "SPATLFold.add", "scale.fold_add"),
]

POOL_CLASSES = ("MaxPool2d", "AvgPool2d")

# Spans that stand for a round phase, per driver: (span name, use self
# time).  The async driver trains inside ``dispatch`` and uploads inside
# ``buffer``; it has no sampling phase and evaluates only at the end.
PHASES = {
    "sync": {p: (p, False) for p in ("sample", "download", "local_update",
                                     "upload", "aggregate", "evaluate")},
    "async": {"download": ("dispatch", True),
              "local_update": ("train_local", False),
              "upload": ("buffer", False), "aggregate": ("commit", False)},
}
PHASES["scale"] = PHASES["sync"]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _span_wrapper(original, span_name: str, attrs=None):
    from repro.obs import get_tracer

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer = get_tracer()
        if not tracer.enabled:
            return original(*args, **kwargs)
        with tracer.span(span_name) as span:
            if attrs is not None:
                span.set(**attrs(args))
            return original(*args, **kwargs)

    return wrapper


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, original, replacement) -> None:
        """Rebind ``original`` in every loaded ``repro`` module."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _batch_iter(original):
    """``DataLoader.__iter__`` with one span around each batch fetch."""
    from repro.obs import get_tracer

    @functools.wraps(original)
    def __iter__(self):
        it = original(self)
        while True:
            tracer = get_tracer()
            with tracer.span("data.batch"):
                try:
                    batch = next(it)
                except StopIteration:
                    return
            yield batch

    return __iter__


def _timed_forward(original, op: str, profiler):
    @functools.wraps(original)
    def forward(self, x, *args, **kwargs):
        t0 = time.perf_counter()
        out = original(self, x, *args, **kwargs)
        profiler.record(op, time.perf_counter() - t0)
        return out

    return forward


@contextlib.contextmanager
def instrument(profiler=None):
    """Install the layer wrappers (and pool forwards into ``profiler``)."""
    import repro.data.dataloader as dataloader
    import repro.fl.scale.store as store
    import repro.nn.pooling as pooling
    patches = Patches()
    try:
        for module_name, path, span_name in WRAPPED:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapped = _span_wrapper(original, span_name)
            if isinstance(owner, type):
                patches.set(owner, attr, wrapped)
            else:
                patches.replace_function(original, wrapped)
        patches.set(store.ClientStateStore, "put",
                    _span_wrapper(store.ClientStateStore.put,
                                  "scale.store_put",
                                  lambda args: {"bytes": len(args[2])}))
        patches.set(dataloader.DataLoader, "__iter__",
                    _batch_iter(dataloader.DataLoader.__iter__))
        if profiler is not None:
            for cls_name in POOL_CLASSES:
                cls = getattr(pooling, cls_name)
                patches.set(cls, "forward",
                            _timed_forward(cls.forward, "pool.forward",
                                           profiler))
        yield
    finally:
        patches.undo()


def counter_total(snapshot: dict, name: str) -> float:
    """Sum of a counter over all its label sets."""
    return sum(v for k, v in snapshot.get("counters", {}).items()
               if k == name or k.startswith(name + "{"))


def counter_deltas(before: dict, after: dict, names) -> dict:
    return {n: counter_total(after, n) - counter_total(before, n)
            for n in names}


COUNTERS = ("compile.captures", "compile.replays", "compile.fallbacks",
            "fl.attempt_failures", "scale.store_puts", "scale.store_gets",
            "scale.materializations", "scale.evictions", "scale.folds",
            "scale.edge_partials")

# Profiler op names per reported nn op (backward names come from the
# autograd closures; a linear layer's backward is its matmul).
NN_OP_NAMES = {
    "conv2d": (("conv2d.forward",), ("conv2d.backward",)),
    "batchnorm": (("batchnorm.forward",), ("batchnorm.backward",)),
    "linear": (("linear.forward",), ("matmul.backward",)),
    "pool": (("pool.forward",), ("max_pool2d.backward", "avg_pool2d.backward")),
}


def _ratio(num: float, den: float, name: str, undefined: dict,
           reason: str) -> float | None:
    if den > 0:
        return num / den
    undefined[name] = reason
    return None


def layer_table(driver: str, records: list[dict], n_rounds: int,
                counters: dict, profiler_stats: dict | None,
                workspace: tuple[int, int] | None, faults: dict,
                async_window: dict | None, workers: int,
                nn_hidden_reason: str | None) -> tuple[dict, dict]:
    """Per-layer metrics of one traced window.

    Returns ``(values, reasons)``: ``values`` maps every per-layer metric
    except ``trace.overhead_s`` to a number or ``None``; ``reasons``
    says why each ``None`` has no value.
    """
    t = SpanTable(records)
    n = max(n_rounds, 1)
    out: dict[str, float | None] = {}
    why: dict[str, str] = {}

    phases = PHASES[driver]
    for phase in ("sample", "download", "local_update", "upload",
                  "aggregate", "evaluate"):
        span = phases.get(phase)
        if span is None:
            out[f"fl.phase.{phase}_s"] = 0.0
        else:
            name, use_self = span
            out[f"fl.phase.{phase}_s"] = (t.self_total(name) if use_self
                                          else t.total(name)) / n
    updates = t.durations(phases["local_update"][0])
    out["fl.client_update_s.p50"] = quantile(updates, 0.5)
    out["fl.client_update_s.p90"] = quantile(updates, 0.9)

    steps = t.attr_total("train_local", "steps")
    out["local.train_s"] = t.self_total("train_local") / n
    out["local.steps"] = steps / n
    out["local.step_ms"] = _ratio(t.total("train_local") * 1e3, steps,
                                  "local.step_ms", why, "no local steps")
    out["optim.sgd_step_s"] = t.total("optim.sgd_step") / n
    out["data.batch_s"] = t.total("data.batch") / n

    for op, (fwd_names, bwd_names) in NN_OP_NAMES.items():
        for direction, names in (("forward", fwd_names),
                                 ("backward", bwd_names)):
            for kind in ("s", "calls"):
                key = f"nn.{op}.{direction}_{kind}"
                if nn_hidden_reason is not None:
                    out[key] = None
                    why[key] = nn_hidden_reason
                    continue
                stats = [profiler_stats[o] for o in names
                         if o in profiler_stats]
                total = sum(s.seconds if kind == "s" else s.calls
                            for s in stats)
                out[key] = total / n
    key = "nn.conv2d.forward_gflops_per_s"
    if nn_hidden_reason is not None:
        out[key] = None
        why[key] = nn_hidden_reason
    else:
        conv = profiler_stats.get("conv2d.forward")
        out[key] = _ratio(conv.flops / 1e9 if conv else 0.0,
                          conv.seconds if conv else 0.0, key, why,
                          "no conv2d forward calls")

    captures = counters["compile.captures"]
    replays = counters["compile.replays"]
    out["compile.captures"] = captures / n
    out["compile.replays"] = replays / n
    out["compile.fallbacks"] = counters["compile.fallbacks"] / n
    out["compile.replay_frac"] = _ratio(
        replays, replays + captures, "compile.replay_frac", why,
        "no compiled steps: the step compiler is off on this workload")
    if workspace is None:
        out["workspace.hit_frac"] = None
        why["workspace.hit_frac"] = (
            "training runs in pool workers, whose workspace arenas are not "
            "reported back to the parent")
    else:
        hits, misses = workspace
        out["workspace.hit_frac"] = _ratio(hits, hits + misses,
                                           "workspace.hit_frac", why,
                                           "no workspace requests")

    for key in ("select", "select_salient", "salient_aggregate",
                "variate_refresh"):
        out[f"core.{key}_s"] = t.self_total(f"core.{key}") / n

    n_ser = t.count("serialize")
    cached = sum(1 for r in records if r["name"] == "serialize"
                 and r.get("attrs", {}).get("cached"))
    out["wire.serialize_s"] = t.total("serialize") / n
    out["wire.serialize_bytes"] = t.attr_total("serialize", "bytes") / n
    out["wire.deserialize_s"] = t.total("deserialize") / n
    out["wire.cached_frac"] = _ratio(cached, n_ser, "wire.cached_frac", why,
                                     "no traced serialize calls")

    collect = t.total("executor.collect")
    out["executor.collect_s"] = collect / n
    out["executor.busy_frac"] = _ratio(
        t.total(phases["local_update"][0]), workers * collect,
        "executor.busy_frac", why,
        "the async driver trains clients without a round executor")
    out["faults.attempt_failures"] = counters["fl.attempt_failures"] / n
    out["faults.retries"] = faults.get("n_retries", 0) / n
    out["faults.corrupt"] = faults.get("n_corrupt", 0) / n

    for key in ("store_puts", "store_gets", "materializations", "evictions",
                "folds", "edge_partials"):
        out[f"scale.{key}"] = counters[f"scale.{key}"] / n
    out["scale.store_put_s"] = t.total("scale.store_put") / n
    out["scale.store_get_s"] = t.total("scale.store_get") / n
    out["scale.store_bytes"] = t.attr_total("scale.store_put", "bytes") / n
    out["scale.fold_add_s"] = t.total("scale.fold_add") / n

    if async_window is None:
        for key in ("dispatched", "committed_updates", "deduped",
                    "staleness_mean", "staleness_max", "commit_s",
                    "virtual_s"):
            out[f"async.{key}"] = 0.0
        out["async.useful_frac"] = None
        why["async.useful_frac"] = "no async dispatches on this workload"
    else:
        w = async_window
        out["async.dispatched"] = w["dispatched"] / n
        out["async.committed_updates"] = w["committed"] / n
        out["async.deduped"] = w["deduped"] / n
        out["async.useful_frac"] = _ratio(w["committed"], w["dispatched"],
                                          "async.useful_frac", why,
                                          "no dispatches")
        out["async.staleness_mean"] = w["staleness_mean"]
        out["async.staleness_max"] = w["staleness_max"]
        out["async.commit_s"] = t.total("commit") / n
        out["async.virtual_s"] = w["virtual_s"]
    return out, why
