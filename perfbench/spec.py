"""Metric and workload names of the round benchmark, in one place.

``BENCHMARK.json`` at the repository root repeats these lists for the
harness that drives the benchmark; ``tests/test_perfbench.py`` checks
that the two agree.  Every metric is reported on every workload: a layer
that a workload bypasses reads as zero work, and a value that cannot be
seen from outside the program is listed under ``unobserved`` in the
detailed record with its reason.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

MAX_END_TO_END = 16
MAX_PER_LAYER = 128

# (name, unit, better, bound).  ``bound`` is the share of the parent's
# median by which the metric may worsen before a change is rejected.
END_TO_END = [
    ("round_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("uplink_bytes_per_round", "bytes", "lower", 0.25),
    ("downlink_bytes_per_round", "bytes", "lower", 0.25),
]

NN_OPS = ("conv2d", "batchnorm", "linear", "pool")

# (name, unit).  Times are seconds per round (per commit on the async
# workload); counts are per round unless the unit says otherwise.  The
# ``run.*`` rows are whole-run outcomes whose value depends on the seed's
# data partition or fault draws by more than any useful bound, so they
# are reported without one (see README.md).
PER_LAYER = (
    [("run.peak_rss_bytes", "bytes"), ("run.client_delivered_frac", "fraction"),
     ("run.final_val_acc", "fraction"), ("run.final_train_loss", "nats")]
    + [(f"fl.phase.{p}_s", "s/round")
     for p in ("sample", "download", "local_update", "upload", "aggregate",
               "evaluate")]
    + [("fl.client_update_s.p50", "s"), ("fl.client_update_s.p90", "s"),
       ("local.train_s", "s/round"), ("local.steps", "count/round"),
       ("local.step_ms", "ms"), ("optim.sgd_step_s", "s/round"),
       ("data.batch_s", "s/round")]
    + [(f"nn.{op}.{d}_{k}", unit)
       for op in NN_OPS for d in ("forward", "backward")
       for k, unit in (("s", "s/round"), ("calls", "count/round"))]
    + [("nn.conv2d.forward_gflops_per_s", "GFLOP/s"),
       ("compile.captures", "count/round"), ("compile.replays", "count/round"),
       ("compile.fallbacks", "count/round"), ("compile.replay_frac", "fraction"),
       ("workspace.hit_frac", "fraction"),
       ("core.select_s", "s/round"), ("core.select_salient_s", "s/round"),
       ("core.salient_aggregate_s", "s/round"),
       ("core.variate_refresh_s", "s/round"),
       ("wire.serialize_s", "s/round"), ("wire.serialize_bytes", "bytes/round"),
       ("wire.deserialize_s", "s/round"), ("wire.cached_frac", "fraction"),
       ("executor.collect_s", "s/round"), ("executor.busy_frac", "fraction"),
       ("faults.attempt_failures", "count/round"),
       ("faults.retries", "count/round"), ("faults.corrupt", "count/round"),
       ("scale.store_puts", "count/round"), ("scale.store_gets", "count/round"),
       ("scale.store_put_s", "s/round"), ("scale.store_get_s", "s/round"),
       ("scale.store_bytes", "bytes/round"),
       ("scale.materializations", "count/round"),
       ("scale.evictions", "count/round"), ("scale.folds", "count/round"),
       ("scale.edge_partials", "count/round"), ("scale.fold_add_s", "s/round"),
       ("async.dispatched", "count/round"),
       ("async.committed_updates", "count/round"),
       ("async.deduped", "count/round"), ("async.useful_frac", "fraction"),
       ("async.staleness_mean", "steps"), ("async.staleness_max", "steps"),
       ("async.commit_s", "s/round"), ("async.virtual_s", "s"),
       ("trace.overhead_s", "s")]
)

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = dict(PER_LAYER)

# Per-layer metrics where a larger value is the better one: throughputs,
# useful-work ratios and work counts; every other one is a cost.
HIGHER_IS_BETTER = {
    "run.client_delivered_frac", "run.final_val_acc",
    "local.steps", "nn.conv2d.forward_gflops_per_s", "compile.replays",
    "compile.replay_frac", "workspace.hit_frac", "wire.cached_frac",
    "executor.busy_frac", "async.committed_updates", "async.useful_frac",
}


def per_layer_better(name: str) -> str:
    return "higher" if name in HIGHER_IS_BETTER else "lower"
