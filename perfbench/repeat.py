"""One repeat of one workload, run in a fresh process.

``python3 -m perfbench.repeat --workload W --seed N --trace 0|1 --tmp DIR``
builds the workload, times its set-up and every step, and prints one
JSON record as the last line of standard output.  A fresh process per
repeat keeps the peak resident set (``VmHWM``) and any fork-inherited
state to this repeat alone; pool children's peak comes from
``RUSAGE_CHILDREN`` once the pool has been joined.

Step 0 is a warm-up (worker pools start and compiled steps are captured
there) and is reported apart; later steps are the timed window.  With
``--trace 1`` the program's tracer, the op profiler and the layer
wrappers of :mod:`perfbench.layers` are on for the whole repeat, and the
per-layer table covers the timed window only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import sys
import time


def _peak_rss_bytes() -> int:
    from repro.obs import peak_rss_bytes
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    return int(peak_rss_bytes() + children)


def run(workload_name: str, seed: int, traced: bool, tmp: str) -> dict:
    from repro.obs import OpProfiler, Tracer, tracing

    from perfbench import layers
    from perfbench.spans import SpanTable
    from perfbench.workloads import (BY_NAME, ledger_totals, open_session,
                                     state_sha256)

    workload = BY_NAME[workload_name]
    t0 = time.perf_counter()
    session = open_session(workload, seed, tmp)
    setup_s = time.perf_counter() - t0

    tracer = Tracer() if traced else None
    profiler = OpProfiler() if traced else None
    walls, outcomes = [], []
    window: dict = {}
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(layers.instrument(profiler))
            stack.enter_context(profiler)
            stack.enter_context(tracing(tracer))
        for i in range(workload.steps):
            if i == 1:
                window = _window_marks(session, tracer)
                if traced:
                    profiler.stats.clear()
            t = time.perf_counter()
            result = session.step(i)
            walls.append(time.perf_counter() - t)
            outcomes.append(session.outcome(i, result))
        if traced:
            end = _window_marks(session, tracer)
    state = state_sha256(session.algo)
    ledger = ledger_totals(session.algo.ledger)
    last = outcomes[-1]
    acc = last.val_acc if last.val_acc is not None else session.final_acc()
    virtual_s = getattr(session, "virtual_s", None)
    session.close()

    record = {
        "traced": traced,
        "driver": workload.driver,
        "learns_by": workload.learns_by,
        "setup_s": setup_s,
        "warmup_s": walls[0],
        "step_s": walls[1:],
        "examples": [o.examples for o in outcomes[1:]],
        "delivered": sum(o.delivered for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "steps": len(outcomes),
        "failed_steps": sum(1 for o in outcomes if not o.committed),
        "state_sha256": state,
        "ledger": ledger,
        "final_train_loss": last.train_loss,
        "final_val_acc": acc,
        "chance": session.chance,
        "chance_loss": math.log(1.0 / session.chance),
        "peak_rss_bytes": _peak_rss_bytes(),
        "virtual_s": virtual_s,
    }
    if traced:
        records = tracer.records()
        if workload.codec_check:
            record["codec_bytes"] = SpanTable(records).bytes_by_ancestor(
                "serialize", {"down": ("download", "dispatch"),
                              "up": ("upload", "buffer")})
        counters = layers.counter_deltas(window["registry"], end["registry"],
                                         layers.COUNTERS)
        faults = {k: end["faults"][k] - window["faults"][k]
                  for k in ("n_retries", "n_corrupt")}
        pooled = session.workers > 1
        hidden = ("clients train in pool workers: their op-profiler tables "
                  "stay in the workers, and compiled replays skip the module "
                  "hooks" if pooled else None)
        workspace_delta = None
        if not pooled:
            workspace_delta = tuple(end["workspace"][k] - window["workspace"][k]
                                    for k in (0, 1))
        async_window = None
        if workload.driver == "async":
            async_window = _async_window(session, window, end, virtual_s)
        values, reasons = layers.layer_table(
            workload.driver, records[window["n_spans"]:], len(walls) - 1,
            counters, profiler.stats, workspace_delta, faults, async_window,
            session.workers, hidden)
        record["layers"] = values
        record["layer_reasons"] = reasons
        record["nn_top_ops"] = [op for op, _ in profiler.top_hotspots(4)]
    return record


def _window_marks(session, tracer) -> dict:
    """Counters and trace position at a window boundary."""
    from repro.obs import get_registry
    from repro.tensor import workspace
    ws = workspace.stats_snapshot()
    marks = {
        "registry": get_registry().snapshot(),
        "faults": session.algo.fault_stats.as_dict(),
        "workspace": (sum(v[0] for v in ws.values()),
                      sum(v[1] for v in ws.values())),
    }
    runner = getattr(session, "runner", None)
    if hasattr(runner, "counters"):
        marks["async"] = dict(runner.counters)
        marks["async_steps"] = len(runner.step_results)
    if tracer is not None:
        marks["n_spans"] = len(tracer.spans)
    return marks


def _async_window(session, start: dict, end: dict, virtual_s) -> dict:
    steps = session.runner.step_results[start["async_steps"]:]
    n_updates = sum(s.n_updates for s in steps)
    return {
        "dispatched": end["async"]["dispatched"] - start["async"]["dispatched"],
        "committed": end["async"]["committed"] - start["async"]["committed"],
        "deduped": end["async"]["deduped"] - start["async"]["deduped"],
        "staleness_mean": (sum(s.mean_staleness * s.n_updates for s in steps)
                           / n_updates if n_updates else 0.0),
        "staleness_max": max((s.max_staleness for s in steps), default=0),
        "virtual_s": virtual_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args(argv)
    record = run(args.workload, args.seed, bool(args.trace), args.tmp)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
