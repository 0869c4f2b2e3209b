"""Tests of the benchmark's own code (not of the program it measures)."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import gate, layers, spec
from perfbench.run import run_outcomes
from perfbench.spans import SpanTable, covered, link_parents, self_times
from perfbench.workloads import BY_NAME, WORKLOADS, open_session

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = r"[A-Za-z0-9_.-]+"


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_counts():
    e2e = [name for name, *_ in spec.END_TO_END]
    layer = [name for name, _ in spec.PER_LAYER]
    assert len(e2e) <= spec.MAX_END_TO_END
    assert len(layer) <= spec.MAX_PER_LAYER
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    for name in e2e + layer + [w.name for w in WORKLOADS]:
        assert spec.NAME_RE.match(name), name
        assert re.fullmatch(NAME, name), name
    units = [u for _, u, *_ in spec.END_TO_END] + [u for _, u in spec.PER_LAYER]
    assert all(spec.UNIT_RE.match(u) for u in units)
    assert all(0 < bound <= 0.25 for *_, bound in spec.END_TO_END)
    setup = [row for row in spec.END_TO_END if row[0] == "setup_s"]
    assert setup == [("setup_s", "s", "lower",
                      max(b for *_, b in spec.END_TO_END))]


def test_benchmark_json_matches_spec():
    bench = _benchmark_json()
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in spec.END_TO_END]
    assert bench["per_layer"] == [
        {"name": n, "unit": u, "better": spec.per_layer_better(n)}
        for n, u in spec.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == \
        [w.name for w in WORKLOADS]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])


def test_layer_table_covers_every_per_layer_metric():
    counters = dict.fromkeys(layers.COUNTERS, 0.0)
    for driver in ("sync", "scale", "async"):
        async_window = None if driver != "async" else dict(
            dispatched=0, committed=0, deduped=0, staleness_mean=0.0,
            staleness_max=0, virtual_s=0.0)
        values, reasons = layers.layer_table(
            driver, [], 1, counters, {}, (0, 0), {}, async_window, 1, None)
        names = set(values) | set(run_outcomes([_outcome_repeat()]))
        assert names | {"trace.overhead_s"} == set(spec.PER_LAYER_UNITS)
        assert {k for k, v in values.items() if v is None} == set(reasons)


def _outcome_repeat():
    return {"traced": False, "peak_rss_bytes": 1, "delivered": 1,
            "attempted": 1, "final_val_acc": 0.5, "final_train_loss": 1.0}


def _rec(name, start, dur, depth):
    return {"name": name, "start_s": start, "dur_s": dur, "depth": depth}


def test_self_time_on_nested_spans():
    records = [
        _rec("round", 0.0, 10.0, 0),
        _rec("a", 1.0, 3.0, 1),          # [1, 4]
        _rec("a.child", 2.0, 1.0, 2),    # [2, 3]
        _rec("b", 5.0, 1.0, 1),          # [5, 6]
        _rec("round", 10.0, 4.0, 0),
        _rec("w1", 10.0, 2.0, 1),        # parallel worker spans overlap
        _rec("w2", 11.0, 2.0, 1),
    ]
    assert link_parents(records) == [None, 0, 1, 0, None, 4, 4]
    assert self_times(records) == pytest.approx(
        [10.0 - 3.0 - 1.0, 2.0, 1.0, 1.0, 4.0 - 3.0, 2.0, 2.0])
    table = SpanTable(records)
    assert table.self_total("round") == pytest.approx(7.0)
    assert table.total("round") == pytest.approx(14.0)
    assert covered([(0.0, 5.0), (8.0, 20.0)], 2.0, 10.0) == pytest.approx(5.0)


def test_codec_bytes_grouped_by_ancestor():
    records = [
        _rec("download", 0.0, 1.0, 0),
        dict(_rec("serialize", 0.1, 0.1, 1), attrs={"bytes": 7}),
        _rec("upload", 1.0, 1.0, 0),
        dict(_rec("serialize", 1.1, 0.1, 1), attrs={"bytes": 5}),
        dict(_rec("serialize", 2.1, 0.1, 0), attrs={"bytes": 100}),
    ]
    assert SpanTable(records).bytes_by_ancestor(
        "serialize", {"down": ("download",), "up": ("upload",)}) == \
        {"down": 7, "up": 5}


def _repeat(**over):
    rep = {"traced": False, "state_sha256": "ab" * 32,
           "ledger": {"up": 10, "down": 20}, "final_train_loss": 1.5,
           "final_val_acc": 0.4, "chance": 0.1, "chance_loss": 2.3,
           "learns_by": "accuracy", "failed_steps": 0}
    rep.update(over)
    return rep


def test_gate_passes_identical_repeats():
    traced = _repeat(traced=True, codec_bytes={"up": 10, "down": 20})
    assert gate.check([_repeat(), traced]) == []


@pytest.mark.parametrize("over", [
    {"state_sha256": "cd" * 32},
    {"ledger": {"up": 11, "down": 20}},
    {"final_train_loss": float("nan")},
    {"final_val_acc": 0.1},
    {"learns_by": "loss", "final_train_loss": 2.4, "final_val_acc": 0.0},
    {"failed_steps": 1},
    {"codec_bytes": {"up": 10, "down": 19}},
])
def test_gate_fails_on_perturbation(over):
    errors = gate.check([_repeat(), _repeat(**over)])
    assert len(errors) == 1


def _input_digest(workload, seed, tmp):
    session = open_session(workload, seed, str(tmp))
    try:
        digest = hashlib.sha256()
        for client in session.algo.clients[:3]:
            digest.update(np.ascontiguousarray(client.train_data.x).tobytes())
        return digest.hexdigest()
    finally:
        session.close()


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_seed_changes_inputs(workload, tmp_path):
    w = BY_NAME[workload]
    one = _input_digest(w, 1, tmp_path / "a")
    assert one == _input_digest(w, 1, tmp_path / "b")
    assert one != _input_digest(w, 2, tmp_path / "c")


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = _benchmark_json()
    cmd = bench["command"] + ["--workload", WORKLOADS[0].name, "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
