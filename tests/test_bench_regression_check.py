"""Regression gates of ``bench_kernels.py`` and ``bench_comm.py --check``.

Both gates compare a live record against the committed baseline on a
same-run basis: the baseline's optimized time is scaled by the live /
baseline ratio of the reference time measured alongside it.  A machine
that is uniformly slower must therefore pass, while an optimized path
that lost ground against its own reference must still fail.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, _ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module", params=["bench_kernels", "bench_comm"])
def gate(request):
    """(bench module, committed baseline text) per gated bench."""
    module = _load(request.param)
    return module, module.OUT_PATH.read_text()


def _live(baseline_doc, opt_scale=1.0, ref_scale=1.0, only=None):
    """A live smoke record: the baseline's micro rows with opt/ref times
    scaled (all rows, or just the row named ``only``)."""
    micro = []
    for row in json.loads(baseline_doc)["micro"]:
        hit = only is None or row["name"] == only
        opt = row["opt_ms"] * (opt_scale if hit else 1.0)
        ref = row["ref_ms"] * (ref_scale if hit else 1.0)
        micro.append({"name": row["name"], "opt_ms": opt, "ref_ms": ref,
                      "speedup": ref / opt})
    return {"smoke": True, "micro": micro, "e2e": []}


def _check(module, record, baseline_doc):
    return module.check_regressions(record, baseline_doc, 1.5)


def test_baseline_against_itself_passes(gate):
    module, baseline = gate
    assert _check(module, _live(baseline), baseline) == []


@pytest.mark.parametrize("slowdown", [1.9, 3.0])
def test_uniformly_slower_machine_passes(gate, slowdown):
    """Every op slower by the same factor, opt and ref alike: only the
    machine changed, so the gate must stay silent."""
    module, baseline = gate
    record = _live(baseline, opt_scale=slowdown, ref_scale=slowdown)
    assert _check(module, record, baseline) == []


def test_opt_regressed_against_its_own_ref_fails(gate):
    module, baseline = gate
    name = json.loads(baseline)["micro"][0]["name"]
    record = _live(baseline, opt_scale=2.0, only=name)
    errors = _check(module, record, baseline)
    assert len(errors) == 1 and name in errors[0]


def test_regression_hidden_by_a_faster_machine_fails(gate):
    """A machine twice as fast shrinks the expected time too, so an opt
    path that merely held its old absolute time is a regression."""
    module, baseline = gate
    name = json.loads(baseline)["micro"][0]["name"]
    record = _live(baseline, ref_scale=0.5, only=name)   # opt unchanged
    errors = _check(module, record, baseline)
    assert len(errors) == 1 and name in errors[0]


def test_expected_opt_ms_scales_by_reference(gate):
    module, _ = gate
    base = {"opt_ms": 1.0, "ref_ms": 2.0}
    assert module.expected_opt_ms({"opt_ms": 9.9, "ref_ms": 4.0},
                                  base) == pytest.approx(2.0)


def test_slack_absorbs_sub_ms_jitter(gate):
    """The 0.15ms absolute slack still applies on top of the 1.5x."""
    module, _ = gate
    base_doc = json.dumps({"micro": [{"name": "op", "opt_ms": 0.1,
                                      "ref_ms": 0.2, "speedup": 2.0}]})
    ok = {"smoke": True, "e2e": [],
          "micro": [{"name": "op", "opt_ms": 0.29, "ref_ms": 0.2,
                     "speedup": 0.2 / 0.29}]}
    bad = {"smoke": True, "e2e": [],
           "micro": [{"name": "op", "opt_ms": 0.31, "ref_ms": 0.2,
                      "speedup": 0.2 / 0.31}]}
    assert _check(module, ok, base_doc) == []
    assert _check(module, bad, base_doc) != []


def test_kernel_speedup_floor_still_applies():
    module = _load("bench_kernels")
    base_doc = json.dumps({"micro": [{"name": "op", "opt_ms": 1.0,
                                      "ref_ms": 0.9, "speedup": 0.9}]})
    live = {"smoke": True, "e2e": [],
            "micro": [{"name": "op", "opt_ms": 1.0, "ref_ms": 0.9,
                       "speedup": 0.9}]}
    errors = module.check_regressions(live, base_doc, 1.5, min_speedup=0.97)
    assert len(errors) == 1 and "floor" in errors[0]
