"""Round benchmark of the SPATL reproduction: one workload per call.

Run from the root of a checkout::

    python3 perfbench/run.py --workload spatl-cifar-resnet20 --seed 1 \\
        --seconds 12 --trace 0

``--workload all`` runs the four workloads in turn.

Each repeat of the workload runs in a fresh process
(:mod:`perfbench.repeat`); repeats continue until ``--seconds`` have
passed, with at least two.  ``--trace 0`` repeats run untraced and give
the end-to-end metrics.  ``--trace 1`` alternates untraced and traced
repeats; the traced ones give the per-layer metrics, and the difference
of the two kinds' round times is the tracing overhead.  Every repeat must reach the same
global-state hash and ledger (:mod:`perfbench.gate`).

Standard output ends with a human-readable table, one JSON line with
the full record (environment, every repeat, values that could not be
measured and why), and last the summary line::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

The exit code is 0 when every check passed, 1 when a check failed and 2
when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import gate, spec  # noqa: E402
from perfbench.workloads import BY_NAME, WORKLOADS  # noqa: E402

# A run must end within this many seconds; no repeat starts when the
# last one suggests it would not finish in time.
DEADLINE_S = 150.0


def run_repeat(workload: str, seed: int, traced: bool, tmp: str,
               timeout: float) -> dict:
    """One repeat in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "perfbench.repeat", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--tmp", tmp]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"repeat exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def round_seconds(repeats: list[dict]) -> float:
    """Median wall seconds per timed round.

    An async commit folds however many deliveries the virtual clock
    brought in since the last one, so commits are unequal units of work
    and the async workload reports their mean (timed wall / commits).
    """
    step_s = [s for r in repeats for s in r["step_s"]]
    if repeats[0]["driver"] == "async":
        return sum(step_s) / len(step_s)
    return statistics.median(step_s)


def end_to_end(repeats: list[dict]) -> dict:
    """End-to-end metrics over the untraced repeats."""
    plain = [r for r in repeats if not r["traced"]]
    first = plain[0]
    step_s = [s for r in plain for s in r["step_s"]]
    examples = sum(e for r in plain for e in r["examples"])
    return {
        "round_s": round_seconds(plain),
        "samples_per_s": examples / sum(step_s),
        "setup_s": median([r["setup_s"] for r in repeats]),
        "uplink_bytes_per_round": first["ledger"]["up"] / first["steps"],
        "downlink_bytes_per_round": first["ledger"]["down"] / first["steps"],
    }


def run_outcomes(repeats: list[dict]) -> dict:
    """Whole-run outcomes, reported without a bound (see spec.PER_LAYER)."""
    plain = [r for r in repeats if not r["traced"]]
    first = plain[0]
    return {
        "run.peak_rss_bytes": median([r["peak_rss_bytes"] for r in plain]),
        "run.client_delivered_frac": first["delivered"] / first["attempted"],
        "run.final_val_acc": first["final_val_acc"],
        "run.final_train_loss": first["final_train_loss"],
    }


def per_layer(repeats: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics: medians over the traced repeats."""
    traced = [r for r in repeats if r["traced"]]
    plain = [r for r in repeats if not r["traced"]]
    values = run_outcomes(repeats)
    for name in spec.PER_LAYER_UNITS:
        if name not in values and name != "trace.overhead_s":
            values[name] = median([r["layers"][name] for r in traced])
    values["trace.overhead_s"] = round_seconds(traced) - round_seconds(plain)
    reasons = {}
    for r in traced:
        reasons.update(r["layer_reasons"])
    return values, {k: v for k, v in reasons.items() if values.get(k) is None}


def table(metrics: dict, units: dict) -> str:
    rows = [f"{name:<36} {_fmt(value):>16} {units[name]}"
            for name, value in metrics.items()]
    return "\n".join(rows)


def _fmt(value) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}"


def measure(name: str, seed: int, seconds: float, trace: int) -> int:
    """Run, check and report one workload; returns the exit code."""
    from perfbench.env import environment
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    start = time.perf_counter()
    repeats: list[dict] = []
    try:
        while True:
            # Trace 1 alternates untraced and traced repeats, so that
            # the overhead compares repeats from the same stretch of time.
            traced = bool(trace) and len(repeats) % 2 == 1
            elapsed = time.perf_counter() - start
            rep_tmp = os.path.join(tmp, f"repeat-{len(repeats)}")
            os.makedirs(rep_tmp)
            repeats.append(run_repeat(name, seed, traced, rep_tmp,
                                      DEADLINE_S + 20 - elapsed))
            shutil.rmtree(rep_tmp, ignore_errors=True)
            elapsed = time.perf_counter() - start
            per_repeat = elapsed / len(repeats)
            if len(repeats) >= 2 and (elapsed >= seconds
                                      or elapsed + per_repeat > DEADLINE_S):
                break
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {name} seed {seed}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        _remove_if_empty(os.path.join(ROOT, ".perfbench_tmp"))

    errors = gate.check(repeats)
    if trace:
        metrics, unobserved = per_layer(repeats)
        units = spec.PER_LAYER_UNITS
    else:
        metrics, unobserved = end_to_end(repeats), {}
        units = spec.END_TO_END_UNITS
    steps = sum(r["steps"] for r in repeats)
    samples = sum(len(r["step_s"]) for r in repeats
                  if r["traced"] == bool(trace))
    record = {
        "workload": name,
        "why": BY_NAME[name].why,
        "trace": trace,
        "env": environment(ROOT, seed),
        "wall_s": time.perf_counter() - start,
        "metrics": metrics,
        "round_samples": samples,
        "outcomes": run_outcomes(repeats),
        "unobserved": unobserved,
        "errors": errors,
        "repeats": repeats,
    }
    print(f"# {name} seed={seed} trace={trace} repeats={len(repeats)} "
          f"steps={steps} round samples={samples}")
    print(table(metrics, units))
    for err in errors:
        print(f"CHECK FAILED: {err}")
    print(json.dumps(record))
    summary = {
        "correct": not errors,
        "attempted": steps,
        "failed": sum(r["failed_steps"] for r in repeats),
        "metrics": {metric: {"value": 0.0 if value is None else value,
                             "unit": units[metric]}
                    for metric, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if not errors else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(BY_NAME) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is "
              "missing", file=sys.stderr)
        return 2
    names = ([w.name for w in WORKLOADS] if args.workload == "all"
             else [args.workload])
    return max(measure(name, args.seed, args.seconds, args.trace)
               for name in names)


def _remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
