"""Comm benchmark: fast transport layer vs the pre-PR pipeline.

Times the zero-copy wire codec, the per-round broadcast cache, and the
vectorized salient aggregation (DESIGN.md §11) against the verbatim
pre-optimization implementations, at two granularities:

- **micro** — codec passes over a full VGG-11 state dict (the paper's
  largest model): single-buffer serialize vs the original join-based
  encoder, zero-copy vs copying deserialize, the
  serialize→deserialize round trip, broadcast-cache hits, and Eq. 12
  aggregation vs :mod:`repro.fl.reference_agg` (bitwise-checked every
  repeat) — interleaved optimized/reference min-of-N so machine noise
  hits both sides equally;
- **e2e** — per-round wall time of ``--workers 2`` FedAvg and SPATL
  runs at the tiny scale with broadcast caching on vs off (off
  re-frames the sync state into every task, the pre-PR behaviour),
  with a byte-identity check of the final global model state and a
  ledger-total equality check between the two code paths.

Writes the whole record to ``BENCH_comm.json`` at the repo root (single
document, overwritten — the committed copy is the regression
baseline)::

    python benchmarks/bench_comm.py                # full run
    python benchmarks/bench_comm.py --smoke        # CI-sized
    python benchmarks/bench_comm.py --smoke --check  # + regression gate

``--check`` compares each microbench's optimized time against the
committed baseline *before* overwriting it, on a same-run basis: the
baseline's optimized time is scaled by how much slower (or faster) this
run timed the same case's reference path, so a uniformly slower machine
passes.  It exits non-zero if any case exceeds ``--check-factor``
(default 1.5x) times that expected time beyond a 0.15ms absolute noise
floor, or if an e2e run broke byte identity or ledger equality.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import struct
import time
import zlib
from pathlib import Path

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_comm.json"


# --------------------------------------------------------------------- #
# the pre-PR encoder, verbatim (the codec reference side)                #
# --------------------------------------------------------------------- #
def legacy_serialize(state, checksums=False):
    """The original join-based encoder the wire format is defined by."""
    import numpy as np
    from repro.fl import wire

    parts = [struct.pack("<I", len(state))]
    for name, value in state.items():
        arr = np.ascontiguousarray(value)
        if np.ndim(value) == 0:
            arr = arr.reshape(())
        raw_name = name.encode("utf-8")
        record = [struct.pack("<H", len(raw_name)), raw_name,
                  struct.pack("<BB", wire._DTYPE_CODE[arr.dtype], arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
        if checksums:
            record.append(struct.pack("<I", zlib.crc32(b"".join(record))))
        parts.extend(record)
    return b"".join(parts)


def interleaved(fn_opt, fn_ref, repeats: int) -> tuple[float, float]:
    """Min-of-``repeats`` seconds per side, alternating opt/ref each
    iteration so drift and frequency noise land on both."""
    t_opt = t_ref = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_opt()
        t_opt = min(t_opt, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_ref()
        t_ref = min(t_ref, time.perf_counter() - t0)
    return t_opt, t_ref


# --------------------------------------------------------------------- #
# micro cases                                                            #
# --------------------------------------------------------------------- #
def codec_cases(repeats: int):
    """Yield ``(name, opt_ms, ref_ms)`` for codec passes over a full
    VGG-11 state dict."""
    from repro.fl import wire
    from repro.models import build_model

    state = dict(build_model("vgg11", num_classes=10, input_size=32,
                             seed=0).state_dict())
    blob = wire.serialize(state)
    assert blob == legacy_serialize(state), "wire format drifted"

    # serialize to immutable bytes: single-buffer writer vs joins
    yield ("serialize.vgg11",
           *interleaved(lambda: wire.serialize(state),
                        lambda: legacy_serialize(state), repeats))
    yield ("serialize.vgg11.checksums",
           *interleaved(lambda: wire.serialize(state, checksums=True),
                        lambda: legacy_serialize(state, checksums=True),
                        repeats))
    # serialize into reusable arena scratch (the traced-path encode)
    yield ("serialize.vgg11.scratch",
           *interleaved(lambda: wire.serialize_scratch(state),
                        lambda: legacy_serialize(state), repeats))
    # deserialize: read-only views vs per-entry copies
    yield ("deserialize.vgg11.zero_copy",
           *interleaved(lambda: wire.deserialize(blob, copy=False),
                        lambda: wire.deserialize(blob, copy=True), repeats))

    # the acceptance case: one full serialize+deserialize round trip,
    # fast path (scratch encode + zero-copy decode) vs pre-PR path
    # (join encode + copying decode)
    def rt_opt():
        wire.deserialize(wire.serialize_scratch(state), copy=False)

    def rt_ref():
        wire.deserialize(legacy_serialize(state), copy=True)

    yield ("roundtrip.vgg11", *interleaved(rt_opt, rt_ref, repeats))

    # broadcast cache: a token hit vs re-encoding for every client
    cache = wire.BroadcastCache()
    cache.encode(state, token=1)
    yield ("broadcast.hit.vgg11",
           *interleaved(lambda: cache.encode(state, token=1),
                        lambda: wire.serialize(state), repeats))


def aggregation_cases(repeats: int):
    """Eq. 12 vectorized vs reference scatter, bitwise-checked."""
    import numpy as np
    from repro.core.aggregation import salient_aggregate
    from repro.fl.reference_agg import reference_salient_aggregate

    rng = np.random.default_rng(0)
    for label, shape in (("conv", (256, 256, 3, 3)), ("fc", (512, 512)),
                         ("bias", (512,))):
        g = rng.normal(size=shape).astype(np.float32)
        uploads = []
        for _ in range(5):                       # 5 clients, ~50% selection
            k = shape[0] // 2
            idx = np.sort(rng.choice(shape[0], size=k, replace=False))
            uploads.append((idx, rng.normal(
                size=(k,) + shape[1:]).astype(np.float32)))

        def opt():
            return salient_aggregate(g, uploads)

        def ref():
            return reference_salient_aggregate(g, uploads)

        assert opt().tobytes() == ref().tobytes(), \
            f"aggregation drifted from the oracle ({label})"
        yield f"aggregate.{label}", *interleaved(opt, ref, repeats)


# --------------------------------------------------------------------- #
# end-to-end rounds                                                      #
# --------------------------------------------------------------------- #
def e2e_case(algo_name: str, rounds: int, clients: int, samples: int,
             width: float, seed: int) -> dict:
    """``--workers 2`` rounds with broadcast caching on vs off.

    The workload is deliberately communication-heavy — full-width VGG-11
    (tens of MB per sync blob) with one local epoch over a small sample —
    so the per-task sync framing the cache removes is a measurable share
    of the round rather than being drowned in local-training noise;
    ``broadcast=False`` re-frames the sync state into every task, the
    pre-cache behaviour.
    Both sides run a warm-up round (pool fork, arenas), then each
    subsequent round is timed individually (min over rounds, alternating
    sides).  Final global states must be byte-identical and ledger
    totals equal.
    """
    from repro.experiments.configs import config_for, make_algorithm, \
        make_setting
    from repro.fl.comm import serialize_state
    from repro.fl.parallel import ProcessPoolRoundExecutor

    cfg = config_for("tiny", model="vgg11", input_size=32, width_mult=width,
                     n_clients=clients, n_samples=samples, local_epochs=1,
                     sample_ratio=1.0, seed=seed)

    def build(broadcast):
        model_fn, cl = make_setting(cfg)
        return make_algorithm(algo_name, cfg, model_fn, cl,
                              executor=ProcessPoolRoundExecutor(
                                  2, broadcast=broadcast))

    algo_on, algo_off = build(True), build(False)
    try:
        algo_on.run_round(0)                     # warm-up
        algo_off.run_round(0)
        t_on = t_off = float("inf")
        for r in range(1, rounds + 1):
            t0 = time.perf_counter()
            algo_on.run_round(r)
            t_on = min(t_on, time.perf_counter() - t0)
            t0 = time.perf_counter()
            algo_off.run_round(r)
            t_off = min(t_off, time.perf_counter() - t0)
        state_on = serialize_state(dict(algo_on.global_model.state_dict()))
        state_off = serialize_state(dict(algo_off.global_model.state_dict()))
        return {
            "algorithm": algo_name,
            "model": cfg.model,
            "width_mult": width,
            "workers": 2,
            "rounds_timed": rounds,
            "broadcast_round_s": round(t_on, 4),
            "no_broadcast_round_s": round(t_off, 4),
            "speedup": round(t_off / t_on, 4),
            "byte_identical": state_on == state_off,
            "ledger_equal": (algo_on.ledger.total_bytes()
                             == algo_off.ledger.total_bytes()),
            "total_bytes": algo_on.ledger.total_bytes(),
        }
    finally:
        algo_on.close()
        algo_off.close()


# --------------------------------------------------------------------- #
# regression gate                                                        #
# --------------------------------------------------------------------- #
def expected_opt_ms(live: dict, base: dict) -> float:
    """The optimized time ``live`` should show if only the machine
    changed: the baseline's optimized time scaled by the live/baseline
    ratio of the same case's reference time."""
    return base["opt_ms"] * live["ref_ms"] / base["ref_ms"]


def check_regressions(record: dict, baseline_doc: str | None,
                      factor: float) -> list[str]:
    """Failures of the current record against the committed baseline
    (passed as the baseline file's *pre-run* text, since the run may
    have overwritten it).

    A live micro row fails when its optimized time exceeds ``factor``
    times the expected time plus 0.15ms; the expected time is the
    baseline's optimized time scaled by this run's reference time over
    the baseline's (:func:`expected_opt_ms`), so machine speed cancels.
    """
    failures = []
    for row in record["e2e"]:
        if not row["byte_identical"]:
            failures.append(
                f"e2e {row['algorithm']}: state not byte-identical")
        if not row["ledger_equal"]:
            failures.append(f"e2e {row['algorithm']}: ledger totals differ")
    if baseline_doc is None:
        return failures + ["no committed baseline to check against"]
    try:
        baseline = json.loads(baseline_doc)
    except json.JSONDecodeError as exc:
        return failures + [f"unreadable baseline: {exc}"]
    base_micro = {m["name"]: m for m in baseline.get("micro", [])}
    for m in record["micro"]:
        base = base_micro.get(m["name"])
        if base is None:
            continue
        # 0.15ms absolute slack: the committed baseline is a min-of-N on
        # a quiet box; smoke runs jitter well past any ratio threshold
        # for sub-ms cases on shared CI cores.
        expected = expected_opt_ms(m, base)
        if m["opt_ms"] > factor * expected + 0.15:
            failures.append(
                f"micro {m['name']}: {m['opt_ms']:.3f}ms vs expected "
                f"{expected:.3f}ms (> {factor}x; baseline "
                f"{base['opt_ms']:.3f}ms at ref {base['ref_ms']:.3f}ms, "
                f"live ref {m['ref_ms']:.3f}ms)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: few repeats, one timed round")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed baseline")
    parser.add_argument("--check-factor", type=float, default=1.5,
                        help="allowed slowdown factor for --check")
    parser.add_argument("--repeats", type=int, default=None,
                        help="micro repeats (default 30, smoke 8)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timed e2e rounds (default 5, smoke 1)")
    parser.add_argument("--algos", nargs="+", default=["fedavg", "spatl"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=str(OUT_PATH))
    parser.add_argument("--baseline", default=str(OUT_PATH),
                        help="baseline JSON for --check (default: --out)")
    args = parser.parse_args(argv)

    repeats = args.repeats or (8 if args.smoke else 30)
    rounds = args.rounds or (1 if args.smoke else 5)
    clients = 4 if args.smoke else 8
    samples = 64 if args.smoke else 48
    width = 0.5 if args.smoke else 1.0

    baseline_path = Path(args.baseline)
    baseline_doc = baseline_path.read_text() if baseline_path.exists() \
        else None

    micro = []
    for case in (codec_cases(repeats), aggregation_cases(repeats)):
        for name, t_opt, t_ref in case:
            opt_ms, ref_ms = t_opt * 1e3, t_ref * 1e3
            micro.append({"name": name, "opt_ms": round(opt_ms, 4),
                          "ref_ms": round(ref_ms, 4),
                          "speedup": round(ref_ms / opt_ms, 4)})
            print(f"{name:28s} opt={opt_ms:9.3f}ms ref={ref_ms:9.3f}ms "
                  f"speedup={ref_ms / opt_ms:6.2f}x")

    e2e = []
    for algo_name in args.algos:
        row = e2e_case(algo_name, rounds, clients, samples, width,
                       args.seed)
        e2e.append(row)
        ok = row["byte_identical"] and row["ledger_equal"]
        status = "OK" if ok else "MISMATCH"
        print(f"e2e {algo_name:8s} workers=2 "
              f"broadcast={row['broadcast_round_s']:7.2f}s/round "
              f"off={row['no_broadcast_round_s']:7.2f}s/round "
              f"speedup={row['speedup']:5.2f}x [{status}]")

    from repro.obs.metrics import blas_env, observe_peak_rss
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "smoke": args.smoke,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "peak_rss_bytes": observe_peak_rss(),
        "env": blas_env(),
        "micro": micro,
        "e2e": e2e,
    }
    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"written to {out}")

    if args.check:
        failures = check_regressions(record, baseline_doc, args.check_factor)
        for f in failures:
            print(f"REGRESSION: {f}")
        return 1 if failures else 0
    return 0 if all(r["byte_identical"] and r["ledger_equal"]
                    for r in e2e) else 1


if __name__ == "__main__":
    raise SystemExit(main())
