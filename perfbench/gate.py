"""The benchmark's correctness gate over the repeats of one run.

Every repeat of a workload runs the same seed for the same number of
steps, traced or not, so all of them must end in the same global state
and the same ledger.  On the fault-free workloads a traced repeat's
codec spans must also carry exactly the ledger's bytes per direction.
Loss must be finite, and training must beat chance: accuracy above
``1/classes``, or on a workload that learns by loss, mean train loss
below the chance-level ``ln(classes)``.
"""

from __future__ import annotations

import math


def check(repeats: list[dict]) -> list[str]:
    """Every violation found across ``repeats`` (empty when correct)."""
    errors: list[str] = []
    if not repeats:
        return ["no repeat finished"]
    first = repeats[0]
    for i, rep in enumerate(repeats):
        tag = f"repeat {i} ({'traced' if rep['traced'] else 'untraced'})"
        if rep["state_sha256"] != first["state_sha256"]:
            errors.append(f"{tag}: state hash {rep['state_sha256'][:16]} != "
                          f"{first['state_sha256'][:16]} of repeat 0")
        if rep["ledger"] != first["ledger"]:
            errors.append(f"{tag}: ledger {rep['ledger']} != "
                          f"{first['ledger']} of repeat 0")
        loss = rep["final_train_loss"]
        if loss is None or not math.isfinite(loss):
            errors.append(f"{tag}: train loss {loss} is not finite")
        acc = rep["final_val_acc"]
        if rep["learns_by"] == "accuracy" and not acc > rep["chance"]:
            errors.append(f"{tag}: accuracy {acc} does not beat chance "
                          f"{rep['chance']}")
        if rep["learns_by"] == "loss" and not loss < rep["chance_loss"]:
            errors.append(f"{tag}: train loss {loss} does not beat the "
                          f"chance level {rep['chance_loss']}")
        if rep["failed_steps"]:
            errors.append(f"{tag}: {rep['failed_steps']} step(s) did not "
                          "commit")
        codec = rep.get("codec_bytes")
        if codec is not None and codec != rep["ledger"]:
            errors.append(f"{tag}: traced codec bytes {codec} != ledger "
                          f"{rep['ledger']}")
    return errors
