"""The benchmark's workloads: one ``(name, config)`` row per round driver.

Each workload builds its setting from the seed alone, through the
program's public API (``config_for`` / ``make_setting`` /
``make_algorithm``, ``ScaleRunner``, ``AsyncFederatedRunner``), and
exposes the same small session interface to the repeat runner:

- ``step(i)`` runs one round (one server commit on the async workload)
  and is the only call the repeat runner times;
- ``outcome(i, result)`` then reports the local training examples the
  step consumed, its delivered/attempted client counts, loss and
  accuracy;
- ``final_acc()`` evaluates after the last step on the drivers that do
  not evaluate inside their rounds;
- ``close()`` releases worker pools.

Shard sizes are below the paper's ``tiny`` scale so that one run holds
several rounds per repeat; the models, client counts, epochs and
transport stack are the ones each workload exists to exercise.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    driver: str                 # "sync" | "scale" | "async"
    algorithm: str
    steps: int                  # rounds (or commits) per repeat, warm-up included
    config: dict = field(default_factory=dict)
    # What shows that training works: local accuracy above chance, or
    # (for a global FedAvg model that stays near chance for a few rounds
    # on some seeds) mean train loss below the chance-level ln(classes).
    learns_by: str = "accuracy"

    @property
    def codec_check(self) -> bool:
        """Fault-free workloads: traced codec bytes must equal the ledger."""
        return not any(k.startswith("fault_") for k in self.config)


WORKLOADS = [
    Workload(
        name="spatl-cifar-resnet20",
        why=("SPATL with the static saliency policy on resnet20, serial and "
             "eager: conv backward dominates, and the pool, compile, quant, "
             "scale and async layers are bypassed"),
        driver="sync", algorithm="spatl", steps=5,
        config=dict(model="resnet20", dataset="cifar10", n_clients=10,
                    sample_ratio=1.0, local_epochs=2, n_samples=600)),
    Workload(
        name="fedavg-cifar-vgg11-pool",
        why=("FedAvg on GEMM-bound vgg11 through the whole transport stack: "
             "process pool of 2, compiled steps, int8 uplink with error "
             "feedback, and injected drops and corruptions"),
        driver="sync", algorithm="fedavg", steps=4, learns_by="loss",
        config=dict(model="vgg11", dataset="cifar10", input_size=32,
                    n_clients=8, sample_ratio=1.0, local_epochs=1,
                    n_samples=600, executor="process", workers=2,
                    compile=True, quant_bits=8, quant_ef=True,
                    fault_drop_prob=0.1, fault_corrupt_prob=0.1)),
    Workload(
        name="spatl-femnist-cnn2-scale",
        why=("ScaleRunner with 2 edges over 1000 virtual FEMNIST clients on "
             "a disk store, 10% sampled: many small dispatch-bound clients "
             "and the streaming SPATL fold"),
        driver="scale", algorithm="spatl", steps=3,
        config=dict(model="cnn2", dataset="femnist", n_clients=1000,
                    sample_ratio=0.1, local_epochs=1, num_classes=62)),
    Workload(
        name="spatl-cifar-resnet20-async",
        why=("FedBuff driver over the resnet20 SPATL setting with 12 clients, "
             "stragglers and duplicate uploads: staleness-weighted "
             "aggregation and dedup"),
        driver="async", algorithm="spatl", steps=17,
        config=dict(model="resnet20", dataset="cifar10", n_clients=12,
                    sample_ratio=1.0, local_epochs=2, n_samples=600)),
]

BY_NAME = {w.name: w for w in WORKLOADS}

# Server knobs of the async workload (FedBuff with stragglers and dups).
ASYNC_PROFILE = dict(straggler_prob=0.3, slowdown=6.0, duplicate_prob=0.1)
ASYNC_BUFFER_K = 3
# Edge aggregators of the scale workload.
SCALE_EDGES = 2


def state_sha256(algo) -> str:
    """SHA-256 over the server's global state (model + SPATL variates)."""
    digest = hashlib.sha256()
    items = sorted(algo.global_model.state_dict().items())
    c_global = getattr(algo, "c_global", None)
    if c_global is not None:
        items += sorted((f"c_global.{k}", v)
                        for k, v in c_global.values.items())
    for key, value in items:
        arr = np.ascontiguousarray(value)
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def ledger_totals(ledger) -> dict:
    """Per-direction byte totals of a :class:`repro.fl.CommLedger`."""
    up = sum(sum(v.values()) for v in ledger.uplink.values())
    down = sum(sum(v.values()) for v in ledger.downlink.values())
    return {"up": int(up), "down": int(down)}


@dataclass
class StepOutcome:
    examples: int
    delivered: int
    attempted: int
    committed: bool
    train_loss: float
    val_acc: float | None


class SyncSession:
    """``FederatedAlgorithm.run_round`` on a materialized setting."""

    def __init__(self, workload: Workload, seed: int, tmp: str):
        from repro.experiments.configs import (config_for, make_algorithm,
                                               make_setting)
        self.cfg = config_for("tiny", seed=seed, **workload.config)
        model_fn, self.clients = make_setting(self.cfg)
        self.algo = make_algorithm(workload.algorithm, self.cfg, model_fn,
                                   self.clients)
        self.workers = max(1, self.cfg.workers)
        self.chance = 1.0 / self.cfg.num_classes

    def step(self, i: int):
        return self.algo.run_round(i)

    def outcome(self, i: int, res) -> StepOutcome:
        return StepOutcome(
            examples=self.trained_examples(i),
            delivered=res.n_participants,
            attempted=res.n_participants + res.n_dropped,
            committed=res.committed, train_loss=res.avg_train_loss,
            val_acc=res.avg_val_acc)

    def trained_examples(self, i: int) -> int:
        """Examples trained by clients that reached the upload."""
        by_id = {c.client_id: c for c in self.clients}
        return sum(by_id[cid].num_train * self.algo.epochs_for(by_id[cid], i)
                   for cid in self.algo.ledger.uplink.get(i, {}))

    def final_acc(self) -> float | None:
        return None

    def close(self) -> None:
        self.algo.close()


class ScaleSession(SyncSession):
    """``ScaleRunner`` over a virtual-client pool on a disk store."""

    def __init__(self, workload: Workload, seed: int, tmp: str):
        from repro.data import by_writer_partition
        from repro.experiments.configs import (config_for, make_algorithm,
                                               make_dataset)
        from repro.fl import (ClientStateStore, ScaleRunner,
                              ShardedClientFactory, VirtualClientPool)
        from repro.models import build_model
        cfg = self.cfg = config_for("tiny", seed=seed, **workload.config)
        dataset = make_dataset(cfg)
        parts = by_writer_partition(dataset.writer_ids, cfg.n_clients,
                                    seed=cfg.seed)
        store = ClientStateStore(os.path.join(tmp, "store"))
        self.factory = ShardedClientFactory(dataset=dataset, parts=parts,
                                            batch_size=cfg.batch_size,
                                            seed=cfg.seed)
        self.pool = VirtualClientPool(self.factory, len(parts), store)

        def model_fn():
            return build_model(cfg.model, num_classes=cfg.num_classes,
                               input_size=cfg.input_size,
                               width_mult=cfg.width_mult, seed=cfg.seed + 1)

        self.algo = make_algorithm(workload.algorithm, cfg, model_fn,
                                   self.pool.clients())
        self.runner = ScaleRunner(self.algo, pool=self.pool,
                                  edges=SCALE_EDGES, eval_mode="none")
        self.workers = 1
        self.chance = 1.0 / cfg.num_classes
        self.last_cohort: list[int] = []

    def step(self, i: int):
        return self.runner.run_round(i)

    def outcome(self, i: int, res) -> StepOutcome:
        self.last_cohort = sorted(self.algo.ledger.uplink.get(i, {}))
        return StepOutcome(
            examples=self.trained_examples(i),
            delivered=res.n_participants,
            attempted=len(self.last_cohort),
            committed=res.committed, train_loss=res.avg_train_loss,
            val_acc=None)

    def final_acc(self) -> float:
        """Mean validation accuracy over the last round's cohort.

        The runner itself evaluates nothing (``eval_mode="none"``); this
        runs after the timed rounds and the state hash, through the pool
        so each client is evaluated with its own SPATL predictor.
        """
        from repro.fl import VirtualClient
        accs = []
        for cid in self.last_cohort:
            client = VirtualClient(cid, self.pool)
            acc, _ = client.evaluate(self.algo.client_eval_model(client))
            accs.append(acc)
            self.pool.evict(cid)
        return float(np.mean(accs))

    def trained_examples(self, i: int) -> int:
        # Fresh clients from the factory: sizing a cohort through the
        # pool would materialize and re-spill clients (store traffic).
        return sum(self.factory(cid).num_train * self.cfg.local_epochs
                   for cid in self.algo.ledger.uplink.get(i, {}))


class AsyncSession(SyncSession):
    """``AsyncFederatedRunner`` (FedBuff) over a materialized setting."""

    def __init__(self, workload: Workload, seed: int, tmp: str):
        from repro.fl import AsyncConfig, AsyncFederatedRunner, AsyncProfile
        super().__init__(workload, seed, tmp)
        self.runner = AsyncFederatedRunner(
            self.algo, AsyncProfile(seed=seed, **ASYNC_PROFILE),
            AsyncConfig(buffer_k=ASYNC_BUFFER_K))
        self._seen_jobs = 0
        self._accepted = 0
        self._resolved = 0

    def step(self, i: int):
        (res,) = self.runner.run(1)
        return res

    def outcome(self, i: int, res) -> StepOutcome:
        jobs = list(self.runner.jobs.values())[self._seen_jobs:]
        self._seen_jobs += len(jobs)
        by_id = {c.client_id: c for c in self.clients}
        examples = sum(by_id[j.client_id].num_train
                       * self.algo.epochs_for(by_id[j.client_id], 0)
                       for j in jobs if not j.crashed)
        counters = self.runner.counters
        resolved = counters["dispatched"] - len(self.runner.inflight)
        delivered = counters["accepted"] - self._accepted
        attempted = resolved - self._resolved
        self._accepted, self._resolved = counters["accepted"], resolved
        return StepOutcome(examples=examples, delivered=delivered,
                           attempted=attempted, committed=True,
                           train_loss=res.train_loss, val_acc=None)

    def final_acc(self) -> float:
        return self.algo.evaluate_all()

    @property
    def virtual_s(self) -> float:
        return float(self.runner.clock.now)


SESSIONS = {"sync": SyncSession, "scale": ScaleSession, "async": AsyncSession}


def open_session(workload: Workload, seed: int, tmp: str):
    return SESSIONS[workload.driver](workload, seed, tmp)
