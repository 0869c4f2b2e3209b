"""OpenBLAS thread budget of process-pool workers (DESIGN.md §9).

Each pool worker caps its OpenBLAS threadpool at
``max(1, min(parent_threads, usable_cpus // workers))`` in the pool
initializer, so a pool never runs more BLAS threads than the parent may
use cores.  The budget arithmetic is tested as a pure function; the pool
tests read the thread count back from inside each worker under both
start methods.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import pytest

from repro.data import dirichlet_partition
from repro.fl import make_federated_clients
from repro.fl.fedavg import FedAvg
from repro.fl.parallel import ProcessPoolRoundExecutor
from repro.obs.metrics import blas_env
from repro.utils import blas


# (affinity CPUs, workers) -> threads per worker, with the parent at
# OpenBLAS's default of one thread per usable CPU.
_BUDGETS = {(1, 2): 1, (1, 3): 1, (1, 4): 1,
            (2, 2): 1, (2, 3): 1, (2, 4): 1,
            (4, 2): 2, (4, 3): 1, (4, 4): 1}


@pytest.mark.parametrize("cpus,workers", sorted(_BUDGETS))
def test_budget_splits_cpus_across_workers(cpus, workers):
    budget = blas.thread_budget(workers, cpus, parent_threads=cpus)
    assert budget == _BUDGETS[cpus, workers]
    if cpus >= workers:
        assert workers * budget <= cpus


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_budget_respects_a_capped_parent(cpus):
    assert blas.thread_budget(2, cpus, parent_threads=1) == 1


def test_budget_without_openblas_uses_cpus_only():
    assert blas.thread_budget(2, 8, parent_threads=None) == 4
    assert blas.thread_budget(4, 2, parent_threads=None) == 1


def test_usable_cpus_follows_affinity():
    if hasattr(os, "sched_getaffinity"):
        assert blas.usable_cpus() == len(os.sched_getaffinity(0))
    assert blas.usable_cpus() >= 1


def test_blas_env_records_threads_and_affinity():
    env = blas_env()
    assert env["openblas_threads"] == blas.get_threads()
    assert env["sched_cpus"] == blas.usable_cpus()
    assert "OPENBLAS_NUM_THREADS" in env and "cpu_count" in env


def _probe_worker(barrier, timeout: float) -> tuple[int, int | None]:
    """Runs inside a pool worker: park at ``barrier`` (a two-party
    manager barrier) so each of the two probes lands on a distinct
    worker, then report."""
    barrier.wait(timeout)
    return os.getpid(), blas.get_threads()


@pytest.mark.skipif(blas.get_threads() is None,
                    reason="no OpenBLAS get/set_num_threads symbol found "
                           "in the BLAS NumPy loaded")
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_run_the_budget(method, tiny_dataset, tiny_model_fn):
    if method not in mp.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable")
    parts = dirichlet_partition(tiny_dataset.y, 2, beta=0.5, seed=7)
    clients = make_federated_clients(tiny_dataset, parts, batch_size=32,
                                     seed=5)
    executor = ProcessPoolRoundExecutor(2, mp_context=method)
    algo = FedAvg(tiny_model_fn, clients, lr=0.05, local_epochs=1,
                  sample_ratio=1.0, seed=0, executor=executor)
    expected = blas.thread_budget(2, blas.usable_cpus(), blas.get_threads())
    parent_before = blas.get_threads()
    with mp.Manager() as manager:
        barrier = manager.Barrier(2)
        try:
            pool = executor._ensure_pool(algo)
            futures = [pool.submit(_probe_worker, barrier, 60.0)
                       for _ in range(2)]
            reports = [f.result(timeout=120) for f in futures]
        finally:
            algo.close()
    assert len({pid for pid, _ in reports}) == 2
    assert [threads for _, threads in reports] == [expected, expected]
    assert blas.get_threads() == parent_before   # the parent is untouched
