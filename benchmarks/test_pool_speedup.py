"""Warm-pool scheduler speedup demonstration (acceptance driver).

Runs the same batch of 200 sub-millisecond ``selftest`` jobs through
both execution modes of :class:`repro.exp.ParallelRunner`:

1. ``pool="per-job"`` -- the isolation-maximal mode: a private
   supervised pool that forks one fresh worker per job and retires it
   after that single job;
2. ``pool="persistent"`` -- the warm worker pool, pre-warmed with one
   throwaway batch so the measurement sees steady-state behaviour (a
   long-lived session pays the spawn cost once, not per batch).

Neither side touches the result cache, so the comparison is pure
scheduling overhead: process startup and settings replay versus chunked
dispatch over already-running workers.  The warm pool must be at least
3x faster end to end, and both modes must return pickle-identical
values (the determinism contract the scheduler rework preserves).

The run is recorded to a RunDB (the pool's own ``exp.pool.*`` metric
vocabulary plus the measured ``exp.pool.speedup`` gauge) so the history
tooling can chart scheduler performance over time, and the headline
numbers are saved to ``results/pool_speedup.json``.
"""

import pickle
import time

from conftest import save_results

from repro import obs
from repro.exp import JobSpec, NullCache, ParallelRunner
from repro.obs.rundb import RunDB

N_JOBS = 200
WORKERS = 4


def _specs():
    return [JobSpec.make("selftest", x=float(i)) for i in range(N_JOBS)]


def test_warm_pool_speedup_vs_per_job_oracle(tmp_path):
    specs = _specs()

    per_job = ParallelRunner(jobs=WORKERS, cache=NullCache(),
                             pool="per-job")
    t0 = time.perf_counter()
    oracle = per_job.run_values(specs)
    t_per_job = time.perf_counter() - t0

    warm = ParallelRunner(jobs=WORKERS, cache=NullCache(),
                          pool="persistent")
    warm.run_values(specs[:WORKERS])  # spawn + warm the shared pool
    with obs.metrics.collect() as ms:
        t0 = time.perf_counter()
        pooled = warm.run_values(specs)
        t_warm = time.perf_counter() - t0

    assert pickle.dumps(pooled) == pickle.dumps(oracle)

    speedup = t_per_job / t_warm
    ms.gauge("exp.pool.speedup", speedup)
    print(f"\n{N_JOBS} small jobs over {WORKERS} workers: "
          f"per-job {t_per_job:.2f}s | warm pool {t_warm:.2f}s "
          f"({speedup:.1f}x)")

    with RunDB(tmp_path / "runs.db") as db:
        run_id = db.record_run(
            "bench.pool_speedup", ms,
            context={"n_jobs": N_JOBS, "workers": WORKERS})
        rows = db.metric_rows(run_id)
    assert rows["exp.pool.speedup"]["value"] == speedup
    # A warm pool serves the batch without spawning anyone new.
    assert rows.get("exp.pool.spawns", {"total": 0})["total"] == 0
    assert rows["exp.pool.reuse"]["total"] >= N_JOBS

    save_results("pool_speedup", {
        "n_jobs": N_JOBS,
        "workers": WORKERS,
        "per_job_s": t_per_job,
        "warm_pool_s": t_warm,
        "speedup": speedup,
    })

    assert speedup >= 3.0, (
        f"warm pool only {speedup:.1f}x faster than the per-job "
        f"scheduler over {N_JOBS} small jobs")
