"""``serve-mixed``: a fresh ``repro-flow serve`` daemon under closed-loop load.

Two client threads (``ServiceClient``) each keep one request in flight
for the run's duration.  The mix:

* cold small flows -- the two ``examples/`` VHDL designs and five small
  suite circuits, each at the placer seeds ``PLACER_SEEDS``, so the
  daemon's flow stage cache serves synthesis/translation while
  placement and routing run cold;
* one ``table2`` experiment;
* resubmissions of completed requests, answered from the artifact store.

The work is fixed: every workload seed places the same designs with the
same placer seeds in the same order (36 cold jobs per load, so the tail
percentile always has the same sample count).  The workload seed picks
the resubmitted requests and the flows rechecked in-process.

Correctness: resubmissions must be artifact-store hits, the daemon must
have executed exactly the jobs the clients saw, ``table2`` must match
the committed results, and for each design one flow (picked by the
workload seed) is run again in-process after the load: its bitstream
must hash to the daemon's digest and pass the device-simulation oracle.

Completion is detected on the job's NDJSON ``/jobs/<id>/events``
stream, not by polling: a poll quantises ~1 s jobs and a tight poll
steals the interpreter lock from the daemon's executor thread.

Isolation: the daemon gets its own port (ephemeral, read from its
announcement), cache dir, run DB, artifact dir and ``HOME``.  Before
load starts the benchmark checks that the daemon answering on that port
reports an empty job table and artifact store, i.e. that it is the one
just spawned.  The daemon is terminated on every exit path.  It
inherits the run's pinning to one CPU, so the calibration sampler in
this process measures the CPU the daemon works on.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from . import calib, common, flows

ROOT = Path(__file__).resolve().parent.parent
SMALL_CIRCUITS = ("shift16", "gray6", "count8", "crc8", "parity16")
#: 7 designs x 5 placer seeds + table2 = 36 cold jobs per load; the two
#: loads' 72 are enough for a tail percentile with ten samples beyond it.
PLACER_SEEDS = (1, 2, 3, 4, 5)
RESUBMIT_EVERY = 4
#: Loads per run, each on a fresh daemon; their latencies are pooled.
LOADS = 2
CLIENTS = 2
START_TIMEOUT_S = 60.0
_ANNOUNCE = re.compile(r"serving on http://([\d.]+):(\d+)")


class Daemon:
    """One ``repro-flow serve`` process with private state dirs."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._log = None
        self._t0 = 0.0

    def start(self) -> float:
        """Spawn; return seconds until the first healthy ``/healthz``."""
        self.spawn()
        return self.wait_healthy()

    def spawn(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._log = open(self.workdir / "daemon.log", "w")
        self._t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.flow.cli", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--cache-dir", str(self.workdir / "cache"),
             "--run-db", str(self.workdir / "runs.db"),
             "--artifact-dir", str(self.workdir / "artifacts")],
            env=self.env, cwd=str(self.workdir), stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)

    def wait_healthy(self) -> float:
        """Seconds from spawn to the first healthy ``/healthz``; checks
        that the answering daemon has no prior state."""
        from repro.serve import ServiceClient, ServiceError
        log_path = self.workdir / "daemon.log"
        deadline = self._t0 + START_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("daemon did not start:\n"
                                   + log_path.read_text()[-2000:])
            match = _ANNOUNCE.search(log_path.read_text())
            if match:
                self.port = int(match.group(2))
            else:
                time.sleep(0.01)
        client = ServiceClient(port=self.port, timeout=5.0)
        while True:
            try:
                health = client.health()
                break
            except (OSError, ServiceError):
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)
        elapsed = time.perf_counter() - self._t0
        fresh = (health.get("jobs") == 0 and health.get("served") == 0
                 and health.get("resumed") == 0
                 and health.get("artifacts", {}).get("puts") == 0)
        if not fresh:
            raise RuntimeError(f"port {self.port} is answered by a daemon "
                               f"with prior state: {health}")
        return elapsed

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill if it hangs; always reap."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._log is not None:
            self._log.close()
            self._log = None


class Mix:
    """Request feed shared by the client threads.

    The cold requests are every design at every placer seed, round-robin
    over the designs, with ``table2`` second; every
    ``RESUBMIT_EVERY``-th dispatch resubmits a request that has already
    completed, chosen by the workload seed.  Every run thus does the
    same work in the same pattern.
    """

    def __init__(self, seed: int, designs: list):
        from repro import api
        self.rng = random.Random(seed)
        self._lock = threading.Lock()
        self._done: list = []
        self._dispatched = 0
        cold = [(f"{op.name}/s{s}", op.request(seed=s))
                for s in PLACER_SEEDS for op in designs]
        cold.insert(1, ("table2", api.JobRequest(kind="experiment",
                                                 experiment="table2")))
        self._cold = cold

    def next(self):
        """``(label, request, is_resubmit)``, or ``None`` when done."""
        with self._lock:
            self._dispatched += 1
            if self._done and self._dispatched % RESUBMIT_EVERY == 0:
                label, req = self._done[self.rng.randrange(len(self._done))]
                return label, req, True
            if not self._cold:
                return None
            label, req = self._cold.pop(0)
            return label, req, False

    def completed(self, label: str, request) -> None:
        with self._lock:
            self._done.append((label, request))


def designs() -> list[flows.FlowOp]:
    from repro.netlist.blif import write_blif
    out = [flows.FlowOp(Path(f).stem, "vhdl", flows.example_vhdl(f))
           for f in flows.EXAMPLES]
    out += [flows.FlowOp(n.name, "blif", write_blif(n))
            for n in flows.suite() if n.name in SMALL_CIRCUITS]
    return out


@dataclass(eq=False)          # hashed by identity: a key of failed jobs
class Job:
    label: str
    request: object
    resubmit: bool
    latency: float
    state: str
    created: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    cached: bool = False
    artifact: str | None = None
    failure: str | None = None
    value: dict | None = None
    scale: float = 1.0          # to seconds at nominal host speed

    @property
    def ref_latency(self) -> float:
        return self.latency * self.scale


def _run_one(client, label, request, resubmit, rec) -> Job:
    """Submit, follow the event stream to a terminal state, fetch."""
    span = rec.span(f"op:{label}") if rec else contextlib.nullcontext({})
    with span:
        sid, op_id = rec.current() if rec else (None, None)
        t0 = time.perf_counter()
        status = client.submit(request)
        last_stage = None
        if not status.done:
            for event in client.events(status.id):
                if (event.get("event") == "stage"
                        and event.get("phase") == "open"):
                    last_stage = event.get("stage")
                if event.get("event") in ("done", "failed"):
                    break
        t1 = time.perf_counter()
    final = client.status(status.id)
    job = Job(label, request, resubmit, t1 - t0, final.state, final.created,
              final.started or final.created,
              final.finished or final.created, final.cached,
              final.artifact)
    if rec is not None and not final.cached:
        # Server wall-clock stamps mapped onto this process's clock.
        shift = time.perf_counter() - time.time()
        rec.add("serve.queue_wait", final.created + shift,
                job.started + shift, parent=sid, op=op_id)
        rec.add("serve.run", job.started + shift, job.finished + shift,
                parent=sid, op=op_id)
    if final.state == "failed":
        err = final.error
        job.failure = (f"{label}: {err.exc_type if err else 'Error'} in "
                       f"{last_stage or 'serve'} ({err.kind if err else '?'})"
                       f": {err.message if err else ''}")
    elif final.artifact:
        job.value = client.artifact(final.artifact)["value"]
    return job


def load(port: int, mix: Mix, rec: common.Recorder | None
         ) -> tuple[list[Job], float, list]:
    """Closed loop: ``CLIENTS`` threads, one request in flight each,
    until the mix is exhausted."""
    from repro.serve import ServiceClient
    jobs: list[Job] = []
    errors: list = []
    t_start = time.perf_counter()

    def client_loop():
        client = ServiceClient(port=port, timeout=120.0)
        while (item := mix.next()) is not None:
            label, request, resubmit = item
            try:
                job = _run_one(client, label, request, resubmit, rec)
            except Exception as exc:      # noqa: BLE001 -- recorded
                errors.append(common.describe_failure(label, exc, "client"))
                continue
            jobs.append(job)
            if job.state == "done" and not resubmit:
                mix.completed(label, request)

    threads = [threading.Thread(target=client_loop, name=f"client{i}",
                                daemon=True) for i in range(CLIENTS)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return jobs, time.perf_counter() - t_start, errors


def probe_starts(workdir: Path, env: dict, n: int) -> list[float]:
    """Start ``n`` daemons one after the other, each stopped before the
    next; their start-to-healthy seconds."""
    out = []
    for k in range(n):
        daemon = Daemon(workdir / f"probe{k}", env)
        try:
            out.append(daemon.start())
        finally:
            daemon.stop()
    return out


@dataclass
class LoadRun:
    jobs: list
    errors: list
    wall_s: float
    peak_rss_mb: float
    wrong: list                 # (job or daemon name, problem)
    window: tuple = (0.0, 0.0)  # perf-counter span of the load

    @property
    def p50(self) -> float:
        return common.median([j.ref_latency for j in self.jobs
                              if not j.resubmit and j.state == "done"])


def run(workdir: Path, env: dict, mix: Mix, rec: common.Recorder | None,
        starts: list | None = None) -> LoadRun:
    """Fresh daemon, closed-loop load, health cross-check, shutdown."""
    from repro.serve import ServiceClient
    daemon = Daemon(workdir, env)
    try:
        started = daemon.start()
        if starts is not None:
            starts.append(started)
        t0 = time.perf_counter()
        jobs, wall, errors = load(daemon.port, mix, rec)
        health = ServiceClient(port=daemon.port).health()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    wrong = [(j, f"{j.label}: resubmission not answered from the "
                 f"artifact store ({j.state})") for j in jobs
             if j.resubmit and not (j.cached and j.state == "done")]
    executed = sum(1 for j in jobs if not j.cached)
    if health["served"] != executed:
        wrong.append((workdir.name, f"daemon executed {health['served']} "
                                    f"jobs, the clients saw {executed}"))
    return LoadRun(jobs, errors, wall, rss, wrong, (t0, t0 + wall))


def loads(workdir: Path, env: dict, seed: int, designs: list,
          rec: common.Recorder | None, starts: list | None = None
          ) -> LoadRun:
    """``LOADS`` runs of the mix, each on a fresh daemon, pooled: jobs,
    errors and problems joined, load time summed, the largest peak RSS.
    A calibration sampler scales each load's time, and its jobs'
    latencies, by the host's speed during the load (one factor per load:
    per-job factors from fewer samples are noisier).  The first
    daemon's start-to-healthy time is appended to ``starts``."""
    pooled = LoadRun([], [], 0.0, 0.0, [])
    for k in range(LOADS):
        with calib.Sampler() as sampler:
            one = run(workdir / f"daemon{k}", env, Mix(seed, designs), rec,
                      starts if k == 0 else None)
        scale = sampler.scale(1.0, [one.window])
        for j in one.jobs:
            j.scale = scale
        pooled.jobs += one.jobs
        pooled.errors += one.errors
        pooled.wrong += one.wrong
        pooled.wall_s += one.wall_s * scale
        pooled.peak_rss_mb = max(pooled.peak_rss_mb, one.peak_rss_mb)
    return pooled


def recheck(jobs: list[Job], designs: list, seed: int) -> list:
    """Run one completed cold flow per design again in-process and check
    its bitstream against the daemon's digest and the device oracle.
    Returns ``(job, problem)`` pairs."""
    from repro import api
    cfg = api.Config.from_env(cache=False)
    rng = random.Random(seed)
    by_design = {}
    for j in jobs:
        if j.request.kind == "flow" and not j.resubmit and j.value:
            by_design.setdefault(j.label.split("/")[0], []).append(j)
    problems = []
    probe = flows.Probe()
    with probe.installed():
        for op in designs:
            if op.name not in by_design:
                continue        # none completed: already a failure
            job = rng.choice(by_design[op.name])
            try:
                api.submit(job.request, config=cfg)
            except Exception as exc:      # noqa: BLE001 -- recorded
                problems.append((job, common.describe_failure(
                    f"{job.label} in-process", exc)))
                continue
            problem = flows.check_built(
                job.label, job.value["bitstream_sha256"], probe.take(), rng)
            if problem:
                problems.append((job, problem))
    return problems


def daemon_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({"PYTHONPATH": str(ROOT / "src"), "HOME": str(workdir),
                "XDG_CACHE_HOME": str(workdir / "xdg"),
                "REPRO_CACHE_DIR": str(workdir / "cache"),
                "REPRO_RUN_DB": str(workdir / "runs.db"),
                "REPRO_ARTIFACT_DIR": str(workdir / "artifacts")})
    return env
