"""Repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload flow-cold --seed 1 --seconds 6 --trace 0

Workloads (closed loop, generated from one process):

``flow-cold``      13 cold flows through ``repro.api.submit``
``circuit-sweep``  the seven paper circuit studies through ``api.submit``
``serve-mixed``    two clients against fresh ``repro-flow serve`` daemons

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is a
separate run: it measures the workload once untraced as the reference,
then again with every call into a layer's public function timed from
the benchmark's own code, and reports the per-layer metrics; it writes
its spans as JSONL plus a Chrome trace under ``perfbench/out/``.

Which end-to-end figure each layer should move:

==============================  =========================================
``place.*``                     ``wall_s`` on flow-cold (placement is
                                ~80 % of it)
``route.*``                     ``wall_s`` on flow-cold (~15 %)
``hdl/synth/pack/arch/timing/   each at most a few % of flow-cold; their
power/bitgen``                  ``*.share`` sizes any change against it
``circuit.*``, ``exp.*``        ``wall_s`` on circuit-sweep
``serve.*``                     ``job_p50_s``/``jobs_per_s`` on
                                serve-mixed
==============================  =========================================

Times on a shared host: the end-to-end times (``setup_s``, ``wall_s``,
the job latencies and ``jobs_per_s``) are seconds at the host's nominal
speed.  The run is pinned to one CPU; while it measures, a sampler
thread (``perfbench/calib.py``) times a small fixed calibration unit
every 50 ms, and a time measured over a pass, a load or the set-up
probes is scaled by the unit's nominal over its median measured time
in that interval.  The raw wall times are printed beside them.  The
per-layer times are raw wall seconds (their shares are ratios).

The job metrics (``jobs_per_s``, ``job_p50_s``, ``job_tail_s``) are the
cold jobs of serve-mixed's clients.  On a batch workload the client is
the batch itself, one job per pass, so they restate ``wall_s``.

Every run works in a private directory under ``perfbench/out/`` (cache,
run DB, artifacts, HOME), removed on exit.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Set-up is repeated this many times per run (this process plus
#: probe subprocesses) and its median reported.
SETUP_SAMPLES = 3

#: Metric name -> unit, from the benchmark definition.  Every untraced
#: run reports all end-to-end metrics (those a workload does not produce
#: read ``common.NOT_APPLICABLE``), every traced run all per-layer ones.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Layer span name -> (self-time metric, share-of-wall metric).
LAYERS = {
    "hdl": ("hdl.s", "hdl.share"),
    "netlist": ("netlist.s", "netlist.share"),
    "synth": ("synth.s", "synth.share"),
    "pack": ("pack.s", "pack.share"),
    "place": ("place.s", "place.share"),
    "arch.rrgraph": ("arch.rrgraph_s", "arch.rrgraph_share"),
    "route": ("route.s", "route.share"),
    "route.minw": ("route.s", "route.share"),
    "timing": ("timing.s", "timing.share"),
    "power": ("power.s", "power.share"),
    "bitgen": ("bitgen.s", "bitgen.share"),
    "circuit": ("circuit.s", "circuit.share"),
    "exp": ("exp.overhead_s", "exp.overhead_share"),
}


def isolate(workdir: Path) -> None:
    """Private state for this run; nothing under the user's HOME.  The
    program is imported from this checkout's sources only.

    The run, and every process it starts, is pinned to one CPU, so the
    calibration sampler always measures the CPU the work runs on."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program sources under {ROOT / 'src'}")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({
        "HOME": str(workdir), "XDG_CACHE_HOME": str(workdir / "xdg"),
        "REPRO_CACHE_DIR": str(workdir / "cache"),
        "REPRO_RUN_DB": str(workdir / "runs.db"),
        "REPRO_ARTIFACT_DIR": str(workdir / "artifacts")})
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def prepare(workload: str, seed: int):
    """Import the program and generate the workload's inputs."""
    import repro.api  # noqa: F401 -- import cost belongs to set-up
    import repro.bitgen.devicesim  # noqa: F401
    import repro.flow.flow  # noqa: F401 -- imports every flow layer
    import repro.serve  # noqa: F401
    from perfbench import circuits, flows, service
    if workload == "flow-cold":
        return flows.flow_cold_ops(seed)
    if workload == "circuit-sweep":
        return circuits.EXPERIMENTS
    return service.designs()


def probe_setups(workload: str, seed: int, n: int) -> list[float]:
    """``n`` more set-ups, each in a fresh interpreter, one after the
    other; returns their seconds."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT), timeout=120,
            check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# Workload runners: each returns a Report
# ---------------------------------------------------------------------------

class Report:
    """Everything one run measured, before it becomes the result line."""

    def __init__(self):
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0              # operations that failed or were wrong
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.notes: list[str] = []
        self.wall_s = 0.0
        self.recorder = None
        self.ops: list = []          # per-operation records, for the file

    def add(self, out) -> None:
        """Fold in one pass's attempts, failures and wrong outputs."""
        self.attempted += out.attempted
        self.failed += len(out.failed_ops)
        self.failures += out.failures
        self.wrong += out.wrong


def latency_metrics(rep: Report, latencies: list[float], wall: float,
                    what: str) -> None:
    """Throughput, median and tail latency of the closed-loop jobs."""
    from perfbench import common
    p, value, n = common.tail(latencies)
    rep.e2e.update(jobs_per_s=n / wall, job_p50_s=common.median(latencies),
                   job_tail_s=value)
    rep.notes.append(f"job_tail_s = p{p:.1f} of {n} {what} "
                     f"({sum(1 for x in latencies if x > value)} beyond it)")


def layer_metrics(rep: Report, rec, wall: float, counts: dict) -> None:
    """Per-layer self times, their shares of ``wall``, counts and rates."""
    selfs = rec.self_times()
    layers = set(LAYERS.values())
    for secs, _ in layers:
        rep.layers[secs] = 0.0
    for span_name, (secs, _) in LAYERS.items():
        rep.layers[secs] += selfs.get(span_name, 0.0)
    rep.layers["unspanned_s"] = wall - sum(rep.layers[secs]
                                           for secs, _ in layers)
    for secs, share in layers | {("unspanned_s", "unspanned_share")}:
        rep.layers[share] = rep.layers[secs] / wall
    rep.layers.update(counts)
    for rate, count, secs in (("place.moves_per_s", "place.moves", "place.s"),
                              ("route.searches_per_s", "route.searches",
                               "route.s"),
                              ("circuit.points_per_s", "circuit.points",
                               "circuit.s")):
        if rep.layers.get(secs):
            rep.layers[rate] = rep.layers.get(count, 0.0) / rep.layers[secs]


def batch_pass(workload: str):
    """One pass over a batch workload's operations,
    ``pass(inputs, seed, recorder=None) -> Outcome``."""
    from perfbench import circuits, flows
    return {"flow-cold": flows.flow_cold,
            "circuit-sweep": circuits.sweep}[workload]


def run_batch(inputs, args) -> Report:
    """A fixed batch of operations, repeated in whole passes.

    Untraced, passes repeat until ``--seconds`` have elapsed and the
    median pass is reported, so the statistic does not shift with the
    number of passes a faster program fits in.  Traced, one untraced
    pass runs first as the reference, then one pass with every layer
    call timed; ``trace_overhead`` is the ratio of their times at
    nominal host speed.
    """
    from perfbench import common
    one_pass = batch_pass(args.workload)
    rep = Report()
    outs = []
    if args.trace:
        ref = one_pass(inputs, args.seed)
        rep.recorder = common.Recorder()
        best = one_pass(inputs, args.seed, rep.recorder)
        outs = [ref, best]
    else:
        start = time.perf_counter()
        while not outs or time.perf_counter() - start < args.seconds:
            outs.append(one_pass(inputs, args.seed))
        best = sorted(outs, key=lambda o: o.ref_s)[(len(outs) - 1) // 2]
    for out in outs:
        rep.add(out)
    rep.notes += best.notes
    rep.wall_s = best.ref_s
    if args.trace:
        layer_metrics(rep, rep.recorder, best.wall_s, best.counts)
        rep.layers["trace_overhead"] = best.ref_s / ref.ref_s
        rep.notes.append("trace_overhead: traced pass over the untraced "
                         "pass run before it in this process")
        return rep
    # The closed-loop client of a batch workload is the batch: one job
    # per pass.  Single operations are no client's latency, and their
    # times spread too widely on a shared host to hold a bound.
    latency_metrics(rep, [best.ref_s], best.ref_s, "batch job")
    rep.ops = best.operations()
    rep.e2e.update(best.qor)
    rep.notes.append(f"median of {len(outs)} pass(es)")
    return rep


def run_serve_mixed(designs, args, workdir, setup_samples) -> Report:
    """Closed-loop loads, each on a fresh daemon; ``wall_s`` is their
    summed duration and the latency metrics pool their cold jobs, all
    at nominal host speed.
    Set-up adds each daemon's start-to-healthy time to a set-up sample.
    Traced, untraced reference loads run first, and ``trace_overhead``
    is the ratio of cold-job median latencies (traced over untraced)."""
    from perfbench import circuits, common, service
    rep = Report()
    env = service.daemon_env(workdir)
    # Set-up repeats: daemons started side by side to their first
    # healthy answer, then stopped.
    starts = service.probe_starts(workdir, env, SETUP_SAMPLES - 1)
    rec = common.Recorder() if args.trace else None
    if args.trace:
        ref = service.loads(workdir / "reference", env, args.seed,
                            designs, None).p50
    run = service.loads(workdir, env, args.seed, designs, rec, starts)
    setup_samples[:] = [s + t for s, t in zip(setup_samples, starts)]
    rep.wall_s = run.wall_s
    rep.e2e["peak_rss_mb"] = run.peak_rss_mb
    rep.attempted = len(run.jobs) + len(run.errors)
    rep.failures = run.errors + [j.failure for j in run.jobs if j.failure]
    bad = {j for j in run.jobs if j.failure}
    problems = list(run.wrong)
    cold = [j for j in run.jobs if not j.resubmit and j.state == "done"]
    hits = [j for j in run.jobs if j.resubmit]
    errs = []
    for j in cold:
        if j.request.kind == "experiment":
            err, found = circuits.deviation("table2", j.value["rows"])
            errs.append(err)
            problems += [(j, p) for p in found]
    if len(errs) < service.LOADS:
        problems.append(("table2", "table2 did not complete in every load"))
    if errs:
        rep.e2e["sim_err"] = max(errs)
    rechecked = service.recheck(run.jobs, designs, args.seed)
    problems += rechecked
    for key, problem in problems:
        bad.add(key)
        rep.wrong.append(problem)
    rep.failed = len(bad) + len(run.errors)
    rep.ops = [{"label": j.label, "resubmit": j.resubmit, "state": j.state,
                "latency_s": j.latency, "ref_latency_s": j.ref_latency,
                "queue_wait_s": j.started - j.created,
                "run_s": j.finished - j.started} for j in run.jobs]
    latency_metrics(rep, [j.ref_latency for j in cold], run.wall_s,
                    "cold jobs")
    rep.notes.append(f"raw cold-job median latency "
                     f"{common.median([j.latency for j in cold]):.6g} s")
    rep.notes.append(f"{len(cold)} cold jobs, {len(hits)} resubmissions, "
                     f"{len(rep.failures)} failed; completion seen on the "
                     f"NDJSON event stream")
    rep.notes.append(f"{service.LOADS} loads on fresh daemons, pooled")
    rep.notes.append(f"in-process recheck: one flow per design "
                     f"({len(designs)}), {len(rechecked)} wrong")
    if args.trace:
        timed = [j for j in cold if not j.cached]
        rep.layers["serve.queue_wait_s"] = common.median(
            [j.started - j.created for j in timed])
        rep.layers["serve.run_s"] = common.median(
            [j.finished - j.started for j in timed])
        rep.layers["serve.overhead_s"] = common.median(
            [j.latency - (j.finished - j.created) for j in timed])
        rep.layers["serve.hit_s"] = common.median([j.latency for j in hits])
        rep.layers["trace_overhead"] = rep.e2e["job_p50_s"] / ref
        rep.recorder = rec
    return rep


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=6.0,
                   help="least measuring time: batch workloads repeat "
                        "whole passes until it has elapsed; serve-mixed "
                        "runs its fixed mix once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help=argparse.SUPPRESS)   # one set-up sample, then exit
    return p.parse_args(argv)


def emit(rep: Report, args, setup_s: float) -> dict:
    """Print the human summary and return the result line's object."""
    from perfbench import common
    failed = min(rep.attempted, rep.failed)
    if args.trace:
        metrics = {name: {"value": float(rep.layers.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = dict(rep.e2e, setup_s=setup_s, wall_s=rep.wall_s,
                      pass_ratio=(rep.attempted - failed) / rep.attempted)
        values.setdefault("peak_rss_mb", common.peak_rss_mb())
        metrics = {}
        for name, unit in E2E.items():
            value = values.get(name)
            metrics[name] = {"value": float(
                common.NOT_APPLICABLE if value is None else value),
                "unit": unit}
            shown = ("n/a (reported as 1)" if value is None
                     else f"{value:.6g} {unit}")
            print(f"  {name:<16} {shown}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<22} {m['value']:.6g} {m['unit']}")
    for note in rep.notes:
        print(f"  # {note}")
    for failure in rep.failures:
        print(f"  FAILED {failure}")
    for problem in rep.wrong:
        print(f"  WRONG  {problem}")
    return {"correct": not rep.wrong, "attempted": rep.attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind (and so stop any daemon) when terminated, not just on ^C.
    signal.signal(signal.SIGTERM,
                  lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = OUT / f"run-{os.getpid()}"
    isolate(workdir)
    try:
        inputs = prepare(args.workload, args.seed)
        setup_own = time.perf_counter() - T_START
        if args.probe:
            print(setup_own)
            return 0
        from perfbench import calib, common
        print(f"# {args.workload} seed={args.seed} trace={args.trace} "
              f"seconds={args.seconds:g}")
        with calib.Sampler() as sampler:
            t0 = time.perf_counter()
            samples = [setup_own] + probe_setups(args.workload, args.seed,
                                                 SETUP_SAMPLES - 1)
            probing = [(t0, time.perf_counter())]
        setup_scale = sampler.scale(1.0, probing)
        if args.workload == "serve-mixed":
            rep = run_serve_mixed(inputs, args, workdir, samples)
        else:
            rep = run_batch(inputs, args)
        setup_s = common.median(samples) * setup_scale
        rep.notes.append(f"raw set-up {common.median(samples):.6g} s, "
                         f"{setup_s:.6g} s at nominal host speed")
        result = emit(rep, args, setup_s)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        results_dir = OUT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            rep.recorder.write(results_dir / f"{tag}.spans.jsonl",
                               results_dir / f"{tag}.chrome.json")
        (results_dir / f"{tag}.json").write_text(json.dumps(
            dict(result, notes=rep.notes, failures=rep.failures,
                 wrong=rep.wrong, setup_samples=samples, operations=rep.ops),
            indent=1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
