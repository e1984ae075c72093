"""Shared pieces of the benchmark: spans, statistics, failures.

Spans are recorded here, in the benchmark's own code, around each call
into a layer's public function; the program itself is not modified.
A span record is ``{span_id, parent_id, op_id, name, t_wall, t0, t1,
seconds}``.  Every operation (one flow, one experiment, one service
job) opens a root ``op:<name>`` span whose id all its layer spans
share as ``op_id``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import resource
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

#: Tail latency is the sample with this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Value reported for an end-to-end metric a workload does not produce
#: (the result line carries every metric on every workload).
NOT_APPLICABLE = 1.0


class Recorder:
    """In-memory span recorder; thread-safe, one stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time a block as a child of the current span."""
        stack = self._stack()
        sid = self._new_id()
        parent, op = stack[-1] if stack else (None, None)
        if name.startswith("op:"):
            op = sid
        stack.append((sid, op))
        w0, t0 = time.time(), time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append({
                "span_id": sid, "parent_id": parent, "op_id": op,
                "name": name, "t_wall": w0, "t0": t0, "t1": t1,
                "seconds": t1 - t0, "attrs": attrs})

    def add(self, name: str, t0: float, t1: float, *, parent: int,
            op: int, **attrs) -> None:
        """Record an interval measured elsewhere (server timestamps)."""
        self.spans.append({
            "span_id": self._new_id(), "parent_id": parent, "op_id": op,
            "name": name, "t_wall": time.time() - (time.perf_counter() - t0),
            "t0": t0, "t1": t1, "seconds": max(0.0, t1 - t0),
            "attrs": attrs})

    def current(self) -> tuple[int | None, int | None]:
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per-span-name self time: duration minus covered children."""
        child = {}
        for s in self.spans:
            if s["parent_id"] is not None:
                child[s["parent_id"]] = child.get(s["parent_id"], 0.0) \
                    + s["seconds"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["seconds"] - child.get(s["span_id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + max(0.0, own)
        return out

    # -- export ---------------------------------------------------------
    def write(self, jsonl: Path, chrome: Path) -> None:
        """Spans as JSONL plus a Chrome trace via ``repro.obs``."""
        from repro.obs.chrometrace import write_chrome_trace
        jsonl.parent.mkdir(parents=True, exist_ok=True)
        with open(jsonl, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["t0"]):
                fh.write(json.dumps(s, sort_keys=True, default=str) + "\n")
        # Lane per operation: chrometrace keys tracks on the span-id
        # prefix before ':'.
        write_chrome_trace(
            [{"name": s["name"], "span_id": f"op{s['op_id']}:{s['span_id']}",
              "t_wall": s["t_wall"], "seconds": s["seconds"],
              "attrs": s["attrs"]} for s in self.spans], chrome)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """``(percentile, value, n)``: the highest percentile with at least
    ``TAIL_MIN_BEYOND`` samples beyond it, i.e. the 11th slowest."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return 100.0, ordered[-1], n
    rank = n - TAIL_MIN_BEYOND
    return 100.0 * rank / n, ordered[rank - 1], n


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak RSS of this process, or of ``pid`` via /proc (VmHWM)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def failure_stage(exc: BaseException) -> str:
    """The program package an exception was raised in (``bitgen``, ...)."""
    stage = "benchmark"
    for frame in traceback.extract_tb(exc.__traceback__):
        parts = Path(frame.filename).parts
        if "repro" in parts:
            rest = parts[parts.index("repro") + 1:]
            stage = rest[0].removesuffix(".py") if rest else "repro"
    return stage


def describe_failure(op: str, exc: BaseException, stage: str | None = None
                     ) -> str:
    """``rand_s@W4: IndexError in bitgen``."""
    return (f"{op}: {type(exc).__name__} in "
            f"{stage or failure_stage(exc)}: {exc}")


@dataclass
class Outcome:
    """What one pass over a batch workload's operations produced."""

    attempted: int = 0
    wall_s: float = 0.0         # summed operation wall times
    ref_s: float = 0.0          # the same at nominal host speed
    windows: list = field(default_factory=list)   # operations' (t0, t1)
    names: list = field(default_factory=list)      # operations, in order
    scale: float = 1.0          # wall seconds -> nominal-speed seconds
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    #: Operations that raised or produced a wrong output, each once.
    failed_ops: set = field(default_factory=set)
    qor: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def timed(self, op: str, t0: float, t1: float) -> None:
        """Add one operation's wall time, from ``t0`` to ``t1``."""
        self.wall_s += t1 - t0
        self.windows.append((t0, t1))
        self.names.append(op)

    def calibrate(self, sampler) -> None:
        """Scale the pass's times to nominal host speed with the
        ``calib.Sampler`` that ran over its operations (one factor for
        the pass: per-operation factors from fewer samples are noisier)."""
        self.scale = sampler.scale(1.0, self.windows)
        self.ref_s = self.wall_s * self.scale
        self.notes.append(f"raw wall time {self.wall_s:.6g} s, "
                          f"{self.ref_s:.6g} s at nominal host speed")

    def operations(self) -> list[dict]:
        """Per-operation records for the result file."""
        return [{"label": op, "latency_s": t1 - t0,
                 "ref_latency_s": (t1 - t0) * self.scale}
                for op, (t0, t1) in zip(self.names, self.windows)]

    def fail(self, op: str, exc: BaseException, stage: str | None = None):
        self.failed_ops.add(op)
        self.failures.append(describe_failure(op, exc, stage))

    def bad(self, op: str, problem: str) -> None:
        self.failed_ops.add(op)
        self.wrong.append(problem)
