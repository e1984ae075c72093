"""Flow workload ``flow-cold``: 13 cold flows through ``repro.api.submit``.

The flows are the ten ``mcnc_class_suite()`` circuits as BLIF, the two
VHDL designs of ``examples/``, and ``rand_s`` at channel width 4 (a
robustness probe that exercises the flow's fallback min-W routing).

The corpus is fixed (suite seed 7, placer seed 1, as the committed
QoR goldens use); the workload seed only orders the flows and draws
the oracle's input vectors, so every seed does the same work.

Both the untraced and the traced pass run every flow through
``api.submit``.  A :class:`Probe` wraps the layer functions that
``DesignFlow`` and the router look up by module name, so it sees the
program's own calls: it keeps each flow's source network and the
bitstream ``generate_bitstream`` returned, and in the traced pass it
also times every call as a span of its layer.

Correctness: after the timed pass, each kept bitstream must hash to the
digest ``api.submit`` reported; it is then unpacked, booted in
``DeviceSimulator`` and compared with the source network's own
``simulate()`` on seeded random vectors.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import inspect
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import calib, common

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ("quickstart.py", "sequence_detector.py")
#: The narrow-channel probe: fixed-width routing fails, the flow falls
#: back to the min-W search, and the known channel-width defect shows.
NARROW = ("rand_s", 4)
ORACLE_CYCLES = 16

#: Layer function -> span name, for the names ``repro.flow.flow`` calls.
FLOW_LAYERS = {
    "check_syntax": "hdl", "synthesize": "hdl", "druid": "hdl",
    "structural_to_logic": "hdl", "optimize_and_map": "synth",
    "pack_netlist": "pack", "place": "place",
    "build_rr_graph": "arch.rrgraph", "route": "route",
    "route_min_channel_width": "route.minw", "analyze_timing": "timing",
    "estimate_power": "power", "build_chipdb": "bitgen",
    "generate_bitstream": "bitgen"}
#: The names ``route_min_channel_width`` calls inside ``repro.route.router``.
ROUTER_LAYERS = {"build_rr_graph": "arch.rrgraph", "route": "route"}


@dataclass
class FlowOp:
    name: str
    kind: str                   # "blif" | "vhdl"
    text: str
    params: dict = field(default_factory=dict)

    def request(self, **fields):
        from repro import api
        return api.JobRequest(kind="flow", params=dict(self.params),
                              **{self.kind: self.text}, **fields)

    @property
    def qor(self) -> bool:
        """Default-arch flows carry QoR; the narrow probe does not."""
        return not self.params


def example_vhdl(filename: str) -> str:
    spec = importlib.util.spec_from_file_location(
        f"perfbench_example_{Path(filename).stem}",
        ROOT / "examples" / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.VHDL


def suite():
    from repro.bench.generators import mcnc_class_suite
    return mcnc_class_suite()


def flow_cold_ops(seed: int) -> list[FlowOp]:
    from repro.netlist.blif import write_blif
    nets = suite()
    ops = [FlowOp(n.name, "blif", write_blif(n)) for n in nets]
    ops += [FlowOp(Path(f).stem, "vhdl", example_vhdl(f))
            for f in EXAMPLES]
    name, width = NARROW
    net = next(n for n in nets if n.name == name)
    ops.append(FlowOp(f"{name}@W{width}", "blif", write_blif(net),
                      {"channel_width": width}))
    random.Random(seed).shuffle(ops)
    return ops


@dataclass
class Built:
    """What one flow handed to ``generate_bitstream``, and its output."""

    source: object              # the network the device must match
    placement: object
    arch: object                # at the width the design was routed
    bits: bytes


class Probe:
    """Wraps the flow's layer functions for the length of a ``with``.

    Every call is timed as a span of its layer when a recorder is set.
    Whatever the mode, the probe keeps the latest source network
    (``parse_blif`` or ``structural_to_logic``) and the latest
    ``generate_bitstream`` call as a :class:`Built`, and sums the
    products' sizes into ``counts``.
    """

    def __init__(self, rec: common.Recorder | None = None):
        self.rec = rec
        self.counts: dict[str, float] = {}
        self.source = None
        self.built: Built | None = None

    def _keep(self, name: str, value, bound) -> None:
        if name in ("parse_blif", "structural_to_logic"):
            self.source = value
        elif name == "optimize_and_map":
            self._count("synth.luts", len(value.network.nodes))
        elif name == "pack_netlist":
            self._count("pack.clbs", len(value.clusters))
        elif name == "build_rr_graph":
            self._count("arch.rr_nodes", len(value.nodes))
        elif name == "generate_bitstream":
            args = bound().arguments
            self.built = Built(self.source, args["placement"],
                               args["g"].arch, value)
            self._count("bitgen.bytes", len(value))

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name: str, layer: str, fn):
        rec, sig = self.rec, inspect.signature(fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            with rec.span(layer) if rec else contextlib.nullcontext():
                value = fn(*args, **kwargs)
            self._keep(name, value, lambda: sig.bind(*args, **kwargs))
            return value
        return call

    @contextlib.contextmanager
    def installed(self):
        from repro.flow import flow
        from repro.netlist import blif
        from repro.route import router
        targets = [(flow, name, layer) for name, layer in FLOW_LAYERS.items()]
        targets += [(router, name, layer)
                    for name, layer in ROUTER_LAYERS.items()]
        targets.append((blif, "parse_blif", "netlist"))
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in targets]
        for mod, name, layer in targets:
            setattr(mod, name, self._wrap(name, layer, getattr(mod, name)))
        try:
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def take(self) -> Built | None:
        """The latest flow's products; clears them for the next flow."""
        built, self.source, self.built = self.built, None, None
        return built


def oracle(built: Built, rng) -> bool:
    """Device simulation of the bitstream equals ``source.simulate()``."""
    from repro.bitgen import unpack_bitstream
    from repro.bitgen.devicesim import (DeviceSimulator,
                                        pad_map_from_placement)
    dev = DeviceSimulator(unpack_bitstream(built.bits, built.arch),
                          pad_map_from_placement(built.placement))
    vecs = [{pi: rng.randint(0, 1) for pi in built.source.inputs}
            for _ in range(ORACLE_CYCLES)]
    return dev.run(vecs) == built.source.simulate(vecs)


def check_built(op: str, digest: str, built: Built | None, rng
                ) -> str | None:
    """What is wrong with one flow's bitstream, or ``None``."""
    if built is None or built.source is None:
        return f"{op}: the flow's bitstream was not seen"
    if hashlib.sha256(built.bits).hexdigest() != digest:
        return f"{op}: bitstream differs from the digest submit reported"
    try:
        same = oracle(built, rng)
    except Exception as exc:              # noqa: BLE001 -- recorded
        return f"{op}: bitstream does not boot: {type(exc).__name__}: {exc}"
    if not same:
        return f"{op}: device simulation differs from the source network"
    return None


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def qor_totals(rows: list[dict]) -> dict:
    """Summed wirelength and power, geometric-mean critical path."""
    if not rows:
        return {}
    return {"wirelength": sum(r["wirelength"] for r in rows),
            "crit_path_ns": geomean([r["critical_path_ns"] for r in rows]),
            "total_mW": sum(r["total_mW"] for r in rows)}


def _router_counts(ms) -> dict:
    """Counters the placer and router register in ``repro.obs``."""
    return {"place.moves": ms.get("place.moves", default=0.0),
            "place.evals": ms.get("place.incremental_evals", default=0.0),
            "route.iterations": ms.get("route.iterations", default=0.0),
            "route.searches": ms.get("route.heap_reuse", default=0.0)}


def flow_cold(ops: list[FlowOp], seed: int,
              rec: common.Recorder | None = None) -> common.Outcome:
    """One pass: every flow through ``api.submit`` with the cache off,
    each flow an operation span when traced, under a calibration
    sampler; then, outside the timed region, the bitstream checks."""
    from repro import api
    from repro.obs import metrics
    cfg = api.Config.from_env(cache=False)
    out = common.Outcome(len(ops))
    probe = Probe(rec)
    span = rec.span if rec else (lambda name: contextlib.nullcontext({}))
    made, rows = [], []
    with calib.Sampler() as sampler, probe.installed(), \
            metrics.collect() as ms:
        for op in ops:
            t0 = time.perf_counter()
            with span(f"op:{op.name}") as attrs:
                try:
                    res = api.submit(op.request(), config=cfg)
                except Exception as exc:  # noqa: BLE001 -- recorded
                    attrs["error"] = type(exc).__name__
                    out.fail(op.name, exc)
                    res = None
            out.timed(op.name, t0, time.perf_counter())
            built = probe.take()
            if res is not None:
                made.append((op, res.value["bitstream_sha256"], built))
                if op.qor:
                    rows.append(res.value["summary"])
    out.calibrate(sampler)
    rng = random.Random(seed)
    for op, digest, built in made:
        problem = check_built(op.name, digest, built, rng)
        if problem:
            out.bad(op.name, problem)
    out.notes.append(f"device-simulation oracle: {len(made)} bitstreams, "
                     f"{len(out.wrong)} wrong")
    out.qor = qor_totals(rows)
    out.counts = dict(_router_counts(ms), **probe.counts)
    return out
