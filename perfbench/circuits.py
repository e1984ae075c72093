"""``circuit-sweep``: the paper's circuit studies through ``api.submit``.

Tables 1-3, Figs. 8-10 and the tri-state buffer study, each one
experiment request with the result cache off and the default worker
count (1, so every batch runs in-process).  The inputs are fixed by
the paper: the workload seed changes nothing.

Correctness: every reported row value is compared with
``benchmarks/results/<experiment>.json``; ``sim_err`` is the largest
relative deviation.  Those files were recorded at coarser timesteps
than the defaults used here, so ``sim_err`` is small but not zero; a
deviation above ``MAX_SIM_ERR`` marks the experiment wrong.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

from . import calib, common

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ("table1", "table2", "table3", "fig8", "fig9", "fig10",
               "tristate")
MAX_SIM_ERR = 0.05
#: Row fields that identify a row rather than measure it.
_ROW_KEYS = ("name", "condition", "wire_len", "width_x")


def _rows(value) -> list[dict]:
    if isinstance(value, dict):
        return value["rows"] if "rows" in value else [value]
    return list(value)


def _row_id(row: dict) -> tuple:
    return tuple(row.get(k) for k in _ROW_KEYS)


def deviation(experiment: str, rows) -> tuple[float, list[str]]:
    """Max relative deviation of ``rows`` from the committed results,
    plus any structural mismatches (missing rows, flipped flags)."""
    ref = _rows(json.loads(
        (ROOT / "benchmarks" / "results" / f"{experiment}.json")
        .read_text()))
    got = {_row_id(r): r for r in _rows(rows)}
    err, problems = 0.0, []
    for want in ref:
        row = got.get(_row_id(want))
        if row is None:
            problems.append(f"{experiment}: row {_row_id(want)} missing")
            continue
        for key, w in want.items():
            if key not in row:
                continue
            g = row[key]
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                if g != w:
                    problems.append(f"{experiment}: {key} {g!r} != {w!r}")
            elif w != 0:
                err = max(err, abs(g - w) / abs(w))
            elif g != 0:
                problems.append(f"{experiment}: {key} {g!r} != 0")
    return err, problems


def _submit(experiment: str, config):
    from repro import api
    return api.submit(api.JobRequest(kind="experiment",
                                     experiment=experiment), config=config)


@contextlib.contextmanager
def _driver_spans(rec: common.Recorder, points: list[int]):
    """Time the batch transient drivers the experiment tasks call."""
    from repro.circuit import experiments, interconnect
    targets = [(experiments, "characterize_detff_batch"),
               (experiments, "clock_cell_energies_batch"),
               (interconnect, "measure_routing_batch")]
    saved = [(mod, name, getattr(mod, name)) for mod, name in targets]
    for mod, name, fn in saved:
        def timed(batch, *args, _fn=fn, **kwargs):
            points.append(len(batch))
            with rec.span("circuit"):
                return _fn(batch, *args, **kwargs)
        setattr(mod, name, timed)
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def sweep(experiments, seed: int, rec: common.Recorder | None = None
          ) -> common.Outcome:
    """One pass over the experiments (``seed`` is unused: the paper fixes
    the inputs), then the comparison with the committed results."""
    from repro import api
    config = api.Config.from_env(cache=False)
    out = common.Outcome(len(experiments))
    points: list[int] = []
    results = []
    span = rec.span if rec else (lambda name: contextlib.nullcontext({}))
    drivers = (_driver_spans(rec, points) if rec
               else contextlib.nullcontext())
    with calib.Sampler() as sampler, drivers:
        for name in experiments:
            t0 = time.perf_counter()
            with span(f"op:{name}") as attrs, span("exp"):
                try:
                    results.append((name, _submit(name, config)))
                except Exception as exc:  # noqa: BLE001 -- recorded
                    attrs["error"] = type(exc).__name__
                    out.fail(name, exc)
            out.timed(name, t0, time.perf_counter())
    out.calibrate(sampler)
    sim_err = 0.0
    for name, res in results:
        err, problems = deviation(name, res.value["rows"])
        sim_err = max(sim_err, err)
        if err > MAX_SIM_ERR:
            problems.append(f"{name}: deviation {err:.3g} above "
                            f"{MAX_SIM_ERR}")
        for problem in problems:
            out.bad(name, problem)
    out.qor = {"sim_err": sim_err}
    out.counts = {"circuit.points": sum(points)}
    out.notes.append(f"sim_err = {sim_err:.6g}: largest relative deviation "
                     f"from benchmarks/results; the seed changes nothing "
                     f"here (inputs fixed by the paper)")
    return out
