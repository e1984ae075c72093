"""Differential tests: vectorized implementations vs scalar oracles.

The batched transient engine, the array-native annealing placer and the
incremental router each ship alongside the original scalar
implementation (kept selectable via :mod:`repro.impls`).  This suite
pins the equivalence contract:

* transients -- batched waveforms match the scalar simulator within
  the Newton solver tolerance on arbitrary RC / pass-transistor
  circuits (hypothesis-generated), and bit-for-bit when the batch
  engine uses its dense solver;
* placement and routing -- the array-native annealer and the
  incremental router reproduce the scalar results *exactly* (same
  placements in the same ``loc`` order, same costs and move counts,
  same routing trees) for the same seeds, over the benchmark corpus
  and across random architectures;
* selection -- the environment escape hatches resolve as documented;
* failure surfacing -- a :class:`NewtonConvergenceError` crossing the
  experiment engine arrives as a structured ``JobError`` that still
  names the offending nodes and timestep.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import impls, obs
from repro.arch import ArchParams, DEFAULT_ARCH, build_rr_graph
from repro.bench import counter, mcnc_class_suite, random_logic
from repro.circuit import (Circuit, NewtonConvergenceError, STM018,
                           simulate, simulate_batch)
from repro.circuit.cells import inverter, pass_nmos
from repro.circuit.waveforms import pulse_train
from repro.exp import JobSpec, NullCache, ParallelRunner
from repro.exp.tasks import task
from repro.pack import pack_netlist
from repro.arch.fabric import FabricGrid
from repro.place import place, placer
from repro.route import route, route_min_channel_width
from repro.synth import optimize_and_map

VDD = STM018.vdd

#: The Newton convergence tolerance of both engines (V); the batched
#: banded solve may deviate from the scalar dense solve by machine
#: epsilon only, so matching within solver tolerance is a loose bound.
SOLVER_TOL = 1e-4


# ---------------------------------------------------------------------------
# Random circuit strategies
# ---------------------------------------------------------------------------

@st.composite
def rc_params(draw):
    """Parameters of one random RC ladder."""
    n_stages = draw(st.integers(1, 4))
    r_kohm = draw(st.lists(st.integers(1, 40), min_size=n_stages,
                           max_size=n_stages))
    c_ff = draw(st.lists(st.integers(2, 150), min_size=n_stages,
                         max_size=n_stages))
    t_rise_ps = draw(st.integers(50, 400))
    return r_kohm, c_ff, t_rise_ps


@st.composite
def pass_chain_params(draw):
    """Parameters of one inverter-driven pass-transistor chain."""
    n_pass = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 8), min_size=n_pass,
                           max_size=n_pass))
    c_ff = draw(st.integers(5, 60))
    return widths, c_ff


def _rc_circuit(params):
    r_kohm, c_ff, t_rise_ps = params
    ckt = Circuit(tech=STM018, title="rc")
    node = ckt.node("in")
    ckt.voltage_source(node, pulse_train(
        [(t_rise_ps * 1e-12, VDD), (2e-9, 0.0)], v_init=0.0))
    for i, (r, c) in enumerate(zip(r_kohm, c_ff)):
        nxt = ckt.node(f"n{i}")
        ckt.resistor(node, nxt, r * 1e3)
        ckt.capacitor(nxt, c * 1e-15)
        node = nxt
    return ckt, 4e-9


def _pass_circuit(params):
    widths, c_ff = params
    ckt = Circuit(tech=STM018, title="pass")
    a = ckt.node("a")
    ckt.voltage_source(a, pulse_train([(0.2e-9, VDD), (2e-9, 0.0)],
                                      v_init=0.0))
    node = ckt.node("drv")
    inverter(ckt, a, node, name="drv")
    for i, w in enumerate(widths):
        nxt = ckt.node(f"p{i}")
        pass_nmos(ckt, node, nxt, en=ckt.vdd, w=float(w),
                  name=f"sw{i}")
        ckt.capacitor(nxt, c_ff * 1e-15)
        node = nxt
    return ckt, 4e-9


def _assert_within_tol(ckts, t_ends, dt=2e-12):
    scalar = [simulate(c, t, dt=dt) for c, t in zip(ckts, t_ends)]
    batched = simulate_batch(ckts, t_ends, dt=dt)
    for rs, rb in zip(scalar, batched):
        assert np.array_equal(rs.time, rb.time)
        assert rs.node_names == rb.node_names
        dv = np.abs(rs.voltages - rb.voltages).max()
        assert dv <= SOLVER_TOL, f"waveform deviation {dv:.3e} V"
        di = np.abs(rs.supply_current - rb.supply_current).max()
        assert di <= SOLVER_TOL, f"supply deviation {di:.3e} A"


class TestTransientEquivalence:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(rc_params(), min_size=1, max_size=3))
    def test_random_rc_within_solver_tolerance(self, param_sets):
        ckts, t_ends = zip(*[_rc_circuit(p) for p in param_sets])
        _assert_within_tol(list(ckts), list(t_ends))

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(pass_chain_params(), min_size=1, max_size=3))
    def test_random_pass_chains_within_solver_tolerance(self,
                                                       param_sets):
        ckts, t_ends = zip(*[_pass_circuit(p) for p in param_sets])
        _assert_within_tol(list(ckts), list(t_ends))

    def test_dense_solver_is_bit_identical(self):
        """solver="dense" reproduces the scalar engine bit-for-bit."""
        ckts, t_ends = zip(*[
            _rc_circuit(([5, 20], [30, 80], 150)),
            _pass_circuit(([2, 6], 25)),
        ])
        scalar = [simulate(c, t, dt=2e-12)
                  for c, t in zip(ckts, t_ends)]
        batched = simulate_batch(list(ckts), list(t_ends), dt=2e-12,
                                 solver="dense")
        for rs, rb in zip(scalar, batched):
            assert np.array_equal(rs.time, rb.time)
            assert np.array_equal(rs.voltages, rb.voltages)
            assert np.array_equal(rs.supply_current, rb.supply_current)

    def test_heterogeneous_batch_time_axes(self):
        """Mixed step counts repack correctly mid-batch."""
        ckts = []
        t_ends = []
        for n, t_end in ((1, 1.5e-9), (3, 4e-9), (2, 2.5e-9)):
            c, _ = _rc_circuit(([10] * n, [50] * n, 100))
            ckts.append(c)
            t_ends.append(t_end)
        _assert_within_tol(ckts, t_ends)


# ---------------------------------------------------------------------------
# Place and route: exact reproduction
# ---------------------------------------------------------------------------

def _packed(net):
    return pack_netlist(optimize_and_map(net, 4).network)


def _flow_packed(net, arch=DEFAULT_ARCH):
    """Map and pack ``net`` the way the flow does for ``arch``."""
    return pack_netlist(optimize_and_map(net, arch.k).network, n=arch.n,
                        i=arch.inputs_per_clb, k=arch.k)


@pytest.fixture(scope="module")
def pr_netlists():
    return {
        "counter8": _packed(counter(8)),
        "rand": _packed(random_logic("veq", n_pi=6, n_po=4,
                                     n_nodes=45, seed=11)),
        **{net.name: _flow_packed(net) for net in mcnc_class_suite()},
    }


def _assert_placer_exact(cn, arch=DEFAULT_ARCH, **kw):
    """The array annealer reproduces the scalar oracle bit for bit."""
    runs = []
    for impl in (impls.SCALAR, impls.INCREMENTAL):
        with obs.metrics.collect() as ms:
            pl = place(cn, arch, impl=impl, **kw)
        runs.append((pl, ms.get("place.moves", default=0.0)))
    (a, a_moves), (b, b_moves) = runs
    assert list(a.loc.items()) == list(b.loc.items())
    assert a.cost == b.cost
    assert a.grid_size == b.grid_size
    assert a_moves == b_moves


#: Placer cases (name, seed, effort).  From the benchmark corpus, tier-1
#: runs IO-heavy parity16, swap-heavy rand_s and crc8 at full effort and
#: the largest circuit at reduced effort; the slow leg runs the rest of
#: the suite at full effort.
_FAST_SUITE = ("parity16", "rand_s", "crc8")
_PLACER_CASES = [
    pytest.param("counter8", 5, 0.5, id="counter8-5"),
    pytest.param("counter8", 9, 0.5, id="counter8-9"),
    pytest.param("rand", 3, 0.5, id="rand-3"),
    *[(name, 1, 1.0) for name in _FAST_SUITE],
    ("rand_m", 1, 0.25),
    *[pytest.param(net.name, 1, 1.0, marks=pytest.mark.slow)
      for net in mcnc_class_suite() if net.name not in _FAST_SUITE],
]


@st.composite
def placer_arch_cases(draw):
    """A small random design on a random architecture.

    ``pads`` adds unconnected input pads, which sit on no net and so
    never move: ``"dangling"`` adds two, ``"full"`` exactly enough to
    occupy every IO site, so no free IO site is left and IO moves can
    only swap.
    """
    arch = ArchParams(n=draw(st.integers(1, 8)), k=draw(st.integers(3, 6)),
                      io_rat=draw(st.integers(1, 4)))
    net = random_logic("arch_fuzz", n_pi=draw(st.integers(2, 8)),
                       n_po=draw(st.integers(1, 6)),
                       n_nodes=draw(st.integers(4, 30)),
                       seed=draw(st.integers(0, 2 ** 16)))
    pads = draw(st.sampled_from(["none", "dangling", "full"]))
    return (arch, net, pads, draw(st.integers(0, 999)),
            draw(st.sampled_from([0.05, 0.1, 0.2])))


def _check_arch_case(case):
    arch, net, pads, seed, effort = case
    cn = _flow_packed(net, arch)
    n_io = len(cn.inputs) + len(cn.outputs) + (pads == "dangling") * 2
    grid = arch.grid_size_for(len(cn.clusters), n_io)
    if pads == "full":
        n_io = 4 * grid * arch.io_rat
    extra = n_io - len(cn.inputs) - len(cn.outputs)
    cn = replace(cn, inputs=[*cn.inputs,
                             *(f"unused{i}" for i in range(extra))])
    _assert_placer_exact(cn, arch, grid_size=grid, seed=seed,
                         effort=effort)


class TestPlacerEquivalence:
    @pytest.mark.parametrize("name,seed,effort", _PLACER_CASES)
    def test_incremental_placement_exact(self, pr_netlists, name, seed,
                                         effort):
        _assert_placer_exact(pr_netlists[name], seed=seed, effort=effort)

    @settings(settings.get_profile("ci"))
    @given(placer_arch_cases())
    def test_exact_across_architectures(self, case):
        _check_arch_case(case)

    @pytest.mark.slow
    @settings(settings.get_profile("thorough"))
    @given(placer_arch_cases())
    def test_exact_across_architectures_thorough(self, case):
        _check_arch_case(case)

    def test_empty_io_pool_exact(self, pr_netlists):
        """One connected pad, every other IO site taken by unused pads.

        The pad's candidate pool (free sites plus other movable pads)
        is empty, so its moves make no RNG draw at all.
        """
        cn = replace(pr_netlists["count8"], outputs=[])
        assert cn.inputs == ["en"]
        arch = replace(DEFAULT_ARCH, io_rat=1)
        grid = arch.grid_size_for(len(cn.clusters), 1)
        cn = replace(cn, inputs=[*cn.inputs, *(
            f"unused{i}" for i in range(4 * grid - len(cn.inputs)))])
        _assert_placer_exact(cn, arch, grid_size=grid, seed=4, effort=1.0)

    def test_committed_deltas_bit_identical(self, pr_netlists):
        """Each move's delta is the oracle's float sum, bit for bit.

        Placements only expose a summation-order slip when it flips an
        accept decision, which is rare; here every move commits and
        both engines report all their deltas from one start state.
        """
        cn = pr_netlists["rand_m"]
        first = place(cn, DEFAULT_ARCH, seed=1, effort=0.05)
        start, grid = first.loc, FabricGrid(DEFAULT_ARCH, first.grid_size)
        nets = cn.nets()
        nets_of = {}
        for name, net in nets.items():
            for b in {net["driver"], *net["sinks"]}:
                nets_of.setdefault(b, []).append(name)
        movable = [b for b in start if nets_of.get(b)]
        free = {"clb": [s for s in grid.clb_sites()
                        if s not in start.values()],
                "io": [s for s in grid.io_sites()
                       if s not in start.values()]}

        engine = placer._ArrayAnnealer(random.Random(5), start,
                                       list(free["io"]), movable, nets,
                                       grid)
        got: list[float] = []
        engine.sweep(4000, math.inf, 3, 0.0, got)
        loc = dict(start)
        rng = random.Random(5)
        model = placer._ScalarCost(loc, nets, nets_of)
        occupant = {s.key(): b for b, s in loc.items()}
        want = []
        for _ in range(4000):
            d = placer._try_move(rng, loc, occupant, free, movable,
                                 grid.size, model, t=math.inf, rlim=3,
                                 commit_always=True)
            if d is not None:
                want.append(d)
        assert [d.hex() for d in got] == [d.hex() for d in want]
        engine.write_back(start)
        assert list(start.items()) == list(loc.items())

    def test_rng_draw_contract(self):
        """``choice``/``randint`` cost one ``_randbelow`` draw each.

        The array annealer draws through ``Random._randbelow`` directly
        and must consume the stream exactly as the oracle's public
        calls do.
        """
        a, b = random.Random(11), random.Random(11)
        for n in (1, 2, 7, 64, 1000):
            assert a.choice(range(n)) == b._randbelow(n)
        for r in (1, 2, 5, 33):
            assert a.randint(-r, r) == -r + b._randbelow(2 * r + 1)
        assert a.random() == b.random()


class TestRouterEquivalence:
    @pytest.mark.parametrize("name,seed", [("counter8", 5),
                                           ("rand", 2)])
    def test_incremental_routing_exact(self, pr_netlists, name, seed):
        cn = pr_netlists[name]
        pl = place(cn, DEFAULT_ARCH, seed=seed, effort=0.5)
        g = build_rr_graph(DEFAULT_ARCH, pl.grid_size)
        a = route(pl, g, impl=impls.SCALAR)
        b = route(pl, g, impl=impls.INCREMENTAL)
        assert a.success == b.success
        assert a.iterations == b.iterations
        assert a.overused == b.overused
        assert {k: t.parents for k, t in a.trees.items()} \
            == {k: t.parents for k, t in b.trees.items()}

    def test_min_width_search_exact(self, pr_netlists):
        pl = place(pr_netlists["counter8"], DEFAULT_ARCH, seed=5,
                   effort=0.5)
        wa, ra, _ = route_min_channel_width(pl, DEFAULT_ARCH,
                                            impl=impls.SCALAR)
        wb, rb, _ = route_min_channel_width(pl, DEFAULT_ARCH,
                                            impl=impls.INCREMENTAL)
        assert wa == wb
        assert {k: t.parents for k, t in ra.trees.items()} \
            == {k: t.parents for k, t in rb.trees.items()}


# ---------------------------------------------------------------------------
# Implementation selection
# ---------------------------------------------------------------------------

class TestImplSelection:
    def test_defaults_are_vectorized(self, monkeypatch):
        for var in (impls.ENV_SCALAR_ORACLE, impls.ENV_SIM_IMPL,
                    impls.ENV_PLACE_IMPL, impls.ENV_ROUTE_IMPL):
            monkeypatch.delenv(var, raising=False)
        assert impls.sim_impl() == impls.BATCHED
        assert impls.place_impl() == impls.INCREMENTAL
        assert impls.route_impl() == impls.INCREMENTAL

    def test_scalar_oracle_forces_everything(self, monkeypatch):
        monkeypatch.setenv(impls.ENV_SCALAR_ORACLE, "1")
        assert impls.sim_impl() == impls.SCALAR
        assert impls.place_impl() == impls.SCALAR
        assert impls.route_impl() == impls.SCALAR
        # ... but an explicit choice still wins.
        assert impls.sim_impl(impls.BATCHED) == impls.BATCHED

    def test_per_domain_env_override(self, monkeypatch):
        monkeypatch.delenv(impls.ENV_SCALAR_ORACLE, raising=False)
        monkeypatch.setenv(impls.ENV_PLACE_IMPL, "scalar")
        assert impls.place_impl() == impls.SCALAR
        assert impls.route_impl() == impls.INCREMENTAL

    def test_versions_distinct_per_impl(self):
        assert (impls.impl_version("sim", impls.SCALAR)
                != impls.impl_version("sim", impls.BATCHED))
        assert (impls.impl_version("place", impls.SCALAR)
                != impls.impl_version("place", impls.INCREMENTAL))
        assert (impls.impl_version("route", impls.SCALAR)
                != impls.impl_version("route", impls.INCREMENTAL))

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError):
            impls.sim_impl("quantum")
        with pytest.raises(ValueError):
            impls.impl_version("sim", "quantum")


# ---------------------------------------------------------------------------
# Convergence-failure surfacing through the engine
# ---------------------------------------------------------------------------

@task("_test_newton_fail")
def _newton_fail(**_ignored):
    raise NewtonConvergenceError.at_step(
        time=3.2e-10, dt=1e-12, nodes=["ff.q", "ff.qb"],
        detail="injected")


class TestConvergenceErrorSurfacing:
    def test_error_names_nodes_and_timestep(self):
        err = NewtonConvergenceError.at_step(
            time=3.2e-10, dt=1e-12, nodes=["ff.q", "ff.qb"])
        assert err.nodes == ["ff.q", "ff.qb"]
        assert err.time == 3.2e-10
        assert err.dt == 1e-12
        assert "ff.q" in str(err) and "3.2000e-10" in str(err)

    def test_surfaces_as_structured_job_error(self):
        runner = ParallelRunner(jobs=1, cache=NullCache())
        (res,) = runner.run([JobSpec.make("_test_newton_fail")])
        assert not res.ok
        assert res.error.kind == "error"
        assert res.error.exc_type == "NewtonConvergenceError"
        assert "ff.q" in res.error.message
        assert "t=3.2000e-10" in res.error.message
        assert "dt=1.000e-12" in res.error.message
