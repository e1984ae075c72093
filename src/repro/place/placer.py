"""VPR-style simulated-annealing placement.

Implements the published VPR placer: bounding-box wirelength cost with
the pin-count crossing correction q(n), an adaptive temperature
schedule driven by the move acceptance rate, a shrinking move-range
limit (Rlim), and the standard exit criterion
``T < 0.005 * cost / n_nets``.

Blocks are the packed clusters plus one IO pad block per primary
input/output; sites come from the
:class:`~repro.arch.fabric.FabricGrid`.

One annealing schedule drives one of two bit-identical move engines
(:func:`repro.impls.place_impl`): the default array-native
:class:`_ArrayAnnealer`, or the scalar oracle ``_try_move`` over
``_ScalarCost``, kept as its differential reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import itemgetter

from .. import impls, obs
from ..arch.fabric import FabricGrid, Site
from ..arch.params import ArchParams
from ..pack.cluster import ClusteredNetlist

__all__ = ["Placement", "place", "wirelength_cost", "CROSSING_FACTOR"]

#: VPR's q(n) crossing-count correction for nets with n terminals.
CROSSING_FACTOR = [
    1.0, 1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385,
    1.3991, 1.4493, 1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304,
    1.7709, 1.8114, 1.8519, 1.8924,
]


def _q(n_pins: int) -> float:
    if n_pins < len(CROSSING_FACTOR):
        return CROSSING_FACTOR[n_pins]
    return 2.79 + 0.02616 * (n_pins - 50)


@dataclass
class Placement:
    """Result of placement: block name -> site."""

    arch: ArchParams
    grid_size: int
    loc: dict[str, Site] = field(default_factory=dict)
    cost: float = 0.0
    nets: dict[str, dict] = field(default_factory=dict)

    def site_of(self, block: str) -> Site:
        return self.loc[block]

    def stats(self) -> dict[str, float]:
        return {"grid": self.grid_size, "blocks": len(self.loc),
                "nets": len(self.nets), "bbox_cost": round(self.cost, 3)}


def _net_bbox_cost(placement: dict[str, Site],
                   net: dict) -> float:
    blocks = [net["driver"], *net["sinks"]]
    xs = [placement[b].x for b in blocks]
    ys = [placement[b].y for b in blocks]
    span = (max(xs) - min(xs) + 1) + (max(ys) - min(ys) + 1)
    return _q(len(blocks)) * span


def wirelength_cost(placement: dict[str, Site],
                    nets: dict[str, dict]) -> float:
    """Total bounding-box cost of a placement."""
    return sum(_net_bbox_cost(placement, net) for net in nets.values())


class _ScalarCost:
    """Reference cost model: full per-net bbox recompute on every move.

    This is the original (oracle) implementation; ``_ArrayAnnealer``
    must reproduce its accept/reject decisions bit-for-bit, so every
    float operation here defines the contract: deltas accumulate
    left-to-right over ``sorted(affected)`` and the drift-cancel total
    sums ``net_cost`` in nets-dict insertion order.
    """

    def __init__(self, loc: dict[str, Site], nets: dict[str, dict],
                 nets_of: dict[str, list[str]]):
        self.loc = loc
        self.nets = nets
        self.nets_of = nets_of
        self.net_cost = {name: _net_bbox_cost(loc, net)
                         for name, net in nets.items()}
        self.evals = 0
        self._old: dict[str, float] = {}

    def affected(self, block: str, other: str | None) -> list[str]:
        # Sorted order so the float delta sums identically regardless
        # of PYTHONHASHSEED; set order would make accept decisions
        # (and thus the whole placement) vary between processes.
        s = set(self.nets_of.get(block, ()))
        if other is not None:
            s |= set(self.nets_of.get(other, ()))
        return sorted(s)

    def trial(self, affected: list[str], moves) -> float:
        self.evals += len(affected)
        net_cost = self.net_cost
        old = {n: net_cost[n] for n in affected}
        delta = 0.0
        for n in affected:
            new = _net_bbox_cost(self.loc, self.nets[n])
            delta += new - old[n]
            net_cost[n] = new
        self._old = old
        return delta

    def revert(self, affected: list[str], moves) -> None:
        for n, c in self._old.items():
            self.net_cost[n] = c

    def total(self) -> float:
        return sum(self.net_cost.values())


class _ArrayAnnealer:
    """Array-native annealing moves, bit-exact with the scalar oracle.

    Blocks are ints in ``loc`` order (CLBs, then IO pads) and sites are
    ints (the grid's CLB sites, then its IO sites); coordinates,
    block->site and site->occupant live in flat lists.  Net ids follow
    sorted net names, so a block's ascending net-id tuple reproduces
    the oracle's ``sorted(affected)`` float-summation order.  A move
    recomputes each touched net's bbox from its members; nets holding
    both blocks of a swap (and single-block nets) are skipped, since
    their cost cannot change and their delta is exactly ``+0.0``.

    :meth:`sweep` makes the same RNG draws in the same order as
    :func:`_try_move` (``choice``/``randint`` resolve to one
    ``_randbelow`` each), and an IO target is an index into the
    oracle's candidate pool ``free IO sites ++ other movable IO
    blocks`` without building it; the free-IO list keeps the oracle's
    remove/append order on commit and revert.  Placements, costs and
    the ``loc`` order are therefore identical to ``impl="scalar"``.
    """

    def __init__(self, rng: random.Random, loc: dict[str, Site],
                 free_io: list[Site], movable: list[str],
                 nets: dict[str, dict], grid: FabricGrid):
        self.rng = rng
        gs = self.gs = grid.size
        clb_sites = grid.clb_sites()
        self.sites = sites = clb_sites + grid.io_sites()
        sid = {s: i for i, s in enumerate(sites)}
        self.n_clb = len(clb_sites)
        self.sx = [s.x for s in sites]
        self.sy = [s.y for s in sites]
        # CLB site id at (x, y), flat-indexed by x * (gs + 1) + y.
        self.clb_at = [-1] * (gs + 1) ** 2
        for i, s in enumerate(clb_sites):
            self.clb_at[s.x * (gs + 1) + s.y] = i

        self.names = list(loc)
        bid = {b: i for i, b in enumerate(self.names)}
        self.bsite = [sid[s] for s in loc.values()]
        self.bx = [s.x for s in loc.values()]
        self.by = [s.y for s in loc.values()]
        self.occ = [-1] * len(sites)
        for b, s in enumerate(self.bsite):
            self.occ[s] = b
        self.free_io = [sid[s] for s in free_io]
        self.movable = [bid[b] for b in movable]
        # Movable IO blocks in ``movable`` order, and each one's index.
        self.mov_io = [b for b in self.movable
                       if self.bsite[b] >= self.n_clb]
        self.io_pos = {b: j for j, b in enumerate(self.mov_io)}

        order = sorted(nets)
        nid = {n: i for i, n in enumerate(order)}
        self.q = []
        self.mem = []
        self.cost = []
        # Coordinate getters for nets of 3+ blocks; 2-block nets are
        # costed inline from ``mem``.
        self.get = []
        bnets: list[list[int]] = [[] for _ in self.names]
        for i, name in enumerate(order):
            net = nets[name]
            pins = [net["driver"], *net["sinks"]]
            mem = tuple(sorted({bid[p] for p in pins}))
            self.q.append(_q(len(pins)))
            self.mem.append(mem)
            self.get.append(itemgetter(*mem) if len(mem) > 2 else None)
            self.cost.append(_net_bbox_cost(loc, net))
            if len(mem) > 1:
                for b in mem:
                    bnets[b].append(i)
        self.bnets = [tuple(ns) for ns in bnets]
        # Drift-cancel totals sum in nets-dict order, as the oracle does.
        self.order = [nid[n] for n in nets]
        self.evals = 0

    def total(self) -> float:
        return sum(map(self.cost.__getitem__, self.order))

    def write_back(self, loc: dict[str, Site]) -> None:
        """Store the current placement into ``loc`` (order unchanged)."""
        sites = self.sites
        for name, s in zip(self.names, self.bsite):
            loc[name] = sites[s]

    def sweep(self, n_moves: int, t: float, rlim: float, cost: float,
              deltas: list[float] | None = None) -> tuple[int, float]:
        """Attempt ``n_moves`` moves at temperature ``t``.

        Returns the accepted count and ``cost`` plus each accepted
        delta, added in move order.  With ``deltas`` given every move
        commits and its delta is appended (the initial-temperature
        probe, the oracle's ``commit_always``).
        """
        randbelow = self.rng._randbelow
        rand = self.rng.random
        exp = math.exp
        always = deltas is not None
        gs = self.gs
        g1 = gs + 1
        n_clb = self.n_clb
        sx, sy, clb_at = self.sx, self.sy, self.clb_at
        bsite, bx, by, occ = self.bsite, self.bx, self.by, self.occ
        free_io, mov_io, io_pos = self.free_io, self.mov_io, self.io_pos
        q, mem, get = self.q, self.mem, self.get
        net_cost, bnets = self.cost, self.bnets
        movable = self.movable
        n_mov = len(movable)
        n_free = len(free_io)
        n_pool = n_free + len(mov_io) - 1
        r = max(1, int(rlim))
        width = 2 * r + 1
        accepted = evals = 0

        for _ in range(n_moves):
            b = movable[randbelow(n_mov)]
            s = bsite[b]
            x = bx[b]
            y = by[b]
            j = -1
            if s < n_clb:
                nx = x + randbelow(width) - r
                nx = 1 if nx < 1 else gs if nx > gs else nx
                ny = y + randbelow(width) - r
                ny = 1 if ny < 1 else gs if ny > gs else ny
                tgt = clb_at[nx * g1 + ny]
                if tgt == s:
                    continue
            else:
                if n_pool <= 0:
                    continue
                j = randbelow(n_pool)
                if j < n_free:
                    tgt = free_io[j]
                else:
                    k = j - n_free
                    if k >= io_pos[b]:
                        k += 1
                    tgt = bsite[mov_io[k]]
            o = occ[tgt]
            tx = sx[tgt]
            ty = sy[tgt]

            # Tentatively apply, then cost every net whose bbox can move.
            bx[b] = tx
            by[b] = ty
            if o < 0:
                affected = bnets[b]
            else:
                bx[o] = x
                by[o] = y
                affected = sorted(set(bnets[b]).symmetric_difference(
                    bnets[o]))
            evals += len(affected)
            delta = 0.0
            new = []
            for i in affected:
                g = get[i]
                if g is None:
                    u, v = mem[i]
                    dx = bx[u] - bx[v]
                    dy = by[u] - by[v]
                    c = q[i] * ((dx if dx > 0 else -dx)
                                + (dy if dy > 0 else -dy) + 2)
                else:
                    xs = g(bx)
                    ys = g(by)
                    c = q[i] * (max(xs) - min(xs) + max(ys) - min(ys) + 2)
                new.append(c)
                delta += c - net_cost[i]

            if always or delta <= 0 or rand() < exp(-delta / t):
                for i, c in zip(affected, new):
                    net_cost[i] = c
                bsite[b] = tgt
                occ[tgt] = b
                if o < 0:
                    occ[s] = -1
                    if j >= 0:
                        del free_io[j]
                        free_io.append(s)
                else:
                    bsite[o] = s
                    occ[s] = o
                accepted += 1
                cost += delta
                if always:
                    deltas.append(delta)
            else:
                bx[b] = x
                by[b] = y
                if o >= 0:
                    bx[o] = tx
                    by[o] = ty
                elif j >= 0:
                    del free_io[j]
                    free_io.append(tgt)
        self.evals += evals
        return accepted, cost


def place(cn: ClusteredNetlist, arch: ArchParams, *,
          grid_size: int | None = None, seed: int = 1,
          effort: float = 1.0, impl: str | None = None) -> Placement:
    """Place a clustered netlist; returns the final :class:`Placement`.

    ``effort`` scales the moves-per-temperature count (1.0 = the VPR
    default ``10 * n_blocks^1.33``).  ``impl`` picks the move engine
    (the default :data:`repro.impls.INCREMENTAL`, the array-native
    annealer, or the :data:`repro.impls.SCALAR` oracle); both produce
    identical placements for the same seed.
    """
    impl = impls.place_impl(impl)
    rng = random.Random(seed)
    nets = cn.nets()

    io_blocks = ([f"pi:{p}" for p in cn.inputs]
                 + [f"po:{p}" for p in cn.outputs])
    clb_blocks = [c.name for c in cn.clusters]

    if grid_size is None:
        grid_size = arch.grid_size_for(len(clb_blocks), len(io_blocks))
    grid = FabricGrid(arch, grid_size)

    clb_sites = grid.clb_sites()
    io_sites = grid.io_sites()
    if len(clb_blocks) > len(clb_sites):
        raise ValueError(f"{len(clb_blocks)} CLBs do not fit a "
                         f"{grid_size}x{grid_size} grid")
    if len(io_blocks) > len(io_sites):
        raise ValueError("not enough IO sites")

    # Random initial placement.
    rng.shuffle(clb_sites)
    rng.shuffle(io_sites)
    loc: dict[str, Site] = {}
    for b, s in zip(clb_blocks, clb_sites):
        loc[b] = s
    for b, s in zip(io_blocks, io_sites):
        loc[b] = s

    # Net membership per block (movability, and the oracle's move costs).
    nets_of: dict[str, list[str]] = {}
    for name, net in nets.items():
        for b in {net["driver"], *net["sinks"]}:
            nets_of.setdefault(b, []).append(name)

    blocks = clb_blocks + io_blocks
    movable = [b for b in blocks if nets_of.get(b)]
    free_io = io_sites[len(io_blocks):]
    if not movable or not nets:
        cost = wirelength_cost(loc, nets)
        obs.emit("place.anneal", blocks=len(blocks), nets=len(nets),
                 grid=grid_size, seed=seed, temps=0, moves=0,
                 accepted=0, cost=round(cost, 3))
        return Placement(arch, grid_size, loc, cost, nets)

    if impl == impls.INCREMENTAL:
        model = _ArrayAnnealer(rng, loc, free_io, movable, nets, grid)
        sweep = model.sweep
    else:
        model = _ScalarCost(loc, nets, nets_of)
        occupant = {s.key(): b for b, s in loc.items()}
        free_sites = {"clb": clb_sites[len(clb_blocks):], "io": free_io}

        def sweep(n_moves, t, rlim, cost, deltas=None):
            accepted = 0
            for _ in range(n_moves):
                d = _try_move(rng, loc, occupant, free_sites, movable,
                              grid_size, model, t=t, rlim=rlim,
                              commit_always=deltas is not None)
                if d is not None:
                    accepted += 1
                    cost += d
                    if deltas is not None:
                        deltas.append(d)
            return accepted, cost
    cost = model.total()

    # The annealer is the flow's hottest loop; the span aggregates its
    # totals as attributes (no per-move tracer work -- plain local
    # ints, so tracing overhead is independent of effort).
    with obs.span("place.anneal", blocks=len(blocks), nets=len(nets),
                  grid=grid_size, seed=seed) as sp:
        # Initial temperature: VPR uses 20 * std-dev of random deltas.
        deltas: list[float] = []
        _, cost = sweep(min(50, 5 * len(movable)), float("inf"),
                        grid_size, cost, deltas)
        std = (sum(d * d for d in deltas) / len(deltas)) ** 0.5 \
            if deltas else 1.0
        t = 20.0 * max(std, 1e-6)

        rlim = float(grid_size)
        moves_per_t = max(10, int(effort * 10 * len(movable) ** (4 / 3)))
        n_temps = n_moves = n_accepted = 0

        while t >= 0.005 * max(cost, 1e-9) / len(nets):
            accepted, cost = sweep(moves_per_t, t, rlim, cost)
            rate = accepted / moves_per_t
            n_temps += 1
            n_moves += moves_per_t
            n_accepted += accepted
            if rate > 0.96:
                t *= 0.5
            elif rate > 0.8:
                t *= 0.9
            elif rate > 0.15 and rlim > 1.0:
                t *= 0.95
            else:
                t *= 0.8
            rlim = min(max(1.0, rlim * (1.0 - 0.44 + rate)),
                       float(grid_size))
            # Periodic full recompute to cancel floating-point drift.
            cost = model.total()

        if impl == impls.INCREMENTAL:
            model.write_back(loc)
        cost = wirelength_cost(loc, nets)
        sp.set_attr(temps=n_temps, moves=n_moves, accepted=n_accepted,
                    cost=round(cost, 3))
    ms = obs.metrics.metric_set()
    ms.counter("place.moves", n_moves)
    ms.gauge("place.bbox_cost", round(cost, 3))
    if impl == impls.INCREMENTAL:
        ms.counter("place.incremental_evals", model.evals)
    return Placement(arch, grid_size, loc, cost, nets)


def _try_move(rng, loc, occupant, free_sites, movable, grid_size,
              model, *, t, rlim,
              commit_always: bool = False) -> float | None:
    """Propose one move/swap; returns the committed delta or None."""
    block = rng.choice(movable)
    site = loc[block]
    kind = site.kind

    # Candidate target within rlim (IO pads move along the perimeter
    # freely; rlim restricts CLB moves).
    if kind == "clb":
        r = max(1, int(rlim))
        nx = min(max(1, site.x + rng.randint(-r, r)), grid_size)
        ny = min(max(1, site.y + rng.randint(-r, r)), grid_size)
        target = Site("clb", nx, ny)
        if target.key() == site.key():
            return None
    else:
        pool = free_sites["io"] + [loc[b] for b in movable
                                   if loc[b].kind == "io" and b != block]
        if not pool:
            return None
        target = rng.choice(pool)

    other = occupant.get(target.key())
    affected = model.affected(block, other)

    # Apply tentatively.
    loc[block] = target
    occupant[target.key()] = block
    if other is not None:
        loc[other] = site
        occupant[site.key()] = other
    else:
        del occupant[site.key()]
        if target in free_sites[kind]:
            free_sites[kind].remove(target)
        free_sites[kind].append(site)

    moves = [(block, site, target)]
    if other is not None:
        moves.append((other, target, site))
    delta = model.trial(affected, moves)

    accept = (commit_always or delta <= 0
              or rng.random() < math.exp(-delta / t))
    if accept:
        return delta

    # Revert.
    loc[block] = site
    occupant[site.key()] = block
    if other is not None:
        loc[other] = target
        occupant[target.key()] = other
    else:
        del occupant[target.key()]
        if site in free_sites[kind]:
            free_sites[kind].remove(site)
        free_sites[kind].append(target)
    model.revert(affected, moves)
    return None
