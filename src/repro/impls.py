"""Implementation selection for the vectorized hot paths.

The transient simulator, the annealing placer and the PathFinder router
each ship two result-identical implementations:

* a **vectorized** one (the default): the batched tensor transient
  engine (:mod:`repro.circuit.batchsim`), the array-native annealing
  placer (:mod:`repro.place.placer`) and the incremental router cost
  structures -- the fast paths every sweep and flow run uses;
* the original **scalar** one, kept as the *differential oracle*: the
  reference the equivalence suite (``tests/test_vectorized_equivalence
  .py``) and the golden-regression layer compare against.

Selection is per-domain via environment variables, or forced globally
scalar with ``REPRO_SCALAR_ORACLE=1`` (the CI equivalence leg); both
are parsed by :class:`repro.api.config.Config`.  Flow code can also
pin an implementation explicitly (``FlowOptions.place_impl`` /
``route_impl``, the ``impl=`` argument of the experiment drivers); an
explicit choice always wins over the environment.

Every implementation has a *version tag* that participates in content
addressing: experiment batch specs carry it as a parameter and the
flow's stage keys hash it, so vectorized results can never alias cached
scalar ones (and vice versa) even within one code version.
"""

from __future__ import annotations

from .api.config import (BATCHED, ENV_PLACE_IMPL, ENV_ROUTE_IMPL,
                         ENV_SCALAR_ORACLE, ENV_SIM_IMPL, INCREMENTAL,
                         SCALAR, Config)

__all__ = [
    "BATCHED", "ENV_PLACE_IMPL", "ENV_ROUTE_IMPL", "ENV_SCALAR_ORACLE",
    "ENV_SIM_IMPL", "INCREMENTAL", "SCALAR", "impl_version", "place_impl",
    "route_impl", "sim_impl",
]

#: Version tags hashed into cache keys (bump on any behavioural change
#: to the corresponding implementation).
_VERSIONS = {
    ("sim", SCALAR): "sim-scalar-1",
    ("sim", BATCHED): "sim-batched-1",
    ("place", SCALAR): "place-scalar-1",
    ("place", INCREMENTAL): "place-incremental-1",
    ("route", SCALAR): "route-scalar-1",
    ("route", INCREMENTAL): "route-incremental-1",
}


def _resolve(explicit: str | None, field: str, default: str,
             allowed: tuple[str, ...]) -> str:
    """Explicit choice > ``REPRO_SCALAR_ORACLE`` > env var > default."""
    if explicit is not None and explicit != "auto":
        if explicit not in allowed:
            raise ValueError(f"unknown implementation {explicit!r} "
                             f"(expected one of {allowed})")
        return explicit
    cfg = Config.from_env()
    if cfg.scalar_oracle:
        return SCALAR
    value = getattr(cfg, field)
    return value if value in allowed else default


def sim_impl(explicit: str | None = None) -> str:
    """Transient-simulator implementation: ``batched`` or ``scalar``."""
    return _resolve(explicit, "sim_impl", BATCHED, (BATCHED, SCALAR))


def place_impl(explicit: str | None = None) -> str:
    """Placer implementation: ``incremental`` (array-native) or ``scalar``."""
    return _resolve(explicit, "place_impl", INCREMENTAL,
                    (INCREMENTAL, SCALAR))


def route_impl(explicit: str | None = None) -> str:
    """Router implementation: ``incremental`` or ``scalar``."""
    return _resolve(explicit, "route_impl", INCREMENTAL,
                    (INCREMENTAL, SCALAR))


def impl_version(domain: str, impl: str) -> str:
    """Cache-key version tag of one (domain, implementation) pair."""
    try:
        return _VERSIONS[(domain, impl)]
    except KeyError:
        raise ValueError(f"unknown implementation {impl!r} for domain "
                         f"{domain!r}") from None
