"""One place for every ``REPRO_*`` runtime knob.

This module is the only one in :mod:`repro` that reads the process
environment (``tests/test_config_guard.py`` enforces it).  The
subsystems that need a knob -- the runner, the result cache, the
pool, the live telemetry bus, the run DB, :mod:`repro.impls`, the CLI
-- take their defaults from :meth:`Config.from_env`, which gathers
every knob into one documented, typed dataclass with one construction
rule:

    **explicit argument > environment variable > built-in default**

``Config.from_env(**overrides)`` applies that rule field by field: a
keyword passed explicitly always wins, an unset keyword falls back to
the corresponding environment variable, and an unset/invalid
environment value falls back to the built-in default (a stray
environment variable must never break a run -- the same forgiveness the
scattered readers always had).

=====================  ======================  ==========================
field                  environment variable    meaning
=====================  ======================  ==========================
``jobs``               ``REPRO_JOBS``          worker processes (0 = all
                                               cores)
``cache``              ``REPRO_NO_CACHE``      result cache on/off
                                               (env is the *negation*)
``cache_dir``          ``REPRO_CACHE_DIR``     result-cache root
``cache_lru_mb``       ``REPRO_CACHE_LRU_MB``  in-process blob LRU bound
``job_timeout_s``      ``REPRO_JOB_TIMEOUT``   per-job deadline (None =
                                               unlimited)
``pool``               ``REPRO_POOL``          scheduler: ``persistent``
                                               or ``per-job``
``chunk``              ``REPRO_CHUNK``         jobs per pool dispatch
                                               (None = automatic)
``shm_min_bytes``      ``REPRO_SHM_MIN_BYTES`` shared-memory transport
                                               cutoff (None = disabled)
``telemetry``          ``REPRO_TELEMETRY``     live telemetry bus on/off
``telemetry_dir``      ``REPRO_TELEMETRY``     snapshot dir (a path value
                                               both enables and locates)
``hb_interval_s``      ``REPRO_HB_INTERVAL``   heartbeat period
``trace``              ``REPRO_TRACE``         span-trace JSONL path
``run_db``             ``REPRO_RUN_DB``        run-history SQLite path
``sim_impl``           ``REPRO_SIM_IMPL``      transient engine selector
``place_impl``         ``REPRO_PLACE_IMPL``    placer cost selector
``route_impl``         ``REPRO_ROUTE_IMPL``    router cost selector
``scalar_oracle``      ``REPRO_SCALAR_ORACLE`` force every scalar oracle
=====================  ======================  ==========================

The CLI and the job server both build their runtime from here (see
:meth:`Config.runner`), so the precedence rule is enforced in exactly
one module and locked by ``tests/test_api.py``.

The module imports nothing from :mod:`repro`, so every layer -- down to
the placer, router and simulator selectors -- can import it without a
cycle.  It also owns the scheduler and implementation vocabularies.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["BATCHED", "Config", "INCREMENTAL", "POOL_MODES",
           "POOL_PERSISTENT", "POOL_PER_JOB", "SCALAR", "UNSET",
           "artifact_dir", "cache_home"]

#: Scheduler names (``Config.pool`` / ``REPRO_POOL``).
POOL_PERSISTENT = "persistent"
POOL_PER_JOB = "per-job"
POOL_MODES = (POOL_PERSISTENT, POOL_PER_JOB)

#: Implementation names (``Config.*_impl`` / ``REPRO_*_IMPL``); which
#: domain accepts which is :mod:`repro.impls`' business.
SCALAR = "scalar"
BATCHED = "batched"
INCREMENTAL = "incremental"
_IMPLS = (SCALAR, BATCHED, INCREMENTAL)

#: Variable names other modules need (they re-export them).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_TRACE = "REPRO_TRACE"
ENV_RUN_DB = "REPRO_RUN_DB"
ENV_TELEMETRY = "REPRO_TELEMETRY"
ENV_HB_INTERVAL = "REPRO_HB_INTERVAL"
ENV_SCALAR_ORACLE = "REPRO_SCALAR_ORACLE"
ENV_SIM_IMPL = "REPRO_SIM_IMPL"
ENV_PLACE_IMPL = "REPRO_PLACE_IMPL"
ENV_ROUTE_IMPL = "REPRO_ROUTE_IMPL"


class _Unset:
    """Sentinel distinguishing "not passed" from an explicit ``None``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"


UNSET = _Unset()

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("", "0", "false", "no", "off")


def _env_num(name: str, cast: type, default: Any = None) -> Any:
    try:
        return cast(os.environ[name])
    except (KeyError, ValueError):
        return default


def _positive(value: Any, fallback: Any) -> Any:
    """``value`` if set and positive, else ``fallback``."""
    return value if value is not None and value > 0 else fallback


def _env_bool(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() in _TRUTHY


def _env_str(name: str) -> str | None:
    raw = os.environ.get(name)
    return raw if raw else None


def _env_pool() -> str:
    raw = os.environ.get("REPRO_POOL", "").strip().lower()
    return raw if raw in POOL_MODES else POOL_PERSISTENT


def _env_telemetry() -> tuple[bool, str | None]:
    raw = os.environ.get(ENV_TELEMETRY, "").strip()
    enabled = raw.lower() not in _FALSY
    if enabled and raw.lower() not in _TRUTHY:
        return True, raw
    return enabled, None


def _env_impl(name: str) -> str:
    raw = os.environ.get(name, "").strip().lower()
    return raw if raw in _IMPLS else "auto"


def artifact_dir() -> str | None:
    """``REPRO_ARTIFACT_DIR``: the job server's artifact-store root.

    Not a :class:`Config` field -- only :mod:`repro.serve` keeps
    artifacts, and it prefers an explicit ``--artifacts`` path.
    """
    return _env_str("REPRO_ARTIFACT_DIR")


def cache_home() -> Path:
    """``$XDG_CACHE_HOME``, else ``~/.cache``."""
    return Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache"))


@dataclass(frozen=True)
class Config:
    """Resolved runtime configuration (see module docstring).

    Instances are immutable; derive variants with
    :func:`dataclasses.replace`.  Build one honouring the environment
    with :meth:`from_env`.
    """

    jobs: int = 1
    cache: bool = True
    cache_dir: str | None = None
    cache_lru_mb: float = 64.0
    job_timeout_s: float | None = None
    pool: str = POOL_PERSISTENT
    chunk: int | None = None
    shm_min_bytes: int | None = 64 * 1024
    telemetry: bool = False
    telemetry_dir: str | None = None
    hb_interval_s: float = 0.5
    trace: str | None = None
    run_db: str | None = None
    sim_impl: str = "auto"
    place_impl: str = "auto"
    route_impl: str = "auto"
    scalar_oracle: bool = False

    def __post_init__(self):
        if self.pool not in POOL_MODES:
            raise ValueError(f"pool must be one of {POOL_MODES}, "
                             f"got {self.pool!r}")

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, **overrides: Any) -> "Config":
        """Environment-resolved config; keywords override field-wise.

        Every keyword accepts :data:`UNSET` (the default) meaning
        "fall back to the environment, then the built-in default"; any
        other value -- including an explicit ``None`` -- wins outright.
        Unknown keywords raise ``TypeError`` so a typo can never
        silently fall back to a default.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(overrides) - names
        if unknown:
            raise TypeError(f"unknown Config field(s): {sorted(unknown)}")
        telemetry, telemetry_dir = _env_telemetry()
        env_values: dict[str, Any] = {
            "jobs": _env_num("REPRO_JOBS", int, 1),
            "cache": not _env_bool("REPRO_NO_CACHE", False),
            "cache_dir": _env_str(ENV_CACHE_DIR),
            "cache_lru_mb": max(
                0.0, _env_num("REPRO_CACHE_LRU_MB", float, 64.0)),
            "job_timeout_s": _positive(
                _env_num("REPRO_JOB_TIMEOUT", float), None),
            "pool": _env_pool(),
            "chunk": _positive(_env_num("REPRO_CHUNK", int), None),
            "shm_min_bytes": _positive(
                _env_num("REPRO_SHM_MIN_BYTES", int, 64 * 1024), None),
            "telemetry": telemetry,
            "telemetry_dir": telemetry_dir,
            "hb_interval_s": _positive(
                _env_num(ENV_HB_INTERVAL, float), 0.5),
            "trace": _env_str(ENV_TRACE),
            "run_db": _env_str(ENV_RUN_DB),
            "sim_impl": _env_impl(ENV_SIM_IMPL),
            "place_impl": _env_impl(ENV_PLACE_IMPL),
            "route_impl": _env_impl(ENV_ROUTE_IMPL),
            "scalar_oracle": _env_bool(ENV_SCALAR_ORACLE, False),
        }
        for name, value in overrides.items():
            if value is not UNSET:
                env_values[name] = value
        return cls(**env_values)

    # ------------------------------------------------------------------
    def to_env(self) -> dict[str, str]:
        """The environment mapping equivalent to this config.

        Only knobs that differ from the built-in defaults appear, so
        the mapping composes cleanly with an inherited environment
        (``os.environ.update(cfg.to_env())``, subprocess ``env=``).
        """
        out: dict[str, str] = {}
        if self.jobs != 1:
            out["REPRO_JOBS"] = str(self.jobs)
        if not self.cache:
            out["REPRO_NO_CACHE"] = "1"
        if self.cache_dir:
            out[ENV_CACHE_DIR] = str(self.cache_dir)
        if self.cache_lru_mb != 64.0:
            out["REPRO_CACHE_LRU_MB"] = repr(self.cache_lru_mb)
        if self.job_timeout_s is not None:
            out["REPRO_JOB_TIMEOUT"] = repr(self.job_timeout_s)
        if self.pool != POOL_PERSISTENT:
            out["REPRO_POOL"] = self.pool
        if self.chunk is not None:
            out["REPRO_CHUNK"] = str(self.chunk)
        if self.shm_min_bytes != 64 * 1024:
            out["REPRO_SHM_MIN_BYTES"] = str(self.shm_min_bytes or 0)
        if self.telemetry:
            out[ENV_TELEMETRY] = self.telemetry_dir or "1"
        if self.hb_interval_s != 0.5:
            out[ENV_HB_INTERVAL] = repr(self.hb_interval_s)
        if self.trace:
            out[ENV_TRACE] = str(self.trace)
        if self.run_db:
            out[ENV_RUN_DB] = str(self.run_db)
        if self.sim_impl != "auto":
            out[ENV_SIM_IMPL] = self.sim_impl
        if self.place_impl != "auto":
            out[ENV_PLACE_IMPL] = self.place_impl
        if self.route_impl != "auto":
            out[ENV_ROUTE_IMPL] = self.route_impl
        if self.scalar_oracle:
            out[ENV_SCALAR_ORACLE] = "1"
        return out

    # ------------------------------------------------------------------
    def runner(self):
        """A :class:`~repro.exp.runner.ParallelRunner` built from this
        config (cache, scheduler, chunking and timeout all resolved
        here, not re-read from the environment)."""
        from ..exp import NullCache, ParallelRunner, ResultCache
        cache = (ResultCache(self.cache_dir, lru_mb=self.cache_lru_mb)
                 if self.cache else NullCache())
        return ParallelRunner(jobs=self.jobs, cache=cache,
                              timeout_s=self.job_timeout_s,
                              pool=self.pool, chunk=self.chunk)
