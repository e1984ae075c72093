"""Persistent, append-only run history: one SQLite row per flow run.

Each ``repro-flow flow`` / ``vpr`` / ``exp`` invocation (and anything
else calling :meth:`RunDB.record_run`) appends one run row -- when it
happened, which circuit, the git revision and package code digest, the
seed and architecture -- plus every metric its :class:`~repro.obs.
metrics.MetricSet` accumulated, and an optional pointer to the span
trace JSONL of the same run.  Nothing is ever updated in place, so the
DB is a faithful QoR timeline of the repository:

    repro-flow history                     # recent runs, key QoR
    repro-flow compare latest latest~1     # did this change regress?
    repro-flow compare --against-golden    # gate against frozen QoR
    repro-flow report --html qor.html      # sparkline dashboard

The default location is ``$REPRO_RUN_DB`` or ``~/.cache/repro/runs.db``
(``--run-db`` on the CLI).  Writes are transactional and guarded by
SQLite's own locking plus a generous busy timeout, so concurrent runs
(e.g. a benchmark session fanning workers) append safely.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..api.config import ENV_RUN_DB, Config
from .metrics import MetricSet

__all__ = ["ENV_RUN_DB", "RunDB", "RunRow", "default_db_path", "git_rev"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id       INTEGER PRIMARY KEY,
    ts           REAL NOT NULL,
    label        TEXT NOT NULL,
    circuit      TEXT NOT NULL DEFAULT '',
    git_rev      TEXT NOT NULL DEFAULT '',
    code_version TEXT NOT NULL DEFAULT '',
    seed         INTEGER,
    arch         TEXT NOT NULL DEFAULT '',
    trace_path   TEXT NOT NULL DEFAULT '',
    context      TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_runs_label_ts ON runs(label, ts DESC);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    name   TEXT NOT NULL,
    stage  TEXT NOT NULL DEFAULT '',
    kind   TEXT NOT NULL DEFAULT 'gauge',
    unit   TEXT NOT NULL DEFAULT '',
    value  REAL NOT NULL,
    n      INTEGER NOT NULL DEFAULT 1,
    total  REAL NOT NULL DEFAULT 0,
    vmin   REAL NOT NULL DEFAULT 0,
    vmax   REAL NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, name, stage)
) WITHOUT ROWID;
"""


def default_db_path() -> Path:
    run_db = Config.from_env().run_db
    if run_db:
        return Path(run_db)
    return Path.home() / ".cache" / "repro" / "runs.db"


def git_rev(cwd: str | os.PathLike | None = None) -> str:
    """Short HEAD revision of the working tree, or '' outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5.0, cwd=cwd)
    except Exception:
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


@dataclass
class RunRow:
    """One recorded run (metadata only; metrics load separately)."""

    run_id: int
    ts: float
    label: str
    circuit: str = ""
    git_rev: str = ""
    code_version: str = ""
    seed: int | None = None
    arch: str = ""
    trace_path: str = ""
    context: dict[str, Any] = field(default_factory=dict)

    @property
    def when(self) -> str:
        return time.strftime("%Y-%m-%d %H:%M:%S",
                             time.localtime(self.ts))


class RunDB:
    """Append-only store of runs and their metric sets."""

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = Path(path) if path is not None else default_db_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=30.0)
        self._conn.execute("PRAGMA busy_timeout = 30000")
        self._conn.execute("PRAGMA foreign_keys = ON")
        with self._conn:
            self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writing -------------------------------------------------------
    def record_run(self, label: str,
                   metrics: MetricSet | Iterable[dict[str, Any]],
                   *, circuit: str = "", seed: int | None = None,
                   arch: str = "", trace_path: str = "",
                   context: dict[str, Any] | None = None,
                   ts: float | None = None,
                   rev: str | None = None,
                   code_version: str | None = None) -> int:
        """Append one run with its full metric set; returns the run id.

        ``rev`` / ``code_version`` default to the live git revision and
        the package source digest, so every row is traceable to the
        exact code that produced it.
        """
        if isinstance(metrics, MetricSet):
            context = {**metrics.context, **(context or {})}
            circuit = circuit or str(metrics.context.get("circuit", ""))
            if seed is None and "seed" in metrics.context:
                try:
                    seed = int(metrics.context["seed"])
                except (TypeError, ValueError):
                    seed = None
            rows = metrics.export()
        else:
            rows = list(metrics)
        if rev is None:
            rev = git_rev(cwd=Path(__file__).parent)
        if code_version is None:
            # Late import: repro.exp imports repro.obs at module load.
            from ..exp.jobspec import repro_code_version
            code_version = repro_code_version()
        with self._conn:
            cur = self._conn.execute(
                "INSERT INTO runs (ts, label, circuit, git_rev, "
                "code_version, seed, arch, trace_path, context) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (time.time() if ts is None else ts, label, circuit,
                 rev, code_version, seed, arch, trace_path,
                 json.dumps(context or {}, sort_keys=True, default=str)))
            run_id = cur.lastrowid
            self._conn.executemany(
                "INSERT INTO metrics (run_id, name, stage, kind, unit, "
                "value, n, total, vmin, vmax) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [(run_id, r["name"], r.get("stage", ""),
                  r.get("kind", "gauge"), r.get("unit", ""),
                  float(r["value"]), int(r.get("n", 1)),
                  float(r.get("total", r["value"])),
                  float(r.get("min", r["value"])),
                  float(r.get("max", r["value"]))) for r in rows])
        return int(run_id)

    # -- reading -------------------------------------------------------
    def runs(self, *, label: str | None = None,
             circuit: str | None = None,
             limit: int | None = None) -> list[RunRow]:
        """Most recent first, optionally filtered."""
        sql = ("SELECT run_id, ts, label, circuit, git_rev, "
               "code_version, seed, arch, trace_path, context "
               "FROM runs")
        clauses, params = [], []
        if label is not None:
            clauses.append("label = ?")
            params.append(label)
        if circuit is not None:
            clauses.append("circuit = ?")
            params.append(circuit)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY run_id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        return [self._row(r) for r in self._conn.execute(sql, params)]

    def run(self, run_id: int) -> RunRow:
        cur = self._conn.execute(
            "SELECT run_id, ts, label, circuit, git_rev, code_version, "
            "seed, arch, trace_path, context FROM runs WHERE run_id = ?",
            (run_id,))
        row = cur.fetchone()
        if row is None:
            raise LookupError(f"run {run_id} not found in {self.path}")
        return self._row(row)

    def resolve(self, token: str, *, label: str | None = None,
                circuit: str | None = None) -> RunRow:
        """Resolve a CLI run reference.

        Accepts a numeric run id, ``latest``, or ``latest~N`` (the
        N-th most recent run, optionally within a label/circuit
        filter).
        """
        token = token.strip()
        if token.isdigit():
            return self.run(int(token))
        offset = 0
        if token.startswith("latest"):
            rest = token[len("latest"):]
            if rest.startswith("~") and rest[1:].isdigit():
                offset = int(rest[1:])
            elif rest:
                raise LookupError(f"unrecognised run reference {token!r}")
            rows = self.runs(label=label, circuit=circuit,
                             limit=offset + 1)
            if len(rows) <= offset:
                flt = "".join(f", {k}={v!r}"
                              for k, v in (("label", label),
                                           ("circuit", circuit))
                              if v is not None)
                raise LookupError(
                    f"run {token!r} not found: only {len(rows)} "
                    f"matching run(s) in {self.path}{flt}")
            return rows[offset]
        raise LookupError(
            f"unrecognised run reference {token!r} (expected a run id, "
            f"'latest' or 'latest~N')")

    def metric_rows(self, run_id: int) -> dict[str, dict[str, Any]]:
        """``{key: row}`` for one run (key = ``name`` or ``name[stage]``)."""
        out: dict[str, dict[str, Any]] = {}
        for (name, stage, kind, unit, value, n, total, vmin,
             vmax) in self._conn.execute(
                "SELECT name, stage, kind, unit, value, n, total, "
                "vmin, vmax FROM metrics WHERE run_id = ? "
                "ORDER BY name, stage", (run_id,)):
            key = f"{name}[{stage}]" if stage else name
            out[key] = {"name": name, "stage": stage, "kind": kind,
                        "unit": unit, "value": value, "n": n,
                        "total": total, "min": vmin, "max": vmax}
        return out

    def history(self, name: str, *, stage: str = "",
                label: str | None = None, circuit: str | None = None,
                limit: int | None = None
                ) -> list[tuple[RunRow, float]]:
        """(run, value) series for one metric, oldest first."""
        sql = ("SELECT r.run_id, r.ts, r.label, r.circuit, r.git_rev, "
               "r.code_version, r.seed, r.arch, r.trace_path, "
               "r.context, m.value FROM runs r "
               "JOIN metrics m ON m.run_id = r.run_id "
               "WHERE m.name = ? AND m.stage = ?")
        params: list[Any] = [name, stage]
        if label is not None:
            sql += " AND r.label = ?"
            params.append(label)
        if circuit is not None:
            sql += " AND r.circuit = ?"
            params.append(circuit)
        sql += " ORDER BY r.run_id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        rows = [(self._row(r[:10]), float(r[10]))
                for r in self._conn.execute(sql, params)]
        rows.reverse()
        return rows

    def metric_names(self, *, label: str | None = None,
                     circuit: str | None = None) -> list[str]:
        """Distinct metric names recorded (optionally filtered)."""
        sql = "SELECT DISTINCT m.name FROM metrics m"
        params: list[Any] = []
        if label is not None or circuit is not None:
            sql += " JOIN runs r ON r.run_id = m.run_id WHERE 1=1"
            if label is not None:
                sql += " AND r.label = ?"
                params.append(label)
            if circuit is not None:
                sql += " AND r.circuit = ?"
                params.append(circuit)
        sql += " ORDER BY m.name"
        return [r[0] for r in self._conn.execute(sql, params)]

    def __len__(self) -> int:
        (n,) = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(n)

    @staticmethod
    def _row(r) -> RunRow:
        try:
            context = json.loads(r[9]) if r[9] else {}
        except json.JSONDecodeError:
            context = {}
        return RunRow(run_id=int(r[0]), ts=float(r[1]), label=r[2],
                      circuit=r[3], git_rev=r[4], code_version=r[5],
                      seed=r[6], arch=r[7], trace_path=r[8],
                      context=context)
