"""Single-resolver guard: only ``repro.api.config`` reads the environment.

Every ``REPRO_*`` knob is parsed in one place (:class:`repro.api.Config`)
so precedence and fallback rules cannot drift between subsystems.  This
test walks every module under ``src/repro`` and fails on any use of the
process environment outside ``api/config.py``, except the allowlisted
sites below, which *forward* the environment rather than parse it.
"""

import ast
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
RESOLVER = "api/config.py"
ENV_NAMES = {"environ", "environb", "getenv", "putenv", "unsetenv"}

#: (module path, enclosing function) -> number of environment uses.
ALLOWED = {
    # Snapshot the forwarded knobs into spawned pool workers ...
    ("exp/runner.py", "_WorkerSettings.snapshot"): 2,
    # ... and replay them inside the worker.
    ("exp/runner.py", "_WorkerSettings.apply"): 2,
    # ``--live`` flips the same switch REPRO_TELEMETRY does, so the
    # workers it spawns inherit it.
    ("flow/cli.py", "_run_command"): 1,
}


def _env_uses(tree: ast.AST) -> Counter:
    """Environment uses per enclosing ``Class.function`` name."""
    uses: Counter = Counter()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "os"
                    and child.attr in ENV_NAMES):
                uses[".".join(scope) or "<module>"] += 1
            elif (isinstance(child, ast.ImportFrom)
                  and child.module == "os"
                  and any(a.name in ENV_NAMES for a in child.names)):
                uses[".".join(scope) or "<module>"] += 1
            visit(child, scope)

    visit(tree, ())
    return uses


def _all_uses() -> dict[tuple[str, str], int]:
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == RESOLVER:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, n in _env_uses(tree).items():
            found[(rel, scope)] = n
    return found


def test_only_config_reads_the_environment():
    stray = {site: n for site, n in _all_uses().items()
             if ALLOWED.get(site) != n}
    assert not stray, (
        "environment access outside repro/api/config.py -- parse the "
        f"knob in Config and take it from Config.from_env(): {stray}")


def test_allowlisted_sites_still_exist():
    # A stale allowlist entry would silently permit a future parser.
    assert _all_uses().keys() >= ALLOWED.keys()


def test_resolver_reads_the_environment():
    tree = ast.parse((SRC / RESOLVER).read_text())
    assert sum(_env_uses(tree).values()) > 0


def test_detects_environment_reads():
    tree = ast.parse(
        "import os\n"
        "X = os.getenv('A')\n"
        "class C:\n"
        "    def f(self):\n"
        "        return os.environ.get('B')\n"
        "def g():\n"
        "    from os import environ\n")
    assert _env_uses(tree) == {"<module>": 1, "C.f": 1, "g": 1}
