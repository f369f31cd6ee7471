"""Import hygiene.

* The serving path does not pay for the solver: importing the server, the
  fabric, the controller and the data plane loads no ``scipy`` module; the
  first ``solve()`` of the process does (DESIGN §14).
* Importing the experiments' ``config`` (the paper switch and workload the
  end-to-end benchmark serves) loads no figure runner.
* The public surface is what something runs: every ``src/repro`` module is
  reached, by static import, from a CLI command, the HTTP server, an
  experiment, an example or the end-to-end benchmark.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SCRIPT = """
import sys

import repro.frontend.server, repro.fabric.orchestrator, repro.controller, repro.dataplane

assert not [m for m in sys.modules if m.startswith("scipy")]

from repro.core.spec import SFC
from repro.fabric import FabricOrchestrator, FabricTopology
from repro.frontend import FrontendServer, HttpFrontendClient

fabric = FabricOrchestrator(
    FabricTopology.full_mesh(2), num_types=3, with_dataplane=False
)
with FrontendServer(fabric, port=0) as server:
    client = HttpFrontendClient(server.url, timeout=30.0)
    for tenant in range(3):
        sfc = SFC(name=f"t{tenant}", nf_types=(1, 2), rules=(4, 4),
                  bandwidth_gbps=1.0, tenant_id=tenant)
        assert client.admit(sfc)["ok"]
    assert "scipy.optimize" not in sys.modules
    assert client.reoptimize(mode="ilp")["ok"]
    assert "scipy.optimize" in sys.modules
    client.close()

from repro.lp import Model, Objective, SolveStatus, solve

model = Model("two-vars")
x = model.add_var("x", ub=4.0)
y = model.add_var("y", ub=3.0, integer=True)
model.add_constr(x + y <= 5.0)
model.set_objective(x + 2 * y, Objective.MAXIMIZE)
solution = solve(model)
assert solution.status is SolveStatus.OPTIMAL and solution.objective == 8.0
print("ok")
"""


def test_serving_imports_load_no_scipy_and_the_solver_still_solves():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_experiment_config_loads_no_figure_runner():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.experiments.config; "
         "print([m for m in sys.modules if m.startswith('repro.experiments.fig')])"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _repro_modules() -> dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def test_every_module_is_reached_from_something_that_runs():
    """Walk the static import graph (no import is executed) from the roots.
    Imports inside function bodies count: the solver imports are lazy.  A
    name imported from a package resolves to the module that defines it, so
    a package ``__init__`` re-export does not by itself keep a module alive;
    a module's ancestor packages count as reached with it."""
    modules = _repro_modules()
    trees = {name: ast.parse(path.read_text()) for name, path in modules.items()}

    def resolve(module: str, name: str) -> str | None:
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if module not in modules:
            return None
        if modules[module].name == "__init__.py":
            for node in trees[module].body:
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    for alias in node.names:
                        if (alias.asname or alias.name) == name:
                            return resolve(node.module, alias.name)
        return module

    def imports(tree: ast.Module):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (a.name for a in node.names if a.name in modules)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    target = resolve(node.module, alias.name)
                    if target is not None:
                        yield target

    scripts = [*(ROOT / "examples").glob("*.py"), *(ROOT / "benchmarks/e2e").glob("*.py")]
    stack = ["repro.cli", "repro.frontend.server"]
    stack += [name for name in modules if name.split(".")[:2] == ["repro", "experiments"]]
    for script in scripts:
        stack.extend(imports(ast.parse(script.read_text())))
    reached: set[str] = set()
    while stack:
        module = stack.pop()
        if module not in reached:
            reached.add(module)
            stack.extend(imports(trees[module]))
    for module in list(reached):
        parts = module.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts)))

    unreached = sorted(set(modules) - reached)
    assert not unreached, (
        f"modules nothing runs: {', '.join(unreached)}; delete them, or reach "
        "them from a CLI command, an experiment, an example or the e2e benchmark"
    )
