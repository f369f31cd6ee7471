"""The serving path does not pay for the solver: importing the server, the
fabric, the controller and the data plane loads no ``scipy`` module; the
first ``solve()`` of the process does (DESIGN §14)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
