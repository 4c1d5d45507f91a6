"""The package root holds its modules only, and importing it loads them all."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_MODULES = [
    "cli",
    "gp_prior",
    "gpivi",
    "grid_density",
    "hi_order_kernel",
    "nllvm_posterior",
    "reports",
    "transfer_map",
    "verify_harness",
]

_PROBE = """
import json, sys, types
import nllvm_lab
public = sorted(n for n in vars(nllvm_lab) if not n.startswith("_"))
print(json.dumps({
    "public": public,
    "modules": [isinstance(getattr(nllvm_lab, n), types.ModuleType) for n in public],
    "cli_loaded": "nllvm_lab.cli" in sys.modules,
}))
"""


def test_root_holds_the_public_modules_only():
    # a fresh interpreter: in this one other tests have imported nllvm_lab.cli
    # already, so a root that no longer imports it would go unnoticed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["public"] == PUBLIC_MODULES
    assert all(seen["modules"])
    assert seen["cli_loaded"]
    # the nine are every module of the package that is not private
    assert sorted(p.stem for p in (SRC / "nllvm_lab").glob("[!_]*.py")) == PUBLIC_MODULES


def test_the_knot_grid_and_its_gp_factor_have_one_owner():
    # a GP covariance or quantile map is right only on the transfer's own
    # knots, so the layout is written once (transfer_map.knot_grid) and the
    # kernel on it is built only inside gp_prior
    sources = {p.name: p.read_text() for p in (SRC / "nllvm_lab").glob("*.py")}
    grids = {name: text.count("linspace(0.0, 1.0") for name, text in sources.items()}
    assert {name: n for name, n in grids.items() if n} == {"transfer_map.py": 1}
    callers = set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "se_kernel":
                callers.add(name)
    assert callers == {"gp_prior.py"}
    imported = {
        alias.name
        for node in ast.walk(ast.parse(sources["verify_harness.py"]))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported.isdisjoint({"_chol_with_escalation", "se_kernel"})
