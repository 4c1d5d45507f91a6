"""Check that this tree and another print the same digests; exit 1 on any difference.

The "same output" gate of a change that must not move any value::

    python3 scripts/same_output.py /path/to/other/tree

For each tree, with that tree's ``src`` first on ``PYTHONPATH``, the script
runs this tree's ``kept_state_digest.py``, ``fit_digest.py``,
``criteria_digest.py`` (on that tree's acceptance tests) and
``report_digest.py`` at ``NLLVM_LAB_THREADS=1`` and ``2``.  Per digest it
prints ``<digest>: same``, or a unified diff from the other tree's lines to
this tree's.  It exits 1 if any digest differs or exits non-zero on either
tree, and 0 otherwise.  The acceptance tests take most of its few minutes.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
HERE = SCRIPTS.parent

# (label, script, whether the script takes the tree as its argument, extra environment)
DIGESTS = (
    ("kept_state_digest", "kept_state_digest.py", False, {}),
    ("fit_digest", "fit_digest.py", False, {}),
    ("criteria_digest", "criteria_digest.py", True, {}),
    ("report_digest NLLVM_LAB_THREADS=1", "report_digest.py", False, {"NLLVM_LAB_THREADS": "1"}),
    ("report_digest NLLVM_LAB_THREADS=2", "report_digest.py", False, {"NLLVM_LAB_THREADS": "2"}),
)


def run(script: str, tree: Path, tree_arg: bool, extra: dict) -> subprocess.CompletedProcess:
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    argv = [sys.executable, str(SCRIPTS / script), *([str(tree)] if tree_arg else [])]
    return subprocess.run(argv, env=env, capture_output=True, text=True)


def compare(other: Path) -> int:
    """Print each digest's verdict; 1 if any differs or fails, else 0."""
    status = 0
    for label, script, tree_arg, extra in DIGESTS:
        procs = {tree: run(script, tree, tree_arg, extra) for tree in (other, HERE)}
        failed = {tree: p for tree, p in procs.items() if p.returncode != 0}
        for tree, proc in failed.items():
            print(f"{label}: exit {proc.returncode} in {tree}")
            print("\n".join(proc.stderr.splitlines()[-20:]))
        diff = list(
            difflib.unified_diff(
                procs[other].stdout.splitlines(),
                procs[HERE].stdout.splitlines(),
                f"{label} in {other}",
                f"{label} in {HERE}",
                lineterm="",
            )
        )
        if diff:
            print("\n".join(diff))
        elif not failed:
            print(f"{label}: same")
        status |= bool(diff or failed)
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OTHER_TREE")
    sys.exit(compare(Path(sys.argv[1]).resolve()))
