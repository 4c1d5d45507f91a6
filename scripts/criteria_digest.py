"""Print the acceptance criteria's [NN] lines of a source tree, without timings.

The script runs ``python -m pytest -q tests/test_acceptance.py`` in the given
tree (default: the tree holding this script) with that tree's ``src`` first
on ``PYTHONPATH``, and prints each ``[NN]`` line of the "acceptance criteria"
summary with its trailing ``(…s, cap …s)`` removed.  Two trees whose printed
lines are equal report the same criterion values::

    python3 scripts/criteria_digest.py > new.txt
    python3 scripts/criteria_digest.py /path/to/other/tree > old.txt
    diff old.txt new.txt

It exits 1 if it finds fewer than 14 lines or pytest fails, and then shows
the tail of pytest's output on stderr.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

N_CRITERIA = 14
_LINE = re.compile(r"^(\[\d{2}\] .*?) \(\d+(?:\.\d+)?s, cap \d+s\)$")


def criteria(tree: Path) -> tuple[list[str], subprocess.CompletedProcess]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = [m.group(1) for m in map(_LINE.match, proc.stdout.splitlines()) if m]
    return lines, proc


if __name__ == "__main__":
    tree = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
    lines, proc = criteria(tree)
    print("\n".join(lines))
    if len(lines) < N_CRITERIA or proc.returncode != 0:
        print(f"criteria_digest: {len(lines)} criterion lines, pytest exit {proc.returncode}",
              file=sys.stderr)
        print("\n".join(proc.stdout.splitlines()[-20:]), file=sys.stderr)
        sys.exit(1)
