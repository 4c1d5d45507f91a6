"""Every script under ``scripts/`` imports and runs its smallest case.

The scripts import private names of the package and read the fields of its
results, so a change to either breaks them; these tests catch that.  The
one subprocess they run is ``fresh_faults``' smallest ``estimate`` (about
0.5 s): ``criteria_digest``'s pytest run and ``same_output``'s digest runs
are replaced by fakes that return fixed output.
"""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
from pathlib import Path

import numpy as np

from nllvm_lab.gpivi import normal_mean_model

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_SHA = "[0-9a-f]{64}"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == [
        "criteria_digest",
        "fit_digest",
        "fresh_faults",
        "kept_state_digest",
        "mass_peaks",
        "report_digest",
        "same_output",
    ]


def test_kept_state_digest_smallest_case():
    line = _load("kept_state_digest").digest(10, 16)
    assert re.fullmatch(f"n=10 knots=16 kept=60 sha256={_SHA}", line), line


def test_fit_digest_smallest_case():
    line = _load("fit_digest").fit_line("normal-mean", normal_mean_model(), 30, 12, 0.5)
    assert re.fullmatch(
        r"normal-mean n=30 knots=12 alpha=0\.5 objective=\S+ log_sigma=\S+ "
        f"values_sha256={_SHA} n_sweeps=\\d+ converged=(True|False)",
        line,
    ), line


def test_mass_peaks_builds_and_runs_every_case():
    mass_peaks = _load("mass_peaks")
    names = []
    for name, call in mass_peaks.cases():
        call()
        names.append(name)
    assert len(names) == 6 and names[-1] == "predictive_density 40x1024"
    # the smallest of five traced peaks holds at least the array each call keeps
    assert mass_peaks.peak_kib(lambda: np.ones(4096)) >= 32.0


def test_fresh_faults_smallest_case(tmp_path):
    fresh_faults = _load("fresh_faults")
    line = fresh_faults.per_call(2, n_knots=8, n=50)
    assert re.fullmatch(
        r"update_latents 8x50 calls=2 minflt_per_call=\S+ sys_ms_per_call=\S+ "
        r"wall_ms_per_call=\S+",
        line,
    ), line
    line = fresh_faults.estimate_child(tmp_path, n=50, iters=30, burn=10)
    assert re.fullmatch(r"estimate n=50 iters=30 minflt=\d+ sys_s=\S+ wall_s=\S+", line), line


def test_report_digest_smallest_case(tmp_path, monkeypatch):
    report_digest = _load("report_digest")
    report_digest._write_data(tmp_path)
    monkeypatch.chdir(tmp_path)
    line = report_digest.digest("verify chi2-limit", ["verify", "chi2-limit", "--n", "1000",
                                                      "--reps", "500"])
    assert re.fullmatch(f"verify chi2-limit: exit=0 report={_SHA} sidecar={_SHA}", line), line


def test_criteria_digest_keeps_the_criterion_lines(monkeypatch, tmp_path):
    criteria_digest = _load("criteria_digest")
    stdout = "\n".join([
        "..... [100%]",
        "[01] PASS closed form: sup gap 1.41e-12 (tol 1e-8) (0.12s, cap 60s)",
        "[14] FAIL fit: KL 1.15e-05 (tol 0.05) (3s, cap 120s)",
    ])
    seen = {}

    def fake_run(argv, *, cwd, env, **kwargs):
        seen.update(argv=argv, cwd=cwd, pythonpath=env["PYTHONPATH"])
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(criteria_digest.subprocess, "run", fake_run)
    lines, proc = criteria_digest.criteria(tmp_path)
    assert lines == [
        "[01] PASS closed form: sup gap 1.41e-12 (tol 1e-8)",
        "[14] FAIL fit: KL 1.15e-05 (tol 0.05)",
    ]
    assert seen["cwd"] == tmp_path and seen["argv"][-1] == "tests/test_acceptance.py"
    assert seen["pythonpath"].startswith(str(tmp_path / "src"))


class TestSameOutput:
    """The gate's verdicts, with each digest run replaced by a fake."""

    @staticmethod
    def _fake(monkeypatch, same_output, output):
        """Answer each digest run with ``output(script name, tree)``; return the calls."""
        calls = []

        def fake_run(argv, *, env, **kwargs):
            script, tree = Path(argv[1]), Path(env["PYTHONPATH"].split(os.pathsep)[0]).parent
            assert script.parent == same_output.SCRIPTS
            script = script.name
            calls.append((script, tree, argv[2:], env.get("NLLVM_LAB_THREADS")))
            code, stdout = output(script, tree)
            return subprocess.CompletedProcess(argv, code, stdout=stdout, stderr="boom")

        monkeypatch.setattr(same_output.subprocess, "run", fake_run)
        return calls

    def test_same_digests_exit_0(self, monkeypatch, capsys, tmp_path):
        same_output = _load("same_output")
        calls = self._fake(monkeypatch, same_output, lambda script, tree: (0, f"{script}\n"))
        assert same_output.compare(tmp_path) == 0
        assert capsys.readouterr().out.count(": same\n") == 5
        # each digest runs once per tree, with that tree's src first on the path
        assert len(calls) == 10 and {tree for _, tree, _, _ in calls} == {
            tmp_path, same_output.HERE
        }
        assert ("criteria_digest.py", tmp_path, [str(tmp_path)], None) in calls
        threads = [t for script, _, _, t in calls if script == "report_digest.py"]
        assert sorted(threads) == ["1", "1", "2", "2"]

    def test_a_differing_digest_exits_1_with_its_diff(self, monkeypatch, capsys, tmp_path):
        same_output = _load("same_output")

        def output(script, tree):
            moved = script == "fit_digest.py" and tree == same_output.HERE
            return 0, "all sha256=new\n" if moved else "all sha256=old\n"

        self._fake(monkeypatch, same_output, output)
        assert same_output.compare(tmp_path) == 1
        out = capsys.readouterr().out
        assert "-all sha256=old\n+all sha256=new" in out
        assert out.count(": same\n") == 4

    def test_a_failing_digest_exits_1(self, monkeypatch, capsys, tmp_path):
        same_output = _load("same_output")
        self._fake(
            monkeypatch, same_output,
            lambda script, tree: (int(script == "criteria_digest.py"), "x\n"),
        )
        assert same_output.compare(tmp_path) == 1
        out = capsys.readouterr().out
        assert out.count("criteria_digest: exit 1 in ") == 2 and "boom" in out
        assert out.count(": same\n") == 4
