#!/usr/bin/env python3
"""nllvm-lab benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gibbs-estimate --seed 0 --seconds 20 --trace 0

Workloads: ``gibbs-estimate``, ``vi-risk``, ``mixture-checks`` (see
README.md).  The program is imported from ``src/`` of the checkout and driven
in-process through ``nllvm_lab.cli.main`` and the ``verify_harness``
functions.

Set-up (import, input generation, warm-up) is timed in this process and in
``SETUP_REPEATS - 1`` fresh child processes (none with ``--tiny``);
``setup_s`` is the median.
Then whole passes over the workload's task list run until the next one would
end after ``--seconds`` (at least one pass).  With ``--trace 1`` untraced and
traced passes alternate, and the traced ones give the per-layer metrics.

Output: comment lines (``# env``, the end-to-end figures with units, and
``fail_frac``), then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  In a directory
without ``src/nllvm_lab`` it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

from tracer import SpanRecorder, Tracer, layer_metrics, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = ("gibbs-estimate", "vi-risk", "mixture-checks")
# NLLVM_LAB_THREADS per workload.  vi-risk is the one workload whose
# experiment fans replicates out over nllvm_lab's thread pool.  The value
# is fixed, not taken from the core count, so that runs on different
# machines do the same work split the same way.
LAB_THREADS = {"gibbs-estimate": "1", "vi-risk": "2", "mixture-checks": "1"}
# BLAS stays single-threaded: two parallel_map workers on threaded OpenBLAS
# would otherwise oversubscribe the cores.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
END_TO_END = {"wall_s": "s", "task_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# set-up samples behind the setup_s median
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("need --seed >= 0 and --seconds >= 0")
    return args


def load_program():
    """Import nllvm_lab from this checkout's src/ and the workload module."""
    if not (SRC / "nllvm_lab" / "__init__.py").is_file():
        print(f"run.py: error: no nllvm_lab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nllvm_lab
    import workloads

    if Path(nllvm_lab.__file__).resolve().parent != SRC / "nllvm_lab":
        print(f"run.py: error: imported {nllvm_lab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return workloads


def set_up(args, workdir: Path):
    """Import, input generation and warm-up.  Returns (tasks, seconds)."""
    t0 = time.perf_counter()
    workloads = load_program()
    tasks = workloads.build(args.workload, args.seed, workdir, "tiny" if args.tiny else "full")
    for task in workloads.build(args.workload, args.seed, workdir / "warmup", "warmup"):
        try:
            task.call()
        except Exception:  # a broken program shows up as failed timed tasks
            traceback.print_exc()
    return tasks, time.perf_counter() - t0


def child_set_up(args) -> float:
    """One set-up in a fresh interpreter, so that import and first calls count."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-only",
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited with {proc.returncode}:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_pass(tasks, rec=None):
    """One pass over the task list.  Returns (wall_s, task seconds, failures).

    Only the calls into the program are timed; the checks run afterwards.
    """
    outcomes, times = [], []
    with Tracer(rec) if rec is not None else contextlib.nullcontext():
        start = time.perf_counter()
        for i, task in enumerate(tasks):
            if rec is not None:
                rec.task_id = i
            t0 = time.perf_counter()
            try:
                outcomes.append((task.call(), None))
            except Exception as exc:
                outcomes.append((None, exc))
            times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start

    failed = 0
    for task, (result, error) in zip(tasks, outcomes):
        try:
            if error is not None:
                raise error
            task.check(result)
        except Exception as exc:
            failed += 1
            print(f"# task {task.name} failed: {exc!r}", file=sys.stderr)
    return wall, times, failed


def measure(tasks, seconds: float, trace: bool) -> dict:
    """Whole passes until the next one would end after ``seconds``."""
    plain, traced, task_times, layers = [], [], [], []
    attempted = failed = cycles = 0
    rec = None
    start = time.perf_counter()
    while True:
        for with_trace in (False, True) if trace else (False,):
            rec = SpanRecorder() if with_trace else None
            wall, times, n_failed = run_pass(tasks, rec)
            attempted += len(tasks)
            failed += n_failed
            if with_trace:
                traced.append(wall)
                layers.append(layer_metrics(rec))
            else:
                plain.append(wall)
                task_times.extend(times)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > seconds:
            break
    return dict(plain=plain, traced=traced, task_times=task_times, layers=layers,
                attempted=attempted, failed=failed, last_recorder=rec)


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, setup_samples, plain, traced) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in ("NLLVM_LAB_THREADS", *BLAS_THREADS)},
        "setup_samples_s": setup_samples,
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS, NLLVM_LAB_THREADS=LAB_THREADS[args.workload])
    warnings.filterwarnings("ignore", message="flat CDF region", category=UserWarning)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        tasks, own_setup = set_up(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        children = 0 if args.tiny else SETUP_REPEATS - 1
        setup_samples = [own_setup] + [child_set_up(args) for _ in range(children)]
        m = measure(tasks, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    figures = {
        "wall_s": statistics.median(m["plain"]),
        "task_s_p50": statistics.median(m["task_times"]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    env = environment(args, setup_samples, m["plain"], m["traced"])
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit in END_TO_END.items():
        extra = f" (n={len(m['task_times'])} tasks)" if name == "task_s_p50" else ""
        print(f"# {name} {figures[name]:.6g} {unit}{extra}")
    print(f"# fail_frac {m['failed'] / m['attempted']:.6g} ratio "
          f"({m['failed']}/{m['attempted']} tasks)")

    if args.trace:
        units = metric_units()
        metrics = {}
        for name, unit in units.items():
            if name == "trace.overhead_s":
                value = statistics.median(m["traced"]) - figures["wall_s"]
            else:
                value = statistics.median(layer[name] for layer in m["layers"])
                if unit == "count":
                    value = int(value)
            metrics[name] = {"value": value, "unit": unit}
        write_spans(args, env, m["last_recorder"])
    else:
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


def write_spans(args, env, rec) -> None:
    """Spans of the last traced pass, as one JSON file under .work/."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ["id", "name", "start", "end", "parent", "task", "thread"]
    path.write_text(json.dumps({"env": env, "fields": fields, "spans": rec.spans}))
    print(f"# spans {path.relative_to(ROOT)} ({len(rec.spans)} spans)")


if __name__ == "__main__":
    sys.exit(main())
