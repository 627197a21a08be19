"""Benchmark of the kwlab CLI: fresh-process wall time per workload, and a
separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload energy-chain --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  Each command of a workload runs as
`python -m kwlab.cli ...` in a fresh interpreter with PYTHONPATH=src, one
process at a time on one CPU, so every run starts as cold as a user's
invocation: the `pole_scalars` lru_cache and the calibration memo in
`forms` start empty.  Whole invocations of the workload repeat until
`--seconds` have passed; there is always at least one.  Times are scaled to
a reference machine speed measured on that CPU during the run (speed.py).

`--trace 0` prints the end-to-end metrics, `--trace 1` one untraced and one
traced invocation of the same inputs and the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the provenance.
See README.md in this directory for the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import speed
import tracing
import validate
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench-work"  # under the checkout root; holds nothing kept
RUN_DEADLINE_S = 170.0  # children still running at this point are killed
SETUP_REPEATS = 5  # set-up samples before the workload, and again after it
SETUP_CODE = "import kwlab.cli, kwlab.forms; kwlab.forms.calibrate()"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Exit:
    code: int | None  # None: killed at the deadline
    wall_s: float
    cpu_s: float
    rss_mib: float
    span: tuple  # perf_counter at spawn and at exit


@dataclass
class Invocation:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mib: float = 0.0
    spans: list = field(default_factory=list)  # of its commands
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    dumps: list = field(default_factory=list)


def child_env(root: str, run_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=os.path.join(root, "src"),  # measure the working tree
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=os.path.join(root, WORK_DIR, "pycache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=run_dir,
    )
    return env


def spawn(argv: list, env: dict, cwd: str, log: str, deadline: float) -> Exit:
    """Run one child to exit; wall time from spawn to exit and the child's
    own rusage.  The child is killed if it outlives `deadline`."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [],
                                        max(0.0, deadline - time.perf_counter()))
            t1 = time.perf_counter()
            if not ready:
                proc.kill()
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode if ready else None, t1 - t0,
                ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, (t0, t1))


def run_invocation(commands: list, env: dict, out_dir: str, deadline: float,
                   traced: bool) -> Invocation:
    inv = Invocation()
    for i, cmd in enumerate(commands):
        label = f"{cmd.argv[0]}-{i}"
        dump = os.path.join(out_dir, f"trace-{i}.json")
        prefix = ([os.path.join(HERE, "tracing.py"), dump, "--"] if traced
                  else ["-m", "kwlab.cli"])
        ex = spawn([sys.executable, *prefix, *cmd.argv], env, out_dir,
                   os.path.join(out_dir, f"{label}.log"), deadline)
        out = cmd.check()
        if ex.code != 0:
            out = validate.fail_all(out, "killed at the deadline" if ex.code is None
                                    else f"exit code {ex.code}")
        inv.wall_s += ex.wall_s
        inv.spans.append(ex.span)
        inv.cpu_s += ex.cpu_s
        inv.rss_mib = max(inv.rss_mib, ex.rss_mib)
        inv.attempted += out.attempted
        inv.failed += out.failed
        inv.digests[" ".join(cmd.argv[:3])] = out.sha256
        if out.problem:
            inv.problems.append(f"{' '.join(cmd.argv)}: {out.problem}")
        if traced:
            try:
                with open(dump) as fh:
                    inv.dumps.append(json.load(fh))
            except (OSError, ValueError) as e:
                inv.problems.append(f"trace dump {dump}: {e!r}")
                inv.failed = inv.attempted
    return inv


def setup_times(env: dict, run_dir: str, deadline: float, repeats: int) -> list:
    """Exits of fresh interpreters that import the CLI and calibrate."""
    times = []
    for _ in range(repeats):
        log = os.path.join(run_dir, "setup.log")
        ex = spawn([sys.executable, "-c", SETUP_CODE], env, run_dir, log, deadline)
        if ex.code != 0:
            with open(log) as fh:
                raise BenchError(f"set-up child failed ({ex.code}): {fh.read()[-2000:]}")
        times.append(ex)
    return times


def src_line_count(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src", "kwlab")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def provenance(root: str, args, invocations: list, meter) -> dict:
    digests = invocations[0].digests
    combined = hashlib.sha256(
        "".join(f"{k}={v};" for k, v in sorted(digests.items())).encode())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": meter.nproc,
        "report_sha256": digests,
        "bench_hash": combined.hexdigest(),
        "src_kwlab_lines": src_line_count(root),
        "invocation_wall_s": [inv.wall_s for inv in invocations],
        "reference_work_s": [meter.work_s(inv.spans[0][0], inv.spans[-1][1])
                             for inv in invocations],
        "ticks": len(meter.ticks),
    }


def run(args, root: str, run_dir: str) -> tuple:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = child_env(root, run_dir)
    make = WORKLOADS[args.workload]

    def invoke(rng, traced):
        out_dir = tempfile.mkdtemp(dir=run_dir)
        return run_invocation(make(rng, root, out_dir), env, out_dir, deadline,
                              traced)

    with speed.Meter(run_dir) as meter:
        setup_times(env, run_dir, deadline, 1)  # fills the bytecode cache
        setup = []
        if args.trace:
            plain = invoke(random.Random(args.seed), False)
            traced = invoke(random.Random(args.seed), True)
            invocations = [plain, traced]
        else:
            setup += setup_times(env, run_dir, deadline, SETUP_REPEATS)
            rng = random.Random(args.seed)
            window_end = time.perf_counter() + args.seconds
            invocations = [invoke(rng, False)]
            while (time.perf_counter() < window_end and deadline
                   - time.perf_counter() > 1.5 * invocations[-1].wall_s):
                invocations.append(invoke(rng, False))
            # Set-up is sampled before and after the workload, so that its
            # median spans the run.
            setup += setup_times(env, run_dir, deadline, SETUP_REPEATS)
    if not meter.ticks:
        raise BenchError("the reference sampler recorded no ticks")

    attempted = sum(i.attempted for i in invocations)
    failed = sum(i.failed for i in invocations)
    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracing.summarize(traced.dumps).items()}
        metrics["process.cpu_s"] = {"value": plain.cpu_s, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": meter.scaled_s(traced.spans) - meter.scaled_s(plain.spans),
            "unit": "s"}
    else:
        metrics = {
            "wall_s": (statistics.median(meter.scaled_s(i.spans)
                                         for i in invocations), "s"),
            "setup_s": (statistics.median(meter.scaled_s([e.span])
                                          for e in setup), "s"),
            "peak_rss_mib": (statistics.median(i.rss_mib for i in invocations),
                             "MiB"),
            "fail_ratio": (validate.fail_ratio(attempted, failed,
                                               len(invocations)), "ratio"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    problems = [p for i in invocations for p in i.problems]
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, provenance(root, args, invocations, meter), problems


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so that `spawn` stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    for need in (os.path.join("src", "kwlab", "cli.py"),
                 os.path.join("configs", "acceptance.cfg")):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"run.py: {need} not found; run from the root of a kwlab "
                  "checkout", file=sys.stderr)
            return 2
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=os.path.join(root, WORK_DIR), prefix="run-")
    try:
        result, prov, problems = run(args, root, run_dir)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
