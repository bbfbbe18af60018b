"""Benchmark of the ``rfiqsdc`` command line, run from the root of a checkout.

    python3 bench/run.py --workload point-opt --seed 0 --seconds 20 --trace 0

Builds nothing: the library runs from ``src/``. With ``--trace 0`` the run
measures set-up time in fresh interpreters, then one serial worker process
runs the workload through ``rfiqsdc.cli.run`` for ``--seconds`` and reports
the end-to-end metrics. Times are CPU seconds of the measured process,
rescaled to a reference host speed by ``hostspeed``: the host's speed changes
by up to half for minutes at a time, and the rescaled times stay put.
With ``--trace 1`` the worker also runs traced passes and the run reports the
per-layer metrics instead. Thread pools of the numerical libraries are pinned
to one thread.

The last line of standard output is the result: ``correct``, ``attempted``
and ``failed`` (result rows and rows failing the output check) and
``metrics``. The line before it is the full run record, with provenance, the
CSV digest and the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEADLINE_S = 175.0
SETUP_SAMPLES = 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# prints the CPU seconds the interpreter spent from its start until the import
IMPORT_PROBE = "import rfiqsdc.cli, sys, time; sys.stdout.write(repr(time.process_time()))"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def setup_seconds(env: dict) -> tuple[float, float]:
    """(CPU, wall) seconds from starting an interpreter until ``rfiqsdc.cli`` is imported."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE, env=env, cwd=ROOT
    ) as probe:
        out = probe.stdout.read()
        elapsed = time.perf_counter() - start
        probe.wait()
    if probe.returncode != 0:
        raise RuntimeError("importing rfiqsdc.cli failed")
    return float(out), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "rfiqsdc" / "cli.py").is_file():
        print(f"no rfiqsdc sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    # before numpy loads here (through hostspeed) or in a child
    os.environ.update({name: "1" for name in THREAD_ENV})
    import hostspeed

    # The host's speed differs between CPUs; on one CPU the host speed probes
    # here and in the worker time the CPU that the measured code runs on.
    allowed = os.sched_getaffinity(0)
    pinned_cpu = min(allowed)
    os.sched_setaffinity(0, {pinned_cpu})

    env = child_env()
    setup = []  # (CPU, wall, rescaled CPU) seconds per probe
    try:
        if not args.trace:
            speed = hostspeed.HostSpeed()
            before = speed.probe_s()
            for _ in range(SETUP_SAMPLES):
                cpu, wall = setup_seconds(env)
                after = speed.probe_s()
                setup.append((cpu, wall, cpu * hostspeed.REFERENCE_S * 2 / (before + after)))
                before = after
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    record_path = os.path.join(out_dir, "record.json")
    try:
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", out_dir, "--record", record_path],
            env=env, cwd=ROOT, stdout=sys.stderr, check=False,
            timeout=max(DEADLINE_S - (time.perf_counter() - started), 1.0),
        )
        if worker.returncode != 0:
            print(f"worker exited with code {worker.returncode}", file=sys.stderr)
            return 1
        with open(record_path, encoding="utf-8") as handle:
            record = json.load(handle)
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()  # only when no other run is using it

    record["provenance"].update(cpu_affinity=len(allowed), pinned_cpu=pinned_cpu)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit} for name, (value, unit) in record["layers"].items()
        }
    else:
        record["setup_cpu_s"], record["setup_wall_s"], record["setup_scaled_s"] = map(list, zip(*setup))
        metrics = {
            "setup_s": {"value": statistics.median(record["setup_scaled_s"]), "unit": "s"},
            "norm_pass_s": {
                "value": statistics.median(record["untraced_pass_scaled_s"]), "unit": "s"
            },
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    correct = record["failed"] == 0 and record["counts_stable"]
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
