"""Benchmark worker: runs one workload in-process through ``rfiqsdc.cli.run``.

Started by ``run.py`` as a fresh interpreter, one per benchmark run. It repeats
the workload's command lines in as many whole passes as fit in ``--seconds``
(at least one), checks every pass's outputs, and writes a JSON record to
``--record``.

Every pass is timed in CPU seconds of this process and in wall seconds.
Untraced passes are also sampled by ``hostspeed``, which leaves its probes out
of their CPU time and rescales it to a reference host speed; the rescaled time
is the one the benchmark reports.

Untraced (``--trace 0``): every pass is timed without tracing.
Traced (``--trace 1``): one untraced pass, then at least two traced passes;
the traced passes must produce identical call counts, and the difference of
the median traced and untraced pass CPU times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# CSV digests and call counts of the seed-0 workloads at the commit that
# introduced the benchmark; a mismatch is reported, never counted as failure
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def git_commit():
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    proc = subprocess.run(
        ["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return proc.stdout.strip() or None


def run_pass(cli, calls):
    """Run every call once; return (CPU seconds, wall seconds, exit code per call)."""
    codes = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    for call in calls:
        try:
            code = cli.run(list(call.argv))
        except Exception:  # a crashing call counts as failed rows
            traceback.print_exc()
            code = None
        codes.append(code)
    return time.process_time() - cpu_start, time.perf_counter() - start, codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--record", required=True)
    args = parser.parse_args(argv)

    import numpy
    import scipy
    from rfiqsdc import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"rfiqsdc was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    calls = workloads.build_calls(args.workload, args.seed, args.out_dir)
    attempted = failed = 0
    digests = []
    untraced_s, traced_s, counts, layers = [], [], [], []
    untraced_wall_s, traced_wall_s, scaled_s, probe_s = [], [], [], []
    speed = hostspeed.HostSpeed()
    started = time.perf_counter()
    while True:
        if args.trace and untraced_s:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                cpu, wall, codes = run_pass(cli, calls)
            traced_s.append(cpu)
            traced_wall_s.append(wall)
            counts.append(tracer.counts())
            layers.append(tracer.layer_metrics())
        else:
            with speed.sampling() as sampled:
                _, wall, codes = run_pass(cli, calls)
            untraced_s.append(sampled.work_s())
            untraced_wall_s.append(wall)
            scaled_s.append(sampled.scaled_s())
            probe_s.append(sampled.probe_median_s())
        digests.append(workloads.csv_digest(calls))
        for call, code in zip(calls, codes):
            attempted += call.rows
            # a pass whose CSVs differ from the first pass's is nondeterministic
            if digests[-1] != digests[0]:
                failed += call.rows
            else:
                failed += workloads.failed_rows(call, code, check_targets=args.seed == 0)
        # stop before a pass that would end after --seconds, but only once the
        # minimum passes have run
        elapsed = time.perf_counter() - started
        passes = len(untraced_s) + len(traced_s)
        if elapsed * (passes + 1) / passes > args.seconds and (not args.trace or len(traced_s) >= 2):
            break

    reference = json.loads(REFERENCE.read_text())[args.workload] if args.seed == 0 else {}
    counts_stable = all(c == counts[0] for c in counts)
    if not counts_stable:
        print("call counts differ between traced passes of the same code", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "attenuation_offset_db": workloads.offset_db(args.seed),
        "provenance": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_commit": git_commit(),
            "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        },
        "attempted": attempted,
        "failed": failed,
        "csv_sha256": digests[0],
        "reference_csv_sha256": reference.get("csv_sha256"),
        "csv_matches_reference": digests[0] == reference["csv_sha256"] if reference else None,
        "counts_stable": counts_stable,
        "untraced_pass_scaled_s": scaled_s,
        "untraced_probe_median_s": probe_s,
        "untraced_pass_cpu_s": untraced_s,
        "traced_pass_cpu_s": traced_s,
        "untraced_pass_wall_s": untraced_wall_s,
        "traced_pass_wall_s": traced_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        record["counts"] = counts[0]
        record["calls_match_reference"] = (
            counts[0]["calls"] == reference["calls"] if reference else None
        )
        # counts repeat exactly (checked above), so only times take a median
        record["layers"] = {
            name: (value if isinstance(value, int) else statistics.median(
                [layer[name][0] for layer in layers]), unit)
            for name, (value, unit) in layers[0].items()
        }
        record["layers"]["trace.overhead_s"] = (
            statistics.median(traced_s) - statistics.median(untraced_s), "s"
        )
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
