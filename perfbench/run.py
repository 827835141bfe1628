"""The bhl benchmark: one workload per invocation, checked against reference
verdicts.

    python3 perfbench/run.py --workload hopf-kron --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py for why each was chosen): hopf-kron, ayd-elim,
cli-small.  The seed only permutes the order of a workload's items.

With ``--trace 0`` the run prints the end-to-end metrics.  Their timings
are scaled to a reference machine speed (see calibration.py) because the
speed of a shared VM drifts by more than the regression bounds between
runs; the raw timings are printed on the info lines.

* setup_s      median wall time from spawning a fresh interpreter until
               bhl and the modules the workload uses are imported;
* pass_s       median over passes of the wall time one pass spends in
               its items (the time to all verdicts; the benchmark's own
               verdict comparison and calibration are not timed), with
               quartiles on the info lines;
* item_ms_p50  median latency of one item, one call a user makes;
* item_ms_p90  p90 of item latency, or the highest percentile with at
               least 10 samples above it (printed on the info lines);
               both are Harrell-Davis estimates over all samples (see
               worker.percentile);
* peak_rss_mb  peak resident memory of the workload process;
* ok_rate      share of attempted items that returned the reference
               verdict, i.e. 1 - error_rate (error_rate is printed too).

With ``--trace 1`` a separate traced run prints the per-layer metrics, the
fixed-input probes and trace.overhead_ratio, and writes the spans to
perfbench/out/spans-<workload>-seed<seed>.json.  The last line of standard
output is always one JSON object with the keys correct, attempted, failed
and metrics.

Run conditions: the default dimension guard (the run refuses to start if
BHL_DIM_GUARD is set), interpreter defaults, one workload process at a
time, single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "item_ms_p50": "ms", "item_ms_p90": "ms",
    "peak_rss_mb": "MB", "ok_rate": "ratio",
}


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def measure_setup(workload, samples=SETUP_SAMPLES):
    """Seconds from spawning an interpreter until the workload's bhl
    modules are imported (the child reads the same monotonic clock), as
    the median of ``samples`` spawns, scaled and raw."""
    mods = ", ".join("bhl." + m for m in workloads.WORKLOADS[workload]["modules"])
    code = ("import sys; sys.path.insert(0, %r); import %s; "
            "from time import perf_counter; print(perf_counter())"
            % (str(ROOT / "src"), mods))
    times = []
    references = []
    for _ in range(samples):
        references.append(calibration.time_reference())
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout.split()[-1]) - start)
    references.append(calibration.time_reference())
    scaled = calibration.scale_all(times, references)
    return statistics.median(scaled), statistics.median(times)


def run_worker(args, budget):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        fail("the %s worker did not finish within %.0f s"
             % (args.workload, budget))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail("the %s worker exited with %d" % (args.workload, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="bhl benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if "BHL_DIM_GUARD" in os.environ:
        fail("BHL_DIM_GUARD is set; the benchmark runs under the default "
             "dimension guard only")
    if not (ROOT / "src" / "bhl" / "__init__.py").is_file():
        fail("no bhl sources under %s" % (ROOT / "src"))
    if not (HERE / "reference.json").is_file():
        fail("no reference verdicts at perfbench/reference.json")

    started = perf_counter()
    metrics = {}
    if not args.trace:
        metrics["setup_s"], raw_setup_s = measure_setup(args.workload)
    result = run_worker(args, RUN_LIMIT_S - (perf_counter() - started))

    attempted = result["attempted"]
    failed = len(result["errors"])
    # Printed as info lines, before the metrics.
    info = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": cpu_model(), "error_rate": failed / attempted,
    }
    if args.trace:
        metrics.update({k: v for k, (v, _) in result["metrics"].items()})
        units = {k: u for k, (_, u) in result["metrics"].items()}
        info.update(untraced_pass_s=result["untraced_pass_s"],
                    traced_pass_s=result["traced_pass_s"],
                    spans=result["spans"])
    else:
        metrics.update(pass_s=result["pass_s"],
                       item_ms_p50=result["item_ms_p50"],
                       item_ms_p90=result["item_ms_tail"],
                       peak_rss_mb=result["peak_rss_mb"],
                       ok_rate=1 - failed / attempted)
        units = END_TO_END_UNITS
        raw = result["raw"]
        info.update(passes=result["passes"],
                    pass_s_quartiles=result["pass_s_quartiles"],
                    item_ms_p90_percentile=result["item_tail_percentile"],
                    item_samples=result["samples"],
                    reference_ms_median=result["reference_ms_median"],
                    raw_setup_s=raw_setup_s,
                    raw_pass_s=raw["pass_s"],
                    raw_pass_s_quartiles=raw["pass_s_quartiles"],
                    raw_item_ms_p50=raw["item_ms_p50"],
                    raw_item_ms_p90=raw["item_ms_tail"])

    for key, value in info.items():
        print("%-28s %s" % (key, value))
    for err in result["errors"]:
        print("error: %s: %s" % (err["item"], err["error"].strip()))
    for key, value in metrics.items():
        print("%-28s %.6g %s" % (key, value, units[key]))

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
