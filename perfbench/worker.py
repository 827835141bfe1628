"""One workload in one fresh, single-threaded process (started by run.py).

A closed loop: one client issues the workload's items back to back, each
item one call a user makes, and the verdict of every item is compared with
the recorded reference.  Before each item the untraced run also times the
calibration reference (see calibration.py), which scales the item's
latency to the reference machine speed.  The process prints one JSON line
with its measurements.  With ``--trace 1`` it makes one untraced pass, runs the
fixed-input probes, then makes one traced pass and derives the per-layer
metrics from its spans.

``--record`` instead runs every item once in a fixed order and writes the
reference verdicts.  ``bhl`` is always imported from the src/ directory of
the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"


def import_bhl():
    """Import every bhl layer from the checkout's src/, refusing any other
    copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    modules = {layer: importlib.import_module("bhl." + layer)
               for layer in tracing.LAYERS}
    where = pathlib.Path(modules["cli"].__file__).resolve()
    if src not in where.parents:
        raise RuntimeError("bhl was imported from %s, not %s" % (where, src))
    return modules


def run_pass(items, bhl, reference, tracer=None, references=None):
    """One closed-loop pass; returns (latencies in s, list of errors).

    With ``references``, the calibration reference is timed before each
    item and its time appended there.
    """
    latencies = []
    errors = []
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.item = idx
        # Each item stands for one call a user makes in a fresh process, so
        # it starts without garbage left by the items before it.
        gc.collect()
        if references is not None:
            references.append(calibration.time_reference())
        start = perf_counter()
        try:
            raw = workloads.execute(item, bhl)
        except Exception:
            latencies.append(perf_counter() - start)
            errors.append({"item": workloads.item_id(item),
                           "error": traceback.format_exc(limit=3)})
            continue
        latencies.append(perf_counter() - start)
        why = workloads.mismatch(item, workloads.verdict(item, raw), reference)
        del raw
        if why:
            errors.append({"item": workloads.item_id(item), "error": why})
    return latencies, errors


def percentile(values, q):
    """Harrell-Davis estimate of the q-quantile, q in [0, 1].

    A weighted mean of all order statistics, the i-th of n weighted by the
    Beta((n + 1) q, (n + 1) (1 - q)) mass on [(i - 1) / n, i / n].  The
    workloads' latencies form one cluster per item, and a single order
    statistic at the edge of a cluster moves with one noisy sample; the
    weighted mean spreads over the neighbouring samples.  The weights are
    integrated with Simpson's rule, 64 intervals per sample.
    """
    xs = sorted(values)
    if q <= 0 or q >= 1:
        return xs[0] if q <= 0 else xs[-1]
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    steps = 64
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        ys = [density((i * steps + k) * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2])
                                + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(n):
    """p90, or the highest whole percentile with at least 10 samples above
    it when there are fewer than 100 samples."""
    return max(0, min(90, math.floor(100 * (1 - 10 / n))))


def measure(items, bhl, reference, count):
    """``count`` closed-loop passes over ``items``.

    Timings are scaled to the reference machine speed (calibration.py);
    the raw ones are returned as well.
    """
    raw = []
    references = []
    errors = []
    for _ in range(count):
        lat, err = run_pass(items, bhl, reference, references=references)
        raw += lat
        errors += err
    gc.collect()
    references.append(calibration.time_reference())
    scaled = calibration.scale_all(raw, references)
    n = len(items)
    tail = tail_percentile(len(scaled))

    def summary(latencies):
        passes = [latencies[i:i + n] for i in range(0, len(latencies), n)]
        totals = [sum(p) for p in passes]
        quart = statistics.quantiles(totals, n=4)
        return {
            "pass_s": statistics.median(totals),
            "pass_s_quartiles": [quart[0], quart[2]],
            "passes": totals,
            "item_ms_p50": percentile(latencies, 0.5) * 1e3,
            "item_ms_tail": percentile(latencies, tail / 100) * 1e3,
        }

    result = summary(scaled)
    result.update({
        "raw": summary(raw),
        "reference_ms_median": statistics.median(references) * 1e3,
        "item_tail_percentile": tail,
        "samples": len(scaled),
        "attempted": len(scaled),
        "errors": errors,
    })
    return result


def traced_run(items, bhl, reference, spans_path):
    lat, errors = run_pass(items, bhl, reference)
    untraced = sum(lat)
    probe_values = probes.run_probes(bhl)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, bhl)
    try:
        tlat, terr = run_pass(items, bhl, reference, tracer)
    finally:
        tracing.uninstall(patches)
    traced = sum(tlat)
    layer = tracing.layer_metrics(tracer.spans, tracer.counts)
    metrics = {name: (value, tracing.metric_unit(name))
               for name, value in layer.items()}
    metrics.update(probe_values)
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return {
        "metrics": metrics,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "spans": len(tracer.spans),
        "attempted": len(lat) + len(tlat),
        "errors": errors + terr,
    }


def record():
    """Run every item once and write the reference verdicts."""
    bhl = import_bhl()
    ref = {}
    for name, spec in workloads.WORKLOADS.items():
        for item in spec["items"]:
            got = workloads.verdict(item, workloads.execute(item, bhl))
            ref[workloads.item_id(item)] = got
            print("%-10s %s" % (name, workloads.item_id(item)), flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if sys.flags.optimize or not gc.isenabled():
        raise SystemExit("run with interpreter defaults: no -O, GC on")
    os.chdir(ROOT)
    if args.record:
        record()
        return
    bhl = import_bhl()
    reference = json.loads(REFERENCE.read_text())
    items = workloads.ordered_items(args.workload, args.seed)
    if args.trace:
        spans = OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        result = traced_run(items, bhl, reference, spans)
    else:
        result = measure(items, bhl, reference,
                         workloads.pass_count(args.workload, args.seconds))
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
