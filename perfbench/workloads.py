"""The benchmark's workloads: which calls each item makes, and its verdict.

An item is plain data (kind, arguments); ``execute`` turns it into one call
through a documented ``bhl`` entry point, looked up on the module at call
time, and ``verdict`` reduces the call's raw output to the JSON value that
is compared with the recorded reference.  The seed only permutes item order.

Why each workload (see ``BENCHMARK.json``):

* hopf-kron: Hopf axioms as matrix identities.  Almost all time goes to
  ``Mat.kron`` and ``Mat.__mul__`` on the 390 625 x 625 Taft p=5 diagram
  and to rational-promoting scalar products; rational scalars (Taft) sit
  beside degree-16 irrationals (anyonic p=17) on the same code path, and
  the c=0 negative controls take the witness path of ``map_check``.
* ayd-elim: no Kronecker products at all.  Time goes to ``_normalize`` in
  uqsl2, to matrix products on p^3-dimensional modules, to elimination
  (nullity chains and the center) and to arithmetic in Q(zeta_p).
* cli-small: millisecond ``bhl`` commands, where argparse, dispatch,
  algebra construction, the DSL, classify and report rendering dominate,
  so a fixed cost added to every call shows.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

HOPF_KRON = (
    [("hopf", ("taft_hopf", p)) for p in (2, 3, 5)]
    + [("hopf", ("anyonic_hopf", p)) for p in (2, 3, 5, 7, 11, 13, 17)]
    # c = 0 is the unbraided square: a negative control that must FAIL
    # with a witness.
    + [("hopf", ("anyonic_hopf", p, 0)) for p in (5, 11)]
)

AYD_ELIM = (
    [("ribbon_family", (p,)) for p in (3, 5)]
    + [("stable", (p, mu)) for p in (2, 3, 5) for mu in range(p)]
    # p = 7 has dimension 343, just under the default guard of 350.
    + [("stable", (7, mu)) for mu in (0, 1)]
    + [("center", (p,)) for p in (5, 7)]
    + [("verify_ayd", (5, 1)), ("ribbon_centrality", (5,))]
)

CLI_SMALL = [("cli", tuple(argv.split())) for argv in (
    "suite --p 3",
    "suite --p 2",
    "verify dual-algebra --p 7",
    "verify uqsl2-iso --p 5",
    "verify ribbon --p 3",
    "verify hopf-axioms --p 3",
    "verify ayd --p 3 --mu 2",
    "verify ayd --module src/bhl/data/sample_module_p3_mu1.json",
    "stable-dim --p 3",
    "decompose vec-g --n 61",
    "decompose rep-g --cayley src/bhl/data/cayley_s3.json",
    "dsl check src/bhl/corpus/hopf_anyonic.bdsl --n 7 --chi 2",
    "dsl check src/bhl/corpus/braided_module.bdsl --n 5",
)]

# planned_pass_s fixes, with --seconds, the passes in a run (pass_count).
# It is about the pass time, calibration included, on a 2-vCPU Xeon VM
# (CPython 3.11).  cli-small's is set higher, so that a run of --seconds 36
# makes 20 passes and ends within about 40 s when that machine runs slow.
# min_passes keeps enough latency samples for a steady tail: with three
# passes the ayd-elim tail lands on single 0.7 s items and spreads twice as
# much between runs as with four.
WORKLOADS = {
    "hopf-kron": {"items": HOPF_KRON, "modules": ("hopf",),
                  "planned_pass_s": 12.0, "min_passes": 3},
    "ayd-elim": {"items": AYD_ELIM, "modules": ("ayd", "algebras"),
                 "planned_pass_s": 9.0, "min_passes": 4},
    "cli-small": {"items": CLI_SMALL, "modules": ("cli",),
                  "planned_pass_s": 1.8, "min_passes": 3},
}


def pass_count(workload, seconds):
    """Passes in a run of ``seconds``: fixed by the workload, never by a
    timing taken in the run, so that noise cannot change the number of
    latency samples (and with it the percentile of the latency tail), and
    a parent and a change run the same work."""
    spec = WORKLOADS[workload]
    return max(spec["min_passes"], round(seconds / spec["planned_pass_s"]))


def item_id(item):
    kind, args = item
    if kind == "cli":
        return "bhl " + " ".join(args)
    if kind == "hopf":
        return "%s(%s)" % (args[0], ", ".join(map(str, args[1:])))
    return "%s(%s)" % (kind, ", ".join(map(str, args)))


def ordered_items(workload, seed):
    """The workload's items in the order fixed by ``seed``."""
    items = list(WORKLOADS[workload]["items"])
    random.Random(seed).shuffle(items)
    return items


def execute(item, bhl):
    """Run one item and return its raw output.

    ``bhl`` maps a module name ("hopf", "ayd", "algebras", "cli") to the
    imported module.
    """
    kind, args = item
    if kind == "hopf":
        hopf = bhl["hopf"]
        H = getattr(hopf, args[0])(*args[1:])
        return hopf.verify_bialgebra(H) + hopf.verify_antipode(H)
    if kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = bhl["cli"].main(list(args) + ["--format", "json"])
        return code, out.getvalue()
    ayd = bhl["ayd"]
    if kind == "ribbon_family":
        return ayd.verify_ribbon_family(*args)
    if kind == "stable":
        return ayd.stable_analysis(*args)
    if kind == "center":
        return bhl["algebras"].uqsl2(*args).compute_center()
    if kind == "verify_ayd":
        return ayd.verify_ayd(ayd.regular_ayd_module(*args))
    if kind == "ribbon_centrality":
        return ayd.ribbon_centrality_checks(*args)
    raise ValueError("unknown item kind %r" % kind)


def verdict(item, raw):
    """The JSON value of an item's outcome that must match the reference.

    Check lists are kept whole (reports carry no ``elapsed_ms`` at the check
    level); ``cli.main`` items add the exit code and drop the report's
    ``elapsed_ms``; ``stable_analysis`` is its kernel chain and
    ``compute_center`` the dimension of the center.
    """
    kind, _ = item
    if kind == "cli":
        code, text = raw
        return {"exit": code, "checks": json.loads(text)["checks"]}
    if kind == "stable":
        return {"chain": raw["chain"]}
    if kind == "center":
        return {"dim": len(raw)}
    return json.loads(json.dumps(raw, default=str))


def mismatch(item, got, reference):
    """Why ``got`` differs from the reference verdict, or None if it matches."""
    want = reference.get(item_id(item))
    if want is None:
        return "no reference verdict"
    if got != want:
        return "verdict differs from the reference"
    return None
