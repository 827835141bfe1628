"""Check dictionaries and report assembly shared by verifiers and the CLI.

A check is {"name", "status" (PASS/FAIL/SKIP), "details", "witnesses"};
map_check makes one from two maps and names its witness from the maps'
own source, so no caller lists a basis.  A report bundles checks with the
invoking command, its parameters, and a wall-clock figure.  Everything is
plain JSON-serializable data so the CLI can render text or JSON without
translation.
"""

from __future__ import annotations

import json

from .graded import diagram, first_difference

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


def check(name, ok, details="", witnesses=None):
    witnesses = list(witnesses or [])
    if not ok and not witnesses:
        witnesses = [{"note": "identity failed with no recorded example"}]
    return {
        "name": name,
        "status": PASS if ok else FAIL,
        "details": str(details),
        "witnesses": witnesses,
    }


def skip(name, reason):
    return {"name": name, "status": SKIP, "details": reason, "witnesses": []}


def map_check(name, lhs, rhs, details="", label=None):
    """A check comparing two maps (GradedMaps or lazy Diagrams) one source
    column at a time; it stops at the first column where they disagree and
    reports it as the witness: that basis input and the difference there.

    The input is named by label(j) when given, else by lhs.label(j), the
    name tensor() gives that basis vector.  Maps with different sources or
    targets are unequal, as for GradedMap.
    """
    lhs, rhs = diagram(lhs), diagram(rhs)
    if not lhs.parallel(rhs):
        return check(name, False, details=details or "maps differ",
                     witnesses=[{"note": "source or target differ"}])
    hit = first_difference(lhs, rhs)
    if hit is None:
        return check(name, True, details=details)
    j, diff = hit
    witness = {
        "input": (label or lhs.label)(j),
        "difference": [[r, repr(diff[r])] for r in sorted(diff)],
    }
    return check(name, False, details=details or "maps differ",
                 witnesses=[witness])


def has_fail(checks):
    return any(c["status"] == FAIL for c in checks)


def has_skip(checks):
    return any(c["status"] == SKIP for c in checks)


def make_report(command, params, checks, elapsed_ms):
    return {
        "command": command,
        "params": dict(params),
        "checks": list(checks),
        "elapsed_ms": int(elapsed_ms),
    }


def render_json(report):
    return json.dumps(report, sort_keys=True, indent=2, default=str)


def render_text(report):
    lines = ["command: %s" % report["command"]]
    if report["params"]:
        lines.append("params: " + " ".join(
            "%s=%s" % (k, report["params"][k]) for k in sorted(report["params"])))
    counts = {PASS: 0, FAIL: 0, SKIP: 0}
    for c in report["checks"]:
        counts[c["status"]] += 1
        line = "%-4s %s" % (c["status"], c["name"])
        if c["details"]:
            line += " — " + c["details"]
        lines.append(line)
        for w in c["witnesses"]:
            lines.append("     witness: %s"
                         % json.dumps(w, sort_keys=True, default=str))
    lines.append("%d checks: %d PASS, %d FAIL, %d SKIP (%d ms)" % (
        len(report["checks"]), counts[PASS], counts[FAIL], counts[SKIP],
        report["elapsed_ms"]))
    return "\n".join(lines)
