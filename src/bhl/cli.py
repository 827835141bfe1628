"""Command-line front end.

Every subcommand runs a batch of exact checks and prints a report, either
as human-readable text or as JSON conforming to ``schemas/report.schema.json``.
Exit status: 0 when nothing failed, 1 when at least one check failed (or,
under ``--strict``, when anything was skipped), 2 for usage errors.

The check producers below are shared by the subcommands and the acceptance
battery.  Each imports the layers of bhl it runs when it is called, so
importing this module loads only bhl.report and bhl.guard.  ``COMMANDS``
is the one table of subcommands (``bhl -h`` prints it), each leaf with its
handler, args -> (params, checks); a call builds only the parsers on the
path to the leaf it names (``build_parser``).  ``CRITERIA`` is the one
table of acceptance criteria, read by ``bhl suite`` and
``tests/test_acceptance.py``: entries (number, slug, run) with run(p) ->
checks, built from steps (parameter values, producer, ...).
"""

import argparse
import functools
import json
import os
import pathlib
import sys
import time

from .guard import DimensionGuardError, check_guard, dim_guard, is_prime
from .report import (FAIL, PASS, check, has_fail, has_skip, make_report,
                     prefixed, render_json, render_text, skip)

PACKAGE_DIR = pathlib.Path(__file__).parent
CORPUS_DIR = PACKAGE_DIR / "corpus"
DATA_DIR = PACKAGE_DIR / "data"


class UsageError(Exception):
    """Bad arguments or unreadable input files; exits with status 2."""


def _guarded(label, thunk):
    """Run thunk() -> list of checks, turning a tripped size guard into SKIP."""
    try:
        return thunk()
    except DimensionGuardError as exc:
        return [skip(label, str(exc))]


def _require_odd_prime(p, what):
    if p == 2:
        raise UsageError("%s needs an odd prime, got p=2" % what)


# ---------------------------------------------------------------------------
# check producers (shared between the subcommands and the acceptance suite)

def anyonic_hopf_checks(p, c=1):
    from .hopf import anyonic_hopf, verify_antipode, verify_bialgebra

    def run():
        H = anyonic_hopf(p, c)
        return prefixed("anyonic p=%d: " % p,
                        verify_bialgebra(H) + verify_antipode(H))
    return _guarded("anyonic p=%d" % p, run)


def taft_hopf_checks(p):
    from .hopf import (antipode_square, taft_hopf, verify_antipode,
                       verify_bialgebra)

    def run():
        H = taft_hopf(p)
        checks = prefixed("taft p=%d: " % p,
                          verify_bialgebra(H) + verify_antipode(H))
        x = H.algebra.gen("x")
        s2 = antipode_square(H, x)
        expected = (H.algebra.xi ** -1) * x
        ok = s2 == expected
        checks.append(check(
            "taft p=%d: S^2(x) = xi^-1 x" % p, ok,
            details="S^2 acts on x as conjugation by the group-like inverse",
            witnesses=None if ok else [{"S2(x)": str(s2),
                                        "expected": str(expected)}]))
        return checks
    return _guarded("taft p=%d" % p, run)


def dual_algebra_checks(p):
    from .algebras import (algebra_morphism, dual_anyonic,
                           induced_linear_map, nilpotent_line)
    from .scalars import format_scalar, q_factorials, root_of_unity

    def run():
        # dual_anyonic(p) has dimension p: guard it before it lists a basis
        check_guard(p, "associativity sweep")
        A = dual_anyonic(p)
        checks = prefixed("dual p=%d: " % p, A.verify_associativity())
        src = nilpotent_line(p, "z", p - 1)
        images = {"z": A.gen("e_1")}
        checks += prefixed("iso p=%d: " % p,
                           algebra_morphism(src, A, images))
        mat = induced_linear_map(src, A, images)
        bad = []
        for i, factorial in enumerate(q_factorials(p - 1, A.xi)):
            expected = root_of_unity(p, -(i - 1) * i // 2) * factorial
            if mat[i, i] != expected:
                bad.append({"i": i,
                            "entry": format_scalar(mat[i, i]),
                            "expected": format_scalar(expected)})
        checks.append(check(
            "iso p=%d: z^i maps to xi^(-(i-1)i/2) (i)_xi! e_i" % p,
            not bad,
            details="checked the diagonal of the induced linear map",
            witnesses=bad))
        return checks
    return _guarded("dual algebra p=%d" % p, run)


def q_factorial_checks(p):
    from .scalars import (balanced_q_factorials, format_scalar, q_factorials,
                          root_of_unity)
    xi = root_of_unity(p)
    q = xi ** ((p - 1) // 2)
    bad = []
    tables = zip(q_factorials(p - 1, xi), balanced_q_factorials(p - 1, q))
    for n, (lhs, balanced) in enumerate(tables):
        rhs = q ** (-(n * (n - 1) // 2)) * balanced
        if lhs != rhs:
            bad.append({"n": n,
                        "unbalanced": format_scalar(lhs),
                        "rescaled balanced": format_scalar(rhs)})
    return [check(
        "p=%d: (n)_xi! = q^(-n(n-1)/2) [n]_q! for all n < p" % p,
        not bad,
        details="q = xi^((p-1)/2)",
        witnesses=bad)]


def uqsl2_iso_checks(p, mus=None):
    _require_odd_prime(p, "the small quantum group")
    from .algebras import algebra_morphism, d_a_mu, uqsl2

    def run():
        check_guard(p ** 3, "induced map d_a_mu(%d, mu) -> uqsl2(%d)" % (p, p))
        target = uqsl2(p)
        q = target.q
        E = target.gen("E")
        F = target.gen("F")
        K = target.gen("K")
        checks = []
        for mu in (range(p) if mus is None else mus):
            images = {"x": q ** (mu - 1) * E,
                      "z": q ** (1 - mu) * (F * K),
                      "g": q ** (mu - 1) * K ** (p - 1)}
            checks += prefixed(
                "p=%d mu=%d: " % (p, mu),
                algebra_morphism(d_a_mu(p, mu), target, images))
        return checks
    return _guarded("uqsl2 identification p=%d" % p, run)


def coproduct_power_checks(p):
    from .hopf import anyonic_hopf, verify_coproduct_powers

    def run():
        return prefixed("anyonic p=%d: " % p,
                        verify_coproduct_powers(anyonic_hopf(p)))
    return _guarded("coproduct powers p=%d" % p, run)


def ribbon_checks(p, mu=None):
    _require_odd_prime(p, "the ribbon identity")
    from .ayd import verify_ribbon, verify_ribbon_identity
    if mu is not None:
        return _guarded("ribbon p=%d mu=%d" % (p, mu),
                        lambda: verify_ribbon_identity(p, mu))
    return _guarded("ribbon family p=%d" % p, lambda: verify_ribbon(p))


def center_checks(p):
    _require_odd_prime(p, "the center computation")
    from .algebras import uqsl2
    from .ayd import center_dimension_checks
    return _guarded("center p=%d" % p,
                    lambda: center_dimension_checks(uqsl2(p)))


def stable_dim_checks(p, mus=None):
    """Per mu; the whole family (mus None) passes the guard once, as all
    its regular modules have dimension p^3, so a large p is one SKIP."""
    from .ayd import stable_analysis
    if mus is None:
        def family():
            check_guard(p ** 3, "regular module of each d_a_mu(%d, mu)" % p)
            return stable_dim_checks(p, range(p))
        return _guarded("p=%d: stable analysis" % p, family)
    checks = []
    for mu in mus:
        label = "p=%d mu=%d" % (p, mu)

        def run(mu=mu, label=label):
            result = stable_analysis(p, mu)
            power = result["stabilization_power"]
            expected = 1 if mu % p == 0 else 2
            out = [check(
                "%s: kernel chain stabilizes at power %d" % (label, expected),
                power == expected,
                details="chain %s on dimension %d" % (
                    result["chain"], result["dim"]),
                witnesses=None if power == expected else [result])]
            stable = result["chain"][-1]
            want = p * p if mu % p == 0 else 2 * p * p
            out.append(check(
                "%s: stable kernel dimension" % label,
                stable == want,
                details="dim = %d, expected %d" % (stable, want),
                witnesses=None if stable == want else [result]))
            return out

        checks += _guarded(label + ": stable analysis", run)
    return checks


def ayd_checks(p, mu):
    from .ayd import regular_ayd_module, sweedler_checks, verify_ayd

    def run():
        M = regular_ayd_module(p, mu)
        checks = prefixed("regular p=%d mu=%d: " % (p, mu), verify_ayd(M))
        if p == 2:
            checks += prefixed("sweedler mu=%d: " % mu, sweedler_checks(mu))
        return checks
    return _guarded("regular module p=%d mu=%d" % (p, mu), run)


def ayd_file_checks(path):
    """(module, checks) for a JSON module file; module is None when the
    file does not describe one."""
    from .ayd import ayd_module_from_json, verify_ayd
    data = _read_json(path)
    try:
        M = ayd_module_from_json(data)
    except DimensionGuardError as exc:
        return None, [skip("module file", str(exc))]
    except (ValueError, KeyError, TypeError) as exc:
        return None, [check("module file is well formed", False,
                            witnesses=[{"file": str(path), "error": str(exc)}])]
    checks = [check("module file is well formed", True,
                    details="dimension %d over N=%d" %
                            (M.space.dim, M.space.N))]
    return M, checks + verify_ayd(M)


def vecg_checks(N, c):
    from .classify import classify_braided, classify_stable
    br = classify_braided(N, c)
    stb = classify_stable(N, c)
    packet = stb["packet"]

    if br["omega_trivial"]:
        detection = "omega is trivial, so every braided class is a singleton"
    elif br["omega_injective"]:
        detection = "omega detects everything, so there is one braided class"
    else:
        detection = "omega image has size %d" % len(br["omega_image"])
    checks = [
        check("braided classes", True,
              details="%s; classes: %s" % (detection, br["classes"])),
        check("stable classes", True,
              details="classes: %s" % (stb["classes"],)),
        check("packet of theta values", True,
              details=", ".join(
                  "%s -> %d" % (text, e["multiplicity"])
                  for text, e in zip(packet.texts, packet.entries))),
        check("multiplicities sum to N",
              packet.total() == N,
              details="total %d, N = %d" % (packet.total(), N),
              witnesses=None if packet.total() == N else [packet.to_json()]),
    ]
    braided_sets = [set(cls) for cls in br["classes"]]
    unrefined = [cls for cls in stb["classes"]
                 if not any(set(cls) <= b for b in braided_sets)]
    checks.append(check(
        "stable classes refine braided classes",
        not unrefined,
        witnesses=[{"stable class": list(cls)} for cls in unrefined]))
    if br["omega_injective"]:
        ok = len(stb["classes"]) == len(packet.entries)
        checks.append(check(
            "stable class count equals number of distinct theta values",
            ok,
            details="%d classes, %d values" % (len(stb["classes"]),
                                               len(packet.entries)),
            witnesses=None if ok else [packet.to_json()]))
    return checks


def repg_checks(data):
    from .classify import CayleyGroup, rep_g_decomposition
    try:
        G = CayleyGroup(data)
    except ValueError as exc:
        return [check("cayley table is a group", False,
                      witnesses=[{"error": str(exc)}])]
    classes = rep_g_decomposition(G)
    sizes = tuple(cls["size"] for cls in classes)
    cents = tuple(cls["centralizer_order"] for cls in classes)
    reps = tuple(cls["representative"] for cls in classes)
    singles = [cls["representative"] for cls in classes if cls["singleton"]]
    consistent = (sum(sizes) == G.order and
                  all(s * z == G.order for s, z in zip(sizes, cents)))
    return [
        check("cayley table is a group", True,
              details="order %d, identity at index %d" %
                      (G.order, G.identity)),
        check("conjugacy classes", True,
              details="representatives %s; sizes %s; centralizer orders %s" %
                      (reps, sizes, cents)),
        check("orbit-stabilizer consistency", consistent,
              details="class sizes partition the group and "
                      "size * centralizer = order",
              witnesses=None if consistent else
              [{"sizes": list(sizes), "centralizers": list(cents),
                "order": G.order}]),
        check("singleton classes", True,
              details="%d central element(s): %s" % (len(singles), singles)),
    ]


def dsl_script_checks(text, N, c, mu, hopf=None):
    """One check per assertion, on the Hopf structure hopf(N, c), by default
    anyonic_hopf; a script that does not load fails "script loads", and one
    that trips the size guard is one SKIP."""
    from .dsl import DslError, Environment, check_text
    if hopf is None:
        from .hopf import anyonic_hopf as hopf

    def run():
        try:
            return check_text(text, Environment.build(N, c, mu, hopf))
        except DslError as exc:
            return [check("script loads", False,
                          witnesses=[{"error": str(exc)}])]
    return _guarded("script loads", run)


def dsl_corpus_checks():
    from .hopf import anyonic_hopf
    N, c, mu = 3, 1, 0
    paths = sorted(CORPUS_DIR.glob("*.bdsl"))
    if not paths:
        raise UsageError("no DSL corpus scripts (*.bdsl) in %s" % CORPUS_DIR)
    # one Hopf structure for all scripts; a build past the guard is not kept
    hopf, checks = functools.lru_cache(anyonic_hopf), []
    for path in paths:
        sub = dsl_script_checks(_read_text(path), N, c, mu, hopf)
        if has_skip(sub):
            checks += prefixed("corpus %s: " % path.stem, sub)
        elif path.stem == "negative_control":
            ok = bool(sub) and all(
                s["status"] == FAIL and s["witnesses"] for s in sub)
            checks.append(check(
                "negative control fails with a witness", ok,
                details="%d assertion(s) in %s" % (len(sub), path.name),
                witnesses=None if ok else
                [{"statuses": [s["name"] + ": " + s["status"]
                               for s in sub]}]))
        else:
            bad = [s for s in sub if s["status"] != PASS]
            checks.append(check(
                "corpus %s" % path.stem,
                bool(sub) and not bad,
                details="%d assertion(s)" % len(sub),
                witnesses=[{"check": s["name"],
                            "witnesses": s["witnesses"]}
                           for s in bad]))
    return checks


# ---------------------------------------------------------------------------
# acceptance criteria: one table of steps

def ribbon_family_checks(p):
    from .ayd import verify_ribbon_family
    return _guarded("ribbon family p=%d" % p, lambda: verify_ribbon_family(p))


def centrality_checks(p):
    from .ayd import ribbon_centrality_checks
    return _guarded("centrality p=%d" % p,
                    lambda: ribbon_centrality_checks(p))


def sweedler_case_checks(p):
    """The Sweedler algebra is the p = 2 Taft algebra; mu runs over 0, 1."""
    from .ayd import sweedler_checks
    checks = []
    for mu in range(p):
        checks += prefixed("mu=%d: " % mu, sweedler_checks(mu))
    return checks


def vecg_criterion_checks(N):
    from .classify import classify_braided, classify_stable
    br = classify_braided(N, 1)
    stb = classify_stable(N, 1)
    packet = stb["packet"]
    if N == 2:
        ok = sorted(tuple(cls) for cls in br["classes"]) == [(0,), (1,)]
        checks = [check(
            "N=2: two singleton braided classes", ok,
            details="classes: %s" % (br["classes"],),
            witnesses=None if ok else [{"classes": br["classes"]}])]
    else:
        ok = len(br["classes"]) == 1
        checks = [check(
            "N=%d: a single braided class" % N, ok,
            details="classes: %s" % (br["classes"],),
            witnesses=None if ok else [{"classes": br["classes"]}])]
        expected = (N + 1) // 2
        ok = (len(stb["classes"]) == len(packet.entries) == expected)
        checks.append(check(
            "N=%d: stable classes counted by distinct theta values, "
            "(p+1)/2 of them" % N, ok,
            details="%d stable classes, %d theta values, expected %d" %
                    (len(stb["classes"]), len(packet.entries), expected),
            witnesses=None if ok else [packet.to_json()]))
    ok = packet.total() == N
    checks.append(check(
        "N=%d: multiplicities sum to N" % N, ok,
        details="total %d" % packet.total(),
        witnesses=None if ok else [packet.to_json()]))
    if N == 3:
        mults = tuple(packet.multiplicities)
        ok = mults == (1, 2)
        checks.append(check(
            "N=3: packet multiplicities are (1, 2)", ok,
            details="multiplicities %s" % (mults,),
            witnesses=None if ok else [packet.to_json()]))
    return checks


def s3_class_checks():
    from .classify import CayleyGroup, rep_g_decomposition
    data = _read_json(DATA_DIR / "cayley_s3.json")
    classes = rep_g_decomposition(CayleyGroup(data))
    sizes = tuple(cls["size"] for cls in classes)
    cents = tuple(cls["centralizer_order"] for cls in classes)
    singles = [cls for cls in classes if cls["singleton"]]
    witness = [{"sizes": list(sizes), "centralizers": list(cents)}]
    return [
        check("S_3: class sizes are (1, 3, 2)", sizes == (1, 3, 2),
              details="sizes %s" % (sizes,),
              witnesses=None if sizes == (1, 3, 2) else witness),
        check("S_3: centralizer orders are (6, 2, 3)", cents == (6, 2, 3),
              details="centralizer orders %s" % (cents,),
              witnesses=None if cents == (6, 2, 3) else witness),
        check("S_3: exactly one singleton class", len(singles) == 1,
              details="%d singleton(s)" % len(singles),
              witnesses=None if len(singles) == 1 else witness),
    ]


def _criterion(*steps):
    """run(pf) -> checks for the steps (values, producer, ...).

    Each producer of a step runs at each of its values that pf selects (all
    of them when pf is None), the producers of one value in turn; a step
    whose values are None runs its producers once, with no argument, and
    ignores pf.
    """
    def run(pf=None):
        checks = []
        for values, *producers in steps:
            calls = ([()] if values is None else
                     [(v,) for v in values if pf is None or v == pf])
            for call in calls:
                for produce in producers:
                    checks += produce(*call)
        return checks
    return run


CRITERIA = (
    (1, "hopf-axioms", _criterion(((2, 3, 5, 7), anyonic_hopf_checks),
                                  ((2, 3, 5), taft_hopf_checks))),
    (2, "dual-algebra", _criterion(((2, 3, 5, 7), dual_algebra_checks))),
    (3, "q-factorial-identity",
     _criterion(((3, 5, 7, 11, 13), q_factorial_checks))),
    (4, "uqsl2-identification",
     _criterion(((3, 5), uqsl2_iso_checks, coproduct_power_checks))),
    (5, "ribbon-identity", _criterion(((3, 5), ribbon_family_checks))),
    (6, "centrality-and-center",
     _criterion(((3, 5), centrality_checks, center_checks))),
    (7, "stability-structure", _criterion(((2, 3, 5), stable_dim_checks))),
    (8, "sweedler-case", _criterion(((2,), sweedler_case_checks))),
    (9, "vec-g-decomposition",
     _criterion(((2, 3, 5, 7), vecg_criterion_checks))),
    (10, "rep-g-decomposition", _criterion((None, s3_class_checks))),
    (11, "dsl-corpus", _criterion((None, dsl_corpus_checks))),
)


def suite_checks(pf=None):
    """One aggregated check per acceptance criterion."""
    checks = []
    for number, slug, fn in CRITERIA:
        sub = fn(pf)
        name = "criterion %d: %s" % (number, slug)
        if not sub:
            checks.append(skip(name, "no parameters selected by --p %s" % pf))
            continue
        fails = [s for s in sub if s["status"] == FAIL]
        skips = [s for s in sub if s["status"] not in (PASS, FAIL)]
        if fails:
            checks.append(check(
                name, False,
                details="%d of %d sub-checks failed" % (len(fails), len(sub)),
                witnesses=[{"check": s["name"], "witnesses": s["witnesses"]}
                           for s in fails]))
        elif skips:
            checks.append(skip(
                name, "; ".join(s["details"] for s in skips)))
        else:
            checks.append(check(
                name, True,
                details="%d sub-checks passed" % len(sub)))
    return checks


# ---------------------------------------------------------------------------
# argument parsing: one table of commands, each leaf with its handler
# args -> (params, checks)

def _read_text(path):
    try:
        return pathlib.Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))


def _read_json(path):
    try:
        return json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # too deeply nested
        raise UsageError("%s is not valid JSON: %s" % (path, exc))


def _one(mu):
    return None if mu is None else [mu]


def _verify_ayd(args):
    if args.module is None:  # the regular module
        p = 3 if args.p is None else args.p
        mu = 0 if args.mu is None else args.mu
        return {"p": p, "mu": mu, "module": None}, ayd_checks(p, mu)
    M, checks = ayd_file_checks(args.module)
    return ({"p": None if M is None else M.p,
             "mu": None if M is None else M.mu,
             "module": args.module}, checks)


def _arg(*flags, **kwargs):
    return flags, kwargs


_P = _arg("--p", type=int, default=3)
_MU = _arg("--mu", type=int, default=None,
           help="single parameter value (default: all residues)")
_CHI = _arg("--chi", type=int, default=1,
            help="bicharacter exponent (default 1)")

# every leaf takes these, after -h and before its own arguments
COMMON = (
    _arg("--format", choices=("text", "json"), default="text",
         help="report rendering (default: text)"),
    _arg("--strict", action="store_true",
         help="treat skipped checks as failures"),
)

# (command words, help, arguments, handler); a group has no handler and
# comes before its leaves, and the order is the order of the choices
COMMANDS = (
    (("verify",), "run one verification batch", (), None),
    (("verify", "hopf-axioms"), "bialgebra and antipode axioms",
     (_arg("--p", type=int, default=3, help="order of the grading"), _CHI),
     lambda a: ({"p": a.p, "chi": a.chi},
                anyonic_hopf_checks(a.p, a.chi) + taft_hopf_checks(a.p))),
    (("verify", "dual-algebra"),
     "dual of the anyonic line and its presentation", (_P,),
     lambda a: ({"p": a.p}, dual_algebra_checks(a.p))),
    (("verify", "uqsl2-iso"), "identification with the small quantum group",
     (_P, _MU), lambda a: ({"p": a.p, "mu": a.mu}, uqsl2_iso_checks(
         a.p, _one(a.mu)) + coproduct_power_checks(a.p))),
    (("verify", "ribbon"), "ribbon element identities",
     (_P, _arg("--mu", type=int, default=None,
               help="single parameter value (default: whole family)")),
     lambda a: ({"p": a.p, "mu": a.mu}, ribbon_checks(a.p, a.mu))),
    (("verify", "ayd"), "anti-Yetter-Drinfeld module axioms",
     (_arg("--p", type=int, default=None, help="default 3"),
      _arg("--mu", type=int, default=None, help="default 0"),
      _arg("--module", metavar="FILE", default=None,
           help="JSON module description to verify instead of the "
                "built-in regular module; it fixes p and mu")),
     _verify_ayd),
    (("stable-dim",), "kernel stabilization of the anti-twist operator",
     (_P, _MU),
     lambda a: ({"p": a.p, "mu": a.mu}, stable_dim_checks(a.p, _one(a.mu)))),
    (("decompose",), "decomposition tables", (), None),
    (("decompose", "vec-g"), "braided and stable classes of graded lines",
     (_arg("--n", type=int, required=True, help="order of the grading"), _CHI),
     lambda a: ({"n": a.n, "chi": a.chi}, vecg_checks(a.n, a.chi))),
    (("decompose", "rep-g"), "conjugacy classes from a Cayley table",
     (_arg("--cayley", metavar="FILE", required=True,
           help="JSON file holding the multiplication table"),),
     lambda a: ({"cayley": a.cayley}, repg_checks(_read_json(a.cayley)))),
    (("dsl",), "diagram script tools", (), None),
    (("dsl", "check"), "type-check and evaluate a diagram script",
     (_arg("file", metavar="FILE", help="script to check"),
      _arg("--n", type=int, default=3, help="order of the grading"),
      _arg("--chi", type=int, default=1),
      _arg("--mu", type=int, default=0,
           help="anti-twist parameter (default 0)")),
     lambda a: ({"file": a.file, "n": a.n, "chi": a.chi, "mu": a.mu},
                dsl_script_checks(_read_text(a.file), a.n, a.chi, a.mu))),
    (("suite",), "run the acceptance battery",
     (_arg("--p", type=int, default=None,
           help="restrict every criterion to one parameter value"),),
     lambda a: ({"p": a.p}, suite_checks(a.p))),
)
LEAVES = {path for path, *_, run in COMMANDS if run is not None}


def build_parser(argv=()):
    """The parsers of COMMANDS on the path to the leaf that argv's command
    words name (argv[0], and argv[1] under a group), or all of them when
    they name none.  A pruned level takes its full choices as metavar, so
    usage reads as in the full tree; the full tree keeps the default, as
    argparse names a positional by its metavar in errors."""
    leaf = next((w for w in (tuple(argv[:1]), tuple(argv[:2]))
                 if w in LEAVES), None)
    parser = argparse.ArgumentParser(
        prog="bhl",
        description="exact checks for braided Hopf-algebra structures")
    parsers, actions = {(): parser}, {}
    for path, text, arguments, run in COMMANDS:
        if leaf is not None and leaf[:len(path)] != path:
            continue
        group = path[:-1]
        if group not in actions:
            actions[group] = parsers[group].add_subparsers(
                dest="what" if group else "command", required=True,
                metavar=None if leaf is None else "{%s}" % ",".join(
                    w[-1] for w, *_ in COMMANDS if w[:-1] == group))
        sub = parsers[path] = actions[group].add_parser(path[-1], help=text)
        if run is not None:
            for flags, kwargs in COMMON + arguments:
                sub.add_argument(*flags, **kwargs)
            sub.set_defaults(run=run)
    return parser


def _command(args):
    return " ".join(filter(None, (args.command, getattr(args, "what", None))))


def _validate(args):
    """Reject parameter values the builders cannot take, as usage errors."""
    command = _command(args)
    try:
        dim_guard()
    except ValueError:
        raise UsageError("BHL_DIM_GUARD must be an integer, got %r"
                         % os.environ["BHL_DIM_GUARD"]) from None
    if getattr(args, "module", None) is not None:
        for flag in ("p", "mu"):
            if getattr(args, flag) is not None:
                raise UsageError("%s --module takes p and mu from the file; "
                                 "drop --%s" % (command, flag))
    takes_p = args.command in ("verify", "stable-dim")
    if takes_p and args.p is not None and not is_prime(args.p):
        raise UsageError("%s needs a prime --p, got %d" % (command, args.p))
    n = getattr(args, "n", None)
    if n is not None and n < 1:
        raise UsageError("%s needs --n >= 1, got %d" % (command, n))


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):
        # scalars are exact: an int of any length reads and prints in full
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    started = time.monotonic()
    try:
        _validate(args)
        params, checks = args.run(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    elapsed_ms = (time.monotonic() - started) * 1000.0
    report = make_report(_command(args), params, checks, elapsed_ms)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    if has_fail(checks):
        return 1
    if args.strict and has_skip(checks):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
