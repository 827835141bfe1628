"""End-to-end tests for the command-line interface.

These drive ``bhl.cli.main`` exactly as the console script would, checking
exit codes, both output formats, schema conformance of the JSON reports,
and the skip/strict behavior around the dimension guard.
"""

import argparse
import contextlib
import io
import json
import math
import pathlib
import re
import sys
import time
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhl import cli
from bhl.cli import PACKAGE_DIR, dsl_corpus_checks, main
from bhl.scalars import parse_scalar

SCHEMA = json.loads(
    (PACKAGE_DIR / "schemas" / "report.schema.json").read_text())
CORPUS = PACKAGE_DIR / "corpus"
S3_TABLE = PACKAGE_DIR / "data" / "cayley_s3.json"
SAMPLE_MODULE = PACKAGE_DIR / "data" / "sample_module_p3_mu1.json"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_ribbon_single_mu_json(capsys):
    code, report = run_json(["verify", "ribbon", "--p", "3", "--mu", "1"],
                            capsys)
    assert code == 0
    assert report["command"] == "verify ribbon"
    assert report["params"] == {"p": 3, "mu": 1}
    names = {c["name"]: c["status"] for c in report["checks"]}
    assert names["varsigma_equals_scaled_ribbon"] == "PASS"
    assert names["prefactor_scalar_route"] == "PASS"


def test_ribbon_family_includes_center(capsys):
    code, report = run_json(["verify", "ribbon", "--p", "3"], capsys)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert any("center dimension" in n for n in names)
    assert any("prefactor_depends_only_on_mu_squared" in n for n in names)


def test_hopf_axioms_both_families(capsys):
    code, report = run_json(["verify", "hopf-axioms", "--p", "3"], capsys)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert any(n.startswith("anyonic p=3:") for n in names)
    assert any(n.startswith("taft p=3:") for n in names)
    assert any("S^2(x)" in n for n in names)
    assert all(c["status"] == "PASS" for c in report["checks"])


def test_hopf_axioms_p2(capsys):
    code, report = run_json(["verify", "hopf-axioms", "--p", "2"], capsys)
    assert code == 0
    assert all(c["status"] == "PASS" for c in report["checks"])


def binomial_witness(p):
    """The witness of coproduct_is_multiplicative on the unbraided anyonic
    line: at x , x^(p-1), Delta(x) Delta(x^(p-1)) - Delta(x^p) is the sum of
    binom(p, i) x^i (x) x^(p-i) over 0 < i < p, and the row sweep lists
    Delta(x^p) - Delta(x) Delta(x^(p-1))."""
    return {"input": "x , x^%d" % (p - 1),
            "difference": [[i * p + p - i, str(-math.comb(p, i))]
                           for i in range(1, p)]}


def test_unbraided_anyonic_line_fails_one_law_with_the_golden_witness(
        capsys):
    golden = json.loads((GOLDEN / "hopf_axioms_p5_chi0.json").read_text())
    assert [c["witnesses"] for c in golden["checks"]
            if c["status"] == "FAIL"] == [[binomial_witness(5)]]
    code, report = run_json(["verify", "hopf-axioms", "--p", "11",
                             "--chi", "0"], capsys)
    assert code == 1
    failed = [c for c in report["checks"] if c["status"] == "FAIL"]
    assert failed == [{"name": "anyonic p=11: coproduct_is_multiplicative",
                       "status": "FAIL", "details": "maps differ",
                       "witnesses": [binomial_witness(11)]}]


@pytest.mark.slow
@pytest.mark.parametrize("p, guard", [(11, "2000"), (13, "2000"), (17, None),
                                      (23, "600")])
def test_hopf_axioms_scale_probe(monkeypatch, capsys, p, guard):
    # Taft p = 11, 13 and 23 (dimensions 121, 169 and 529) only pass a
    # raised guard; p = 17 (dimension 289) is the largest the default guard
    # admits
    if guard is None:
        monkeypatch.delenv("BHL_DIM_GUARD", raising=False)
    else:
        monkeypatch.setenv("BHL_DIM_GUARD", guard)
    code, report = run_json(["verify", "hopf-axioms", "--p", str(p)], capsys)
    assert code == 0
    statuses = [c["status"] for c in report["checks"]]
    assert statuses == ["PASS"] * 25


def test_dual_algebra(capsys):
    code, report = run_json(["verify", "dual-algebra", "--p", "5"], capsys)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert any("z^i maps to" in n for n in names)
    assert all(c["status"] == "PASS" for c in report["checks"])


def test_uqsl2_iso_single_mu(capsys):
    code, report = run_json(["verify", "uqsl2-iso", "--p", "3", "--mu", "2"],
                            capsys)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert any(n.startswith("p=3 mu=2:") for n in names)
    assert not any("mu=0" in n for n in names if "coproduct" not in n)


def test_uqsl2_iso_past_the_guard_skips_only_the_identification(
        monkeypatch, capsys):
    monkeypatch.delenv("BHL_DIM_GUARD", raising=False)
    code, report = run_json(["verify", "uqsl2-iso", "--p", "11", "--mu", "1"],
                            capsys)
    assert code == 0
    skipped = [c for c in report["checks"] if c["status"] == "SKIP"]
    assert [c["name"] for c in skipped] == ["uqsl2 identification p=11"]
    powers = [c for c in report["checks"] if "coproduct_power" in c["name"]]
    assert len(powers) == 11
    assert all(c["status"] == "PASS" for c in powers)
    monkeypatch.setenv("BHL_DIM_GUARD", "2000")
    _, report = run_json(["verify", "uqsl2-iso", "--p", "11", "--mu", "1"],
                         capsys)
    assert [c["status"] for c in report["checks"]] == ["PASS"] * 18


def test_ayd_regular_module(capsys):
    code, report = run_json(["verify", "ayd", "--p", "3", "--mu", "1"],
                            capsys)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert any("x_power_vanishes" in n for n in names)
    assert any("xz_commutation" in n for n in names)


def test_ayd_p2_adds_closed_forms(capsys):
    code, report = run_json(["verify", "ayd", "--p", "2", "--mu", "0"],
                            capsys)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert any(n.startswith("sweedler mu=0:") for n in names)


def test_ayd_module_from_file(capsys):
    code, report = run_json(
        ["verify", "ayd", "--module", str(SAMPLE_MODULE)], capsys)
    assert code == 0
    assert report["params"]["module"] == str(SAMPLE_MODULE)
    assert all(c["status"] == "PASS" for c in report["checks"])


def test_ayd_module_params_come_from_the_file(capsys):
    _, report = run_json(
        ["verify", "ayd", "--module", str(SAMPLE_MODULE)], capsys)
    assert report["params"] == {"p": 3, "mu": 1, "module": str(SAMPLE_MODULE)}
    _, report = run_json(["verify", "ayd"], capsys)
    assert report["params"] == {"p": 3, "mu": 0, "module": None}


def test_ayd_malformed_module_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unexpected": 1}))
    code, report = run_json(["verify", "ayd", "--module", str(bad)], capsys)
    assert code == 1
    first = report["checks"][0]
    assert first["status"] == "FAIL"
    assert first["witnesses"]


def test_stable_dim_all_mu(capsys):
    code, report = run_json(["stable-dim", "--p", "3"], capsys)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert any("mu=0: kernel chain stabilizes at power 1" in n
               for n in names)
    assert any("mu=1: kernel chain stabilizes at power 2" in n
               for n in names)


def test_stable_dim_single_mu(capsys):
    code, report = run_json(["stable-dim", "--p", "2", "--mu", "1"], capsys)
    assert code == 0
    assert report["params"]["mu"] == 1
    details = " ".join(c["details"] for c in report["checks"])
    assert "chain [6, 8]" in details


@pytest.mark.slow
@pytest.mark.parametrize("p, guard", [(7, None), (11, "2000")])
def test_ribbon_scale_probe(monkeypatch, capsys, p, guard):
    # the ribbon identity in d_a_mu(p, mu) for each mu, whose regular
    # module has dimension p^3 (1331 at p = 11, past the default guard),
    # and the centrality checks in uqsl2(p)
    if guard is None:
        monkeypatch.delenv("BHL_DIM_GUARD", raising=False)
    else:
        monkeypatch.setenv("BHL_DIM_GUARD", guard)
    code, report = run_json(["verify", "ribbon", "--p", str(p)], capsys)
    assert code == 0
    statuses = [c["status"] for c in report["checks"]]
    assert statuses == ["PASS"] * (2 * p + 6)


@pytest.mark.slow
def test_stable_dim_p13_scale_probe(monkeypatch, capsys):
    # dimension 2197 per mu, past the default guard
    monkeypatch.setenv("BHL_DIM_GUARD", "3000")
    code, report = run_json(["stable-dim", "--p", "13"], capsys)
    assert code == 0
    statuses = [c["status"] for c in report["checks"]]
    assert statuses == ["PASS"] * 26


@pytest.mark.slow
def test_stable_dim_p17_scale_probe(monkeypatch, capsys):
    # dimension 4913 per mu, read off the strings of varsigma
    monkeypatch.setenv("BHL_DIM_GUARD", "5000")
    code, report = run_json(["stable-dim", "--p", "17"], capsys)
    assert code == 0
    statuses = [c["status"] for c in report["checks"]]
    assert statuses == ["PASS"] * 34


def test_dimension_guard_skips(monkeypatch, capsys):
    monkeypatch.setenv("BHL_DIM_GUARD", "10")
    code, report = run_json(["stable-dim", "--p", "3"], capsys)
    assert code == 0
    assert all(c["status"] == "SKIP" for c in report["checks"])
    assert all(c["details"] for c in report["checks"])


def test_stable_dim_family_past_the_guard_is_one_skip(capsys):
    # the guard is checked once for the family, not once per mu
    code, report = run_json(["stable-dim", "--p", "353"], capsys)
    assert code == 0
    (only,) = report["checks"]
    assert (only["name"], only["status"]) == ("p=353: stable analysis",
                                              "SKIP")
    assert "dimension 43986977 exceeds the guard 350" in only["details"]


def test_dimension_guard_strict_fails(monkeypatch, capsys):
    monkeypatch.setenv("BHL_DIM_GUARD", "10")
    code, _, _ = run_cli(["stable-dim", "--p", "3", "--strict"], capsys)
    assert code == 1


def test_decompose_vecg_n3(capsys):
    code, out, _ = run_cli(["decompose", "vec-g", "--n", "3"], capsys)
    assert code == 0
    assert "1 -> 1" in out
    assert "q(3,1) -> 2" in out
    assert "PASS stable classes" in out


def test_decompose_vecg_n2_singletons(capsys):
    code, report = run_json(["decompose", "vec-g", "--n", "2"], capsys)
    assert code == 0
    braided = next(c for c in report["checks"]
                   if c["name"] == "braided classes")
    assert "singleton" in braided["details"]


def test_decompose_vecg_n601_is_quick(capsys):
    # the bound holds for one pass over the N^2 arrows; an O(N^3) scan of
    # every y for each pair (s, t) takes about 30 s
    start = time.perf_counter()
    code, report = run_json(["decompose", "vec-g", "--n", "601"], capsys)
    assert time.perf_counter() - start < 5
    assert code == 0
    assert all(c["status"] == "PASS" for c in report["checks"])


def test_decompose_vecg_keeps_theta_values_as_exponents():
    # N = 20011 has 10006 theta values; as roots of unity of phi(N) = 20010
    # coordinates each they would take about 1.6 GB, as exponents the
    # whole run peaks near 20 MB
    tracemalloc.start()
    try:
        code, out, _ = _outcome(["decompose", "vec-g", "--n", "20011"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert all(c["status"] == "PASS" for c in checks.values())
    details = checks["packet of theta values"]["details"].split(", ")
    assert len(details) == 10006
    assert details[:3] == ["1 -> 1", "q(20011,1) -> 2", "q(20011,4) -> 2"]


def test_decompose_repg_s3(capsys):
    code, out, _ = run_cli(["decompose", "rep-g", "--cayley", str(S3_TABLE)],
                           capsys)
    assert code == 0
    assert "sizes (1, 3, 2)" in out
    assert "centralizer orders (6, 2, 3)" in out


def test_decompose_repg_rejects_non_group(tmp_path, capsys):
    bad = tmp_path / "notgroup.json"
    bad.write_text("[[0, 0], [0, 0]]")
    code, report = run_json(["decompose", "rep-g", "--cayley", str(bad)],
                            capsys)
    assert code == 1
    first = report["checks"][0]
    assert first["status"] == "FAIL"
    assert "identity" in first["witnesses"][0]["error"]


def test_dsl_check_corpus_passes(capsys):
    code, report = run_json(
        ["dsl", "check", str(CORPUS / "hopf_anyonic.bdsl"), "--n", "3"],
        capsys)
    assert code == 0
    assert all(c["status"] == "PASS" for c in report["checks"])


def test_dsl_check_negative_control_fails_with_witness(capsys):
    code, report = run_json(
        ["dsl", "check", str(CORPUS / "negative_control.bdsl"), "--n", "3"],
        capsys)
    assert code == 1
    for c in report["checks"]:
        assert c["status"] == "FAIL"
        assert c["witnesses"]


def test_dsl_check_syntax_error_reports_location(tmp_path, capsys):
    script = tmp_path / "broken.bdsl"
    script.write_text("let V = obj[deg 0: 1]\nassert id[V ==\n")
    code, report = run_json(["dsl", "check", str(script)], capsys)
    assert code == 1
    first = report["checks"][0]
    assert first["name"] == "script loads"
    assert "line" in first["witnesses"][0]["error"]


def test_suite_p3(capsys):
    code, report = run_json(["suite", "--p", "3"], capsys)
    assert code == 0
    by_name = {c["name"]: c["status"] for c in report["checks"]}
    assert len(by_name) == 11
    assert by_name["criterion 8: sweedler-case"] == "SKIP"
    passing = [n for n, s in by_name.items() if s == "PASS"]
    assert len(passing) == 10


def test_suite_p2(capsys):
    code, report = run_json(["suite", "--p", "2"], capsys)
    assert code == 0
    by_name = {c["name"]: c["status"] for c in report["checks"]}
    assert by_name["criterion 8: sweedler-case"] == "PASS"
    assert by_name["criterion 1: hopf-axioms"] == "PASS"


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(["verify", "ribbon", "--p", "2"], capsys)
    assert code == 2
    assert "odd prime" in err

    code, _, err = run_cli(
        ["decompose", "rep-g", "--cayley", "/no/such/file.json"], capsys)
    assert code == 2
    assert "cannot read" in err

    code, _, err = run_cli(["dsl", "check", "/no/such/script.bdsl"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "hopf-axioms", "--p", "4"], "needs a prime --p, got 4"),
    (["verify", "hopf-axioms", "--p", "1"], "needs a prime --p, got 1"),
    (["decompose", "vec-g", "--n", "0"], "needs --n >= 1, got 0"),
    (["verify", "ayd", "--module", str(SAMPLE_MODULE), "--p", "5", "--mu",
      "4"], "--module takes p and mu from the file; drop --p"),
    (["verify", "ayd", "--module", str(SAMPLE_MODULE), "--mu", "1"],
     "--module takes p and mu from the file; drop --mu"),
])
def test_bad_parameters_exit_2_with_one_line(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "", "1e3"])
def test_a_guard_that_is_not_an_integer_is_a_usage_error(value, monkeypatch,
                                                         capsys):
    monkeypatch.setenv("BHL_DIM_GUARD", value)
    code, out, err = run_cli(["stable-dim", "--p", "3"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: BHL_DIM_GUARD must be an integer, got %r\n" % value


def test_hopf_guard_skips_taft_only(monkeypatch, capsys):
    monkeypatch.setenv("BHL_DIM_GUARD", "20")
    code, report = run_json(["verify", "hopf-axioms", "--p", "5"], capsys)
    assert code == 0
    taft = [c for c in report["checks"] if c["name"].startswith("taft")]
    anyonic = [c for c in report["checks"] if c["name"].startswith("anyonic")]
    assert [c["status"] for c in taft] == ["SKIP"]
    assert "guard 20" in taft[0]["details"]
    assert anyonic and all(c["status"] == "PASS" for c in anyonic)


@pytest.mark.parametrize("argv", [
    ["verify", "ribbon", "--p", "3"],
    ["verify", "ribbon", "--p", "3", "--mu", "1"],
    ["verify", "ayd", "--p", "3"],
])
def test_regular_module_guard_skips(argv, monkeypatch, capsys):
    monkeypatch.setenv("BHL_DIM_GUARD", "20")
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and "Traceback" not in err
    report = json.loads(out)
    assert [c["status"] for c in report["checks"]] == ["SKIP"]
    assert "dimension 27 exceeds the guard 20" in report["checks"][0]["details"]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def parse_outcome(parser, argv):
    """(stdout, stderr, exit code) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("argv", [
    list(path) + ["--help"] for path in [()] + [p for p, *_ in cli.COMMANDS]
] + [
    ["bogus"],
    ["verify", "bogus"],
    ["suite", "--p", "3", "--seed", "7"],
    ["verify", "hopf-axioms", "--p", "x"],
    ["decompose", "vec-g"],
    ["dsl", "check"],
], ids=" ".join)
def test_the_pruned_walk_prints_as_the_full_tree(argv):
    # help on stdout with exit 0, or a usage error on stderr with exit 2
    pruned = parse_outcome(cli.build_parser(argv), argv)
    assert pruned == parse_outcome(cli.build_parser(), argv)
    out, err, code = pruned
    assert (out if code == 0 else err).startswith("usage: bhl")
    assert code in (0, 2) and not (out and err)


def test_a_leaf_call_builds_only_its_branch(monkeypatch, capsys):
    # the top-level parser, the decompose group and its vec-g leaf; the
    # full tree has 14
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["decompose", "vec-g", "--n", "5", "--format", "json"]) == 0
    assert built == ["bhl", "bhl decompose", "bhl decompose vec-g"]
    built.clear()
    cli.build_parser()
    assert len(built) == 14


def test_json_reports_are_deterministic(capsys):
    def snapshot():
        _, report = run_json(["decompose", "vec-g", "--n", "5"], capsys)
        report.pop("elapsed_ms")
        return json.dumps(report, sort_keys=True)

    assert snapshot() == snapshot()


def test_text_report_summarizes_counts(capsys):
    code, out, _ = run_cli(["verify", "dual-algebra", "--p", "3"], capsys)
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert "PASS" in last and "FAIL" in last and "SKIP" in last


def test_seed_option_removed(capsys):
    # Nothing in bhl is random, so there is no --seed to record.
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--p", "3", "--seed", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 7" in err
    # the suite branch alone is built, and the usage line names every command
    assert err.startswith(
        "usage: bhl [-h] {verify,stable-dim,decompose,dsl,suite} ...\n")


def test_repg_table_of_the_wrong_shape_fails_with_a_witness(tmp_path,
                                                            capsys):
    for text in ('{"0": [0]}', '[["0", "1"], ["1", "0"]]', "[0, 1, 1, 0]"):
        table = tmp_path / "table.json"
        table.write_text(text)
        code, report = run_json(["decompose", "rep-g", "--cayley",
                                 str(table)], capsys)
        assert code == 1
        first = report["checks"][0]
        assert first["name"] == "cayley table is a group"
        assert first["status"] == "FAIL"
        assert "n x n index table" in first["witnesses"][0]["error"]


@pytest.mark.parametrize("argv", [
    ["dsl", "check"],
    ["decompose", "rep-g", "--cayley"],
])
def test_non_utf8_input_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "latin1"
    path.write_bytes(b"[[0]] # caf\xe9\n")
    code, out, err = run_cli(argv + [str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "cannot read" in err


def test_too_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(["decompose", "rep-g", "--cayley", str(path)],
                             capsys)
    assert code == 2
    assert err.count("\n") == 1 and "is not valid JSON" in err


def test_dsl_superscript_digit_fails_script_loads(tmp_path, capsys):
    # str.isdigit accepts the superscript 2, int() does not
    script = tmp_path / "square.bdsl"
    script.write_text("let V = obj { deg \u00b2: 1 }\nassert id[V] == id[V]\n")
    code, out, err = run_cli(["dsl", "check", str(script), "--format",
                              "json"], capsys)
    assert code == 1 and err == ""
    (only,) = json.loads(out)["checks"]
    assert (only["name"], only["status"]) == ("script loads", "FAIL")
    assert only["witnesses"] == [
        {"error": "unexpected character '\u00b2' (line 1, column 19)"}]


def test_dsl_division_by_zero_fails_script_loads(tmp_path, capsys):
    script = tmp_path / "zero.bdsl"
    script.write_text("let V = obj { deg 0: 1 }\n"
                      "let f = gen (V -> V) { [1/0] }\n"
                      "assert f == f\n")
    code, report = run_json(["dsl", "check", str(script)], capsys)
    assert code == 1
    (first,) = report["checks"]
    assert first["name"] == "script loads"
    assert "division by zero (line 2, column 25)" in \
        first["witnesses"][0]["error"]


def test_dsl_entry_outside_the_field_fails_script_loads(tmp_path, capsys):
    # the README's script example has the entry q(3,1), which is not in
    # Q(zeta_5): a syntax error at its token
    script = tmp_path / "readme.bdsl"
    script.write_text("let V = obj { deg 0: 1, deg 1: 1 }\n"
                      "let f = gen (V -> V) { [2, 0; 0, q(3,1)] }\n"
                      "assert (f * id[V]) ; braid[V,V] == braid[V,V] ; "
                      "(id[V] * f)\n")
    code, report = run_json(["dsl", "check", str(script), "--n", "5"],
                            capsys)
    assert code == 1
    (first,) = report["checks"]
    assert first["name"] == "script loads"
    assert first["witnesses"][0]["error"] == \
        "q(3,1) is not in Q(zeta_5) (line 2, column 34)"


@pytest.mark.parametrize("expr", [
    "(" * 3000 + "id[V]" + ")" * 3000,
    " ; ".join(["id[V]"] * 3000),
], ids=["parentheses", "composite"])
def test_a_too_deeply_nested_expression_fails_script_loads(expr, tmp_path,
                                                           capsys):
    script = tmp_path / "deep.bdsl"
    script.write_text("let V = obj { deg 0: 1 }\nassert %s == id[V]\n" % expr)
    code, out, err = run_cli(["dsl", "check", str(script), "--format",
                              "json"], capsys)
    assert code == 1 and "Traceback" not in err
    (only,) = json.loads(out)["checks"]
    assert (only["name"], only["status"]) == ("script loads", "FAIL")
    assert only["witnesses"] == [{"error": "expression nested too deeply"}]


@pytest.mark.parametrize("text, tripped", [
    ("let V = obj { deg 0: 14, deg 1: 14 }\n"
     "assert braid[V * V, V] ; braid_inv[V * V, V] == id[V * V * V]\n",
     "object V*V at dimension 784 exceeds the guard 350"),
    ("let V = obj { deg 0: 400 }\nassert id[V] == id[V]\n",
     "object V at dimension 400 exceeds the guard 350"),
])
def test_dsl_object_past_the_guard_is_one_skip(text, tripped, tmp_path,
                                               monkeypatch, capsys):
    script = tmp_path / "big.bdsl"
    script.write_text(text)
    code, report = run_json(["dsl", "check", str(script)], capsys)
    assert code == 0
    (only,) = report["checks"]
    assert (only["name"], only["status"]) == ("script loads", "SKIP")
    assert tripped in only["details"]
    monkeypatch.setenv("BHL_DIM_GUARD", "30000")
    code, report = run_json(["dsl", "check", str(script)], capsys)
    assert code == 0
    assert [c["status"] for c in report["checks"]] == ["PASS"]


def test_dsl_preloaded_hopf_past_the_guard_is_one_skip(monkeypatch, capsys):
    monkeypatch.setenv("BHL_DIM_GUARD", "10")
    argv = ["dsl", "check", str(CORPUS / "zigzag.bdsl"), "--n", "11"]
    code, report = run_json(argv, capsys)
    assert code == 0
    (only,) = report["checks"]
    assert (only["name"], only["status"]) == ("script loads", "SKIP")
    assert "Hopf structure at dimension 11 exceeds the guard 10" in \
        only["details"]
    code, _, err = run_cli(argv + ["--strict"], capsys)
    assert code == 1 and err == ""


def test_dsl_corpus_past_the_guard_skips(monkeypatch):
    monkeypatch.setenv("BHL_DIM_GUARD", "2")
    checks = dsl_corpus_checks()
    assert len(checks) == len(list(CORPUS.glob("*.bdsl")))
    assert all(c["status"] == "SKIP" for c in checks)


@pytest.mark.parametrize("missing, message", [
    ("DATA_DIR", "error: cannot read %s: "),
    ("CORPUS_DIR", "error: no DSL corpus scripts (*.bdsl) in %s"),
])
def test_missing_package_data_is_a_usage_error(monkeypatch, tmp_path, capsys,
                                               missing, message):
    # a broken install: the package data directory is there but empty
    monkeypatch.setattr(cli, missing, tmp_path)
    code, out, err = run_cli(["suite", "--p", "2"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    path = tmp_path / "cayley_s3.json" if missing == "DATA_DIR" else tmp_path
    assert err.startswith(message % path)


def _module_file(path, where, value):
    """The sample module with the field or entry at `where` set to value."""
    data = json.loads(SAMPLE_MODULE.read_text())
    target = data
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("where, value, error", [
    (("x", 2, 1), "q(5,1)", "entry 'q(5,1)' is not in Q(zeta_3)"),
    (("x", 1, 0), 1.5, "entry 1.5 is neither an integer nor"),
    (("x", 1, 0), True, "entry True is neither an integer nor"),
    (("x", 1, 0), None, "entry None is neither an integer nor"),
    (("x", 1, 0), "(" * 1000 + "1" + ")" * 1000,
     "parentheses nested too deeply"),
    (("p",), 0, "p must be prime, got 0"),
    (("p",), 9, "p must be prime, got 9"),
    (("p",), 3.0, "'p' must be an integer, got 3.0"),
    (("mu",), False, "'mu' must be an integer, got False"),
    (("degrees", 0), 0.5, "'degrees' must be a list of integers"),
    (("z", 0), "000", "'z' matrix is not 3x3"),
    # '#' starts a comment only in a diagram script
    (("x", 1, 0), "1 # c", "unexpected character '#' (line 1, column 3)"),
])
def test_ayd_module_file_with_a_bad_value_is_not_well_formed(
        where, value, error, tmp_path, capsys):
    path = _module_file(tmp_path / "module.json", where, value)
    code, report = run_json(["verify", "ayd", "--module", str(path)], capsys)
    assert code == 1
    (first,) = report["checks"]
    assert (first["name"], first["status"]) == ("module file is well formed",
                                                "FAIL")
    assert error in first["witnesses"][0]["error"]


def test_root_of_a_large_order_is_rejected_without_its_table(tmp_path):
    # q(1009,1) and q(1013,1) lie outside Q(zeta_3).  Naming one must not
    # build the table of powers of its order (about 30 MB at 1009).
    script = tmp_path / "large.bdsl"
    script.write_text("let V = obj { deg 0: 1 }\n"
                      "let f = gen (V -> V) { [q(1009,1)] }\n"
                      "assert f == f\n")
    module = _module_file(tmp_path / "module.json", ("x", 2, 1), "q(1013,1)")
    for argv, name, error in (
            (["dsl", "check", str(script)], "script loads",
             "q(1009,1) is not in Q(zeta_3) (line 2, column 25)"),
            (["verify", "ayd", "--module", str(module)],
             "module file is well formed",
             "entry 'q(1013,1)' is not in Q(zeta_3)")):
        tracemalloc.start()
        try:
            code, out, _ = _outcome(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert code == 1
        (first,) = json.loads(out)["checks"]
        assert (first["name"], first["status"]) == (name, "FAIL")
        assert error in first["witnesses"][0]["error"]


def test_inverse_root_of_a_large_order_is_rejected_without_its_table(
        tmp_path):
    # inverting q(n,1) reads one row, not the table of powers of order n
    # (about 16 MB at n = 1019); no other test builds these two tables.
    # A script or module file rejects q(n,1) before it builds it, so the
    # inverse is taken by parse_scalar, which has no ambient order.
    script = tmp_path / "large.bdsl"
    script.write_text("let V = obj { deg 0: 1 }\n"
                      "let f = gen (V -> V) { [q(1019,1)^-1] }\n"
                      "assert f == f\n")
    module = _module_file(tmp_path / "module.json", ("x", 2, 1),
                          "q(1021,1)^-1")
    for argv, name, error in (
            (["dsl", "check", str(script)], "script loads",
             "q(1019,1) is not in Q(zeta_3) (line 2, column 25)"),
            (["verify", "ayd", "--module", str(module)],
             "module file is well formed",
             "entry 'q(1021,1)^-1' is not in Q(zeta_3)")):
        tracemalloc.start()
        try:
            code, out, _ = _outcome(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert code == 1
        (first,) = json.loads(out)["checks"]
        assert (first["name"], first["status"]) == (name, "FAIL")
        assert error in first["witnesses"][0]["error"]
    tracemalloc.start()
    try:
        value = parse_scalar("q(1019,1)^-1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert value == parse_scalar("q(1019,1018)")


def test_product_of_roots_of_a_large_order_is_rejected_without_its_table(
        tmp_path):
    # q(n,1000)^2 is reduced as one coordinate list of length 2 phi(n) - 1,
    # not through a table of powers of order n (about 16 MB at n = 1031);
    # as above, parse_scalar takes the product, and a script or module file
    # rejects q(n,1000) before it builds it
    script = tmp_path / "large.bdsl"
    script.write_text("let V = obj { deg 0: 1 }\n"
                      "let f = gen (V -> V) { [q(1031,1000)*q(1031,1000)] }\n"
                      "assert f == f\n")
    module = _module_file(tmp_path / "module.json", ("x", 2, 1),
                          "q(1033,1000)*q(1033,1000)")
    for argv, name, error in (
            (["dsl", "check", str(script)], "script loads",
             "q(1031,1000) is not in Q(zeta_3) (line 2, column 25)"),
            (["verify", "ayd", "--module", str(module)],
             "module file is well formed",
             "entry 'q(1033,1000)*q(1033,1000)' is not in Q(zeta_3)")):
        tracemalloc.start()
        try:
            code, out, _ = _outcome(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert code == 1
        (first,) = json.loads(out)["checks"]
        assert (first["name"], first["status"]) == (name, "FAIL")
        assert error in first["witnesses"][0]["error"]
    tracemalloc.start()
    try:
        value = parse_scalar("q(1031,1000)*q(1031,1000)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert value == parse_scalar("q(1031,969)")


@pytest.mark.parametrize("argv, fields, name, tripped", [
    (["verify", "dual-algebra", "--p", "1000003"], None,
     "dual algebra p=1000003",
     "associativity sweep at dimension 1000003 exceeds the guard 350"),
    (["verify", "ayd", "--module"],
     {"p": 1000003, "degrees": [0], "x": [[0]], "z": [[0]]}, "module file",
     "Z/1000003 grading of a module file at dimension 1000003 exceeds the "
     "guard 350"),
    (["verify", "ayd", "--module"], {"degrees": [0] * 400}, "module file",
     "module file at dimension 400 exceeds the guard 350"),
], ids=["dual algebra", "module file p", "module file dimension"])
def test_past_the_guard_skips_before_anything_is_built(argv, fields, name,
                                                       tripped, tmp_path):
    # building dual_anyonic(1000003), or reading a module over
    # Q(zeta_1000003), takes hundreds of MB
    if fields is not None:  # the sample module with these fields replaced
        data = json.loads(SAMPLE_MODULE.read_text())
        data.update(fields)
        module = tmp_path / "module.json"
        module.write_text(json.dumps(data))
        argv = argv + [str(module)]
    tracemalloc.start()
    try:
        code, out, _ = _outcome(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert code == 0
    (only,) = json.loads(out)["checks"]
    assert (only["name"], only["status"]) == (name, "SKIP")
    assert tripped in only["details"]
    assert _outcome(argv + ["--strict"])[0] == 1


@pytest.mark.parametrize("kind, name, error", [
    ("script", "script loads",
     "q(1000003,1) is not in Q(zeta_3) (line 2, column 29)"),
    ("module", "module file is well formed",
     "entry '1 + q(1000003,1)' is not in Q(zeta_3) (line 1, column 5)"),
], ids=["script", "module"])
def test_a_root_outside_the_field_fails_before_anything_is_built(
        kind, name, error, tmp_path):
    # building zeta_1000003 takes seconds and about 100 MB; a script at
    # --n 3 or a module file with p = 3 rejects q(1000003,1) at its token
    if kind == "script":
        path = tmp_path / "large.bdsl"
        path.write_text("let V = obj { deg 0: 1 }\n"
                        "let f = gen (V -> V) { [1 + q(1000003,1)] }\n"
                        "assert f == f\n")
        argv = ["dsl", "check", str(path), "--n", "3"]
    else:
        path = _module_file(tmp_path / "module.json", ("x", 2, 1),
                            "1 + q(1000003,1)")
        argv = ["verify", "ayd", "--module", str(path)]
    tracemalloc.start()
    try:
        code, out, err = _outcome(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert code == 1 and "Traceback" not in err
    (only,) = json.loads(out)["checks"]
    assert (only["name"], only["status"]) == (name, "FAIL")
    assert only["witnesses"][0]["error"] == error


@pytest.mark.parametrize("kind", ["script", "module"])
@pytest.mark.parametrize("value", ["q(1000003,0)", "-q(1000006,500003)"])
def test_a_foreign_root_equal_to_one_reads_without_its_table(
        kind, value, tmp_path):
    # zeta_N^k = +-1 lies in Q(zeta_3), so a script at --n 3 or a module
    # file with p = 3 accepts it; building zeta_N would take seconds and
    # about 100 MB.  Both values are 1, which the checks confirm
    if kind == "script":
        path = tmp_path / "large.bdsl"
        path.write_text("let V = obj { deg 0: 1 }\n"
                        "let f = gen (V -> V) { [%s] }\n"
                        "assert f == id[V]\n" % value)
        argv = ["dsl", "check", str(path), "--n", "3"]
    else:  # the sample module's entry 1
        path = _module_file(tmp_path / "module.json", ("x", 1, 0), value)
        argv = ["verify", "ayd", "--module", str(path)]
    tracemalloc.start()
    try:
        code, out, err = _outcome(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert code == 0 and err == ""
    checks = json.loads(out)["checks"]
    assert checks and all(c["status"] == "PASS" for c in checks)


def test_high_power_of_a_composite_order_is_rejected_quickly(tmp_path):
    # zeta_16000^15999 lies 9600 powers past phi(16000) = 6400; Phi_16000
    # has five terms, so its reduction and Phi itself take milliseconds
    script = tmp_path / "large.bdsl"
    script.write_text("let V = obj { deg 0: 1 }\n"
                      "let f = gen (V -> V) { [q(16000,15999)] }\n"
                      "assert f == f\n")
    start = time.perf_counter()
    code, out, _ = _outcome(["dsl", "check", str(script), "--n", "5"])
    assert time.perf_counter() - start < 0.5
    assert code == 1
    (first,) = json.loads(out)["checks"]
    assert (first["name"], first["status"]) == ("script loads", "FAIL")
    assert "is not in Q(zeta_5)" in first["witnesses"][0]["error"]


def test_dsl_hopf_guard_at_n_353_is_reached_quickly(monkeypatch, capsys):
    # the environment's anti-twist law, N^2 pairs, is checked by exponent
    # arithmetic mod N before the preloaded Hopf structure trips the guard
    monkeypatch.delenv("BHL_DIM_GUARD", raising=False)
    start = time.perf_counter()
    code, report = run_json(
        ["dsl", "check", str(CORPUS / "zigzag.bdsl"), "--n", "353"], capsys)
    assert time.perf_counter() - start < 5
    assert code == 0
    (only,) = report["checks"]
    assert (only["name"], only["status"]) == ("script loads", "SKIP")
    assert "Hopf structure at dimension 353 exceeds the guard 350" in \
        only["details"]


def _outcome(argv):
    """(exit code, stdout, stderr) of main, without capsys, so that it can
    run once per hypothesis example."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "json"])
    return code, out.getvalue(), err.getvalue()


def _assert_report_or_usage_error(argv):
    code, out, err = _outcome(argv)
    if code == 2:
        assert out == "" and err.count("\n") == 1
    else:
        assert code in (0, 1) and err == ""
        jsonschema.validate(json.loads(out), SCHEMA)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=16)

_DSL_CHARS = "{}()[];:,*^+-/=# \nVWfHIq01degobjgenletassertidbraiv_"


@st.composite
def _mutated_script(draw):
    """A corpus script with a few slices replaced by DSL-like text."""
    text = draw(st.sampled_from(sorted(CORPUS.glob("*.bdsl")))).read_text()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        text = (text[:i] + draw(st.text(_DSL_CHARS, max_size=5)) + text[j:])
    return text


@settings(max_examples=100, deadline=None)
@given(table=_JSON | st.lists(st.lists(st.integers(-1, 3), max_size=3),
                              max_size=3),
       raw=st.binary(max_size=12), use_raw=st.booleans())
def test_any_cayley_file_gives_a_report_or_exit_2(table, raw, use_raw,
                                                   tmp_path_factory):
    path = tmp_path_factory.mktemp("cayley") / "table.json"
    if use_raw:
        path.write_bytes(raw)
    else:
        path.write_text(json.dumps(table))
    _assert_report_or_usage_error(["decompose", "rep-g", "--cayley",
                                   str(path)])


@settings(max_examples=100, deadline=None)
@given(text=_mutated_script() | st.text(_DSL_CHARS, max_size=40),
       raw=st.binary(max_size=12), use_raw=st.booleans())
def test_any_dsl_file_gives_a_report_or_exit_2(text, raw, use_raw,
                                               tmp_path_factory):
    path = tmp_path_factory.mktemp("dsl") / "script.bdsl"
    if use_raw:
        path.write_bytes(raw)
    else:
        path.write_text(text)
    _assert_report_or_usage_error(["dsl", "check", str(path)])


_SCALAR_TEXT = (st.builds("q({},{})".format, st.integers(1, 12),
                          st.integers(-3, 12))
                | st.text("0123456789q(),/+-* ", max_size=8))


@st.composite
def _module_edit(draw):
    """(where, value): one field or entry of the sample module and a value
    to put there."""
    value = draw(st.integers(-3, 12) | st.floats() | st.booleans()
                 | st.none() | _SCALAR_TEXT)
    key = draw(st.sampled_from(["p", "mu", "degrees", "x", "z"]))
    index = draw(st.lists(st.integers(0, 2), max_size=2))
    depth = {"p": 0, "mu": 0, "degrees": 1}.get(key, 2)
    return (key,) + tuple(index[:depth]), value


@settings(max_examples=100, deadline=None)
@given(edit=_module_edit(), value=_JSON, raw=st.binary(max_size=12),
       kind=st.sampled_from(["edited", "json", "raw"]))
def test_any_module_file_gives_a_report_or_exit_2(edit, value, raw, kind,
                                                  tmp_path_factory):
    path = tmp_path_factory.mktemp("module") / "module.json"
    if kind == "edited":
        _module_file(path, *edit)
    elif kind == "json":
        path.write_text(json.dumps(value))
    else:
        path.write_bytes(raw)
    _assert_report_or_usage_error(["verify", "ayd", "--module", str(path)])


def _readme_commands():
    """The `bhl ...` lines of the README's command-line sh block."""
    readme = (PACKAGE_DIR.parents[1] / "README.md").read_text()
    section = readme.split("## Command-line interface", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [words[1:] for words in lines if words and words[0] == "bhl"]


@pytest.mark.parametrize("argv", [
    pytest.param(argv, marks=[pytest.mark.slow] if argv == ["suite"] else [])
    for argv in _readme_commands()], ids=" ".join)
def test_readme_commands_run(argv, monkeypatch, capsys):
    monkeypatch.chdir(PACKAGE_DIR.parents[1])
    code, report = run_json(argv, capsys)
    assert code == 0
    assert report["command"] == " ".join(
        w for w in argv[:2] if not w.startswith("-"))


def test_dsl_witness_values_read_in_the_scalar_syntax(tmp_path, capsys):
    script = tmp_path / "half.bdsl"
    script.write_text("let V = obj { deg 0: 1 }\n"
                      "let f = gen (V -> V) { [1/2] }\n"
                      "assert f == id[V]\n")
    code, report = run_json(["dsl", "check", str(script), "--n", "3"],
                            capsys)
    assert code == 1
    (only,) = report["checks"]
    assert only["witnesses"] == [{"input": "v0", "difference": [[0, "-1/2"]]}]


@pytest.fixture
def default_int_digits_limit():
    # main lifts the interpreter's limit on int <-> str conversion; start
    # each run from the default and put back what was there before
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int <-> str conversion")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_a_5000_digit_dimension_skips_under_the_guard(
        default_int_digits_limit, tmp_path, capsys):
    script = tmp_path / "wide.bdsl"
    script.write_text("let V = obj { deg 0: %s }\nassert id[V] == id[V]\n"
                      % ("1" * 5000))
    code, out, err = run_cli(["dsl", "check", str(script), "--format",
                              "json"], capsys)
    assert code == 0 and err == ""
    (only,) = json.loads(out)["checks"]
    assert (only["name"], only["status"]) == ("script loads", "SKIP")
    assert "exceeds the guard 350" in only["details"]


@pytest.mark.parametrize("kind", ["script", "module"])
def test_a_huge_power_fails_at_its_exponent_before_it_is_taken(kind,
                                                               tmp_path):
    # 2^100000000000 would take about 12 GB; past POWER_BITS it is a
    # syntax error at its exponent, as 1/0 is one at its scalar
    power = "2^100000000000"
    error = "power of about 100000000000 bits, more than 1048576"
    if kind == "script":
        path = tmp_path / "huge.bdsl"
        path.write_text("let V = obj { deg 0: 1 }\n"
                        "let f = gen (V -> V) { [%s] }\n"
                        "assert f == id[V]\n" % power)
        argv = ["dsl", "check", str(path)]
        name, error = "script loads", error + " (line 2, column 27)"
    else:  # the sample module's entry 1
        path = _module_file(tmp_path / "module.json", ("x", 1, 0), power)
        argv = ["verify", "ayd", "--module", str(path)]
        name, error = ("module file is well formed",
                       error + " (line 1, column 3)")
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = _outcome(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2
    assert peak < 5e6
    assert code == 1 and err == ""
    (first,) = json.loads(out)["checks"]
    assert (first["name"], first["status"]) == (name, "FAIL")
    assert error in first["witnesses"][0]["error"]


def test_a_witness_of_20000_bits_reads_back(default_int_digits_limit,
                                            tmp_path, capsys):
    script = tmp_path / "huge.bdsl"
    script.write_text("let V = obj { deg 0: 1 }\n"
                      "let f = gen (V -> V) { [2^20000] }\n"
                      "assert f == id[V]\n")
    code, out, err = run_cli(["dsl", "check", str(script), "--format",
                              "json"], capsys)
    assert code == 1 and err == ""
    (only,) = json.loads(out)["checks"]
    assert only["status"] == "FAIL"
    ((row, text),) = only["witnesses"][0]["difference"]
    assert row == 0 and parse_scalar(text) == 2 ** 20000 - 1
