"""Golden reports: a few deterministic commands, compared byte for byte.

Each file in ``tests/golden`` holds the JSON report of one command with
its ``elapsed_ms`` line removed.  The commands cover every check family
whose text carries Q(zeta_N) values (witness reprs included), so a change
to the scalar layer that alters any rendered value fails here.

To record the files again, run from the repository root::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from bhl.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, exit code)
COMMANDS = {
    "suite_p3": (["suite", "--p", "3"], 0),
    "hopf_axioms_p5_chi0": (["verify", "hopf-axioms", "--p", "5", "--chi", "0"], 1),
    "hopf_axioms_p7": (["verify", "hopf-axioms", "--p", "7"], 0),
    "ribbon_p5": (["verify", "ribbon", "--p", "5"], 0),
    "dsl_negative_control_n12": (
        ["dsl", "check", "src/bhl/corpus/negative_control.bdsl",
         "--n", "12", "--chi", "5", "--mu", "7"], 1),
    "decompose_vecg_n12": (["decompose", "vec-g", "--n", "12"], 0),
    "ayd_sample_module": (
        ["verify", "ayd", "--module", "src/bhl/data/sample_module_p3_mu1.json"], 0),
}

_ELAPSED = re.compile(r'^\s*"elapsed_ms": \d+,\n', re.M)


def report_text(argv):
    """(exit code, JSON report without its elapsed_ms line) of one command,
    run from the repository root, which the reports echo paths against."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--format", "json"])
    finally:
        os.chdir(cwd)
    return code, _ELAPSED.sub("", out.getvalue())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_its_golden_file(name, monkeypatch):
    monkeypatch.delenv("BHL_DIM_GUARD", raising=False)
    argv, want_code = COMMANDS[name]
    code, text = report_text(argv)
    assert code == want_code
    assert text == (GOLDEN / (name + ".json")).read_text()


if __name__ == "__main__":
    os.environ.pop("BHL_DIM_GUARD", None)
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, want_code) in sorted(COMMANDS.items()):
        code, text = report_text(argv)
        assert code == want_code, (name, code)
        (GOLDEN / (name + ".json")).write_text(text)
