"""Importing bhl generates no classes: no module of it pulls in
dataclasses, whose class generation imports inspect and ast and builds
methods with exec, at a cost every command pays.  Importing bhl.cli loads
no layer of bhl, and a command loads only the layers it runs."""

import os
import pathlib
import subprocess
import sys

import pytest

import bhl

SRC = str(pathlib.Path(bhl.__file__).resolve().parents[1])


@pytest.mark.parametrize("module",
                         ["bhl.cli", "bhl.hopf", "bhl.ayd", "bhl.dsl"])
def test_fresh_import_loads_no_dataclasses_or_inspect(module):
    code = ("import sys, %s; print(' '.join(m for m in ('dataclasses',"
            " 'inspect') if m in sys.modules))" % module)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


LAYERS = {"bhl.scalars", "bhl.exactmat", "bhl.graded", "bhl.record",
          "bhl.classify", "bhl.algebras", "bhl.hopf", "bhl.ayd", "bhl.dsl"}


def loaded_bhl_modules(code):
    """The bhl modules a fresh interpreter holds after running code."""
    code += ("\nimport sys; print(' '.join(sorted(m for m in sys.modules"
             " if m == 'bhl' or m.startswith('bhl.'))))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_importing_the_cli_loads_no_layer():
    assert loaded_bhl_modules("import bhl.cli") == {
        "bhl", "bhl.cli", "bhl.report", "bhl.guard"}


@pytest.mark.parametrize("argv, unloaded", [
    (["decompose", "vec-g", "--n", "61"],
     {"bhl.algebras", "bhl.exactmat", "bhl.graded", "bhl.hopf", "bhl.ayd",
      "bhl.dsl"}),
    (["verify", "dual-algebra", "--p", "7"],
     {"bhl.hopf", "bhl.ayd", "bhl.dsl", "bhl.classify"}),
    (["suite", "--p", "2"], set()),
])
def test_a_command_loads_only_the_layers_it_runs(argv, unloaded):
    code = ("import contextlib, io\nfrom bhl.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(%r) == 0" % (argv + ["--format", "json"]))
    loaded = loaded_bhl_modules(code)
    assert loaded & unloaded == set()
    if not unloaded:  # the battery runs every layer
        assert LAYERS <= loaded
