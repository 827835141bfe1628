"""Importing bhl generates no classes: no module of it pulls in
dataclasses, whose class generation imports inspect and ast and builds
methods with exec, at a cost every command pays."""

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
