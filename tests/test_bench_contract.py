"""The names of bhl that the benchmark in perfbench/ relies on.

perfbench/tracing.py wraps every function it derives a metric from and
refuses to run when one is missing; perfbench/probes.py calls a few bhl
functions directly.  Deleting or renaming one of them breaks the benchmark,
so these tests fail first.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
LAYERS = {layer: importlib.import_module("bhl." + layer)
          for layer in tracing.LAYERS}


def test_tracer_finds_every_traced_name():
    patches = tracing.install(tracing.Tracer(), LAYERS)
    tracing.uninstall(patches)


def _probe_names():
    """(layer, attribute path) of each ``bhl["layer"].a.b`` in probes.py,
    also when ``bhl["layer"]`` was first bound to a local name."""
    tree = ast.parse((PERFBENCH / "probes.py").read_text())

    def layer_of(node):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "bhl"):
            return node.slice.value
        return None

    aliases = {node.targets[0].id: layer_of(node.value)
               for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and layer_of(node.value)}
    names = set()
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        layer = layer_of(node) or (isinstance(node, ast.Name)
                                   and aliases.get(node.id))
        if path and layer:
            names.add((layer, tuple(path)))
    return sorted(names)


# Methods probes.py calls on values it gets from bhl, which the walk above
# does not see.
PROBE_METHODS = [
    ("exactmat", ("Mat", "kron")),
    ("exactmat", ("Mat", "nullity")),
    ("algebras", ("PresentedAlgebra", "pair_product")),
    ("algebras", ("PresentedAlgebra", "generators")),
]


@pytest.mark.parametrize("layer, path", _probe_names() + PROBE_METHODS,
                         ids=lambda v: v if isinstance(v, str) else ".".join(v))
def test_probes_find_their_names(layer, path):
    obj = LAYERS[layer]
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_probe_names_are_found_in_probes():
    assert {("exactmat", ("Mat", "identity")), ("ayd", ("varsigma_H",)),
            ("ayd", ("regular_ayd_module",)),
            ("algebras", ("uqsl2",))} <= set(_probe_names())
