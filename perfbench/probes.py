"""Fixed-input layer probes, run untraced in the traced run.

Each probe times one layer operation on an input that never changes and
reports the median of a few repeats.  They are per-layer numbers only and
never gate a change.
"""

from __future__ import annotations

import statistics
from time import perf_counter


def _median_time(setup, op, repeats):
    times = []
    for _ in range(repeats):
        arg = setup()
        start = perf_counter()
        op(arg)
        times.append(perf_counter() - start)
    return statistics.median(times)


def scalars_mul_us(bhl, n=20000):
    """One Q(zeta_5) x Q(zeta_5) multiplication, in microseconds."""
    Cyclotomic = bhl["scalars"].Cyclotomic
    a = Cyclotomic(5, [3, -2, 0, 5], 7)
    b = Cyclotomic(5, [1, 4, -3, 2], 11)

    def op(_):
        for _ in range(n):
            a * b
    return _median_time(lambda: None, op, 5) / n * 1e6


def _probe_matrix(bhl, shift):
    """A 25x25 matrix over Q(zeta_5) with two entries per column."""
    Mat = bhl["exactmat"].Mat
    zeta = bhl["scalars"].root_of_unity(5)
    data = {}
    for j in range(25):
        data[j, j] = zeta ** (j + shift) + 1
        data[(j + 1 + shift) % 25, j] = zeta ** (2 * j)
    return Mat(25, 25, data)


def exactmat_kron_ms(bhl):
    """``Mat.kron`` of two fixed 25x25 matrices, in milliseconds."""
    a, b = _probe_matrix(bhl, 0), _probe_matrix(bhl, 3)
    return _median_time(lambda: None, lambda _: a.kron(b), 5) * 1e3


def exactmat_elim_ms(bhl):
    """Nullity of 1 - varsigma on the regular module of d_a_mu(5, 1), in ms."""
    ayd = bhl["ayd"]
    M = ayd.regular_ayd_module(5, 1)
    T = bhl["exactmat"].Mat.identity(M.dim) - ayd.varsigma_H(M).mat
    return _median_time(lambda: None, lambda _: T.nullity(), 5) * 1e3


def algebras_normalize_ms(bhl):
    """Products of each generator with every basis monomial, on both sides,
    in a fresh uqsl2(5), in milliseconds.

    All 15 625 basis pairs take about a minute (2-vCPU Xeon VM, CPython
    3.11), far beyond a run, so the probe covers the 750 generator-by-
    monomial pairs that the regular representation and the center
    computation use.
    """
    def setup():
        U = bhl["algebras"].uqsl2(5)
        return U, [next(iter(g.terms)) for _, g in U.generators()]

    def op(arg):
        U, gens = arg
        for g in gens:
            for m in U.basis:
                U.pair_product(g, m)
                U.pair_product(m, g)
    return _median_time(setup, op, 5) * 1e3


PROBES = {
    "probe.scalars_mul_us": (scalars_mul_us, "us"),
    "probe.exactmat_kron_ms": (exactmat_kron_ms, "ms"),
    "probe.exactmat_elim_ms": (exactmat_elim_ms, "ms"),
    "probe.algebras_normalize_ms": (algebras_normalize_ms, "ms"),
}


def run_probes(bhl):
    return {name: (fn(bhl), unit) for name, (fn, unit) in PROBES.items()}
