#!/usr/bin/env python3
"""Kernel-dimension table for (1 - sigma)^k on the regular representation.

Computes, for each (p, mu), the element w of d_a_mu(p, mu) whose left
multiplication realizes the canonical automorphism on the regular module:

    w = (sum_t xi^(-t^2 - mu t) e_t) * (sum_j xi^((j-1)j/2)/(j)_xi! z^j x^j)

where e_t = (1/p) sum_b xi^(-t b) g^b are the idempotents of the g-action.
It then reports dim ker L_{(1-w)^k} for k = 1, 2, 3 and k = p^3.

For odd p the element is cross-checked against an entirely different route:
q^(m(mu^2-1)) times the ribbon element v_0 = K u_K u_0 of u_q(sl2),
transported through E -> q^(1-mu) x, F -> z g, K -> q^(mu-1) g^(p-1).

This script is the oracle that produced the frozen dimensions in
tests/test_ayd.py; rerun it to regenerate the table.
"""

import argparse
import sys
from fractions import Fraction

from bhl.algebras import d_a_mu, uqsl2
from bhl.scalars import balanced_q_factorials, gauss_sum, q_factorials, root_of_unity


def sigma_element(p, mu):
    """The element of d_a_mu(p, mu) acting as the canonical automorphism."""
    A = d_a_mu(p, mu)
    xi = A.xi
    g = A.gen("g")
    z = A.gen("z")
    x = A.gen("x")
    prefactor = A.zero()
    for t in range(p):
        e_t = A.zero()
        for b in range(p):
            e_t = e_t + Fraction(1, p) * root_of_unity(p, -t * b) * g ** b
        prefactor = prefactor + root_of_unity(p, -t * t - mu * t) * e_t
    series = A.zero()
    for j, factorial in enumerate(q_factorials(p - 1, xi)):
        coeff = root_of_unity(p, (j - 1) * j // 2)
        series = series + (coeff / factorial) * (z ** j * x ** j)
    return A, prefactor * series


def ribbon_transport(p, mu):
    """q^(m(mu^2-1)) v_0 moved into d_a_mu(p, mu); odd p only."""
    A = d_a_mu(p, mu)
    U = uqsl2(p)
    q, m = U.q, U.m
    xi = A.xi
    x, z, g = A.gen("x"), A.gen("z"), A.gen("g")
    E = q ** (1 - mu) * x
    F = z * g
    K = q ** (mu - 1) * g ** (p - 1)
    u_K = A.zero()
    for i in range(p):
        u_K = u_K + q ** (m * i * i) * K ** i
    u_K = (gauss_sum(p, q, m)).inverse() * u_K
    u_0 = A.zero()
    for j, factorial in enumerate(balanced_q_factorials(p - 1, q)):
        u_0 = u_0 + (q ** ((j + 3) * j // 2) / factorial) \
            * (K ** j * F ** j * E ** j)
    v_0 = K * u_K * u_0
    return q ** (m * (mu * mu - 1)) * v_0


def kernel_table(p, mu, max_small_power=3):
    A, w = sigma_element(p, mu)
    one_minus = A.unit() - w
    dims = []
    for k in range(1, max_small_power + 1):
        dims.append(A.left_mult_operator(one_minus ** k).nullity())
    full = A.left_mult_operator(one_minus ** A.dim).nullity()
    return A, w, dims, full


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, action="append",
                    help="primes to tabulate (default: 2 3 5)")
    args = ap.parse_args(argv)
    primes = args.p or [2, 3, 5]
    print("  p  mu   k=1   k=2   k=3   k=p^3   stabilizes_at")
    for p in primes:
        for mu in range(p):
            A, w, dims, full = kernel_table(p, mu)
            if p != 2:
                transported = ribbon_transport(p, mu)
                if not (w - transported).is_zero():
                    print("  p=%d mu=%d: ribbon cross-check FAILED" % (p, mu))
                    return 1
            stab = next((k + 1 for k, d in enumerate(dims) if d == full), ">3")
            print("%3d %3d %5d %5d %5d %7d   %s" % (
                p, mu, dims[0], dims[1], dims[2], full, stab))
    return 0


if __name__ == "__main__":
    sys.exit(main())
