#!/usr/bin/env python3
"""Classification tables for graded lines with anti-twists.

For each grading order N (and each bicharacter exponent c when --all-c is
given), tabulates:

  * the braided-equivalence classes of the twisted lines B_t, i.e. the
    cosets of t -> t + 2cy;
  * their refinement into stable classes, where the witness y must also
    satisfy ty + cy^2 = 0 (mod N);
  * the packet I of theta-values zeta^(c x^2) with multiplicities, whose
    counts match the stable classes whenever 2c is invertible mod N;
  * the size of the kernel of eta(y) = omega(y, y) sigma(y), the obstruction
    group that controls which arrows between classes are invisible.

For odd primes the stable-class count is (p + 1) / 2; the table makes the
composite and even cases easy to compare against that.
"""

import argparse
import sys

from bhl.classify import classify_braided, classify_stable, packet_report


def fmt_classes(classes):
    return " ".join("{" + ",".join(str(t) for t in cls) + "}"
                    for cls in classes)


def fmt_packet(packet):
    return ", ".join("%s:%d" % (text, e["multiplicity"])
                     for text, e in zip(packet.texts, packet.entries))


def row(N, c):
    br = classify_braided(N, c)
    stb = classify_stable(N, c)
    packet = packet_report(N, c)
    return {
        "N": N,
        "c": c,
        "braided": br["classes"],
        "stable": stb["classes"],
        "packet": packet,
        # the eta kernel's arrows are the stable witnesses, one per y
        "eta_kernel": sum(len(ys) for ys in stb["witnesses"].values()),
        "omega": ("trivial" if br["omega_trivial"]
                  else "injective" if br["omega_injective"]
                  else "image %d" % len(br["omega_image"])),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, action="append",
                    help="grading orders to tabulate (default: 2..9)")
    ap.add_argument("--all-c", action="store_true",
                    help="sweep every nonzero c, not just c = 1")
    args = ap.parse_args(argv)
    orders = args.n or list(range(2, 10))

    header = "%3s %3s %4s  %-9s %3s/%3s  %-24s %-24s %s" % (
        "N", "c", "#eta", "omega", "#br", "#st", "braided classes",
        "stable classes", "packet")
    print(header)
    print("-" * len(header))
    for N in orders:
        cs = range(1, N) if args.all_c else [1]
        for c in cs:
            r = row(N, c)
            print("%3d %3d %4d  %-9s %3d/%3d  %-24s %-24s %s" % (
                r["N"], r["c"], r["eta_kernel"], r["omega"],
                len(r["braided"]), len(r["stable"]),
                fmt_classes(r["braided"]), fmt_classes(r["stable"]),
                fmt_packet(r["packet"])))
            total = r["packet"].total()
            if total != N:
                print("  !! packet multiplicities sum to %d, not %d"
                      % (total, N))
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
