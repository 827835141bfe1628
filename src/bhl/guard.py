"""The dimension guard and the primality test, which every command reads
before it builds anything; this module imports no layer of bhl, and
bhl.algebras imports these names back."""

import os

DEFAULT_DIM_GUARD = 350


class DimensionGuardError(RuntimeError):
    """A brute-force verification would exceed the dimension guard."""


def dim_guard():
    return int(os.environ.get("BHL_DIM_GUARD", DEFAULT_DIM_GUARD))


def check_guard(dim, what):
    limit = dim_guard()
    if dim > limit:
        raise DimensionGuardError(
            "%s at dimension %d exceeds the guard %d (set BHL_DIM_GUARD to raise it)"
            % (what, dim, limit)
        )


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p):
    """Miller-Rabin to the prime bases up to 41, which is exact below
    3.3 * 10^24 (Sorenson and Webster, Strong pseudoprimes to twelve prime
    bases, Math. Comp. 86 (2017)).  Past that bound a composite that passes
    only reaches a dimension guard, which trips before anything over Z/p
    is built."""
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)  # b^d = 1, or b^(d 2^r) = -1 for some r < s
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True
