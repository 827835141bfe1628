"""Graded modules with raising/lowering operators, the sigma operator, and
the small-quantum-group dictionary.

An AydModule is a Z/p-graded space with x of degree +1 and z of degree -1
subject to x^p = 0, z^p = 0 and, on each degree-i component,

    (xz - xi zx) = (xi^{-2i+1-mu} - 1) id.

Equivalently it is a module over d_a_mu(p, mu) on which g acts by xi^i on
the degree-i piece.  On such a module the sigma operator

    varsigma: m |-> xi^{-i^2 - mu i} (sum_{j<p} xi^{(j-1)j/2}/(j)_xi! z^j x^j) m

is an invertible degree-0 map.  For odd p the substitutions

    E = q^{1-mu} x,   F = z g,   K = q^{mu-1} g^{-1}        (q = xi^{(p-1)/2})

turn the module into a module over the small quantum group uqsl2(p), and
varsigma coincides with q^{m(mu^2-1)} times the action of the ribbon
element v_0 = K u_K u_0 — verified here by two independent routes: a
per-degree scalar identity and an exact matrix identity on the regular
representation (which is faithful, so the operators agree as elements).

stable_analysis records the kernel dimensions of powers of (1 - varsigma)
on the regular representation: the kernel chain of a single operator is
constant from the first repeat on, so the value at k = dim is already
determined once two consecutive powers agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (AlgebraElement, _require_prime, check_guard, is_prime,
                       uqsl2)
from .exactmat import Mat
from .graded import GradedMap, GradedSpace
from .hopf import AlgebraModule
from .report import check, map_check
from .scalars import (
    balanced_q_factorial,
    format_scalar,
    gauss_sum,
    in_field,
    parse_scalar,
    q_factorial,
    root_of_unity,
)


class AydModule:
    """A Z/p-graded space with operators x (degree +1) and z (degree -1)."""

    def __init__(self, p, mu, space, xop, zop):
        if space.N != p:
            raise ValueError("space must be graded over Z/%d" % p)
        for name, op, shift in (("x", xop, 1), ("z", zop, (p - 1) % p)):
            if op.source != space or op.target != space:
                raise ValueError("%s operator is not an endomorphism" % name)
            if op.mat.data and op.shift != shift:
                raise ValueError(
                    "%s operator has shift %d, expected %d"
                    % (name, op.shift, shift)
                )
        self.p = p
        self.mu = mu % p
        self.space = space
        self.xop = xop
        self.zop = zop
        self.xi = root_of_unity(p)

    @property
    def dim(self):
        return self.space.dim

    def __repr__(self):
        return "AydModule(p=%d, mu=%d, dim %d)" % (self.p, self.mu, self.dim)


def verify_ayd(M):
    """Check the three defining identities as exact matrix equalities."""
    xi = M.xi
    mu = M.mu
    zero = GradedMap.zero(M.space, M.space)
    checks = [
        map_check("x_power_vanishes", M.xop ** M.p, zero,
                  details="x^%d = 0" % M.p),
        map_check("z_power_vanishes", M.zop ** M.p, zero,
                  details="z^%d = 0" % M.p),
    ]
    lhs = M.xop @ M.zop - (M.zop @ M.xop).scale(xi)
    rhs = GradedMap.from_diagonal(
        M.space, lambda d: xi ** (-2 * d + 1 - mu) - 1
    )
    checks.append(
        map_check(
            "xz_commutation", lhs, rhs,
            details="(xz - xi zx) = (xi^{-2i+1-mu} - 1) id on degree i",
        )
    )
    return checks


def varsigma_H(M):
    """The sigma operator of an AydModule (degree 0, invertible)."""
    xi = M.xi
    series = GradedMap.identity(M.space)
    zs = GradedMap.identity(M.space)
    xs = GradedMap.identity(M.space)
    for j in range(1, M.p):
        zs = zs @ M.zop
        xs = xs @ M.xop
        coeff = xi ** (((j - 1) * j) // 2) * q_factorial(j, xi).inverse()
        series = series + (zs @ xs).scale(coeff)
    prefactor = GradedMap.from_diagonal(
        M.space, lambda d: xi ** (-d * d - M.mu * d)
    )
    return prefactor @ series


def regular_ayd_module(p, mu):
    """The regular representation of d_a_mu(p, mu) as an AydModule.

    Column (a p + t) p + c is z^a e_t x^c, of degree t - a, where
    e_t = (1/p) sum_b xi^{-tb} g^b.  From x e_t = e_{t+1} x,
    g^{-2} e_t = xi^{-2t} e_t and xz = xi zx + xi^{1-mu} g^{-2} - 1:

        z . z^a e_t x^c = z^{a+1} e_t x^c                (0 if a + 1 = p)
        x . z^a e_t x^c = xi^a z^a e_{t+1} x^{c+1}       (0 if c + 1 = p)
                          + (a)_xi (xi^{a-mu-2t} - 1) z^{a-1} e_t x^c

    with (a)_xi = 1 + xi + ... + xi^{a-1}.  Its dimension p^3 goes through
    the dimension guard.
    """
    check_guard(p ** 3, "regular module of d_a_mu(%d, %d)" % (p, mu))
    _require_prime(p)
    powers = [root_of_unity(p, k) for k in range(p)]
    n = p ** 3
    degrees = [0] * n
    labels = [""] * n
    xdata = {}
    for a in range(p):
        # (a)_xi (xi^{a-mu-2t} - 1), indexed by t
        a_xi = sum(powers[:a])
        correction = [a_xi * (powers[(a - mu - 2 * t) % p] - 1)
                      for t in range(p)]
        for t in range(p):
            for c in range(p):
                col = (a * p + t) * p + c
                degrees[col] = (t - a) % p
                parts = []
                if a:
                    parts.append("z" if a == 1 else "z^%d" % a)
                parts.append("e_%d" % t)
                if c:
                    parts.append("x" if c == 1 else "x^%d" % c)
                labels[col] = "*".join(parts)
                if c + 1 < p:
                    xdata[((a * p + (t + 1) % p) * p + c + 1, col)] = powers[a]
                if a:
                    xdata[(col - p * p, col)] = correction[t]
    zdata = {(j + p * p, j): 1 for j in range(n - p * p)}
    space = GradedSpace(p, degrees, labels)
    return AydModule(
        p, mu, space,
        GradedMap(space, space, Mat(n, n, xdata), 1),
        GradedMap(space, space, Mat(n, n, zdata), p - 1),
    )


# ---------------------------------------------------------------------------
# the small quantum group dictionary
# ---------------------------------------------------------------------------


def to_uqsl2(M):
    """View an AydModule as a module over uqsl2(p), p odd.

    E = q^{1-mu} x, F = z g, K = q^{mu-1} g^{-1}, with g acting by xi^i on
    the degree-i component.
    """
    if M.p == 2:
        raise ValueError("needs an odd prime: q = xi^m with m = (p-1)/2")
    U = uqsl2(M.p)
    q = U.q
    xi = M.xi
    mu = M.mu
    gop = GradedMap.from_diagonal(M.space, lambda d: xi ** d)
    ops = {
        "E": M.xop.scale(q ** (1 - mu)),
        "F": M.zop @ gop,
        "K": GradedMap.from_diagonal(
            M.space, lambda d: q ** (mu - 1) * xi ** (-d)
        ),
    }
    return AlgebraModule(U, M.space, ops)


@dataclass
class RibbonData:
    """The ribbon element of uqsl2(p) and its factors."""

    p: int
    m: int
    q: object
    u_K: AlgebraElement
    u_0: AlgebraElement
    v_0: AlgebraElement


def ribbon_element(p):
    """v_0 = K u_K u_0 with the normalized Gauss-sum Casimir factors."""
    U = uqsl2(p)
    q, m = U.q, U.m
    F, K, E = U.gen("F"), U.gen("K"), U.gen("E")
    gs = gauss_sum(p, q, m)
    u_K = U.zero()
    for i in range(p):
        u_K = u_K + q ** (m * i * i) * K ** i
    u_K = gs.inverse() * u_K
    u_0 = U.zero()
    for j in range(p):
        coeff = q ** (((j + 3) * j) // 2) * balanced_q_factorial(j, q).inverse()
        u_0 = u_0 + coeff * (K ** j * F ** j * E ** j)
    v_0 = K * u_K * u_0
    return RibbonData(p=p, m=m, q=q, u_K=u_K, u_0=u_0, v_0=v_0)


def ribbon_centrality_checks(p):
    """v_0 commutes with the generators; u_K is invertible."""
    U = uqsl2(p)
    R = ribbon_element(p)
    checks = []
    for name, el in U.generators():
        lhs = R.v_0 * el
        rhs = el * R.v_0
        ok = lhs == rhs
        checks.append(
            check(
                "v0_commutes_with_%s" % name, ok,
                witnesses=None if ok else [
                    {"generator": name, "difference": repr(lhs - rhs)}
                ],
            )
        )
    L = U.left_mult_operator(R.u_K)
    checks.append(
        check(
            "u_K_invertible",
            L.rank() == U.dim,
            details="rank %d of %d" % (L.rank(), U.dim),
        )
    )
    return checks


def ribbon_prefactor(p, mu):
    """The scalar q^{m(mu^2 - 1)} relating varsigma and the v_0-action."""
    U = uqsl2(p)
    return U.q ** (U.m * ((mu % p) * (mu % p) - 1))


def verify_ribbon_identity(p, mu):
    """Two independent checks that varsigma = q^{m(mu^2-1)} v_0.

    (a) per-degree scalar identity against K u_K with K evaluated at
    q^{mu-1} xi^{-i}; (b) exact matrix identity on the regular
    representation of d_a_mu(p, mu), which is faithful.
    """
    mu %= p
    U = uqsl2(p)
    q = U.q
    xi = U.xi
    R = ribbon_element(p)
    pref = ribbon_prefactor(p, mu)
    checks = []

    ku = U.gen("K") * R.u_K
    bad = []
    for i in range(p):
        kappa = q ** (mu - 1) * xi ** (-i)
        val = 0
        for (f, k, e), cc in ku.terms.items():
            if f or e:
                raise AssertionError("K u_K is not a polynomial in K")
            val = val + cc * kappa ** k
        lhs = xi ** (-i * i - mu * i)
        rhs = pref * val
        if lhs != rhs:
            bad.append({
                "degree": i,
                "sigma_scalar": format_scalar(lhs),
                "scaled_Ku_K_scalar": format_scalar(rhs),
            })
    checks.append(
        check(
            "prefactor_scalar_route", not bad,
            details="xi^{-i^2-mu i} vs q^{m(mu^2-1)} K u_K at "
                    "K = q^{mu-1} xi^{-i}, all i",
            witnesses=bad or None,
        )
    )

    M = regular_ayd_module(p, mu)
    sigma = varsigma_H(M)
    v0_action = to_uqsl2(M).act(R.v_0)
    checks.append(
        map_check(
            "varsigma_equals_scaled_ribbon",
            sigma,
            v0_action.scale(pref),
            details="on the regular representation (faithful), "
                    "prefactor %s" % format_scalar(pref),
        )
    )
    return checks


def verify_ribbon_family(p):
    """All mu at once, plus: the prefactor is a function of mu^2 mod p."""
    checks = []
    for mu in range(p):
        for c in verify_ribbon_identity(p, mu):
            c = dict(c)
            c["name"] = "mu=%d: %s" % (mu, c["name"])
            checks.append(c)
    table = {mu: ribbon_prefactor(p, mu) for mu in range(p)}
    bad = []
    for mu in range(p):
        for nu in range(p):
            if (mu * mu - nu * nu) % p == 0 and table[mu] != table[nu]:
                bad.append({
                    "mu": mu, "nu": nu,
                    "prefactors": [format_scalar(table[mu]),
                                   format_scalar(table[nu])],
                })
    checks.append(
        check(
            "prefactor_depends_only_on_mu_squared", not bad,
            details="; ".join(
                "mu=%d: %s" % (mu, format_scalar(table[mu]))
                for mu in range(p)
            ),
            witnesses=bad or None,
        )
    )
    return checks


# ---------------------------------------------------------------------------
# stable-part dimensions
# ---------------------------------------------------------------------------


def stable_analysis(p, mu):
    """Kernel dimensions of (1 - varsigma)^k on the regular representation.

    Returns {"p", "mu", "dim", "kernel_dims": {1: _, 2: _, dim: _},
    "stabilization_power", "chain"}.  The chain of kernels of powers of a
    fixed operator is constant from the first repeat, so the k = dim entry
    equals the stable value reached.
    """
    mu %= p
    M = regular_ayd_module(p, mu)
    sigma = varsigma_H(M)
    n = M.dim
    T = Mat.identity(n) - sigma.mat
    chain = []
    Tk = Mat.identity(n)
    power = None
    while True:
        Tk = Tk * T
        nk = Tk.nullity()
        if chain and nk == chain[-1]:
            power = len(chain)
            break
        chain.append(nk)
        if len(chain) > n:
            raise AssertionError("kernel chain failed to stabilize")
    dims = {1: chain[0], 2: chain[1] if len(chain) > 1 else chain[0],
            n: chain[-1]}
    return {
        "p": p,
        "mu": mu,
        "dim": n,
        "kernel_dims": dims,
        "stabilization_power": power,
        "chain": list(chain),
    }


def sweedler_checks(mu):
    """The p = 2 closed forms on the regular representation.

    For mu = 0 (with y = -z): xy + yx = 2 and varsigma = (-1)^i (1 - yx);
    for mu = 1: xz + zx = 0 and varsigma = 1 + zx.
    """
    mu %= 2
    M = regular_ayd_module(2, mu)
    x, z = M.xop, M.zop
    anti = x @ z + z @ x
    checks = []
    if mu == 0:
        y = z.scale(-1)
        checks.append(
            map_check(
                "anticommutator_xy_plus_yx",
                x @ y + y @ x,
                GradedMap.identity(M.space).scale(2),
                details="with y = -z: xy + yx = 2",
            )
        )
        closed = GradedMap.from_diagonal(
            M.space, lambda d: (-1) ** d
        ) @ (GradedMap.identity(M.space) - y @ x)
        checks.append(
            map_check(
                "sigma_closed_form", varsigma_H(M), closed,
                details="varsigma = (-1)^i (1 - yx)",
            )
        )
    else:
        checks.append(
            map_check(
                "anticommutator_xz_plus_zx",
                anti,
                GradedMap.zero(M.space, M.space),
                details="xz + zx = 0",
            )
        )
        closed = GradedMap.identity(M.space) + z @ x
        checks.append(
            map_check(
                "sigma_closed_form", varsigma_H(M), closed,
                details="varsigma = 1 + zx",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# module files
# ---------------------------------------------------------------------------


def _int_field(data, key):
    value = data[key]
    if type(value) is not int:
        raise ValueError("%r must be an integer, got %r" % (key, value))
    return value


def _parse_entry(v, p):
    if type(v) is int:
        return v
    if not isinstance(v, str):
        raise ValueError("entry %r is neither an integer nor a scalar string"
                         % (v,))
    value = parse_scalar(v)
    if not in_field(value, p):
        raise ValueError("entry %r is not in Q(zeta_%d)" % (v, p))
    return value


def ayd_module_from_json(data):
    """Build an AydModule from {"p", "mu", "degrees", "x", "z"}.

    p is a prime, mu and the degrees are integers; x and z are dense
    row-major matrices whose entries are integers or strings in the scalar
    syntax (e.g. "q(3,2) - 1", "1/2") with values in Q(zeta_p).  Anything
    else raises ValueError, KeyError or TypeError.
    """
    p = _int_field(data, "p")
    if not is_prime(p):
        raise ValueError("p must be prime, got %d" % p)
    mu = _int_field(data, "mu")
    degrees = data["degrees"]
    if type(degrees) is not list or any(type(d) is not int for d in degrees):
        raise ValueError("'degrees' must be a list of integers")
    space = GradedSpace(p, degrees)
    mats = {}
    for key in ("x", "z"):
        rows = data[key]
        if (type(rows) is not list or len(rows) != space.dim
                or any(type(r) is not list or len(r) != space.dim
                       for r in rows)):
            raise ValueError("%r matrix is not %dx%d" % (key, space.dim,
                                                         space.dim))
        mats[key] = Mat.from_rows(
            [[_parse_entry(v, p) for v in row] for row in rows]
        )
    return AydModule(
        p, mu, space,
        GradedMap(space, space, mats["x"], 1),
        GradedMap(space, space, mats["z"], p - 1),
    )


def ayd_module_to_json(M):
    dense = {}
    for key, op in (("x", M.xop), ("z", M.zop)):
        dense[key] = [
            [format_scalar(op.mat[(r, c)]) for c in range(M.dim)]
            for r in range(M.dim)
        ]
    return {
        "p": M.p,
        "mu": M.mu,
        "degrees": list(M.space.degrees),
        "x": dense["x"],
        "z": dense["z"],
    }
