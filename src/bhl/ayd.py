"""Graded modules with raising/lowering operators, the sigma operator, and
the small-quantum-group dictionary.

An AydModule is a Z/p-graded space with x of degree +1 and z of degree -1
subject to x^p = 0, z^p = 0 and, on each degree-i component,

    (xz - xi zx) = (xi^{-2i+1-mu} - 1) id.

Equivalently it is a module over d_a_mu(p, mu) on which g acts by xi^i on
the degree-i piece.  On such a module the sigma operator

    varsigma: m |-> xi^{-i^2 - mu i} (sum_{j<p} c_j z^j x^j) m,
    c_j = xi^{(j-1)j/2}/(j)_xi!,

is an invertible degree-0 map, which varsigma_H sums as its series on
every module.  For odd p the substitutions

    E = q^{1-mu} x,   F = z g,   K = q^{mu-1} g^{-1}        (q = xi^{(p-1)/2})

turn the module into a module over the small quantum group uqsl2(p), and
varsigma coincides with q^{m(mu^2-1)} times the action of the ribbon
element v_0 = K u_K u_0.  Two routes check it: a per-degree scalar
identity, and the identity w = q^{m(mu^2-1)} psi(v_0) of elements of
d_a_mu(p, mu), where varsigma is the action of w and psi is the
substitution above.  The regular representation is faithful, so the
element identity is the operator identity on every module at once.
v_0 is central: its differences with F and K are ad(F) and ad(K), and
E's is -sigma of F's, sigma being the anti-automorphism F <-> E, K -> K
of uqsl2(p) (algebras.PresentedAlgebra.mirror_premise), which fixes v_0.
The center's dimension is the nullity of center_matrix, with no kernel
basis.  u_K is invertible when none of its values u_K(xi^j) is 0 (the
evaluation lemma of _u_K_invertible); else the rank of L_{u_K} decides.

stable_analysis splits the regular module into the 2p^2 - p strings of
fixed (a - c, (t - c) mod p), on which varsigma is lower triangular with
no zero on its first subdiagonal and the diagonal xi^{-t(t+mu)} at
z^a e_t x^c, so the kernel chain of 1 - varsigma is counted from where p
divides t(t + mu): [p^2] for mu = 0, else [p^2 + 2 mu (p - mu), 2 p^2].
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial

from .algebras import _require_prime, check_guard, d_a_mu, is_prime, uqsl2
from .exactmat import Mat
from .graded import GradedMap, GradedSpace, LazyLabels
from .record import Record
from .report import check, map_check, prefixed
from .scalars import (
    Cyclotomic,
    FieldError,
    ParseError,
    _conjugate,
    balanced_q_int,
    format_scalar,
    gauss_sum,
    inverse_factorials,
    parse_scalar,
    q_factorials,
    q_int,
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
    rhs = GradedMap.from_diagonal(M.space,
                                  lambda d: xi ** (-2 * d + 1 - mu) - 1)
    checks.append(map_check(
        "xz_commutation", lhs, rhs,
        details="(xz - xi zx) = (xi^{-2i+1-mu} - 1) id on degree i"))
    return checks


def varsigma_H(M):
    """The sigma operator of an AydModule (degree 0, invertible), summed as
    its series xi^{-i^2 - mu i} sum_{j<p} c_j z^j x^j on degree i by p - 1
    products of the matrices z^j and x^j, whatever built the module."""
    xi = M.xi
    coeffs = _series_coefficients(M.p)
    series = GradedMap.identity(M.space)
    zs = GradedMap.identity(M.space)
    xs = GradedMap.identity(M.space)
    for j in range(1, M.p):
        zs = zs @ M.zop
        xs = xs @ M.xop
        series = series + (zs @ xs).scale(coeffs[j])
    prefactor = GradedMap.from_diagonal(
        M.space, lambda d: xi ** (-d * d - M.mu * d)
    )
    return prefactor @ series


@lru_cache(maxsize=None)
def _series_coefficients(p):
    """c_j = xi^{(j-1)j/2}/(j)_xi! for j < p, the coefficients of the series
    sum_j c_j z^j x^j behind varsigma, with one inverse for all j."""
    xi = root_of_unity(p)
    inv = inverse_factorials([q_int(j, xi) for j in range(1, p)])
    return (1,) + tuple(xi ** ((j - 1) * j // 2) * inv[j] for j in range(1, p))


@lru_cache(maxsize=None)
def _regular_weights(p):
    """The weights of x on z^a e_t x^c, with u = (mu + 2t) mod p:
    raising[a] = xi^a and lowering[a][u] = (a)_xi (xi^{a-u} - 1)."""
    raising = tuple(root_of_unity(p, k) for k in range(p))
    lowering = tuple(tuple(sum(raising[:a]) * (raising[(a - u) % p] - 1)
                           for u in range(p)) for a in range(p))
    return raising, lowering


def _check_regular_guard(p, mu):
    check_guard(p ** 3, "regular module of d_a_mu(%d, %d)" % (p, mu))


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
    _check_regular_guard(p, mu)
    _require_prime(p)
    raising, lowering = _regular_weights(p)
    n = p ** 3
    degrees = [0] * n
    xdata = {}
    for a in range(p):
        for t in range(p):
            for c in range(p):
                col = (a * p + t) * p + c
                degrees[col] = (t - a) % p
                if c + 1 < p:
                    xdata[((a * p + (t + 1) % p) * p + c + 1, col)] = raising[a]
                if a:
                    xdata[(col - p * p, col)] = lowering[a][(mu + 2 * t) % p]
    zdata = {(j + p * p, j): 1 for j in range(n - p * p)}
    space = GradedSpace(p, degrees,
                        LazyLabels(n, partial(_regular_label, p)))
    return AydModule(
        p, mu, space,
        GradedMap(space, space, Mat(n, n, xdata), 1),
        GradedMap(space, space, Mat(n, n, zdata), p - 1),
    )


def _regular_label(p, col):
    """The label of column (a p + t) p + c, z^a e_t x^c, such as z^2*e_1*x."""
    at, c = divmod(col, p)
    a, t = divmod(at, p)
    parts = ["z" if a == 1 else "z^%d" % a] if a else []
    parts.append("e_%d" % t)
    if c:
        parts.append("x" if c == 1 else "x^%d" % c)
    return "*".join(parts)


# ---------------------------------------------------------------------------
# the small quantum group dictionary
# ---------------------------------------------------------------------------


class RibbonData(Record):
    """The ribbon element of uqsl2(p), its factors, and the transform
    u_K_values[j] = u_K(xi^j) of u_K, a polynomial in K."""

    _fields = ("p", "m", "q", "u_K", "u_0", "v_0", "u_K_values")


def ribbon_element(p):
    """v_0 = K u_K u_0 with the normalized Gauss-sum Casimir factors, and
    u_K(xi^j) = sum_i alpha_i xi^{ij} for u_K = sum_i alpha_i K^i,
    alpha_i = q^{m i^2}/G (G the Gauss sum), evaluated at the p-th roots
    of unity by _K_values, as _u_K_invertible evaluates the element it is
    given, for route (a) of _ribbon_identity.  G is inverted as
    sigma_-1(G)/(G sigma_-1(G)), G sigma_-1(G) = |G|^2 = p being rational,
    in one dense product."""
    U = uqsl2(p)
    q, m = U.q, U.m
    F, K, E = U.gen("F"), U.gen("K"), U.gen("E")
    gs = gauss_sum(p, q, m)
    conj = _conjugate(gs, -1)
    inv_gs = conj / (gs * conj)
    alpha = [inv_gs * q ** (m * i * i) for i in range(p)]
    u_K = U.element({(0, i, 0): a for i, a in enumerate(alpha)})
    inv = inverse_factorials([balanced_q_int(j, q) for j in range(1, p)])
    u_0 = sum((q ** ((j + 3) * j // 2) * inv[j] * (K ** j * F ** j * E ** j)
               for j in range(p)), U.zero())  # inv[j] = 1/[j]_q!
    return RibbonData(p=p, m=m, q=q, u_K=u_K, u_0=u_0, v_0=K * u_K * u_0,
                      u_K_values=_K_values(U, u_K))


def ribbon_centrality_checks(p):
    """v_0 commutes with the generators; u_K is invertible."""
    return _ribbon_centrality(ribbon_element(p))


def _ribbon_centrality(R):
    """ribbon_centrality_checks, given R = ribbon_element(p)."""
    U, checks = R.v_0.algebra, []
    for name, diff in _commutators(U, R.v_0):
        checks.append(check("v0_commutes_with_%s" % name, not diff,
                            witnesses=[{"generator": name,
                                        "difference": repr(-diff)}]
                            if diff else None))
    checks.append(_u_K_invertible(U, R.u_K))
    return checks


def _commutators(U, v):
    """(name, g*v - v*g) for each generator g of U.  When sigma is an
    anti-automorphism of U (mirror_premise: sigma(m) = m[::-1] on normal
    monomials) and sigma(v) = v, a generator whose mirror came before takes
    -sigma of the mirror's difference, as sigma(h*v - v*h) = v*sigma(h) -
    sigma(h)*v; on uqsl2(p), E takes -sigma([F, v]) and no ad(E).  v_0 is
    sigma-fixed: its monomials F^a K^b E^a are.  A diagonal generator that
    commutes with every monomial of v (U._diagonal_commutant) has
    difference 0 with no product, as K has with v_0 on uqsl2(p)."""
    fixed = U.mirror_premise() and all(
        v.terms.get(m[::-1]) == c for m, c in v.terms.items())
    out, diffs = [], {}
    for name, g in U.generator_monos.items():
        mirror = diffs.get(g[::-1]) if fixed else None
        if mirror is not None:
            diff = -U.element({m[::-1]: c for m, c in mirror.terms.items()})
        elif U._diagonal_commutant(g, list(v.terms)) == list(v.terms):
            diff = U.zero()
        else:
            diff = U.ad(g)(v)
        diffs[g] = diff
        out.append((name, diff))
    return out


def _u_K_invertible(U, u_K):
    """The check that u_K is invertible in U = uqsl2(p), by the evaluation
    lemma when u_K is a polynomial in K, else by the rank of L_{u_K}.

    The lemma: K^p = 1 in U, and 1, K, ..., K^(p-1) are distinct normal
    monomials, so k[K] = k[t]/(t^p - 1); t^p - 1 has the p distinct roots
    xi^j in Q(zeta_p), so evaluation at them (_K_values) is a ring
    isomorphism k[K] -> k^p.  So u_K is a unit of k[K], and hence of U,
    exactly when no u_K(xi^j) is 0, and then L_{u_K} has rank dim U.  A
    zero value, or a term off the K^i, leaves it to the rank."""
    values, n = _K_values(U, u_K), U.dim
    if values is not None and all(values):
        rank = n
    else:
        rank = U.left_mult_operator(u_K).rank()
    return check("u_K_invertible", rank == n, details="rank %d of %d" % (rank, n))


def _K_values(U, u):
    """[u(xi^j) for j < p] for u = sum_i c_i K^i in U = uqsl2(p), p^2
    products, or None when u has a term off the K^i."""
    if any(a or c for a, _, c in u.terms):
        return None
    return [sum(c * root_of_unity(U.p, i * j) for (_, i, _), c in u.terms.items())
            for j in range(U.p)]


def ribbon_prefactor(p, mu):
    """The scalar q^{m(mu^2 - 1)} relating varsigma and the v_0-action,
    with q = xi^m and m = (p - 1)/2 as in uqsl2(p)."""
    return root_of_unity(p, _prefactor_exponent(p, mu))


def _prefactor_exponent(p, mu):
    """t = m^2 (mu^2 - 1) mod p, so that ribbon_prefactor(p, mu) = xi^t."""
    m = (p - 1) // 2
    return m * m * (mu * mu - 1) % p


def verify_ribbon_identity(p, mu):
    """Two independent checks that varsigma = q^{m(mu^2-1)} v_0.

    (a) per-degree scalar identity against K u_K at K = q^{mu-1} xi^{-i} =
    xi^e, read as xi^e u_K(xi^e) off RibbonData.u_K_values, one lookup per
    degree; (b) the element identity w = q^{m(mu^2-1)} psi(v_0) in
    d_a_mu(p, mu), which is the operator identity on the regular
    representation, a faithful one.
    """
    # the guard of the p^3 regular module first: it trips before uqsl2(p)
    # and the ribbon element are built
    _check_regular_guard(p, mu % p)
    R = ribbon_element(p)
    psi0 = _psi_v0(p, R)
    return _ribbon_identity(p, mu % p, R, psi0, _rank_one_table(p, psi0))


def _ribbon_identity(p, mu, R, psi0, table):
    """verify_ribbon_identity for 0 <= mu < p, given R = ribbon_element(p),
    psi0 = _psi_v0(p, R) and table = _rank_one_table(p, psi0).

    Route (b): w has the terms P_b c_j xi^(-bj) z^j g^b x^j (module
    docstring), and psi(v_0) in d_a_mu(p, mu) is phi_s(psi0), s = mu/2 mod
    p, for the isomorphism phi_s: g -> xi^s g from d_a_mu(p, 0), which
    multiplies the coefficient of z^a g^b x^c by xi^(sb) (q^(-mu) = xi^s,
    and E -> q^mu E, F -> q^(-mu) F fixes each F^j K^k E^j of v_0).  No
    c_j is zero, so w = pref phi_s(psi0) exactly when psi0 has no term off
    the z^j g^b x^j and P_b xi^(-bj-sb) / pref = psi0[j, b, j] / c_j, the
    table, for all j, b.  Completing the square, P_b = xi^(h^2) G_0 with
    h = (mu + b)/2 and G_0 = (1/p) sum_i xi^(-i^2), and pref = xi^t; so the
    left side is the rotation G_(h^2-bj-sb-t), with no product.  The
    witness is w - pref phi_s(psi0) on the monomials where they differ."""
    U = R.v_0.algebra
    if U.signature != ("uqsl2", p):
        raise ValueError("ribbon element of %r, algebra d_a_mu(%d, %d)"
                         % (U.signature, p, mu))
    t = _prefactor_exponent(p, mu)
    pref = root_of_unity(p, t)
    checks = []

    bad = []
    for i in range(p):
        # K u_K at K = kappa = q^(mu-1) xi^(-i) = xi^e is xi^e u_K(xi^e)
        e = (U.m * (mu - 1) - i) % p
        lhs = U.xi ** (-i * i - mu * i)
        rhs = pref * root_of_unity(p, e) * R.u_K_values[e]
        if lhs != rhs:
            bad.append({"degree": i, "sigma_scalar": format_scalar(lhs),
                        "scaled_Ku_K_scalar": format_scalar(rhs)})
    checks.append(check(
        "prefactor_scalar_route", not bad,
        details="xi^{-i^2-mu i} vs q^{m(mu^2-1)} K u_K at "
                "K = q^{mu-1} xi^{-i}, all i",
        witnesses=bad))

    table, off, G = table
    half, coeffs = (p + 1) // 2, None
    s = mu * half % p
    diff = {mono: -pref * root_of_unity(p, s * mono[1]) * c
            for mono, c in off.items()}
    for b, row in enumerate(table):
        h2 = ((mu + b) * half) ** 2
        for j, x in enumerate(row):
            if x != G[(h2 - b * j - s * b - t) % p]:
                coeffs = coeffs or _series_coefficients(p)
                diff[(j, b, j)] = (coeffs[j] * G[(h2 - b * j) % p] - pref
                                   * root_of_unity(p, s * b)
                                   * psi0.get((j, b, j), 0))
    diff = {mono: c for mono, c in diff.items() if c}
    checks.append(check(
        "varsigma_equals_scaled_ribbon", not diff,
        details="on the regular representation (faithful), "
                "prefactor %s" % format_scalar(pref),
        witnesses=[{"difference": [[list(mono), format_scalar(c)]
                                   for mono, c in sorted(diff.items())]}]
        if diff else None))
    return checks


def _rank_one_table(p, psi0):
    """(table, off, G): table[b][j] = psi0[j, b, j] / c_j, as 1/c_j =
    (j)_xi! xi^(-(j-1)j/2) with no inverse; off, the terms of psi0 off the
    z^j g^b x^j; G[k] = xi^k G_0, the exponent vector of -i^2 rotated."""
    table = [[0] * p for _ in range(p)]
    for j, factorial in enumerate(q_factorials(p - 1, root_of_unity(p))):
        unscale = factorial * root_of_unity(p, -(j - 1) * j // 2)
        for b in range(p):
            table[b][j] = psi0.get((j, b, j), 0) * unscale
    counts = [0] * p
    for i in range(p):
        counts[-i * i % p] += 1
    G = [Cyclotomic(p, [v - vec[-1] for v in vec[:-1]], p)
         for vec in (counts[-k:] + counts[:-k] for k in range(p))]
    return table, {m: c for m, c in psi0.items() if m[0] != m[2]}, G


def _psi_v0(p, R):
    """The terms of psi(v_0) in d_a_mu(p, 0), with psi the linear extension
    over normal monomials of E -> q x, F -> z g, K -> q^{-1} g^{p-1}."""
    A = d_a_mu(p, 0)
    z, g, x = A.gen("z"), A.gen("g"), A.gen("x")
    psi = R.v_0.algebra.extend({"E": R.q * x, "F": z * g,
                                "K": R.q ** -1 * g ** (p - 1)},
                               A.unit(), operator.mul)
    return sum((c * psi(mono) for mono, c in R.v_0.terms.items()),
               A.zero()).terms


def verify_ribbon_family(p):
    """All mu at once, plus: the prefactor is a function of mu^2 mod p.

    The ribbon element, psi(v_0) in d_a_mu(p, 0) and the rank-one table of
    _ribbon_identity are built once, and every mu runs the step of
    verify_ribbon_identity on them."""
    # the guard of the p^3 regular modules trips before uqsl2(p) is built
    _check_regular_guard(p, 0)
    return _ribbon_family(ribbon_element(p))


def _ribbon_family(R):
    """verify_ribbon_family, given R = ribbon_element(p).
    prefactor_depends_only_on_mu_squared cannot FAIL: ribbon_prefactor's
    exponent m^2 (mu^2 - 1) is a function of mu^2 mod p."""
    p, checks = R.p, []
    psi0 = _psi_v0(p, R)
    table = _rank_one_table(p, psi0)
    for mu in range(p):
        checks += prefixed("mu=%d: " % mu,
                           _ribbon_identity(p, mu, R, psi0, table))
    prefs = [ribbon_prefactor(p, mu) for mu in range(p)]
    texts = [format_scalar(f) for f in prefs]
    bad = [{"mu": mu, "nu": nu, "prefactors": [texts[mu], texts[nu]]}
           for mu in range(p) for nu in range(p)
           if (mu * mu - nu * nu) % p == 0 and prefs[mu] != prefs[nu]]
    checks.append(check(
        "prefactor_depends_only_on_mu_squared", not bad,
        details="; ".join("mu=%d: %s" % m for m in enumerate(texts)),
        witnesses=bad))
    return checks


def verify_ribbon(p):
    """verify_ribbon_family, ribbon_centrality_checks and
    center_dimension_checks on one uqsl2(p) and one ribbon element, after
    the family's guard."""
    _check_regular_guard(p, 0)
    R = ribbon_element(p)
    return (_ribbon_family(R) + _ribbon_centrality(R)
            + center_dimension_checks(R.v_0.algebra))


def center_dimension_checks(U):
    """The center of U = uqsl2(p) has dimension 1 + 3(p-1)/2: the nullity
    of U.center_matrix(), with no kernel basis."""
    p, dim = U.p, U.center_matrix()[0].nullity()
    expected = 1 + 3 * (p - 1) // 2
    ok = dim == expected
    return [check(
        "p=%d: center dimension is 1 + 3(p-1)/2" % p, ok,
        details="dim Z = %d, expected %d" % (dim, expected),
        witnesses=None if ok else [{"dim": dim, "expected": expected}])]


# ---------------------------------------------------------------------------
# stable-part dimensions
# ---------------------------------------------------------------------------


def stable_analysis(p, mu):
    """Kernel dimensions of T^k, T = 1 - varsigma, on the regular module.

    Returns {"p", "mu", "dim", "kernel_dims": {1: _, 2: _, dim: _},
    "stabilization_power", "chain"}; ker T^k is constant from the first repeat.

    varsigma takes z^a e_t x^c only to z^{a+d} e_{t+d} x^{c+d}, d >= 0, so
    it is lower triangular on each of the 2p^2 - p strings of fixed
    (a - c, (t - c) mod p), ordered by c, with entries xi^{-i^2 - mu i}
    S(a, u, d), i = t - a and u = (mu + 2t) mod p: d = 0 on the diagonal,
    d = 1 on the first subdiagonal.  S(a, u, d) = sum_{l <= a} c_{d+l}
    W(d, l) sums the paths of x^{d+l} through d raisings and l lowerings,
    where W(0, 0) = 1 and

        W(d, l) = xi^{a-l} W(d-1, l)
                  + (a-l+1)_xi (xi^{a-l+1-u-2d} - 1) W(d, l-1).

    Lemma: S(a, u, 0) = xi^{a(a-u)} for every prime p and a < p, and
    S(a, u, 1) = xi^{a(a-u)} for a + 1 < p, so neither is 0.  By induction
    on l, with (l+1)_xi = (l)_xi + xi^l,

        W(0, l) = (a)_xi!/(a-l)_xi! prod_{k=a-l+1}^{a} (xi^{k-u} - 1),
        W(1, l) = xi^{a-l} (l+1)_xi (a)_xi!/(a-l)_xi!
                  prod_{k=a-l}^{a-1} (xi^{k-u} - 1).

    With X = xi^{a-u} and c_l = xi^{(l-1)l/2}/(l)_xi!, these give, for
    l <= a,

        c_l W(0, l) = [a l]_xi prod_{j<l} (X - xi^j),
        c_{l+1} W(1, l) = xi^a [a l]_xi prod_{j<l} (X/xi - xi^j),

    and the q-Newton expansion x^a = sum_l [a l]_q prod_{j<l} (x - q^j)
    (Kac and Cheung, Quantum Calculus), a polynomial identity in q and x,
    sums them to X^a and xi^a (X/xi)^a = X^a.  The first inverts only
    (l)_xi! for l <= a < p, the second (l+1)_xi! for l + 1 <= a + 1 < p,
    and no (j)_xi with 0 < j < p vanishes.  With u = mu + 2t and
    i = t - a, the diagonal entry at z^a e_t x^c is then

        xi^{-i^2 - mu i} xi^{a(a-u)} = xi^{-t(t+mu)},

    whatever a and c, so varsigma = 1 there exactly when p divides
    t(t + mu).  The strings on a line of fixed i mod p, ordered by a, are
    its p suffixes and p - 1 proper prefixes, so the subdiagonal entries of
    all strings are xi^{-i^2 - mu i} S(a, u, 1) with a + 1 < p, and none
    vanishes.  So each eigenvalue on a string has geometric multiplicity 1
    (Golub and Van Loan, Matrix Computations, 7.4; Horn and Johnson,
    Matrix Analysis): 0 is one Jordan block of size z_b, the number of
    diagonal entries of string b where p divides t(t + mu), so
    dim ker T^k = sum_b min(k, z_b).  On line i, t = a + i, so the
    predicate holds at a = -i and a = -i - mu (mod p), once when mu = 0.
    A place h lies in the h + 1 suffixes starting at or before it and the
    p - 1 - h prefixes longer than it, p strings, so sum_b z_b is p^2 or
    2 p^2, every z_b at most 2, and the whole line 2.  Two places lo < hi
    share p - (hi - lo) strings, and hi - lo is mu on p - mu lines and
    p - mu on mu lines, so p^2 - 2 mu (p - mu) strings hold both: the
    chain is [p^2] for mu = 0, else [p^2 + 2 mu (p - mu), 2 p^2].  The
    tests count it along each line (tests/oracle.py::
    stable_chain_by_line_counts) and sum the diagonal in Q(zeta_p)
    (tests/oracle.py::series_tables).
    """
    mu %= p
    _check_regular_guard(p, mu)
    _require_prime(p)
    chain = [p * p + 2 * mu * (p - mu), 2 * p * p] if mu else [p * p]
    return {"p": p, "mu": mu, "dim": p ** 3,
            "kernel_dims": {1: chain[0], 2: chain[-1], p ** 3: chain[-1]},
            "stabilization_power": len(chain), "chain": chain}


def sweedler_checks(mu):
    """The p = 2 closed forms on the regular representation.

    For mu = 0 (with y = -z): xy + yx = 2 and varsigma = (-1)^i (1 - yx);
    for mu = 1: xz + zx = 0 and varsigma = 1 + zx.
    """
    mu %= 2
    M = regular_ayd_module(2, mu)
    x, z, one = M.xop, M.zop, GradedMap.identity(M.space)
    if mu == 0:
        y = z.scale(-1)
        checks = [map_check("anticommutator_xy_plus_yx", x @ y + y @ x,
                            one.scale(2), details="with y = -z: xy + yx = 2")]
        closed = GradedMap.from_diagonal(M.space, lambda d: (-1) ** d) @ (
            one - y @ x)
        form = "varsigma = (-1)^i (1 - yx)"
    else:
        checks = [map_check("anticommutator_xz_plus_zx", x @ z + z @ x,
                            GradedMap.zero(M.space, M.space),
                            details="xz + zx = 0")]
        closed, form = one + z @ x, "varsigma = 1 + zx"
    checks.append(map_check("sigma_closed_form", varsigma_H(M), closed,
                            details=form))
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
    try:
        return parse_scalar(v, p)
    except FieldError as exc:
        raise ParseError("entry %r is not in Q(zeta_%d)" % (v, p), exc.line,
                         exc.col) from None


_MODULE_KEYS = ("p", "mu", "degrees", "x", "z")


def ayd_module_from_json(data):
    """Build an AydModule from a JSON object {"p", "mu", "degrees", "x", "z"}.

    p is a prime, mu and the degrees are integers; x and z are dense
    row-major matrices whose entries are integers or strings in the scalar
    syntax (e.g. "q(3,2) - 1", "1/2") with values in Q(zeta_p).  Anything
    else, a value that is no JSON object or a missing key included, raises
    ValueError naming the fault.  p and the dimension pass the dimension
    guard before any entry is read.
    """
    if type(data) is not dict:
        raise ValueError("a module file holds a JSON object with the keys "
                         + ", ".join(_MODULE_KEYS))
    for key in _MODULE_KEYS:
        if key not in data:
            raise ValueError("module file has no key %r" % key)
    p = _int_field(data, "p")
    if not is_prime(p):
        raise ValueError("p must be prime, got %d" % p)
    mu = _int_field(data, "mu")
    degrees = data["degrees"]
    if type(degrees) is not list or any(type(d) is not int for d in degrees):
        raise ValueError("'degrees' must be a list of integers")
    check_guard(p, "Z/%d grading of a module file" % p)
    check_guard(len(degrees), "module file")
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
