"""Sigma operators, the uqsl2 dictionary, the ribbon identity, and the
frozen stable-dimension table."""

import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhl
from bhl import ayd, scalars
from bhl.algebras import (DimensionGuardError, FiniteDimAlgebra,
                          PresentedAlgebra, d_a_mu, taft, uqsl2)
from bhl.ayd import (
    AydModule,
    ayd_module_from_json,
    ayd_module_to_json,
    regular_ayd_module,
    ribbon_centrality_checks,
    ribbon_element,
    ribbon_prefactor,
    stable_analysis,
    sweedler_checks,
    varsigma_H,
    verify_ayd,
    verify_ribbon_family,
    verify_ribbon_identity,
)
from bhl.exactmat import Mat
from bhl.graded import GradedMap, GradedSpace
from bhl.report import FAIL, PASS
from bhl.scalars import Cyclotomic, gauss_sum, root_of_unity
from oracle import (
    AlgebraModule,
    act_matrix_by_sums,
    as_module,
    dims_by_degree,
    is_invertible,
    is_prime_by_trial_division,
    kernel_chain_by_powers,
    prefactor_route_by_sums,
    psi_v0_by_substitution,
    regular_ayd_by_conjugation,
    regular_module,
    replace,
    ribbon_identity_by_matrices,
    ribbon_identity_by_terms,
    right_mult_operator,
    run_script,
    series_tables,
    sigma_diagonals_by_mu,
    stable_chain_by_line_counts,
    stable_chain_by_strings,
    to_uqsl2,
    trivial_ayd_module,
    twisted_psi_v0,
    typed_entries,
    typed_terms,
    u_K_invertible_by_inverse,
    values_by_sums,
    verify_module,
    w_by_product,
    w_terms,
)

DATA_DIR = pathlib.Path(bhl.__file__).parent / "data"


def ribbon_identity(p, mu, R, psi0):
    """ayd._ribbon_identity on the rank-one table of psi0."""
    return ayd._ribbon_identity(p, mu, R, psi0, ayd._rank_one_table(p, psi0))


# Kernel dimensions of (1 - varsigma)^k on the regular representation for
# k = 1, 2, dim, plus the stabilization power.  Computed independently by
# scripts/stable_dims_table.py, which works with algebra *elements*
# (powers of 1 - w for the sigma element w, including the literal
# dim-th power) rather than with the operator matrices used here.
STABLE_DIMS = {
    (2, 0): (4, 4, 4, 1),
    (2, 1): (6, 8, 8, 2),
    (3, 0): (9, 9, 9, 1),
    (3, 1): (13, 18, 18, 2),
    (3, 2): (13, 18, 18, 2),
    (5, 0): (25, 25, 25, 1),
    (5, 1): (33, 50, 50, 2),
    (5, 2): (37, 50, 50, 2),
    (5, 3): (37, 50, 50, 2),
    (5, 4): (33, 50, 50, 2),
}


def all_pass(checks):
    return all(c["status"] == PASS for c in checks)


# ---------------------------------------------------------------------------
# the defining identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,mu", sorted(STABLE_DIMS))
def test_regular_representation_verifies(p, mu):
    M = regular_ayd_module(p, mu)
    assert M.dim == p ** 3
    assert all_pass(verify_ayd(M))


@pytest.mark.parametrize("mu", [0, 1, 2])
def test_regular_rep_is_a_module_over_the_presented_algebra(mu):
    # independent route: the same data as generator actions must satisfy
    # every defining relation of d_a_mu(3, mu)
    M = as_module(regular_ayd_module(3, mu))
    assert all_pass(verify_module(M))


def test_regular_rep_grading_dimensions():
    M = regular_ayd_module(2, 1)
    assert dims_by_degree(M.space) == (4, 4)
    M3 = regular_ayd_module(3, 0)
    assert dims_by_degree(M3.space) == (9, 9, 9)


def test_eigenbasis_conjugates_left_multiplication():
    # the closed-form action is left multiplication seen in the eigenbasis
    M = regular_ayd_module(3, 1)
    oracle = regular_ayd_by_conjugation(3, 1)
    A, P = oracle.algebra, oracle.basis_change
    assert A.left_mult_operator(A.gen("x")) * P == P * M.xop.mat
    assert A.left_mult_operator(A.gen("z")) * P == P * M.zop.mat
    gdiag = as_module(M).ops["g"].mat
    assert A.left_mult_operator(A.gen("g")) * P == P * gdiag


@pytest.mark.parametrize("p,mu", [
    # the old route costs about 0.8 s per module at p = 7
    pytest.param(p, mu, marks=[pytest.mark.slow] if p == 7 and mu > 1 else [])
    for p in (2, 3, 5, 7) for mu in range(p)])
def test_closed_form_matches_conjugated_left_multiplication(p, mu):
    M, oracle = regular_ayd_module(p, mu), regular_ayd_by_conjugation(p, mu)
    assert M.xop == oracle.xop and M.zop == oracle.zop
    assert M.space.degrees == oracle.space.degrees
    assert list(M.space.labels) == list(oracle.space.labels)


def test_regular_module_builds_no_left_multiplication(monkeypatch):
    # the closed form never forms the p^3 x p^3 left-multiplication matrices
    def refuse(self, el):
        raise AssertionError("left_mult_operator called")

    monkeypatch.setattr(PresentedAlgebra, "left_mult_operator", refuse)
    M = regular_ayd_module(5, 2)
    assert M.dim == 125 and all_pass(verify_ayd(M))


def test_trivial_module_controls():
    for p in (2, 3, 5):
        assert all_pass(verify_ayd(trivial_ayd_module(p, 1)))
    for p in (3, 5):
        bad = verify_ayd(trivial_ayd_module(p, 0))
        failed = [c for c in bad if c["status"] == FAIL]
        assert [c["name"] for c in failed] == ["xz_commutation"]
        assert failed[0]["witnesses"]


def test_mu_is_reduced_mod_p():
    assert regular_ayd_module(3, 4).mu == 1
    assert regular_ayd_module(3, -1).mu == 2
    assert trivial_ayd_module(5, 11).mu == 1


# ---------------------------------------------------------------------------
# the sigma operator
# ---------------------------------------------------------------------------


def test_sigma_on_trivial_module_is_identity():
    M = trivial_ayd_module(5, 1)
    assert varsigma_H(M) == GradedMap.identity(M.space)


@pytest.mark.parametrize("p,mu", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
                                  (5, 2)])
def test_sigma_invertible_and_central(p, mu):
    M = regular_ayd_module(p, mu)
    s = varsigma_H(M)
    assert s.shift == 0
    assert is_invertible(s)
    assert s @ M.xop == M.xop @ s
    assert s @ M.zop == M.zop @ s


def test_sigma_is_natural_for_right_multiplications():
    # right multiplications commute with the left action, so they are
    # endomorphisms of the regular AydModule; sigma must commute with them
    M = regular_ayd_module(3, 1)
    oracle = regular_ayd_by_conjugation(3, 1)
    A, P, s = oracle.algebra, oracle.basis_change, varsigma_H(M)
    Pinv = P.inverse()
    g = A.gen("g")
    for el in (g, g * g, A.gen("z") * A.gen("x")):
        R = GradedMap(M.space, M.space,
                      Pinv * right_mult_operator(A, el) * P)
        assert s @ R == R @ s


@pytest.mark.parametrize("p,mu", [
    (p, mu) for p in (2, 3, 5, 7) for mu in range(p)] + [
    # the series costs about 1.2 s at p = 11 and 2.8 s at p = 13
    pytest.param(p, mu, marks=pytest.mark.slow)
    for p, mu in ((11, 0), (11, 1), (13, 1))])
def test_sigma_matches_the_series(monkeypatch, p, mu):
    # the diagonal off the one table per p, and the first subdiagonal by
    # the per-mu recursion, against the diagonal and first subdiagonal of
    # the series that varsigma_H sums on the whole module; and that
    # diagonal against the closed form xi^{-t(t+mu)} that stable_analysis
    # counts, with no table in between
    monkeypatch.setenv("BHL_DIM_GUARD", "3000")
    n = p ** 3
    diag, sub = sigma_diagonal(p, mu), sigma_diagonals_by_mu(p, mu)[1]
    tables = {}
    for a in range(p):
        for t in range(p):
            for c in range(p):
                col = (a * p + t) * p + c
                tables[col, col] = diag[a][t]
                if a + 1 < p and c + 1 < p:
                    row = ((a + 1) * p + (t + 1) % p) * p + c + 1
                    tables[row, col] = sub[a][t]
    sigma = varsigma_H(regular_ayd_module(p, mu)).mat
    near = {key: v for key, v in sigma.data.items() if key in tables}
    assert typed_entries(Mat(n, n, {k: v for k, v in tables.items() if v})) \
        == typed_entries(Mat(n, n, near))
    for col in range(n):
        t = col // p % p
        assert sigma[col, col] == root_of_unity(p, -t * (t + mu))


def sigma_diagonal(p, mu):
    """E(a, t, 0) = xi^{-i^2 - mu i} S(a, (mu + 2t) mod p), i = t - a, the
    diagonal of varsigma on the regular module, from the one table S of
    oracle.series_tables."""
    series = series_tables(p)
    return [[root_of_unity(p, -(t - a) ** 2 - mu * (t - a))
             * series[a][(mu + 2 * t) % p] for t in range(p)]
            for a in range(p)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_sigma_diagonals_are_the_closed_form(p):
    # the lemma of stable_analysis: S(a, u, 0) = xi^{a(a-u)} on the table
    # for all a, and S(a, u, 1) = xi^{a(a-u)} for a + 1 < p by the per-mu
    # recursion; with u = mu + 2t and i = t - a, both diagonals of
    # varsigma are then xi^{-t^2-mu t}, never 0
    series = series_tables(p)
    for a in range(p):
        for u in range(p):
            assert series[a][u] == root_of_unity(p, a * (a - u))
    for mu in range(p):
        sub = sigma_diagonals_by_mu(p, mu)[1]
        for a in range(p - 1):
            for t in range(p):
                i, u = t - a, mu + 2 * t
                assert sub[a][t] == root_of_unity(
                    p, -i * i - mu * i + a * (a - u))


@pytest.mark.slow
@pytest.mark.parametrize("p", [17, 23, 29])
def test_series_table_is_the_closed_form_at_large_p(p):
    # the diagonal half of the lemma on the table summed in Q(zeta_p),
    # where stable_analysis counts its closed form; the per-mu subdiagonal
    # recursion costs too much here
    series = series_tables(p)
    for a in range(p):
        for u in range(p):
            assert series[a][u] == root_of_unity(p, a * (a - u))


@pytest.mark.parametrize("a", list(range(5)) + [
    # cancel takes about 1 to 3.5 s at a = 5 to 7
    pytest.param(a, marks=pytest.mark.slow) for a in (5, 6, 7)])
def test_sigma_diagonal_lemma_in_generic_q(a):
    # the path recursion of stable_analysis in generic q and y = q^{-u},
    # so that xi^{k-u} is q^k y: both closed forms of W, and S(a, u, 0) =
    # S(a, u, 1) = X^a with X = q^a y, which the q-Newton expansion gives
    sympy = pytest.importorskip("sympy")
    q, y = sympy.symbols("q y")

    def q_int(k):
        return sympy.Add(*[q ** j for j in range(k)])

    def q_factorial(k):
        return sympy.Mul(*[q_int(j) for j in range(1, k + 1)])

    def lowering(k, d):
        # (k)_q (xi^{k-u-2d} - 1), the weight of a lowering after d raisings
        return q_int(k) * (q ** (k - 2 * d) * y - 1)

    def vanishes(expr):
        return sympy.cancel(expr) == 0

    W0, W1 = [1], [q ** a]
    for l in range(1, a + 1):
        W0.append(lowering(a - l + 1, 0) * W0[l - 1])
        W1.append(q ** (a - l) * W0[l] + lowering(a - l + 1, 1) * W1[l - 1])
    for l in range(a + 1):
        ratio = q_factorial(a) / q_factorial(a - l)
        assert vanishes(W0[l] - ratio * sympy.Mul(
            *[q ** k * y - 1 for k in range(a - l + 1, a + 1)]))
        assert vanishes(W1[l] - q ** (a - l) * q_int(l + 1) * ratio
                        * sympy.Mul(*[q ** k * y - 1
                                      for k in range(a - l, a)]))
    c = [q ** ((l - 1) * l // 2) / q_factorial(l) for l in range(a + 2)]
    for d, W in enumerate((W0, W1)):
        assert vanishes(sum(c[d + l] * w for l, w in enumerate(W))
                        - q ** (a * a) * y ** a)


def typed_tables(tables):
    return [[[(type(v).__name__, repr(v)) for v in row] for row in table]
            for table in tables]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_sigma_diagonals_match_the_per_mu_recursion(p):
    # the view of the one table per p, read at u = mu + 2t, against the
    # path recursion run for each mu alone, value and type
    for mu in range(p):
        assert typed_tables([sigma_diagonal(p, mu)]) \
            == typed_tables(sigma_diagonals_by_mu(p, mu)[:1])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 6))
def test_sigma_keeps_a_minus_c_and_t_minus_c(p, mu):
    # z^a e_t x^c only reaches z^{a+d} e_{t+d} x^{c+d}: the blocks of
    # fixed a - c and (t - c) mod p are invariant
    def coords(index):
        return index // (p * p), index // p % p, index % p

    sigma = varsigma_H(regular_ayd_module(p, mu))
    assert sigma.mat.data
    for row, col in sigma.mat.data:
        (a2, t2, c2), (a, t, c) = coords(row), coords(col)
        assert a2 - c2 == a - c
        assert (t2 - c2 - t + c) % p == 0


def sample_module():
    return ayd_module_from_json(
        json.loads((DATA_DIR / "sample_module_p3_mu1.json").read_text()))


@settings(max_examples=20, deadline=None)
@given(st.one_of(
    st.builds(trivial_ayd_module, st.sampled_from([2, 3, 5, 7, 11]),
              st.integers(-20, 20)),
    st.builds(sample_module)))
def test_sigma_of_other_modules_is_invertible_and_commutes(M):
    s = varsigma_H(M)
    assert s.shift == 0
    assert is_invertible(s)
    assert s @ M.xop == M.xop @ s
    assert s @ M.zop == M.zop @ s


@pytest.mark.parametrize("mu", [0, 1])
def test_p2_closed_forms(mu):
    assert all_pass(sweedler_checks(mu))


def test_p2_element_identities_on_the_regular_rep():
    # xz + zx acts by -2 for mu=0 and by 0 for mu=1
    for mu, scalar in ((0, -2), (1, 0)):
        M = regular_ayd_module(2, mu)
        anti = M.xop @ M.zop + M.zop @ M.xop
        assert anti == GradedMap.identity(M.space).scale(scalar)


# ---------------------------------------------------------------------------
# the uqsl2 dictionary and the ribbon element
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,mu", [(3, 0), (3, 1), (3, 2), (5, 1)])
def test_to_uqsl2_satisfies_the_relations(p, mu):
    U = to_uqsl2(regular_ayd_module(p, mu))
    assert all_pass(verify_module(U))


def test_to_uqsl2_trivial_module():
    U = to_uqsl2(trivial_ayd_module(3, 1))
    assert U.ops["K"].mat == GradedMap.identity(U.space).mat
    assert U.ops["E"].mat.is_zero()
    assert U.ops["F"].mat.is_zero()


def test_to_uqsl2_rejects_p2():
    with pytest.raises(ValueError, match="odd prime"):
        to_uqsl2(regular_ayd_module(2, 0))


def test_to_uqsl2_commutes_with_module_maps():
    M = regular_ayd_module(3, 2)
    oracle = regular_ayd_by_conjugation(3, 2)
    A, P, U = oracle.algebra, oracle.basis_change, to_uqsl2(M)
    R = GradedMap(M.space, M.space,
                  P.inverse() * right_mult_operator(A, A.gen("g")) * P)
    for name in ("E", "F", "K"):
        assert U.ops[name] @ R == R @ U.ops[name]


def random_element(A, rng, terms):
    """A sum of `terms` random normal monomials of A, with coefficients
    drawn from ints, Fractions and powers of the algebra's xi."""
    coeffs = [lambda: rng.randint(-3, 3),
              lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
              lambda: rng.randint(1, 3) * A.xi ** rng.randrange(A.p)]
    return A.element({rng.choice(A.basis): rng.choice(coeffs)()
                      for _ in range(terms)})


@pytest.mark.parametrize("p", [3, 5])
def test_act_matrix_matches_the_running_sum(p):
    R = ribbon_element(p)
    U = R.v_0.algebra
    elements = [el for _, el in U.generators()] + [R.u_K, R.u_0, R.v_0]
    rng = random.Random(20 + p)
    for mu in range(p):
        M = to_uqsl2(regular_ayd_module(p, mu))
        for el in elements + [random_element(U, rng, 2 * p)
                              for _ in range(4)]:
            assert typed_entries(M.act_matrix(el)) == \
                typed_entries(act_matrix_by_sums(M, el)), (mu, el)
        # g acts diagonally on the d_a_mu(p, mu)-module too
        D = as_module(regular_ayd_module(p, mu))
        for _ in range(4):
            el = random_element(D.algebra, rng, 2 * p)
            assert typed_entries(D.act_matrix(el)) == \
                typed_entries(act_matrix_by_sums(D, el)), (mu, el)


@pytest.mark.slow
@pytest.mark.parametrize("mu", range(7))
def test_act_matrix_matches_the_running_sum_p7(mu):
    R = ribbon_element(7)
    M = to_uqsl2(regular_ayd_module(7, mu))
    for el in (R.u_K, R.u_0, R.v_0):
        assert typed_entries(M.act_matrix(el)) == \
            typed_entries(act_matrix_by_sums(M, el)), el


def test_act_matrix_refuses_an_element_of_another_algebra():
    # v_0 of another uqsl2(3) instance acts; an element of d_a_mu does not
    M = to_uqsl2(regular_ayd_module(3, 1))
    with pytest.raises(ValueError, match="acting on a module over"):
        M.act_matrix(d_a_mu(3, 1).gen("z"))
    assert M.act_matrix(ribbon_element(3).v_0).rows == 27


def test_act_matrix_with_a_zero_on_the_diagonal():
    # g acts by 0 on the first basis vector, where only the terms without
    # g act, so their coefficients keep their type there
    A = taft(3)
    V = GradedSpace(A.N, [0, 0, 0])
    xi = A.xi
    M = AlgebraModule(A, V, {
        "g": GradedMap(V, V, Mat.diagonal([0, xi, 1])),
        "x": GradedMap(V, V, Mat.from_rows([[0, 1, 2], [xi, 0, 0],
                                            [1, 1, 0]])),
    })
    rng = random.Random(5)
    for el in [A.element({(0, 1): 2, (1, 1): xi, (2, 0): 3})] + \
            [random_element(A, rng, 5) for _ in range(20)]:
        assert typed_entries(M.act_matrix(el)) == \
            typed_entries(act_matrix_by_sums(M, el)), el


def test_act_matrix_without_a_diagonal_generator_sums(monkeypatch):
    # on uqsl2(3) acting on itself no generator acts diagonally (L_K
    # raises the K exponent), so the running sum is the route
    U = uqsl2(3)
    M = regular_module(U)
    sums = []
    real = AlgebraModule._act_by_sums

    def spied(self, element):
        sums.append(element)
        return real(self, element)

    monkeypatch.setattr(AlgebraModule, "_act_by_sums", spied)
    R = ribbon_element(3)
    rng = random.Random(7)
    for el in [R.u_K, R.v_0] + [random_element(U, rng, 6) for _ in range(4)]:
        assert typed_entries(M.act_matrix(el)) == \
            typed_entries(act_matrix_by_sums(M, el)), el
    assert len(sums) == 6


def test_ribbon_action_takes_one_product_per_group(monkeypatch):
    # F^j K^k E^j: the p - 1 products F^j D E^j with j > 0, after the
    # p - 1 powers of F and of E, not one composite per monomial
    p = 5
    v_0 = ribbon_element(p).v_0
    M = to_uqsl2(regular_ayd_module(p, 1))
    products = []
    real = Mat.__mul__

    def counted(self, other):
        products.append(self.rows)
        return real(self, other)

    monkeypatch.setattr(Mat, "__mul__", counted)
    M.act_matrix(v_0)
    assert len(products) <= 3 * p


def test_ribbon_element_structure():
    R = ribbon_element(3)
    U = R.v_0.algebra
    assert R.u_0.terms[(0, 0, 0)] == 1  # j = 0 term of u_0
    assert R.v_0 == U.gen("K") * R.u_K * R.u_0
    assert all(f == e == 0 for f, _, e in R.u_K.terms)
    assert R.u_K_values == values_by_sums(R.u_K)
    assert R.q == U.q and R.m == (3 - 1) // 2


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sum_inverse_matches_the_norm_route(monkeypatch, p):
    # u_K's coefficients alpha_i = q^(m i^2)/G with G inverted through
    # sigma_-1, against Cyclotomic.inverse, by type and repr; the only
    # addition chain left is that of inverse_factorials
    chains = []
    real = scalars._norm_cofactor
    monkeypatch.setattr(scalars, "_norm_cofactor",
                        lambda x: chains.append(x) or real(x))
    R = ribbon_element(p)
    assert len(chains) == (p > 3)
    inv_gs = gauss_sum(p, R.q, R.m).inverse()
    assert typed_terms(R.u_K.terms) == typed_terms({
        (0, i, 0): inv_gs * R.q ** (R.m * i * i) for i in range(p)})


@pytest.mark.parametrize("p", [3, 5, 7])
def test_prefactor_scalar_route_reads_K_u_K(p):
    # route (a) reads K u_K off the transform kept in RibbonData: with the
    # values scaled, only that route fails, at every degree
    R = ribbon_element(p)
    psi0 = ayd._psi_v0(p, R)
    scaled = replace(R, u_K_values=[2 * v for v in R.u_K_values])
    for mu in range(p):
        checks = ribbon_identity(p, mu, scaled, psi0)
        assert [c["status"] for c in checks] == [FAIL, PASS]
        assert len(checks[0]["witnesses"]) == p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_prefactor_scalar_route_matches_the_sums(p):
    # one lookup in the transform per degree against K u_K summed over its
    # terms for each degree, on the ribbon element and on one whose u_K is
    # doubled, with its transform taken afresh: the same check dict
    R = ribbon_element(p)
    psi0 = ayd._psi_v0(p, R)
    table = ayd._rank_one_table(p, psi0)
    doubled = replace(R, u_K=2 * R.u_K, u_K_values=values_by_sums(2 * R.u_K))
    for S, status in ((R, PASS), (doubled, FAIL)):
        for mu in range(p):
            route = ayd._ribbon_identity(p, mu, S, psi0, table)[0]
            assert route["status"] == status
            if status == FAIL:
                assert len(route["witnesses"]) == p
            assert route == prefactor_route_by_sums(p, mu, S)


@pytest.mark.parametrize("p", [3, 5])
def test_ribbon_element_is_central(p):
    assert all_pass(ribbon_centrality_checks(p))


def test_ribbon_centrality_fails_with_a_witness_off_the_center():
    R = ribbon_element(3)
    F = R.v_0.algebra.gen("F")
    checks = ayd._ribbon_centrality(replace(R, v_0=R.v_0 + F))
    assert [c["status"] for c in checks] == [PASS, FAIL, FAIL, PASS]
    assert checks[1]["witnesses"][0]["generator"] == "K"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_commutators_take_the_mirror_on_sigma_fixed_elements(monkeypatch, p):
    # v_0 and v_0 + F*E are sigma-fixed: E's difference is -sigma of F's,
    # with no ad(E), and equals U.ad(E)(v) by type and repr.  K commutes
    # with each of their monomials, so it takes no ad(K).  v_0 + F is
    # neither sigma-fixed nor commuting with K, so K and E take ad
    R = ribbon_element(p)
    U = R.v_0.algebra
    F, E = U.gen("F"), U.gen("E")
    taken = []
    ad = U.ad
    monkeypatch.setattr(U, "ad", lambda g: taken.append(U.mono_label(g))
                        or ad(g))
    for v, direct in ((R.v_0, ["F"]), (R.v_0 + F * E, ["F"]),
                      (R.v_0 + F, ["F", "K", "E"])):
        taken.clear()
        got = ayd._commutators(U, v)
        assert taken == direct
        assert [name for name, _ in got] == ["F", "K", "E"]
        for (name, diff), (_, g) in zip(got, U.generators()):
            assert typed_terms(diff.terms) == typed_terms(ad(
                next(iter(g.terms)))(v).terms), name


@pytest.mark.parametrize("p", [3, 5, 7])
def test_center_dimension_is_the_number_of_center_vectors(p):
    # the nullity of center_matrix, against the kernel basis
    [c] = ayd.center_dimension_checks(uqsl2(p))
    assert c["status"] == PASS
    assert c["details"] == "dim Z = %d, expected %d" % (
        len(uqsl2(p).compute_center()), 1 + 3 * (p - 1) // 2)


def count_ranks(monkeypatch):
    ranks = []
    real = Mat.rank

    def counted(self):
        ranks.append(self.rows)
        return real(self)

    monkeypatch.setattr(Mat, "rank", counted)
    return ranks


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ribbon_centrality_inverts_u_K_without_a_rank(monkeypatch, p):
    ranks = count_ranks(monkeypatch)
    checks = ribbon_centrality_checks(p)
    assert checks[-1]["name"] == "u_K_invertible"
    assert checks[-1]["status"] == PASS
    assert checks[-1]["details"] == "rank %d of %d" % (p ** 3, p ** 3)
    assert ranks == []


@pytest.mark.parametrize("p", [3, 5, 7])
def test_u_K_invertible_agrees_with_the_rank(p):
    # the evaluation lemma against the rank of L_{u_K}, and against y with
    # u_K*y = 1 = y*u_K and the rank fallback (oracle): the same check
    # dict, verdict and details, on u_K, 1 - K (a zero value), u_K + F (no
    # polynomial in K) and 2 + K (invertible, and not u_K)
    U, R = uqsl2(p), ribbon_element(p)
    K = U.gen("K")
    for label, el in (("u_K", R.u_K), ("1-K", U.unit() - K),
                      ("u_K+F", R.u_K + U.gen("F")), ("2+K", 2 * U.unit() + K)):
        c = ayd._u_K_invertible(U, el)
        assert c == u_K_invertible_by_inverse(U, el), label
        rank = U.left_mult_operator(el).rank()
        assert c["status"] == (PASS if rank == U.dim else FAIL), label
        assert c["details"] == "rank %d of %d" % (rank, U.dim), label
        assert (c["status"] == FAIL) is (label == "1-K")


@pytest.mark.parametrize("p", [3, 5])
def test_u_K_without_an_inverse_by_the_transform_takes_the_rank(
        monkeypatch, p):
    # u(t) = 1 - t vanishes at t = xi^0, and u_K + F is no polynomial in
    # K, so it has no values (None): the lemma passes neither, so the
    # rank of L_{u_K} decides, and it fails for 1 - K.  The third case
    # repeats 1 - K: the check reads the values of the element it is
    # given, whatever values RibbonData keeps
    U = uqsl2(p)
    one_minus_K = U.unit() - U.gen("K")
    cases = [(el, U.left_mult_operator(el).rank())
             for el in (one_minus_K, ribbon_element(p).u_K + U.gen("F"),
                        one_minus_K)]
    assert cases[0][1] < U.dim
    ranks = count_ranks(monkeypatch)
    for el, rank in cases:
        c = ayd._u_K_invertible(U, el)
        assert c["status"] == (PASS if rank == U.dim else FAIL)
        assert c["details"] == "rank %d of %d" % (rank, U.dim)
    assert ranks == [U.dim] * 3


def test_u_K_invertible_builds_no_inverse_and_multiplies_nothing(
        monkeypatch):
    # with every value nonzero the lemma decides: no field inverse, no
    # element product, no rank
    U, R = uqsl2(5), ribbon_element(5)
    calls = []
    for cls, name in ((Cyclotomic, "inverse"),
                      (FiniteDimAlgebra, "multiply")):
        real = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda *a, real=real, name=name: calls.append(name)
            or real(*a))
    ranks = count_ranks(monkeypatch)
    c = ayd._u_K_invertible(U, R.u_K)
    assert c["status"] == PASS and c["details"] == "rank 125 of 125"
    assert calls == [] and ranks == []


@pytest.mark.parametrize("p", [3, 5])
def test_ribbon_identity_both_routes(p):
    for mu in range(p):
        checks = verify_ribbon_identity(p, mu)
        assert [c["name"] for c in checks] == [
            "prefactor_scalar_route",
            "varsigma_equals_scaled_ribbon",
        ]
        assert all_pass(checks), (p, mu)


@pytest.mark.parametrize("p,mu", [(p, mu) for p in (3, 5) for mu in range(p)]
                         + [pytest.param(7, mu, marks=pytest.mark.slow)
                            for mu in range(7)])
def test_ribbon_element_route_matches_the_matrix_oracle(p, mu):
    # w = q^{m(mu^2-1)} psi(v_0) in d_a_mu(p, mu) against varsigma and the
    # v_0-action as p^3 x p^3 matrices on the regular module
    R = ribbon_element(p)
    element = ribbon_identity(p, mu, R, ayd._psi_v0(p, R))[1]
    assert element["status"] == PASS
    assert element == ribbon_identity_by_matrices(regular_ayd_module(p, mu), R)


@pytest.mark.parametrize("p", [3, 5, 7,
                               pytest.param(11, marks=pytest.mark.slow)])
def test_twisted_psi_matches_the_direct_substitution(monkeypatch, p):
    # phi_s(psi_0(v_0)), s = mu/2 mod p, against psi_mu(v_0) built by
    # substitution in d_a_mu(p, mu), term by term, by type and repr
    monkeypatch.setenv("BHL_DIM_GUARD", "2000")
    R = ribbon_element(p)
    psi0 = ayd._psi_v0(p, R)
    for mu in range(p):
        got = twisted_psi_v0(psi0, p, mu)
        assert typed_terms(got) == typed_terms(
            psi_v0_by_substitution(d_a_mu(p, mu), R).terms), mu


@pytest.mark.parametrize("p", [3, 5, 7,
                               pytest.param(11, marks=pytest.mark.slow)])
def test_w_terms_match_the_product(monkeypatch, p):
    # the closed form of w against P(g) sum_j c_j z^j x^j multiplied in
    # d_a_mu(p, mu), term by term, by type and repr
    monkeypatch.setenv("BHL_DIM_GUARD", "2000")
    for mu in range(p):
        assert typed_terms(w_terms(p, mu)) == \
            typed_terms(w_by_product(p, mu)), mu


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_rank_one_table_matches_the_terms(monkeypatch, p):
    # the element check on the rank-one table against w and pref phi_s(psi0)
    # compared as dicts of terms, for every mu, check by check, witnesses
    # included: with psi0 of d_a_mu(p, 0), of d_a_mu(p, 1) (the wrong mu),
    # and with a term off the monomials z^j g^b x^j, under the prefactor
    # and under the prefactor times xi
    monkeypatch.setenv("BHL_DIM_GUARD", "2000")
    R, xi, real = ribbon_element(p), root_of_unity(p), ayd._prefactor_exponent
    good = ayd._psi_v0(p, R)
    wrong = psi_v0_by_substitution(d_a_mu(p, 1), R).terms
    for psi0 in (good, wrong, {**good, (1, 2, 0): xi}):
        table = ayd._rank_one_table(p, psi0)
        for shift in (0, 1):  # the prefactor times xi^shift
            monkeypatch.setattr(ayd, "_prefactor_exponent",
                                lambda p, mu: real(p, mu) + shift)
            for mu in range(p):
                assert ayd._ribbon_identity(p, mu, R, psi0, table)[1] == \
                    ribbon_identity_by_terms(
                        p, mu, psi0, root_of_unity(p, real(p, mu) + shift))


def test_ribbon_family_substitutes_once(monkeypatch):
    # psi(v_0), and the one algebra, are built at mu = 0 only, for the
    # family and for a single mu alike; every mu twists psi_0(v_0)
    calls = []
    real_psi, real_algebra = ayd._psi_v0, ayd.d_a_mu

    def counted_psi(p, R):
        calls.append(("_psi_v0", p))
        return real_psi(p, R)

    def counted_algebra(p, mu):
        calls.append(("d_a_mu", p, mu))
        return real_algebra(p, mu)

    monkeypatch.setattr(ayd, "_psi_v0", counted_psi)
    monkeypatch.setattr(ayd, "d_a_mu", counted_algebra)
    assert all_pass(verify_ribbon_family(5))
    assert calls == [("_psi_v0", 5), ("d_a_mu", 5, 0)]
    calls.clear()
    assert all_pass(verify_ribbon_identity(5, 3))
    assert calls == [("_psi_v0", 5), ("d_a_mu", 5, 0)]


@pytest.mark.parametrize("p, mu", [(5, 1), (7, 3)])
def test_ribbon_identity_rejects_a_psi_of_the_wrong_mu(p, mu):
    # psi(v_0) of d_a_mu(p, 1) in place of that of d_a_mu(p, 0): its twist
    # is psi(v_0) of d_a_mu(p, mu + 1).  The scalar route does not use psi,
    # the element route fails
    R = ribbon_element(p)
    wrong = psi_v0_by_substitution(d_a_mu(p, 1), R).terms
    scalar, element = ribbon_identity(p, mu, R, wrong)
    assert scalar["status"] == PASS
    assert element["status"] == FAIL
    [witness] = element["witnesses"]
    assert witness["difference"]


def test_ribbon_identity_rejects_a_changed_prefactor(monkeypatch):
    p, mu = 5, 2
    R, real = ribbon_element(p), ayd._prefactor_exponent
    # the prefactor times xi
    monkeypatch.setattr(ayd, "_prefactor_exponent",
                        lambda p, mu: real(p, mu) + 1)
    scalar, element = ribbon_identity(p, mu, R, ayd._psi_v0(p, R))
    assert scalar["status"] == element["status"] == FAIL
    assert element["details"] == ("on the regular representation (faithful), "
                                  "prefactor %s"
                                  % root_of_unity(p, real(p, mu) + 1))
    # the difference (1 - xi) w, as JSON terms of d_a_mu(5, 2)
    [witness] = element["witnesses"]
    assert witness["difference"]
    assert all(len(mono) == 3 and isinstance(c, str)
               for mono, c in witness["difference"])


def test_ribbon_identity_refuses_a_ribbon_element_of_another_p():
    with pytest.raises(ValueError, match="uqsl2"):
        ribbon_identity(5, 1, ribbon_element(3), {})


def test_ribbon_prefactors():
    assert ribbon_prefactor(3, 1) == 1  # q^{m(1-1)} = q^0
    # function of mu^2 mod p
    assert ribbon_prefactor(3, 1) == ribbon_prefactor(3, 2)
    assert ribbon_prefactor(5, 1) == ribbon_prefactor(5, 4)
    assert ribbon_prefactor(5, 2) == ribbon_prefactor(5, 3)
    assert ribbon_prefactor(5, 1) != ribbon_prefactor(5, 2)
    fam = verify_ribbon_family(3)
    assert all_pass(fam)
    assert fam[-1]["name"] == "prefactor_depends_only_on_mu_squared"


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_ribbon_prefactor_is_the_power_of_q(p):
    # the power q^{m(mu^2 - 1)} read off uqsl2(p) itself
    U = uqsl2(p)
    for mu in range(-p, 2 * p):
        ref = U.q ** (U.m * ((mu % p) * (mu % p) - 1))
        got = ribbon_prefactor(p, mu)
        assert type(got) is type(ref) and repr(got) == repr(ref)
        assert got.order == ref.order


# ---------------------------------------------------------------------------
# stable dimensions against the frozen table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,mu", sorted(STABLE_DIMS))
def test_stable_dimensions_match_the_frozen_table(p, mu):
    k1, k2, kdim, power = STABLE_DIMS[(p, mu)]
    result = stable_analysis(p, mu)
    n = p ** 3
    assert result["kernel_dims"] == {1: k1, 2: k2, n: kdim}
    assert result["stabilization_power"] == power
    if mu == 0:
        assert power == 1 and k1 == p ** 2
    else:
        assert power == 2 and k1 < k2 == 2 * p ** 2


def test_stable_dims_table_script_reproduces_the_frozen_table():
    proc = run_script("stable_dims_table.py", "--p", "2", "--p", "3")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    table = {(int(p), int(mu)): (int(k1), int(k2), int(full), int(stab))
             for p, mu, k1, k2, _, full, stab in rows}
    assert table == {key: dims for key, dims in STABLE_DIMS.items()
                     if key[0] in (2, 3)}


@pytest.mark.slow
@pytest.mark.parametrize("mu", [0, 1])
@pytest.mark.parametrize("p,guard", [(11, "2000"), (23, "13000"),
                                     (31, "30000")])
def test_stable_dimension_at_large_p(monkeypatch, p, guard, mu):
    # dimensions 1331, 12167 and 29791: the stable kernel has dimension p^2
    # for mu = 0 and 2 p^2 otherwise, the rule the stable-dim report
    # applies
    monkeypatch.setenv("BHL_DIM_GUARD", guard)
    result = stable_analysis(p, mu)
    assert result["dim"] == p ** 3
    assert result["chain"][-1] == (1 if mu == 0 else 2) * p ** 2


@pytest.mark.parametrize("p,mu", [
    (p, mu) for p in (2, 3, 5, 7) for mu in range(p)] + [
    # the sparse chain costs about 1.2 s at p = 11 and 3.5 s at p = 13
    pytest.param(p, mu, marks=pytest.mark.slow)
    for p, mu in ((11, 0), (11, 1), (13, 1))])
def test_strings_match_the_sparse_chain(monkeypatch, p, mu):
    # the chain off the diagonal, through the lemma, against the nullities
    # of sparse powers of 1 - varsigma on the whole regular module
    monkeypatch.setenv("BHL_DIM_GUARD", "3000")
    M = regular_ayd_module(p, mu)
    chain = kernel_chain_by_powers(Mat.identity(M.dim) - varsigma_H(M).mat)
    result = stable_analysis(p, mu)
    assert result["chain"] == chain
    assert result["stabilization_power"] == len(chain)
    assert result["kernel_dims"] == {
        1: chain[0], 2: chain[1] if len(chain) > 1 else chain[0],
        M.dim: chain[-1]}


@pytest.mark.parametrize("p", [2, 3, 5, 7] + [
    # the per-mu recursion costs about 0.4 s at p = 11 and 0.8 s at p = 13
    pytest.param(p, marks=pytest.mark.slow) for p in (11, 13)])
def test_line_counts_match_the_string_listing(monkeypatch, p):
    # the chain from one running count per line, and in closed form,
    # against the chain read at each of the p^3 listed string positions,
    # over the per-mu recursion
    monkeypatch.setenv("BHL_DIM_GUARD", "3000")
    for mu in range(p):
        chain = stable_chain_by_strings(p, mu)
        assert chain is not None
        assert stable_chain_by_line_counts(p, mu) == chain
        assert stable_analysis(p, mu)["chain"] == chain


@pytest.mark.parametrize("p", [
    p for p in range(2, 32) if is_prime_by_trial_division(p)] + [
    # about 8 s in all for the primes 37 to 109, the running counts
    # taking O(p^3) steps per p
    pytest.param(p, marks=pytest.mark.slow)
    for p in range(32, 110) if is_prime_by_trial_division(p)])
def test_closed_form_matches_the_line_counts(monkeypatch, p):
    # the counting lemma of stable_analysis against the running count of
    # p | t(t + mu) along each line, for every mu
    monkeypatch.setenv("BHL_DIM_GUARD", str(p ** 3))
    for mu in range(p):
        assert stable_analysis(p, mu)["chain"] == (
            stable_chain_by_line_counts(p, mu))


def test_stable_analysis_at_a_million(monkeypatch):
    # p = 1 000 003: the closed form takes no step per line, where a
    # running count would take about p^2
    p = 1_000_003
    monkeypatch.setenv("BHL_DIM_GUARD", str(p ** 3))
    for mu in (0, 1, 2, p // 2, p - 1, p + 5):
        m = mu % p
        chain = [p * p + 2 * m * (p - m), 2 * p * p] if m else [p * p]
        result = stable_analysis(p, mu)
        assert result["chain"] == chain
        assert result["kernel_dims"] == {1: chain[0], 2: chain[-1],
                                         p ** 3: chain[-1]}
        assert result["stabilization_power"] == len(chain)


def test_stable_analysis_takes_no_field_arithmetic(monkeypatch):
    # the diagonal is the closed form xi^{-t(t+mu)}, so the chain follows
    # from where p divides t(t + mu), in closed form, and takes no
    # operation in Q(zeta_p)
    def refuse(*args):
        raise AssertionError("an operation in Q(zeta_p)")

    for name in ("__eq__", "__mul__", "__add__"):
        monkeypatch.setattr(Cyclotomic, name, refuse)
    chain = stable_analysis(7, 1)["chain"]
    monkeypatch.undo()
    assert chain == [61, 98]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stable_analysis_builds_neither_module_nor_sigma(monkeypatch, p):
    # no subdiagonal value vanishes, so the closed-form diagonal is all it
    # needs
    def refuse(*args):
        raise AssertionError("built the regular module or its varsigma")

    monkeypatch.setattr(ayd, "regular_ayd_module", refuse)
    monkeypatch.setattr(ayd, "varsigma_H", refuse)
    for mu in range(p):
        result = stable_analysis(p, mu)
        assert result["dim"] == p ** 3
        assert result["chain"][-1] == (1 if mu == 0 else 2) * p ** 2


def test_stable_analysis_respects_the_guard(monkeypatch):
    monkeypatch.setenv("BHL_DIM_GUARD", "20")
    with pytest.raises(DimensionGuardError):
        stable_analysis(3, 0)


def test_regular_module_respects_the_guard(monkeypatch):
    monkeypatch.setenv("BHL_DIM_GUARD", "20")
    with pytest.raises(DimensionGuardError):
        regular_ayd_module(3, 0)
    with pytest.raises(DimensionGuardError):
        verify_ribbon_identity(3, 1)
    monkeypatch.setenv("BHL_DIM_GUARD", "27")
    assert regular_ayd_module(3, 0).dim == 27


def test_ribbon_checks_the_guard_before_building_uqsl2(monkeypatch):
    # uqsl2(p) and the ribbon element cost far more than the guard check,
    # so the p^3 module's guard must trip before either is built
    def built(*args):
        raise AssertionError("built before the guard")

    monkeypatch.setenv("BHL_DIM_GUARD", "10")
    monkeypatch.setattr(ayd, "uqsl2", built)
    monkeypatch.setattr(ayd, "ribbon_element", built)
    for run in (lambda: verify_ribbon_identity(3, 1),
                lambda: verify_ribbon_family(3)):
        with pytest.raises(DimensionGuardError,
                           match="regular module of d_a_mu"):
            run()


# ---------------------------------------------------------------------------
# module files
# ---------------------------------------------------------------------------


def test_sample_module_file_verifies():
    data = json.loads((DATA_DIR / "sample_module_p3_mu1.json").read_text())
    M = ayd_module_from_json(data)
    assert (M.p, M.mu, M.dim) == (3, 1, 3)
    assert all_pass(verify_ayd(M))
    assert is_invertible(varsigma_H(M))


def test_module_json_roundtrip():
    M = regular_ayd_module(2, 1)
    data = ayd_module_to_json(M)
    M2 = ayd_module_from_json(data)
    assert M2.space == M.space
    assert M2.xop == M.xop and M2.zop == M.zop


def test_module_json_shape_errors():
    with pytest.raises(ValueError, match="matrix is not"):
        ayd_module_from_json(
            {"p": 2, "mu": 0, "degrees": [0, 1], "x": [[0, 0]],
             "z": [[0, 0], [0, 0]]}
        )


def test_ayd_module_validates_shifts():
    M = regular_ayd_module(3, 0)
    with pytest.raises(ValueError, match="shift"):
        AydModule(3, 0, M.space, M.zop, M.zop)
