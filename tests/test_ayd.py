"""Sigma operators, the uqsl2 dictionary, the ribbon identity, and the
frozen stable-dimension table."""

import json
import pathlib

import pytest

import bhl
from bhl.algebras import DimensionGuardError, PresentedAlgebra
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
    to_uqsl2,
    varsigma_H,
    verify_ayd,
    verify_ribbon_family,
    verify_ribbon_identity,
)
from bhl.graded import GradedMap
from bhl.report import FAIL, PASS
from oracle import (
    as_module,
    regular_ayd_by_conjugation,
    trivial_ayd_module,
    verify_module,
)

DATA_DIR = pathlib.Path(bhl.__file__).parent / "data"

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
    assert M.space.dims_by_degree() == (4, 4)
    M3 = regular_ayd_module(3, 0)
    assert M3.space.dims_by_degree() == (9, 9, 9)


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
    assert M.space.labels == oracle.space.labels


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
    assert s.is_invertible()
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
                      Pinv * A.right_mult_operator(el) * P)
        assert s @ R == R @ s


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
                  P.inverse() * A.right_mult_operator(A.gen("g")) * P)
    for name in ("E", "F", "K"):
        assert U.ops[name] @ R == R @ U.ops[name]


def test_ribbon_element_structure():
    R = ribbon_element(3)
    U = R.v_0.algebra
    assert R.u_0.terms[(0, 0, 0)] == 1  # j = 0 term of u_0
    assert R.v_0 == U.gen("K") * R.u_K * R.u_0
    assert R.q == U.q and R.m == (3 - 1) // 2


@pytest.mark.parametrize("p", [3, 5])
def test_ribbon_element_is_central(p):
    assert all_pass(ribbon_centrality_checks(p))


@pytest.mark.parametrize("p", [3, 5])
def test_ribbon_identity_both_routes(p):
    for mu in range(p):
        checks = verify_ribbon_identity(p, mu)
        assert [c["name"] for c in checks] == [
            "prefactor_scalar_route",
            "varsigma_equals_scaled_ribbon",
        ]
        assert all_pass(checks), (p, mu)


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


@pytest.mark.slow
@pytest.mark.parametrize("mu", [0, 1])
def test_stable_dimension_at_p11(monkeypatch, mu):
    # dimension 1331: the stable kernel has dimension p^2 for mu = 0 and
    # 2 p^2 otherwise, the rule the stable-dim report applies
    monkeypatch.setenv("BHL_DIM_GUARD", "2000")
    result = stable_analysis(11, mu)
    assert result["dim"] == 11 ** 3
    assert result["chain"][-1] == (1 if mu == 0 else 2) * 11 ** 2


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


# ---------------------------------------------------------------------------
# module files
# ---------------------------------------------------------------------------


def test_sample_module_file_verifies():
    data = json.loads((DATA_DIR / "sample_module_p3_mu1.json").read_text())
    M = ayd_module_from_json(data)
    assert (M.p, M.mu, M.dim) == (3, 1, 3)
    assert all_pass(verify_ayd(M))
    assert varsigma_H(M).is_invertible()


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
