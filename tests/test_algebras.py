import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhl.algebras import (
    DimensionGuardError,
    StructureConstantAlgebra,
    algebra_morphism,
    anyonic_line,
    check_guard,
    d_a_mu,
    dual_anyonic,
    induced_linear_map,
    nilpotent_line,
    taft,
    uqsl2,
)
from bhl.exactmat import Mat
from bhl.report import FAIL, PASS
from bhl.scalars import q_factorial, q_int, root_of_unity
from oracle import kernel_dims


def all_pass(checks):
    return all(c["status"] == PASS for c in checks)


def basis_element(A, i):
    return A.element({A.basis[i]: 1})


def test_builder_dimensions():
    assert taft(2).dim == 4
    assert taft(3).dim == 9
    assert anyonic_line(5).dim == 5
    assert dual_anyonic(7).dim == 7
    assert d_a_mu(3, 0).dim == 27
    assert uqsl2(3).dim == 27
    with pytest.raises(ValueError):
        taft(4)
    with pytest.raises(ValueError):
        uqsl2(2)


def test_taft_normal_forms():
    p = 3
    A = taft(p)
    xi = A.xi
    g, x = A.gen("g"), A.gen("x")
    # x*g -> xi^{-1} g*x
    assert x * g == xi ** -1 * (g * x)
    assert g ** p == A.unit()
    assert x ** p == A.zero()
    # negative exponents only on invertible generators
    assert A.normal_form([("g", -2)]) == g ** (p - 2)
    with pytest.raises(ValueError):
        A.normal_form([("x", -1)])
    A2 = taft(2)
    assert A2.gen("x") ** 2 == A2.zero()  # Sweedler case


def test_d_a_mu_straightening():
    p, mu = 3, 1
    A = d_a_mu(p, mu)
    xi = A.xi
    z, g, x = A.gen("z"), A.gen("g"), A.gen("x")
    rhs = xi * (z * x) + root_of_unity(p, 1 - mu) * g ** (p - 2) - A.unit()
    assert x * z == rhs
    assert g * z == xi ** -1 * (z * g)
    assert x * g == xi ** -1 * (g * x)
    assert (z * g ** 2 * x).degree() == 0
    # p=2: x z = -z x + xi^{1-mu} - 1
    B = d_a_mu(2, 0)
    xb, zb = B.gen("x"), B.gen("z")
    assert xb * zb + zb * xb == -2 * B.unit()
    C = d_a_mu(2, 1)
    assert C.gen("x") * C.gen("z") + C.gen("z") * C.gen("x") == C.zero()


def test_uqsl2_relations():
    A = uqsl2(3)
    q = A.q
    F, K, E = A.gen("F"), A.gen("K"), A.gen("E")
    assert E * F - F * E == K - K ** (A.p - 1)
    assert K * E == q ** 2 * (E * K)
    assert K * F == q ** -2 * (F * K)
    assert K ** 3 == A.unit()
    assert E.degree() == 1 and F.degree() == A.p - 1 and K.degree() == 0


def test_dual_anyonic_product():
    p = 3
    A = dual_anyonic(p)
    xi = A.xi
    e1 = A.gen("e_1")
    e2 = basis_element(A, 2)
    assert e1 * e1 == xi ** -1 * q_int(2, xi) * e2
    assert e1 * e2 == A.zero()  # degree overflow: (3)_xi! contains (3)_xi = 0
    assert A.unit() * e1 == e1
    assert e1.degree() == p - 1  # deg e_i = -i


@pytest.mark.parametrize("make", [
    lambda: taft(2), lambda: taft(3), lambda: taft(5),
    lambda: anyonic_line(7), lambda: dual_anyonic(5), lambda: dual_anyonic(7),
    lambda: d_a_mu(2, 0), lambda: d_a_mu(2, 1),
    lambda: d_a_mu(3, 0), lambda: d_a_mu(3, 1), lambda: d_a_mu(3, 2),
    lambda: uqsl2(3),
])
def test_associativity_sweep(make):
    A = make()
    checks = A.verify_associativity()
    assert all_pass(checks), checks


def test_associativity_and_unitality_fail_with_witnesses():
    # e_i e_j = e_{i+j} below degree 3, except e_0 e_2 = 3 e_2: the unit
    # e_0 fails on the left, and (e_0 e_0) e_2 = 3 e_2 != 9 e_2 = e_0 (e_0 e_2)
    def rule(i, j):
        if i + j > 2:
            return {}
        return {i + j: 3 if (i, j) == (0, 2) else 1}

    A = StructureConstantAlgebra(
        signature=("broken",), N=3, scalar_order=1, basis=(0, 1, 2),
        degrees=(0, 1, 2), labels=("1", "e_1", "e_2"), unit_mono=0,
        pair_rule=rule, generator_monos=(("e_1", 1),))
    assoc, unit = A.verify_associativity()
    assert (assoc["name"], assoc["status"]) == ("associativity", FAIL)
    assert assoc["witnesses"] == [{"input": "1*1*e_2",
                                   "difference": [[2, "-6"]]}]
    assert (unit["name"], unit["status"]) == ("unitality", FAIL)
    assert unit["witnesses"] == [{"input": "e_2", "difference": [[2, "2"]]}]


@pytest.mark.slow
@pytest.mark.parametrize("make", [
    lambda: d_a_mu(5, 0), lambda: d_a_mu(5, 1), lambda: uqsl2(5),
])
def test_associativity_sweep_big(make):
    assert all_pass(make().verify_associativity())


def test_dimension_guard(monkeypatch):
    with pytest.raises(DimensionGuardError):
        check_guard(10 ** 6, "nothing")
    monkeypatch.setenv("BHL_DIM_GUARD", "5")
    with pytest.raises(DimensionGuardError):
        taft(3).verify_associativity()
    monkeypatch.setenv("BHL_DIM_GUARD", "9")
    assert all_pass(taft(3).verify_associativity())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 26), st.integers(0, 26))
def test_grading_multiplicative(i, j):
    A = d_a_mu(3, 1)
    a, b = basis_element(A, i), basis_element(A, j)
    ab = a * b
    if not ab.is_zero():
        assert ab.degree() == (a.degree() + b.degree()) % A.N


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 26), st.integers(-2, 2)),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 26), st.integers(-2, 2)),
                min_size=1, max_size=3))
def test_left_mult_is_homomorphism(ta, tb):
    A = uqsl2(3)
    a = A.zero()
    for i, c in ta:
        a = a + c * basis_element(A, i)
    b = A.zero()
    for i, c in tb:
        b = b + c * basis_element(A, i)
    assert A.left_mult_operator(a * b) == \
        A.left_mult_operator(a) * A.left_mult_operator(b)


def test_regular_representation_shapes():
    A = taft(3)
    assert A.left_mult_operator(A.unit()) == Mat.identity(9)
    Lg = A.left_mult_operator(A.gen("g"))
    assert Lg ** 3 == Mat.identity(9)
    B = anyonic_line(5)
    Lx = B.left_mult_operator(B.gen("x"))
    assert not (Lx ** 4).is_zero()
    assert (Lx ** 5).is_zero()


def test_center_and_kernel_dims():
    A = uqsl2(3)
    center = A.compute_center()
    assert len(center) == 4
    for c in center:
        for _, g in A.generators():
            assert c * g == g * c
    assert kernel_dims(A, A.unit(), [1, 2]) == [27, 27]
    # 1 - K is invertible on nothing trivial: ker grows with powers until stable
    dims = kernel_dims(A, A.gen("K"), [1, 27])
    assert dims[0] <= dims[1]


def test_morphism_nilline_to_dual_anyonic():
    for p in (2, 3, 5, 7):
        source = nilpotent_line(p, "z", p - 1)
        target = dual_anyonic(p)
        checks = algebra_morphism(source, target, {"z": target.gen("e_1")})
        assert all_pass(checks), (p, checks)
        # the induced map sends z^i to xi^{-(i-1)i/2} (i)_xi! e_i
        mat = induced_linear_map(source, target, {"z": target.gen("e_1")})
        xi = target.xi
        for i in range(p):
            expected = root_of_unity(p, -(i - 1) * i // 2) * q_factorial(i, xi)
            assert mat[i, i] == expected


def test_morphism_d_a_mu_to_uqsl2():
    p = 3
    target = uqsl2(p)
    q = target.q
    E, F, K = target.gen("E"), target.gen("F"), target.gen("K")
    for mu in range(p):
        source = d_a_mu(p, mu)
        images = {
            "x": q ** (mu - 1) * E,
            "z": q ** (1 - mu) * (F * K),
            "g": q ** (mu - 1) * K ** (p - 1),
        }
        checks = algebra_morphism(source, target, images)
        assert all_pass(checks), (mu, checks)


def test_morphism_negative_control():
    p, mu = 3, 0
    target = uqsl2(p)
    q = target.q
    images = {
        "x": q ** (mu - 1) * target.gen("E"),
        "z": target.gen("F") * target.gen("K"),  # dropped q^{1-mu} factor
        "g": q ** (mu - 1) * target.gen("K") ** (p - 1),
    }
    checks = algebra_morphism(d_a_mu(p, mu), target, images, check_bijective=False)
    failed = [c for c in checks if c["status"] == "FAIL"]
    assert failed
    assert any("x*z" in c["name"] for c in failed)
    assert all(c["witnesses"] for c in failed)


def test_element_json_and_repr():
    A = taft(3)
    e = A.gen("g") * A.gen("x") * 2
    blob = A.element_to_json(e)
    assert blob == [[[1, 1], "2"]]
    assert "g*x" in repr(e)
