import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhl.exactmat import Mat
from bhl.graded import (
    AntiTwist,
    Bicharacter,
    GradedMap,
    GradedSpace,
    anti_twist,
    braiding,
    braiding_inverse,
    ev_coev,
    first_difference,
    left_dual,
    right_dual,
    tensor,
    tensor_diagram,
    tensor_map,
    twist_theta,
)
from bhl.report import map_check
from bhl.scalars import root_of_unity
from oracle import braided_module_E, inverse


@st.composite
def space(draw, N, max_dim=3):
    n = draw(st.integers(1, max_dim))
    degs = draw(st.lists(st.integers(0, N - 1), min_size=n, max_size=n))
    return GradedSpace(N, degs)


@st.composite
def homog_map(draw, V, W, shift=0):
    data = {}
    for r, dt in enumerate(W.degrees):
        for c, ds in enumerate(V.degrees):
            if (dt - ds - shift) % V.N == 0:
                v = draw(st.integers(-3, 3))
                if v:
                    data[r, c] = v
    return GradedMap(V, W, Mat(W.dim, V.dim, data), shift)


@st.composite
def nat_setup(draw):
    N = draw(st.sampled_from([2, 3, 5]))
    chi = Bicharacter(N, draw(st.integers(0, N - 1)))
    V, V2, W, W2 = (draw(space(N)) for _ in range(4))
    f = draw(homog_map(V, V2))
    g = draw(homog_map(W, W2))
    return chi, f, g


def test_bicharacter_hexagon_scalars():
    chi = Bicharacter(5, 2)
    for x in range(5):
        for y in range(5):
            for z in range(5):
                assert chi.chi(x + y, z) == chi.chi(x, z) * chi.chi(y, z)
                assert chi.chi(x, y + z) == chi.chi(x, y) * chi.chi(x, z)


def test_tensor_degrees_and_unit():
    V = GradedSpace(5, (1,))
    W = GradedSpace(5, (2,))
    assert tensor(V, W).degrees == (3,)
    I = GradedSpace.unit(5)
    U = GradedSpace(5, (0, 1, 4), ("a", "b", "c"))
    assert tensor(I, U) == U and tensor(U, I) == U
    with pytest.raises(ValueError):
        tensor(V, GradedSpace(3, (1,)))


def test_graded_map_homogeneity_enforced():
    V = GradedSpace(3, (0, 1))
    with pytest.raises(ValueError):
        GradedMap(V, V, Mat.from_rows([[0, 1], [0, 0]]), shift=0)
    ok = GradedMap(V, V, Mat.from_rows([[0, 0], [1, 0]]), shift=1)
    assert ok.shift == 1


@settings(max_examples=40, deadline=None)
@given(nat_setup())
def test_braiding_naturality_shift_zero(setup):
    chi, f, g = setup
    lhs = braiding(f.target, g.target, chi) @ tensor_map(f, g)
    rhs = tensor_map(g, f) @ braiding(f.source, g.source, chi)
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 4, 5]).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(0, N - 1), space(N, 2))))
def test_yang_baxter(args):
    N, c, V = args
    chi = Bicharacter(N, c)
    t = braiding(V, V, chi)
    i = GradedMap.identity(V)
    lhs = tensor_map(t, i) @ tensor_map(i, t) @ tensor_map(t, i)
    rhs = tensor_map(i, t) @ tensor_map(t, i) @ tensor_map(i, t)
    assert lhs == rhs


def test_braiding_example_and_inverse():
    chi = Bicharacter(3, 1)
    V = GradedSpace(3, (1,))
    W = GradedSpace(3, (1,))
    t = braiding(V, W, chi)
    assert t.mat[0, 0] == root_of_unity(3)
    assert braiding_inverse(V, W, chi) @ t == GradedMap.identity(tensor(V, W))
    # degree-0 second factor: plain flip
    W0 = GradedSpace(3, (0, 0))
    t0 = braiding(W0, W0, chi)
    assert t0.mat == Mat(4, 4, {(0, 0): 1, (2, 1): 1, (1, 2): 1, (3, 3): 1})


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(1, N - 1), space(N, 2), space(N, 2))))
def test_twist_and_anti_twist_laws(args):
    N, c, V, W = args
    chi = Bicharacter(N, c)
    VW = tensor(V, W)
    tau2 = braiding(W, V, chi) @ braiding(V, W, chi)
    assert twist_theta(VW, chi) == tau2 @ tensor_map(twist_theta(V, chi), twist_theta(W, chi))
    for t in range(N):
        s = AntiTwist.with_parameter(chi, t)
        lhs = anti_twist(VW, s)
        rhs = inverse(tau2) @ tensor_map(anti_twist(V, s), anti_twist(W, s))
        assert lhs == rhs


def test_anti_twist_values():
    chi3 = Bicharacter(3, 1)
    s0 = AntiTwist.with_parameter(chi3, 0)
    assert s0(0) == 1 and s0(1) == root_of_unity(3, -1)
    # theta * canonical = id
    V = GradedSpace(3, (0, 1, 2))
    assert twist_theta(V, chi3) @ anti_twist(V, s0) == GradedMap.identity(V)
    chi2 = Bicharacter(2, 1)
    s1 = AntiTwist.with_parameter(chi2, -1)
    assert s1(1) == 1  # trivial anti-twist on Z/2
    assert s1.parameter == 1
    assert AntiTwist.with_parameter(chi3, -2).parameter == 1
    assert AntiTwist(chi3, [1, 1, root_of_unity(3)]).parameter == 1
    with pytest.raises(ValueError):
        AntiTwist(chi3, [1, root_of_unity(3), root_of_unity(3)])


def test_duals_and_zigzags_small():
    V = GradedSpace(3, (1,))
    ev, ev_l, coev, coev_l = ev_coev(V)
    assert left_dual(V).degrees == (2,)
    assert left_dual(left_dual(V)).degrees == V.degrees
    i_v = GradedMap.identity(V)
    assert tensor_map(i_v, ev) @ tensor_map(coev, i_v) == i_v


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda N: space(N, 3)))
def test_zigzag_identities(V):
    ev, ev_l, coev, coev_l = ev_coev(V)
    i_v = GradedMap.identity(V)
    i_l = GradedMap.identity(left_dual(V))
    i_r = GradedMap.identity(right_dual(V))
    assert tensor_map(i_v, ev) @ tensor_map(coev, i_v) == i_v
    assert tensor_map(ev, i_l) @ tensor_map(i_l, coev) == i_l
    assert tensor_map(ev_l, i_v) @ tensor_map(i_v, coev_l) == i_v
    assert tensor_map(i_r, ev_l) @ tensor_map(coev_l, i_r) == i_r


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 4, 5]).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(0, N - 1), st.integers(0, N - 1),
                        space(N, 2), space(N, 2), space(N, 2))))
def test_braided_module_axioms(args):
    N, c, t, X, Y, M = args
    chi = Bicharacter(N, c)
    s = AntiTwist.with_parameter(chi, t)
    i_x = GradedMap.identity(X)
    i_m = GradedMap.identity(M)

    # C2: E_{YX,M} = E_{Y,XM} E_{X,M}
    # flat bases make Y(x)(X(x)M) and (Y(x)X)(x)M literally equal, so compose directly
    lhs = braided_module_E(tensor(Y, X), M, s, chi)
    e_y_xm = braided_module_E(Y, tensor(X, M), s, chi)
    e_x_m = braided_module_E(X, M, s, chi)
    rhs = e_y_xm @ tensor_map(GradedMap.identity(Y), e_x_m)
    assert lhs == rhs

    # C1: E_{Y,XM} = tau^{-1}_{X,Y} (id_X (x) E_{Y,M}) tau^{-1}_{Y,X}
    # where tau^{-1}_{A,B} means the inverse of tau_{B,A}
    t_xy = braiding(X, Y, chi)
    t_yx = braiding(Y, X, chi)
    lhs1 = braided_module_E(Y, tensor(X, M), s, chi)
    rhs1 = (tensor_map(inverse(t_yx), i_m)
            @ tensor_map(i_x, braided_module_E(Y, M, s, chi))
            @ tensor_map(inverse(t_xy), i_m))
    assert lhs1 == rhs1

    # stability: E_{X,M} = sigma_{XM} sigma_M^{-1}
    XM = tensor(X, M)
    assert braided_module_E(X, M, s, chi) == \
        anti_twist(XM, s) @ inverse(tensor_map(i_x, anti_twist(M, s)))


def test_braided_module_examples():
    chi = Bicharacter(3, 1)
    s0 = AntiTwist.with_parameter(chi, 0)
    X0 = GradedSpace(3, (0, 0))
    M = GradedSpace(3, (0, 1, 2))
    assert braided_module_E(X0, M, s0, chi) == GradedMap.identity(tensor(X0, M))
    X1 = GradedSpace(3, (1,))
    M1 = GradedSpace(3, (1,))
    e = braided_module_E(X1, M1, s0, chi)
    assert e.mat[0, 0] == 1  # omega(1,1)^(-1) sigma(1) = xi^(-2) xi^(-1) = 1


@settings(max_examples=30, deadline=None)
@given(nat_setup())
def test_tensor_interchange(setup):
    _, f, g = setup
    assert tensor_map(f, g) @ tensor_map(GradedMap.identity(f.source),
                                         GradedMap.identity(g.source)) == tensor_map(f, g)
    f2 = f @ GradedMap.identity(f.source)
    g2 = g @ GradedMap.identity(g.source)
    assert tensor_map(f2, g2) == tensor_map(f, g)


def test_map_json_round_trippable_entries():
    V = GradedSpace(4, (0, 1))
    f = GradedMap(V, V, Mat.from_rows([[Fraction(1, 2), 0], [0, root_of_unity(4)]]))
    blob = f.to_json()
    assert blob["shift"] == 0
    assert [0, 0, "1/2"] in blob["entries"]
    assert [1, 1, "q(4,1)"] in blob["entries"]


# ---------------------------------------------------------------------------
# lazy diagrams against the materialised maps


def dense_columns(f):
    return [f.mat.col_dict(j) for j in range(f.source.dim)]


@settings(max_examples=40, deadline=None)
@given(nat_setup())
def test_diagram_columns_match_materialised_maps(setup):
    chi, f, g = setup
    lazy = tensor_diagram(f, g)
    dense = tensor_map(f, g)
    assert list(lazy.columns()) == dense_columns(dense)
    assert lazy.shift == dense.shift
    tau = braiding(f.target, g.target, chi)
    ids = tensor_diagram(GradedMap.identity(g.target),
                         GradedMap.identity(f.target))
    composite = tensor_map(GradedMap.identity(g.target),
                           GradedMap.identity(f.target)) @ tau @ dense
    assert list((ids @ tau @ lazy).columns()) == dense_columns(composite)
    assert first_difference(tau @ lazy, tau @ dense) is None


def test_diagram_tensor_words_match_nested_products():
    V = GradedSpace(3, (0, 1))
    i = GradedMap.identity(V)
    t = braiding(V, V, Bicharacter(3, 1))
    # (V (x) V) (x) (V (x) V) meets V (x) (V (x) V) (x) V with no big basis
    square = tensor_diagram(tensor_map(i, i), tensor_map(i, i))
    middle = tensor_diagram(i, t, i)
    assert square.target == middle.source == (V, V, V, V)
    assert first_difference(middle @ square, middle) is None
    with pytest.raises(TypeError, match="middle objects differ"):
        tensor_diagram(i, i, i) @ square
    # a space not built by tensor() still meets an equal tensor product
    flat = GradedMap.identity(GradedSpace(3, (0, 1, 1, 2)))
    assert first_difference(flat @ tensor_diagram(i, i),
                            tensor_map(i, i)) is None
    with pytest.raises(TypeError, match="middle objects differ"):
        flat @ tensor_diagram(i, GradedMap.identity(GradedSpace(3, (0, 2))))


def test_first_difference_reports_the_first_differing_column():
    V = GradedSpace(2, (0, 1, 1), ("a", "b", "c"))
    f = GradedMap(V, V, Mat.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
    g = GradedMap(V, V, Mat.from_rows([[1, 0, 0], [0, 2, 5], [0, 0, 1]]))
    assert first_difference(f, g) == (2, {1: -5, 2: 2})
    assert first_difference(f, f) is None
    got = map_check("f = g", f, g)
    assert got["witnesses"] == [{"input": "c",
                                 "difference": [[1, "-5"], [2, "2"]]}]
    assert map_check("f = g", f, g, label=str)["witnesses"][0]["input"] == "2"


def test_map_check_of_maps_with_other_targets_fails():
    V = GradedSpace(3, (0, 1))
    W = GradedSpace(3, (0, 2))
    f = GradedMap.zero(V, V)
    g = GradedMap.zero(V, W)
    got = map_check("f = g", f, g)
    assert got["status"] == "FAIL"
    assert got["witnesses"] == [{"note": "source or target differ"}]
    with pytest.raises(ValueError, match="not parallel"):
        first_difference(f, g)


def test_zero_maps_of_different_shifts_agree():
    V = GradedSpace(3, (0, 1))
    assert first_difference(GradedMap.zero(V, V, 1), GradedMap.zero(V, V)) is None
    f = GradedMap(V, V, Mat.from_rows([[0, 0], [1, 0]]), shift=1)
    assert first_difference(f, GradedMap.zero(V, V)) == (0, {1: 1})


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 9, 12, 120])
def test_antitwist_law_lookup_is_the_inverse_of_omega(N):
    # AntiTwist reads omega(i,j)^-1 as zeta^(-2cij); for composite N the
    # powers zeta^k with k >= phi(N) are not monomials in the power basis.
    for c in {1, N - 1}:
        chi = Bicharacter(N, c)
        inverses = {}
        for i in range(N):
            for j in range(N):
                k = 2 * chi.c * i * j % N
                if k not in inverses:
                    inverses[k] = chi.omega(i, j).inverse()
                assert root_of_unity(N, -2 * chi.c * i * j) == inverses[k]


def _field_law_failure(chi, values):
    """The first (i, j) where the anti-twist law fails, by field products."""
    N = chi.N
    for i in range(N):
        for j in range(N):
            if values[(i + j) % N] != (chi.omega(i, j).inverse()
                                       * values[i] * values[j]):
                return i, j
    return None


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8, 9])
def test_antitwist_law_by_exponents_matches_the_field_route(N):
    # powers of zeta go through exponent arithmetic mod N, other values
    # (0, 2, a non-root) through field products; both must accept the same
    # values and reject at the same first pair
    rng = random.Random(N)
    zeta = [root_of_unity(N, k) for k in range(N)]
    for c in range(N):
        chi = Bicharacter(N, c)
        cases = [[zeta[(-c * i * i + t * i) % N] for i in range(N)]
                 for t in range(N)]
        cases += [[rng.choice(zeta) for _ in range(N)] for _ in range(20)]
        cases += [[0] * N, [1] + [2] * (N - 1), [zeta[-1] + 1] * N]
        for values in cases:
            bad = _field_law_failure(chi, values)
            if bad is None:
                assert AntiTwist(chi, values).values == tuple(values)
            else:
                with pytest.raises(ValueError,
                                   match=r"fails at \(%d,%d\):" % bad):
                    AntiTwist(chi, values)
