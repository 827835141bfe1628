"""Braided tensor squares, Hopf axioms and modules."""

import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhl import algebras, graded, hopf
from bhl.algebras import (
    DimensionGuardError,
    Presentation,
    PresentedAlgebra,
    anyonic_line,
    d_a_mu,
    dual_anyonic,
    nilpotent_line,
    taft,
    uqsl2,
)
from bhl.ayd import regular_ayd_module, ribbon_element
from bhl.graded import (
    Bicharacter,
    Diagram,
    GradedMap,
    GradedSpace,
    diagram,
    tensor_map,
)
from bhl.cli import taft_hopf_checks
from bhl.hopf import (
    HopfData,
    antipode_square,
    anyonic_hopf,
    braided_tensor_algebra,
    build_hopf,
    coproduct_power,
    taft_hopf,
    verify_antipode,
    verify_bialgebra,
    verify_coproduct_powers,
)
from bhl.report import FAIL, PASS, check
from bhl.scalars import Cyclotomic, format_scalar, root_of_unity
from oracle import (
    AlgebraModule,
    antipode_square_by_peeling,
    braiding_matrix,
    element_from_column,
    hopf_checks_by_pairs,
    hopf_maps_by_powers,
    is_invertible,
    leaf_map,
    mult_map_by_pairs,
    pair_product_by_rescan,
    regular_module,
    right_mult_operator,
    row_premises_by_sweep,
    square_antipode_by_matrix,
    square_by_composite,
    tensor_pair,
    to_uqsl2,
    typed_entries,
    typed_terms,
    verify_module,
)
from test_algebras import skew_algebra, skew_line


def all_pass(checks):
    return all(c["status"] == PASS for c in checks)


def failed_names(checks):
    return [c["name"] for c in checks if c["status"] == FAIL]


def antipode(H, a):
    """S(a) by S's diagram leaf."""
    return element_from_column(H.algebra, diagram(H.S).apply(a.as_column()))


# ---------------------------------------------------------------------------
# the braided tensor square
# ---------------------------------------------------------------------------


def test_braided_square_crossing_scalar():
    A = anyonic_line(3)
    chi = Bicharacter(3, 1)
    TA = braided_tensor_algebra(A, A, chi)
    x = A.gen("x")
    one = A.unit()
    left = tensor_pair(TA, x, one)
    right = tensor_pair(TA, one, x)
    xx = tensor_pair(TA, x, x)
    assert left * right == xx
    assert right * left == A.xi * xx
    assert TA.dim == 9
    assert TA.unit() == tensor_pair(TA, one, one)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_braided_square_is_associative(p):
    A = anyonic_line(p)
    TA = braided_tensor_algebra(A, A, Bicharacter(p, 1))
    assert all_pass(TA.verify_associativity())


def test_square_with_unit_algebra_is_the_algebra():
    A = anyonic_line(3)
    triv = PresentedAlgebra(
        Presentation(N=3, gens=(), degrees=(), bounds=(),
                     power_rhs=(), straighten={}),
        signature=("unit_algebra", 3),
    )
    TA = braided_tensor_algebra(A, triv, Bicharacter(3, 1))
    assert TA.dim == A.dim
    for ma in A.basis:
        for mb in A.basis:
            got = TA.pair_product((ma, ()), (mb, ()))
            want = {(m, ()): c for m, c in A.pair_product(ma, mb).items()}
            assert got == want


def test_braiding_is_algebra_iso_between_twisted_squares():
    # tau_{A,B}: A (x)^{tau^-1} B -> B (x)^tau A, a(x)b |-> chi(|a|,|b|) b(x)a
    p = 3
    chi = Bicharacter(p, 1)
    A = anyonic_line(p)
    B = PresentedAlgebra(
        Presentation(N=p, gens=("y",), degrees=(2,),
                     bounds=(p,), power_rhs=(0,), straighten={}),
        signature=("line_y", p),
    )
    src = braided_tensor_algebra(A, B, Bicharacter(p, -1))
    dst = braided_tensor_algebra(B, A, chi)

    def f(el):
        terms = {}
        for (ma, mb), c in el.terms.items():
            s = chi.chi(A.mono_degree(ma), B.mono_degree(mb))
            terms[(mb, ma)] = s * c
        return dst.element(terms)

    for u in src.basis:
        for v in src.basis:
            eu = src.element({u: 1})
            ev = src.element({v: 1})
            assert f(eu * ev) == f(eu) * f(ev)


# ---------------------------------------------------------------------------
# Hopf axioms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_anyonic_line_is_braided_hopf(p):
    H = anyonic_hopf(p)
    checks = verify_bialgebra(H) + verify_antipode(H)
    assert all_pass(checks), failed_names(checks)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_taft_is_hopf(p):
    H = taft_hopf(p)
    checks = verify_bialgebra(H) + verify_antipode(H)
    assert all_pass(checks), failed_names(checks)


@pytest.mark.parametrize("p,c,failing", [
    (2, 0, ["coproduct_is_multiplicative"]),
    (5, 5, ["coproduct_is_multiplicative"]),
    (3, 2, []),
    (5, 3, []),
])
def test_anyonic_line_is_braided_hopf_exactly_when_c_is_nonzero(p, c,
                                                                failing):
    # c = 0 mod p fails at every p, p = 2 included: Delta(x)^2 = 2 x (x) x
    # in the unbraided square, while Delta(x^2) = 0
    H = anyonic_hopf(p, c)
    checks = (verify_bialgebra(H) + verify_antipode(H)
              + verify_coproduct_powers(H))
    assert failed_names(checks) == failing
    if p == 2:
        bad = next(ch for ch in checks if ch["status"] == FAIL)
        assert bad["witnesses"] == [{"input": "x , x",
                                     "difference": [[3, "-2"]]}]


@pytest.mark.parametrize("build,args", [
    *((anyonic_hopf, (p, c)) for p in (2, 3, 5, 7) for c in (0, 1)),
    (taft_hopf, (2,)),
    (taft_hopf, (3,)),
    # 625^2 columns, about 6 s
    pytest.param(taft_hopf, (5,), marks=pytest.mark.slow),
])
def test_square_leaf_matches_the_composite(build, args):
    # HopfData.square reads both products from the product cache; the
    # composite (m (x) m) . (id (x) tau (x) id), with m by pairs and tau a
    # matrix, is the route it replaced.  Entries agree by type and repr,
    # and labels as the composite names them
    H = build(*args)
    V = H.space
    composite = square_by_composite(mult_map_by_pairs(H.algebra),
                                    braiding_matrix(V, V, H.chi))
    assert H.square.parallel(composite)
    for j, (leaf, comp) in enumerate(zip(H.square.columns(),
                                         composite.columns(), strict=True)):
        assert typed_terms(leaf) == typed_terms(comp), j
        assert H.square.label(j) == composite.label(j)


def test_hopf_builders_push_no_tensor_of_diagrams(monkeypatch):
    # Delta is extended through the square, one leaf, so building H and
    # multiplying Delta(x) out push nothing through a tensor of diagrams
    def pushed(*args):
        raise AssertionError("pushed through a tensor of diagrams")

    monkeypatch.setattr(graded._Tensor, "_add_image", pushed)
    taft_hopf(3)
    assert all_pass(verify_coproduct_powers(anyonic_hopf(5)))


@pytest.mark.parametrize("build", [lambda: taft_hopf(3),
                                   lambda: anyonic_hopf(5),
                                   lambda: anyonic_hopf(5, 0)],
                         ids=["taft(3)", "anyonic(5)", "anyonic(5, c=0)"])
def test_battery_builds_one_identity_and_one_iota(monkeypatch, build):
    # the identity of A and the inclusion iota of 1 and the generators are
    # kept with the algebra: the battery builds each once and turns each
    # into a diagram leaf once, however many laws compare on them
    identities, real_identity = [], GradedMap.identity

    def identity(V):
        identities.append(V.dim)
        return real_identity(V)

    monkeypatch.setattr(GradedMap, "identity", staticmethod(identity))
    H = build()
    A = H.algebra
    checks = verify_bialgebra(H) + verify_antipode(H)
    iota = A._rows[0]
    assert identities.count(A.dim) == 1
    assert A.generator_rows()[0] is iota and iota._leaf is not None
    assert A.identity_map() is A.identity_map()
    assert A.identity_map()._leaf is not None
    assert checks


def test_taft_battery_at_p11_lists_no_product_or_braiding_matrix():
    # m and tau are diagram leaves that compute a column when it is read,
    # and Delta is built through them; with m's 121 x 121^2 matrix, its
    # 121^2 column dicts and tau as a 121^2 x 121^2 matrix, the peak was
    # about 16 MB, and with Delta built in braided_tensor_algebra 5.8 MB
    tracemalloc.start()
    try:
        H = taft_hopf(11)
        checks = verify_bialgebra(H) + verify_antipode(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all_pass(checks), failed_names(checks)
    assert peak < 3.5e6


# The matrix route the verifiers used before they went column by column:
# every identity is materialised with tensor_map and @ and compared as
# matrices.  It is kept here as an independent oracle at small p.


def _matrix_map_check(name, lhs, rhs, source_labels):
    if lhs == rhs:
        return check(name, True)
    diff = lhs.mat - rhs.mat
    j = min(c for (_, c) in diff.data)
    entries = sorted((r, s) for (r, c), s in diff.data.items() if c == j)
    witness = {
        "input": source_labels[j],
        "difference": [[r, format_scalar(s)] for r, s in entries],
    }
    return check(name, False, details="maps differ", witnesses=[witness])


def matrix_route_checks(H):
    # the product by pairs, so that the oracle shares no route with H.m,
    # and the columns of the leaves Delta, eps and S as matrices
    m = mult_map_by_pairs(H.algebra)
    Delta, eps, S = (leaf_map(f) for f in (H.Delta, H.eps, H.S))
    V = H.space
    idv = GradedMap.identity(V)
    tau = braiding_matrix(V, V, H.chi)
    pairs = ["%s , %s" % (a, b) for a in V.labels for b in V.labels]
    singles = list(V.labels)
    mm = tensor_map(m, m) @ tensor_map(idv, tensor_map(tau, idv))
    unit = GradedMap.identity(GradedSpace.unit(V.N))
    counit = []
    for side, law in (("(eps(x)id).Delta", (eps, idv)),
                      ("(id(x)eps).Delta", (idv, eps))):
        c = _matrix_map_check("counit_law", tensor_map(*law) @ Delta, idv,
                              singles)
        counit.append(dict(
            c, details="(eps(x)id).Delta = id = (id(x)eps).Delta",
            witnesses=[dict(side=side, **w) for w in c["witnesses"]]))
    ue = H.u @ eps
    rank = S.mat.rank()
    checks = [
        _matrix_map_check("coproduct_is_multiplicative", Delta @ m,
                          mm @ tensor_map(Delta, Delta), pairs),
        _matrix_map_check("coproduct_of_unit", Delta @ H.u,
                          tensor_map(H.u, H.u), ["1"]),
        _matrix_map_check("counit_is_multiplicative", eps @ m,
                          tensor_map(eps, eps), pairs),
        _matrix_map_check("counit_of_unit", eps @ H.u, unit, ["1"]),
        _matrix_map_check("coassociativity",
                          tensor_map(Delta, idv) @ Delta,
                          tensor_map(idv, Delta) @ Delta, singles),
        next((c for c in counit if c["status"] == FAIL), counit[0]),
        _matrix_map_check("antipode_left",
                          m @ tensor_map(S, idv) @ Delta, ue, singles),
        _matrix_map_check("antipode_right",
                          m @ tensor_map(idv, S) @ Delta, ue, singles),
        _matrix_map_check("antipode_is_antimultiplicative", S @ m,
                          m @ tensor_map(S, S) @ tau, pairs),
        _matrix_map_check("antipode_is_anticomultiplicative", Delta @ S,
                          tau @ tensor_map(S, S) @ Delta, singles),
        check("antipode_invertible", rank == V.dim,
              details="rank %d of %d" % (rank, V.dim)),
    ]
    return checks


def broken_taft_hopf(p, primitive_x=False, eps_x=0, antipode_sign=-1):
    """Taft's algebra with a wrong image of x, for the witness paths.

    primitive_x gives Delta(x) = x(x)1 + 1(x)x, which does not respect
    x^p = 0 (Delta(x)^p has ordinary binomial coefficients); eps_x != 0 or
    antipode_sign = 1 break the counit and antipode axioms.
    """
    A = taft(p)
    chi = Bicharacter(1, 0)
    TA = braided_tensor_algebra(A, A, chi)
    g, x, one = A.gen("g"), A.gen("x"), A.unit()
    left = one if primitive_x else g
    cop = {"g": tensor_pair(TA, g, g),
           "x": tensor_pair(TA, x, one) + tensor_pair(TA, left, x)}
    ant = {"g": g ** (p - 1), "x": antipode_sign * (g ** (p - 1) * x)}
    return build_hopf(A, chi, cop, {"g": 1, "x": eps_x}, ant)


ORACLE_CASES = (
    [("taft", lambda p=p: taft_hopf(p)) for p in (2, 3)]
    + [("anyonic", lambda p=p: anyonic_hopf(p)) for p in (2, 3, 5)]
    + [("anyonic c=0", lambda p=p: anyonic_hopf(p, c=0)) for p in (3, 5)]
    + [("broken taft coproduct",
        lambda: broken_taft_hopf(3, primitive_x=True)),
       ("broken taft counit and antipode",
        lambda: broken_taft_hopf(3, eps_x=1, antipode_sign=1)),
       ("group algebra Z/3", lambda: group_algebra_hopf(3))]
)


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: c[0])
def test_column_route_matches_matrix_route(case):
    H = case[1]()
    checks = verify_bialgebra(H) + verify_antipode(H)
    # the last check records S^2, read off S @ S on the matrix route
    assert checks[:-1] == matrix_route_checks(H)
    assert checks[-1]["name"] == "antipode_square_recorded"
    assert checks[-1]["witnesses"] == square_antipode_by_matrix(H)


BROKEN_TAFT = ({"primitive_x": True}, {"eps_x": 1}, {"antipode_sign": 1},
               {"eps_x": 1, "antipode_sign": 1})

ROW_CASES = (
    [("anyonic p=%d c=%d" % (p, c), lambda p=p, c=c: anyonic_hopf(p, c))
     for p in (2, 3, 5, 7) for c in (0, 1, 2)]
    + [("broken taft p=%d %s" % (p, sorted(kw.items())),
        lambda p=p, kw=kw: broken_taft_hopf(p, **kw))
       for p in (2, 3, 5) for kw in BROKEN_TAFT]
)


@pytest.mark.parametrize("case", ROW_CASES, ids=lambda c: c[0])
def test_generator_rows_match_all_pairs(case):
    # the laws multiplicative in their first argument, checked on generator
    # rows, give the check list of the sweep over every pair, witnesses
    # included
    H = case[1]()
    assert verify_bialgebra(H) + verify_antipode(H) == hopf_checks_by_pairs(H)


def skew_taft(p, s):
    """Taft's presentation with xg = s*gx: for s^p != 1 it is not
    associative, since (x*g^(p-1))*g = s^p*x but x*(g^(p-1)*g) = x."""
    g, x = 0, 1
    return PresentedAlgebra(Presentation(
        N=1, gens=("g", "x"), degrees=(0, 0),
        bounds=(p, p), power_rhs=(1, 0),
        straighten={(x, g): ((s, ((g, 1), (x, 1))),)}),
        signature=("skew_taft", p, s))


def skew_taft_x_first(p, s):
    """skew_taft's rule in the normal order x, g: gx = s*xg.  The L_g
    satisfy it, but L_g^p is s^(bp) on x^b g^a, so g^p = 1 fails for
    s^p != 1, and (g^(p-1)*g)*x = x but g^(p-1)*(g*x) = s^p*x."""
    x, g = 0, 1
    return PresentedAlgebra(Presentation(
        N=1, gens=("x", "g"), degrees=(0, 0),
        bounds=(p, p), power_rhs=(0, 1),
        straighten={(g, x): ((s, ((x, 1), (g, 1))),)}),
        signature=("skew_taft_x_first", p, s))


def skew_taft_hopf(p):
    """Taft's Hopf structure maps over skew_taft(p, 1/2)."""
    A = skew_taft(p, Fraction(1, 2))
    g, x = A.gen("g"), A.gen("x")
    TA = braided_tensor_algebra(A, A, Bicharacter(1, 0))
    one = A.unit()
    return build_hopf(
        A, Bicharacter(1, 0),
        {"g": tensor_pair(TA, g, g),
         "x": tensor_pair(TA, x, one) + tensor_pair(TA, g, x)},
        {"g": 1, "x": 0}, {"g": g ** (p - 1), "x": -(g ** (p - 1) * x)})


@pytest.mark.parametrize("make", [skew_taft, skew_taft_x_first])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_skew_taft_is_generated_with_a_right_unit(make, p):
    # the premises _row_premises takes from the construction, swept, on
    # presentations that are not associative
    assert row_premises_by_sweep(make(p, Fraction(1, 2))) == (None, None)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_non_associative_presentation_fails_every_row_law(p):
    A = skew_taft(p, Fraction(1, 2))
    g, x = A.gen("g"), A.gen("x")
    assert (x * g ** (p - 1)) * g == Fraction(1, 2 ** p) * x
    assoc, _ = A.verify_associativity()
    assert assoc["status"] == FAIL
    witness = assoc["witnesses"][0]
    assert set(witness) == {"input", "difference"}
    H = skew_taft_hopf(p)
    checks = {c["name"]: c for c in verify_bialgebra(H) + verify_antipode(H)}
    # eps(x) = 0 makes the counit law hold on the generator rows, but
    # without associativity the rows prove nothing: it fails too
    for name in ("coproduct_is_multiplicative", "counit_is_multiplicative",
                 "antipode_is_antimultiplicative"):
        c = checks[name]
        assert c["status"] == FAIL
        assert c["details"] == "premise fails: associativity on generator rows"
        assert c["witnesses"] == [
            dict(witness, premise="associativity on generator rows")]


@pytest.mark.parametrize("skew", [skew_taft, skew_taft_x_first])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_failed_relation_falls_back_to_the_row_premise(monkeypatch, skew,
                                                          p):
    # xg = gx/2 leaves the overlap x*g^p unresolved (in the order x, g it
    # is g^p*x), so associativity is checked on generator rows, which
    # finds the witness
    A = skew(p, Fraction(1, 2))
    assert not A._relations_hold()
    names = []
    real = algebras.map_check

    def watched(name, *args, **kwargs):
        names.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(algebras, "map_check", watched)
    assoc, _ = A.verify_associativity()
    assert names[0] == "associativity"
    assert assoc["status"] == FAIL and assoc["witnesses"][0]["difference"]


@pytest.mark.parametrize("make", [
    lambda: taft(3), lambda: taft(5), lambda: anyonic_line(5),
    lambda: uqsl2(3), lambda: d_a_mu(3, 1), lambda: d_a_mu(2, 0),
    lambda: d_a_mu(2, 1), skew_algebra,
    *(lambda a=a, extra=extra: skew_line(*a, extra=extra)
      for a in ((root_of_unity(4), -1, -2), (-1, 1, Fraction(1, 2)))
      for extra in ((), ((1, ()),))),
    *(lambda skew=skew, p=p, s=s: skew(p, s)
      for skew in (skew_taft, skew_taft_x_first) for p in (2, 3, 5)
      for s in (1, -1, root_of_unity(p), Fraction(1, 2))),
], ids=lambda make: repr(make().signature))
def test_relation_check_matches_the_regular_module(make):
    # the overlap lemma of _relations_hold, on a fresh algebra, against
    # verify_module's map_check of the defining relations on the L_g of
    # the regular module, associative or not
    A = make()
    assert A._relations_hold() == all_pass(verify_module(regular_module(A)))


@pytest.mark.parametrize("make", [
    lambda: taft_hopf(3), lambda: anyonic_hopf(5), lambda: anyonic_hopf(5, 0),
], ids=["taft p=3", "anyonic p=5 c=1", "anyonic p=5 c=0"])
def test_relations_route_matches_the_row_premise_on_hopf_checks(
        monkeypatch, make):
    def checks():
        H = make()
        return verify_bialgebra(H) + verify_antipode(H)

    relations = checks()
    monkeypatch.setattr(PresentedAlgebra, "_relations_hold",
                        lambda self: False)
    assert checks() == relations


@pytest.mark.parametrize("p", [2, 3, 5])
def test_non_associative_check_lists_match_rescan(monkeypatch, p):
    # a presentation that is not confluent: its products depend on the
    # order of rewriting, yet every check, witnesses included, is the one
    # that the rewriting by rescan gives
    def checks():
        H = skew_taft_hopf(p)
        return (H.algebra.verify_associativity() + verify_bialgebra(H)
                + verify_antipode(H))

    actions = checks()
    monkeypatch.setattr(PresentedAlgebra, "_pair_product_raw",
                        pair_product_by_rescan)
    assert actions == checks()


def test_coproduct_law_pushes_generator_rows_only(monkeypatch):
    # a PASS goes by the relation residuals and pushes no input; a nonzero
    # residual falls back to the generator rows, (|G| + 1) * dim = 3 * 25
    # inputs for taft p = 5, where all dim^2 pairs would be 625.  The
    # premises are checked once per algebra, before this.
    def pushed_by(H):
        H.algebra.verify_associativity()
        pushed = []
        columns = Diagram.columns
        real = algebras.map_check

        def watched(name, lhs, rhs, *args, **kwargs):
            if name != "coproduct_is_multiplicative":
                return real(name, lhs, rhs, *args, **kwargs)

            def counting(self):
                for col in columns(self):
                    if self is lhs:
                        pushed.append(col)
                    yield col

            with monkeypatch.context() as mp:
                mp.setattr(Diagram, "columns", counting)
                return real(name, lhs, rhs, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(algebras, "map_check", watched)
            check = verify_bialgebra(H)[0]
        assert check["name"] == "coproduct_is_multiplicative"
        return check["status"], len(pushed)

    assert pushed_by(taft_hopf(5)) == (PASS, 0)
    status, count = pushed_by(broken_taft_hopf(5, primitive_x=True))
    assert status == FAIL
    assert 0 < count <= 75


ROW_LAWS = ("coproduct_is_multiplicative", "counit_is_multiplicative",
            "antipode_is_antimultiplicative")
REST_LAWS = ("coassociativity", "counit_law", "antipode_left",
             "antipode_right", "antipode_is_anticomultiplicative")


def _columns_pushed(monkeypatch, H):
    """{law: [(source dimension, columns pushed)]} for each comparison of
    the five laws that rest on the row laws; counit_law makes two."""
    pushed = {}
    columns = Diagram.columns
    real_map_check = hopf.map_check

    def counted(name, compare, lhs, rhs):
        entry = [math.prod(V.dim for V in lhs.source), 0]
        pushed.setdefault(name, []).append(entry)

        def counting(self):
            for col in columns(self):
                if self is lhs:
                    entry[1] += 1
                yield col

        with monkeypatch.context() as mp:
            mp.setattr(Diagram, "columns", counting)
            return compare(lhs, rhs)

    def watched(name, lhs, rhs, *args, **kwargs):
        if name not in REST_LAWS:
            return real_map_check(name, lhs, rhs, *args, **kwargs)
        return counted(name, lambda l, r: real_map_check(name, l, r, *args,
                                                         **kwargs), lhs, rhs)

    monkeypatch.setattr(hopf, "map_check", watched)
    checks = verify_bialgebra(H) + verify_antipode(H)
    monkeypatch.undo()
    return checks, {name: [tuple(e) for e in v] for name, v in pushed.items()}


def test_coalgebra_and_antipode_laws_push_generator_rows_only(monkeypatch):
    # 1, g and x of taft p = 5; the sweep over every basis input pushes 25
    H = taft_hopf(5)
    checks, pushed = _columns_pushed(monkeypatch, H)
    assert all_pass(checks), failed_names(checks)
    assert pushed == {name: [(3, 3)] * (2 if name == "counit_law" else 1)
                      for name in REST_LAWS}


@pytest.mark.parametrize("make, failing", [
    # Delta is not multiplicative: every law resting on it sweeps all 5
    (lambda: anyonic_hopf(5, 0), ["coproduct_is_multiplicative"]),
    (lambda: broken_taft_hopf(3, primitive_x=True),
     ["coproduct_is_multiplicative", "antipode_left", "antipode_right",
      "antipode_is_anticomultiplicative"]),
], ids=["anyonic p=5 c=0", "broken taft p=3 primitive x"])
def test_a_failed_row_law_sweeps_every_basis_input(monkeypatch, make,
                                                   failing):
    H = make()
    checks, pushed = _columns_pushed(monkeypatch, H)
    assert failed_names(checks) == failing
    assert set(pushed) == set(REST_LAWS)
    for name, comparisons in pushed.items():
        for source, count in comparisons:
            assert source == H.algebra.dim
            assert count == source or name in failing


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_failed_premise_sweeps_the_antipode_laws(p):
    # without associativity the generator rows prove nothing: on skew
    # Taft the antipode laws hold on 1, g and x but fail further on
    H = skew_taft_hopf(p)
    checks = verify_bialgebra(H) + verify_antipode(H)
    by_pairs = hopf_checks_by_pairs(H)
    assert ([c for c in checks if c["name"] in REST_LAWS]
            == [c for c in by_pairs if c["name"] in REST_LAWS])
    assert "antipode_left" in failed_names(checks)


def group_algebra_hopf(n):
    """k[Z/n] with Delta(g) = g (x) g^2, eps(g) = 1 and S(g) = g^2: Delta,
    eps and S respect g^n = 1 for n = 3, so every row law holds, but the
    structure is no Hopf algebra."""
    A = PresentedAlgebra(Presentation(
        N=1, gens=("g",), degrees=(0,), bounds=(n,), power_rhs=(1,),
        straighten={}), signature=("group_algebra", n))
    chi = Bicharacter(1, 0)
    TA = braided_tensor_algebra(A, A, chi)
    g = A.gen("g")
    return build_hopf(A, chi, {"g": tensor_pair(TA, g, g * g)}, {"g": 1},
                      {"g": g * g})


def test_row_laws_pass_and_the_rest_fail_at_the_generator():
    H = group_algebra_hopf(3)
    assert all_pass(H.algebra.verify_associativity())
    checks = verify_bialgebra(H) + verify_antipode(H)
    assert checks == hopf_checks_by_pairs(H)
    by_name = {c["name"]: c for c in checks}
    assert all(by_name[name]["status"] == PASS for name in ROW_LAWS)
    assert failed_names(checks) == list(REST_LAWS)
    for name in REST_LAWS:
        assert by_name[name]["witnesses"][0]["input"] == "g"


def counit_side_hopf(left):
    """k[Z/3] with Delta(g) = g^left (x) g^(3 - left), eps(g) = 1 and
    S(g) = g^2."""
    A = group_algebra_hopf(3).algebra
    chi = Bicharacter(1, 0)
    TA = braided_tensor_algebra(A, A, chi)
    g = A.gen("g")
    return build_hopf(A, chi, {"g": tensor_pair(TA, g ** left,
                                                g ** (3 - left))},
                      {"g": 1}, {"g": g * g})


@pytest.mark.parametrize("left, side", [
    (1, "(eps(x)id).Delta"), (2, "(id(x)eps).Delta")])
def test_a_failed_counit_law_names_its_side_and_input(left, side):
    # eps is multiplicative, and the counit law fails at g on one side
    # only, where it gives g^2 - g
    H = counit_side_hopf(left)
    by_name = {c["name"]: c for c in verify_bialgebra(H)}
    assert by_name["counit_is_multiplicative"]["status"] == PASS
    assert by_name["counit_law"] == {
        "name": "counit_law", "status": FAIL,
        "details": "(eps(x)id).Delta = id = (id(x)eps).Delta",
        "witnesses": [{"side": side, "input": "g",
                       "difference": [[1, "-1"], [2, "1"]]}]}


@pytest.mark.parametrize("kwargs, failing", [
    # S(x) = -g^{p-1} x no longer fits the primitive coproduct either
    ({"primitive_x": True},
     ["coproduct_is_multiplicative", "antipode_left", "antipode_right",
      "antipode_is_anticomultiplicative"]),
    ({"eps_x": 1, "antipode_sign": 1},
     ["counit_is_multiplicative", "counit_law", "antipode_left",
      "antipode_right"]),
])
def test_broken_taft_fails_with_witnesses(kwargs, failing):
    H = broken_taft_hopf(3, **kwargs)
    checks = verify_bialgebra(H) + verify_antipode(H)
    assert failed_names(checks) == failing
    for c in checks:
        if c["status"] == FAIL:
            assert c["witnesses"][0]["difference"]


def taft_antipode_hopf(p, image):
    """Taft's Delta and eps with S(g) = g, which breaks the defining
    relation between g and x for p >= 3 (image "g"), or with S(x) = 0, a
    braided anti-multiplicative S that is not invertible (image "x")."""
    H = taft_hopf(p)
    g = H.algebra.gen("g")
    antipodes = dict(H.antipodes, **({"g": g} if image == "g"
                                     else {"x": H.algebra.zero()}))
    return HopfData(H.algebra, H.chi, H.coproducts, H.counits, antipodes)


RESIDUAL_CASES = (
    [("taft p=%d" % p, lambda p=p: taft_hopf(p)) for p in (2, 3, 5, 7)]
    + [("anyonic p=%d c=%d" % (p, c), lambda p=p, c=c: anyonic_hopf(p, c))
       for p in (2, 3, 5, 7) for c in range(p)]
    + [("broken taft p=%d %s" % (p, sorted(kw.items())),
        lambda p=p, kw=kw: broken_taft_hopf(p, **kw))
       for p in (2, 3, 5) for kw in BROKEN_TAFT]
    + [("skew taft p=%d" % p, lambda p=p: skew_taft_hopf(p))
       for p in (2, 3, 5)]
    + [("group algebra Z/3", lambda: group_algebra_hopf(3))]
    + [("counit side %d" % left, lambda left=left: counit_side_hopf(left))
       for left in (1, 2)]
    + [("taft p=%d S(%s) changed" % (p, image),
        lambda p=p, image=image: taft_antipode_hopf(p, image))
       for p in (3, 5) for image in ("g", "x")]
)


@pytest.mark.parametrize("case", RESIDUAL_CASES, ids=lambda c: c[0])
def test_relation_residuals_match_the_row_sweep(monkeypatch, case):
    # each row law by the residuals of the defining relations, against the
    # row_check that a route which never finds them vanishing takes: the
    # verdicts agree law by law, and so do the checks, witnesses included
    vanish = []
    real = hopf.HopfData._relations_vanish

    def watched(self, f, times):
        vanish.append(real(self, f, times))
        return vanish[-1]

    monkeypatch.setattr(hopf.HopfData, "_relations_vanish", watched)
    H = case[1]()
    by_residuals = [H.row_law(name) for name in ROW_LAWS]
    monkeypatch.setattr(hopf.HopfData, "_relations_vanish",
                        lambda *_: False)
    H = case[1]()
    by_rows = [H.row_law(name) for name in ROW_LAWS]
    assert by_residuals == by_rows
    assert vanish == [c["status"] == PASS for c in by_rows]


@pytest.mark.parametrize("p", [3, 5])
def test_a_non_homogeneous_antipode_image_is_refused(p):
    # S is checked homogeneous of shift 0 on the generator images when it
    # is built, as the braided opposite route needs: S(x) = 1 - x is
    # refused before either route could read it
    A = anyonic_line(p)
    chi = Bicharacter(p)
    TA = braided_tensor_algebra(A, A, chi)
    x, one = A.gen("x"), A.unit()
    with pytest.raises(ValueError, match="breaks homogeneity"):
        build_hopf(A, chi, {"x": tensor_pair(TA, x, one)
                            + tensor_pair(TA, one, x)},
                   {"x": 0}, {"x": one - x})


@pytest.mark.parametrize("p", [3, 5])
def test_a_non_homogeneous_counit_image_is_refused(p):
    # eps is a leaf into k, checked homogeneous on the generator images
    # when it is built: eps(x) = 1 has degree 0, not |x| = 1
    A = anyonic_line(p)
    chi = Bicharacter(p)
    TA = braided_tensor_algebra(A, A, chi)
    x, one = A.gen("x"), A.unit()
    with pytest.raises(ValueError, match="breaks homogeneity"):
        build_hopf(A, chi, {"x": tensor_pair(TA, x, one)
                            + tensor_pair(TA, one, x)},
                   {"x": 1}, {"x": -x})


@pytest.mark.parametrize("p", [3, 5])
def test_a_non_homogeneous_coproduct_image_is_refused(p):
    # Delta is a leaf, checked homogeneous on the generator images when
    # it is built: 1 (x) 1 has degree 0, not |x| = 1
    A = anyonic_line(p)
    chi = Bicharacter(p)
    TA = braided_tensor_algebra(A, A, chi)
    x, one = A.gen("x"), A.unit()
    with pytest.raises(ValueError, match="breaks homogeneity"):
        build_hopf(A, chi, {"x": tensor_pair(TA, x, one)
                            + tensor_pair(TA, one, x)
                            + tensor_pair(TA, one, one)},
                   {"x": 0}, {"x": -x})


@pytest.mark.parametrize("foreign", [
    lambda: anyonic_line(7), lambda: taft(3), lambda: nilpotent_line(5)],
    ids=["anyonic p=7", "taft p=3", "nilpotent p=5"])
def test_an_antipode_image_from_another_algebra_is_refused(foreign):
    # S is extended on columns, which index a foreign element's monomials
    # as if they were A's, so the image is refused before it is read
    A = anyonic_line(5)
    chi = Bicharacter(5)
    TA = braided_tensor_algebra(A, A, chi)
    x, one = A.gen("x"), A.unit()
    with pytest.raises(ValueError):
        build_hopf(A, chi, {"x": tensor_pair(TA, x, one)
                            + tensor_pair(TA, one, x)},
                   {"x": 0}, {"x": -foreign().gen("x")})


@pytest.mark.parametrize("make", [
    lambda: taft_hopf(5), lambda: anyonic_hopf(5)],
    ids=["taft p=5", "anyonic p=5"])
def test_hopf_data_extends_its_maps_with_no_element_product(make,
                                                            monkeypatch):
    # Delta, eps and S are extended on columns through the products of
    # their targets, so building from ready generator images multiplies no
    # AlgebraElements
    H, calls, multiply = make(), [], algebras.FiniteDimAlgebra.multiply

    def spy(self, *args):
        calls.append(args)
        return multiply(self, *args)

    monkeypatch.setattr(algebras.FiniteDimAlgebra, "multiply", spy)
    HopfData(H.algebra, H.chi, H.coproducts, H.counits, H.antipodes)
    assert calls == []


@pytest.mark.parametrize("make, calls", [
    (lambda: taft_hopf(5), (4, 2)), (lambda: taft_hopf(7), (4, 2)),
    (lambda: anyonic_hopf(7), (2, 1))],
    ids=["taft p=5", "taft p=7", "anyonic p=7"])
def test_hopf_data_computes_no_column_past_the_generators(make, calls,
                                                          monkeypatch):
    # Delta, eps and S are leaves: the build takes each generator image
    # through its target's product with the unit, and computes no other
    # column until a check reads it
    counts = {"_on_pairs": 0, "_unit_product": 0}
    for name in counts:
        def spy(*args, name=name, product=getattr(hopf, name)):
            counts[name] += 1
            return product(*args)

        monkeypatch.setattr(hopf, name, spy)
    make()
    assert (counts["_on_pairs"], counts["_unit_product"]) == calls


def test_a_hopf_battery_builds_no_space_larger_than_its_algebra(
        monkeypatch):
    # Delta and the square are leaves on tensor words, so no structure
    # lists V (x) V or its dim^2 degrees
    dims, init = [], GradedSpace.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        dims.append(self.dim)

    monkeypatch.setattr(GradedSpace, "__init__", spy)
    H = taft_hopf(5)
    assert all_pass(verify_bialgebra(H) + verify_antipode(H))
    assert max(dims) == H.algebra.dim == 25


@pytest.mark.parametrize("make", [
    lambda: taft_hopf(5), lambda: anyonic_hopf(5), lambda: anyonic_hopf(5, 0),
], ids=["taft p=5", "anyonic p=5 c=1", "anyonic p=5 c=0"])
def test_hopf_data_is_freed_by_reference_counting(make):
    # neither route leaves a reference cycle through the structure maps,
    # so a battery's HopfData goes as soon as its last reference does
    gc.collect()
    gc.disable()
    try:
        H = make()
        verify_bialgebra(H) + verify_antipode(H)
        ref = weakref.ref(H)
        del H
        assert ref() is None
    finally:
        gc.enable()


EXTENSION_CASES = (
    [("taft p=%d" % p, lambda p=p: taft_hopf(p)) for p in (2, 3, 5, 7)]
    + [("anyonic p=%d c=%d" % (p, c), lambda p=p, c=c: anyonic_hopf(p, c))
       for p in (2, 3, 5, 7) for c in range(p)]
    + [("broken taft %s" % sorted(kw.items()),
        lambda kw=kw: broken_taft_hopf(3, **kw))
       for kw in ({"primitive_x": True}, {"eps_x": 1, "antipode_sign": 1})]
)


@pytest.mark.parametrize("case", EXTENSION_CASES, ids=lambda c: c[0])
def test_structure_maps_match_generator_powers(case):
    # entries are compared by type and repr, the values witnesses print
    H = case[1]()
    delta, eps, S = hopf_maps_by_powers(H)
    assert typed_entries(leaf_map(H.Delta).mat) == typed_entries(delta)
    assert typed_entries(leaf_map(H.eps).mat) == typed_entries(eps)
    assert typed_entries(leaf_map(H.S).mat) == typed_entries(S)


def test_hopf_data_is_behind_the_dimension_guard(monkeypatch):
    monkeypatch.setenv("BHL_DIM_GUARD", "20")
    with pytest.raises(DimensionGuardError):
        taft_hopf(5)
    anyonic_hopf(5)


def test_hopf_builders_check_the_guard_before_the_square(monkeypatch):
    # the braided square as an algebra lists dim^2 basis pairs, and no
    # Hopf structure builds it, even under the guard: Delta is extended
    # through the square's diagram leaf.  Nor is the
    # algebra built for a size the guard rejects, since its build grows
    # with p
    def built(*args):
        raise AssertionError("built")

    monkeypatch.setattr(hopf, "braided_tensor_algebra", built)
    for H in (taft_hopf(5), anyonic_hopf(5), anyonic_hopf(5, 0)):
        verify_bialgebra(H)
        verify_antipode(H)
    assert all_pass(verify_coproduct_powers(anyonic_hopf(5)))
    monkeypatch.setenv("BHL_DIM_GUARD", "10")
    for name in ("anyonic_line", "taft"):
        monkeypatch.setattr(hopf, name, built)
    for build in (lambda: taft_hopf(5), lambda: anyonic_hopf(11),
                  lambda: build_hopf(anyonic_line(11), Bicharacter(11), {},
                                     {}, {})):
        with pytest.raises(DimensionGuardError, match="Hopf structure"):
            build()


@pytest.mark.parametrize("case", RESIDUAL_CASES, ids=lambda c: c[0])
def test_antipode_invertible_by_the_square_matches_the_rank(monkeypatch,
                                                            case):
    # S^2 on the generators decides antipode_invertible when the antipode
    # law passed, A is presented and each S^2(g) is one nonzero term on g;
    # then it must agree with the rank of S's assembled columns, and
    # otherwise that rank is taken
    H = case[1]()
    ranks = []
    real = hopf.from_cols

    def spy(*args):
        ranks.append(args)
        return real(*args)

    monkeypatch.setattr(hopf, "from_cols", spy)
    checks = {c["name"]: c for c in verify_antipode(H)}
    monkeypatch.undo()
    A, n = H.algebra, H.algebra.dim
    rank = leaf_map(H.S).mat.rank()
    assert checks["antipode_invertible"] == check(
        "antipode_invertible", rank == n, details="rank %d of %d" % (rank, n))
    lemma = (checks["antipode_is_antimultiplicative"]["status"] == PASS
             and all(antipode_square_by_peeling(H, g).terms.keys()
                     == g.terms.keys() for _, g in A.generators()))
    assert len(ranks) == (0 if lemma else 1)
    # the failed premise of skew Taft, the broken relation of S(g) = g and
    # S^2(x) = 0 take the rank; every other structure takes the lemma
    assert lemma != (case[0].startswith("skew") or "changed" in case[0])


def test_the_antipode_law_reads_few_columns_of_s(monkeypatch):
    # at taft p = 17 the laws and the S^2 lemma read S on 1, the
    # generators and the monomials of their images, not all p^2 columns
    p, read = 17, []
    real = PresentedAlgebra._extended

    def spy(self, memo, gen_images, times, mono):
        read.append((times, mono))
        return real(self, memo, gen_images, times, mono)

    monkeypatch.setattr(PresentedAlgebra, "_extended", spy)
    H = taft_hopf(p)
    checks = verify_antipode(H)
    monkeypatch.undo()
    assert all_pass(checks), failed_names(checks)
    columns = {mono for times, mono in read if times is H.products["S"]}
    assert 0 < len(columns) < 4 * p


@pytest.mark.parametrize("p", [2, 3, 5])
def test_taft_antipode_square_is_conjugation_scalar(p):
    H = taft_hopf(p)
    A = H.algebra
    g, x = A.gen("g"), A.gen("x")
    assert antipode_square(H, x) == A.xi ** -1 * x
    assert antipode_square(H, g) == g
    # S^2 is conjugation by the grouplike g^{-1}
    S = leaf_map(H.S)
    s2 = S @ S
    assert is_invertible(s2)
    conj = A.left_mult_operator(g ** (p - 1)) * right_mult_operator(A, g)
    assert s2.mat == conj


SQUARE_CASES = (
    [("anyonic p=%d c=%d" % (p, c), lambda p=p, c=c: anyonic_hopf(p, c))
     for p in (2, 3, 5, 7, 11, 13) for c in (0, 1)]
    + [("taft p=%d" % p, lambda p=p: taft_hopf(p)) for p in (2, 3, 5)])


@pytest.mark.parametrize("case", SQUARE_CASES, ids=lambda c: c[0])
def test_antipode_square_matches_the_generator_images(case):
    # S^2 by S's leaf against S summed over monomials from the generator
    # images by peeling, by type and repr: on every basis element, in the
    # record of verify_antipode, and in the Taft S^2(x) check
    name, build = case
    H = build()
    A = H.algebra
    for mono in A.basis:
        a = A.element({mono: 1})
        assert typed_terms(antipode_square(H, a).terms) == typed_terms(
            antipode_square_by_peeling(H, a).terms), (name, mono)
    assert verify_antipode(H)[-1]["witnesses"] == [
        {"generator": g, "square_antipode_image":
         repr(antipode_square_by_peeling(H, el))}
        for g, el in A.generators()]
    if name.startswith("taft"):
        x = A.gen("x")
        assert antipode_square_by_peeling(H, x) == A.xi ** -1 * x
        assert taft_hopf_checks(A.p)[-1]["status"] == PASS


def test_anyonic_antipode_signs():
    p = 5
    H = anyonic_hopf(p)
    A = H.algebra
    xi = A.xi
    for n in range(p):
        xn = A.element({(n,): 1})
        want = (-1) ** n * xi ** (n * (n - 1) // 2) * xn
        assert antipode(H, xn) == want


def test_unbraided_square_breaks_coproduct_multiplicativity():
    H0 = anyonic_hopf(3, c=0)
    checks = verify_bialgebra(H0)
    bad = [c for c in checks if c["name"] == "coproduct_is_multiplicative"]
    assert bad and bad[0]["status"] == FAIL
    assert bad[0]["witnesses"]


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_antipode_antimultiplicative_on_elements(data):
    H = anyonic_hopf(5)
    A = H.algebra
    na = data.draw(st.integers(0, 4))
    nb = data.draw(st.integers(0, 4))
    ca = data.draw(st.integers(-3, 3))
    cb = data.draw(st.integers(-3, 3))
    a = ca * A.element({(na,): 1})
    b = cb * A.element({(nb,): 1})
    lhs = antipode(H, a * b)
    rhs = H.chi.chi(na, nb) * (antipode(H, b) * antipode(H, a))
    assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coproduct_powers_match_iterated_product(p):
    H = anyonic_hopf(p)
    assert all_pass(verify_coproduct_powers(H))


def test_gaussian_binomials_take_no_field_inverse(monkeypatch):
    # the structure constants of dual_anyonic(7) and the closed forms of
    # Delta(x^n) come from the q-Pascal table, with no division
    def inverse(self):
        raise AssertionError("inverse of %s" % format_scalar(self))
    A, H = dual_anyonic(7), anyonic_hopf(7)
    monkeypatch.setattr(Cyclotomic, "inverse", inverse)
    for i in range(7):
        for j in range(7):
            A.pair_product(i, j)
    for n in range(7):
        coproduct_power(H, n)


def test_coproduct_square_explicit():
    # columns of V (x) V: x^i (x) x^j has index 3i + j
    H = anyonic_hopf(3)
    xi = H.algebra.xi
    assert coproduct_power(H, 2) == {2 * 3 + 0: 1, 1 * 3 + 1: 1 + xi,
                                     0 * 3 + 2: 1}
    # a wrong Delta(x) = 2 (x (x) 1 + 1 (x) x) fails from the first power
    H = HopfData(H.algebra, H.chi,
                 {"x": {k: 2 * c for k, c in H.coproducts["x"].items()}},
                 H.counits, H.antipodes)
    checks = verify_coproduct_powers(H)
    assert failed_names(checks) == ["coproduct_power_1", "coproduct_power_2"]
    assert checks[1]["witnesses"] == [{"power": 1,
                                       "product": [[1, "2"], [3, "2"]],
                                       "formula": [[1, "1"], [3, "1"]]}]


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_regular_modules_satisfy_relations(p):
    assert all_pass(verify_module(regular_module(taft(p))))
    assert all_pass(verify_module(regular_module(anyonic_line(p))))


def test_broken_action_fails_module_check():
    M = regular_module(taft(3))
    bad = AlgebraModule(
        M.algebra, M.space,
        {"g": GradedMap.identity(M.space), "x": M.ops["x"]},
    )
    names = failed_names(verify_module(bad))
    assert "module relation x*g straightens" in names


def test_module_act_matches_left_multiplication():
    A = taft(3)
    M = regular_module(A)
    g, x = A.gen("g"), A.gen("x")
    el = g * x + 2 * x
    assert M.act_matrix(el) == A.left_mult_operator(el)
    hom = M.act(x)
    assert hom.shift == 0  # taft is trivially graded


@pytest.mark.parametrize("p, most", [(5, 48), (7, 96)])
def test_ribbon_action_composes_each_run_once(monkeypatch, p, most):
    # Splitting a monomial at its last run composes about once per run;
    # peeling single letters instead takes 74 compositions at p = 5 and
    # 195 at p = 7.
    M = to_uqsl2(regular_ayd_module(p, 1))
    v_0 = ribbon_element(p).v_0
    calls = []
    compose = GradedMap.__matmul__

    def counting(f, g):
        calls.append(1)
        return compose(f, g)

    monkeypatch.setattr(GradedMap, "__matmul__", counting)
    M.act(v_0)
    assert len(calls) <= most
