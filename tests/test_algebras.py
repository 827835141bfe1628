import gc
import itertools
import operator
import os
import random
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhl.algebras import (
    DimensionGuardError,
    PresentedAlgebra,
    Presentation,
    StructureConstantAlgebra,
    algebra_morphism,
    anyonic_line,
    check_guard,
    d_a_mu,
    dual_anyonic,
    induced_linear_map,
    is_prime,
    nilpotent_line,
    taft,
    uqsl2,
)
from bhl import algebras, ayd, cli, scalars
from bhl.ayd import regular_ayd_module, ribbon_element
from bhl.exactmat import Mat, from_cols
from bhl.graded import Bicharacter, Diagram
from bhl.hopf import braided_tensor_algebra
from bhl.report import FAIL, PASS
from bhl.scalars import power, q_int, root_of_unity
from oracle import (
    apply_by_letters,
    associativity_by_triples,
    center_by_generator_chain,
    center_by_restriction,
    commutant_by_sweep,
    induced_map_by_power_table,
    is_prime_by_trial_division,
    kernel_dims,
    leaf_entries,
    mirror_premise_by_letters,
    mult_map_by_pairs,
    normal_form,
    normal_form_by_rescan,
    pair_product_by_rescan,
    presented_degrees_and_labels,
    q_factorial,
    regular_degrees_and_labels,
    replace,
    row_premises_by_sweep,
    typed_entries,
    typed_terms,
)


def all_pass(checks):
    return all(c["status"] == PASS for c in checks)


def basis_element(A, i):
    return A.element({A.basis[i]: 1})


SMALL_PRESENTED = {
    "uqsl2(%d)" % p: (uqsl2, p) for p in (3, 5, 7)} | {
    "d_a_mu(%d,%d)" % (p, mu): (d_a_mu, p, mu)
    for p in (2, 3, 5, 7) for mu in sorted({0, 1, p - 1})} | {
    "taft(%d)" % p: (taft, p) for p in (2, 3, 5, 7)} | {
    "anyonic_line(%d)" % p: (anyonic_line, p) for p in (2, 3, 5, 7)} | {
    "nilpotent_line(6,y,4)": (nilpotent_line, 6, "y", 4),
    "nilpotent_line(7,x,-2)": (nilpotent_line, 7, "x", -2)}


@pytest.mark.parametrize("build", SMALL_PRESENTED.values(),
                         ids=SMALL_PRESENTED.keys())
def test_degrees_and_labels_match_the_per_monomial_formulas(build):
    A = build[0](*build[1:])
    basis, degrees, labels = presented_degrees_and_labels(A)
    assert list(A.basis) == basis
    assert list(A.mono_degrees) == degrees
    assert list(A.labels) == labels
    V = A.graded_space()
    assert list(V.degrees) == degrees and list(V.labels) == labels
    assert [A.mono_label(m) for m in basis] == labels


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_regular_module_degrees_and_labels_match_the_formulas(p):
    degrees, labels = regular_degrees_and_labels(p)
    for mu in sorted({0, 1, p - 1}):
        space = regular_ayd_module(p, mu).space
        assert list(space.degrees) == degrees and list(space.labels) == labels


def test_building_names_no_monomial(monkeypatch):
    # labels are named when read, through the module-level naming
    # functions, which the builds below never call
    def refuse(*args):
        raise AssertionError("a monomial was named")

    monkeypatch.setattr(algebras, "_monomial_label", refuse)
    monkeypatch.setattr(ayd, "_regular_label", refuse)
    U, M = uqsl2(7), regular_ayd_module(5, 1)
    assert len(U.labels) == 343 and len(M.space.labels) == 125
    for labels in (U.labels, M.space.labels, U.graded_space().labels):
        with pytest.raises(AssertionError, match="named"):
            labels[0]


def test_an_algebra_with_its_center_is_freed_by_reference_counting():
    # no reference cycle back to the algebra (a label sequence that named
    # monomials by a bound method would be one), so the algebra and its
    # caches go as soon as the last reference does
    gc.collect()
    gc.disable()
    try:
        U = uqsl2(5)
        U.compute_center()
        ref = weakref.ref(U)
        del U
        assert ref() is None
    finally:
        gc.enable()


DIAGONAL = {"uqsl2(%d)" % p: ("K", uqsl2, p) for p in (3, 5, 7)} | {
    "d_a_mu(%d,%d)" % (p, mu): ("g", d_a_mu, p, mu)
    for p in (3, 5, 7) for mu in (0, 1)} | {
    "taft(%d)" % p: ("g", taft, p) for p in (2, 3, 5, 7)}


@pytest.mark.parametrize("case", DIAGONAL.values(), ids=DIAGONAL.keys())
def test_diagonal_commutant_matches_the_sweep(case):
    # lambda_m read with g's own exponent set to 0, against g*m == m*g
    # compared on every basis monomial; the other generators are nilpotent
    gen, build, *args = case
    A = build(*args)
    kept = {name: A._diagonal_commutant(m, list(A.basis))
            for name, m in A.generator_monos.items()}
    assert [name for name, k in kept.items() if k is not None] == [gen]
    assert kept[gen] == commutant_by_sweep(A, A.generator_monos[gen])


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
    assert normal_form(A, [("g", -2)]) == g ** (p - 2)
    with pytest.raises(ValueError):
        normal_form(A, [("x", -1)])
    # a power past the bound is reduced, not applied letter by letter
    assert normal_form(A, [("g", p * 10 ** 12 + 1), ("x", 1)]) == g * x
    assert normal_form(A, [("x", 10 ** 12)]) == A.zero()
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
    # the unit e_0 fails on the left, and (e_0 e_0) e_2 = 3 e_2 != 9 e_2 =
    # e_0 (e_0 e_2)
    assoc, unit = broken_unit_algebra().verify_associativity()
    assert (assoc["name"], assoc["status"]) == ("associativity", FAIL)
    assert assoc["witnesses"] == [{"input": "1*1*e_2",
                                   "difference": [[2, "-6"]]}]
    assert (unit["name"], unit["status"]) == ("unitality", FAIL)
    assert unit["witnesses"] == [{"input": "e_2", "difference": [[2, "2"]]}]


def broken_unit_algebra():
    """e_i e_j = e_{i+j} below degree 3, except e_0 e_2 = 3 e_2."""
    def rule(i, j):
        if i + j > 2:
            return {}
        return {i + j: 3 if (i, j) == (0, 2) else 1}

    return StructureConstantAlgebra(
        signature=("broken",), N=3, basis=(0, 1, 2),
        degrees=(0, 1, 2), labels=("1", "e_1", "e_2"), unit_mono=0,
        pair_rule=rule, generator_monos=(("e_1", 1),))


@pytest.mark.slow
@pytest.mark.parametrize("make", [
    lambda: d_a_mu(5, 0), lambda: d_a_mu(5, 1), lambda: uqsl2(5),
])
def test_associativity_sweep_big(make):
    assert all_pass(make().verify_associativity())


ALGEBRAS = (
    [("taft(%d)" % p, lambda p=p: taft(p)) for p in (2, 3, 5)]
    + [("anyonic_line(%d)" % p, lambda p=p: anyonic_line(p))
       for p in (2, 3, 5)]
    + [("dual_anyonic(%d)" % p, lambda p=p: dual_anyonic(p))
       for p in (2, 3, 5)]
    + [("d_a_mu(%d, %d)" % (p, mu), lambda p=p, mu=mu: d_a_mu(p, mu))
       for p in (2, 3) for mu in range(p)]
    + [("uqsl2(3)", lambda: uqsl2(3)),
       ("braided square of anyonic_line(3)",
        lambda: braided_tensor_algebra(anyonic_line(3), anyonic_line(3),
                                       Bicharacter(3, 1))),
       ("broken unit", broken_unit_algebra)]
)


@pytest.mark.parametrize("case", ALGEBRAS, ids=lambda c: c[0])
def test_generator_rows_match_all_triples(case):
    # d_a_mu and uqsl2 at p = 5 take minutes over all 125^3 triples
    A = case[1]()
    assert A.verify_associativity() == associativity_by_triples(A)


PRESENTED = [c for c in ALGEBRAS
             if c[0].startswith(("taft", "anyonic_line", "d_a_mu", "uqsl2"))]


@pytest.mark.parametrize("case", PRESENTED + [
    pytest.param((name, make), marks=pytest.mark.slow) for name, make in (
        ("uqsl2(5)", lambda: uqsl2(5)), ("d_a_mu(5, 1)", lambda: d_a_mu(5, 1)))
], ids=lambda c: c[0])
def test_relations_route_matches_the_row_premise(monkeypatch, case):
    # the overlaps of the defining relations resolve, so associativity is
    # taken from them; the check on generator rows, forced, is the oracle
    A = case[1]()
    checks = A.verify_associativity()
    assert A._relations_hold()
    monkeypatch.setattr(PresentedAlgebra, "_relations_hold",
                        lambda self: False)
    assert case[1]().verify_associativity() == checks


def test_relations_route_reads_products_at_the_overlaps_alone(monkeypatch):
    # _relations_hold evaluates the relations in the regular module at the
    # letters g and x, and x*g also at g^(p-1), so the product columns it
    # computes do not grow with p; the L_g over the basis took 2 p^2
    counts = []
    for p in (5, 17):
        calls, raw = [], PresentedAlgebra._pair_product_raw
        monkeypatch.setattr(PresentedAlgebra, "_pair_product_raw", lambda
                            self, a, b: calls.append(a) or raw(self, a, b))
        assert taft(p)._relations_hold()
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1] < 2 * 5 ** 2


@pytest.mark.parametrize("p", [17, 29])
def test_relations_route_acts_on_few_monomials(p):
    # the power rule x^p = 0 is evaluated at the letters alone, where it
    # meets an overlap; at m = g^(p-1) it would straighten x past every
    # g^j x^k and fill all p^2 memoised actions
    A = taft(p)
    assert A._relations_hold()
    assert len(A._actions) < 4 * p


@pytest.mark.parametrize("word", [((1, 1), (0, 1)), ((0, 1), (0, 1)),
                                  ((0, 3),), ((2, 1),), ((-1, 1),)])
def test_a_rule_word_that_is_not_normal_is_refused(word):
    # letters out of order or repeated, an exponent at the bound, a letter
    # that is no generator: the relation a*b = sum c*w needs each w normal
    with pytest.raises(ValueError, match="not a normal monomial"):
        PresentedAlgebra(Presentation(
            N=1, gens=("x", "y"), degrees=(0, 0), bounds=(3, 2),
            power_rhs=(0, 0), straighten={(1, 0): ((1, word),)}))


@pytest.mark.parametrize("c", [1, -1])
def test_a_rule_that_does_not_decrease_takes_the_generator_rows(c):
    # y*x -> c x*y + x^2: x^2 has the count and length of y*x but another
    # multiset, so the order does not compare them and the overlap lemma
    # does not apply; the generator rows decide, as the triples do.  For
    # c = -1 the algebra is associative and its overlaps resolve
    A = PresentedAlgebra(Presentation(
        N=1, gens=("x", "y"), degrees=(0, 0), bounds=(3, 2),
        power_rhs=(0, 0), straighten={
            (1, 0): ((c, ((0, 1), (1, 1))), (1, ((0, 2),)))}))
    assert not A._relations_hold()
    assert A.verify_associativity() == associativity_by_triples(A)


def random_decreasing_presentation(rng):
    """Two or three generators of degree 0 with bounds 2 or 3, each rule
    hi*lo -> c lo*hi plus up to two normal words below hi*lo in the order
    of PresentedAlgebra._relations_hold."""
    k = rng.choice([2, 3])
    bounds = tuple(rng.choice([2, 3]) for _ in range(k))
    rhs = tuple(rng.choice([0, 0, 1, -1, 2]) for _ in range(k))

    def order(word):
        return (sum(e for gi, e in word if not rhs[gi]),
                sum(e for _, e in word))
    straighten = {}
    for hi, lo in itertools.combinations(reversed(range(k)), 2):
        rule = [(rng.choice([1, -1, 2, Fraction(1, 2)]), ((lo, 1), (hi, 1)))]
        for _ in range(rng.choice([0, 1, 2])):
            word = tuple((gi, e) for gi in range(k) if (
                e := rng.randrange(bounds[gi])) and rng.random() < 0.5)
            if order(word) < order(rule[0][1]):
                rule.append((rng.choice([1, -1, 3]), word))
        straighten[hi, lo] = tuple(rule)
    return Presentation(N=1, gens=("a", "b", "c")[:k], degrees=(0,) * k,
                        bounds=bounds, power_rhs=rhs, straighten=straighten)


@pytest.mark.parametrize("seed", range(40))
def test_overlap_lemma_matches_the_triples(seed):
    # on rules that decrease, the overlaps resolve exactly when the
    # product is associative on all dim^3 basis triples
    pres = random_decreasing_presentation(random.Random(seed))
    assert PresentedAlgebra(pres)._relations_hold() == (
        associativity_by_triples(PresentedAlgebra(pres))[0]["status"] == PASS)


def test_relations_route_pushes_no_associativity_column(monkeypatch):
    # taft(5): the relations route pushes no column, as a presented
    # algebra is generated from 1 and has a*1 = a by construction; the
    # fallback's generation search pushes 3 * 25 columns and its row
    # premise 3 * 25^2 triples on each side of its map_check
    pushed, names = [], []
    columns, real = Diagram.columns, algebras.map_check

    def counting(self):
        for col in columns(self):
            pushed.append(col)
            yield col

    def watched(name, *args, **kwargs):
        names.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(Diagram, "columns", counting)
    monkeypatch.setattr(algebras, "map_check", watched)
    assoc, unreached = taft(5)._row_premises()
    assert (assoc["status"], unreached, names) == (PASS, None, [])
    assert len(pushed) == 0
    pushed.clear()
    monkeypatch.setattr(PresentedAlgebra, "_relations_hold",
                        lambda self: False)
    assert taft(5)._row_premises() == (assoc, None)
    assert names == ["associativity"]
    assert len(pushed) == 3 * 25 + 2 * 3 * 25 ** 2


@pytest.mark.parametrize("case", PRESENTED + [
    # about a minute each by pairs
    pytest.param((name, make), marks=pytest.mark.slow) for name, make in (
        ("uqsl2(5)", lambda: uqsl2(5)), ("d_a_mu(5, 0)", lambda: d_a_mu(5, 0)),
        ("d_a_mu(5, 1)", lambda: d_a_mu(5, 1)))
], ids=lambda c: c[0])
def test_mult_map_matches_normal_forms_by_pairs(case):
    # every column of the leaf, compared by type and repr, the values
    # witnesses print; uqsl2(3) has entries that are the int -1 only when
    # the normal form drops zeros once, at the end
    A = case[1]()
    assert typed_terms(leaf_entries(A.mult_map())) == \
        typed_entries(mult_map_by_pairs(A).mat)


def generator_monos(A):
    return [next(iter(g.terms)) for _, g in A.generators()]


@pytest.mark.parametrize("make", (
    [lambda p=p: taft(p) for p in (2, 3, 5, 7)]
    + [lambda p=p: anyonic_line(p) for p in (2, 3, 5, 7)]
    + [lambda p=p, mu=mu: d_a_mu(p, mu) for p in (2, 3, 5) for mu in range(p)]
    + [lambda p=p: uqsl2(p) for p in (3, 5, 7)]
), ids=lambda make: repr(make().signature))
def test_generator_actions_match_rescan(make):
    # the products the regular representation and the center take: each
    # generator times every basis monomial, on both sides, by type and repr
    A = make()
    for g in generator_monos(A):
        for m in A.basis:
            for ma, mb in ((g, m), (m, g)):
                assert typed_terms(A.pair_product(ma, mb)) == \
                    typed_terms(pair_product_by_rescan(A, ma, mb)), (ma, mb)


@pytest.mark.parametrize("make", [
    lambda: uqsl2(3), lambda: taft(5),
] + [lambda mu=mu: d_a_mu(3, mu) for mu in range(3)],
    ids=lambda make: repr(make().signature))
def test_all_pair_products_match_rescan(make):
    A = make()
    for ma in A.basis:
        for mb in A.basis:
            assert typed_terms(A.pair_product(ma, mb)) == \
                typed_terms(pair_product_by_rescan(A, ma, mb)), (ma, mb)


@pytest.mark.parametrize("make", [
    lambda: taft(5), lambda: d_a_mu(3, 1), lambda: d_a_mu(5, 2),
    lambda: uqsl2(5),
], ids=lambda make: repr(make().signature))
def test_normal_form_matches_rescan(make):
    A = make()
    pres = A.pres
    rng = random.Random(13)

    def exponent(gi, high):
        # a group-like's exponent may be written negative
        e = rng.randrange(high)
        return e - pres.bounds[gi] * rng.randint(0, 2) if pres.power_rhs[gi] else e

    for _ in range(60):
        # two normal monomials, by type and repr
        word = [(name if rng.random() < 0.5 else gi, exponent(gi, bound))
                for _ in range(2)
                for gi, (name, bound) in enumerate(zip(pres.gens, pres.bounds))]
        assert typed_terms(normal_form(A, word).terms) == \
            typed_terms(normal_form_by_rescan(A, word)), word
        # any word, with exponents past the bounds, by value: the two
        # routes rewrite in different orders, so a coefficient that one of
        # them reaches through a root of unity may be an int on the other
        word = [(gi, exponent(gi, pres.bounds[gi] + 2))
                for gi in (rng.randrange(len(pres.gens))
                           for _ in range(rng.randint(0, 6)))]
        assert normal_form(A, word).terms == normal_form_by_rescan(A, word), word


def skew_line(s_a, s_b, r, extra=()):
    """a, b, g with a^2 = 0, b^3 = 0, g^4 = r, ba = ab, ga = s_a ag and
    gb = s_b bg, plus the terms extra in the rule for gb."""
    pres = Presentation(
        N=1, gens=("a", "b", "g"), degrees=(0, 0, 0), bounds=(2, 3, 4),
        power_rhs=(0, 0, r),
        straighten={(1, 0): ((1, ((0, 1), (1, 1))),),
                    (2, 0): ((s_a, ((0, 1), (2, 1))),),
                    (2, 1): ((s_b, ((1, 1), (2, 1))),) + tuple(extra)})
    return PresentedAlgebra(pres, signature=("skew", s_a, s_b, r, extra))


# g^4 = -2 and 1/2: power_rhs neither 0 nor 1, so a run that passes the
# bound takes the factor rhs^q; the factors are a root of unity and ints
DIAGONAL_CASES = [
    lambda: uqsl2(5), lambda: d_a_mu(3, 1), lambda: taft(3),
    lambda: skew_line(root_of_unity(4), -1, -2),
    lambda: skew_line(-1, 1, Fraction(1, 2)),
]


@pytest.mark.parametrize("make", DIAGONAL_CASES,
                         ids=lambda make: repr(make().signature))
def test_diagonal_runs_match_the_letter_route(make):
    # a run g^e of a diagonal generator, e up to twice the bound, on every
    # basis monomial with an int and a Fraction coefficient, and then the
    # products of all basis pairs of the small algebras, against the
    # letters applied one at a time, by type and repr
    A = make()
    diagonal = [gi for gi, f in enumerate(A._diagonal) if f is not None]
    assert diagonal
    for gi in diagonal:
        for e in range(1, 2 * A.pres.bounds[gi] + 1):
            for m in A.basis:
                for c in (1, Fraction(-2, 3)):
                    assert typed_terms(A._apply([(gi, e)], {m: c})) == \
                        typed_terms(apply_by_letters(A, [(gi, e)], {m: c})), \
                        (gi, e, m, c)
    if A.dim <= 27:
        for ma in A.basis:
            runs = [(i, e) for i, e in enumerate(ma) if e]
            for mb in A.basis:
                assert typed_terms(A.pair_product(ma, mb)) == \
                    typed_terms(apply_by_letters(A, runs, {mb: 1})), (ma, mb)


def test_a_generator_off_the_lemma_takes_the_letter_route(monkeypatch):
    # F and E of uqsl2 (F^p = E^p = 0, and EF = FE + K - K^(p-1) has
    # three terms), a and b of the skew line (power_rhs 0), and g once gb
    # has a second term act one letter at a time; K and the skew line's g
    # act in one step
    acts = []
    real = PresentedAlgebra._act

    def counted(self, gi, mono):
        acts.append(gi)
        return real(self, gi, mono)

    monkeypatch.setattr(PresentedAlgebra, "_act", counted)
    U = uqsl2(5)
    A = skew_line(root_of_unity(4), -1, -2)
    B = skew_line(root_of_unity(4), -1, -2, extra=((1, ()),))
    for C, letters, runs in ((U, [0, 2], [1]), (A, [0, 1], [2]),
                             (B, [0, 1, 2], [])):
        assert [gi for gi, f in enumerate(C._diagonal) if f is None] == letters
        for gi in letters + runs:
            acts.clear()
            C._apply([(gi, 2)], {C.basis[-1]: 1})
            assert (gi in acts) == (gi in letters), (C.signature, gi)


def test_center_acts_once_per_generator_and_monomial(monkeypatch):
    # K is diagonal, so the center takes K*h and h*K for the generators h,
    # 5 products, and no K*m; then F*m for the 25 weight-zero monomials
    # F^a K^b E^a that commute with K, less F*K, already taken: 5 + 24 =
    # 29.  sigma's residuals (mirror_premise) read 4 more product columns:
    # E*E^4, K*K^4 and F*F^4 for the power rules and E*F for the rule
    # E*F; the other two, E*K and K*F, are already taken: 33.  E, the
    # mirror of F, takes no column.  The right products m*F come from the
    # memo of _right_products, not from pair products.  It memoises 93
    # actions, 72 of F and 21 of E, among them E*E^4 and F*F^4, which only
    # the residuals take; a run K^e takes one step, with no action of K
    # memoised (PresentedAlgebra._apply).
    calls = []
    raw = PresentedAlgebra._pair_product_raw

    def counted(self, ma, mb):
        calls.append((ma, mb))
        return raw(self, ma, mb)

    monkeypatch.setattr(PresentedAlgebra, "_pair_product_raw", counted)
    U = uqsl2(5)
    U.compute_center()
    assert len(calls) == 33
    assert len(U._actions) == 93


@pytest.mark.parametrize("make", [lambda: uqsl2(5), lambda: d_a_mu(3, 1),
                                  lambda: taft(3)],
                         ids=["uqsl2(5)", "d_a_mu(3,1)", "taft(3)"])
def test_right_products_match_pair_products(make):
    # m*g as h*(m'*g) from the memo of _right_products, against pair_product
    # in a second copy of the algebra, for every basis monomial m and
    # generator g, by type and repr
    A, B = make(), make()
    for g in generator_monos(A):
        right = A._right_products(g)
        for m in A.basis:
            assert typed_terms(right(m)) == \
                typed_terms(B.pair_product(m, g)), (m, g)


@pytest.mark.parametrize("make", [lambda: uqsl2(3), lambda: uqsl2(5),
                                  lambda: uqsl2(7), lambda: d_a_mu(3, 1),
                                  lambda: taft(3)],
                         ids=["uqsl2(3)", "uqsl2(5)", "uqsl2(7)",
                              "d_a_mu(3,1)", "taft(3)"])
def test_ad_matches_multiply(make):
    # ad(g)(v) = g*v - v*g against multiply(g, v) - multiply(v, g) in a
    # second copy of the algebra, by type and repr, for every generator g
    # and basis monomial v, and on uqsl2 also v_0 and v_0 + F*K, which is
    # not central
    A, B = make(), make()
    vectors = [{m: 1} for m in A.basis]
    if A.signature[0] == "uqsl2":
        R = ribbon_element(A.p)
        F, K = R.v_0.algebra.gen("F"), R.v_0.algebra.gen("K")
        vectors += [R.v_0.terms, (R.v_0 + F * K).terms]
    for g in generator_monos(A):
        ad, gen = A.ad(g), B.element({g: 1})
        for terms in vectors:
            v = B.element(terms)
            assert typed_terms(ad(A.element(terms)).terms) == typed_terms(
                (B.multiply(gen, v) - B.multiply(v, gen)).terms), (g, terms)


def test_center_keeps_only_left_products():
    # the right products' memo lives for one generator of one call: the
    # algebra gains no attribute, and its pair cache holds only g*m
    U = uqsl2(5)
    before = set(vars(U))
    U.compute_center()
    assert set(vars(U)) == before
    gens = set(generator_monos(U))
    assert {U.basis[j // U.dim] for j in U._pair_cache} <= gens


def test_center_checks_the_guard_before_any_product(monkeypatch):
    calls = []
    raw = PresentedAlgebra._pair_product_raw

    def counted(self, ma, mb):
        calls.append((ma, mb))
        return raw(self, ma, mb)

    monkeypatch.setattr(PresentedAlgebra, "_pair_product_raw", counted)
    U = uqsl2(5)
    monkeypatch.setenv("BHL_DIM_GUARD", "100")
    with pytest.raises(DimensionGuardError, match="center computation"):
        U.compute_center()
    assert calls == []


def test_generation_premise():
    # a*a = b and a*b = b is not associative: (a*a)*a = b*a = 0, but
    # a*(a*a) = a*b = b.  b is declared the generator, and every b*y is 0,
    # so associativity holds on the rows of 1 and b; the search from 1
    # reaches nothing, and the check fails on the generation premise.
    rule = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 0): {1: 1},
            (2, 0): {2: 1}, (1, 1): {2: 1}, (1, 2): {2: 1}}
    A = StructureConstantAlgebra(
        signature=("skew",), N=1, basis=(0, 1, 2),
        degrees=(0, 0, 0), labels=("1", "a", "b"), unit_mono=0,
        pair_rule=lambda i, j: rule.get((i, j), {}),
        generator_monos=(("b", 2),))
    iota, _ = A.generator_rows()
    assert iota.source.labels == ("1", "b")
    full, _ = associativity_by_triples(A)
    assert full["status"] == FAIL
    assoc, unit = A.verify_associativity()
    assert unit["status"] == PASS
    assert (assoc["name"], assoc["status"]) == ("associativity", FAIL)
    assert assoc["details"] == "all 3^3 basis triples"
    [witness] = assoc["witnesses"]
    assert (witness["premise"], witness["input"]) == ("generation", "a")
    law = A.row_check("law", A.mult_map(), A.mult_map())
    assert law["status"] == FAIL
    assert law["witnesses"] == [witness]


def test_a_non_homogeneous_pair_rule_raises_when_its_column_is_read():
    # a*a = b puts an entry of degree 1 in the column of degree 2; the
    # column raises the ValueError the product matrix raises
    def rule(i, j):
        return {max(i, j): 1} if 0 in (i, j) else {2: 1} if i == j == 1 else {}

    A = StructureConstantAlgebra(
        signature=("inhomogeneous",), N=3, basis=(0, 1, 2),
        degrees=(0, 1, 1), labels=("1", "a", "b"), unit_mono=0,
        pair_rule=rule, generator_monos=(("a", 1),))
    m = A.mult_map()
    # columns 1 (x) 1, 1 (x) a, 1 (x) b and a (x) 1 read fine
    assert [m._column(j) for j in range(4)] == [{0: 1}, {1: 1}, {2: 1},
                                                {1: 1}]
    with pytest.raises(ValueError) as want:
        mult_map_by_pairs(A)
    with pytest.raises(ValueError) as got:
        list(m.columns())
    assert str(got.value) == str(want.value) == (
        "entry (2,4) breaks homogeneity: target deg 1 != source deg 2 + 0")


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
    assert power(Lg, 3, None) == Mat.identity(9)
    B = anyonic_line(5)
    Lx = B.left_mult_operator(B.gen("x"))
    assert not power(Lx, 4, None).is_zero()
    assert power(Lx, 5, None).is_zero()


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


def same_span(A, cols, want):
    return (len(cols) == len(want)
            and from_cols(A.dim, cols + want).rank() == len(want))


@pytest.mark.parametrize("build", [
    lambda: uqsl2(3), lambda: uqsl2(5), lambda: taft(3), lambda: d_a_mu(3, 1),
    lambda: d_a_mu(5, 2), lambda: dual_anyonic(5), lambda: anyonic_line(5),
    pytest.param(lambda: uqsl2(7), marks=pytest.mark.slow)],
    ids=["uqsl2(3)", "uqsl2(5)", "taft(3)", "d_a_mu(3,1)", "d_a_mu(5,2)",
         "dual_anyonic(5)", "anyonic_line(5)", "uqsl2(7)"])
def test_center_matches_the_restricted_chain(build):
    # the elementwise kernels, degree-0 generators first, span what the
    # oracle's kernels of the matrices L_g - R_g, restricted one generator
    # at a time in presentation order, span
    A = build()
    center = A.compute_center()
    for c in center:
        for _, g in A.generators():
            assert c * g == g * c
    assert same_span(A, [c.as_column() for c in center],
                     center_by_restriction(A))


@pytest.mark.parametrize("build, routes", [
    (lambda: uqsl2(3), [True, False, False]),
    (lambda: uqsl2(5), [True, False, False]),
    (lambda: uqsl2(7), [True, False, False]),
    (lambda: d_a_mu(3, 1), [True, False, False]),
    (lambda: d_a_mu(5, 2), [True, False, False]),
    (lambda: taft(3), [True, False])],
    ids=["uqsl2(3)", "uqsl2(5)", "uqsl2(7)", "d_a_mu(3,1)", "d_a_mu(5,2)",
         "taft(3)"])
def test_diagonal_generators_take_the_kernel_of_their_columns(
        monkeypatch, build, routes):
    # the monomials with lambda_m = 1 are the basis that the kernel of the
    # columns of ad(g) gives, by type and repr.  The degree-0 generator
    # goes first and is diagonal (K, g); the others take their columns,
    # taft(3)'s x too, which has degree 0 but is nilpotent
    taken = []
    diagonal = PresentedAlgebra._diagonal_commutant

    def spy(self, g, space):
        kept = diagonal(self, g, space)
        taken.append(kept is not None)
        return kept

    monkeypatch.setattr(PresentedAlgebra, "_diagonal_commutant", spy)
    center = [typed_terms(c.terms) for c in build().compute_center()]
    assert taken == routes
    monkeypatch.setattr(PresentedAlgebra, "_diagonal_commutant",
                        lambda self, g, space: None)
    assert center == [typed_terms(c.terms) for c in build().compute_center()]


@pytest.mark.parametrize("build", [
    lambda: uqsl2(3), lambda: uqsl2(5), lambda: uqsl2(7),
    pytest.param(lambda: uqsl2(11), marks=pytest.mark.slow),
    lambda: taft(3), lambda: taft(5), lambda: d_a_mu(3, 1),
    lambda: d_a_mu(5, 2), lambda: dual_anyonic(5), lambda: anyonic_line(5)],
    ids=["uqsl2(3)", "uqsl2(5)", "uqsl2(7)", "uqsl2(11)", "taft(3)", "taft(5)",
         "d_a_mu(3,1)", "d_a_mu(5,2)", "dual_anyonic(5)", "anyonic_line(5)"])
def test_center_matches_the_generator_chain(monkeypatch, build):
    # one kernel of all non-diagonal generators stacked, read over the
    # monomials the diagonal ones leave, is the basis that a kernel per
    # generator, recombined one generator at a time, gives: by type and
    # repr, in order
    monkeypatch.setenv("BHL_DIM_GUARD", "2000")
    center = [typed_terms(c.terms) for c in build().compute_center()]
    assert center == [typed_terms(c.terms)
                      for c in center_by_generator_chain(build())]


@pytest.mark.parametrize("build", [lambda: uqsl2(5), lambda: d_a_mu(3, 1)],
                         ids=["uqsl2(5)", "d_a_mu(3,1)"])
def test_center_does_not_depend_on_the_generator_order(monkeypatch, build):
    # a subspace has one basis in the reduced form of kernel_basis over a
    # fixed column order, so the reversed generators stack their rows in
    # another order and give the same columns, value for value
    A = build()
    forward = [c.as_column() for c in A.compute_center()]
    B = build()
    gens = B.generators()
    monkeypatch.setattr(B, "generators", lambda: gens[::-1])
    backward = [c.as_column() for c in B.compute_center()]
    assert backward == forward


def skew_algebra(s=1):
    # a, b, c with a^2 = b^2 = c^2 = 0, ba = 2ab, cb = s bc and ca = ac.
    # Reversed under sigma: a <-> c, b -> b, ba = 2ab reads cb = 2bc, which
    # fails in A unless s = 2
    return PresentedAlgebra(Presentation(
        N=1, gens=("a", "b", "c"), degrees=(0, 0, 0), bounds=(2, 2, 2),
        power_rhs=(0, 0, 0), straighten={
            (1, 0): ((2, ((0, 1), (1, 1))),),
            (2, 1): ((s, ((1, 1), (2, 1))),),
            (2, 0): ((1, ((0, 1), (2, 1))),)}))


def uqsl2_with_E_K_squared(p):
    # uqsl2(p) with E*K = q^2 K*E for q K*E, one straightening coefficient:
    # sigma reads it as K*F = q^2 F*K against the rule K*F = q F*K, so the
    # premise fails (the algebra is not associative either, which neither
    # evaluator of the premise needs)
    pres = uqsl2(p).pres
    ((c, w),) = pres.straighten[2, 1]
    return PresentedAlgebra(replace(pres, straighten=pres.straighten | {
        (2, 1): ((c * c, w),)}))


@pytest.mark.parametrize("build", [
    *SMALL_PRESENTED.values(), (skew_line, root_of_unity(4), -1, -2),
    (skew_line, -1, 1, Fraction(1, 2)),
    (skew_line, root_of_unity(4), -1, -2, ((1, ()),)), (skew_algebra,),
], ids=[*SMALL_PRESENTED, "skew_line(i,-1,-2)", "skew_line(-1,1,1/2)",
        "skew_line(i,-1,-2,extra)", "skew_algebra"])
def test_presented_algebras_are_generated_with_a_right_unit(build):
    # the premises _row_premises takes from the construction, swept
    assert row_premises_by_sweep(build[0](*build[1:])) == (None, None)


def test_the_skew_algebra_is_associative():
    A = skew_algebra()
    full, _ = associativity_by_triples(A)
    assert full["status"] == PASS
    assert all_pass(A.verify_associativity())
    assert A.pair_product((0, 0, 1), (0, 1, 0)) == {(0, 1, 1): 1}


@pytest.mark.parametrize("build, holds", [
    (lambda: uqsl2(3), True), (lambda: uqsl2(5), True),
    (lambda: uqsl2(7), True), (lambda: d_a_mu(3, 1), True),
    (lambda: d_a_mu(5, 2), True), (lambda: taft(3), False),
    (skew_algebra, False), (lambda: skew_algebra(2), True),
    (lambda: uqsl2_with_E_K_squared(5), False),
    (lambda: dual_anyonic(5), False)],
    ids=["uqsl2(3)", "uqsl2(5)", "uqsl2(7)", "d_a_mu(3,1)", "d_a_mu(5,2)",
         "taft(3)", "skew", "skew(2)", "uqsl2(5) E*K squared",
         "dual_anyonic(5)"])
def test_mirror_premise(build, holds):
    # checked on the presentation, once: the flag is cached in the slot
    # that __init__ leaves, and agrees with the straightening rules read
    # letter by letter under sigma in a second copy (oracle); where it
    # holds, sigma(m) = m[::-1] reverses each product of a generator and
    # a basis monomial, on either side
    A = build()
    assert A.mirror_premise() is holds
    assert A.mirror_premise() is holds
    assert mirror_premise_by_letters(build()) is holds
    if holds:
        for g in generator_monos(A):
            for m in A.basis:
                for ma, mb in ((g, m), (m, g)):
                    assert A.pair_product(mb[::-1], ma[::-1]) == {
                        mo[::-1]: c
                        for mo, c in A.pair_product(ma, mb).items()}


@pytest.mark.parametrize("build, stacked", [
    (lambda: uqsl2(5), ["F"]), (lambda: d_a_mu(3, 1), ["z"]),
    (lambda: taft(3), ["x"]), (skew_algebra, ["a", "b", "c"])],
    ids=["uqsl2(5)", "d_a_mu(3,1)", "taft(3)", "skew"])
def test_center_stacks_no_mirror(monkeypatch, build, stacked):
    # on uqsl2 and d_a_mu the mirror of F (of z) takes no column and no
    # ad; taft and the skew algebra fail the premise and stack every
    # generator that is not diagonal
    taken = []
    ad = PresentedAlgebra.ad

    def spy(self, g):
        taken.append(self.mono_label(g))
        return ad(self, g)

    monkeypatch.setattr(PresentedAlgebra, "ad", spy)
    A = build()
    M, space = A.center_matrix()
    assert taken == stacked
    assert (M.rows, M.cols) == (len(stacked) * A.dim, len(space))


@pytest.mark.parametrize("build", [
    lambda: uqsl2(3), lambda: uqsl2(5), lambda: uqsl2(7),
    pytest.param(lambda: uqsl2(11), marks=pytest.mark.slow),
    lambda: d_a_mu(3, 1), lambda: d_a_mu(5, 2)],
    ids=["uqsl2(3)", "uqsl2(5)", "uqsl2(7)", "uqsl2(11)", "d_a_mu(3,1)",
         "d_a_mu(5,2)"])
def test_center_does_not_depend_on_the_mirror(monkeypatch, build):
    # the kernel of ad(F) alone is the kernel of ad(F) over ad(E) on the
    # sigma-fixed monomials, and the column order is the same, so the
    # reduced basis is too: by type and repr, in order
    monkeypatch.setenv("BHL_DIM_GUARD", "2000")
    center = [typed_terms(c.terms) for c in build().compute_center()]
    monkeypatch.setattr(PresentedAlgebra, "mirror_premise", lambda self: False)
    assert center == [typed_terms(c.terms) for c in build().compute_center()]


@pytest.mark.slow
def test_center_of_uqsl2_11(monkeypatch):
    monkeypatch.setenv("BHL_DIM_GUARD", "2000")
    U = uqsl2(11)
    center = U.compute_center()
    assert len(center) == 1 + 3 * (11 - 1) // 2
    for c in center:
        for name in ("F", "K", "E"):
            g = U.gen(name)
            assert c * g == g * c, name


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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31])
def test_dual_algebra_checks_read_one_factorial_table(monkeypatch, p):
    # the diagonal xi^(-(i-1)i/2) (i)_xi! of the induced map is read from
    # one running table, scalars.q_factorials, taken once
    tables = []
    real = scalars.q_factorials
    monkeypatch.setattr(scalars, "q_factorials",
                        lambda n, xi: tables.append(n) or real(n, xi))
    checks = cli.dual_algebra_checks(p)
    assert checks and all_pass(checks)
    assert tables == [p - 1]


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


def _morphism_cases():
    for p in (2, 3, 5, 7):
        target = dual_anyonic(p)
        yield ("dual p=%d" % p, nilpotent_line(p, "z", p - 1), target,
               {"z": target.gen("e_1")})
    for p in (3, 5):
        target = uqsl2(p)
        q = target.q
        E, F, K = target.gen("E"), target.gen("F"), target.gen("K")
        for mu in range(p):
            yield ("uqsl2 p=%d mu=%d" % (p, mu), d_a_mu(p, mu), target,
                   {"x": q ** (mu - 1) * E, "z": q ** (1 - mu) * (F * K),
                    "g": q ** (mu - 1) * K ** (p - 1)})
            # psi of the ribbon identity, the other way
            A = d_a_mu(p, mu)
            z, g, x = A.gen("z"), A.gen("g"), A.gen("x")
            yield ("psi p=%d mu=%d" % (p, mu), target, A,
                   {"E": q ** (1 - mu) * x, "F": z * g,
                    "K": q ** (mu - 1) * g ** (p - 1)})


@pytest.mark.parametrize("case", list(_morphism_cases()), ids=lambda c: c[0])
def test_induced_map_matches_power_table(case):
    _, source, target, images = case
    assert typed_entries(induced_linear_map(source, target, images)) == \
        typed_entries(induced_map_by_power_table(source, target, images))


def _extensions(monkeypatch):
    """The monomials the extension of a morphism's images (times =
    operator.mul) computes, one entry per memo miss, while the spy is set."""
    misses, real = [], PresentedAlgebra._extended

    def spy(self, memo, gen_images, times, mono):
        if times is operator.mul and mono not in memo:
            misses.append(mono)
        return real(self, memo, gen_images, times, mono)

    monkeypatch.setattr(PresentedAlgebra, "_extended", spy)
    return misses


@pytest.mark.parametrize("case", list(_morphism_cases()), ids=lambda c: c[0])
def test_a_morphism_extends_each_source_monomial_once(monkeypatch, case):
    # the relation residuals and the induced linear map read one extension
    _, source, target, images = case
    misses = _extensions(monkeypatch)
    checks = algebra_morphism(source, target, images)
    monkeypatch.undo()
    assert all_pass(checks)
    assert sorted(misses) == sorted(set(source.basis) - {source.unit_mono})


def test_dual_algebra_checks_extend_each_monomial_once(monkeypatch):
    # the diagonal is read off the induced map of the morphism checks
    p = 7
    misses = _extensions(monkeypatch)
    assert all_pass(cli.dual_algebra_checks(p))
    monkeypatch.undo()
    assert sorted(misses) == [(e,) for e in range(1, p)]


@pytest.mark.parametrize("A", [uqsl2(3), taft(3), d_a_mu(3, 1)],
                         ids=lambda A: repr(A.signature))
def test_extend_takes_a_single_letter_to_its_image(A):
    # with words as images, a monomial's image is its word; no operand of a
    # split is `one`'s image "", so nothing is multiplied by `one`
    parts = []

    def times(a, b):
        parts.append((a, b))
        return a + b

    image = A.extend({name: name for name in A.pres.gens}, "", times)
    for mono in A.basis:
        assert image(mono) == "".join(
            name * e for name, e in zip(A.pres.gens, mono))
    assert parts and all("" not in pair for pair in parts)


def test_morphism_negative_control():
    p, mu = 3, 0
    target = uqsl2(p)
    q = target.q
    images = {
        "x": q ** (mu - 1) * target.gen("E"),
        "z": target.gen("F") * target.gen("K"),  # dropped q^{1-mu} factor
        "g": q ** (mu - 1) * target.gen("K") ** (p - 1),
    }
    checks = algebra_morphism(d_a_mu(p, mu), target, images)
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


@pytest.mark.parametrize("regular", [True, False],
                         ids=["regular_module", "elements"])
def test_relation_residuals_of_d_a_mu_3_1_in_d_a_mu_3_2(regular):
    # only x*z = xi zx + xi^{1-mu} g - 1 depends on mu, so only it fails,
    # whether evaluated in the regular module of d_a_mu(3, 2) at each basis
    # vector or on its elements, the extension of its generators
    S, T = d_a_mu(3, 1), d_a_mu(3, 2)
    if regular:
        evaluations = [(lambda w, m=m: T.pair_product(w, m),
                        lambda a, y: (T.element({a: 1}) * T.element(y)).terms)
                       for m in T.basis]
    else:
        image = S.extend({name: T.gen(name) for name in S.pres.gens},
                         T.unit(), operator.mul)
        evaluations = [(lambda w: image(w).terms,
                        lambda a, y: (image(a) * T.element(y)).terms)]
    failing = set()
    for f, act in evaluations:
        rows = list(S.relation_residuals(f, act))
        assert [name for name, _, _ in rows] == [
            "relation z^3 = 0", "relation g^3 = 1", "relation x^3 = 0",
            "relation g*z straightens", "relation x*z straightens",
            "relation x*g straightens"]
        failing |= {name for name, _, r in rows if r}
    assert failing == {"relation x*z straightens"}


@pytest.mark.parametrize("make", [lambda: taft(3), lambda: dual_anyonic(3)],
                         ids=["presented", "structure constants"])
def test_unknown_generator_name_raises(make):
    A = make()
    with pytest.raises(ValueError, match="no generator named 'w'"):
        A.gen("w")
    assert [A.gen(name) for name, _ in A.generators()] == \
        [g for _, g in A.generators()]


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-3, 10 ** 5)
            if is_prime(n) != is_prime_by_trial_division(n)] == []
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the primes to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    start = time.perf_counter()
    assert is_prime(10 ** 16 + 61)  # trial division: about 9 s
    assert time.perf_counter() - start < 0.5


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3 * 10 ** 24), st.integers(2, 10 ** 12))
def test_is_prime_agrees_with_sympy_below_the_bound(n, m):
    # n itself, the next prime and a product of two primes
    sympy = pytest.importorskip("sympy")
    p = sympy.nextprime(m)
    for k in (n, sympy.nextprime(n), p * sympy.nextprime(p)):
        assert is_prime(k) == sympy.isprime(k)
