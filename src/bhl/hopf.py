"""Hopf algebras internal to the braided category of Z/N-graded vector spaces.

The braided tensor square A (x)^tau A of a graded algebra carries the product

    (a (x) b) * (c (x) d)  =  chi(deg b, deg c) * (ac (x) bd),

the diagram leaf square from the word (V, V, V, V) to (V, V), V being A
as a graded space, where a (x) b has index i_a * dim + i_b; it reads ac
and bd from A's product cache, and equals (m (x) m) . (id (x) tau (x) id).
A Hopf structure on A is a coproduct Delta: A -> A (x)^tau A, a counit
eps: A -> k and an antipode S: A -> A, leaves from (V,) to (V, V), (I,)
and (V,): algebra maps into A (x)^tau A, k and the braided opposite,
a .' b = chi(|a|, |b|) b a, extended on columns from their values on
generators, through the target's product (HopfData.products), by the one
extension PresentedAlgebra.extend: a monomial splits at its last run,
rest * g^e, and a single run as g^(e-1) * g.

Whether the extensions actually define a bialgebra is *not* assumed; it is
checked by verify_bialgebra, one basis input at a time, as the identity

    Delta . m  =  square . (Delta (x) Delta),

together with unit/counit compatibility, coassociativity and the counit
law.  verify_antipode checks the antipode axiom and the (anti)morphism
properties, and reports the square of the antipode on the generators,
read from S's leaf (antipode_square).  Both sides of each
identity are lazy diagrams (graded.Diagram): a basis vector of the source
is pushed through them, so no Kronecker product is ever formed, and the
first input where the sides differ is the witness.

The laws multiplicative in their first argument -- Delta and eps
multiplicative, S anti-multiplicative, the row laws -- are read off the
defining relations when A is presented and the two premises of the row
lemma below hold, associativity and generation from 1.  The relation
lemma: A is then T(G)/I, I the ideal of the defining relations.  A's
product of letters is the rewriting by those relations, so they hold in
A, and by generation A is a quotient of T(G)/I, in which the normal
monomials span, as the rewriting terminates; they are a basis of A, so
A = T(G)/I (Bergman, "The diamond lemma for ring theory", *Adv. Math.*
29, 1978).  Let B be an associative algebra, f(g) in B for g in G, and
f(m) the product in B of the images of m's letters, as extend computes
it.  If every defining relation a*b = sum c*w vanishes, f(a) f(b) = sum
c f(w) (PresentedAlgebra.relation_residuals), g |-> f(g) extends to an
algebra map Phi: A -> B (Kassel, *Quantum Groups*, GTM 155, ch. I) with
Phi = f on monomials, so f is multiplicative.  Conversely, a
multiplicative f carries the relations, which hold in A, to the f(g).
B is A (x)^tau A for Delta, associative because A is and chi is a
bicharacter, k for eps, and the braided opposite for S, associative for
a bicharacter too (Majid, *Foundations of Quantum Group Theory*, 1995,
9.2).  The law's right side m(S (x) S)tau is chi(|m|, |m'|) S(m') S(m)
on m (x) m', which is S(m) .' S(m') because S(m) is homogeneous of
degree |m|, S being of shift 0 (HopfData refuses any other S).  So a
law whose residuals all vanish passes with no input pushed
(HopfData.row_law).

When a residual does not vanish, a premise fails or A is given by
structure constants, the law is compared on generator rows, a in {1} u
G, by FiniteDimAlgebra.row_check, which names the witness.  Writing a
basis element a as c * g a' with c a nonzero scalar, g in {1} u G and a'
reached earlier from 1,

    Delta(a b) = c Delta(g (a' b)) = c Delta(g) Delta(a') Delta(b)
               = c Delta(g a') Delta(b) = Delta(a) Delta(b),

which uses the associativity of A and so of A (x)^tau A (chi is a
bicharacter, and m is homogeneous).  eps goes the same way, and S also
uses chi(|g|, |a'| + |b|) chi(|a'|, |b|) = chi(|g a'|, |b|) chi(|g|, |a'|)
(Majid, 9.2).  row_check folds both premises, associativity (from the
defining relations, or else on generator rows) and generation from 1,
into each of the three checks, so a failed premise fails them.
HopfData.row_law computes each law once, by either route.

The other five laws are compared on 1 and the generators alone, both
sides precomposed with iota, the inclusion of span({1} u G) in A, once the
row laws they rest on have passed (HopfData.rows); otherwise on every
basis input.  The lemma: if f and h are linear maps out of A and each is
an algebra map, or each braided anti-multiplicative, f(ab) = chi(|a|, |b|)
f(b) f(a) on homogeneous a, b, then the a where f(a) = h(a) are closed
under products of homogeneous elements; so, by generation from 1, f = h on
A once f = h on {1} u G.  Delta, eps and S are homogeneous of shift 0.

* coassociativity rests on coproduct_is_multiplicative: Delta (x) id and
  id (x) Delta are then algebra maps into A (x)^tau A (x)^tau A, and so
  are both sides.
* counit_law rests on coproduct_is_multiplicative and
  counit_is_multiplicative: (eps (x) id) Delta and (id (x) eps) Delta are
  then algebra maps, as id is.
* antipode_left and antipode_right rest on those two and on
  antipode_is_antimultiplicative.  Their sides are not algebra maps, but
  the braided Sweedler computation closes them under products:
  m(S (x) id)Delta(ab) = sum chi(|a|, |b_1|) S(b_1) [S(a_1) a_2] b_2
  = eps(a) eps(b), since eps(a) != 0 only in degree 0, where
  chi(0, .) = 1; antipode_right goes the same way.
* antipode_is_anticomultiplicative rests on coproduct_is_multiplicative
  and antipode_is_antimultiplicative: Delta S and tau (S (x) S) Delta are
  then both braided anti-multiplicative into A (x)^tau A, the second
  because chi is a symmetric bicharacter.

antipode_invertible is read off S^2 on the generators when
antipode_is_antimultiplicative passed and A is presented.  The lemma: S
is braided anti-multiplicative and of shift 0, so

    S^2(ab) = chi(|a|, |b|) S(S(b) S(a))
            = chi(|a|, |b|) chi(|b|, |a|) S^2(a) S^2(b)

(Majid, 9.2).  Suppose S^2(g) = lambda_g g with lambda_g != 0 for each
generator g.  A normal monomial m = g_1 ... g_k is the product of its
letters, as extend splits it, so by induction S^2(m) = prod lambda_(g_i)
prod_(i<j) chi(|g_i|, |g_j|) chi(|g_j|, |g_i|) m: S^2 is diagonal on the
normal monomials with nonzero entries, and S^2, so S, is invertible, of
rank dim A.  Otherwise, when the law failed, A is given by structure
constants or some S^2(g) is not one nonzero term on g, S's columns are
assembled and their rank taken.

When a law fails on some a, it fails on a letter of a; in a presented
algebra a monomial's letters come no later than it in basis order, so
the first failing input on iota is the first of the full sweep.

build_hopf, anyonic_hopf and taft_hopf go through the dimension guard
(BHL_DIM_GUARD, default 350), which admits Taft up to p = 17 (dim 289).
No degree of V (x) V is listed: Delta, eps and S are checked homogeneous
on the generators; their other columns are products of those in their
targets, whose products are homogeneous.  braided_tensor_algebra
lists the square's dim^2 pair monomials; only the tests build it.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .algebras import (
    AlgebraElement,
    PresentedAlgebra,
    StructureConstantAlgebra,
    _on_pairs,
    anyonic_line,
    check_guard,
    taft,
)
from .exactmat import _add_into, from_cols
from .graded import (
    Bicharacter,
    GradedMap,
    GradedSpace,
    _kron_into,
    braiding,
    diagram,
    homogeneity_error,
    tensor_diagram,
    word_leaf,
)
from .report import FAIL, PASS, check, column_entries, map_check
from .scalars import q_binomials


# ---------------------------------------------------------------------------
# braided tensor square
# ---------------------------------------------------------------------------


def _square_signature(A, B, chi):
    return ("braided_tensor", A.signature, B.signature, chi.N, chi.c)


def braided_tensor_algebra(A, B, chi):
    """The algebra A (x)^tau B on pair monomials.

    Crossing scalar chi(deg b, deg c); Bicharacter(N, -c) gives the
    variant A (x)^{tau^-1} B.  The pair (ma, mb) has index i_a * B.dim +
    i_b, as in tensor(A.graded_space(), B.graded_space()).
    """
    if A.N != B.N:
        raise ValueError("grading groups differ")
    if chi.N != A.N:
        raise ValueError("bicharacter lives on the wrong group")
    basis = [(ma, mb) for ma in A.basis for mb in B.basis]
    degrees = [
        (A.mono_degree(ma) + B.mono_degree(mb)) % A.N for (ma, mb) in basis
    ]
    labels = [
        "%s(x)%s" % (A.mono_label(ma), B.mono_label(mb)) for (ma, mb) in basis
    ]

    def rule(left, right):
        ma, mb = left
        mc, md = right
        s = chi.chi(B.mono_degree(mb), A.mono_degree(mc))
        out = {}
        for m1, c1 in A.pair_product(ma, mc).items():
            for m2, c2 in B.pair_product(mb, md).items():
                _add_into(out, (m1, m2), s * c1 * c2)
        return out

    gens = [
        ("%s(x)1" % n, (m, B.unit_mono)) for n, m in A.generator_monos.items()
    ] + [
        ("1(x)%s" % n, (A.unit_mono, m)) for n, m in B.generator_monos.items()
    ]
    return StructureConstantAlgebra(
        signature=_square_signature(A, B, chi),
        N=A.N,
        basis=basis,
        degrees=degrees,
        labels=labels,
        unit_mono=(A.unit_mono, B.unit_mono),
        pair_rule=rule,
        generator_monos=gens,
    )


def _tensor_column(*pairs):
    """sum a (x) b over pairs (a, b) of elements of one algebra A, as a
    column of V (x) V: a (x) b has index i_a * dim + i_b."""
    out = {}
    for a, b in pairs:
        _kron_into(out, a.as_column(), b.as_column(), a.algebra.dim)
    return out


def _square(A, chi, V):
    """The product of A (x)^tau A as one leaf from the word (V, V, V, V)
    to (V, V): the column of (a(x)b) (x) (c(x)d) is chi(deg b, deg c)
    m(a(x)c) (x) m(b(x)d), read from A's product cache and multiplied in
    the order of (m (x) m) . (id (x) tau (x) id)."""
    n, deg, product = A.dim, A.mono_degrees, A._product_column

    def column(j):
        ab, cd = divmod(j, n * n)
        a, b = divmod(ab, n)
        c, d = divmod(cd, n)
        right, out = product(b * n + d), {}
        _kron_into(out, product(a * n + c), right, n, chi.chi(deg[b], deg[c]))
        return out

    return word_leaf((V,) * 4, (V, V), column)


def _unit_product(x, y):
    """The product of k, on columns of the unit space."""
    return {0: x[0] * y[0]} if x and y else {}


# ---------------------------------------------------------------------------
# Hopf structure data
# ---------------------------------------------------------------------------


class HopfData:
    """An algebra together with candidate Hopf structure maps.

    Fields: algebra, chi, space V, the five shift-0 structure maps
    m: V(x)V -> V, u: I -> V, Delta: V -> V(x)V, eps: V -> I, S: V -> V,
    the braiding tau of V (x) V, square, the product of A (x)^tau A, and
    products, map name -> its target's product on columns, read by extend
    and row_law.  u is a GradedMap, the others diagram leaves that compute
    a column when it is read, Delta's, eps's and S's by extend.  The
    generator images they were extended from are kept in coproducts
    (columns of V (x) V) / counits / antipodes (elements of A), keyed by
    generator name.  The row laws' checks are kept once computed
    (row_law).
    """

    def __init__(self, algebra, chi, coproducts, counits, antipodes):
        self.algebra = A = algebra
        self.chi = chi
        self.coproducts = dict(coproducts)
        self.counits = dict(counits)
        self.antipodes = dict(antipodes)
        for name, img in self.antipodes.items():
            if not (isinstance(img, AlgebraElement)
                    and img.algebra.signature == A.signature):
                raise ValueError("antipode image for %r must live in the "
                                 "algebra" % name)
        self._row_laws = {}
        self.m = algebra.mult_map()
        self.u = algebra.unit_map()
        V = self.space = algebra.graded_space()
        self.tau = braiding(V, V, chi)
        self.square = _square(A, chi, V)
        # partials, not bound methods, so the maps' memos do not reach self
        products = self.products = {
            "Delta": functools.partial(_on_pairs, self.square, A.dim ** 2),
            "eps": _unit_product,
            "S": functools.partial(_on_pairs, self.m @ self.tau, A.dim)}
        one, n, deg = A.unit(), A.dim, A.mono_degrees
        gens = sorted(A.index[mono] for mono in A.generator_monos.values())
        for name, target, unit, images in (
                ("Delta", (V, V), _tensor_column((one, one)), self.coproducts),
                ("eps", (GradedSpace.unit(A.N),), {0: Fraction(1)},
                 {g: {0: c} if c else {} for g, c in self.counits.items()}),
                ("S", (V,), one.as_column(),
                 {g: img.as_column() for g, img in self.antipodes.items()})):
            times = products[name]
            # a generator's image taken through the product with the unit,
            # as every longer monomial's is, so all columns share scalar types
            f = A.extend({g: times(unit, images[g])
                          for g in A.generator_monos}, unit, times)
            leaf = word_leaf((V,), target, lambda j, f=f: f(A.basis[j]))
            # homogeneous on the generators, row r's degree summed over its
            # base-n digits; the other columns are products of theirs
            for j in gens:
                for r in f(A.basis[j]):
                    d = sum(deg[r // n ** i % n]
                            for i in range(len(leaf.target))) % A.N
                    if d != deg[j]:
                        raise homogeneity_error(r, j, d, deg[j], 0)
            setattr(self, name, leaf)

    # -- the row laws and the rows they admit ------------------------------

    def row_law(self, name):
        """The check of coproduct_is_multiplicative,
        counit_is_multiplicative or antipode_is_antimultiplicative,
        computed once per HopfData: PASS when the defining relations vanish
        on the generator images in the map's target (_relations_vanish),
        and else the row_check, which finds the witness."""
        if name not in self._row_laws:
            m, tau, Delta, eps, S = (self.m, self.tau, self.Delta, self.eps,
                                     self.S)
            key, f, rhs = {
                "coproduct_is_multiplicative": (
                    "Delta", Delta, self.square @ tensor_diagram(Delta, Delta)),
                "counit_is_multiplicative": (
                    "eps", eps, tensor_diagram(eps, eps)),
                "antipode_is_antimultiplicative": (
                    "S", S, m @ tensor_diagram(S, S) @ tau),
            }[name]
            self._row_laws[name] = (
                check(name, True)
                if self._relations_vanish(f, self.products[key])
                else self.algebra.row_check(name, f @ m, rhs))
        return self._row_laws[name]

    def _relations_vanish(self, f, times):
        """Whether the algebra is presented, the premises of row_check hold,
        and every defining relation a*b = sum c*w vanishes in f's target,
        f(a) f(b) = sum c f(w) with f's own columns multiplied by times (the
        relation lemma of the module docstring)."""
        A = self.algebra  # generated from 1 by construction, if presented
        if not (isinstance(A, PresentedAlgebra)
                and A._row_premises()[0]["status"] == PASS):
            return False

        def column(mono):
            return f.apply({A.index[mono]: 1})
        return not any(r for *_, r in A.relation_residuals(
            column, lambda a, y: times(column(a), y)))

    def rows(self, *premises):
        """The inputs on which a law resting on the named row laws is
        compared: iota, the inclusion of span({1} u G) in A
        (FiniteDimAlgebra.generator_rows), when every one of them passed,
        and else the identity of A, every basis input (see the module
        docstring for the lemma)."""
        if all(self.row_law(name)["status"] == PASS for name in premises):
            return self.algebra.generator_rows()[0]
        return self.algebra.identity_map()


def build_hopf(algebra, chi, coproducts, counits, antipodes):
    """Assemble HopfData from generator images, after the dimension guard.

    coproducts: name -> element of braided_tensor_algebra(A, A, chi), read
    as its column; counits: name -> scalar; antipodes: name -> element of A.
    """
    check_guard(algebra.dim, "Hopf structure")
    square = _square_signature(algebra, algebra, chi)
    columns = {}
    for name, img in coproducts.items():
        if not (isinstance(img, AlgebraElement)
                and img.algebra.signature == square):
            raise ValueError("coproduct image for %r must live in the "
                             "braided tensor square" % name)
        columns[name] = img.as_column()
    return HopfData(algebra, chi, columns, counits, antipodes)


def anyonic_hopf(p, c=1):
    """The anyonic line as a Hopf algebra in (Vec_{Z/p}, xi^{c*ij}).

    x is primitive: Delta(x) = x(x)1 + 1(x)x, eps(x) = 0, S(x) = -x.
    Every c != 0 mod p gives a braided Hopf algebra.  c = 0 mod p (the
    unbraided square) violates the multiplicativity of Delta at every p,
    p = 2 included, and serves as the negative control.
    """
    check_guard(p, "Hopf structure")
    A = anyonic_line(p)
    x = A.gen("x")
    one = A.unit()
    dx = _tensor_column((x, one), (one, x))
    return HopfData(A, Bicharacter(p, c), {"x": dx}, {"x": 0}, {"x": -x})


def taft_hopf(p):
    """The Taft algebra as an ordinary Hopf algebra (trivial grading).

    Delta(g) = g(x)g, Delta(x) = x(x)1 + g(x)x, eps(g) = 1, eps(x) = 0,
    S(g) = g^{p-1}, S(x) = -g^{p-1} x.
    """
    check_guard(p * p, "Hopf structure")
    A = taft(p)
    g, x = A.gen("g"), A.gen("x")
    one = A.unit()
    cop = {"g": _tensor_column((g, g)), "x": _tensor_column((x, one), (g, x))}
    cou = {"g": 1, "x": 0}
    ant = {"g": g ** (p - 1), "x": -(g ** (p - 1) * x)}
    return HopfData(A, Bicharacter(1, 0), cop, cou, ant)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def verify_bialgebra(H):
    """Check the braided bialgebra axioms for HopfData, column by column.

    Both sides of each identity are lazy diagrams of the structure maps
    (graded.Diagram), compared one basis input at a time, so no Kronecker
    product is formed; the size of H is bounded by the dimension guard
    when H is built.  coproduct_is_multiplicative and
    counit_is_multiplicative are read off the defining relations, or else
    checked on generator rows (HopfData.row_law).  coassociativity, which
    rests on the first, and counit_law, which rests on both, are compared
    on 1 and the generators when those pass, and on every basis input
    otherwise (HopfData.rows).
    A failed counit_law names the side that differs, (eps(x)id).Delta or
    (id(x)eps).Delta, with its first differing input.
    """
    V = H.space
    idv = diagram(H.algebra.identity_map())
    u, Delta, eps = H.u, H.Delta, H.eps
    checks = [
        H.row_law("coproduct_is_multiplicative"),
        map_check("coproduct_of_unit", Delta @ u, tensor_diagram(u, u)),
        H.row_law("counit_is_multiplicative"),
        map_check("counit_of_unit", eps @ u,
                  GradedMap.identity(GradedSpace.unit(V.N))),
    ]
    rows = H.rows("coproduct_is_multiplicative")
    checks.append(map_check("coassociativity",
                            tensor_diagram(Delta, idv) @ Delta @ rows,
                            tensor_diagram(idv, Delta) @ Delta @ rows))
    rows = H.rows("coproduct_is_multiplicative", "counit_is_multiplicative")
    for side, law in (("(eps(x)id).Delta", (eps, idv)),
                      ("(id(x)eps).Delta", (idv, eps))):
        counit = map_check("counit_law", tensor_diagram(*law) @ Delta @ rows,
                           rows, "(eps(x)id).Delta = id = (id(x)eps).Delta")
        if counit["status"] == FAIL:
            counit["witnesses"] = [dict(side=side, **counit["witnesses"][0])]
            break
    checks.append(counit)
    return checks


def verify_antipode(H):
    """Check the antipode axiom, (anti)morphism properties and report S^2.

    The identities are compared column by column, as in verify_bialgebra.
    antipode_is_antimultiplicative is read off the defining relations, or
    else checked on generator rows, and computed first (HopfData.row_law).
    antipode_left and antipode_right rest on it and on the
    multiplicativity of Delta and eps, antipode_is_anticomultiplicative on
    it and that of Delta; each is compared on 1 and the generators when
    the laws it rests on pass, and on every basis input otherwise
    (HopfData.rows).  S^2 is computed once on each generator, for
    antipode_square_recorded and for antipode_invertible, which passes
    with rank dim A by the S^2 lemma of the module docstring when that law
    passed, A is presented and each S^2(g) is one nonzero term on g; else
    it takes the rank of S's assembled columns.
    """
    A, V, m, tau = H.algebra, H.space, H.m, H.tau
    idv = diagram(A.identity_map())
    Delta, S, ue = H.Delta, H.S, H.u @ H.eps
    anti = H.row_law("antipode_is_antimultiplicative")
    rows = H.rows("coproduct_is_multiplicative", "counit_is_multiplicative",
                  "antipode_is_antimultiplicative")
    co_rows = H.rows("coproduct_is_multiplicative",
                     "antipode_is_antimultiplicative")
    squares = [(name, g, antipode_square(H, g)) for name, g in A.generators()]
    if (anti["status"] == PASS and isinstance(A, PresentedAlgebra) and all(
            s2.terms.keys() == g.terms.keys() for _, g, s2 in squares)):
        rank = V.dim
    else:
        rank = from_cols(V.dim, list(S.columns())).rank()
    checks = [
        map_check("antipode_left", m @ tensor_diagram(S, idv) @ Delta @ rows,
                  ue @ rows),
        map_check("antipode_right", m @ tensor_diagram(idv, S) @ Delta @ rows,
                  ue @ rows),
        anti,
        map_check("antipode_is_anticomultiplicative", Delta @ S @ co_rows,
                  tau @ tensor_diagram(S, S) @ Delta @ co_rows),
        check("antipode_invertible", rank == V.dim,
              details="rank %d of %d" % (rank, V.dim)),
    ]
    images = [{"generator": name, "square_antipode_image": repr(s2)}
              for name, _, s2 in squares]
    checks.append(check("antipode_square_recorded", True,
                        details="S^2 on generators", witnesses=images))
    return checks


def antipode_square(H, a):
    """S^2(a) for an element a of H.algebra, by S's diagram leaf."""
    S, A = H.S, H.algebra
    return A.element({A.basis[i]: c
                      for i, c in S.apply(S.apply(a.as_column())).items()})


def coproduct_power(H, n):
    """The closed form Delta(x^n) = sum_i binom(n,i)_xi x^i (x) x^{n-i}, as
    a column of V (x) V, with row n of q_binomials.

    Only meaningful for the anyonic line; verify_coproduct_powers compares
    it with the n-fold product of Delta(x) in the braided square.
    """
    A, row = H.algebra, q_binomials(n, H.chi.chi(1, 1))[n]
    return _tensor_column(*((row[i] * A.element({(i,): 1}),
                             A.element({(n - i,): 1})) for i in range(n + 1)))


def verify_coproduct_powers(H):
    """Check the closed form against Delta's own column at x^n (index n),
    the n-fold product of Delta(x) in the braided square; a failure lists
    both columns as [row, value] pairs."""
    checks = []
    for n, product in enumerate(H.Delta.columns()):
        formula = coproduct_power(H, n)
        ok = product == formula
        checks.append(check(
            "coproduct_power_%d" % n, ok,
            details="Delta(x)^%d vs Gaussian binomial sum" % n,
            witnesses=None if ok else [
                {"power": n, "product": column_entries(product),
                 "formula": column_entries(formula)}]))
    return checks
