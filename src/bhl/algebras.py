"""Finite-dimensional graded algebras with normal forms and exact linear analysis.

Two constructions cover everything needed:

* PresentedAlgebra — generators in a fixed order with power rules
  (gen^p -> 0 or 1) and straightening rules for each out-of-order adjacent
  pair.  Normal monomials are the ordered products g_1^{e_1}...g_k^{e_k}
  with exponents below the bounds.  g * m, for a generator g and a normal
  monomial m, is rewritten once and memoised, and a product a * b applies
  these generator actions for the letters of a, right to left, to b.

* StructureConstantAlgebra — an explicit basis with a pairwise product
  rule (used for the dual of the anyonic line, whose product is given in
  closed form, and for hopf.braided_tensor_algebra, the braided square
  on pair monomials, which only the tests build).

Either keeps a table generator_monos, name -> basis monomial, which gen,
generators and generator_rows read.  On top of either: regular-
representation matrices (the columns of multiply), the product as a
diagram leaf with column a (x) b = pair_product(a, b), the unit as a graded
map, associativity and unitality checks on them, and center computation
by generator commutants (center_matrix).

PresentedAlgebra.mirror_premise checks once, on the presentation, that
reversing the generator order, g_i -> g_(k-1-i), extends to an
anti-automorphism sigma of A; sigma then maps each normal monomial m to
m[::-1].  On the sigma-fixed monomials ad(sigma h) = -sigma ad(h), so the
center of uqsl2(p) is the kernel of ad(F) alone, with no column of ad(E).

PresentedAlgebra.relation_residuals is the one evaluator of a
presentation's relations, each read as a*b = sum c*w on normal monomials
and evaluated on sparse columns of a left module: in A's regular module
it gives associativity (below) and, with each image reversed, sigma's
premise; in a target algebra the relation checks of algebra_morphism and
of hopf's row laws.

PresentedAlgebra.extend is the one place where values on generators are
extended to every normal monomial: a single letter takes its image, any
other monomial splits at its last run, rest * g^e, a single run as
g^(e-1) * g, and the two parts' images are multiplied by a given
product times(x, y).  The induced linear map of a morphism, the Hopf
structure maps (hopf.HopfData, each on columns through the product of
its target) and the substitution of uqsl2 into d_a_mu behind the ribbon
identity (ayd) are all built on it.

Generator rows.  A law that is multiplicative in its first argument
(associativity, and in hopf the multiplicativity of Delta and eps and the
anti-multiplicativity of S) is checked only with a generator or 1 as that
argument: both sides are precomposed with iota (x) id, where iota includes
span({1} u G) in A (FiniteDimAlgebra.generator_rows).  By induction
along a search outward from 1 this proves the law on all basis elements,
given two premises that are checked once per algebra and folded into each
such check: (g*b)*c = g*(b*c) for g in {1} u G and all basis b, c, and
every basis element other than 1 is a nonzero multiple of g*b for some g
in {1} u G and a basis element b reached before it.  A presented algebra
meets the second by construction, and takes the first, indeed
associativity on all triples, from the overlaps of its rules by the
diamond lemma (PresentedAlgebra._relations_hold).  Otherwise both are
checked, associativity on the (|G|+1)*dim^2 generator-row triples.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .exactmat import Mat, _add_into, from_cols
from .graded import (GradedMap, GradedSpace, LazyLabels, _kron_into, diagram,
                     homogeneity_error, tensor_diagram, word_leaf)
from .guard import (DEFAULT_DIM_GUARD, DimensionGuardError, check_guard,
                    dim_guard, is_prime)
from .record import Record
from .report import FAIL, PASS, check, map_check
from .scalars import format_scalar, power, q_binomials, root_of_unity


class Presentation(Record):
    """Generators with power rules and straightening rules.

    gens are listed in normal order; a normal monomial multiplies them
    left-to-right with exponents below `bounds`.  power_rhs[i] is the scalar
    value of gens[i]**bounds[i] (0 for nilpotent, 1 for a group-like of that
    order).  straighten maps an out-of-order adjacent pair (hi, lo) with
    hi > lo to a sum: gens[hi]*gens[lo] -> sum of (scalar, word), each word
    a normal monomial, a tuple of (generator index, exponent) with the
    indices increasing and each exponent below its bound.
    """

    _fields = ("N", "gens", "degrees", "bounds", "power_rhs", "straighten")


class AlgebraElement:
    """A finite linear combination of basis monomials of one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _compatible(self, other):
        if self.algebra.signature != other.algebra.signature:
            raise ValueError(
                "elements of different algebras: %r vs %r"
                % (self.algebra.signature, other.algebra.signature)
            )

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return self + other * self.algebra.unit()
        self._compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            _add_into(terms, m, c)
        return AlgebraElement(self.algebra, terms)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return AlgebraElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            other = other * self.algebra.unit()
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._compatible(other)
            return self.algebra.multiply(self, other)
        return AlgebraElement(self.algebra, {m: other * c for m, c in self.terms.items()})

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, {m: scalar * c for m, c in self.terms.items()})

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative powers of algebra elements are not defined here")
        return power(self, e, self.algebra.unit)

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return (self.algebra.signature == other.algebra.signature
                    and self.terms == other.terms)
        return NotImplemented

    def degree(self):
        degs = {self.algebra.mono_degree(m) for m in self.terms}
        if len(degs) != 1:
            raise ValueError("element is not homogeneous of a single degree")
        return degs.pop()

    def as_column(self):
        return {self.algebra.index[m]: c for m, c in self.terms.items()}

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            label = self.algebra.mono_label(m)
            c = self.terms[m]
            if label == "1":
                parts.append(format_scalar(c))
            elif c == 1:
                parts.append(label)
            else:
                parts.append("(%s)*%s" % (format_scalar(c), label))
        return " + ".join(parts)


class FiniteDimAlgebra:
    """Shared machinery over an enumerated monomial basis."""

    def _init_common(self, signature, N, basis, degrees, labels, unit_mono,
                     generator_monos):
        self.signature = signature
        self.N = N
        self.basis = tuple(basis)
        space = GradedSpace(N, degrees, labels)
        self.mono_degrees, self.labels = space.degrees, space.labels
        self.unit_mono = unit_mono
        self.generator_monos = dict(generator_monos)
        self.index = dict(zip(self.basis, range(len(self.basis))))
        self._pair_cache = {}
        self._premises = self._identity = self._rows = None

    @property
    def dim(self):
        return len(self.basis)

    def mono_degree(self, mono):
        return self.mono_degrees[self.index[mono]]

    def mono_label(self, mono):
        return self.labels[self.index[mono]]

    def graded_space(self):
        return GradedSpace(self.N, self.mono_degrees, self.labels)

    # -- elements -------------------------------------------------------------

    def element(self, terms):
        for m in terms:
            if m not in self.index:
                raise ValueError("unknown basis monomial %r" % (m,))
        return AlgebraElement(self, dict(terms))

    def zero(self):
        return AlgebraElement(self, {})

    def gen(self, name):
        mono = self.generator_monos.get(name)
        if mono is None:
            raise ValueError("no generator named %r" % (name,))
        return AlgebraElement(self, {mono: 1})

    def generators(self):
        return [(n, AlgebraElement(self, {m: 1}))
                for n, m in self.generator_monos.items()]

    def unit(self):
        return AlgebraElement(self, {self.unit_mono: 1})

    def element_to_json(self, a):
        out = []
        for m in sorted(a.terms):
            key = list(m) if isinstance(m, tuple) else m
            out.append([key, format_scalar(a.terms[m])])
        return out

    # -- multiplication ---------------------------------------------------------

    def pair_product(self, ma, mb):
        """ma * mb as {normal monomial: coefficient}."""
        basis, index = self.basis, self.index
        return {basis[i]: s for i, s in self._product_column(
            index[ma] * self.dim + index[mb]).items()}

    def _product_column(self, j):
        """The product of basis elements a and b, j = a * dim + b, as
        {basis index: coefficient}: column j of the product map, computed
        once.  An entry whose degree is not deg a + deg b raises the
        ValueError that GradedMap raises for it."""
        hit = self._pair_cache.get(j)
        if hit is None:
            a, b = divmod(j, self.dim)
            index, deg = self.index, self.mono_degrees
            source = (deg[a] + deg[b]) % self.N
            hit = {index[m]: s for m, s in self._pair_product_raw(
                self.basis[a], self.basis[b]).items()}
            for r in hit:
                if deg[r] != source:
                    raise homogeneity_error(r, j, deg[r], source, 0)
            self._pair_cache[j] = hit
        return hit

    def multiply(self, a, b):
        terms = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                cab = ca * cb
                for m, s in self.pair_product(ma, mb).items():
                    _add_into(terms, m, cab * s)
        return AlgebraElement(self, terms)

    # -- regular representation ----------------------------------------------------

    def left_mult_operator(self, a):
        """The matrix of b |-> a*b."""
        return from_cols(self.dim, [
            self.multiply(a, AlgebraElement(self, {mb: 1})).as_column()
            for mb in self.basis])

    # -- verification -----------------------------------------------------------

    def mult_map(self):
        """The product m: A (x) A -> A as a diagram leaf on the word (V, V):
        the column of a (x) b is pair_product(a, b), computed when a check
        first reads it and kept in the algebra's pair cache."""
        V = self.graded_space()
        return word_leaf((V, V), (V,), self._product_column)

    def unit_map(self):
        """The unit u: I -> A as a GradedMap."""
        return GradedMap(GradedSpace.unit(self.N), self.graded_space(),
                         Mat(self.dim, 1, {(self.index[self.unit_mono], 0): 1}))

    def identity_map(self):
        """The identity of A, built once, so it becomes a leaf once."""
        if self._identity is None:
            self._identity = GradedMap.identity(self.graded_space())
        return self._identity

    def generator_rows(self):
        """The inclusion iota of span({1} u G) in A, and the label "a , b"
        of the basis vectors of span({1} u G) (x) A, built once per algebra.

        iota's basis is 1 and the generators, in A's basis order, with A's
        labels.  A law that is multiplicative in its first argument holds
        once it holds after precomposing both sides with iota (x) id; see
        row_check for the premises.
        """
        if self._rows is None:
            V = self.graded_space()
            rows = sorted({self.index[self.unit_mono]} | {
                self.index[m] for m in self.generator_monos.values()})
            R = GradedSpace(self.N, [V.degrees[i] for i in rows],
                            [V.labels[i] for i in rows])
            iota = GradedMap(R, V, Mat(self.dim, len(rows), {
                (i, k): 1 for k, i in enumerate(rows)}))

            def label(j):
                r, b = divmod(j, self.dim)
                return "%s , %s" % (R.labels[r], V.labels[b])

            self._rows = iota, label
        return self._rows

    def _row_premises(self):
        """The premises of the generator-row lemma, checked once: the
        associativity check, and the generation witness (None when every
        basis element is reached from 1).

        A presented algebra is generated from 1 and has a*1 = a by
        construction.  Let m != 1 have leading letter h, and m' lower h's
        exponent by one.  _act of h on m' only raises that exponent, below
        its bound, with coefficient 1; a diagonal h scales by factors of
        letters before h, and m' has none.  So h*m' = m, m' being reached
        first, and a*1 = a, as a's letters act on 1 the same way.  It is
        associative when its rules decrease and their overlaps resolve
        (PresentedAlgebra._relations_hold, the overlap lemma).  Otherwise
        generation is searched from 1 (_unreached) and associativity
        checked on generator rows.
        """
        if self._premises is None:
            if self._relations_hold():
                self._premises = check("associativity", True,
                                       "all %d^3 basis triples" % self.dim), None
            else:
                iota, _ = self.generator_rows()
                m, idv = self.mult_map(), self.identity_map()
                unreached = self._unreached(m @ tensor_diagram(iota, idv))
                rows = tensor_diagram(iota, idv, idv)
                self._premises = map_check(
                    "associativity", m @ tensor_diagram(m, idv) @ rows,
                    m @ tensor_diagram(idv, m) @ rows,
                    "all %d^3 basis triples" % self.dim), unreached
        return self._premises

    def _relations_hold(self):
        return False  # no presentation: associativity from generator rows

    def _unreached(self, row_products):
        """Search outward from 1: a basis element is reached when it is a
        nonzero multiple of r*b for r in {1} u G and a reached b.  Returns
        the witness of the first basis element not reached, or None.
        row_products is m . (iota (x) id)."""
        n = self.dim
        cols = list(row_products.columns())
        reached = [self.index[self.unit_mono]]
        seen = set(reached)
        for b in reached:
            for col in cols[b::n]:
                if len(col) == 1:
                    (a,) = col
                    if a not in seen:
                        seen.add(a)
                        reached.append(a)
        if len(seen) == n:
            return None
        first = min(set(range(n)) - seen)
        return {"premise": "generation", "input": self.labels[first],
                "note": "not a nonzero multiple of g*b for g in {1} u G "
                        "and a basis element b reached from 1"}

    def row_check(self, name, lhs, rhs):
        """map_check of a law that is multiplicative in its first argument,
        with both sides precomposed with iota (x) id (generator_rows).

        By induction along the search from 1, such a law holds for every
        pair of basis elements once it holds on generator rows, provided
        (g*b)*c = g*(b*c) for every g in {1} u G and all basis b, c, and
        every basis element other than 1 is a nonzero multiple of g*b for
        some g in {1} u G and a basis element b reached before it.  Those two
        premises are checked once per algebra; if one fails, so does this
        check, with the premise's witness.
        """
        assoc, failure = self._row_premises()
        if assoc["status"] == FAIL:
            failure = dict(assoc["witnesses"][0],
                           premise="associativity on generator rows")
        if failure is not None:
            return check(name, False, "premise fails: %s" % failure["premise"],
                         [failure])
        iota, label = self.generator_rows()
        rows = tensor_diagram(iota, self.identity_map())
        return map_check(name, diagram(lhs) @ rows, diagram(rhs) @ rows,
                         label=label)

    def verify_associativity(self):
        """m.(m (x) id) = m.(id (x) m) and m.(u (x) id) = id = m.(id (x) u).

        Associativity is taken from the defining relations, or else
        checked on generator rows, (g*b)*c = g*(b*c) for g in {1} u G,
        together with the generation premise of row_check; by induction
        along the search from 1 the two give it for all dim^3 basis
        triples (_row_premises).  Unitality is compared one basis input at
        a time.
        """
        check_guard(self.dim, "associativity sweep")
        assoc, unreached = self._row_premises()
        if assoc["status"] == PASS and unreached is not None:
            assoc = check("associativity", False, assoc["details"], [unreached])
        m, u, idv = self.mult_map(), self.unit_map(), self.identity_map()
        units = [
            map_check("unitality", m @ tensor_diagram(*law), idv,
                      "unit monomial %s" % self.mono_label(self.unit_mono))
            for law in ((u, idv), (idv, u))
        ]
        return [assoc, next((c for c in units if c["status"] == FAIL), units[0])]

    def center_matrix(self):
        """(M, space): the joint kernel of ad(g): v |-> g*v - v*g over the
        generators g is the center, and it is the kernel of M read over
        the monomials of space.  No L_g or R_g on all of A is built.

        The center is the joint kernel over generators only because A is
        associative: then [g*h, v] = g*[h, v] + [g, v]*h.  ad(g) relies on
        it too, taking m*g as h*(m'*g) for m = h*m' (_right_products).

        First each diagonal generator cuts the basis to the monomials it
        commutes with (_diagonal_commutant).  The lemma: let g be
        invertible, and let g*h = lambda_h h*g for every generator h, with
        both products a single term on one monomial.  Then
        g*m*g^-1 = lambda_m m for each basis monomial m, with lambda_m the
        product of the lambda_h over the letters of m, and m |-> m*g is
        injective; so ker ad(g) on the span of any set of monomials is the
        monomials of the set with lambda_m = 1.  A presented algebra checks
        two premises: g^bound is a nonzero scalar, and the products g*h
        and h*g.  The premise on h = g itself, g*g and g*g the same single
        nonzero term, gives lambda_g = 1; so lambda_m is read with g's own
        exponent in m set to 0, about p^2 values on the p^3 monomials of
        uqsl2(p) and d_a_mu(p, mu).

        Then the mirror.  Let sigma be an anti-automorphism of A that
        maps each generator to a generator and fixes each monomial left
        (mirror_premise: sigma(m) = m[::-1]).  For v in their span,
        sigma(v) = v, so ad(sigma h)(v) = sigma(v*h) - sigma(h*v) =
        -sigma(ad(h)(v)), and sigma is injective: ad(sigma h) has the
        kernel of ad(h) there.  So a generator whose mirror is already
        stacked is dropped.  On uqsl2(p) that is E, the mirror of F, and
        on d_a_mu(p, mu) x, the mirror of z.

        The other generators g_0, g_1, ... act on the monomials m that
        are left: column m of M is ad(g_0)(m) over ad(g_1)(m) and so on,
        generator k's rows offset by k * dim, each generator's memo of
        right products freed before any elimination.

        Generators of degree 0 go first, in presentation order otherwise;
        on uqsl2(p) and d_a_mu(p, mu) that one is diagonal and leaves the
        p^2 monomials of weight zero (F^a K^b E^a, z^a g^b x^a).  Neither
        the order nor the mirror changes the kernel or the column order,
        so not the reduced basis compute_center reads
        (test_center_does_not_depend_on_the_generator_order, against
        tests/oracle.py::center_by_generator_chain).
        """
        check_guard(self.dim, "center computation")
        index, dim = self.index, self.dim
        space, stacked = list(self.basis), []
        for _, g in sorted(self.generators(), key=lambda ng: ng[1].degree() != 0):
            (gm,) = g.terms
            kept = self._diagonal_commutant(gm, space)
            if kept is None:
                stacked.append(gm)
            else:
                space = kept
        if self.mirror_premise() and all(m == m[::-1] for m in space):
            stacked = [gm for k, gm in enumerate(stacked)
                       if gm[::-1] not in stacked[:k]]
        cols = [{} for _ in space]
        for k, gm in enumerate(stacked):
            ad, offset = self.ad(gm), k * dim
            for col, m in zip(cols, space):
                for mo, s in ad(AlgebraElement(self, {m: 1})).terms.items():
                    col[offset + index[mo]] = s
            del ad  # free this generator's memo before the elimination
        return from_cols(len(stacked) * dim, cols), space

    def compute_center(self):
        """Basis of the center: the kernel vectors of center_matrix, read
        over the monomials it leaves, from one elimination."""
        M, space = self.center_matrix()
        return [AlgebraElement(self, {space[j]: c for j, c in vec.items()})
                for vec in M.kernel_basis()]

    def mirror_premise(self):
        """False: without a presentation sigma is not known (see
        PresentedAlgebra.mirror_premise)."""
        return False

    def ad(self, g):
        """ad(g): v |-> g*v - v*g for a generator monomial g, g*v by
        multiply from the pair cache and v*g summed over the right
        products m*g of v's monomials (_right_products), whose memo lives
        as long as the map."""
        right, gen = self._right_products(g), AlgebraElement(self, {g: 1})

        def commutator(v):
            terms = self.multiply(gen, v).terms
            for m, c in v.terms.items():
                for mo, s in right(m).items():
                    terms[mo] = terms.get(mo, 0) - c * s
            return AlgebraElement(self, terms)
        return commutator

    def _diagonal_commutant(self, g, space):
        """None: without a presentation no power rule shows g invertible
        (see PresentedAlgebra._diagonal_commutant)."""
        return None

    def _right_products(self, g):
        """m |-> m * g on basis monomials m, for a generator monomial g."""
        return lambda m: self.pair_product(m, g)


class PresentedAlgebra(FiniteDimAlgebra):
    """Algebra of normal monomials of a Presentation, multiplied by
    memoised generator actions."""

    def __init__(self, pres: Presentation, signature=None):
        self.pres = pres
        k = len(pres.gens)
        if not (len(pres.degrees) == len(pres.bounds) == len(pres.power_rhs) == k):
            raise ValueError("presentation field lengths disagree")
        basis = tuple(itertools.product(*(range(b) for b in pres.bounds)))
        degrees = [0]  # one sweep per generator, in the order of the basis
        for d, b in zip(pres.degrees, pres.bounds):
            degrees = [x + e * d for x in degrees for e in range(b)]
        labels = LazyLabels(len(basis), functools.partial(
            _monomial_label, pres.gens, basis))
        self._init_common(
            signature or ("presented", pres.gens, pres.bounds),
            pres.N, basis, degrees, labels, (0,) * k,
            [(name, _run(k, gi, 1)) for gi, name in enumerate(pres.gens)])
        # each defining relation as (check name, relation, a, b, ((c, w),
        # ...)), a*b = sum c*w on normal monomials (relation_residuals)
        self._relations = [
            ("relation %s^%d = %s" % (name, b, format_scalar(r)),
             "%s^%d" % (name, b), _run(k, i, b - 1), _run(k, i, 1),
             ((r, self.unit_mono),) if r else ())
            for i, (name, b, r) in enumerate(zip(
                pres.gens, pres.bounds, pres.power_rhs))] + [
            ("relation %s*%s straightens" % (pres.gens[hi], pres.gens[lo]),
             "%s*%s" % (pres.gens[hi], pres.gens[lo]), _run(k, hi, 1),
             _run(k, lo, 1), tuple((s, _normal_monomial(pres, w))
                                     for s, w in rule))
            for (hi, lo), rule in sorted(pres.straighten.items())]
        self._actions = {}
        self._diagonal = [_diagonal_factors(pres, i) for i in range(k)]
        self._diagonal_scales = {}
        self._mirror = None

    def _relations_hold(self):
        """Whether A is associative by the diamond lemma (Bergman, Adv.
        Math. 29, 1978, Thm. 1.2) for the reductions hi*lo -> sum s*w and
        g^bound -> r.  Words are ordered by their count of letters with
        power_rhs 0, then length, and within one multiset by inversions:
        a semigroup order, as counts add under products and inversions do
        up to terms the multisets fix, with DCC, as (count, length) is well
        ordered and a multiset has finitely many words.  g^bound -> r
        decreases, and hi*lo -> sum s*w when each w has a smaller (count,
        length) or is lo*hi.  _act reduces by these rules, a diagonal run
        g^e by g*h -> s_h h*g and g^bound -> r, so pair_product(a, b)
        reduces the word a b.  A relation a*b = sum c*w holds in the
        regular module at m when a*(b*m) = sum c w*m, its two sides
        reducing the word a b m by its two rules.  So the overlaps
        hi*mid*lo, g^bound*lo and hi*g^bound resolve (g^bound with itself
        does, r being a scalar) when hi*mid = ... holds at m = lo,
        g^bound = r, read g^(bound-1)*g, at m = lo, and hi*g = ... at
        m = g^(bound-1): each power rule at the letters, each straightening
        rule hi*lo at the letters and lo^(bound-1).  Then the normal
        monomials are a basis of the presented algebra, and pair_product
        its product."""
        pres, index, product = self.pres, self.index, self.mult_map()

        def order(mono):  # (count of letters with power_rhs 0, length)
            return (sum(e for e, r in zip(mono, pres.power_rhs) if not r),
                    sum(mono))

        for _, _, a, b, rhs in self._relations:
            ab = tuple(map(operator.add, a, b))
            if any(order(w) >= order(ab) and w != ab for _, w in rhs):
                return False

        def act(a, y):
            return _on_pairs(product, self.dim, {index[a]: 1}, y)
        letters = list(self.generator_monos.values())
        return not any(  # each rule at the letters, hi*lo also at lo^(bound-1)
            _residual(a, b, rhs, lambda w, m=m: act(w, {index[m]: 1}), act)
            for j, (*_, a, b, rhs) in enumerate(self._relations)
            for m in letters + [tuple(e * (n - 1) for e, n in zip(
                b, pres.bounds))] * (j >= len(letters)))

    def relation_residuals(self, f, act):
        """(check name, relation, residual) for each defining relation,
        read as a*b = sum c*w on normal monomials: act(a, f(b)) - sum
        c*f(w) as a sparse dict, f(w) the image of w in a left module and
        act(a, y) a acting on an image y there.  First each power rule
        g^bound = r, read g^(bound-1)*g = r*1, in generator order, then
        each straightening rule hi*lo = sum s*w, sorted."""
        for name, rel, a, b, rhs in self._relations:
            yield name, rel, _residual(a, b, rhs, f, act)

    def extend(self, gen_images, one, times):
        """The memoised map that extends generator images to normal monomials.

        The unit monomial maps to `one` and a single letter g to
        gen_images[name of g].  Any other monomial splits at its last run,
        rest * g^e, and a single run g^e splits as g^(e-1) * g.  The image
        of a split is times(left image, right image).
        """
        # a method, not a closure that calls itself: that would be a
        # reference cycle, and the memo would wait for the cyclic collector
        return functools.partial(self._extended, {self.unit_mono: one},
                                 gen_images, times)

    def _extended(self, memo, gen_images, times, mono):
        hit = memo.get(mono)
        if hit is None:
            i = max(j for j, e in enumerate(mono) if e)
            rest = mono[:i] + (0,) * (len(mono) - i)
            if any(rest):
                hit = times(self._extended(memo, gen_images, times, rest),
                            self._extended(memo, gen_images, times,
                                           (0,) * i + mono[i:]))
            elif mono[i] == 1:
                hit = gen_images[self.pres.gens[i]]
            else:
                left = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
                hit = times(self._extended(memo, gen_images, times, left),
                            gen_images[self.pres.gens[i]])
            memo[mono] = hit
        return hit

    def _pair_product_raw(self, ma, mb):
        return self._apply([(i, e) for i, e in enumerate(ma) if e], {mb: 1})

    def _diagonal_commutant(self, g, space):
        """The monomials m of space with g*m = m*g, by the lemma of
        center_matrix, when its premises hold, else None.  lambda_m = 1 is
        compared as prod of a_h = prod of b_h over the letters h of m, for
        g*h = a_h (h*g) and h*g = b_h (h*g), so nothing is inverted; and
        on m with g's own exponent set to 0, as lambda_g = 1."""
        gi = g.index(1)
        if not self.pres.power_rhs[gi]:
            return None
        pairs = {}
        for name, h in self.generator_monos.items():
            left, right = self.pair_product(g, h), self.pair_product(h, g)
            if len(left) != 1 or left.keys() != right.keys():
                return None
            pairs[name] = (*left.values(), *right.values())
        ratio = self.extend(pairs, (1, 1),
                            lambda x, y: (x[0] * y[0], x[1] * y[1]))
        return [m for m in space
                if (lam := ratio(m[:gi] + (0,) + m[gi + 1:]))[0] == lam[1]]

    def mirror_premise(self):
        """Whether sigma: g_i -> g_(k-1-i), for k generators, extends to an
        anti-automorphism of A, checked once: bounds and power_rhs read
        the same reversed, so m[::-1] is a normal monomial for each normal
        m, and every residual of relation_residuals vanishes with f(w) the
        column of w[::-1] and a acting on y as y*f(a).  As sigma reverses
        products, the residual of a*b = sum c*w is sigma(b)*sigma(a) -
        sum c*sigma(w): sigma, extended to the free algebra, maps each
        defining relation to one that holds in A, and A (associative) is
        the presented algebra, so sigma is an anti-automorphism of A.  It
        reverses the letters of g_0^e_0 ... g_(k-1)^e_(k-1) to the normal
        monomial m[::-1], with coefficient 1: a permutation of the basis.
        It holds on uqsl2 (F <-> E) and d_a_mu (z <-> x), not on taft."""
        if self._mirror is None:
            pres, index, product = self.pres, self.index, self.mult_map()

            def f(w):
                return {index[w[::-1]]: 1}

            def act(a, y):
                return _on_pairs(product, self.dim, y, f(a))
            self._mirror = (pres.bounds == pres.bounds[::-1]
                            and pres.power_rhs == pres.power_rhs[::-1]
                            and not any(r for *_, r in
                                        self.relation_residuals(f, act)))
        return self._mirror

    def _right_products(self, g):
        """m |-> m * g on basis monomials m, memoised in a dict that lives
        as long as the returned map: with h the leading letter of m = h*m',
        m * g = h * (m' * g), one generator action per term of m' * g."""
        # a method, not a closure that calls itself (see extend)
        return functools.partial(self._right_product, {self.unit_mono: {g: 1}})

    def _right_product(self, memo, mono):
        hit = memo.get(mono)
        if hit is None:
            h = next(j for j, e in enumerate(mono) if e)
            rest = mono[:h] + (mono[h] - 1,) + mono[h + 1:]
            hit = memo[mono] = self._apply(
                [(h, 1)], self._right_product(memo, rest))
        return hit

    def _apply(self, runs, terms):
        """The letters of runs applied right to left to terms, a dict
        {normal monomial: coefficient}, by _act; a diagonal generator's run
        in one step.  The lemma: let g^bound = r != 0 and g*h = s_h h*g for
        each generator h before g (_diagonal_factors).  Then g*m moves g
        past m's letters before it, s_h for each, and raises g's exponent,
        with r when it wraps to 0; those letters stay, so g^e*m =
        (prod_h s_h^(m_h e)) r^q m', (q, t) = divmod(m_g + e, bound), m'
        with g's exponent t.  The scale is memoised on (g, e, m[:g])."""
        scales = self._diagonal_scales
        for gi, e in reversed(runs):
            if e and (factors := self._diagonal[gi]) is not None:
                bound, rhs = self.pres.bounds[gi], self.pres.power_rhs[gi]
                out = {}
                for m, c in terms.items():
                    key = gi, e, m[:gi]
                    s = scales.get(key)
                    if s is None:
                        s = scales[key] = functools.reduce(operator.mul, (
                            f ** (k * e) for f, k in zip(factors, m) if k), 1)
                    q, t = divmod(m[gi] + e, bound)
                    out[m[:gi] + (t,) + m[gi + 1:]] = (
                        c * s * rhs ** q if q else c * s)
                terms = out
                continue
            for _ in range(e):
                out = {}
                for m, c in terms.items():
                    for mo, s in self._act(gi, m).items():
                        v = out.get(mo)
                        out[mo] = c * s if v is None else v + c * s
                terms = out
        # zeros are dropped once, here: a sum that passed through zero
        # keeps the type of its terms
        return {m: c for m, c in terms.items() if c}

    def _act(self, gi, mono):
        """g * mono, g = gens[gi], as {normal monomial: coefficient},
        memoised.  With h the leading letter of mono: before h (or on 1) g
        is prepended, on h the exponent rises (power_rhs at the bound), and
        after h one straightening step g*h = sum s*w leaves w's letters to
        act on h^(e-1) * rest, which is normal."""
        key = gi, mono
        hit = self._actions.get(key)
        if hit is None:
            pres = self.pres
            h = next((j for j, e in enumerate(mono) if e), gi)
            if gi <= h:
                e, rhs = mono[gi] + 1, pres.power_rhs[gi]
                if e < pres.bounds[gi]:
                    hit = {mono[:gi] + (e,) + mono[gi + 1:]: 1}
                else:
                    hit = {mono[:gi] + (0,) + mono[gi + 1:]: rhs} if rhs else {}
            else:
                rule = pres.straighten.get((gi, h))
                if rule is None:
                    raise ValueError(
                        "no straightening rule for %s*%s"
                        % (pres.gens[gi], pres.gens[h]))
                rest = mono[:h] + (mono[h] - 1,) + mono[h + 1:]
                hit = {}
                for s, word in rule:
                    for m, c in self._apply(word, {rest: s}).items():
                        v = hit.get(m)
                        hit[m] = c if v is None else v + c
            self._actions[key] = hit
        return hit


def _monomial_label(gens, basis, j):
    """The label of basis monomial j, such as F^2*K*E, or 1."""
    return "*".join(name if e == 1 else "%s^%d" % (name, e)
                    for name, e in zip(gens, basis[j]) if e) or "1"


def _on_pairs(leaf, n, x, y):
    """leaf applied to x (x) y, for columns x and y of a space of dimension
    n: the product of an algebra given as a diagram on pairs."""
    pairs = {}
    _kron_into(pairs, x, y, n)
    return leaf.apply(pairs)


def _residual(a, b, rhs, f, act):
    """act(a, f(b)) - sum c*f(w) over rhs = ((c, w), ...), as a sparse dict."""
    out = dict(act(a, f(b)))
    for c, w in rhs:
        for k, v in f(w).items():
            _add_into(out, k, -c * v)
    return {k: v for k, v in out.items() if v}


def _run(k, i, e):
    """The normal monomial g_i^e, a run of one of k generators."""
    return (0,) * i + (e,) + (0,) * (k - 1 - i)


def _normal_monomial(pres, word):
    """A rule word as a normal monomial, or ValueError."""
    mono, last = [0] * len(pres.gens), -1
    for gi, e in word:
        if not (last < gi < len(mono) and 0 <= e < pres.bounds[gi]):
            raise ValueError("rule word %r is not a normal monomial" % (word,))
        mono[gi], last = e, gi
    return tuple(mono)


def _diagonal_factors(pres, i):
    """(s_h for h < i) when g = gens[i] is diagonal: g^bound is a nonzero
    scalar and each rule g*h, h < i, is one term s_h h*g, s_h != 0."""
    rules = [pres.straighten.get((i, h), ()) for h in range(i)]
    if pres.power_rhs[i] and all(
            len(r) == 1 and r[0][0] and tuple(r[0][1]) == ((h, 1), (i, 1))
            for h, r in enumerate(rules)):
        return tuple(r[0][0] for r in rules)
    return None


class StructureConstantAlgebra(FiniteDimAlgebra):
    """Algebra given by an explicit basis and a pairwise product rule."""

    def __init__(self, signature, N, basis, degrees, labels,
                 unit_mono, pair_rule, generator_monos):
        self._init_common(signature, N, basis, degrees, labels, unit_mono,
                          generator_monos)
        self._pair_rule = pair_rule

    def _pair_product_raw(self, ma, mb):
        return self._pair_rule(ma, mb)


# ---------------------------------------------------------------------------
# the named algebras
# ---------------------------------------------------------------------------


def _require_prime(p):
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))


def taft(p):
    """The p^2-dimensional ordinary Hopf algebra with g^p=1, x^p=0, gx = xi*xg."""
    _require_prime(p)
    xi = root_of_unity(p)
    g, x = 0, 1
    pres = Presentation(
        N=1, gens=("g", "x"), degrees=(0, 0),
        bounds=(p, p), power_rhs=(1, 0),
        straighten={(x, g): ((xi ** -1, ((g, 1), (x, 1))),)},
    )
    A = PresentedAlgebra(pres, signature=("taft", p))
    A.p, A.xi = p, xi
    return A


def nilpotent_line(p, name="x", degree=1):
    """k[name]/name^p with the generator in the given degree of Z/p."""
    pres = Presentation(
        N=p, gens=(name,), degrees=(degree % p,),
        bounds=(p,), power_rhs=(0,),
        straighten={},
    )
    A = PresentedAlgebra(pres, signature=("nilpotent_line", p, name, degree % p))
    A.p = p
    return A


def anyonic_line(p):
    """k[x]/x^p with x of degree 1 — a Hopf algebra in (Vec_{Z/p}, xi^{ij})."""
    _require_prime(p)
    A = nilpotent_line(p, "x", 1)
    A.signature = ("anyonic_line", p)
    A.xi = root_of_unity(p)
    return A


def dual_anyonic(p):
    """The dual of the anyonic line on the basis e_i, deg(e_i) = -i,
    with e_i * e_j = xi^{-ij} (i+j choose i)_xi e_{i+j} (zero once i+j >= p)."""
    _require_prime(p)
    xi = root_of_unity(p)
    basis = tuple(range(p))
    binomials = q_binomials(p - 1, xi)

    def rule(i, j):
        if i + j >= p:
            return {}
        return {i + j: root_of_unity(p, -i * j) * binomials[i + j][i]}

    A = StructureConstantAlgebra(
        signature=("dual_anyonic", p), N=p,
        basis=basis,
        degrees=tuple((-i) % p for i in basis),
        labels=tuple("e_%d" % i for i in basis),
        unit_mono=0,
        pair_rule=rule,
        generator_monos=(("e_1", 1),),
    )
    A.p, A.xi = p, xi
    return A


def d_a_mu(p, mu):
    """The p^3-dimensional algebra on z, g, x with z^p=0, g^p=1, x^p=0,
    gz = xi^{-1} zg, xg = xi^{-1} gx, xz = xi zx + xi^{1-mu} g^{p-2} - 1."""
    _require_prime(p)
    mu %= p
    xi = root_of_unity(p)
    z, g, x = 0, 1, 2
    xz_rule = [(xi, ((z, 1), (x, 1)))]
    gword = ((g, p - 2),) if p > 2 else ()
    xz_rule.append((root_of_unity(p, 1 - mu), gword))
    xz_rule.append((-1, ()))
    pres = Presentation(
        N=p, gens=("z", "g", "x"), degrees=(p - 1, 0, 1),
        bounds=(p, p, p), power_rhs=(0, 1, 0),
        straighten={
            (g, z): ((xi ** -1, ((z, 1), (g, 1))),),
            (x, g): ((xi ** -1, ((g, 1), (x, 1))),),
            (x, z): tuple(xz_rule),
        },
    )
    A = PresentedAlgebra(pres, signature=("d_a_mu", p, mu))
    A.p, A.mu, A.xi = p, mu, xi
    return A


def uqsl2(p):
    """The small quantum group on F, K, E at q = xi^m, m = (p-1)/2:
    F^p=0, K^p=1, E^p=0, KF = q^{-2} FK, EK = q^{-2} KE, EF = FE + K - K^{p-1}."""
    _require_prime(p)
    if p == 2:
        raise ValueError("needs an odd prime: q = xi^m with m = (p-1)/2")
    xi = root_of_unity(p)
    m = (p - 1) // 2
    q = xi ** m
    F, K, E = 0, 1, 2
    pres = Presentation(
        N=p, gens=("F", "K", "E"), degrees=(p - 1, 0, 1),
        bounds=(p, p, p), power_rhs=(0, 1, 0),
        straighten={
            (K, F): ((q ** -2, ((F, 1), (K, 1))),),
            (E, K): ((q ** -2, ((K, 1), (E, 1))),),
            (E, F): (
                (1, ((F, 1), (E, 1))),
                (1, ((K, 1),)),
                (-1, ((K, p - 1),)),
            ),
        },
    )
    A = PresentedAlgebra(pres, signature=("uqsl2", p))
    A.p, A.xi, A.m, A.q = p, xi, m, q
    return A


# ---------------------------------------------------------------------------
# morphism verification
# ---------------------------------------------------------------------------


def _induced(source, target, images):
    """The extension of the images to source's normal monomials, each
    through the product with 1, as every longer monomial's, so all carry
    the scalar types of target's product (a pair rule may promote them)."""
    one = target.unit()
    return source.extend({name: one * images[name] for name in source.pres.gens},
                         one, operator.mul)


def _induced_matrix(source, target, image):
    """The matrix of an extension image (_induced) on normal bases."""
    return from_cols(target.dim, [image(m).as_column() for m in source.basis])


def induced_linear_map(source, target, images):
    """Matrix of the linear extension of the images on normal bases."""
    return _induced_matrix(source, target, _induced(source, target, images))


def algebra_morphism(source, target, images):
    """Verify a generator-image assignment defines an algebra map; report per relation.

    source must be a PresentedAlgebra; images maps each generator name to an
    element of target.  Bijectivity is certified via the induced linear map
    on normal bases.
    """
    return _morphism(source, target, images)[0]


def _morphism(source, target, images):
    """algebra_morphism's checks and the induced linear map, both from one
    extension of the images."""
    image = _induced(source, target, images)
    checks = [
        check(name, not r, "", [] if not r else [{
            "relation": rel,
            "residual": target.element_to_json(AlgebraElement(target, r))}])
        for name, rel, r in source.relation_residuals(
            lambda m: image(m).terms,
            lambda a, y: (image(a) * AlgebraElement(target, y)).terms)]
    mat = _induced_matrix(source, target, image)
    rank = mat.rank()
    ok = source.dim == target.dim and rank == target.dim
    checks.append(check(
        "bijective", ok,
        "induced linear map rank %d, source dim %d, target dim %d"
        % (rank, source.dim, target.dim),
        [] if ok else [{"rank": rank, "source_dim": source.dim,
                        "target_dim": target.dim}]))
    return checks, mat
