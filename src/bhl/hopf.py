"""Hopf algebras internal to the braided category of Z/N-graded vector spaces.

The braided tensor square A (x)^tau A of a graded algebra carries the product

    (a (x) b) * (c (x) d)  =  chi(deg b, deg c) * (ac (x) bd),

and a Hopf structure on A is a coproduct Delta: A -> A (x)^tau A, a counit
eps: A -> k and an antipode S: A -> A.  Here the structure maps are stored
as exact matrices (GradedMap), built from their values on generators:
Delta and eps extend multiplicatively, S anti-multiplicatively with the
braiding scalar,

    S(ab) = chi(deg a, deg b) * S(b) * S(a).

Whether the extensions actually define a bialgebra is *not* assumed; it is
checked by verify_bialgebra, one basis input at a time, as the identity

    Delta . m  =  (m (x) m) . (id (x) tau (x) id) . (Delta (x) Delta),

together with unit/counit compatibility, coassociativity and the counit
law.  verify_antipode checks the antipode axiom and the (anti)morphism
properties, and reports the square of the antipode.  Both sides of each
identity are lazy diagrams (graded.Diagram): a basis vector of the source
is pushed through them, so no Kronecker product is ever formed, and the
first input where the sides differ is the witness.  Building HopfData goes
through the dimension guard (BHL_DIM_GUARD, default 350), which admits the
Taft algebra up to p = 17 (dimension 289).

The end of the module holds AlgebraModule, a module over a presented
algebra given by the actions of its generators.  ayd.to_uqsl2 views an
AYD module as such a module over uqsl2(p), and the ribbon identity reads
the action of the ribbon element off it.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import (
    AlgebraElement,
    StructureConstantAlgebra,
    anyonic_line,
    check_guard,
    taft,
)
from .exactmat import Mat
from .graded import (
    Bicharacter,
    GradedMap,
    GradedSpace,
    braiding,
    diagram,
    first_difference,
    tensor,
    tensor_diagram,
)
from .report import check, map_check
from .scalars import q_binomial


# ---------------------------------------------------------------------------
# braided tensor square
# ---------------------------------------------------------------------------


def braided_tensor_algebra(A, B, chi, inverse=False):
    """The algebra A (x)^tau B on pair monomials.

    Crossing scalar chi(deg b, deg c); with inverse=True the inverse
    braiding is used instead (the variant A (x)^{tau^-1} B).
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
    cross = chi.chi_inv if inverse else chi.chi

    def rule(left, right):
        ma, mb = left
        mc, md = right
        s = cross(B.mono_degree(mb), A.mono_degree(mc))
        out = {}
        for m1, c1 in A.pair_product(ma, mc).items():
            for m2, c2 in B.pair_product(mb, md).items():
                v = out.get((m1, m2), 0) + s * c1 * c2
                if v:
                    out[(m1, m2)] = v
                else:
                    out.pop((m1, m2), None)
        return out

    gens = [
        ("%s(x)1" % n, (next(iter(el.terms)), B.unit_mono))
        for n, el in A.generators()
    ] + [
        ("1(x)%s" % n, (A.unit_mono, next(iter(el.terms))))
        for n, el in B.generators()
    ]
    tag = "inv" if inverse else "std"
    return StructureConstantAlgebra(
        signature=("braided_tensor", A.signature, B.signature, chi.N, chi.c, tag),
        N=A.N,
        scalar_order=A.scalar_order,
        basis=basis,
        degrees=degrees,
        labels=labels,
        unit_mono=(A.unit_mono, B.unit_mono),
        pair_rule=rule,
        generator_monos=gens,
    )


def tensor_pair(TA, a, b):
    """The element a (x) b of a braided tensor algebra TA."""
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            terms[(ma, mb)] = ca * cb
    return TA.element(terms)


# ---------------------------------------------------------------------------
# Hopf structure data
# ---------------------------------------------------------------------------


class HopfData:
    """An algebra together with candidate Hopf structure maps as matrices.

    Fields: algebra, chi, tensor_algebra (the braided square), space, and
    the five structure maps m: H(x)H -> H, u: I -> H, Delta: H -> H(x)H,
    eps: H -> I, S: H -> H, all shift-0 GradedMaps.  The generator images
    the maps were extended from are kept in coproducts / counits /
    antipodes (keyed by generator name).
    """

    def __init__(self, algebra, chi, tensor_algebra, coproducts, counits,
                 antipodes):
        check_guard(algebra.dim, "Hopf structure")
        self.algebra = algebra
        self.chi = chi
        self.tensor_algebra = tensor_algebra
        self.coproducts = dict(coproducts)
        self.counits = dict(counits)
        self.antipodes = dict(antipodes)
        self._delta_memo = {}
        self._antipode_memo = {}
        self._eps_memo = {}
        self.space = algebra.graded_space()
        self.square = tensor(self.space, self.space)
        self.m = self._mult_map()
        self.u = GradedMap(
            GradedSpace.unit(algebra.N),
            self.space,
            Mat(algebra.dim, 1, {(algebra.index[algebra.unit_mono], 0): 1}),
        )
        self.Delta = self._delta_map()
        self.eps = self._eps_map()
        self.S = self._antipode_map()

    # -- element-level structure maps --------------------------------------

    def coproduct(self, a):
        """Delta(a) as an element of the braided tensor square."""
        out = self.tensor_algebra.zero()
        for mono, c in a.terms.items():
            out = out + c * self._delta_mono(mono)
        return out

    def antipode(self, a):
        out = self.algebra.zero()
        for mono, c in a.terms.items():
            out = out + c * self._antipode_mono(mono)
        return out

    def _gen_order(self):
        return [(name, next(iter(el.terms))) for name, el in
                self.algebra.generators()]

    def _delta_mono(self, mono):
        hit = self._delta_memo.get(mono)
        if hit is None:
            hit = self.tensor_algebra.unit()
            for (name, gmono), e in zip(self._gen_order(), mono):
                if e:
                    hit = hit * self.coproducts[name] ** e
            self._delta_memo[mono] = hit
        return hit

    def _eps_mono(self, mono):
        hit = self._eps_memo.get(mono)
        if hit is None:
            hit = Fraction(1)
            for (name, gmono), e in zip(self._gen_order(), mono):
                if e:
                    hit = hit * self.counits[name] ** e
            self._eps_memo[mono] = hit
        return hit

    def _antipode_mono(self, mono):
        hit = self._antipode_memo.get(mono)
        if hit is not None:
            return hit
        if mono == self.algebra.unit_mono:
            hit = self.algebra.unit()
        else:
            # peel the last letter: mono = rest * g, then
            # S(mono) = chi(deg rest, deg g) S(g) S(rest)
            last = max(i for i, e in enumerate(mono) if e)
            rest = tuple(
                e - 1 if i == last else e for i, e in enumerate(mono)
            )
            name = self.algebra.pres.gens[last]
            dg = self.algebra.pres.degrees[last] % self.algebra.N
            drest = (self.algebra.mono_degree(mono) - dg) % self.algebra.N
            s = self.chi.chi(drest, dg)
            hit = s * (self.antipodes[name] * self._antipode_mono(rest))
        self._antipode_memo[mono] = hit
        return hit

    # -- matrices -----------------------------------------------------------

    def _mult_map(self):
        A = self.algebra
        data = {}
        for ja, ma in enumerate(A.basis):
            for jb, mb in enumerate(A.basis):
                col = ja * A.dim + jb
                for m, s in A.pair_product(ma, mb).items():
                    data[(A.index[m], col)] = s
        return GradedMap(self.square, self.space, Mat(A.dim, A.dim ** 2, data))

    def _delta_map(self):
        A = self.algebra
        TA = self.tensor_algebra
        data = {}
        for j, mono in enumerate(A.basis):
            for pair, s in self._delta_mono(mono).terms.items():
                data[(TA.index[pair], j)] = s
        return GradedMap(self.space, self.square, Mat(A.dim ** 2, A.dim, data))

    def _eps_map(self):
        A = self.algebra
        data = {}
        for j, mono in enumerate(A.basis):
            v = self._eps_mono(mono)
            if v:
                data[(0, j)] = v
        return GradedMap(
            self.space, GradedSpace.unit(A.N), Mat(1, A.dim, data)
        )

    def _antipode_map(self):
        A = self.algebra
        data = {}
        for j, mono in enumerate(A.basis):
            for m, s in self._antipode_mono(mono).terms.items():
                data[(A.index[m], j)] = s
        return GradedMap(self.space, self.space, Mat(A.dim, A.dim, data))


def build_hopf(algebra, chi, coproducts, counits, antipodes):
    """Assemble HopfData from generator images.

    coproducts: name -> element of braided_tensor_algebra(A, A, chi)
    (anything accepted by tensor_pair works); counits: name -> scalar;
    antipodes: name -> element of A.
    """
    TA = braided_tensor_algebra(algebra, algebra, chi)
    fixed = {}
    for name, img in coproducts.items():
        if isinstance(img, AlgebraElement) and img.algebra.signature == TA.signature:
            fixed[name] = TA.element(img.terms)
        else:
            raise ValueError(
                "coproduct image for %r must live in the braided tensor square"
                % name
            )
    return HopfData(algebra, chi, TA, fixed, counits, antipodes)


def anyonic_hopf(p, c=1):
    """The anyonic line as a Hopf algebra in (Vec_{Z/p}, xi^{c*ij}).

    x is primitive: Delta(x) = x(x)1 + 1(x)x, eps(x) = 0, S(x) = -x.
    With the standard bicharacter (c=1) this is a braided Hopf algebra;
    c=0 (the unbraided square) violates multiplicativity of Delta as soon
    as p > 2 and serves as the negative control.
    """
    A = anyonic_line(p)
    chi = Bicharacter(p, c)
    TA = braided_tensor_algebra(A, A, chi)
    x = A.gen("x")
    one = A.unit()
    dx = tensor_pair(TA, x, one) + tensor_pair(TA, one, x)
    return HopfData(A, chi, TA, {"x": dx}, {"x": 0}, {"x": -x})


def taft_hopf(p):
    """The Taft algebra as an ordinary Hopf algebra (trivial grading).

    Delta(g) = g(x)g, Delta(x) = x(x)1 + g(x)x, eps(g) = 1, eps(x) = 0,
    S(g) = g^{p-1}, S(x) = -g^{p-1} x.
    """
    A = taft(p)
    chi = Bicharacter(1, 0)
    TA = braided_tensor_algebra(A, A, chi)
    g, x = A.gen("g"), A.gen("x")
    one = A.unit()
    cop = {
        "g": tensor_pair(TA, g, g),
        "x": tensor_pair(TA, x, one) + tensor_pair(TA, g, x),
    }
    cou = {"g": 1, "x": 0}
    ant = {"g": g ** (p - 1), "x": -(g ** (p - 1) * x)}
    return HopfData(A, chi, TA, cop, cou, ant)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def verify_bialgebra(H, chi=None):
    """Check the braided bialgebra axioms for HopfData, column by column.

    Both sides of each identity are lazy diagrams of the structure maps
    (graded.Diagram), compared one basis input at a time, so no Kronecker
    product is formed; the size of H is bounded by the dimension guard
    when H is built.
    """
    chi = H.chi if chi is None else chi
    V = H.space
    idv = diagram(GradedMap.identity(V))
    tau = braiding(V, V, chi)
    m, u, Delta, eps = (diagram(f) for f in (H.m, H.u, H.Delta, H.eps))
    pair_labels = ["%s , %s" % (a, b) for a in V.labels for b in V.labels]
    checks = []

    lhs = Delta @ m
    rhs = (
        tensor_diagram(m, m)
        @ tensor_diagram(idv, tau, idv)
        @ tensor_diagram(Delta, Delta)
    )
    checks.append(
        map_check("coproduct_is_multiplicative", lhs, rhs, pair_labels)
    )
    checks.append(
        map_check(
            "coproduct_of_unit", Delta @ u, tensor_diagram(u, u), ["1"]
        )
    )
    checks.append(
        map_check(
            "counit_is_multiplicative",
            eps @ m,
            tensor_diagram(eps, eps),
            pair_labels,
        )
    )
    checks.append(
        map_check(
            "counit_of_unit",
            eps @ u,
            GradedMap.identity(GradedSpace.unit(V.N)),
            ["1"],
        )
    )
    checks.append(
        map_check(
            "coassociativity",
            tensor_diagram(Delta, idv) @ Delta,
            tensor_diagram(idv, Delta) @ Delta,
            list(V.labels),
        )
    )
    counit_ok = (
        first_difference(tensor_diagram(eps, idv) @ Delta, idv) is None
        and first_difference(tensor_diagram(idv, eps) @ Delta, idv) is None
    )
    checks.append(
        check(
            "counit_law",
            counit_ok,
            details="(eps(x)id).Delta = id = (id(x)eps).Delta",
        )
    )
    return checks


def verify_antipode(H):
    """Check the antipode axiom, (anti)morphism properties and report S^2.

    The identities are compared column by column, as in verify_bialgebra.
    """
    V = H.space
    idv = diagram(GradedMap.identity(V))
    tau = diagram(braiding(V, V, H.chi))
    m, Delta, S = (diagram(f) for f in (H.m, H.Delta, H.S))
    ue = diagram(H.u) @ H.eps
    rank = H.S.rank()
    checks = [
        map_check(
            "antipode_left",
            m @ tensor_diagram(S, idv) @ Delta,
            ue,
            list(V.labels),
        ),
        map_check(
            "antipode_right",
            m @ tensor_diagram(idv, S) @ Delta,
            ue,
            list(V.labels),
        ),
        map_check(
            "antipode_is_antimultiplicative",
            S @ m,
            m @ tensor_diagram(S, S) @ tau,
            ["%s , %s" % (a, b) for a in V.labels for b in V.labels],
        ),
        map_check(
            "antipode_is_anticomultiplicative",
            Delta @ S,
            tau @ tensor_diagram(S, S) @ Delta,
            list(V.labels),
        ),
        check(
            "antipode_invertible",
            rank == V.dim,
            details="rank %d of %d" % (rank, V.dim),
        ),
    ]
    s2 = H.S @ H.S
    images = []
    for name, el in H.algebra.generators():
        img = H.algebra.element_from_column(
            s2.mat.col_dict(H.algebra.index[next(iter(el.terms))])
        )
        images.append({"generator": name, "square_antipode_image": repr(img)})
    checks.append(
        check(
            "antipode_square_recorded",
            True,
            details="S^2 on generators",
            witnesses=images,
        )
    )
    return checks


def coproduct_power(H, n):
    """The closed form Delta(x^n) = sum_i binom(n,i)_xi x^i (x) x^{n-i}.

    Only meaningful for the anyonic line; cross-checked elsewhere against
    the n-fold product of Delta(x) in the braided tensor square.
    """
    A = H.algebra
    xi = H.chi.chi(1, 1)
    terms = {}
    for i in range(n + 1):
        terms[((i,), (n - i,))] = q_binomial(n, i, xi)
    return H.tensor_algebra.element(terms)


def verify_coproduct_powers(H):
    """Check the closed form against iterated braided multiplication."""
    p = H.algebra.p
    dx = H.coproducts["x"]
    checks = []
    acc = H.tensor_algebra.unit()
    for n in range(p):
        formula = coproduct_power(H, n)
        ok = acc == formula
        also = H.coproduct(H.algebra.element({(n,): 1})) == formula
        checks.append(
            check(
                "coproduct_power_%d" % n,
                ok and also,
                details="Delta(x)^%d vs Gaussian binomial sum" % n,
                witnesses=None if (ok and also) else [
                    {"power": n, "product": repr(acc), "formula": repr(formula)}
                ],
            )
        )
        acc = acc * dx
    return checks


# ---------------------------------------------------------------------------
# modules given by generator actions
# ---------------------------------------------------------------------------


class AlgebraModule:
    """A finite-dimensional module over a presented algebra.

    Stored as one GradedMap per generator (shift = generator degree); the
    action of a monomial is the composite in the same order, so that
    (ab).v = a.(b.v).  Whether the generator actions satisfy the defining
    relations is not checked here.
    """

    def __init__(self, algebra, space, ops):
        if space.N != algebra.N:
            raise ValueError("module grading group differs from the algebra's")
        self.algebra = algebra
        self.space = space
        self.ops = dict(ops)
        for name, el in algebra.generators():
            if name not in self.ops:
                raise ValueError("missing action of generator %r" % name)
            op = self.ops[name]
            if op.source != space or op.target != space:
                raise ValueError("action of %r is not an endomorphism" % name)
            if op.mat.data and op.shift != el.degree() % algebra.N:
                raise ValueError(
                    "action of %r has shift %d, expected %d"
                    % (name, op.shift, el.degree() % algebra.N)
                )
        self._mono_cache = {}
        self._powers = {name: [None, op] for name, op in self.ops.items()}

    @property
    def dim(self):
        return self.space.dim

    def _gen_power(self, name, e):
        """ops[name] ** e, each power composed from the one below it."""
        powers = self._powers[name]
        while len(powers) <= e:
            powers.append(powers[-1] @ powers[1])
        return powers[e]

    def act_mono(self, mono):
        """Action of a basis monomial (exponent tuple) as a GradedMap."""
        hit = self._mono_cache.get(mono)
        if hit is None:
            for name, e in zip(self.algebra.pres.gens, mono):
                if e:
                    op = self._gen_power(name, e)
                    hit = op if hit is None else hit @ op
            if hit is None:
                hit = GradedMap.identity(self.space)
            self._mono_cache[mono] = hit
        return hit

    def act_matrix(self, element):
        """Action of an arbitrary element, as a plain matrix."""
        total = Mat.zeros(self.dim, self.dim)
        for mono, c in element.terms.items():
            total = total + self.act_mono(mono).mat.scale(c)
        return total

    def act(self, element):
        """Action of a homogeneous element, as a GradedMap."""
        return GradedMap(
            self.space, self.space, self.act_matrix(element),
            element.degree() % self.algebra.N,
        )
