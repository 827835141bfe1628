"""Independent routes the tests check bhl against.

Nothing in bhl needs these, so they live with the tests: modules over a
presented algebra given by generator actions (AlgebraModule), with the
action of an element grouped around a diagonal generator, and their
defining relations; the regular module of a presented algebra, an
AydModule read as a d_a_mu module or, by to_uqsl2, as a uqsl2 module, and
the ribbon identity as a matrix identity on it, rather than as an identity
of elements of d_a_mu; psi(v_0) by substitution for each mu, rather
than by twisting that of mu = 0, and the element w behind varsigma as a
product in d_a_mu, rather than in closed form, and the element identity
as w in closed form against the twist of psi(v_0), term by term
(ribbon_identity_by_terms), rather than on the rank-one table; the
trivial AydModule (the control for verify_ayd,
varsigma_H and to_uqsl2), the braided-module map E, the inverse of a graded map by elimination, a
printer for DSL scripts, kernel dimensions of powers of 1 - a acting
on an algebra, the center as kernels of the matrices L_g - R_g on all
of A, one generator at a time in presentation order, rather than of
v |-> g*v - v*g on the monomials that the diagonal generators leave,
all other generators in one matrix, and also by the kernel of
v |-> g*v - v*g on the span the earlier generators left, one generator
at a time with no generator skipped as diagonal, and the regular
AydModule by conjugating left multiplication into the g-eigenbasis; the
structure maps of a Hopf structure and the induced linear map of an
algebra morphism, each built from generator powers rather than by
PresentedAlgebra.extend, with Delta multiplied in the braided tensor
algebra on pair monomials (elements a (x) b by tensor_pair) rather than
through the square's diagram leaf, and that product as the composite
(m (x) m) . (id (x) tau (x) id) (square_by_composite), rather than one
leaf read from the product cache; normal forms by
rewriting the first violation of the whole word, rather than by memoised
generator actions, and generator actions one letter at a time
(apply_by_letters), rather than a diagonal generator's run in one step;
the
product of an algebra with one such normal form per pair of basis
elements, with the associativity and Hopf laws checked on every pair
or triple of basis elements rather than on generator rows, and the
generation and right-unit premises of a presented algebra by sweeps
(row_premises_by_sweep) rather than by its construction; the columns of
a diagram leaf as a matrix (leaf_map);
Gauss-Jordan elimination that scans every row for
each pivot and target and clears each pivot column above its pivot too,
rather than an echelon form through a column index and a
back-substitution; S^2 on the generators read from the matrix S @ S,
rather than by applying the
antipode twice; and the stable witnesses of the twisted lines by scanning
every y for each pair (s, t), and the eta invariant of each arrow by
multiplying omega(y, y) with the value of a validated anti-twist, rather
than by exponent arithmetic mod N; the eta invariant on all N^2 arrows
(eta_kernel), whose kernel bhl lists directly as the stable witnesses;
right multiplication b |-> b*a as a matrix, which bhl never builds; and the action of an algebra element as a running sum of scaled
matrices, rather than accumulated into one dict; primality by trial
division, rather than by Miller-Rabin; the diagonal of varsigma on the
regular module summed in Q(zeta_p) over the lowering paths of x, one
table per p for every mu (series_tables), and the two diagonals by the
path recursion for one mu, rather than read from the closed form
xi^{-t(t+mu)} that bhl proves, and the kernel chain of 1 - varsigma read
off them at each listed position of each string (stable_chain_by_strings),
rather than by the counting lemma, counted from xi^{-t(t+mu)} by one
running count per line (stable_chain_by_line_counts), rather than in
closed form, and as the nullities of sparse powers of the whole
1 - varsigma (kernel_chain_by_powers), rather than off the diagonal
alone.  run_script runs the table scripts under scripts/, themselves
independent routes.  The
braiding is an explicit matrix on the listed bases of V (x) W and
W (x) V (braiding_matrix), rather than a diagram leaf that computes each
column when it is read.  Readers of results live here too, as bhl
never calls them: the normal form of a word (normal_form), the
dimension of each degree of a graded space, whether a graded map is
invertible, a record with fields replaced (replace), one q-factorial
(q_factorial), one Gaussian binomial (q_binomial), omega of a
bicharacter, a graded space or map as JSON and the values of a packet.
S^2 is also taken from the generator images by peeling the last letter
(antipode_square_by_peeling), rather than by S's diagram leaf.  The
q-combinatorics bhl.scalars computes by recurrences are here as they
were first computed: (n)_xi as
a sum of powers xi^i, (n)_xi! as a product of those, [n]_q! as a
product of balanced q-integers each summed afresh, and Gaussian
binomials as a quotient of three factorials (q_binomial_by_factorials),
which divides by zero once n >= ord xi; the powers of a scalar by
square-and-multiply (power_by_squaring); and the tokenizer of bhl.scalars with two matches per token,
one for the separators and one for the token (tokenize_by_two_matches).
Products in Q(zeta_N) are here as bhl took them before it reduced prime
orders by their top coordinate: convolved and divided by Phi_N at every
order (mul_by_division, reduce_by_division), and inverses with the
conjugates multiplied in one at a time (inverse_by_conjugates), rather
than by an addition chain over the Galois group; and the degree and label
of each normal monomial of a presented algebra, and of each column of the
regular AYD module, one at a time (presented_degrees_and_labels,
regular_degrees_and_labels), rather than by one sweep per generator and
named when read, and the monomials a diagonal generator commutes with by
comparing both products (commutant_by_sweep).  The scalar route of the
ribbon identity evaluates K u_K at each degree by summing its terms
(prefactor_route_by_sums), rather than by one lookup in the transform of
u_K, which values_by_sums takes afresh.
"""

import itertools
import math
import operator
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import bhl
from bhl.algebras import d_a_mu, uqsl2
from bhl.ayd import (AydModule, _regular_weights, _series_coefficients,
                     ribbon_prefactor, varsigma_H)
from bhl.dsl import Assertion, GenDecl, Let, ObjDecl, mor_text, obj_text
from bhl.exactmat import Mat, _inv_scalar, from_cols
from bhl.graded import (
    AntiTwist,
    Bicharacter,
    GradedMap,
    GradedSpace,
    LazyLabels,
    diagram,
    first_difference,
    tensor,
    tensor_diagram,
    word_degrees,
)
from bhl.hopf import braided_tensor_algebra, verify_antipode, verify_bialgebra
from bhl.report import FAIL, check, map_check
from bhl.scalars import (Cyclotomic, OrderMismatchError, ParseError,
                         balanced_q_int, cyclotomic_polynomial, format_scalar,
                         power, q_binomials, q_factorials, root_of_unity)

SCRIPTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "scripts"


class AlgebraModule:
    """A finite-dimensional module over a presented algebra.

    Stored as one GradedMap per generator (shift = generator degree); the
    action of a monomial is the composite in the same order, so that
    (ab).v = a.(b.v), built by PresentedAlgebra.extend: one composition
    per split at the last run, each monomial's action memoised.  Whether
    the generator actions satisfy the defining relations is not checked
    here.
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
        # the action of a basis monomial (exponent tuple), as a GradedMap
        self.act_mono = algebra.extend(
            self.ops, GradedMap.identity(space), operator.matmul)
        # (index, diagonal entries) of the first generator acting
        # diagonally, or None
        ops = [self.ops[name] for name in algebra.pres.gens]
        self._diagonal = next(
            ((i, [op.mat[r, r] for r in range(space.dim)])
             for i, op in enumerate(ops)
             if all(r == c for r, c in op.mat.data)), None)

    @property
    def dim(self):
        return self.space.dim

    def act_matrix(self, element):
        """Action of an arbitrary element, as a plain matrix, zeros dropped
        at the end.

        With g the first generator acting diagonally, by lambda_r on basis
        vector r, the terms c_k P g^k Q sharing the exponents P before g
        and Q after it act as rho(P) D rho(Q), D diagonal with entries
        sum_k c_k lambda_r^k, evaluated once per distinct lambda_r: one
        product per (P, Q) pair rather than one composite per monomial.
        Without such a g, c times each monomial's action is summed.  An
        element of another algebra raises ValueError."""
        if element.algebra.signature != self.algebra.signature:
            raise ValueError("element of %r acting on a module over %r"
                             % (element.algebra.signature,
                                self.algebra.signature))
        if self._diagonal is None:
            return self._act_by_sums(element)
        gi, lam = self._diagonal
        groups = {}
        for mono, c in element.terms.items():
            groups.setdefault((mono[:gi], mono[gi + 1:]), {})[mono[gi]] = c
        acc = {}
        for (pre, post), poly in groups.items():
            # sum_k c_k x^k by Horner's rule; at x = 0 only the k = 0 term
            # is left, c itself, with the type the monomial sum gives it
            top = max(poly)
            at = {}
            for x in dict.fromkeys(lam):
                if x:
                    d = poly[top]
                    for k in range(top - 1, -1, -1):
                        d = d * x + poly.get(k, 0)
                    at[x] = d
                else:
                    at[x] = poly.get(0, 0)
            after = self.act_mono((0,) * (gi + 1) + post).mat
            row_scaled = {}
            for (r, j), v in after.data.items():
                d = at[lam[r]]
                if d:
                    row_scaled[r, j] = d * v
            part = Mat(self.dim, self.dim, row_scaled)
            if any(pre):
                part = self.act_mono(pre + (0,) * (len(post) + 1)).mat * part
            for key, v in part.data.items():
                s = acc.get(key)
                acc[key] = v if s is None else s + v
        return Mat(self.dim, self.dim, acc)

    def _act_by_sums(self, element):
        """c times each monomial's action summed into one dict."""
        acc = {}
        for mono, c in element.terms.items():
            for key, v in self.act_mono(mono).mat.data.items():
                s = acc.get(key)
                acc[key] = c * v if s is None else s + c * v
        return Mat(self.dim, self.dim, acc)

    def act(self, element):
        """Action of a homogeneous element, as a GradedMap."""
        return GradedMap(
            self.space, self.space, self.act_matrix(element),
            element.degree() % self.algebra.N,
        )


def is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def to_uqsl2(M):
    """View an AydModule as a module over uqsl2(p), p odd.

    E = q^{1-mu} x, F = z g, K = q^{mu-1} g^{-1}, with g acting by xi^i on
    the degree-i component.
    """
    if M.p == 2:
        raise ValueError("needs an odd prime: q = xi^m with m = (p-1)/2")
    U = uqsl2(M.p)
    q = U.q
    xi = M.xi
    mu = M.mu
    gop = GradedMap.from_diagonal(M.space, lambda d: xi ** d)
    ops = {
        "E": M.xop.scale(q ** (1 - mu)),
        "F": M.zop @ gop,
        "K": GradedMap.from_diagonal(
            M.space, lambda d: q ** (mu - 1) * xi ** (-d)
        ),
    }
    return AlgebraModule(U, M.space, ops)


def ribbon_identity_by_matrices(M, R):
    """The check varsigma_equals_scaled_ribbon on an AydModule M as a
    matrix identity: varsigma_H(M) against the prefactor times the action
    of v_0 = R.v_0 on to_uqsl2(M)."""
    pref = ribbon_prefactor(M.p, M.mu)
    return map_check(
        "varsigma_equals_scaled_ribbon",
        varsigma_H(M),
        to_uqsl2(M).act(R.v_0).scale(pref),
        details="on the regular representation (faithful), "
                "prefactor %s" % format_scalar(pref),
    )


def psi_v0_by_substitution(A, R):
    """psi(v_0) in A = d_a_mu(p, mu) by substitution for this mu, rather
    than by twisting that of d_a_mu(p, 0): the linear extension over normal
    monomials of E -> q^{1-mu} x, F -> z g, K -> q^{mu-1} g^{p-1}."""
    q, mu, p = R.q, A.mu, A.p
    z, g, x = A.gen("z"), A.gen("g"), A.gen("x")
    psi = R.v_0.algebra.extend({"E": q ** (1 - mu) * x, "F": z * g,
                                "K": q ** (mu - 1) * g ** (p - 1)},
                               A.unit(), operator.mul)
    return sum((c * psi(mono) for mono, c in R.v_0.terms.items()), A.zero())


def w_by_product(p, mu):
    """The terms of the element w = P(g) sum_j c_j z^j x^j of d_a_mu(p, mu),
    whose action is varsigma, as one product of two p-term elements, rather
    than in closed form: P(g) = sum_b (1/p sum_i xi^{-i^2-mu i-ib}) g^b."""
    A = d_a_mu(p, mu)
    xi = root_of_unity(p)
    coeffs = [1] + [xi ** (((j - 1) * j) // 2)
                    * q_factorial_by_powers(j, xi).inverse()
                    for j in range(1, p)]
    P = A.element({
        (0, b, 0): Fraction(1, p) * sum(root_of_unity(p, -i * i - mu * i - i * b)
                                        for i in range(p))
        for b in range(p)})
    return (P * A.element({(j, 0, j): c for j, c in enumerate(coeffs)})).terms


def w_terms(p, mu):
    """The terms of w = P(g) sum_j c_j z^j x^j in d_a_mu(p, mu), whose
    action is varsigma, in closed form: P(g) = sum_i xi^{-i^2-mu i} e_i =
    sum_b P_b g^b with P_b = (1/p) sum_i xi^{-i^2-mu i-ib}, and g^b z^j =
    xi^{-bj} z^j g^b (gz = xi^{-1} zg), so z^j g^b x^j has coefficient
    P_b c_j xi^{-bj}."""
    P = [Fraction(1, p) * sum(root_of_unity(p, -i * i - mu * i - i * b)
                              for i in range(p)) for b in range(p)]
    return {(j, b, j): P[b] * c * root_of_unity(p, -b * j)
            for b in range(p) for j, c in enumerate(_series_coefficients(p))}


def twisted_psi_v0(psi0, p, mu):
    """The terms of psi(v_0) in d_a_mu(p, mu) from psi0, those in
    d_a_mu(p, 0): phi_s(psi0), s = mu/2 mod p, which multiplies the
    coefficient of z^a g^b x^c by xi^{sb} (see ayd._ribbon_identity)."""
    s = mu * pow(2, -1, p) % p
    return {(a, b, c): coeff * root_of_unity(p, s * b)
            for (a, b, c), coeff in psi0.items()}


def ribbon_identity_by_terms(p, mu, psi0, pref):
    """The check varsigma_equals_scaled_ribbon with w (w_terms) and pref
    times phi_s(psi0) (twisted_psi_v0) compared as dicts of terms, every
    term a product, rather than on the rank-one table."""
    diff = w_terms(p, mu)
    for mono, c in twisted_psi_v0(psi0, p, mu).items():
        diff[mono] = diff.get(mono, 0) - pref * c
    diff = {mono: c for mono, c in diff.items() if c}
    return check(
        "varsigma_equals_scaled_ribbon", not diff,
        details="on the regular representation (faithful), "
                "prefactor %s" % format_scalar(pref),
        witnesses=[{"difference": [[list(mono), format_scalar(c)]
                                   for mono, c in sorted(diff.items())]}]
        if diff else None,
    )


def values_by_sums(u):
    """[u(xi^j) for j < p] for a polynomial u = sum_k c_k K^k of uqsl2(p),
    each value summed over the terms of u."""
    p = u.algebra.p
    return [sum(c * root_of_unity(p, k * j)
                for (_, k, _), c in u.terms.items()) for j in range(p)]


def prefactor_route_by_sums(p, mu, R):
    """The check prefactor_scalar_route of route (a) of the ribbon identity
    for 0 <= mu < p, with K u_K at K = q^(mu-1) xi^(-i) summed over the
    terms of K * R.u_K for each degree i, rather than read off
    R.u_K_values."""
    K_u_K = R.v_0.algebra.gen("K") * R.u_K
    pref = ribbon_prefactor(p, mu)
    bad = []
    for i in range(p):
        val = 0
        for (_, k, _), c in K_u_K.terms.items():
            val = val + c * root_of_unity(p, k * (R.m * (mu - 1) - i))
        lhs = root_of_unity(p, -i * i - mu * i)
        rhs = pref * val
        if lhs != rhs:
            bad.append({"degree": i, "sigma_scalar": format_scalar(lhs),
                        "scaled_Ku_K_scalar": format_scalar(rhs)})
    return check("prefactor_scalar_route", not bad,
                 details="xi^{-i^2-mu i} vs q^{m(mu^2-1)} K u_K at "
                         "K = q^{mu-1} xi^{-i}, all i",
                 witnesses=bad)


def verify_module(M):
    """Check that the generator actions of an AlgebraModule satisfy the
    defining relations of its algebra."""
    pres = M.algebra.pres
    checks = []
    for i, name in enumerate(pres.gens):
        lhs = M.ops[name] ** pres.bounds[i]
        rhs_scalar = pres.power_rhs[i]
        rhs = (
            GradedMap.identity(M.space).scale(rhs_scalar)
            if rhs_scalar
            else GradedMap.zero(M.space, M.space, lhs.shift)
        )
        checks.append(
            map_check(
                "module relation %s^%d = %s" % (name, pres.bounds[i], rhs_scalar),
                lhs, rhs,
            )
        )

    def word_op(word):
        out = GradedMap.identity(M.space)
        for gi, e in word:
            out = out @ M.ops[pres.gens[gi]] ** e
        return out

    for (hi, lo), branches in sorted(pres.straighten.items()):
        lhs = M.ops[pres.gens[hi]] @ M.ops[pres.gens[lo]]
        rhs = GradedMap.zero(M.space, M.space, lhs.shift)
        for s, word in branches:
            rhs = rhs + word_op(word).scale(s)
        checks.append(
            map_check(
                "module relation %s*%s straightens"
                % (pres.gens[hi], pres.gens[lo]),
                lhs, rhs,
            )
        )
    return checks


def regular_module(A):
    """A acting on itself by left multiplication."""
    space = A.graded_space()
    ops = {}
    for name, el in A.generators():
        ops[name] = GradedMap(
            space, space, A.left_mult_operator(el), el.degree() % A.N
        )
    return AlgebraModule(A, space, ops)


def as_module(M):
    """An AydModule as a module over d_a_mu(p, mu), g acting by xi^i."""
    gop = GradedMap.from_diagonal(M.space, lambda d: M.xi ** d)
    return AlgebraModule(d_a_mu(M.p, M.mu), M.space,
                         {"z": M.zop, "g": gop, "x": M.xop})


def trivial_ayd_module(p, mu):
    """One-dimensional module in degree 0 with x = z = 0."""
    space = GradedSpace(p, [0])
    return AydModule(
        p, mu, space,
        GradedMap.zero(space, space, 1),
        GradedMap.zero(space, space, p - 1),
    )


def act_matrix_by_sums(M, element):
    """The action of an element on an AlgebraModule as a running sum of
    scaled matrices, one Mat per monomial, dropping zeros at each step."""
    total = Mat.zeros(M.dim, M.dim)
    for mono, c in element.terms.items():
        total = total + M.act_mono(mono).mat.scale(c)
    return total


def braided_module_E(X, M, sigma, chi):
    """E on X (x) M: multiplies x (x) m (degrees a, i) by
    omega(a,i)^(-1) sigma(a)."""
    diag = []
    for a in X.degrees:
        sa = sigma(a)
        for i in M.degrees:
            diag.append(omega(chi, a, i).inverse() * sa)
    XM = tensor(X, M)
    return GradedMap(XM, XM, Mat.diagonal(diag))


def dims_by_degree(V):
    """The dimension of each degree of the graded space V, in degree order."""
    out = [0] * V.N
    for d in V.degrees:
        out[d] += 1
    return tuple(out)


def is_invertible(f):
    """Whether the GradedMap f is invertible: square, of full rank."""
    return f.source.dim == f.target.dim and f.mat.rank() == f.source.dim


def inverse(f):
    """The inverse of an invertible GradedMap, by elimination."""
    return GradedMap(f.target, f.source, f.mat.inverse(), -f.shift)


def script_text(stmts):
    """DSL source text that parses back to stmts."""
    lines = []
    for st in stmts:
        if isinstance(st, Let) and isinstance(st.decl, ObjDecl):
            dims = ", ".join("deg %d: %d" % (d, k) for d, k in st.decl.dims)
            lines.append("let %s = obj { %s }" % (st.name, dims))
        elif isinstance(st, Let) and isinstance(st.decl, GenDecl):
            rows = "; ".join(
                ", ".join(format_scalar(v) for v in row)
                for row in st.decl.entries)
            lines.append("let %s = gen (%s -> %s) { [%s] }" % (
                st.name, obj_text(st.decl.source), obj_text(st.decl.target),
                rows))
        elif isinstance(st, Assertion):
            lines.append("assert %s == %s" % (mor_text(st.lhs),
                                              mor_text(st.rhs)))
        else:
            raise TypeError("not a statement: %r" % (st,))
    return "\n".join(lines) + "\n"


def kernel_dims(A, a, powers):
    """dim ker L_{(1-a)^k} for each k in powers, L the left multiplication
    of the algebra A."""
    u = A.unit() - a
    return [A.left_mult_operator(u ** k).nullity() for k in powers]


def element_from_column(A, col):
    return A.element({A.basis[i]: c for i, c in col.items()})


def right_mult_operator(A, a):
    """The matrix of b |-> b*a on the algebra A."""
    data = {}
    for j, mb in enumerate(A.basis):
        for ma, ca in a.terms.items():
            for mc, s in A.pair_product(mb, ma).items():
                key = (A.index[mc], j)
                data[key] = data.get(key, 0) + ca * s
    return Mat(A.dim, A.dim, {key: v for key, v in data.items() if v})


def center_by_restriction(A):
    """Basis of the center of A as columns, the joint kernel of
    ad(g) = L_g - R_g as matrices on all of A, taken one generator at a
    time in presentation order: each kernel is found on the span the
    earlier generators left."""
    space = Mat.identity(A.dim)
    for _, g in A.generators():
        ad = A.left_mult_operator(g) - right_mult_operator(A, g)
        space = space * from_cols(space.cols, (ad * space).kernel_basis())
    return [{i: v for (i, jj), v in space.data.items() if jj == j}
            for j in range(space.cols)]


def center_by_generator_chain(A):
    """Basis of the center of A as elements, one generator at a time:
    the span starts as the basis, and each generator g, degree 0 first,
    replaces it by the combinations of its elements that the kernel of
    the columns of ad(g) = g*v - v*g on the span gives, every product a
    pair_product, and no generator skipped as diagonal."""
    space = [A.element({m: 1}) for m in A.basis]
    for _, g in sorted(A.generators(), key=lambda ng: ng[1].degree() != 0):
        (gm,) = g.terms
        cols = []
        for v in space:
            col = {}
            for m, c in v.terms.items():
                for prod, k in ((A.pair_product(gm, m), c),
                                (A.pair_product(m, gm), -c)):
                    for mo, s in prod.items():
                        i = A.index[mo]
                        col[i] = col.get(i, 0) + k * s
            cols.append(col)
        space = [sum((space[j] * c for j, c in vec.items()), A.zero())
                 for vec in from_cols(A.dim, cols).kernel_basis()]
    return space


def regular_ayd_by_conjugation(p, mu):
    """The regular AydModule of d_a_mu(p, mu) by the old route: left
    multiplication by x and z, conjugated as Pinv * L * P into the basis
    z^a e_t x^c, e_t = (1/p) sum_b xi^{-tb} g^b.  The change of basis is
    attached as .basis_change, the algebra as .algebra."""
    A = d_a_mu(p, mu)
    xi = A.xi
    n = A.dim
    unit = Fraction(1, p)
    pdata = {}
    pinv = {}
    for a in range(p):
        for t in range(p):
            for c in range(p):
                col = A.index[(a, t, c)]
                for b in range(p):
                    row = A.index[(a, b, c)]
                    pdata[(row, col)] = unit * xi ** (-t * b)
                    pinv[(col, row)] = xi ** (t * b)
    P = Mat(n, n, pdata)
    Pinv = Mat(n, n, pinv)
    space = GradedSpace(p, *regular_degrees_and_labels(p))
    xmat = Pinv * A.left_mult_operator(A.gen("x")) * P
    zmat = Pinv * A.left_mult_operator(A.gen("z")) * P
    M = AydModule(
        p, mu, space,
        GradedMap(space, space, xmat, 1),
        GradedMap(space, space, zmat, p - 1),
    )
    M.basis_change = P
    M.algebra = A
    return M


def regular_degrees_and_labels(p):
    """The degree t - a and the label of each column (a p + t) p + c,
    z^a e_t x^c, of the regular AYD module, one column at a time."""
    degrees, labels = [], []
    for a in range(p):
        for t in range(p):
            for c in range(p):
                degrees.append((t - a) % p)
                parts = []
                if a:
                    parts.append("z" if a == 1 else "z^%d" % a)
                parts.append("e_%d" % t)
                if c:
                    parts.append("x" if c == 1 else "x^%d" % c)
                labels.append("*".join(parts))
    return degrees, labels


@lru_cache(maxsize=None)
def series_tables(p):
    """S(a, u) = sum_{l <= a} c_l W(l) as series[a][u], where mu enters
    only through u = mu + 2t.

    x lowers z^a e_t x^c by lowering[a][u], so the paths of l lowerings end
    at z^{a-l} e_t x^c, and z^l x^l takes z^a e_t x^c to W(l) z^a e_t x^c
    plus terms that raise c, where W(0) = 1 and

        W(l) = lowering[a-l+1][u] W(l-1).

    W does not depend on c, so the table costs O(p^3) scalar operations."""
    coeffs = _series_coefficients(p)
    lowering = _regular_weights(p)[1]

    def diagonal(a, u):
        total = w = 1
        for l in range(1, a + 1):
            w = lowering[a - l + 1][u] * w
            total = total + coeffs[l] * w
        return total

    return tuple(tuple(diagonal(a, u) for u in range(p)) for a in range(p))


def sigma_diagonals_by_mu(p, mu):
    """The tables E(a, t, 0) and E(a, t, 1) of varsigma on the regular
    module, which takes z^a e_t x^c to E(a, t, 0) z^a e_t x^c plus
    E(a, t, 1) z^{a+1} e_{t+1} x^{c+1} plus higher shifts, by the path
    recursion for this mu alone, with the lowering weight
    (a)_xi (xi^{a-mu-2t} - 1) read at t, rather than, for the diagonal, as
    xi^{-i^2-mu i} times the one table per p of series_tables indexed by
    u = mu + 2t; bhl reads neither (it proves both closed forms);
    entries with a + d = p are the int 0."""
    xi = root_of_unity(p)
    coeffs = [1] + [xi ** (((j - 1) * j) // 2)
                    * q_factorial_by_powers(j, xi).inverse()
                    for j in range(1, p)]
    raising = [root_of_unity(p, k) for k in range(p)]
    lowering = []
    for a in range(p):
        a_xi = sum(raising[:a])
        lowering.append([a_xi * (raising[(a - mu - 2 * t) % p] - 1)
                         for t in range(p)])
    tables = [[[0] * p for _ in range(p)] for _ in range(2)]
    for a in range(p):
        for t in range(p):
            i = t - a
            prefactor = root_of_unity(p, -i * i - mu * i)
            prev = None  # W(0, l) for l = 0 .. a
            for d in range(min(2, p - a)):
                td = (t + d) % p
                cur = []  # W(d, l) for l = 0 .. a, with W(0, 0) = 1
                for l in range(a + 1):
                    w = raising[a - l] * prev[l] if d else int(l == 0)
                    if l:
                        w = w + lowering[a - l + 1][td] * cur[l - 1]
                    cur.append(w)
                total = 0
                for l, w in enumerate(cur):
                    total = total + coeffs[d + l] * w
                prev = cur
                tables[d][a][t] = prefactor * total
    return tables


def stable_chain_by_strings(p, mu):
    """The kernel chain of 1 - varsigma on the regular module read off the
    tables of sigma_diagonals_by_mu string by string: each of the 2p^2 - p
    strings of fixed (a - c, (t - c) mod p), started at min(a, c) = 0, is
    listed by its positions (a, t), about p^3 in all, rather than counted
    as a prefix or suffix of its line.  None when a first-subdiagonal
    entry on a string vanishes, where the diagonals do not decide the
    chain."""
    diag, sub = sigma_diagonals_by_mu(p, mu)
    strings = [[(a + s, (t + s) % p) for s in range(p - max(a, c))]
               for a in range(p) for t in range(p) for c in range(p)
               if min(a, c) == 0]
    if not all(sub[a][t] for b in strings for a, t in b[:-1]):
        return None
    z = [sum(diag[a][t] == 1 for a, t in b) for b in strings]
    return [sum(min(k, zb) for zb in z)
            for k in range(1, max(max(z), 1) + 1)]


def stable_chain_by_line_counts(p, mu):
    """The kernel chain of 1 - varsigma on the regular module counted from
    the closed-form diagonal xi^{-t(t+mu)}, rather than by the counting
    lemma of stable_analysis: z_b, the number of positions of string b
    where p divides t(t + mu), is a difference of one running count of
    that predicate along the line of fixed i = t - a mod p that holds b,
    b being one of the line's p - 1 proper prefixes or p suffixes;
    O(p^2) integer steps."""
    mu %= p
    z = []
    for i in range(p):
        count = list(itertools.accumulate(
            ((a + i) * (a + i + mu) % p == 0 for a in range(p)), initial=0))
        z += count[1:p] + [count[p] - k for k in count[:p]]
    return [sum(min(k, zb) for zb in z)
            for k in range(1, max(max(z), 1) + 1)]


def kernel_chain_by_powers(T):
    """Nullities of T, T^2, ... up to the first repeat, by sparse products."""
    chain, Tk = [T.nullity()], T * T
    while (nk := Tk.nullity()) != chain[-1]:
        chain.append(nk)
        Tk = Tk * T
    return chain


def tensor_pair(TA, a, b):
    """The element a (x) b of a braided tensor algebra TA."""
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            terms[(ma, mb)] = ca * cb
    return TA.element(terms)


def hopf_maps_by_powers(H):
    """The matrices of Delta, eps and S of a HopfData H: Delta and eps of a
    normal monomial as the ordered product of its generator powers, Delta
    in braided_tensor_algebra, by its pair rule rather than the square of
    H, S by peeling the last letter, S(rest g) = chi(deg rest, deg g) S(g)
    S(rest)."""
    A = H.algebra
    TA = braided_tensor_algebra(A, A, H.chi)
    coproducts = {name: TA.element({TA.basis[k]: c for k, c in col.items()})
                  for name, col in H.coproducts.items()}
    names = A.pres.gens
    antipode = antipode_by_peeling(H)
    delta, eps, S = {}, {}, {}
    for j, mono in enumerate(A.basis):
        d, e = TA.unit(), Fraction(1)
        for name, k in zip(names, mono):
            if k:
                d = d * coproducts[name] ** k
                e = e * H.counits[name] ** k
        for pair, c in d.terms.items():
            delta[TA.index[pair], j] = c
        if e:
            eps[0, j] = e
        for m, c in antipode(mono).terms.items():
            S[A.index[m], j] = c
    n = A.dim
    return Mat(n * n, n, delta), Mat(1, n, eps), Mat(n, n, S)


def antipode_by_peeling(H):
    """mono |-> S(mono) for a HopfData H on a presented algebra, by peeling
    the last letter g, S(rest g) = chi(deg rest, deg g) S(g) S(rest), from
    the generator images H.antipodes, memoised."""
    A, memo = H.algebra, {}

    def antipode(mono):
        if mono not in memo:
            if mono == A.unit_mono:
                memo[mono] = A.unit()
            else:
                last = max(i for i, e in enumerate(mono) if e)
                rest = tuple(e - (i == last) for i, e in enumerate(mono))
                dg = A.pres.degrees[last] % A.N
                s = H.chi.chi((A.mono_degree(mono) - dg) % A.N, dg)
                memo[mono] = s * (H.antipodes[A.pres.gens[last]]
                                  * antipode(rest))
        return memo[mono]
    return antipode


def antipode_square_by_peeling(H, a):
    """S(S(a)) for an element a, each S summed over the monomials of its
    argument by antipode_by_peeling, rather than by S's diagram leaf."""
    antipode = antipode_by_peeling(H)
    for _ in range(2):
        a = sum((c * antipode(m) for m, c in a.terms.items()),
                H.algebra.zero())
    return a


def induced_map_by_power_table(source, target, images):
    """The induced linear map from a table of the powers of each image,
    each power the one below it times the image."""
    powers = []
    for name, bound in zip(source.pres.gens, source.pres.bounds):
        row = [target.unit()]
        for _ in range(1, bound):
            row.append(row[-1] * images[name])
        powers.append(row)
    cols = []
    for mono in source.basis:
        elem = target.unit()
        for row, e in zip(powers, mono):
            if e:
                elem = elem * row[e]
        cols.append(elem.as_column())
    return from_cols(target.dim, cols)


def eliminate_by_scan(rows, ncols):
    """Gauss-Jordan on a list of {col: scalar} rows, with exactmat's pivot
    rule: every remaining row is scanned for each column's pivot, and
    every row, above the pivot too, for its targets; returns (rows,
    pivots)."""
    pivots = []
    rank = 0
    nrows = len(rows)
    for col in range(ncols):
        piv = None
        best = None
        for idx in range(rank, nrows):
            v = rows[idx].get(col)
            if v:
                size = len(rows[idx])
                if best is None or size < best:
                    piv, best = idx, size
                    if size <= 2:
                        break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        lead = prow[col]
        if lead != 1:
            inv = _inv_scalar(lead)
            prow = {j: inv * v for j, v in prow.items()}
            rows[rank] = prow
        for idx in range(nrows):
            if idx == rank:
                continue
            r = rows[idx]
            factor = r.get(col)
            if factor:
                for j, v in prow.items():
                    s = r.get(j)
                    s = -(factor * v) if s is None else s - factor * v
                    if s:
                        r[j] = s
                    else:
                        r.pop(j, None)
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows[:rank], pivots


def typed_entries(mat):
    """Each nonzero entry of a Mat as (type name, repr), so two routes can
    be compared by the values their witnesses would print."""
    return {key: (type(v).__name__, repr(v)) for key, v in mat.data.items()}


def typed_terms(terms):
    """The terms {monomial: scalar} of an element as (type name, repr)."""
    return {m: (type(c).__name__, repr(c)) for m, c in terms.items()}


def normalize_by_rescan(A, coeff, runs):
    """coeff times the word runs, a list of (generator index, exponent),
    in normal form: rewrite the first violation (a power at its bound, or
    an out-of-order adjacent pair) after rebuilding and rescanning the
    whole word, one rewriting path at a time."""
    pres = A.pres
    out = {}
    agenda = [(coeff, list(runs))]
    while agenda:
        c, w = agenda.pop()
        merged = []
        for gi, e in w:
            if e == 0:
                continue
            if merged and merged[-1][0] == gi:
                merged[-1] = (gi, merged[-1][1] + e)
            else:
                merged.append((gi, e))
        violation = None
        for pos, (gi, e) in enumerate(merged):
            if e >= pres.bounds[gi]:
                violation = ("power", pos)
                break
            if pos + 1 < len(merged) and merged[pos + 1][0] < gi:
                violation = ("straighten", pos)
                break
        if violation is None:
            mono = [0] * len(pres.gens)
            for gi, e in merged:
                mono[gi] = e
            mono = tuple(mono)
            out[mono] = out.get(mono, 0) + c
            continue
        kind, pos = violation
        if kind == "power":
            gi, e = merged[pos]
            q, r = divmod(e, pres.bounds[gi])
            rhs = pres.power_rhs[gi]
            if not rhs:
                continue
            c2 = c if rhs == 1 else c * rhs ** q
            agenda.append(
                (c2, merged[:pos] + ([(gi, r)] if r else []) + merged[pos + 1:]))
        else:
            hi, e = merged[pos]
            lo, f = merged[pos + 1]
            rule = pres.straighten.get((hi, lo))
            if rule is None:
                raise ValueError(
                    "no straightening rule for %s*%s"
                    % (pres.gens[hi], pres.gens[lo]))
            prefix = merged[:pos] + ([(hi, e - 1)] if e > 1 else [])
            suffix = ([(lo, f - 1)] if f > 1 else []) + merged[pos + 2:]
            for s, rw in rule:
                agenda.append((c * s, prefix + list(rw) + suffix))
    return {m: c for m, c in out.items() if c}


def apply_by_letters(A, runs, terms):
    """PresentedAlgebra._apply one letter at a time, every generator by
    its rule and nothing memoised, rather than a diagonal generator's run
    in one step."""
    for gi, e in reversed(runs):
        for _ in range(e):
            out = {}
            for m, c in terms.items():
                for mo, s in act_by_letters(A, gi, m).items():
                    v = out.get(mo)
                    out[mo] = c * s if v is None else v + c * s
            terms = out
    return {m: c for m, c in terms.items() if c}


def act_by_letters(A, gi, mono):
    """g * mono, g = gens[gi], as PresentedAlgebra._act rewrites it, with
    the letters of a straightening rule applied by apply_by_letters."""
    pres = A.pres
    h = next((j for j, e in enumerate(mono) if e), gi)
    if gi <= h:
        e, rhs = mono[gi] + 1, pres.power_rhs[gi]
        if e < pres.bounds[gi]:
            return {mono[:gi] + (e,) + mono[gi + 1:]: 1}
        return {mono[:gi] + (0,) + mono[gi + 1:]: rhs} if rhs else {}
    rest = mono[:h] + (mono[h] - 1,) + mono[h + 1:]
    out = {}
    for s, word in pres.straighten[(gi, h)]:
        for m, c in apply_by_letters(A, word, {rest: s}).items():
            v = out.get(m)
            out[m] = c if v is None else v + c
    return out


def pair_product_by_rescan(A, ma, mb):
    """ma * mb by normalize_by_rescan (a StructureConstantAlgebra by its
    pair rule)."""
    if not hasattr(A, "pres"):
        return A.pair_product(ma, mb)
    runs = [(i, e) for i, e in enumerate(ma) if e]
    runs += [(i, e) for i, e in enumerate(mb) if e]
    return normalize_by_rescan(A, 1, runs)


def normal_form(A, word):
    """A word of (generator name or index, integer exponent) pairs in
    normal form, by A's generator actions (PresentedAlgebra._apply): each
    exponent is first reduced below its bound by the power rule."""
    coeff, runs = 1, []
    for g, e in word:
        gi = g if isinstance(g, int) else A.pres.gens.index(g)
        q, e = divmod(e, A.pres.bounds[gi])
        rhs = A.pres.power_rhs[gi]
        if q < 0 and not rhs:
            raise ValueError("negative exponent on nilpotent generator %r"
                             % A.pres.gens[gi])
        if q and rhs != 1:
            coeff = coeff * rhs ** q
        runs.append((gi, e))
    return A.element(A._apply(runs, {A.unit_mono: coeff}))


def normal_form_by_rescan(A, word):
    """normal_form by normalize_by_rescan."""
    coeff = 1
    runs = []
    for g, e in word:
        gi = g if isinstance(g, int) else A.pres.gens.index(g)
        if e < 0:
            rhs = A.pres.power_rhs[gi]
            q, e = divmod(e, A.pres.bounds[gi])
            if rhs != 1:
                coeff = coeff * rhs ** q
        if e:
            runs.append((gi, e))
    return normalize_by_rescan(A, coeff, runs)


def braiding_matrix(V, W, chi):
    """graded.braiding as an explicit GradedMap on the listed bases of
    V (x) W and W (x) V."""
    data = {}
    for i, dv in enumerate(V.degrees):
        for j, dw in enumerate(W.degrees):
            data[j * V.dim + i, i * W.dim + j] = chi.chi(dv, dw)
    return GradedMap(tensor(V, W), tensor(W, V),
                     Mat(W.dim * V.dim, V.dim * W.dim, data))


def braiding_inverse_matrix(V, W, chi):
    """graded.braiding_inverse as an explicit GradedMap."""
    return braiding_matrix(W, V, Bicharacter(chi.N, -chi.c))


def leaf_map(f):
    """The columns of a diagram leaf assembled into a GradedMap, between
    spaces with the degrees of its tensor words; the source's labels are
    the leaf's.  The matrix a lazy structure map or duality map stood for
    before it became a leaf."""
    def space(word, label=None):
        n = math.prod(V.dim for V in word)
        return GradedSpace(f.N, word_degrees(word, f.N),
                           label and LazyLabels(n, label))

    target = space(f.target)
    return GradedMap(space(f.source, f.label), target,
                     from_cols(target.dim, list(f.columns())), f.shift)


def leaf_entries(d):
    """{(row, column): scalar} of a diagram, read column by column."""
    return {(r, j): v for j, col in enumerate(d.columns())
            for r, v in col.items()}


def mult_map_by_pairs(A):
    """The product m: A (x) A -> A with one product per pair of basis
    elements (a normal form by normalize_by_rescan, for a presented
    algebra)."""
    n = A.dim
    data = {}
    for ja, ma in enumerate(A.basis):
        for jb, mb in enumerate(A.basis):
            for m, s in pair_product_by_rescan(A, ma, mb).items():
                data[(A.index[m], ja * n + jb)] = s
    V = A.graded_space()
    return GradedMap(tensor(V, V), V, Mat(n, n * n, data))


def associativity_by_triples(A):
    """verify_associativity with m by pairs and associativity compared on
    all dim^3 basis triples."""
    m, u = diagram(mult_map_by_pairs(A)), A.unit_map()
    idv = GradedMap.identity(A.graded_space())
    units = [
        map_check("unitality", m @ tensor_diagram(*law), idv,
                  "unit monomial %s" % A.mono_label(A.unit_mono))
        for law in ((u, idv), (idv, u))
    ]
    return [
        map_check("associativity", m @ tensor_diagram(m, idv),
                  m @ tensor_diagram(idv, m),
                  "all %d^3 basis triples" % A.dim),
        next((c for c in units if c["status"] == FAIL), units[0]),
    ]


def row_premises_by_sweep(A):
    """The generation witness of the search from 1 and the first input
    where a*1 != a, both by pushing every basis input, rather than taken
    from the construction of a presented algebra
    (FiniteDimAlgebra._row_premises)."""
    iota, _ = A.generator_rows()
    m, idv = A.mult_map(), A.identity_map()
    return (A._unreached(m @ tensor_diagram(iota, idv)),
            first_difference(m @ tensor_diagram(idv, A.unit_map()), idv))


def square_by_composite(m, tau):
    """The product of A (x)^tau A as the composite diagram (m (x) m) .
    (id (x) tau (x) id), rather than one leaf read from the product cache
    (HopfData.square); m: V (x) V -> V and tau are GradedMaps."""
    idv = diagram(GradedMap.identity(m.target))
    return (tensor_diagram(m, m)
            @ tensor_diagram(idv, diagram(tau), idv))


def hopf_checks_by_pairs(H):
    """verify_bialgebra + verify_antipode, with the three laws that are
    multiplicative in their first argument compared on every pair of basis
    elements, and the five other laws on every basis element, m by
    pairs."""
    V = H.space
    by_pairs = mult_map_by_pairs(H.algebra)
    m = diagram(by_pairs)
    idv = diagram(GradedMap.identity(V))
    tau = braiding_matrix(V, V, H.chi)
    Delta, eps, S = (diagram(f) for f in (H.Delta, H.eps, H.S))
    ue = diagram(H.u) @ H.eps
    pairs = {
        "coproduct_is_multiplicative": (
            Delta @ m, square_by_composite(by_pairs, tau)
            @ tensor_diagram(Delta, Delta)),
        "counit_is_multiplicative": (eps @ m, tensor_diagram(eps, eps)),
        "antipode_is_antimultiplicative": (
            S @ m, m @ tensor_diagram(S, S) @ tau),
    }
    singles = {
        "coassociativity": (tensor_diagram(Delta, idv) @ Delta,
                            tensor_diagram(idv, Delta) @ Delta),
        "antipode_left": (m @ tensor_diagram(S, idv) @ Delta, ue),
        "antipode_right": (m @ tensor_diagram(idv, S) @ Delta, ue),
        "antipode_is_anticomultiplicative": (
            Delta @ S, tau @ tensor_diagram(S, S) @ Delta),
    }
    counit = [(side, first_difference(tensor_diagram(*law) @ Delta, idv))
              for side, law in (("(eps(x)id).Delta", (eps, idv)),
                                ("(id(x)eps).Delta", (idv, eps)))]

    def pair(j):
        return "%s , %s" % tuple(V.labels[i] for i in divmod(j, V.dim))

    def swept(c):
        name = c["name"]
        if name in pairs:
            return map_check(name, *pairs[name], label=pair)
        if name in singles:
            return map_check(name, *singles[name])
        if name == "counit_law":
            witnesses = [
                {"side": side, "input": V.labels[hit[0]],
                 "difference": [[r, format_scalar(hit[1][r])]
                                for r in sorted(hit[1])]}
                for side, hit in counit if hit is not None][:1]
            return check(name, not witnesses,
                         "(eps(x)id).Delta = id = (id(x)eps).Delta", witnesses)
        return c

    return [swept(c) for c in verify_bialgebra(H) + verify_antipode(H)]


def square_antipode_by_matrix(H):
    """repr of S^2 on each generator, read from a column of S @ S, S the
    matrix of H.S's leaf."""
    S = leaf_map(H.S)
    s2 = S @ S
    out = []
    for name, el in H.algebra.generators():
        col = H.algebra.index[next(iter(el.terms))]
        image = {i: v for (i, j), v in s2.mat.data.items() if j == col}
        out.append({"generator": name, "square_antipode_image": repr(
            element_from_column(H.algebra, image))})
    return out


def stable_witnesses_by_pairs(N, c):
    """{(s, t): every y with s = t + 2cy and ty = -cy^2 (mod N)}, over the
    pairs (s, t) in order that have a witness."""
    related = {}
    for s in range(N):
        for t in range(N):
            ys = [y for y in range(N)
                  if (t + 2 * c * y - s) % N == 0
                  and (t * y + c * y * y) % N == 0]
            if ys:
                related[(s, t)] = ys
    return related


def eta_arrows_by_anti_twists(N, c):
    """The arrows of eta_kernel with eta = omega(y, y) sigma(y),
    sigma = sigma lambda_t the validated anti-twist."""
    chi = Bicharacter(N, c)
    arrows = []
    for t in range(N):
        sig = AntiTwist(chi, t)
        for y in range(N):
            val = omega(chi, y, y) * sig(y)
            arrows.append({"y": y, "source": t,
                           "target": (t + 2 * c * y) % N,
                           "eta": val, "in_kernel": val == 1})
    return arrows


def eta_kernel(N, c):
    """The eta invariant on all N^2 arrows (y, sigma lambda_t) and its
    kernel, by exponent arithmetic mod N.

    eta(y, sigma lambda_t) = omega(y, y) sigma lambda_t(y) = zeta^(cy^2+ty);
    the arrow runs from parameter t to t + 2cy.  Returns {"arrows",
    "kernel_size", "kernel_arrows"}; classify_stable lists the kernel
    directly, as its witnesses.
    """
    roots = [root_of_unity(N, e) for e in range(N)]
    arrows = []
    for t in range(N):
        for y in range(N):
            e = (c * y * y + t * y) % N
            arrows.append({"y": y, "source": t, "target": (t + 2 * c * y) % N,
                           "eta": roots[e], "in_kernel": e == 0})
    kernel = [a for a in arrows if a["in_kernel"]]
    return {
        "arrows": arrows,
        "kernel_size": len(kernel),
        "kernel_arrows": kernel,
    }


def run_script(name, *args):
    """Run scripts/<name> with bhl importable; the CompletedProcess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(bhl.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, str(SCRIPTS_DIR / name), *args],
        env=env, capture_output=True, text=True, timeout=120)


def q_int_by_powers(n, xi):
    """(n)_xi = 1 + xi + ... + xi^(n-1), each power taken afresh."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    total = xi ** 0 * 0
    for i in range(n):
        total = total + xi ** i
    return total


def q_factorial_by_powers(n, xi):
    """(n)_xi! as the product of q_int_by_powers(i, xi), i = 1..n."""
    total = xi ** 0
    for i in range(1, n + 1):
        total = total * q_int_by_powers(i, xi)
    return total


def q_factorial(n, xi):
    """(n)_xi!, the last entry of bhl's q_factorials(n, xi)."""
    return q_factorials(n, xi)[-1]


def balanced_q_factorial(n, q):
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with [0]_q! = 1, each [i]_q
    summed afresh."""
    total = q ** 0
    for i in range(1, n + 1):
        total = total * balanced_q_int(i, q)
    return total


def power_by_squaring(x, e):
    """x ** e for a Cyclotomic x by square-and-multiply, of x^-1 for e < 0,
    rather than c^e zeta^(ke) in one step for x = c zeta^k."""
    if e < 0:
        x, e = x.inverse(), -e
    return power(x, e, lambda: Cyclotomic.one(x.order))


def q_binomial_by_factorials(n, k, xi):
    """(n choose k)_xi = (n)_xi! / ((k)_xi! (n-k)_xi!), zero unless
    0 <= k <= n; ZeroDivisionError once n >= ord xi > 1."""
    if not 0 <= k <= n:
        return xi ** 0 * 0
    return q_factorial_by_powers(n, xi) / (q_factorial_by_powers(k, xi)
                                           * q_factorial_by_powers(n - k, xi))


def q_binomial(n, k, xi):
    """(n choose k)_xi, row n of bhl's q_binomials; zero unless
    0 <= k <= n."""
    return q_binomials(n, xi)[n][k] if 0 <= k <= n else xi ** 0 * 0


def omega(chi, i, j):
    """omega(i,j) = chi(i,j) chi(j,i) = zeta^(2c i j) of a Bicharacter."""
    return chi.chi(i, j) * chi.chi(j, i)


def space_to_json(V):
    return {"N": V.N, "degrees": list(V.degrees), "labels": list(V.labels)}


def map_to_json(f):
    """A GradedMap as JSON: its spaces, shift and sorted entries."""
    return {"source": space_to_json(f.source),
            "target": space_to_json(f.target), "shift": f.shift,
            "entries": sorted([r, c, format_scalar(v)]
                              for (r, c), v in f.mat.data.items())}


def packet_values(packet):
    """The values theta(x) = zeta^e of a PacketReport's entries."""
    return [root_of_unity(packet.N, e["exponent"]) for e in packet.entries]


def replace(record, **changes):
    """A copy of a bhl Record with the named fields changed."""
    return type(record)(**dict(zip(record._fields, record), **changes))


_SKIPS = (re.compile(r"\s*"), re.compile(r"(?:[ \t\r\n]+|#.*)*"))
_TOKEN = re.compile(
    r"(?P<int>\d+)|(?P<name>\w+)|(?P<sym>->|==|[-={}()\[\],;:*^+/])")


def tokenize_by_two_matches(text, script=False):
    """bhl.scalars.tokenize with one match for the separators before each
    token and a second one for the token."""
    skip = _SKIPS[script]
    tokens, line, start, i = [], 1, 0, 0
    while True:
        j = skip.match(text, i).end()
        breaks = text.count("\n", i, j)
        if breaks:
            line += breaks
            start = text.rindex("\n", i, j) + 1
        col = j - start + 1
        if j == len(text):
            tokens.append(("eof", "", line, col))
            return tokens
        m = _TOKEN.match(text, j)
        ch = text[j]
        if m is None or m.lastgroup == "name" and not (ch.isalpha() or ch == "_"):
            raise ParseError("unexpected character %r" % ch, line, col)
        tokens.append((m.lastgroup, m.group(), line, col))
        i = m.end()


def presented_degrees_and_labels(A):
    """The normal monomials of a PresentedAlgebra as itertools.product
    lists them, with the degree and the label of each, one monomial at a
    time: sum of e * deg over its letters mod N, and its letters named as
    F^2*K, or 1."""
    pres = A.pres
    basis = list(itertools.product(*(range(b) for b in pres.bounds)))
    degrees = [sum(e * d for e, d in zip(m, pres.degrees)) % pres.N
               for m in basis]
    labels = ["*".join(name if e == 1 else "%s^%d" % (name, e)
                       for name, e in zip(pres.gens, m) if e) or "1"
              for m in basis]
    return basis, degrees, labels


def commutant_by_sweep(A, g):
    """The basis monomials m with g*m = m*g, each pair of products
    compared, rather than read off lambda_m (_diagonal_commutant)."""
    return [m for m in A.basis if A.pair_product(g, m) == A.pair_product(m, g)]


def reduce_by_division(order, vec):
    """sum_k vec[k] zeta^k on the power basis: folded by zeta^order = 1 one
    coordinate at a time, rather than by one slice, then divided by the
    monic Phi_order one nonzero term at a time, top coefficient first."""
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    terms = [(i, c) for i, c in enumerate(phi[:d]) if c]
    vec = list(vec)
    while len(vec) > order:
        c = vec.pop()
        vec[len(vec) - order] += c
    n = len(vec)
    for k in range(n - 1, d - 1, -1):
        c = vec[k]
        if c:
            for i, f in terms:
                vec[k - d + i] -= c * f
    return vec[:d] if n >= d else vec + [0] * (d - n)


def mul_by_division(a, b):
    """a * b for Cyclotomic a, b: a rational operand (any order, shape read
    off num[1:]) scales the other, a monomial c zeta^k rotates it, and two
    general elements are convolved, reduced by reduce_by_division."""
    an, bn = a.num, b.num
    if not any(bn[1:]):
        return Cyclotomic(a.order, [v * bn[0] for v in an], a.den * b.den)
    if not any(an[1:]):
        return Cyclotomic(b.order, [v * an[0] for v in bn], a.den * b.den)
    if a.order != b.order:
        raise OrderMismatchError("orders %d and %d" % (a.order, b.order))
    n = len(an)
    if an.count(0) == n - 1:
        a, b, an, bn = b, a, bn, an
    if bn.count(0) == n - 1:
        c = sum(bn)
        k = bn.index(c)
        vec = [c * v for v in an] + [0] * (a.order - n)
        vec = vec[-k:] + vec[:-k]
    else:
        vec = [0] * (2 * n - 1)
        for i, x in enumerate(an):
            for j, y in enumerate(bn):
                vec[i + j] += x * y
    return Cyclotomic(a.order, reduce_by_division(a.order, vec), a.den * b.den)


def conjugate_by_division(x, k):
    """sigma_k(x), zeta -> zeta^k, reduced by reduce_by_division."""
    vec = [0] * x.order
    for j, v in enumerate(x.num):
        vec[j * k % x.order] += v
    return Cyclotomic(x.order, reduce_by_division(x.order, vec), x.den)


def inverse_by_conjugates(x):
    """x^-1 = y / (x*y) with y = sigma_-1(x) when x*y is rational, and
    otherwise y the product of the conjugates sigma_k(x), k != 1 a unit
    mod N, one at a time, at every order, rather than by an addition chain
    at a prime order; products by mul_by_division."""
    if not any(x.num):
        raise ZeroDivisionError("division by zero")
    y = conjugate_by_division(x, -1)
    norm = mul_by_division(x, y)
    if any(norm.num[1:]):
        for k in range(2, x.order - 1):
            if math.gcd(k, x.order) == 1:
                y = mul_by_division(y, conjugate_by_division(x, k))
        norm = mul_by_division(x, y)
    return Cyclotomic(x.order, [v * norm.den for v in y.num],
                      y.den * norm.num[0])
