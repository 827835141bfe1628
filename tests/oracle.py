"""Independent routes the tests check bhl against.

Nothing in bhl needs these, so they live with the tests: the defining
relations of a module given by generator actions, the regular module of a
presented algebra, an AydModule read as a d_a_mu module, the trivial
AydModule (the control for verify_ayd, varsigma_H and to_uqsl2), the
braided-module map E, the inverse of a graded map by elimination, a
printer for DSL scripts, kernel dimensions of powers of 1 - a acting
on an algebra, and the regular AydModule by conjugating left
multiplication into the g-eigenbasis.
"""

from fractions import Fraction

from bhl.algebras import d_a_mu
from bhl.ayd import AydModule
from bhl.dsl import Assertion, GenDecl, Let, ObjDecl, mor_text, obj_text
from bhl.exactmat import Mat
from bhl.graded import GradedMap, GradedSpace, tensor
from bhl.hopf import AlgebraModule
from bhl.report import map_check
from bhl.scalars import format_scalar


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


def braided_module_E(X, M, sigma, chi):
    """E on X (x) M: multiplies x (x) m (degrees a, i) by
    omega(a,i)^(-1) sigma(a)."""
    diag = []
    for a in X.degrees:
        sa = sigma(a)
        for i in M.degrees:
            diag.append(chi.omega(a, i).inverse() * sa)
    XM = tensor(X, M)
    return GradedMap(XM, XM, Mat.diagonal(diag))


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
    degrees = [0] * n
    labels = [""] * n
    for a in range(p):
        for t in range(p):
            for c in range(p):
                col = A.index[(a, t, c)]
                degrees[col] = (t - a) % p
                parts = []
                if a:
                    parts.append("z" if a == 1 else "z^%d" % a)
                parts.append("e_%d" % t)
                if c:
                    parts.append("x" if c == 1 else "x^%d" % c)
                labels[col] = "*".join(parts)
                for b in range(p):
                    row = A.index[(a, b, c)]
                    pdata[(row, col)] = unit * xi ** (-t * b)
                    pinv[(col, row)] = xi ** (t * b)
    P = Mat(n, n, pdata)
    Pinv = Mat(n, n, pinv)
    space = GradedSpace(p, degrees, labels)
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
