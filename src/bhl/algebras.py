"""Finite-dimensional graded algebras with normal forms and exact linear analysis.

Two constructions cover everything needed:

* PresentedAlgebra — generators in a fixed order with power rules
  (gen^p -> 0 or 1) and straightening rules for each out-of-order adjacent
  pair.  Normal monomials are the ordered products g_1^{e_1}...g_k^{e_k}
  with exponents below the bounds; multiplication rewrites to that basis.

* StructureConstantAlgebra — an explicit basis with a pairwise product
  rule (used for the dual of the anyonic line, whose product is given in
  closed form, and for braided tensor products of algebras).

On top of either: regular-representation matrices, the product and unit
as graded maps (associativity and unitality are checked on them, one basis
input at a time), center computation by generator commutants,
kernel-dimension analysis, and relation-checking for algebra morphisms.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

from .exactmat import Mat, from_cols
from .graded import GradedMap, GradedSpace, diagram, tensor, tensor_diagram
from .report import FAIL, check, map_check
from .scalars import format_scalar, power, q_binomial, root_of_unity

DEFAULT_DIM_GUARD = 350


class DimensionGuardError(RuntimeError):
    """A brute-force verification would exceed the dimension guard."""


def dim_guard():
    return int(os.environ.get("BHL_DIM_GUARD", DEFAULT_DIM_GUARD))


def check_guard(dim, what):
    limit = dim_guard()
    if dim > limit:
        raise DimensionGuardError(
            "%s at dimension %d exceeds the guard %d (set BHL_DIM_GUARD to raise it)"
            % (what, dim, limit)
        )


@dataclass(frozen=True)
class Presentation:
    """Generators with power rules and straightening rules.

    gens are listed in normal order; a normal monomial multiplies them
    left-to-right with exponents below `bounds`.  power_rhs[i] is the scalar
    value of gens[i]**bounds[i] (0 for nilpotent, 1 for a group-like of that
    order).  straighten maps an out-of-order adjacent pair (hi, lo) with
    hi > lo to a sum: gens[hi]*gens[lo] -> sum of (scalar, word), each word
    a tuple of (generator index, exponent >= 0).
    """

    N: int
    scalar_order: int
    gens: tuple
    degrees: tuple
    bounds: tuple
    power_rhs: tuple
    straighten: dict


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
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
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

    def _init_common(self, signature, N, scalar_order, basis, degrees, labels, unit_mono):
        self.signature = signature
        self.N = N
        self.scalar_order = scalar_order
        self.basis = tuple(basis)
        self.mono_degrees = tuple(d % N for d in degrees)
        self.labels = tuple(labels)
        self.unit_mono = unit_mono
        self.index = {m: i for i, m in enumerate(self.basis)}
        self._pair_cache = {}

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

    def unit(self):
        return AlgebraElement(self, {self.unit_mono: 1})

    def element_from_column(self, col):
        return AlgebraElement(self, {self.basis[i]: c for i, c in col.items()})

    def element_to_json(self, a):
        out = []
        for m in sorted(a.terms):
            key = list(m) if isinstance(m, tuple) else m
            out.append([key, format_scalar(a.terms[m])])
        return out

    # -- multiplication ---------------------------------------------------------

    def pair_product(self, ma, mb):
        key = (ma, mb)
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = self._pair_product_raw(ma, mb)
            self._pair_cache[key] = hit
        return hit

    def multiply(self, a, b):
        terms = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                cab = ca * cb
                for m, s in self.pair_product(ma, mb).items():
                    v = terms.get(m, 0) + cab * s
                    if v:
                        terms[m] = v
                    else:
                        terms.pop(m, None)
        return AlgebraElement(self, terms)

    # -- regular representation ----------------------------------------------------

    def left_mult_operator(self, a):
        data = {}
        for j, mb in enumerate(self.basis):
            for ma, ca in a.terms.items():
                for mc, s in self.pair_product(ma, mb).items():
                    key = (self.index[mc], j)
                    v = data.get(key, 0) + ca * s
                    if v:
                        data[key] = v
                    else:
                        data.pop(key, None)
        return Mat(self.dim, self.dim, data)

    def right_mult_operator(self, a):
        data = {}
        for j, mb in enumerate(self.basis):
            for ma, ca in a.terms.items():
                for mc, s in self.pair_product(mb, ma).items():
                    key = (self.index[mc], j)
                    v = data.get(key, 0) + ca * s
                    if v:
                        data[key] = v
                    else:
                        data.pop(key, None)
        return Mat(self.dim, self.dim, data)

    # -- verification -----------------------------------------------------------

    def mult_map(self):
        """The product m: A (x) A -> A as a GradedMap."""
        n = self.dim
        data = {}
        for ja, ma in enumerate(self.basis):
            for jb, mb in enumerate(self.basis):
                for m, s in self.pair_product(ma, mb).items():
                    data[(self.index[m], ja * n + jb)] = s
        V = self.graded_space()
        return GradedMap(tensor(V, V), V, Mat(n, n * n, data))

    def unit_map(self):
        """The unit u: I -> A as a GradedMap."""
        return GradedMap(GradedSpace.unit(self.N), self.graded_space(),
                         Mat(self.dim, 1, {(self.index[self.unit_mono], 0): 1}))

    def verify_associativity(self):
        """m.(m (x) id) = m.(id (x) m) and m.(u (x) id) = id = m.(id (x) u),
        each compared one basis input at a time by map_check."""
        check_guard(self.dim, "associativity sweep")
        m, u = diagram(self.mult_map()), self.unit_map()
        idv = GradedMap.identity(self.graded_space())
        units = [
            map_check("unitality", m @ tensor_diagram(*law), idv,
                      "unit monomial %s" % self.mono_label(self.unit_mono))
            for law in ((u, idv), (idv, u))
        ]
        return [
            map_check("associativity", m @ tensor_diagram(m, idv),
                      m @ tensor_diagram(idv, m),
                      "all %d^3 basis triples" % self.dim),
            next((c for c in units if c["status"] == FAIL), units[0]),
        ]

    def compute_center(self):
        """Basis of the center: joint kernel of ad(g) over the generators."""
        check_guard(self.dim, "center computation")
        space = Mat.identity(self.dim)
        for _, g in self.generators():
            ad = self.left_mult_operator(g) - self.right_mult_operator(g)
            restricted = ad * space
            space = space * from_cols(space.cols, restricted.kernel_basis())
            if space.cols == 0:
                break
        return [self.element_from_column(space.col_dict(j)) for j in range(space.cols)]


class PresentedAlgebra(FiniteDimAlgebra):
    """Algebra of normal monomials of a Presentation, multiplied by rewriting."""

    def __init__(self, pres: Presentation, signature=None):
        self.pres = pres
        k = len(pres.gens)
        if not (len(pres.degrees) == len(pres.bounds) == len(pres.power_rhs) == k):
            raise ValueError("presentation field lengths disagree")
        basis = list(itertools.product(*(range(b) for b in pres.bounds)))
        degrees = [sum(e * d for e, d in zip(m, pres.degrees)) % pres.N for m in basis]
        labels = [self._label_of(m) for m in basis]
        self._init_common(
            signature or ("presented", pres.gens, pres.bounds),
            pres.N, pres.scalar_order, basis, degrees, labels, (0,) * k)

    def _label_of(self, mono):
        parts = []
        for name, e in zip(self.pres.gens, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"

    def gen(self, name):
        gi = self.pres.gens.index(name)
        mono = tuple(1 if i == gi else 0 for i in range(len(self.pres.gens)))
        return AlgebraElement(self, {mono: 1})

    def generators(self):
        return [(name, self.gen(name)) for name in self.pres.gens]

    def normal_form(self, word):
        """Normalize a word of (generator name or index, integer exponent) pairs."""
        coeff = 1
        runs = []
        for g, e in word:
            gi = g if isinstance(g, int) else self.pres.gens.index(g)
            if e == 0:
                continue
            if e < 0:
                rhs = self.pres.power_rhs[gi]
                if not rhs:
                    raise ValueError(
                        "negative exponent on nilpotent generator %r"
                        % self.pres.gens[gi])
                q, e = divmod(e, self.pres.bounds[gi])
                if rhs != 1:
                    coeff = coeff * rhs ** q
                if e == 0:
                    continue
            runs.append((gi, e))
        return AlgebraElement(self, self._normalize(coeff, runs))

    def _pair_product_raw(self, ma, mb):
        runs = [(i, e) for i, e in enumerate(ma) if e]
        runs += [(i, e) for i, e in enumerate(mb) if e]
        return self._normalize(1, runs)

    def _normalize(self, coeff, runs):
        pres = self.pres
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
                s = out.get(mono, 0) + c
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
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
        return out


class StructureConstantAlgebra(FiniteDimAlgebra):
    """Algebra given by an explicit basis and a pairwise product rule."""

    def __init__(self, signature, N, scalar_order, basis, degrees, labels,
                 unit_mono, pair_rule, generator_monos):
        self._init_common(signature, N, scalar_order, basis, degrees, labels, unit_mono)
        self._pair_rule = pair_rule
        self._generator_monos = tuple(generator_monos)

    def _pair_product_raw(self, ma, mb):
        return self._pair_rule(ma, mb)

    def gen(self, name):
        for n, mono in self._generator_monos:
            if n == name:
                return AlgebraElement(self, {mono: 1})
        raise ValueError("no generator named %r" % name)

    def generators(self):
        return [(n, AlgebraElement(self, {m: 1})) for n, m in self._generator_monos]


# ---------------------------------------------------------------------------
# the named algebras
# ---------------------------------------------------------------------------


def is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _require_prime(p):
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))


def taft(p):
    """The p^2-dimensional ordinary Hopf algebra with g^p=1, x^p=0, gx = xi*xg."""
    _require_prime(p)
    xi = root_of_unity(p)
    g, x = 0, 1
    pres = Presentation(
        N=1, scalar_order=p,
        gens=("g", "x"), degrees=(0, 0),
        bounds=(p, p), power_rhs=(1, 0),
        straighten={(x, g): ((xi ** -1, ((g, 1), (x, 1))),)},
    )
    A = PresentedAlgebra(pres, signature=("taft", p))
    A.p, A.xi = p, xi
    return A


def nilpotent_line(p, name="x", degree=1):
    """k[name]/name^p with the generator in the given degree of Z/p."""
    pres = Presentation(
        N=p, scalar_order=p,
        gens=(name,), degrees=(degree % p,),
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

    def rule(i, j):
        if i + j >= p:
            return {}
        return {i + j: root_of_unity(p, -i * j) * q_binomial(i + j, i, xi)}

    A = StructureConstantAlgebra(
        signature=("dual_anyonic", p), N=p, scalar_order=p,
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
        N=p, scalar_order=p,
        gens=("z", "g", "x"), degrees=(p - 1, 0, 1),
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
        N=p, scalar_order=p,
        gens=("F", "K", "E"), degrees=(p - 1, 0, 1),
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


def _image_of_word(target, images_by_index, word):
    out = target.unit()
    for gi, e in word:
        out = out * images_by_index[gi] ** e
    return out


def induced_linear_map(source, target, images):
    """Matrix of the linear extension of the generator images on normal bases."""
    names = source.pres.gens
    powers = []
    for i, name in enumerate(names):
        row = [target.unit()]
        for _ in range(1, source.pres.bounds[i]):
            row.append(row[-1] * images[name])
        powers.append(row)
    cols = []
    for mono in source.basis:
        elem = target.unit()
        for i, e in enumerate(mono):
            if e:
                elem = elem * powers[i][e]
        cols.append(elem.as_column())
    return from_cols(target.dim, cols)


def algebra_morphism(source, target, images, check_bijective=True):
    """Verify a generator-image assignment defines an algebra map; report per relation.

    source must be a PresentedAlgebra; images maps each generator name to an
    element of target.  Optionally certifies bijectivity via the induced
    linear map on normal bases.
    """
    pres = source.pres
    names = pres.gens
    imgs = [images[name] for name in names]
    checks = []
    for i, name in enumerate(names):
        rhs = pres.power_rhs[i]
        residual = imgs[i] ** pres.bounds[i] - rhs * target.unit()
        checks.append(check(
            "relation %s^%d = %s" % (name, pres.bounds[i], format_scalar(rhs)),
            residual.is_zero(),
            "",
            [] if residual.is_zero() else
            [{"relation": "%s^%d" % (name, pres.bounds[i]),
              "residual": target.element_to_json(residual)}],
        ))
    for (hi, lo), rule in sorted(pres.straighten.items()):
        expected = target.zero()
        for s, word in rule:
            expected = expected + s * _image_of_word(target, imgs, word)
        residual = imgs[hi] * imgs[lo] - expected
        label = "%s*%s" % (names[hi], names[lo])
        checks.append(check(
            "relation %s straightens" % label,
            residual.is_zero(),
            "",
            [] if residual.is_zero() else
            [{"relation": label, "residual": target.element_to_json(residual)}],
        ))
    if check_bijective:
        mat = induced_linear_map(source, target, images)
        rank = mat.rank()
        ok = source.dim == target.dim and rank == target.dim
        checks.append(check(
            "bijective",
            ok,
            "induced linear map rank %d, source dim %d, target dim %d"
            % (rank, source.dim, target.dim),
            [] if ok else [{"rank": rank, "source_dim": source.dim,
                            "target_dim": target.dim}],
        ))
    return checks
