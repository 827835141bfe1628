"""Z/N-graded vector spaces and the braided category (Vec_{Z/N}, chi).

A bicharacter chi(i,j) = zeta_N^(c*i*j) turns graded vector spaces into a
braided category: the braiding swaps tensor factors at the cost of a chi
scalar, the twist is theta(v) = chi(x,x) v on degree x, and anti-twists are
the degree-wise scalars satisfying the inverse-square law
sigma(i+j) = omega(i,j)^(-1) sigma(i) sigma(j) with omega = chi * chi-flipped.

Spaces carry a flat ordered basis (one degree per basis vector); maps are
sparse exact matrices with a degree shift, and homogeneity is enforced at
construction.  Shift-0 maps are the categorical morphisms; the shifted ones
are what algebra generators act by.  @ materialises composites of
operators on one space, such as the actions on a module.  tensor_map
materialises a tensor product as a Kronecker product; nothing in bhl
calls it, and the tests keep it as the matrix oracle for the lazy route.
A Diagram applies tensor products and composites one basis vector at a
time, and first_difference compares two maps that way; every identity
check in bhl goes through it.  Its source and target are tensor words, and
it names a source basis vector from the word (Diagram.label), so a tensor
product of maps never lists its basis.
"""

from __future__ import annotations

import itertools
import math
import operator

from .exactmat import Mat
from .scalars import format_scalar, power, root_exponent, root_of_unity


class Bicharacter:
    """chi(i,j) = zeta_N^(c*i*j) on Z/N x Z/N."""

    __slots__ = ("N", "c")

    def __init__(self, N, c=1):
        if N < 1:
            raise ValueError("N must be positive")
        self.N = N
        self.c = c % N

    def chi(self, i, j):
        return root_of_unity(self.N, self.c * i * j)

    def chi_inv(self, i, j):
        return root_of_unity(self.N, -self.c * i * j)

    def omega(self, i, j):
        """omega(i,j) = chi(i,j) chi(j,i) = zeta^(2c i j)."""
        return root_of_unity(self.N, 2 * self.c * i * j)

    def theta(self, i):
        return self.chi(i, i)

    def __eq__(self, other):
        return isinstance(other, Bicharacter) and (self.N, self.c) == (other.N, other.c)

    def __hash__(self):
        return hash((self.N, self.c))

    def __repr__(self):
        return "Bicharacter(N=%d, c=%d)" % (self.N, self.c)


class GradedSpace:
    """A finite-dimensional Z/N-graded space with an ordered homogeneous basis.

    A space made by tensor() remembers its factors (unit factors dropped),
    so lazy diagrams can match tensor products without listing their bases.
    """

    __slots__ = ("N", "degrees", "labels", "factors")

    def __init__(self, N, degrees, labels=None):
        self.N = N
        self.factors = None
        self.degrees = tuple(d % N for d in degrees)
        if labels is None:
            labels = tuple("v%d" % i for i in range(len(self.degrees)))
        else:
            labels = tuple(labels)
            if len(labels) != len(self.degrees):
                raise ValueError("label count != basis size")
        self.labels = labels

    @staticmethod
    def unit(N):
        return GradedSpace(N, (0,), ("1",))

    @staticmethod
    def from_dims(N, dims):
        """dims: iterable of (degree, dimension) pairs, in construction order."""
        degrees, labels = [], []
        for deg, dim in dims:
            for k in range(dim):
                labels.append("v%d" % len(labels))
                degrees.append(deg)
        return GradedSpace(N, degrees, labels)

    @property
    def dim(self):
        return len(self.degrees)

    def dims_by_degree(self):
        out = [0] * self.N
        for d in self.degrees:
            out[d] += 1
        return tuple(out)

    def __eq__(self, other):
        # labels are bookkeeping only: I (x) V and V agree on the nose
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return self.N == other.N and self.degrees == other.degrees

    def __hash__(self):
        return hash((self.N, self.degrees))

    def __repr__(self):
        return "GradedSpace(N=%d, degrees=%s)" % (self.N, list(self.degrees))

    def to_json(self):
        return {
            "N": self.N,
            "degrees": list(self.degrees),
            "labels": list(self.labels),
        }


def tensor(V: GradedSpace, W: GradedSpace) -> GradedSpace:
    """V (x) W with the flat row-major basis v_i (x) w_j; degrees add."""
    if V.N != W.N:
        raise ValueError("grading group mismatch: N=%d vs N=%d" % (V.N, W.N))
    degrees = [dv + dw for dv in V.degrees for dw in W.degrees]
    if V.dim == 1 and V.degrees == (0,):
        labels = W.labels
    elif W.dim == 1 and W.degrees == (0,):
        labels = V.labels
    else:
        labels = tuple(
            "%s*%s" % (lv, lw) for lv in V.labels for lw in W.labels
        )
    out = GradedSpace(V.N, degrees, labels)
    out.factors = _word(V) + _word(W)
    return out


def left_dual(V: GradedSpace) -> GradedSpace:
    """V^ : same basis order, degrees negated."""
    return GradedSpace(V.N, [-d for d in V.degrees],
                       tuple(l + "^" for l in V.labels))


def right_dual(V: GradedSpace) -> GradedSpace:
    """^V : same basis order, degrees negated."""
    return GradedSpace(V.N, [-d for d in V.degrees],
                       tuple("^" + l for l in V.labels))


class GradedMap:
    """A homogeneous exact linear map source -> target of fixed degree shift."""

    __slots__ = ("source", "target", "shift", "mat")

    def __init__(self, source, target, mat, shift=0):
        if source.N != target.N:
            raise ValueError("grading group mismatch")
        if mat.rows != target.dim or mat.cols != source.dim:
            raise ValueError(
                "matrix is %dx%d but map needs %dx%d"
                % (mat.rows, mat.cols, target.dim, source.dim)
            )
        N = source.N
        shift %= N
        for (r, c) in mat.data:
            if (target.degrees[r] - source.degrees[c] - shift) % N:
                raise ValueError(
                    "entry (%d,%d) breaks homogeneity: target deg %d != source deg %d + %d"
                    % (r, c, target.degrees[r], source.degrees[c], shift)
                )
        self.source = source
        self.target = target
        self.shift = shift
        self.mat = mat

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def identity(V):
        return GradedMap(V, V, Mat.identity(V.dim))

    @staticmethod
    def zero(V, W, shift=0):
        return GradedMap(V, W, Mat.zeros(W.dim, V.dim), shift)

    @staticmethod
    def from_diagonal(V, scalar_of_degree):
        """Diagonal shift-0 map v |-> scalar_of_degree(deg v) * v."""
        return GradedMap(
            V, V, Mat.diagonal([scalar_of_degree(d) for d in V.degrees])
        )

    # -- category structure -----------------------------------------------------

    def __matmul__(self, other):
        """self after other (usual composition order)."""
        if not isinstance(other, GradedMap):
            return NotImplemented
        if other.target != self.source:
            raise TypeError(
                "cannot compose: middle objects differ (%r vs %r)"
                % (other.target, self.source)
            )
        return GradedMap(other.source, self.target, self.mat * other.mat,
                         self.shift + other.shift)

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ValueError("shape mismatch in map sum")
        if self.shift != other.shift and not (self.mat.is_zero() or other.mat.is_zero()):
            raise ValueError("cannot add maps of different shifts")
        shift = other.shift if self.mat.is_zero() else self.shift
        return GradedMap(self.source, self.target, self.mat + other.mat, shift)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, scalar):
        return GradedMap(self.source, self.target, self.mat.scale(scalar), self.shift)

    def __pow__(self, e):
        if self.source != self.target:
            raise ValueError("powers need an endomorphism")
        return power(self, e, lambda: GradedMap.identity(self.source),
                     operator.matmul)

    def rank(self):
        return self.mat.rank()

    def is_invertible(self):
        return self.source.dim == self.target.dim and self.mat.rank() == self.source.dim

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        if self.mat.is_zero() and other.mat.is_zero():
            return True
        return self.shift == other.shift and self.mat == other.mat

    def __repr__(self):
        return "GradedMap(%r -> %r, shift=%d, %d entries)" % (
            self.source, self.target, self.shift, len(self.mat.data))

    def to_json(self):
        entries = sorted(
            [r, c, format_scalar(v)] for (r, c), v in self.mat.data.items()
        )
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "shift": self.shift,
            "entries": entries,
        }


def tensor_map(f: GradedMap, g: GradedMap) -> GradedMap:
    """f (x) g on the flat tensor bases; shifts add."""
    return GradedMap(
        tensor(f.source, g.source),
        tensor(f.target, g.target),
        f.mat.kron(g.mat),
        f.shift + g.shift,
    )


# ---------------------------------------------------------------------------
# lazy diagrams: maps applied one basis vector at a time
# ---------------------------------------------------------------------------


def _word(V):
    """V as a tuple of tensor factors; unit factors are dropped (I (x) V is V)."""
    if V.factors is not None:
        return V.factors
    if V.degrees == (0,):
        return ()
    return (V,)


def _word_dim(word):
    return math.prod(V.dim for V in word)


def word_degrees(word, N):
    """The degree of each basis vector of a tensor word, in basis order."""
    return (sum(ds) % N for ds in itertools.product(*(V.degrees for V in word)))


def _same_space(a, b, N):
    """Whether two tensor words are equal as graded spaces over Z/N."""
    if a == b:
        return True
    if _word_dim(a) != _word_dim(b):
        return False
    return all(x == y for x, y in zip(word_degrees(a, N), word_degrees(b, N)))


def _is_unit(word, N):
    """Whether a tensor word is one-dimensional of degree 0, the factor
    whose labels tensor() leaves out."""
    return _word_dim(word) == 1 and sum(V.degrees[0] for V in word) % N == 0


def _times(c, a):
    # a factor that is the integer 1 is passed through, which keeps the
    # other factor's scalar type, exactly as the product would
    if type(c) is int and c == 1:
        return a
    if type(a) is int and a == 1:
        return c
    return c * a


def _add_into(out, key, value):
    old = out.get(key)
    if old is None:
        out[key] = value
    else:
        s = old + value
        if s:
            out[key] = s
        else:
            del out[key]


class Diagram:
    """A map built lazily from GradedMap leaves by tensor and composition.

    No product matrix is ever formed.  Source and target are tensor words
    (tuples of GradedSpace factors), and a column is computed by pushing a
    basis vector through the diagram on sparse {row: scalar} vectors, with
    (f (x) g)(e_i (x) e_j) = f(e_i) (x) g(e_j).  An entry or coefficient
    that is the integer 1 (as in identity maps) is passed through, never
    multiplied.  Build diagrams with diagram(), tensor_diagram() and @
    (usual composition order).  label(j) names source basis vector j as
    tensor() would, without listing the source basis.
    """

    __slots__ = ("N", "source", "target", "shift")

    def __matmul__(self, other):
        """self after other."""
        return _Composite(self, diagram(other))

    def __rmatmul__(self, other):
        return _Composite(diagram(other), self)

    def parallel(self, other):
        """Same grading group, source and target."""
        return (self.N == other.N
                and _same_space(self.source, other.source, self.N)
                and _same_space(self.target, other.target, self.N))

    def columns(self):
        """The image of each source basis vector, in order, as {row: scalar}."""
        for j in range(_word_dim(self.source)):
            yield self._column(j)


class _Leaf(Diagram):
    __slots__ = ("_cols", "_labels")

    def __init__(self, f):
        self.N = f.source.N
        self.source, self.target = _word(f.source), _word(f.target)
        self.shift = f.shift
        cols = [{} for _ in range(f.source.dim)]
        for (r, c), v in f.mat.data.items():
            cols[c][r] = v
        self._cols = cols
        self._labels = f.source.labels

    def label(self, j):
        return self._labels[j]

    def _column(self, j):
        return self._cols[j]

    def _apply(self, vec):
        cols = self._cols
        out = {}
        for j, c in vec.items():
            for r, a in cols[j].items():
                _add_into(out, r, _times(c, a))
        return out


class _Tensor(Diagram):
    __slots__ = ("_left", "_right", "_right_src", "_right_tgt")

    def __init__(self, f, g):
        if f.N != g.N:
            raise ValueError("grading group mismatch: N=%d vs N=%d" % (f.N, g.N))
        self.N = f.N
        self.source = f.source + g.source
        self.target = f.target + g.target
        self.shift = (f.shift + g.shift) % f.N
        self._left, self._right = f, g
        self._right_src = _word_dim(g.source)
        self._right_tgt = _word_dim(g.target)

    def label(self, j):
        f, g = self._left, self._right
        if _is_unit(f.source, self.N):
            return g.label(j)
        if _is_unit(g.source, self.N):
            return f.label(j)
        i, k = divmod(j, self._right_src)
        return "%s*%s" % (f.label(i), g.label(k))

    def _column(self, j):
        out = {}
        self._add_image(out, j, 1)
        return out

    def _apply(self, vec):
        out = {}
        for j, c in vec.items():
            self._add_image(out, j, c)
        return out

    def _add_image(self, out, j, c):
        """out += c * f(e_i) (x) g(e_k), where j is the index of e_i (x) e_k."""
        i, k = divmod(j, self._right_src)
        right = self._right._column(k)
        width = self._right_tgt
        for r, a in self._left._column(i).items():
            ca = _times(c, a)
            base = r * width
            for s, b in right.items():
                _add_into(out, base + s, _times(ca, b))


class _Composite(Diagram):
    __slots__ = ("_outer", "_inner")

    def __init__(self, outer, inner):
        if outer.N != inner.N or not _same_space(inner.target, outer.source,
                                                 outer.N):
            raise TypeError("cannot compose: middle objects differ")
        self.N = outer.N
        self.source, self.target = inner.source, outer.target
        self.shift = (outer.shift + inner.shift) % outer.N
        self._outer, self._inner = outer, inner

    def label(self, j):
        return self._inner.label(j)

    def _column(self, j):
        return self._outer._apply(self._inner._column(j))

    def _apply(self, vec):
        return self._outer._apply(self._inner._apply(vec))


def diagram(f):
    """f as a Diagram: a GradedMap becomes a leaf, a Diagram is kept."""
    if isinstance(f, Diagram):
        return f
    if isinstance(f, GradedMap):
        return _Leaf(f)
    raise TypeError("not a map: %r" % (f,))


def tensor_diagram(*maps):
    """The lazy tensor product of GradedMaps or Diagrams, left to right."""
    out = diagram(maps[0])
    for f in maps[1:]:
        out = _Tensor(out, diagram(f))
    return out


def first_difference(lhs, rhs):
    """The first source column where two parallel maps differ, or None.

    Returns (j, {row: lhs - rhs}) for the smallest j with lhs(e_j) !=
    rhs(e_j); columns after it are never computed.  For parallel maps,
    equal columns is exactly GradedMap equality, shift included: a
    homogeneous nonzero map of one shift differs from one of another shift
    in every column where it is nonzero.
    """
    lhs, rhs = diagram(lhs), diagram(rhs)
    if not lhs.parallel(rhs):
        raise ValueError("maps are not parallel: source or target differ")
    for j, (a, b) in enumerate(zip(lhs.columns(), rhs.columns())):
        if a != b:
            diff = dict(a)
            for r, v in b.items():
                s = diff.get(r, 0) - v
                if s:
                    diff[r] = s
                else:
                    del diff[r]
            return j, diff
    return None


def braiding(V: GradedSpace, W: GradedSpace, chi: Bicharacter) -> GradedMap:
    """tau: V (x) W -> W (x) V,  v (x) w |-> chi(deg v, deg w) w (x) v."""
    data = {}
    for i, dv in enumerate(V.degrees):
        for j, dw in enumerate(W.degrees):
            data[j * V.dim + i, i * W.dim + j] = chi.chi(dv, dw)
    return GradedMap(tensor(V, W), tensor(W, V), Mat(W.dim * V.dim, V.dim * W.dim, data))


def braiding_inverse(V: GradedSpace, W: GradedSpace, chi: Bicharacter) -> GradedMap:
    """Inverse of braiding(V, W): W (x) V -> V (x) W with chi(deg v, deg w)^(-1)."""
    data = {}
    for i, dv in enumerate(V.degrees):
        for j, dw in enumerate(W.degrees):
            data[i * W.dim + j, j * V.dim + i] = chi.chi_inv(dv, dw)
    return GradedMap(tensor(W, V), tensor(V, W), Mat(V.dim * W.dim, W.dim * V.dim, data))


def twist_theta(V: GradedSpace, chi: Bicharacter) -> GradedMap:
    """theta(v) = chi(x, x) v on degree x."""
    return GradedMap.from_diagonal(V, chi.theta)


class AntiTwist:
    """Degree-wise scalars with sigma(i+j) = omega(i,j)^(-1) sigma(i) sigma(j)."""

    __slots__ = ("chi", "values")

    def __init__(self, chi: Bicharacter, values):
        values = tuple(values)
        N, c = chi.N, chi.c
        if len(values) != N:
            raise ValueError("need one scalar per degree 0..N-1")
        # When every value is a power zeta^e, the law at (i, j) is
        # e(i+j) = e(i) + e(j) - 2cij mod N; only a pair where that fails,
        # or values that are not such powers, are compared in the field.
        exps = [root_exponent(v, N) for v in values]
        powers = None not in exps
        for i in range(N):
            for j in range(N):
                if powers and (exps[(i + j) % N] - exps[i] - exps[j]
                               + 2 * c * i * j) % N == 0:
                    continue
                lhs = values[(i + j) % N]
                # omega(i,j)^-1 by lookup: for composite N, zeta^k with
                # k >= phi(N) is no monomial and would take a general solve
                rhs = root_of_unity(N, -2 * c * i * j) * values[i] * values[j]
                if lhs != rhs:
                    raise ValueError(
                        "anti-twist law fails at (%d,%d): %s != %s"
                        % (i, j, lhs, rhs)
                    )
        self.chi = chi
        self.values = values

    @staticmethod
    def with_parameter(chi: Bicharacter, t: int):
        """Canonical anti-twist times the character lambda_t(i) = zeta^(t i)."""
        return AntiTwist(
            chi, [root_of_unity(chi.N, -chi.c * i * i + t * i) for i in range(chi.N)]
        )

    @property
    def parameter(self):
        """The t with self = canonical * lambda_t."""
        for t in range(self.chi.N):
            if all(self.values[i] == root_of_unity(self.chi.N, -self.chi.c * i * i + t * i)
                   for i in range(self.chi.N)):
                return t
        raise ValueError("anti-twist is not of the form canonical * character")

    def __call__(self, degree):
        return self.values[degree % self.chi.N]

    def __eq__(self, other):
        return (isinstance(other, AntiTwist)
                and self.chi == other.chi and self.values == other.values)

    def __hash__(self):
        return hash((self.chi, self.values))

    def __repr__(self):
        return "AntiTwist(N=%d, c=%d, t=%d)" % (self.chi.N, self.chi.c, self.parameter)


def anti_twist(V: GradedSpace, sigma: AntiTwist) -> GradedMap:
    return GradedMap.from_diagonal(V, sigma)


def ev_coev(V: GradedSpace):
    """The four duality maps (ev, ev_l, coev, coev_l).

    ev:     V^ (x) V  -> I      e^i (x) e_j |-> delta_ij
    ev_l:   V  (x) ^V -> I      e_i (x) ^e_j |-> delta_ij
    coev:   I -> V (x) V^       1 |-> sum e_i (x) e^i
    coev_l: I -> ^V (x) V       1 |-> sum ^e_i (x) e_i
    """
    I = GradedSpace.unit(V.N)
    n = V.dim
    dualL = left_dual(V)
    dualR = right_dual(V)
    pair = Mat(1, n * n, {(0, i * n + i): 1 for i in range(n)})
    copair = Mat(n * n, 1, {(i * n + i, 0): 1 for i in range(n)})
    ev = GradedMap(tensor(dualL, V), I, pair)
    ev_l = GradedMap(tensor(V, dualR), I, pair)
    coev = GradedMap(I, tensor(V, dualL), copair)
    coev_l = GradedMap(I, tensor(dualR, V), copair)
    return ev, ev_l, coev, coev_l
