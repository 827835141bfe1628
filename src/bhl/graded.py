"""Z/N-graded vector spaces and the braided category (Vec_{Z/N}, chi).

A bicharacter chi(i,j) = zeta_N^(c*i*j) turns graded vector spaces into a
braided category: the braiding swaps tensor factors at the cost of a chi
scalar, the twist is theta(v) = chi(x,x) v on degree x, and anti-twists are
the degree-wise scalars satisfying the inverse-square law
sigma(i+j) = omega(i,j)^(-1) sigma(i) sigma(j) with omega = chi * chi-flipped.

Spaces carry a flat ordered basis (one degree per basis vector) and a
label per basis vector.  Labels are kept as given, or as a LazyLabels
sequence that names label j only when it is read: tensor() lists the
degrees of V (x) W and names its labels from those of V and W, a space
with no labels given names them v0, v1, ..., and a presented algebra and
the regular AYD module name their monomials.  Maps are
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
product of maps never lists its basis.  Its leaves are given by columns:
a GradedMap's, built once per map (diagram), or columns computed when
read, as for the braiding, the duality maps and an algebra's product
(word_leaf).  The tensor product of two sparse columns has one kernel,
_kron_into, which puts entry (r, s) at r * width + s: the lazy tensor
product, hopf's braided square and tensor columns, and algebras' products
on pairs all call it.
"""

from __future__ import annotations

import itertools
import math
import operator

from .exactmat import Mat, _add_into
from .scalars import power, root_of_unity


class Bicharacter:
    """chi(i,j) = zeta_N^(c*i*j) on Z/N x Z/N; the powers of zeta_N it
    returns come from the one shared table, scalars.root_of_unity."""

    __slots__ = ("N", "c")

    def __init__(self, N, c=1):
        if N < 1:
            raise ValueError("N must be positive")
        self.N = N
        self.c = c % N

    def chi(self, i, j):
        return root_of_unity(self.N, self.c * i * j)

    def theta(self, i):
        return root_of_unity(self.N, self.c * i * i)

    def __eq__(self, other):
        return isinstance(other, Bicharacter) and (self.N, self.c) == (other.N, other.c)

    def __hash__(self):
        return hash((self.N, self.c))

    def __repr__(self):
        return "Bicharacter(N=%d, c=%d)" % (self.N, self.c)


class GradedSpace:
    """A finite-dimensional Z/N-graded space with an ordered homogeneous basis.

    A space made by tensor() remembers its factors (unit factors dropped),
    so lazy diagrams can match tensor products without listing their bases,
    and keeps its labels as a sequence that names each one when read.
    """

    __slots__ = ("N", "degrees", "labels", "factors")

    def __init__(self, N, degrees, labels=None):
        self.N = N
        self.factors = None
        self.degrees = tuple(d % N for d in degrees)
        if labels is None:
            labels = LazyLabels(len(self.degrees), "v%d".__mod__)
        elif not isinstance(labels, LazyLabels):
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
        return GradedSpace(N, [deg for deg, dim in dims for _ in range(dim)])

    @property
    def dim(self):
        return len(self.degrees)

    def __eq__(self, other):
        # labels are bookkeeping only: I (x) V and V agree on the nose
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return self.N == other.N and self.degrees == other.degrees

    def __hash__(self):
        return hash((self.N, self.degrees))

    def __repr__(self):
        return "GradedSpace(N=%d, degrees=%s)" % (self.N, list(self.degrees))


def tensor(V: GradedSpace, W: GradedSpace) -> GradedSpace:
    """V (x) W with the flat row-major basis v_i (x) w_j; degrees add, and
    labels are named when read."""
    if V.N != W.N:
        raise ValueError("grading group mismatch: N=%d vs N=%d" % (V.N, W.N))
    degrees = (dv + dw for dv in V.degrees for dw in W.degrees)
    labels = LazyLabels(V.dim * W.dim, _tensor_label((V, W)))
    out = GradedSpace(V.N, degrees, labels)
    out.factors = _word(V) + _word(W)
    return out


class LazyLabels:
    """The labels of a basis of n vectors, label j named by name(j) when
    it is read; none is listed.

    name must not refer back to the object that keeps the labels, as a
    bound method of it would: that is a reference cycle, which keeps the
    object and its caches alive until the cyclic collector runs (see
    algebras.PresentedAlgebra.extend).
    """

    __slots__ = ("_name", "_len")

    def __init__(self, n, name):
        self._name, self._len = name, n

    def __len__(self):
        return self._len

    def __getitem__(self, j):
        return self._name(range(self._len)[j])


def _tensor_label(spaces):
    """j |-> the label tensor() gives basis vector j of the product of
    spaces: a unit factor (one basis vector, of degree 0) is left out."""
    named = [V for V in spaces
             if not (V.dim == 1 and V.degrees == (0,))] or spaces[-1:]

    def label(j):
        out = []
        for V in reversed(named):
            j, k = divmod(j, V.dim)
            out.append(V.labels[k])
        return "*".join(out[::-1])

    return label


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

    __slots__ = ("source", "target", "shift", "mat", "_leaf")

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
                raise homogeneity_error(r, c, target.degrees[r],
                                        source.degrees[c], shift)
        self.source = source
        self.target = target
        self.shift = shift
        self.mat = mat
        self._leaf = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def identity(V):
        return GradedMap(V, V, Mat.identity(V.dim))

    @staticmethod
    def zero(V, W, shift=0):
        return GradedMap(V, W, Mat.zeros(W.dim, V.dim), shift)

    @staticmethod
    def from_diagonal(V, scalar_of_degree):
        """Diagonal shift-0 map v |-> scalar_of_degree(deg v) * v, with
        scalar_of_degree called once per distinct degree."""
        values = {d: scalar_of_degree(d) for d in dict.fromkeys(V.degrees)}
        return GradedMap(V, V, Mat.diagonal([values[d] for d in V.degrees]))

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


def homogeneity_error(r, c, target_deg, source_deg, shift):
    """The error for entry (r, c) of a map that is not homogeneous."""
    return ValueError("entry (%d,%d) breaks homogeneity: target deg %d != "
                      "source deg %d + %d"
                      % (r, c, target_deg, source_deg, shift))


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


def _kron_into(out, x, y, width, c=1):
    """out += c * x (x) y for sparse columns x and y, y of dimension width:
    the entry x_r y_s goes to index r * width + s (row-major, as tensor())."""
    for r, a in x.items():
        ca, base = _times(c, a), r * width
        for s, b in y.items():
            _add_into(out, base + s, _times(ca, b))


class Diagram:
    """A map built lazily from leaves (_Leaf) by tensor and composition.

    No product matrix is ever formed.  Source and target are tensor words
    (tuples of GradedSpace factors), and a column is computed by pushing a
    basis vector through the diagram on sparse {row: scalar} vectors, with
    (f (x) g)(e_i (x) e_j) = f(e_i) (x) g(e_j); apply(vec) pushes any
    sparse vector {source index: scalar} through.  An entry or coefficient
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
    """A map given by its columns: column(j) is the image of source basis
    vector j as {row: scalar}, label(j) its name, called when it is read."""

    __slots__ = ("_column", "label")

    def __init__(self, N, source, target, shift, column, label):
        self.N = N
        self.source, self.target = source, target
        self.shift = shift % N
        self._column, self.label = column, label

    def apply(self, vec):
        column = self._column
        out = {}
        for j, c in vec.items():
            for r, a in column(j).items():
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

    def apply(self, vec):
        out = {}
        for j, c in vec.items():
            self._add_image(out, j, c)
        return out

    def _add_image(self, out, j, c):
        """out += c * f(e_i) (x) g(e_k), where j is the index of e_i (x) e_k."""
        i, k = divmod(j, self._right_src)
        right = self._right._column(k)
        _kron_into(out, self._left._column(i), right, self._right_tgt, c)


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
        return self._outer.apply(self._inner._column(j))

    def apply(self, vec):
        return self._outer.apply(self._inner.apply(vec))


def diagram(f):
    """f as a Diagram: a GradedMap becomes a leaf, built once and kept on
    the map (GradedMaps are not mutated), a Diagram is kept."""
    if isinstance(f, Diagram):
        return f
    if isinstance(f, GradedMap):
        if f._leaf is None:
            cols = [{} for _ in range(f.source.dim)]
            for (r, c), v in f.mat.data.items():
                cols[c][r] = v
            f._leaf = word_leaf((f.source,), (f.target,), cols.__getitem__,
                                f.shift)
        return f._leaf
    raise TypeError("not a map: %r" % (f,))


def word_leaf(source, target, column, shift=0):
    """The leaf from the tensor word of the spaces in source to that of
    target, with the given columns and the labels tensor() gives the
    source's basis, which is not listed."""
    return _Leaf(source[0].N, sum(map(_word, source), ()),
                 sum(map(_word, target), ()), shift, column,
                 _tensor_label(source))


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
                _add_into(diff, r, -v)
            return j, diff
    return None


def braiding(V: GradedSpace, W: GradedSpace, chi: Bicharacter) -> Diagram:
    """tau: V (x) W -> W (x) V,  v (x) w |-> chi(deg v, deg w) w (x) v, a
    diagram leaf whose column v_i (x) w_k is {k dim V + i: chi(deg v_i,
    deg w_k)}, taken from chi's cached roots when it is read."""
    n, width, dv, dw = V.dim, W.dim, V.degrees, W.degrees

    def column(j):
        i, k = divmod(j, width)
        return {k * n + i: chi.chi(dv[i], dw[k])}

    return word_leaf((V, W), (W, V), column)


def braiding_inverse(V: GradedSpace, W: GradedSpace, chi: Bicharacter) -> Diagram:
    """Inverse of braiding(V, W): W (x) V -> V (x) W with chi(deg v, deg w)^(-1).

    chi is symmetric, so this is the braiding of W and V for chi^(-1).
    """
    return braiding(W, V, Bicharacter(chi.N, -chi.c))


def twist_theta(V: GradedSpace, chi: Bicharacter) -> GradedMap:
    """theta(v) = chi(x, x) v on degree x."""
    return GradedMap.from_diagonal(V, chi.theta)


class AntiTwist:
    """The anti-twist sigma lambda_t of (Vec_{Z/N}, chi), stored by chi and
    parameter = t mod N: degree i has the scalar zeta^(-c i^2 + t i).

    Every such sigma satisfies sigma(i+j) = omega(i,j)^(-1) sigma(i) sigma(j)
    with omega(i,j) = zeta^(2cij), since -c(i+j)^2 = -ci^2 - cj^2 - 2cij and
    t(i+j) = ti + tj.  Every anti-twist is one of these: for nonzero s
    satisfying the law, i |-> s(i) zeta^(c i^2) is a character of Z/N, so it
    is some lambda_t(i) = zeta^(t i).
    """

    __slots__ = ("chi", "parameter")

    def __init__(self, chi: Bicharacter, t: int):
        self.chi = chi
        self.parameter = t % chi.N

    def __call__(self, degree):
        return root_of_unity(self.chi.N,
                             degree * (self.parameter - self.chi.c * degree))

    def __eq__(self, other):
        return (isinstance(other, AntiTwist) and self.chi == other.chi
                and self.parameter == other.parameter)

    def __hash__(self):
        return hash((self.chi, self.parameter))

    def __repr__(self):
        return "AntiTwist(N=%d, c=%d, t=%d)" % (self.chi.N, self.chi.c, self.parameter)


def anti_twist(V: GradedSpace, sigma: AntiTwist) -> GradedMap:
    return GradedMap.from_diagonal(V, sigma)


def duality(kind, V: GradedSpace) -> Diagram:
    """The duality map of V named kind, a diagram leaf on its tensor words:

    ev:     V^ (x) V  -> I      e^i (x) e_j |-> delta_ij
    ev_l:   V  (x) ^V -> I      e_i (x) ^e_j |-> delta_ij
    coev:   I -> V (x) V^       1 |-> sum e_i (x) e^i
    coev_l: I -> ^V (x) V       1 |-> sum ^e_i (x) e_i
    """
    n, I = V.dim, GradedSpace.unit(V.N)
    dual = left_dual(V) if kind in ("ev", "coev") else right_dual(V)
    word = (dual, V) if kind in ("ev", "coev_l") else (V, dual)
    if kind.startswith("ev"):
        return word_leaf(word, (I,), lambda j: {} if j % (n + 1) else {0: 1})
    copair = {i * (n + 1): 1 for i in range(n)}
    return word_leaf((I,), word, lambda j: copair)
