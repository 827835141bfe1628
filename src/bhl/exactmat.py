"""Sparse matrices over the exact scalars (int / Fraction / Cyclotomic).

Entries live in a flat dict keyed by (row, col); zeros are never stored.
Everything downstream (rank, kernels, inverses, centers) reduces to the
fraction-style Gauss-Jordan elimination here, so this module has no idea
about gradings or algebras — it only needs scalars that support
+ - * and exact inversion.

Elimination keeps a column index, the rows holding each column, updated
as fill creates and cancels entries, so a column's pivot search and its
eliminations visit only those rows.  The pivot rule is that of a scan:
in current row order among the rows not yet pivoted, the first row of
length <= 2, else the first of minimal length.  A pivot row is scaled by
the inverse of its lead, except a row with a single entry: that entry
becomes 1 of the type the product would have (Cyclotomic or Fraction),
with no inverse taken.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Cyclotomic, power


def _inv_scalar(x):
    if isinstance(x, Cyclotomic):
        return x.inverse()
    return Fraction(1) / Fraction(x)


class Mat:
    """An immutable-by-convention sparse exact matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        clean = {}
        if data:
            for key, value in data.items():
                if value:
                    i, j = key
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise IndexError("entry %r outside %dx%d" % (key, rows, cols))
                    clean[key] = value
        self.data = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows_list):
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        data = {}
        for i, row in enumerate(rows_list):
            if len(row) != c:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    data[i, j] = v
        return Mat(r, c, data)

    @staticmethod
    def identity(n):
        return Mat(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def zeros(rows, cols):
        return Mat(rows, cols)

    @staticmethod
    def diagonal(values):
        vals = list(values)
        return Mat(len(vals), len(vals), {(i, i): v for i, v in enumerate(vals)})

    # -- access --------------------------------------------------------------

    def __getitem__(self, key):
        return self.data.get(key, 0)

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __hash__(self):
        raise TypeError("Mat is unhashable")

    def __repr__(self):
        return "Mat(%dx%d, %d entries)" % (self.rows, self.cols, len(self.data))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        data = dict(self.data)
        for key, v in other.data.items():
            s = data.get(key)
            s = v if s is None else s + v
            if s:
                data[key] = s
            else:
                data.pop(key, None)
        return Mat(self.rows, self.cols, data)

    def __neg__(self):
        return Mat(self.rows, self.cols, {k: -v for k, v in self.data.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        if not scalar:
            return Mat.zeros(self.rows, self.cols)
        return Mat(self.rows, self.cols, {k: scalar * v for k, v in self.data.items()})

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch in *: %dx%d times %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        by_row = {}
        for (k, j), v in other.data.items():
            by_row.setdefault(k, []).append((j, v))
        acc = {}
        for (i, k), a in self.data.items():
            hits = by_row.get(k)
            if hits:
                for j, b in hits:
                    key = (i, j)
                    s = acc.get(key)
                    s = a * b if s is None else s + a * b
                    if s:
                        acc[key] = s
                    else:
                        acc.pop(key, None)
        return Mat(self.rows, other.cols, acc)

    def __pow__(self, e):
        if self.rows != self.cols or e < 0:
            raise ValueError("power needs a square matrix and e >= 0")
        return power(self, e, lambda: Mat.identity(self.rows))

    # -- elimination -----------------------------------------------------------

    def _row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        return rows

    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list)."""
        rows, pivots = _eliminate(self._row_dicts(), self.cols)
        data = {(i, j): v for i, r in enumerate(rows) for j, v in r.items()}
        return Mat(self.rows, self.cols, data), pivots

    def rank(self):
        _, pivots = _eliminate(self._row_dicts(), self.cols)
        return len(pivots)

    def kernel_basis(self):
        """Basis of the right kernel as a list of sparse columns {row: scalar}."""
        rows, pivots = _eliminate(self._row_dicts(), self.cols)
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            vec = {free: 1}
            for r, p in enumerate(pivots):
                v = rows[r].get(free)
                if v:
                    vec[p] = -v
            basis.append(vec)
        return basis

    def nullity(self):
        return self.cols - self.rank()

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        rows = self._row_dicts()
        for i, r in enumerate(rows):
            r[n + i] = 1
        reduced, pivots = _eliminate(rows, 2 * n)
        if pivots[:n] != list(range(n)) or len(pivots) < n:
            raise ValueError("matrix is singular")
        return Mat(n, n, {(i, j - n): v for i, r in enumerate(reduced[:n])
                          for j, v in r.items() if j >= n})

    # -- combination ------------------------------------------------------------

    def kron(self, other):
        """Kronecker product, row-major index convention."""
        data = {}
        for (i, j), a in self.data.items():
            for (k, l), b in other.data.items():
                data[i * other.rows + k, j * other.cols + l] = a * b
        return Mat(self.rows * other.rows, self.cols * other.cols, data)


def _eliminate(rows, ncols):
    """Gauss-Jordan on a list of {col: scalar} rows; returns (rows, pivots).
    holders[col] is the set of rows, by input position, with an entry in
    col."""
    holders = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for j in row:
            holders[j].add(r)
    order = list(range(len(rows)))  # current position -> row
    where = list(order)  # row -> current position
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = best = None
        for pos in sorted(where[r] for r in holders[col] if where[r] >= rank):
            size = len(rows[order[pos]])
            if best is None or size < best:
                piv, best = pos, size
                if size <= 2:
                    break
        if piv is None:
            continue
        r, top = order[piv], order[rank]
        order[rank], order[piv] = r, top
        where[r], where[top] = rank, piv
        prow = rows[r]
        lead = prow[col]
        if lead != 1:
            if len(prow) == 1:  # lead/lead without the inverse, same type
                one = lead ** 0 if isinstance(lead, Cyclotomic) else Fraction(1)
                prow = rows[r] = {col: one}
            else:
                inv = _inv_scalar(lead)
                prow = rows[r] = {j: inv * v for j, v in prow.items()}
        for t in holders[col] - {r}:
            row = rows[t]
            nf = -row[col]  # negated once per row, not once per entry
            for j, v in prow.items():
                s = row.get(j)
                if s is None:
                    row[j] = nf * v
                    holders[j].add(t)
                else:
                    s = s + nf * v
                    if s:
                        row[j] = s
                    else:
                        del row[j]
                        holders[j].discard(t)
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return [rows[r] for r in order[:len(pivots)]], pivots


def from_cols(nrows, cols):
    """Assemble a Mat whose columns are the given sparse {row: scalar} dicts."""
    data = {}
    for j, col in enumerate(cols):
        for i, v in col.items():
            if v:
                data[i, j] = v
    return Mat(nrows, len(cols), data)
