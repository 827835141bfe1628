"""Sparse matrices over the exact scalars (int / Fraction / Cyclotomic).

Entries live in a flat dict keyed by (row, col); zeros are never stored.
Everything downstream (rank, kernels, inverses, centers) reduces to the
sparse echelon elimination here, so this module has no idea about
gradings or algebras — it only needs scalars that support + - * and exact
inversion.

A sparse sum that drops zeros as it goes, here (Mat's + and *, the
back-substitution) or in graded, algebras and hopf, adds through one
accumulator, _add_into, which deletes a sum that reaches zero.  The
elimination below keeps its own loop, as it updates a column index with
each entry that appears or cancels.

Pivot columns are taken in index order and cleared below the pivot only,
through a column index, the unpivoted rows holding each column, kept up
to date as fill creates and cancels entries.  The pivot row is that of a
scan in current row order: the first of length <= 2, else the first of
minimal length.  rank and nullity stop at the echelon form; rref,
kernel_basis and inverse back-substitute upward.  A lead is inverted only
when a row below it or the back-substitution needs it, and a row whose
only entry is its lead becomes 1 of the type the product would have
(Cyclotomic or Fraction), with no inverse taken.

The reduced rows are Gauss-Jordan's with the same pivots, value for
value, and type for type except when partial sums cancel at different
steps (test_eliminations_match_scan_on_random_matrices).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Cyclotomic


def _add_into(out, key, value):
    """out[key] += value for a sparse dict out; a sum that reaches zero is
    deleted, so out never holds a zero."""
    old = out.get(key)
    if old is None:
        out[key] = value
    else:
        s = old + value
        if s:
            out[key] = s
        else:
            del out[key]


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
            _add_into(data, key, v)
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
            for j, b in by_row.get(k, ()):
                _add_into(acc, (i, j), a * b)
        return Mat(self.rows, other.cols, acc)

    # -- elimination -----------------------------------------------------------

    def _row_dicts(self):
        """The nonzero rows, top to bottom, as {col: scalar} dicts.  A zero
        row holds no column, so it never takes a pivot or a fill entry, and
        the elimination of the others is the same without it."""
        rows = {}
        for (i, j), v in self.data.items():
            row = rows.get(i)
            if row is None:
                row = rows[i] = {}
            row[j] = v
        return [rows[i] for i in sorted(rows)]

    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list)."""
        rows, pivots = _echelon(self._row_dicts(), self.cols)
        _back_substitute(rows, pivots)
        data = {(i, j): v for i, r in enumerate(rows) for j, v in r.items()}
        return Mat(self.rows, self.cols, data), pivots

    def rank(self):
        return len(_echelon(self._row_dicts(), self.cols)[1])

    def kernel_basis(self):
        """Basis of the right kernel as a list of sparse columns {row: scalar}:
        one per free column f, with 1 at f and minus column f of the
        reduced rows at their pivots."""
        rows, pivots = _echelon(self._row_dicts(), self.cols)
        _back_substitute(rows, pivots)
        pivot_set = set(pivots)
        basis = {f: {f: 1} for f in range(self.cols) if f not in pivot_set}
        for k, p in enumerate(pivots):
            row, rows[k] = rows[k], None  # freed once read: -v is a new scalar
            for j, v in row.items():
                if j != p:
                    basis[j][p] = -v
        return list(basis.values())

    def nullity(self):
        return self.cols - self.rank()

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        rows = [{n + i: 1} for i in range(n)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        rows, pivots = _echelon(rows, 2 * n)
        if pivots[:n] != list(range(n)) or len(pivots) < n:
            raise ValueError("matrix is singular")
        _back_substitute(rows, pivots)
        return Mat(n, n, {(i, j - n): v for i, r in enumerate(rows)
                          for j, v in r.items() if j >= n})

    # -- combination ------------------------------------------------------------

    def kron(self, other):
        """Kronecker product, row-major index convention."""
        data = {}
        for (i, j), a in self.data.items():
            for (k, l), b in other.data.items():
                data[i * other.rows + k, j * other.cols + l] = a * b
        return Mat(self.rows * other.rows, self.cols * other.cols, data)


def _unit_lead(row, col):
    """row scaled by the inverse of its lead, the entry at col, unless that
    is 1; a one-entry row becomes 1 of the type the product would have
    (Cyclotomic or Fraction), with no inverse taken."""
    lead = row[col]
    if lead == 1:
        return row
    if len(row) == 1:
        return {col: lead ** 0 if isinstance(lead, Cyclotomic) else Fraction(1)}
    inv = _inv_scalar(lead)
    return {j: inv * v for j, v in row.items()}


def _echelon(rows, ncols):
    """Row echelon form of a list of {col: scalar} rows, clearing each
    pivot column below its pivot only; returns (pivot rows, pivots).

    holders[col] is the set of rows, by input position, not yet pivoted
    and with an entry in col.  A pivot row is scaled to lead 1 only when
    rows below it hold its column."""
    holders = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for j in row:
            holders[j].add(r)
    order = list(range(len(rows)))  # current position -> row
    where = list(order)  # row -> current position
    pivots = []
    for col in range(ncols):
        below = holders[col]
        if not below:
            continue
        r = min(below, key=lambda t: (max(len(rows[t]), 2), where[t]))
        rank, pos = len(pivots), where[r]
        top = order[rank]
        order[rank], order[pos] = r, top
        where[r], where[top] = rank, pos
        for j in rows[r]:
            holders[j].discard(r)
        pivots.append(col)
        if below:
            prow = rows[r] = _unit_lead(rows[r], col)
            rest = [(j, v) for j, v in prow.items() if j != col]
            for t in below:
                row = rows[t]
                nf = -row.pop(col)  # negated once per row, not once per entry
                for j, v in rest:
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
            below.clear()
        if len(pivots) == len(rows):
            break
    return [rows[r] for r in order[:len(pivots)]], pivots


def _back_substitute(rows, pivots):
    """Echelon rows brought to reduced row echelon form in place, bottom row
    first: each later pivot column in a row is cleared with the reduced
    row of that pivot, then the row is scaled to lead 1.  Scaling last
    gives the values and types of scaling first: the same products meet
    in each entry, and an entry cancels at the same step."""
    at = {p: k for k, p in enumerate(pivots)}
    for k in range(len(rows) - 1, -1, -1):
        row, col = rows[k], pivots[k]
        for p in sorted(j for j in row if j != col and j in at):
            nf = -row.pop(p)
            for j, v in rows[at[p]].items():
                if j != p:
                    _add_into(row, j, nf * v)
        rows[k] = _unit_lead(row, col)


def from_cols(nrows, cols):
    """Assemble a Mat whose columns are the given sparse {row: scalar} dicts."""
    data = {}
    for j, col in enumerate(cols):
        for i, v in col.items():
            if v:
                data[i, j] = v
    return Mat(nrows, len(cols), data)
