import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhl import exactmat
from bhl.algebras import uqsl2
from bhl.ayd import regular_ayd_module, varsigma_H
from bhl.exactmat import Mat, from_cols
from bhl.scalars import Cyclotomic, power, root_of_unity
import oracle
from oracle import eliminate_by_scan, typed_terms


def small_mat(rows, cols):
    return st.lists(
        st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(Mat.from_rows)


@settings(max_examples=50, deadline=None)
@given(small_mat(3, 4), small_mat(4, 2), small_mat(2, 3))
def test_matmul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=50, deadline=None)
@given(small_mat(4, 5))
def test_rank_nullity(a):
    assert a.rank() + a.nullity() == a.cols
    for vec in a.kernel_basis():
        assert (a * from_cols(a.cols, [vec])).is_zero()


@settings(max_examples=40, deadline=None)
@given(small_mat(4, 4))
def test_inverse_or_singular(a):
    if a.rank() == 4:
        inv = a.inverse()
        assert a * inv == Mat.identity(4)
        assert inv * a == Mat.identity(4)
    else:
        with pytest.raises(ValueError):
            a.inverse()


def test_cyclotomic_entries():
    z = root_of_unity(5)
    a = Mat.from_rows([[z, 1], [0, z ** 2]])
    inv = a.inverse()
    assert a * inv == Mat.identity(2)
    assert power(a, 5, None)[0, 0] == 1  # z^5 = 1 on the diagonal


def test_kron_mixed_product():
    a = Mat.from_rows([[1, 2], [3, 4]])
    b = Mat.from_rows([[0, 1], [1, 0]])
    c = Mat.from_rows([[2, 0], [0, Fraction(1, 2)]])
    d = Mat.identity(2)
    assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_rref_shape_and_pivots():
    a = Mat.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    r, pivots = a.rref()
    assert pivots == [0, 2]
    assert a.rank() == 2
    assert a.nullity() == 1
    (k,) = a.kernel_basis()
    assert (a * from_cols(a.cols, [k])).is_zero()


def test_from_cols_and_stack():
    cols = [{0: 1, 2: 3}, {1: Fraction(1, 2)}]
    m = from_cols(3, cols)
    assert m.data == {(0, 0): 1, (2, 0): 3, (1, 1): Fraction(1, 2)}


def test_diagonal_and_pow():
    z = root_of_unity(3)
    d = Mat.diagonal([1, z, z ** 2])
    assert power(d, 3, None) == Mat.identity(3)
    assert power(d, 0, lambda: Mat.identity(3)) == Mat.identity(3)


def eliminations(a):
    """rref, rank, kernel_basis and inverse of a, every scalar as (type
    name, repr)."""
    reduced, pivots = a.rref()
    try:
        inverse = typed_terms(a.inverse().data)
    except ValueError as e:
        inverse = str(e)
    return (typed_terms(reduced.data), pivots, a.rank(),
            [typed_terms(v) for v in a.kernel_basis()], inverse)


def eliminations_by_scan(a):
    """What eliminations(a) reads, built straight from the Gauss-Jordan
    rows of eliminate_by_scan: the rows as the rref, the number of pivots
    as the rank, a kernel vector per free column f with 1 at f and minus
    column f of the rows at their pivots, and the inverse as the right
    half of the reduced [a | 1]."""
    rows, pivots = eliminate_by_scan(a._row_dicts(), a.cols)
    reduced = {(i, j): v for i, r in enumerate(rows) for j, v in r.items()}
    kernel = []
    for f in range(a.cols):
        if f not in pivots:
            vec = {f: 1}
            for r, p in zip(rows, pivots):
                if r.get(f):
                    vec[p] = -r[f]
            kernel.append(typed_terms(vec))
    if a.rows != a.cols:
        inverse = "inverse of a non-square matrix"
    else:
        n = a.rows
        stacked = a._row_dicts()
        for i, r in enumerate(stacked):
            r[n + i] = 1
        halves, left = eliminate_by_scan(stacked, 2 * n)
        if left[:n] != list(range(n)) or len(left) < n:
            inverse = "matrix is singular"
        else:
            inverse = typed_terms({(i, j - n): v
                                   for i, r in enumerate(halves)
                                   for j, v in r.items() if j >= n})
    return typed_terms(reduced), pivots, len(pivots), kernel, inverse


def assert_eliminations_match_scan(a):
    assert eliminations(a) == eliminations_by_scan(a)


def random_sparse(rng, rows, cols):
    """A sparse matrix mixing int, Fraction and Q(zeta_N) entries."""
    N = rng.choice((3, 5, 7))
    data = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.35:
                data[i, j] = rng.choice((
                    lambda: rng.randint(-3, 3),
                    lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                    lambda: rng.randint(-2, 2) * root_of_unity(N, rng.randrange(N)),
                    lambda: root_of_unity(N) + rng.randint(-2, 2),
                ))()
    return Mat(rows, cols, data)


def test_eliminations_match_scan_on_random_matrices():
    rng = random.Random(5)
    for _ in range(300):
        rows = rng.randint(1, 9)
        cols = rows if rng.random() < 0.4 else rng.randint(1, 9)
        assert_eliminations_match_scan(random_sparse(rng, rows, cols))


def with_singleton_rows(rng, a):
    """a with one-entry rows inserted at random positions, their leads
    int, Fraction and Q(zeta_N) values, some of them equal to 1; N is the
    order of a's irrational entries, if it has any."""
    N = next((v.order for v in a.data.values()
              if isinstance(v, Cyclotomic) and not v.is_rational()), 3)
    leads = (1, -1, 2, Fraction(1), Fraction(-3, 4), Cyclotomic.one(N),
             root_of_unity(N, rng.randrange(1, N)),
             2 * root_of_unity(N) + 1)
    rows = a._row_dicts()
    for _ in range(rng.randint(1, 4)):
        rows.insert(rng.randint(0, len(rows)),
                    {rng.randrange(a.cols): rng.choice(leads)})
    return Mat(len(rows), a.cols,
               {(i, j): v for i, r in enumerate(rows) for j, v in r.items()})


def test_eliminations_match_scan_with_singleton_rows():
    # a one-entry pivot row becomes 1 without an inverse: the same values,
    # types and reprs as the scan, which scales by the inverse
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randint(1, 7)
        a = random_sparse(rng, rows, rng.randint(1, 7))
        assert_eliminations_match_scan(with_singleton_rows(rng, a))


def spy_inverses(monkeypatch, module):
    calls = []
    inv = module._inv_scalar

    def counted(x):
        calls.append(x)
        return inv(x)

    monkeypatch.setattr(module, "_inv_scalar", counted)
    return calls


def test_one_entry_pivot_rows_take_no_inverse(monkeypatch):
    calls = spy_inverses(monkeypatch, exactmat)
    z = root_of_unity(7)
    diag = Mat.diagonal([z, 2 * z ** 3, z + 1, Fraction(1, 2), 0, 3])
    assert diag.kernel_basis() == [{4: 1}]
    U = uqsl2(5)
    K = U.gen("K")
    ad = U.left_mult_operator(K) - oracle.right_mult_operator(U, K)
    assert len(ad.kernel_basis()) == 25
    assert calls == []


def test_rows_of_several_entries_take_the_inverses_of_the_scan(monkeypatch):
    # every pivot row keeps entries in the two free columns, so each of
    # the three pivots is scaled by its inverse, as the scan scales it
    z = root_of_unity(5)
    a = Mat.from_rows([[2, z, 1, 3, z],
                       [z ** 2, 3, Fraction(1, 2), 1, 2],
                       [1, 1, z + 2, 1, z ** 3]])
    calls = spy_inverses(monkeypatch, exactmat)
    scan_calls = spy_inverses(monkeypatch, oracle)
    assert len(a.kernel_basis()) == 2
    eliminate_by_scan(a._row_dicts(), a.cols)
    assert len(calls) == 3
    assert [(type(x), repr(x)) for x in calls] == \
        [(type(x), repr(x)) for x in scan_calls]


def test_eliminations_match_scan_on_ad_of_uqsl2():
    U = uqsl2(5)
    for _, g in U.generators():
        assert_eliminations_match_scan(
            U.left_mult_operator(g) - oracle.right_mult_operator(U, g))


def test_eliminations_match_scan_on_the_kernel_chain():
    # T = 1 - varsigma on the regular module of d_a_mu(5, 1), and T^2: the
    # first two powers that the sparse kernel chain eliminates, the oracle
    # of stable_analysis (oracle.kernel_chain_by_powers)
    M = regular_ayd_module(5, 1)
    T = Mat.identity(M.dim) - varsigma_H(M).mat
    assert_eliminations_match_scan(T)
    assert_eliminations_match_scan(T * T)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.one_of(
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
    st.builds(lambda n, k: n * root_of_unity(3, k), st.integers(-2, 2),
              st.integers(0, 2)))).filter(lambda t: t[1]), max_size=16))
def test_add_into_keeps_no_cancelled_sum(terms):
    # small entries of the three types on four keys, so many sums cancel
    # on the way; taking each total away at the end leaves nothing
    out, totals = {}, {}
    for key, value in terms:
        exactmat._add_into(out, key, value)
        totals[key] = totals.get(key, 0) + value
    assert all(out.values())
    assert out == {k: v for k, v in totals.items() if v}
    for key, total in totals.items():
        if total:
            exactmat._add_into(out, key, -total)
    assert out == {}


@pytest.mark.parametrize("s", [0, Fraction(-3, 2), root_of_unity(5, 2)],
                         ids=["int 0", "Fraction", "Cyclotomic"])
def test_scalar_times_matrix_is_scale(s):
    M = Mat.from_rows([[1, 0, 2], [0, -1, 3]])
    assert s * M == M.scale(s)
