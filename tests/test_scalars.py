import operator
import pathlib
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhl.scalars
from bhl.algebras import taft
from bhl.classify import packet_report
from bhl.cli import q_factorial_checks
from bhl.exactmat import Mat
from bhl.graded import GradedMap, GradedSpace
from bhl.scalars import (
    Cyclotomic,
    POWER_BITS,
    OrderMismatchError,
    ParseError,
    _conjugate,
    _reduce,
    balanced_q_factorials,
    balanced_q_int,
    cyclotomic_polynomial,
    euler_phi,
    format_roots_of_unity,
    format_scalar,
    gauss_sum,
    in_field,
    parse_scalar,
    power,
    q_binomials,
    q_factorials,
    q_int,
    root_of_unity,
    tokenize,
)
from oracle import (
    balanced_q_factorial,
    inverse_by_conjugates,
    mul_by_division,
    mul_by_rotation,
    power_by_rotation,
    power_by_squaring,
    q_binomial,
    q_binomial_by_factorials,
    q_factorial,
    q_factorial_by_powers,
    q_int_by_powers,
    reduce_by_division,
    tokenize_by_two_matches,
)

CORPUS = pathlib.Path(bhl.scalars.__file__).parent / "corpus"


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def test_primitive_root_kills_phi():
    for n in (2, 3, 4, 5, 6, 8, 9, 12):
        z = root_of_unity(n)
        phi = cyclotomic_polynomial(n)
        value = sum((c * z ** k for k, c in enumerate(phi)), z * 0)
        assert value == 0
        assert z ** n == 1
        for k in range(1, n):
            assert z ** k != 1


def test_canonical_equality_and_hash():
    z = root_of_unity(3)
    # 1 + z + z^2 = 0, so z^2 = -1 - z: same canonical form either way
    assert z * z == -1 - z
    assert hash(Cyclotomic.from_rational(Fraction(2, 3), 5)) == hash(Fraction(2, 3))
    assert Cyclotomic.from_rational(7, 4) == 7
    table = {z ** 2: "a", -1 - z: "b"}
    assert len(table) == 1


def test_cross_order_promotion():
    half = Cyclotomic.from_rational(Fraction(1, 2), 3)
    z5 = root_of_unity(5)
    assert (half + z5).order == 5
    assert half * 2 == 1
    z3 = root_of_unity(3)
    for op in (operator.add, operator.mul, operator.truediv, operator.eq):
        for a, b in ((z3, z5), (z5, z3)):
            with pytest.raises(OrderMismatchError):
                op(a, b)


@st.composite
def cyclo(draw, order):
    d = euler_phi(order)
    num = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    den = draw(st.integers(1, 9))
    return Cyclotomic(order, num, den)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5, 8]).flatmap(
    lambda n: st.tuples(cyclo(n), cyclo(n), cyclo(n))))
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inverse() == 1
        assert (a / a) == 1


def test_division_and_pow():
    z = root_of_unity(8)
    x = (1 + z) / (1 - z)
    assert x * (1 - z) == 1 + z
    assert z ** -1 == z ** 7
    assert (2 * z) ** -2 == Fraction(1, 4) * z ** -2


def test_q_int_factorial_binomial():
    xi = root_of_unity(5)
    assert q_int(0, xi) == 0
    assert q_int(1, xi) == 1
    assert q_int(3, xi) == 1 + xi + xi ** 2
    assert q_factorial(0, xi) == 1
    assert q_factorial(5, xi) == 0  # contains (5)_xi = 0
    # Pascal-type recursion: (n k)_xi = xi^k (n-1 k)_xi + (n-1 k-1)_xi, on
    # the factorial route that q_binomials is compared with below
    binom = q_binomial_by_factorials
    for n in range(1, 5):
        for k in range(1, n):
            lhs = binom(n, k, xi)
            rhs = xi ** k * binom(n - 1, k, xi) + binom(n - 1, k - 1, xi)
            assert lhs == rhs
    assert q_binomial(4, 2, root_of_unity(1)) == 6  # classical limit


def _typed(x):
    return type(x), repr(x)


@pytest.mark.parametrize("order, top", [
    (1, 9), (2, 2), (3, 3), (5, 5), (7, 7), (11, 11), (13, 13)])
def test_q_combinatorics_match_the_factorial_route(order, top):
    # the running sums and products and the q-Pascal table against powers
    # and factorial quotients, by type and repr, for all n < top: every
    # n < p at xi = zeta_p, and n < 9 at xi = 1, where no factorial vanishes
    xi = root_of_unity(order)
    rows = q_binomials(top - 1, xi)
    assert [len(row) for row in rows] == list(range(1, top + 1))
    assert [_typed(f) for f in q_factorials(top - 1, xi)] == [
        _typed(q_factorial_by_powers(n, xi)) for n in range(top)]
    for n in range(top):
        assert _typed(q_int(n, xi)) == _typed(q_int_by_powers(n, xi))
        assert _typed(q_factorial(n, xi)) == _typed(q_factorial_by_powers(n, xi))
        for k in range(-1, n + 2):
            want = _typed(q_binomial_by_factorials(n, k, xi))
            assert _typed(q_binomial(n, k, xi)) == want, (n, k)
            if 0 <= k <= n:
                assert _typed(rows[n][k]) == want, (n, k)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_q_binomials_past_the_order_follow_q_lucas(p):
    # q-Lucas (Desarmenien 1982): with n = n1 p + n0 and k = k1 p + k0,
    # (n k)_xi = C(n1, k1) (n0 k0)_xi at a primitive p-th root xi, where
    # the factorial route divides by (p)_xi = 0
    xi = root_of_unity(p)
    rows = q_binomials(3 * p - 1, xi)
    for n in range(3 * p):
        for k in range(n + 1):
            (n1, n0), (k1, k0) = divmod(n, p), divmod(k, p)
            want = comb(n1, k1) * q_binomial_by_factorials(n0, k0, xi)
            assert _typed(rows[n][k]) == _typed(want), (n, k)
            assert rows[n][k] == q_binomial(n, k, xi)
    assert q_binomial(6, 1, root_of_unity(5)) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_unbalanced_vs_balanced_factorial(p):
    # (n)_xi! = q^(-n(n-1)/2) [n]_q!  with xi = zeta_p, q = xi^m, m = (p-1)/2
    xi = root_of_unity(p)
    m = (p - 1) // 2
    q = xi ** m
    assert q * q == xi ** -1
    for n in range(p):
        lhs = q_factorial(n, xi)
        rhs = q ** (-(n * (n - 1) // 2) % p) * balanced_q_factorial(n, q)
        assert lhs == rhs


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7, 10, 13])
def test_balanced_q_factorials_match_the_product_route(order):
    # the running table against the product of [i]_q, each summed afresh,
    # by type and repr: at q = zeta_N, at q = zeta_p^((p-1)/2) as in
    # criterion 3, and at the rational q = 2/3 of order N
    qs = [root_of_unity(order), Cyclotomic(order, [2], 3)]
    if order % 2:
        qs.append(root_of_unity(order) ** ((order - 1) // 2))
    for q in qs:
        table = balanced_q_factorials(order + 2, q)
        assert [_typed(f) for f in table] == [
            _typed(balanced_q_factorial(n, q)) for n in range(order + 3)]


def test_criterion_3_takes_no_field_inverse(monkeypatch):
    # q^-1 and q^(-n(n-1)/2) are powers of the monomial q, taken in one
    # step, and [n]_q! is read off one running table
    def refuse(self):
        raise AssertionError("a field inverse was taken")
    monkeypatch.setattr(Cyclotomic, "inverse", refuse)
    for p in (3, 5, 7, 11, 13, 31):
        assert [c["status"] for c in q_factorial_checks(p)] == ["PASS"]
    q = root_of_unity(13) ** 6
    assert [balanced_q_int(n, q) for n in (-3, 5)] == [
        -(q ** 2 + 1 + q ** -2), q ** 4 + q ** 2 + 1 + q ** -2 + q ** -4]


@st.composite
def power_base(draw):
    """Zero, a rational, c zeta^k or a general element, of some order."""
    order = draw(st.sampled_from(ORDERS))
    kind = draw(st.sampled_from(["zero", "rational", "monomial", "general"]))
    if kind == "general":
        return draw(cyclo(order))
    vec = [0] * euler_phi(order)
    if kind != "zero":
        k = 0 if kind == "rational" else draw(st.integers(0, len(vec) - 1))
        vec[k] = draw(st.integers(-9, 9).filter(bool))
    return Cyclotomic(order, vec, draw(st.integers(1, 9)))


@settings(max_examples=400, deadline=None)
@given(power_base(), st.integers(-15, 15))
def test_powers_match_square_and_multiply(x, e):
    # c zeta^k takes c^e zeta^(ke) in one step; the result is the canonical
    # element square-and-multiply gives, of the same type and order, and a
    # zero base still raises for e < 0
    if not x and e < 0:
        with pytest.raises(ZeroDivisionError):
            x ** e
    else:
        _same(x ** e, power_by_squaring(x, e))


def test_powers_of_a_monomial_past_its_order():
    # exponents far past the order and the size of a pass of square-and-
    # multiply, against zeta^(ke mod N) scaled by c^e
    for order in (1, 2, 5, 12, 105):
        d = euler_phi(order)
        for k in range(d):
            vec = [0] * d
            vec[k] = -2
            x = Cyclotomic(order, vec, 3)
            for e in (10 ** 3 + 1, -(10 ** 3) - 2):
                want = root_of_unity(order, k * e % order) * (
                    Fraction(-2, 3) ** e)
                _same(x ** e, want)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_balanced_q_int_is_the_quotient_it_sums(p):
    # the sum of the powers q^(n-1-2k), k < n, against the quotient
    # (q^n - q^-n)/(q - q^-1), or 0 of q's type at n = 0, by type and
    # repr, at q = xi^m as in uqsl2(p)
    q = root_of_unity(p) ** ((p - 1) // 2)
    for n in range(p):
        want = (q ** n - q ** (-n)) / (q - q ** (-1)) if n else q ** 0 * 0
        got = balanced_q_int(n, q)
        assert (type(got), repr(got)) == (type(want), repr(want)), n
        assert balanced_q_int(-n, q) == -want


def test_balanced_q_int_values():
    q = root_of_unity(10)  # q^2 is a primitive 5th root
    assert balanced_q_int(0, q) == 0
    assert balanced_q_int(1, q) == 1
    assert balanced_q_int(2, q) == q + q ** -1


def test_gauss_sum():
    z3 = root_of_unity(3)
    assert gauss_sum(3, z3, 1) == 1 + 2 * z3
    for p in (3, 5, 7):
        for m in range(1, p):
            xi = root_of_unity(p)
            s = gauss_sum(p, xi, m)
            assert s != 0


_TOKEN_ALPHABET = "ab_1 2\n\t#->==*^()[],;:{}+/-xq(7,2)\u00e9\u00b2\r;!"


def _tokens_or_error(tokenizer, text, script):
    try:
        return tokenizer(text, script)
    except ParseError as exc:
        return str(exc)


def test_one_match_per_token_reads_as_two_matches_did():
    # the same tokens, or the same ParseError text, as the tokenizer that
    # matched the separators and the token apart, on the corpus scripts
    # and on random strings, as a lone scalar and as a script
    rng = random.Random(38)
    texts = [path.read_text() for path in sorted(CORPUS.glob("*.bdsl"))]
    texts += ["".join(rng.choice(_TOKEN_ALPHABET)
                      for _ in range(rng.randrange(12))) for _ in range(1500)]
    for script in (False, True):
        errors = 0
        for text in texts:
            got = _tokens_or_error(tokenize, text, script)
            assert got == _tokens_or_error(tokenize_by_two_matches, text,
                                           script), (text, script)
            errors += isinstance(got, str)
        assert 0 < errors < len(texts)  # both outcomes are exercised


def test_parse_scalar_basics():
    assert parse_scalar("7") == 7
    assert parse_scalar("-3/4") == Fraction(-3, 4)
    assert parse_scalar("q(5,2)") == root_of_unity(5) ** 2
    assert parse_scalar("1 + q(3,1)") == 1 + root_of_unity(3)
    assert parse_scalar("2^-3") == Fraction(1, 8)
    assert parse_scalar("(1 - q(4,1))^2") == (1 - root_of_unity(4)) ** 2
    assert parse_scalar("q(5,1)*q(5,4)") == 1
    with pytest.raises(ValueError):
        parse_scalar("q(5")
    with pytest.raises(ValueError):
        parse_scalar("1 + + 2 zzz")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 8, 12]).flatmap(cyclo))
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


@pytest.mark.parametrize("text, value", [
    ("1\f+2", 3), ("1\v+\u00a02", 3), ("\n Q(3, 1)\t", root_of_unity(3)),
    ("\u0663", 3),  # Arabic-Indic three, a decimal digit
])
def test_parse_scalar_takes_any_whitespace_and_decimal_digits(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("text, error", [
    ("1 # c", "unexpected character '#' (line 1, column 3)"),
    ("\u00b2", "unexpected character '\u00b2' (line 1, column 1)"),
    ("1\n+ q(5", "expected ',', found 'end of input' (line 2, column 6)"),
    ("1 2", "expected end of input, found '2' (line 1, column 3)"),
    ("q(0,1)", "q(N,k) needs N >= 1 (line 1, column 1)"),
    ("q(3,1) + q(5,1)", "cannot mix Q(zeta_3) with Q(zeta_5) (line 1, "
                        "column 1)"),
])
def test_parse_scalar_errors_name_a_line_and_column(text, error):
    with pytest.raises(ValueError) as err:
        parse_scalar(text)
    assert str(err.value) == error


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_a_power_of_a_root_of_unity_takes_its_exponent_modulo_the_order(n):
    # q(N,k)^e is read as q(N,ke), and a root of unity in parentheses takes
    # its power modulo 2N, however large e is
    big = 10 ** 30 + 7
    for k in range(n + 1):
        root = root_of_unity(n, k)
        for e in (-3, -1, 0, 1, 2, 7):
            _same(parse_scalar("q(%d,%d)^%d" % (n, k, e)), root ** e)
            _same(parse_scalar("(q(%d,%d))^%d" % (n, k, e)), root ** e)
        for e in (big, -big):
            _same(parse_scalar("q(%d,%d)^%d" % (n, k, e)), root ** (e % n))
            _same(parse_scalar("(-q(%d,%d))^%d" % (n, k, e)),
                  (-root) ** (e % (2 * n)))


def test_a_power_past_the_size_bound_is_an_error_at_its_exponent():
    assert parse_scalar("2^%d" % POWER_BITS) == 2 ** POWER_BITS
    for text, col in (("2^%d" % (POWER_BITS + 1), 3),
                      ("(3/2)^-700000", 8),
                      ("(1 + q(5,1))^300000", 14),
                      ("-2^100000000000", 4)):
        with pytest.raises(ParseError) as err:
            parse_scalar(text)
        assert (err.value.line, err.value.col) == (1, col)
        assert err.value.message.endswith("bits, more than %d" % POWER_BITS)


def test_an_ambient_order_rejects_exactly_the_roots_in_field_rejects():
    # with an order, q(N,k) is a syntax error at its token exactly when
    # in_field rejects its value; else the text reads as with no order,
    # except that a q(N,k) = +-1 of N != order is read with the ambient
    # order, keeping its value, hash and text
    for order in range(1, 8):
        for n in range(1, 13):
            for k in range(2 * n + 1):
                text = "1 + 2*q(%d,%d)" % (n, k)
                if in_field(root_of_unity(n, k), order):
                    got, want = parse_scalar(text, order), parse_scalar(text)
                    if n == order:
                        _same(got, want)
                        continue
                    assert type(got) is type(want) and got.order == order
                    assert got == want and hash(got) == hash(want)
                    assert format_scalar(got) == format_scalar(want)
                    continue
                with pytest.raises(ParseError) as err:
                    parse_scalar(text, order)
                assert str(err.value) == (
                    "q(%d,%d) is not in Q(zeta_%d) (line 1, column 7)"
                    % (n, k, order))


def test_format_round_trip_rationals():
    for v in (0, 5, -5, Fraction(2, 7), Fraction(-9, 4)):
        assert parse_scalar(format_scalar(v)) == v


# ---------------------------------------------------------------------------
# fast paths against the general route
#
# The reference below is the general route written out with the public
# constructor only: promote a rational operand to a full element of the
# order, convolve, and reduce modulo Phi_N by long division.
# ---------------------------------------------------------------------------

ORDERS = [1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 17]


def _embed(value, order):
    f = value.as_fraction() if isinstance(value, Cyclotomic) else Fraction(value)
    return Cyclotomic(order, [f.numerator], f.denominator)


def _ref_pair(a, b):
    if not isinstance(a, Cyclotomic):
        return _embed(a, b.order), b
    if not isinstance(b, Cyclotomic):
        return a, _embed(b, a.order)
    if a.order == b.order:
        return a, b
    if b.is_rational():
        return a, _embed(b, a.order)
    return _embed(a, b.order), b


def _ref_mul(a, b):
    a, b = _ref_pair(a, b)
    phi = cyclotomic_polynomial(a.order)
    n = len(phi) - 1
    conv = [0] * (2 * n - 1)
    for i, x in enumerate(a.num):
        for j, y in enumerate(b.num):
            conv[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):  # Phi_N is monic
        c, conv[k] = conv[k], 0
        for i in range(n):
            conv[k - n + i] -= c * phi[i]
    return Cyclotomic(a.order, conv[:n], a.den * b.den)


def _ref_add(a, b):
    a, b = _ref_pair(a, b)
    vec = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
    return Cyclotomic(a.order, vec, a.den * b.den)


def _same(got, want):
    assert type(got) is type(want)
    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)
    assert hash(got) == hash(want)
    assert format_scalar(got) == format_scalar(want)


fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)
                      .flatmap(lambda m: st.sampled_from([m, -m])))


@st.composite
def operand_pair(draw):
    """A general element of some order and an operand of every kind."""
    order = draw(st.sampled_from(ORDERS))
    x = draw(cyclo(order))
    kind = draw(st.sampled_from(
        ["int", "zero", "fraction", "rational", "rational1", "general",
         "monomial"]))
    if kind == "int":
        y = draw(st.integers(-30, 30))
    elif kind == "zero":
        y = 0
    elif kind == "fraction":
        y = draw(fractions)
    elif kind in ("rational", "rational1"):
        y = _embed(draw(fractions), order if kind == "rational" else 1)
    elif kind == "general":
        y = draw(cyclo(order))
    else:
        d = euler_phi(order)
        vec = [0] * d
        vec[draw(st.integers(0, d - 1))] = draw(st.integers(-9, 9))
        y = Cyclotomic(order, vec, draw(st.integers(1, 9)))
    return x, y


@settings(max_examples=300, deadline=None)
@given(operand_pair())
def test_fast_paths_match_the_general_route(pair):
    x, y = pair
    _same(x * y, _ref_mul(x, y))
    _same(y * x, _ref_mul(y, x))
    _same(x + y, _ref_add(x, y))
    _same(y + x, _ref_add(y, x))
    minus_y = _ref_mul(y, -1) if isinstance(y, Cyclotomic) else -y
    _same(x - y, _ref_add(x, minus_y))
    _same(y - x, _ref_add(y, _ref_mul(x, -1)))
    _same(-x, _ref_mul(x, -1))
    if y:
        inv_y = y.inverse() if isinstance(y, Cyclotomic) else 1 / Fraction(y)
        _same(x / y, _ref_mul(x, inv_y))
    # a same-order rational Cyclotomic on either side takes the scaling path
    if isinstance(y, Cyclotomic) and y.order == x.order and y.is_rational():
        _same(y * x, x * y)


@st.composite
def shaped(draw, order):
    """An element of Q(zeta_order) of a drawn shape, with 20-bit
    coordinates over a denominator up to 50: a rational of this order or
    of order 1, one term, two terms, dense, or with all coordinates equal."""
    d = euler_phi(order)
    kind = draw(st.sampled_from(["rational", "rational1", "one", "two", "dense",
                                 "equal"]))
    coord = st.integers(-(1 << 20), 1 << 20)
    if kind == "rational1":
        order, d = 1, 1
    if kind == "dense":
        vec = draw(st.lists(coord, min_size=d, max_size=d))
    elif kind == "equal":
        vec = [draw(coord)] * d
    else:
        vec = [0] * d
        if kind in ("rational", "rational1"):
            slots = [0]
        else:
            size = 1 if kind == "one" else min(2, d)
            slots = draw(st.lists(st.integers(0, d - 1), min_size=size,
                                  max_size=size, unique=True))
        for k in slots:
            vec[k] = draw(coord)
    return Cyclotomic(order, vec, draw(st.integers(1, 50)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 31).flatmap(lambda n: st.tuples(shaped(n), shaped(n))))
def test_products_and_inverses_match_the_division_routes(pair):
    # the one-slice fold and the addition chain of inverses against the
    # conjugate loop and the fold one coordinate at a time at every order,
    # prime and composite, by type and repr
    x, y = pair
    _same(x * y, mul_by_division(x, y))
    _same(y * x, mul_by_division(y, x))
    for a in pair:
        if a:
            _same(a.inverse(), inverse_by_conjugates(a))


# prime orders, where c*zeta^k also has all coordinates equal, and
# composite ones, where Phi_N has more terms
SHAPE_ORDERS = [1, 2, 3, 4, 5, 6, 7, 9, 12, 13, 15, 29, 31, 60, 105]


@st.composite
def any_shape(draw, order):
    """An operand for Q(zeta_order): 1 of this or another order, a rational
    of this or another order, zero, c*zeta^k with one nonzero coordinate,
    all coordinates equal, a general element, or an irrational element of
    another order."""
    kind = draw(st.sampled_from(["one", "rational", "zero", "monomial",
                                 "equal", "general", "foreign"]))
    if kind in ("one", "rational", "foreign"):
        order = draw(st.sampled_from([order, 1, 3, 5, 12]))
    d = euler_phi(order)
    coord = st.integers(-(1 << 20), 1 << 20).filter(bool)
    vec = [0] * d
    if kind == "one":
        return Cyclotomic.one(order)
    if kind == "rational" or d == 1 and kind != "zero":
        vec[0] = draw(coord)
    elif kind == "monomial":
        vec[draw(st.integers(1, d - 1))] = draw(coord)
    elif kind == "equal":
        vec = [draw(coord)] * d
    elif kind in ("general", "foreign"):
        vec = draw(st.lists(st.integers(-(1 << 20), 1 << 20), min_size=d,
                            max_size=d).filter(lambda v: v.count(0) < d - 1))
    return Cyclotomic(order, vec, draw(st.integers(1, 50)))


def _outcome(f, *args):
    """f(*args), or the message of the OrderMismatchError it raises."""
    try:
        return f(*args)
    except OrderMismatchError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SHAPE_ORDERS).flatmap(lambda n: st.tuples(
    any_shape(n), any_shape(n), st.integers(-7, 7))))
def test_shape_routes_match_the_routes_of_record(args):
    # products, inverses and powers branch on _monomial; the rotation and
    # convolution product, the conjugate loop and square-and-multiply are
    # the routes of record, compared by type and repr, and an irrational
    # pair of different orders raises the same OrderMismatchError
    x, y, e = args
    for a, b in ((x, y), (y, x)):
        got = _outcome(operator.mul, a, b)
        want = _outcome(mul_by_rotation, a, b)
        if isinstance(want, str):
            assert got == want
        else:
            _same(got, want)
        if b == 1:
            assert got is a
    for a in (x, y):
        if a:
            _same(a.inverse(), inverse_by_conjugates(a))
            _same(a ** e, power_by_rotation(a, e))
        elif e < 0:
            with pytest.raises(ZeroDivisionError):
                a ** e
        else:
            _same(a ** e, power_by_rotation(a, e))


def test_monomial_products_at_a_prime_order_take_no_reduction(monkeypatch):
    # c*zeta^k times c'*zeta^k' reads zeta^(k+k') from the table, and
    # c*zeta^k times any other element is one rotation minus its top
    # coordinate: neither reduces by Phi_p, for either shape of c*zeta^k
    p, rng = 53, random.Random(53)
    for k in range(p):
        root_of_unity(p, k)
    monomials = [Cyclotomic(p, [0] * k + [rng.randint(-9, 9) or 1], 7)
                 for k in range(1, p - 1)] + [Cyclotomic(p, [-3] * (p - 1), 2)]
    dense = [Cyclotomic(p, [rng.randint(-9, 9) for _ in range(p - 1)], 5)
             for _ in range(5)]
    calls = []
    monkeypatch.setattr(bhl.scalars, "_reduce",
                        lambda *args: calls.append(args) or _reduce(*args))
    products = [(a, b, a * b) for a in monomials for b in monomials + dense]
    monkeypatch.undo()
    assert calls == []
    for a, b, ab in products:
        _same(ab, mul_by_rotation(a, b))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 31).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.integers(-(1 << 20), 1 << 20), max_size=2 * n - 1))))
def test_reduce_matches_the_division_by_phi(args):
    order, vec = args
    assert _reduce(order, list(vec)) == reduce_by_division(order, vec)


@pytest.mark.parametrize("num, count", [
    # floor(log2 27) + popcount(27) - 1 = 7 products up the addition chain
    # and 1 for the norm; the conjugates one at a time took 28
    ([k * k - 7 for k in range(28)], 8),
    # 2*zeta^28 = -2*(1 + zeta + ... + zeta^27), all coordinates equal:
    # sigma_-1 alone gives the rational norm x*sigma_-1(x) = 4, x times
    # the monomial 2*zeta
    ([-6] * 28, 0),
])
def test_a_dense_inverse_at_29_takes_the_dense_products_of_its_route(
        monkeypatch, num, count):
    products, mul = [], Cyclotomic.__mul__

    def dense(x):
        return isinstance(x, Cyclotomic) and x.num.count(0) + 1 < len(x.num)

    def counting(a, b):
        if dense(a) and dense(b):
            products.append(1)
        return mul(a, b)

    monkeypatch.setattr(Cyclotomic, "__mul__", counting)
    x = Cyclotomic(29, num, 3)
    inverse = x.inverse()
    monkeypatch.undo()
    assert len(products) == count
    _same(inverse, inverse_by_conjugates(x))


def test_monomial_products_at_a_composite_order():
    # Phi_105 has 33 nonzero terms, and a rotation that carries coordinates
    # past degree 47 reduces through them; each monomial has a negative
    # coefficient over den > 1
    rng = random.Random(105)
    d = euler_phi(105)
    for _ in range(20):
        x = Cyclotomic(105, [rng.randint(-9, 9) for _ in range(d)], rng.randint(1, 9))
        vec = [0] * d
        vec[rng.randrange(d)] = -rng.randint(1, 9)
        mono = Cyclotomic(105, vec, rng.randint(2, 9))
        _same(mono * x, _ref_mul(mono, x))
        _same(x * mono, _ref_mul(x, mono))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(cyclo))
def test_inverse_is_exact(x):
    if x:
        inv = x.inverse()
        _same(_ref_mul(x, inv), Cyclotomic.one(x.order))
        _same(x ** -2, _ref_mul(inv, inv))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(
    lambda n: st.tuples(cyclo(n), cyclo(n), st.sampled_from(
        [k for k in range(1, n + 1) if gcd(k, n) == 1]))))
def test_conjugate_is_the_field_automorphism(args):
    # zeta -> zeta^k, additive and multiplicative, and canonical: _same
    # compares against the public constructor's normal form
    a, b, k = args
    n = a.order
    _same(_conjugate(root_of_unity(n), k), root_of_unity(n, k))
    _same(_conjugate(a + b, k), _ref_add(_conjugate(a, k), _conjugate(b, k)))
    _same(_conjugate(_ref_mul(a, b), k),
          _ref_mul(_conjugate(a, k), _conjugate(b, k)))


@pytest.mark.parametrize("order", [12, 60, 105])
def test_roots_of_unity_invert_by_one_conjugate(order, monkeypatch):
    # a zeta^k with one nonzero coordinate inverts to zeta^-k with no
    # conjugate; some zeta^k with k >= phi(N) are no monomial on the power
    # basis, yet zeta^k * sigma_-1(zeta^k) = 1 already, so they take
    # sigma_-1 alone
    calls, routes = [], set()

    def spy(x, k):
        calls.append(k)
        return _conjugate(x, k)
    monkeypatch.setattr(bhl.scalars, "_conjugate", spy)
    for k in range(order):
        calls.clear()
        root = root_of_unity(order, k)
        _same(root.inverse(), root_of_unity(order, -k))
        monomial = root.num.count(0) == len(root.num) - 1
        assert calls == ([] if monomial else [-1])
        routes.add(monomial)
    assert routes == {True, False}


def _zeta(order):
    """zeta_order written out with the public constructor."""
    if euler_phi(order) > 1:
        return Cyclotomic(order, [0, 1])
    return Cyclotomic(order, [1 if order == 1 else -1])


@pytest.mark.parametrize("order", ORDERS)
def test_roots_of_unity_by_lookup(order):
    zeta = _zeta(order)
    power = Cyclotomic.one(order)
    for k in range(2 * order + 1):
        _same(root_of_unity(order, k), power)
        _same(zeta ** k, power)
        _same(root_of_unity(order, -k), power.inverse())
        if k % order:
            # monomial inverse: zeta^k * zeta^-k == 1 for k = 1 .. N-1
            assert power * power.inverse() == 1
            _same(_ref_mul(power, power.inverse()), Cyclotomic.one(order))
        power = _ref_mul(power, zeta)


def test_parsed_roots_match_the_table_of_powers():
    # the table zeta^0 .. zeta^2n is built here by repeated _ref_mul
    for n in range(1, 41):
        zeta, power = _zeta(n), Cyclotomic.one(n)
        for k in range(2 * n + 1):
            _same(parse_scalar("q(%d,%d)" % (n, k)), power)
            power = _ref_mul(power, zeta)


def test_rational_operands_are_not_promoted(monkeypatch):
    calls = []
    original = Cyclotomic.from_rational

    def counting(value, order=1):
        calls.append((value, order))
        return original(value, order)
    monkeypatch.setattr(Cyclotomic, "from_rational", staticmethod(counting))
    z = root_of_unity(5)
    half = Cyclotomic(5, [1], 2)
    # rationals of another order: order 1, as Bicharacter(1, 0) gives, and 3
    one, third = Cyclotomic(1, [1]), Cyclotomic(3, [-1], 3)
    for y in (3, 0, Fraction(-2, 3), half, one, third):
        _ = z * y, y * z, z + y, y + z, z - y, y - z, z / y if y else z
    _ = z ** -3, (z + 2).inverse(), -z
    assert calls == []


# ---------------------------------------------------------------------------
# sympy as an independent oracle at small orders
# ---------------------------------------------------------------------------

SMALL_ORDERS = [3, 4, 5, 7, 8, 9, 12]
# Phi_60, Phi_64 and Phi_120 are sparse, Phi_105 has a coefficient -2
LARGER_ORDERS = [60, 64, 105, 120]


def _to_sympy(x, var):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly([sympy.Rational(c, x.den) for c in reversed(x.num)],
                      var, domain=sympy.QQ)


def _from_sympy(poly, order):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    den = lcm(*(c.denominator for c in coeffs))
    return Cyclotomic(order, [int(c * den) for c in coeffs], den)


@pytest.mark.parametrize("order", SMALL_ORDERS + [1, 2, 15, 17] +
                         LARGER_ORDERS + [4000, 8000])
def test_cyclotomic_polynomial_matches_sympy(order):
    sympy = pytest.importorskip("sympy")
    var = sympy.Symbol("x")
    want = sympy.Poly(sympy.cyclotomic_poly(order, var), var).all_coeffs()
    assert cyclotomic_polynomial(order) == tuple(int(c) for c in reversed(want))


def _check_against_sympy(a, b, k, c):
    """a * b, a + b, a^-1 and (c/7 zeta^k)^-1 against sympy's remainders
    and inverses modulo Phi_N."""
    sympy = pytest.importorskip("sympy")
    order = a.order
    var = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(order, var), var, domain=sympy.QQ)
    pa, pb = _to_sympy(a, var), _to_sympy(b, var)
    _same(a * b, _from_sympy((pa * pb).rem(phi), order))
    _same(a + b, _from_sympy((pa + pb).rem(phi), order))
    if a:
        _same(a.inverse(), _from_sympy(sympy.invert(pa, phi), order))
    vec = [0] * euler_phi(order)
    vec[k] = c
    mono = Cyclotomic(order, vec, 7)
    _same(mono.inverse(), _from_sympy(sympy.invert(_to_sympy(mono, var), phi),
                                      order))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_ORDERS).flatmap(
    lambda n: st.tuples(cyclo(n), cyclo(n), st.integers(0, euler_phi(n) - 1),
                        st.integers(1, 9))))
def test_field_operations_match_sympy(args):
    _check_against_sympy(*args)


@pytest.mark.parametrize("order", LARGER_ORDERS)
def test_field_operations_match_sympy_at_larger_orders(order):
    # a few fixed random elements: an inverse at degree 48 is a product of
    # 47 Galois conjugates, too slow for many hypothesis examples
    rng = random.Random(order)
    d = euler_phi(order)
    for _ in range(3):
        a, b = (Cyclotomic(order, [rng.randint(-9, 9) for _ in range(d)],
                           rng.randint(1, 9)) for _ in range(2))
        _check_against_sympy(a, b, rng.randrange(d), rng.randint(1, 9))


@pytest.mark.parametrize("order", LARGER_ORDERS)
def test_roots_of_unity_match_sympy(order):
    sympy = pytest.importorskip("sympy")
    var = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(order, var), var, domain=sympy.QQ)
    want = [_from_sympy(sympy.Poly(var ** k, var, domain=sympy.QQ).rem(phi),
                        order) for k in range(2 * order)]
    for k in range(2 * order):
        _same(root_of_unity(order, k), want[k])
        _same(root_of_unity(order, -k), want[-k % order])


def _power_cases():
    z = root_of_unity(5)
    A = taft(3)
    V = GradedSpace(3, [0, 1, 2, 1])
    m = Mat(4, 4, {(0, 0): 2, (1, 3): Fraction(1, 2), (3, 1): root_of_unity(3),
                   (2, 2): -1})
    return [
        (z, lambda: Cyclotomic.one(5)),
        (Fraction(-2, 3) * z + 1, lambda: Cyclotomic.one(5)),
        (m, lambda: Mat.identity(4)),
        (A.gen("g") + 2 * A.gen("x"), A.unit),
        (GradedMap(V, V, m), lambda: GradedMap.identity(V)),
    ]


def _entries(x):
    """What a report can show of a power: matrix entries with their types
    (a witness carries their reprs), else the repr.  Coefficient types of
    an algebra element depend on the order of the products, so an element
    is compared by value and repr."""
    mat = getattr(x, "mat", x)
    if isinstance(mat, Mat):
        return (getattr(x, "shift", None),
                sorted((k, type(v), repr(v)) for k, v in mat.data.items()))
    return (x, repr(x))


@pytest.mark.parametrize("case", range(5), ids=[
    "monomial", "cyclotomic", "mat", "algebra-element", "graded-map"])
def test_power_matches_repeated_multiplication(case):
    # a Mat has no __pow__: its powers are those of the helper itself
    x, one = _power_cases()[case]
    mul = operator.matmul if hasattr(x, "shift") else operator.mul
    pw = (lambda e: power(x, e, one)) if isinstance(x, Mat) else x.__pow__
    assert _entries(pw(0)) == _entries(one())
    product = x
    for e in range(1, 7):
        assert _entries(pw(e)) == _entries(product), e
        product = mul(product, x)


def test_power_helper_starts_from_the_first_factor():
    def no_identity():
        raise AssertionError("identity used for e >= 1")

    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a + b

    assert power(3, 0, lambda: 0, mul) == 0
    assert power(3, 1, no_identity, mul) == 3 and not calls
    assert power(3, 6, no_identity, mul) == 18
    with pytest.raises(ValueError):
        power(3, -1, no_identity)


def test_format_root_of_unity_is_the_format_of_the_root():
    for N in range(1, 61):
        for e in range(N):
            assert format_roots_of_unity(N, [e]) == \
                [format_scalar(root_of_unity(N, e))], (N, e)
        # one pass over exponents in any order, repeated, or out of range
        es = list(range(2 * N, -N, -1)) + [N - 1, 0, N - 1]
        assert format_roots_of_unity(N, es) == \
            [format_scalar(root_of_unity(N, e)) for e in es], N


def test_one_pass_matches_one_root_per_exponent_at_an_odd_composite_order():
    # the theta packet of decompose vec-g --n 1155: most of its exponents
    # are past phi(1155) = 480, where the per-root route divides by Phi_N
    es = [e["exponent"] for e in packet_report(1155, 1).entries]
    assert sum(e >= euler_phi(1155) for e in es) > len(es) // 2
    assert format_roots_of_unity(1155, es) == \
        [format_scalar(root_of_unity(1155, e)) for e in es]


@pytest.mark.parametrize("N", [6, 10, 12, 30, 34, 46, 210])
def test_format_root_of_unity_negates_past_half_an_even_order(N, monkeypatch):
    # zeta^e = -zeta^(e - N/2): every e with e - N/2 < phi(N) is printed
    # without a root built, and the others come from the one pass, so no
    # root and no long division is built at all
    want = [format_scalar(root_of_unity(N, e)) for e in range(2 * N)]
    built = []
    monkeypatch.setattr(bhl.scalars, "root_of_unity",
                        lambda order, k=1: built.append(k % order)
                        or root_of_unity(order, k))
    assert format_roots_of_unity(N, range(2 * N)) == want
    assert built == []
