"""Exact scalar arithmetic in cyclotomic fields Q(zeta_N).

Values are represented on the power basis 1, zeta, ..., zeta^(d-1) where
d = deg Phi_N (Euler phi of N), with integer coordinates over a common
positive denominator, always fully reduced.  Canonical form means equality
of values is equality of coefficient vectors; hash agrees with Fraction for
rational-valued elements so mixed dict keys behave.

Type policy: an operation with a Cyclotomic operand returns a Cyclotomic,
and its order and canonical (num, den) do not depend on the route taken.
Rationals embed into any Q(zeta_N).  A rational operand of the same order
(an int, a Fraction, or a Cyclotomic whose only nonzero coordinate is the
constant one) scales the coordinate vector or shifts its constant
coordinate; it is never promoted to a full element first.  Two elements
of *different* orders can only meet if one of them is rational-valued,
which is then promoted; anything else raises OrderMismatchError — no
silent compositum.

Inverses: a monomial c*zeta^k inverts by lookup as c^-1 * zeta^(N-k), read
from the table of powers of zeta; any other element by an integer linear
solve against its multiplication matrix.

Also provides the q-combinatorics used throughout: q-integers (n)_xi,
q-factorials, Gaussian binomials, the balanced quantum integers [n]_q, and
quadratic Gauss sums.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, lcm


class OrderMismatchError(ValueError):
    """Two irrational cyclotomics of different orders met in one operation."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

_PHI_CACHE: dict[int, tuple[int, ...]] = {}


def _poly_divexact(num, den):
    # exact division of integer polynomials, low-to-high coefficients
    num = list(num)
    dn = len(den) - 1
    while den[dn] == 0:
        dn -= 1
    out = [0] * (len(num) - dn)
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn]
        if c % den[dn]:
            raise ArithmeticError("non-exact polynomial division")
        c //= den[dn]
        out[k] = c
        if c:
            for i in range(dn + 1):
                num[k + i] -= c * den[i]
    if any(num[: dn]):
        raise ArithmeticError("non-exact polynomial division")
    return out


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low to high, monic."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n in _PHI_CACHE:
        return _PHI_CACHE[n]
    if n == 1:
        poly = (-1, 1)
    else:
        num = [0] * (n + 1)
        num[0], num[n] = -1, 1  # x^n - 1
        for d in range(1, n):
            if n % d == 0:
                num = _poly_divexact(num, cyclotomic_polynomial(d))
        poly = tuple(num)
    _PHI_CACHE[n] = poly
    return poly


_POWTAB_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _powtab(order):
    """Coordinate rows of zeta^k on the power basis, k = 0 .. max(2d-2, N-1).

    Rows up to 2d-2 reduce a product of two elements; rows up to N-1 give
    every root of unity of the order.
    """
    if order in _POWTAB_CACHE:
        return _POWTAB_CACHE[order]
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    rows = [_monomial_row(d, 0)]
    for _ in range(max(2 * d - 2, order - 1)):
        rows.append(_times_zeta(rows[-1], phi))
    _POWTAB_CACHE[order] = rows
    return rows


def _monomial_row(d, k):
    return (0,) * k + (1,) + (0,) * (d - 1 - k)


def _times_zeta(row, phi):
    """The coordinate row of zeta times the element with coordinates row."""
    d = len(phi) - 1
    top = row[d - 1]
    nxt = [0] + list(row[:d - 1])
    if top:
        for i in range(d):
            nxt[i] -= top * phi[i]  # zeta^d = -(phi_0 + ... + phi_{d-1} z^{d-1})
    return tuple(nxt)


def _root_row(order, k):
    """The coordinate row of zeta_order^k.

    It is read from the table of powers when that is built; otherwise it
    is reduced on its own, so that naming one root of unity of a large
    order costs phi(order) coordinates, not the order x phi(order) table.
    """
    if order in _POWTAB_CACHE:
        return _POWTAB_CACHE[order][k % order]
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    k %= order
    if k < d:
        return _monomial_row(d, k)
    row = _monomial_row(d, d - 1)
    for _ in range(k - d + 1):
        row = _times_zeta(row, phi)
    return row


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------


class Cyclotomic:
    """An element of Q(zeta_order) in canonical form."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order, num, den=1):
        d = euler_phi(order)
        vec = list(num) + [0] * (d - len(num))
        if len(vec) != d:
            raise ValueError("coefficient vector longer than the basis")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            vec = [-v for v in vec]
        g = gcd(den, *vec)
        if g > 1:
            den //= g
            vec = [v // g for v in vec]
        if not any(vec):
            den = 1
        self.order = order
        self.num = tuple(vec)
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(value, order=1):
        if type(value) is int:
            n, m = value, 1
        else:
            f = Fraction(value)
            n, m = f.numerator, f.denominator
        return _make(order, (n,) + (0,) * (euler_phi(order) - 1), m)

    @staticmethod
    def one(order=1):
        return Cyclotomic.from_rational(1, order)

    # -- structure ----------------------------------------------------------

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational value: %s" % self)
        return Fraction(self.num[0], self.den)

    def __bool__(self):
        return any(self.num)

    # -- coercion -----------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, Cyclotomic):
            if other.order == self.order:
                return self, other
            if other.is_rational():
                return self, Cyclotomic.from_rational(other.as_fraction(), self.order)
            if self.is_rational():
                return Cyclotomic.from_rational(self.as_fraction(), other.order), other
            raise OrderMismatchError(
                "cannot mix Q(zeta_%d) with Q(zeta_%d)" % (self.order, other.order)
            )
        if isinstance(other, (int, Fraction)):
            return self, Cyclotomic.from_rational(other, self.order)
        return None

    # -- ring operations ----------------------------------------------------
    #
    # Rational operands (int, Fraction, and same-order Cyclotomics with only
    # a constant coordinate) take the _scaled / constant-shift paths; only a
    # Cyclotomic of another order goes through _pair.

    def __add__(self, other):
        if isinstance(other, Cyclotomic):
            a, b = (self, other) if other.order == self.order else self._pair(other)
            if a.den == b.den:
                return _reduced(a.order, [x + y for x, y in zip(a.num, b.num)], a.den)
            g = gcd(a.den, b.den)
            la, lb = b.den // g, a.den // g
            vec = [x * la + y * lb for x, y in zip(a.num, b.num)]
            return _reduced(a.order, vec, a.den * la)
        if isinstance(other, int):
            # gcd(num + other*den*e_0, den) = gcd(num, den) = 1: still canonical
            num = self.num
            return _make(self.order, (num[0] + other * self.den,) + num[1:], self.den)
        if isinstance(other, Fraction):
            n, m = other.numerator, other.denominator
            g = gcd(self.den, m)
            la, lb = m // g, self.den // g
            vec = [x * la for x in self.num]
            vec[0] += n * lb
            return _reduced(self.order, vec, self.den * la)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, (Cyclotomic, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyclotomic):
            a, b = (self, other) if other.order == self.order else self._pair(other)
            an, bn = a.num, b.num
            if not any(bn[1:]):
                return _scaled(a, bn[0], b.den)
            if not any(an[1:]):
                return _scaled(b, an[0], a.den)
            n = len(an)
            conv = [0] * (2 * n - 1)
            for i, ai in enumerate(an):
                if ai:
                    for j, bj in enumerate(bn):
                        if bj:
                            conv[i + j] += ai * bj
            vec = conv[:n]
            tab = None
            for k in range(n, 2 * n - 1):
                ck = conv[k]
                if ck:
                    if tab is None:
                        tab = _powtab(a.order)
                    row = tab[k]
                    for i in range(n):
                        if row[i]:
                            vec[i] += ck * row[i]
            return _reduced(a.order, vec, a.den * b.den)
        if isinstance(other, int):
            return _scaled(self, other, 1)
        if isinstance(other, Fraction):
            return _scaled(self, other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: by lookup for a monomial c*zeta^k,
        otherwise by solving num * y = 1 over the integers."""
        num = self.num
        support = [k for k, v in enumerate(num) if v]
        if not support:
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
        if len(support) == 1:
            # (c zeta^k)^-1 = c^-1 zeta^(N-k); for k = 0 that is row 0, i.e. 1
            k = support[0]
            c, den = num[k], self.den
            if c < 0:
                c, den = -c, -den
            row = _root_row(self.order, -k)
            return _reduced(self.order, [den * r for r in row], c)
        return _inverse_general(self)

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, lambda: Cyclotomic.one(self.order))

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == other
        if isinstance(other, Cyclotomic):
            if other.order == self.order:
                return self.num == other.num and self.den == other.den
            if self.is_rational() and other.is_rational():
                return self.as_fraction() == other.as_fraction()
            if self.is_rational() != other.is_rational():
                return False
            raise OrderMismatchError(
                "cannot compare Q(zeta_%d) with Q(zeta_%d)" % (self.order, other.order)
            )
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        return format_scalar(self)


_new = object.__new__


def _make(order, num, den):
    """A Cyclotomic from a coordinate tuple and denominator already canonical."""
    c = _new(Cyclotomic)
    c.order = order
    c.num = num
    c.den = den
    return c


def _reduced(order, vec, den):
    """The canonical Cyclotomic of a full-length integer list over den > 0.

    Unlike the public constructor this neither pads, validates nor fixes
    signs, and over den == 1 it takes no gcd at all.
    """
    if den != 1:
        g = gcd(den, *vec)
        if g > 1:  # also when vec is zero: then g == den and den becomes 1
            den //= g
            vec = [v // g for v in vec]
    return _make(order, tuple(vec), den)


def _scaled(x, n, m):
    """x * (n/m) for a reduced fraction n/m, m > 0, in canonical form.

    n/m and num/den are both reduced, so cancelling gcd(n, den) and
    gcd(m, content of num) leaves the result reduced.  n == 0 forces
    m == 1, so a zero product gets den 1.
    """
    num, den = x.num, x.den
    g = gcd(n, den)
    if g > 1:
        n //= g
        den //= g
    if m > 1:
        h = gcd(m, *num)
        if h > 1:
            m //= h
            num = [v // h for v in num]
        den *= m
    return _make(x.order, tuple(v * n for v in num), den)


def _inverse_general(x):
    """x^-1 for an x with at least two nonzero coordinates.

    Solves M y = e_0, where column j of the integer matrix M holds the
    coordinates of num * zeta^j, by Gauss-Jordan elimination that keeps
    every row integral (cross-multiplication, then division by the row's
    content).  Row i ends as D_i e_i | b_i, so num^-1 has coordinates
    b_i / D_i and x^-1 = den * num^-1.
    """
    num, den = x.num, x.den
    phi = cyclotomic_polynomial(x.order)
    d = len(num)
    rows = [[0] * (d + 1) for _ in range(d)]
    rows[0][d] = 1
    col = list(num)
    for j in range(d):
        for i in range(d):
            rows[i][j] = col[i]
        top = col[-1]
        col = [0] + col[:-1]
        if top:  # zeta^d = -(phi_0 + ... + phi_{d-1} zeta^{d-1})
            col = [c - top * f for c, f in zip(col, phi)]
    for k in range(d):
        if not rows[k][k]:  # M is invertible, so some later row has a pivot
            p = next(i for i in range(k + 1, d) if rows[i][k])
            rows[k], rows[p] = rows[p], rows[k]
        prow = rows[k]
        pk = prow[k]
        for i in range(d):
            f = rows[i][k]
            if f and i != k:
                r = [pk * a - f * b for a, b in zip(rows[i], prow)]
                g = gcd(*r)
                if g > 1:
                    r = [v // g for v in r]
                rows[i] = r
    lcd = lcm(*(r[i] for i, r in enumerate(rows)))
    return _reduced(x.order, [den * r[d] * (lcd // r[i]) for i, r in enumerate(rows)], lcd)


def power(base, e: int, one, mul=operator.mul):
    """base ** e for e >= 0 by square-and-multiply with ``mul``.

    The product starts from the first factor, so ``one()`` (the identity)
    is only called for e = 0 and never enters a product.
    """
    if e < 0:
        raise ValueError("power needs e >= 0, got %d" % e)
    result = None
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return one() if result is None else result


def root_of_unity(order: int, k: int = 1) -> Cyclotomic:
    """zeta_order ** k as an exact element of Q(zeta_order)."""
    return _make(order, _powtab(order)[k % order], 1)


_ROOT_INDEX: dict[int, dict[tuple[int, ...], int]] = {}


def root_exponent(value, order: int):
    """The k in 0 .. order-1 with value == zeta_order^k, or None."""
    if isinstance(value, Cyclotomic) and not value.is_rational():
        if value.order != order or value.den != 1:
            return None
        index = _ROOT_INDEX.get(order)
        if index is None:
            index = _ROOT_INDEX[order] = {
                row: k for k, row in enumerate(_powtab(order)[:order])}
        return index.get(value.num)
    if value == 1:
        return 0
    if value == -1 and order % 2 == 0:
        return order // 2
    return None


def in_field(value, order: int) -> bool:
    """Whether a parsed scalar lies in Q(zeta_order) as stored here: an
    int, a Fraction, a rational Cyclotomic, or a Cyclotomic of that order."""
    if isinstance(value, Cyclotomic):
        return value.order == order or value.is_rational()
    return isinstance(value, (int, Fraction))


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------


def q_int(n: int, xi):
    """(n)_xi = 1 + xi + ... + xi^(n-1)."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    total = xi ** 0 * 0
    for i in range(n):
        total = total + xi ** i
    return total


def q_factorial(n: int, xi):
    """(n)_xi! = (n)_xi (n-1)_xi ... (1)_xi, empty product for n = 0."""
    total = xi ** 0
    for i in range(1, n + 1):
        total = total * q_int(i, xi)
    return total


def q_binomial(n: int, k: int, xi):
    """Gaussian binomial (n choose k)_xi via factorials."""
    if not 0 <= k <= n:
        return xi ** 0 * 0
    return q_factorial(n, xi) / (q_factorial(k, xi) * q_factorial(n - k, xi))


def balanced_q_int(n: int, q):
    """[n]_q = (q^n - q^-n)/(q - q^-1); [0]_q = 0."""
    if n == 0:
        return q ** 0 * 0
    return (q ** n - q ** (-n)) / (q - q ** (-1))


def balanced_q_factorial(n: int, q):
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with [0]_q! = 1."""
    total = q ** 0
    for i in range(1, n + 1):
        total = total * balanced_q_int(i, q)
    return total


def gauss_sum(p: int, q, m: int):
    """sum_{i=0}^{p-1} q^(m i^2); guaranteed nonzero for the uses here."""
    total = q ** 0 * 0
    for i in range(p):
        total = total + q ** (m * i * i)
    if not total:
        raise ArithmeticError("vanishing Gauss sum: p=%d m=%d" % (p, m))
    return total


# ---------------------------------------------------------------------------
# textual scalar syntax
# ---------------------------------------------------------------------------
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-'* atom ('^' ('-'? INT))?
#   atom   := INT | 'q' '(' INT ',' INT ')' | '(' expr ')'
#
# q(N,k) denotes zeta_N^k.  This grammar is shared by the DSL matrix
# literals, module files and JSON report serialization.

_SCALAR_TOKEN = re.compile(r"\s*(\d+|[qQ]|\^|\(|\)|,|\*|/|\+|-)")


def _tokenize_scalar(text):
    pos, out = 0, []
    while pos < len(text):
        m = _SCALAR_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError("bad scalar syntax at %r" % text[pos:])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _ScalarParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError("scalar syntax: expected %r, got %r" % (expected, tok))
        self.pos += 1
        return tok

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                value = Fraction(value) / rhs if isinstance(value, int) and isinstance(rhs, int) \
                    else value / rhs
        return value

    def factor(self):
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        value = self.atom()
        if self.peek() == "^":
            self.take()
            esign = 1
            if self.peek() == "-":
                self.take()
                esign = -1
            e = esign * int(self.take())
            if isinstance(value, int):
                value = Fraction(value)
            value = value ** e
        return sign * value

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        if tok in ("q", "Q"):
            self.take()
            self.take("(")
            n = int(self.take())
            self.take(",")
            k = int(self.take())
            self.take(")")
            # one row, not root_of_unity's table: n need not be the field's
            return _make(n, _root_row(n, k), 1)
        if tok is not None and tok.isdigit():
            return int(self.take())
        raise ValueError("scalar syntax: unexpected %r" % tok)


def parse_scalar(text: str):
    """Parse the textual scalar syntax; returns int, Fraction or Cyclotomic.

    Bad input, division by zero and too deep nesting included, raises
    ValueError.
    """
    parser = _ScalarParser(_tokenize_scalar(text))
    try:
        value = parser.expr()
    except ZeroDivisionError:
        raise ValueError("division by zero") from None
    except RecursionError:
        raise ValueError("parentheses nested too deeply") from None
    if parser.peek() is not None:
        raise ValueError("trailing scalar input: %r" % parser.tokens[parser.pos:])
    return value


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def format_scalar(value) -> str:
    """Canonical text for a scalar; parse_scalar(format_scalar(v)) == v."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return _format_fraction(value)
    if not isinstance(value, Cyclotomic):
        raise TypeError("not a scalar: %r" % (value,))
    if value.is_rational():
        return _format_fraction(value.as_fraction())
    parts = []
    for k, coeff in enumerate(value.num):
        if not coeff:
            continue
        c = Fraction(coeff, value.den)
        if k == 0:
            body = _format_fraction(abs(c))
        else:
            mon = "q(%d,%d)" % (value.order, k)
            body = mon if abs(c) == 1 else "%s*%s" % (_format_fraction(abs(c)), mon)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)
