"""Exact scalar arithmetic in cyclotomic fields Q(zeta_N).

Values are represented on the power basis 1, zeta, ..., zeta^(d-1) where
d = deg Phi_N (Euler phi of N), with integer coordinates over a common
positive denominator, always fully reduced.  Canonical form means equality
of values is equality of coefficient vectors; hash agrees with Fraction for
rational-valued elements so mixed dict keys behave.

Type policy: an operation with a Cyclotomic operand returns a Cyclotomic,
and its order and canonical (num, den) do not depend on the route taken.
Nothing is promoted: a rational-valued operand of any order (an int, a
Fraction, or a Cyclotomic whose only nonzero coordinate is the constant
one) scales the other operand or shifts its constant coordinate, which
keeps its order.  Two irrational elements of *different* orders raise
OrderMismatchError — no silent compositum.

Shapes: _monomial(x) names x = c*zeta^k, from its zero coordinates:
one nonzero coordinate, or at a prime order p all p - 1 coordinates
equal, a*(1 + zeta + ... + zeta^(p-2)) = -a*zeta^(p-1).  Its k is 0
exactly when x is rational.  Products, inverses and powers branch on it:

* a rational operand scales the other (an operand equal to 1 returns the
  other itself);
* c*zeta^k times c'*zeta^k' is c*c' times zeta^(k+k'), read from the one
  memoised table of roots of unity (root_of_unity) and scaled once;
* c*zeta^k times any other element x is c*x rotated by k in a length-N
  vector; at a prime order p that vector has length p, and subtracting
  its top coordinate from the others reduces it, as zeta^(p-1) = -(1 +
  ... + zeta^(p-2)); at a composite order it reduces through _reduce;
* two other elements are convolved over their nonzero coordinates and
  reduced through _reduce, which folds once by zeta^N = 1 and divides by
  Phi_N, keeping per order only phi(N) and the nonzero terms of Phi_N.
  The roots of unity and the columns of a multiplication matrix reduce
  through it too.

Inverses and powers: (c*zeta^k)^e is c^e*zeta^(ke) for any integer e,
the inverse (1/c)*zeta^-k among them, with no product.  Any other x has
x^-1 = y / (x*y) for a product y of Galois conjugates of x with x*y
rational.  At a prime order p >= 5 y is the product of the other
conjugates, by an addition chain over the cyclic Galois group (Itoh and
Tsujii), 8 products rather than 28 at p = 29, counting the norm x*y.  At
p = 3 the conjugate sigma_-1(x) alone does, and so it does for a zeta^k
that a composite order writes with more than one coordinate; any other
element of a composite order, whose Galois group need not be cyclic,
takes the other conjugates one at a time.  Other powers take
square-and-multiply, of the inverse for e < 0.

Also provides the q-combinatorics used throughout, with no division per
coefficient: q-integers (n)_xi, q-factorials, Gaussian binomials from one
q-Pascal table, inverse factorials from one inverse, [n]_q, Gauss sums.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod


class OrderMismatchError(ValueError):
    """Two irrational cyclotomics of different orders met in one operation."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

_PHI_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low to high, monic.

    Phi_n is the product of (x^(n/s) - 1)^mu(s) over the squarefree s
    dividing n: multiply by the binomials with mu(s) = 1, then divide
    exactly by the others (every partial quotient is a polynomial).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n in _PHI_CACHE:
        return _PHI_CACHE[n]
    primes, m, f = [], n, 2
    while f * f <= m:
        if m % f == 0:
            primes.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        primes.append(m)
    times, over = [n], []
    for p in primes:
        times, over = times + [e // p for e in over], over + [e // p for e in times]
    poly = [1]
    for e in times:  # poly * (x^e - 1)
        poly = [0] * e + poly
        for i in range(len(poly) - e):
            poly[i] -= poly[i + e]
    for e in over:  # poly / (x^e - 1): poly[k] = q[k - e] - q[k]
        q = [0] * (len(poly) - e)
        for k in range(len(q)):
            q[k] = (q[k - e] if k >= e else 0) - poly[k]
        poly = q
    _PHI_CACHE[n] = poly = tuple(poly)
    return poly


_REDUCERS: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}


def _reduce(order, vec):
    """The coordinates of sum_k vec[k] zeta^k on the power basis.

    vec is an integer list shorter than 2 * order, used up by the call.
    It is folded once by zeta^order = 1, then divided by the monic
    Phi_order one nonzero term at a time, top coefficient first.
    """
    reducer = _REDUCERS.get(order)
    if reducer is None:
        phi = cyclotomic_polynomial(order)
        d = len(phi) - 1
        reducer = _REDUCERS[order] = d, tuple((i, c) for i, c in enumerate(phi[:d]) if c)
    d, terms = reducer
    n = len(vec)
    if n > order:  # zeta^order = 1
        vec[:n - order] = map(operator.add, vec, vec[order:])
        del vec[order:]
        n = order
    if n <= d:
        return vec + [0] * (d - n)
    for k in range(n - 1, d - 1, -1):
        c = vec[k]
        if c:  # zeta^d = -(phi_0 + ... + phi_{d-1} zeta^{d-1})
            s = k - d
            for i, f in terms:
                vec[s + i] -= c * f
    return vec[:d]


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

    # -- ring operations ----------------------------------------------------
    #
    # Operand shape is tested before order (see the type policy above): a
    # rational of any order scales or shifts; products branch on _monomial.

    def __add__(self, other):
        if isinstance(other, Cyclotomic):
            a, b = self, other
            if not any(b.num[1:]):
                return _shifted(a, b.num[0], b.den)
            if not any(a.num[1:]):
                return _shifted(b, a.num[0], a.den)
            if a.order != b.order:
                raise _mismatch(a, b)
            if a.den == b.den:
                return _reduced(a.order, [x + y for x, y in zip(a.num, b.num)], a.den)
            g = gcd(a.den, b.den)
            la, lb = b.den // g, a.den // g
            vec = [x * la + y * lb for x, y in zip(a.num, b.num)]
            return _reduced(a.order, vec, a.den * la)
        if isinstance(other, int):
            return _shifted(self, other, 1)
        if isinstance(other, Fraction):
            return _shifted(self, other.numerator, other.denominator)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple([-v for v in self.num]), self.den)

    def __sub__(self, other):
        if isinstance(other, (Cyclotomic, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyclotomic):
            a, b = self, other
            an, bn = a.num, b.num
            z = bn.count(0)  # b is rational: no nonzero past the first
            if z == len(bn) or z + 1 == len(bn) and bn[0]:
                return _scaled(a, bn[0], b.den)
            z = an.count(0)
            if z == len(an) or z + 1 == len(an) and an[0]:
                return _scaled(b, an[0], a.den)
            order = a.order
            if order != b.order:
                raise _mismatch(a, b)
            ma, mb = _monomial(a), _monomial(b)
            if ma and mb:  # c zeta^k * c' zeta^k' = c c' zeta^(k + k')
                (c, k), (e, j) = ma, mb
                g, h = gcd(c, b.den), gcd(e, a.den)
                return _scaled(root_of_unity(order, k + j), (c // g) * (e // h),
                               (a.den // h) * (b.den // g))
            n = len(an)
            if mb:
                ma, an, bn = mb, bn, an
            if ma:  # c zeta^k * x: rotate c*x by k in a length-N vector
                c, k = ma
                if n + 1 == order:  # then subtract the top coordinate
                    t = bn[n - k]
                    vec = [c * (v - t) for v in bn] + [-c * t]
                    vec = vec[-k:] + vec[:n - k]
                else:
                    vec = [c * v for v in bn] + [0] * (order - n)
                    vec = _reduce(order, vec[-k:] + vec[:-k])
            else:
                support = [(j, v) for j, v in enumerate(bn) if v]
                vec = [0] * (2 * n - 1)
                for i, ai in enumerate(an):
                    if ai:
                        for j, bj in support:
                            vec[i + j] += ai * bj
                vec = _reduce(order, vec)
            return _reduced(order, vec, a.den * b.den)
        if isinstance(other, int):
            return _scaled(self, other, 1)
        if isinstance(other, Fraction):
            return _scaled(self, other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: (1/c)*zeta^-k for x = c*zeta^k
        (_monomial), else by the norm identity x^-1 = prod_{sigma != id}
        sigma(x) / N(x) (Washington, *Introduction to Cyclotomic Fields*,
        GTM 83, ch. 2).

        An element of prime order p >= 5 takes y = _norm_cofactor(x), an
        addition chain over the cyclic Galois group.  At p = 3, where
        sigma_-1 is the only automorphism but the identity, and at a
        composite order y starts as sigma_-1(x); there, when x*y is not
        rational, y takes every other conjugate sigma_k(x), k != 1 a unit
        mod N, one at a time, as the Galois group need not be cyclic.
        Then x*y = N(x), and Q(zeta_N) is Q or a CM field, so it is a
        positive rational.
        """
        mono = _monomial(self)
        if mono:  # (c zeta^k)^-1 = (1/c) zeta^-k
            c, k = mono
            if not c:
                raise ZeroDivisionError("division by zero in Q(zeta_%d)"
                                        % self.order)
            n, m = (self.den, c) if c > 0 else (-self.den, -c)
            return _scaled(root_of_unity(self.order, -k), n, m)
        if len(self.num) + 1 == self.order > 4:
            y = _norm_cofactor(self)
        else:
            y = _conjugate(self, -1)
        norm = self * y
        if any(norm.num[1:]):  # only at a composite order
            for k in range(2, self.order - 1):
                if gcd(k, self.order) == 1:
                    y = y * _conjugate(self, k)
            norm = self * y
        return _scaled(y, norm.den, norm.num[0])

    def __truediv__(self, other):
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        mono = _monomial(self)
        if mono and mono[0]:  # (c zeta^k)^e = c^e zeta^(ke)
            c, k = mono
            n, m = (c, self.den) if e >= 0 else (self.den, c)
            if m < 0:
                n, m = -n, -m
            return _scaled(root_of_unity(self.order, k * e),
                           n ** abs(e), m ** abs(e))
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


def _monomial(x):
    """(c, k) with x = (c / x.den) zeta^k, or None.

    It is (c, k) when k is the one nonzero coordinate of x, c, and (0, 0)
    when x is zero, so k == 0 exactly when x is rational; at a prime order
    p also (-a, p - 1) when all p - 1 coordinates equal a, as
    a (1 + zeta + ... + zeta^(p-2)) = -a zeta^(p-1).  c is coprime to
    x.den, x being canonical.
    """
    num = x.num
    n = len(num)
    if num.count(0) >= n - 1:
        c = sum(num)
        return c, num.index(c)
    if n + 1 == x.order and num.count(num[0]) == n:
        return -num[0], n
    return None


def _mismatch(a, b):
    return OrderMismatchError(
        "cannot mix Q(zeta_%d) with Q(zeta_%d)" % (a.order, b.order))


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
    if n == m == 1:
        return x
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
    return _make(x.order, tuple([v * n for v in num]), den)


def _shifted(x, n, m):
    """x + n/m for a reduced fraction n/m, m > 0, in canonical form."""
    num, den = x.num, x.den
    if m == 1:  # gcd(num + n*den*e_0, den) = gcd(num, den) = 1: still canonical
        return _make(x.order, (num[0] + n * den,) + num[1:], den)
    g = gcd(den, m)
    la, lb = m // g, den // g
    vec = [v * la for v in num]
    vec[0] += n * lb
    return _reduced(x.order, vec, den * la)


def _conjugate(x, k):
    """sigma_k(x), the image of x under zeta -> zeta^k, for a unit k mod N.

    sigma_k maps Z[zeta] onto itself, so the coordinates stay coprime to
    x.den and the result is canonical.
    """
    order = x.order
    vec = [0] * order
    for j, v in enumerate(x.num):
        if v:
            vec[j * k % order] += v
    return _make(order, tuple(_reduce(order, vec)), x.den)


_PRIMITIVE_ROOTS: dict[int, int] = {}


def _norm_cofactor(x):
    """The product of sigma(x) over the p - 2 automorphisms sigma != id of
    Q(zeta_p), for x of prime order p >= 5, in floor(log2(p-2)) +
    popcount(p-2) - 1 products; x times it is the norm of x.

    With g a primitive root mod p, the Galois group is cyclic on sigma_g,
    and P_k = prod_{i<k} sigma_g^i(z), z = sigma_g(x), obeys P_2k =
    P_k * sigma_g^k(P_k) and P_(k+1) = P_k * sigma_g^k(z).  The bits of
    p - 2 from the top build P_(p-2), the product over sigma_g^i, 0 < i <
    p - 1: an addition chain over the group (Itoh and Tsujii,
    *Information and Computation* 78, 1988).
    """
    p = x.order
    g = _PRIMITIVE_ROOTS.get(p)
    if g is None:  # the g whose powers reach all p - 1 units
        g = _PRIMITIVE_ROOTS[p] = next(g for g in range(2, p) if len(
            {pow(g, i, p) for i in range(p - 1)}) == p - 1)
    z = y = _conjugate(x, g)
    k = 1
    for bit in bin(p - 2)[3:]:
        y = y * _conjugate(y, pow(g, k, p))
        k *= 2
        if bit == "1":
            y = y * _conjugate(z, pow(g, k, p))
            k += 1
    return y


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


_ROOTS: dict[tuple[int, int], Cyclotomic] = {}


def root_of_unity(order: int, k: int = 1) -> Cyclotomic:
    """zeta_order ** k as an exact element of Q(zeta_order), built once per
    order and k mod order and then shared, as no operation changes a
    Cyclotomic."""
    if order < 1:
        raise ValueError("order must be >= 1")
    k %= order
    root = _ROOTS.get((order, k))
    if root is None:
        root = _ROOTS[order, k] = _make(
            order, tuple(_reduce(order, [0] * k + [1])), 1)
    return root


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
    """(n)_xi = 1 + xi + ... + xi^(n-1), with a running term xi^i."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    total, term = xi ** 0 * 0, xi ** 0
    for _ in range(n):
        total, term = total + term, term * xi
    return total


def q_factorials(n: int, xi):
    """[(0)_xi!, ..., (n)_xi!], (j)_xi! = (j)_xi ... (1)_xi, a running
    product of running sums."""
    out, factor, term = [xi ** 0], xi ** 0 * 0, xi ** 0
    for _ in range(n):
        factor, term = factor + term, term * xi
        out.append(out[-1] * factor)
    return out


def q_binomials(n: int, xi):
    """Rows m <= n of the Gaussian binomials (m k)_xi, k <= m, by q-Pascal:
    (m k)_xi = (m-1 k-1)_xi + xi^k (m-1 k)_xi (Kac and Cheung, ch. 6), with
    no division, so also for m >= ord xi, where q-Lucas gives them."""
    rows, powers = [[xi ** 0]], [xi ** 0]
    for _ in range(n):  # row m from row m - 1, padded by a 0 at each end
        powers.append(powers[-1] * xi)
        rows.append([a + x * b for a, x, b in
                     zip([0] + rows[-1], powers, rows[-1] + [0])])
    return rows


def inverse_factorials(factors):
    """[1/(f_1 ... f_j) for j = 0..n] of n >= 1 nonzero factors, from the
    one inverse of f_1 ... f_n: 1/(f_1 ... f_(j-1)) = f_j/(f_1 ... f_j)."""
    return list(accumulate(reversed(factors), operator.mul,
                           initial=prod(factors).inverse()))[::-1]


def balanced_q_int(n: int, q):
    """[n]_q = q^(n-1) + q^(n-3) + ... + q^(1-n), which is
    (q^n - q^-n)/(q - q^-1) with no division; [0]_q = 0 and
    [-n]_q = -[n]_q."""
    if n < 0:
        return -balanced_q_int(-n, q)
    total, term, step = q ** 0 * 0, q ** (1 - n), q * q
    for _ in range(n):
        total, term = total + term, term * step
    return total


def balanced_q_factorials(n: int, q):
    """[[0]_q!, ..., [n]_q!], [j]_q! = [j]_q ... [1]_q, a running product
    of [j]_q = q^-1 [j-1]_q + q^(j-1)."""
    out, factor, term, back = [q ** 0], q ** 0 * 0, q ** 0, q ** -1
    for _ in range(n):
        factor, term = back * factor + term, term * q
        out.append(out[-1] * factor)
    return out


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
# q(N,k) (or Q(N,k)) denotes zeta_N^k.  A reader given an ambient order n
# (a script's --n, a module file's p) rejects a q(N,k) that in_field would,
# N != n with zeta_N^k not +-1, before it builds it, and reads the q(N,k)
# = +-1 of N != n as rationals of order n.  Every value it reads lies in
# Q(zeta_n): a rational operand keeps the order of the other.
# q(N,k)^e is read as q(N,ke), with no power taken.  Any other power whose
# value would have more than POWER_BITS bits is a syntax error at its
# exponent, unless its base is a root of unity, whose exponent is first
# reduced modulo 2N (_power_bits gives the estimate).
# Module files and JSON reports write scalars in this grammar, and the
# diagram scripts of bhl.dsl read their matrix entries with the same
# TokenReader method.  One tokenizer serves both: a lone scalar may have
# any whitespace between its tokens, a script only spaces, tabs and line
# breaks, plus comments from '#' to end of line.

POWER_BITS = 1 << 20

# the separators of a lone scalar or of a script (group 1), then any token
_TOKENS = tuple(re.compile(
    r"(%s)(?:(?P<int>\d+)|(?P<name>\w+)|(?P<sym>->|==|[-={}()\[\],;:*^+/]))?"
    % skip) for skip in (r"\s*", r"(?:[ \t\r\n]+|#.*)*"))


class ParseError(ValueError):
    """Text outside the grammar, at a line and column (both from 1)."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.message = message
        self.line = line
        self.col = col


class FieldError(ParseError):
    """A q(N,k) outside the ambient field of a TokenReader."""


def tokenize(text, script=False):
    """The tokens (kind, text, line, col) of text, kind "int", "name" or
    "sym", then one ("eof", "", line, col).

    An int is a run of decimal digits; a name starts with a letter or '_'
    and goes on with letters, digits and '_'.  A character that starts no
    token raises ParseError.  script selects the separators of a diagram
    script (see above) instead of those of a lone scalar.
    """
    pattern = _TOKENS[script]
    tokens, line, start, i = [], 1, 0, 0
    while True:
        j = (m := pattern.match(text, i)).end(1)
        breaks = text.count("\n", i, j)
        if breaks:
            line += breaks
            start = text.rindex("\n", i, j) + 1
        col = j - start + 1
        if j == len(text):
            tokens.append(("eof", "", line, col))
            return tokens
        kind, ch = m.lastgroup, text[j]
        if kind is None or kind == "name" and not (ch.isalpha() or ch == "_"):
            raise ParseError("unexpected character %r" % ch, line, col)
        tokens.append((kind, m[kind], line, col))
        i = m.end()


def _power_bits(value, e):
    """An estimate of the bits of value ** e, for a Fraction or Cyclotomic:
    |e| ceil(log2 m), m the larger of the denominator and the sum of the
    absolute numerator coordinates, for each of the phi(N) coordinates of
    an irrational element of Q(zeta_N)."""
    if isinstance(value, Fraction):
        m, width = max(abs(value.numerator), value.denominator), 1
    else:
        m = max(sum(map(abs, value.num)), value.den)
        width = 1 if value.is_rational() else len(value.num)
    return abs(e) * (m - 1).bit_length() * width


def _is_root_of_unity(value):
    """Whether a Cyclotomic is a root of unity: an algebraic integer with
    x * sigma_-1(x) = 1 has absolute value 1 under every embedding of the
    CM field Q(zeta_N), so it is one (Kronecker)."""
    return (isinstance(value, Cyclotomic) and value.den == 1
            and value * _conjugate(value, -1) == 1)


def _divide(a, b):
    return Fraction(a) / b if isinstance(a, int) and isinstance(b, int) else a / b


# the binary operators of expr (level 0) and of term (level 1)
_LEVELS = ({"+": operator.add, "-": operator.sub},
           {"*": operator.mul, "/": _divide})


class TokenReader:
    """A cursor over tokenize(text), and the scalar grammar read at it.

    Tokens are tuples (kind, text, line, col); take() never passes the
    final "eof" token.  No two kinds share a text, so a token is known by
    its text alone.  A syntax error is a ParseError at the line and column
    of the token at fault; given an ambient order, a q(N,k) outside
    Q(zeta_order) is one, a FieldError.  A reader of a diagram script
    subclasses this one, sets ``script``, and reads each scalar in it with
    scalar().
    """

    script = False

    def __init__(self, text, order=None):
        self.tokens = tokenize(text, self.script)
        self.pos = 0
        self.order = order

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def at_sym(self, s):
        return self.tokens[self.pos][1] == s

    def fail(self, message, tok):
        raise ParseError(message, tok[2], tok[3])

    def expected(self, what, tok):
        found = tok[1] or "end of input"
        self.fail("expected %s, found %r" % (what, found), tok)

    def expect_sym(self, s):
        tok = self.take()
        if tok[1] != s:
            self.expected(repr(s), tok)
        return tok

    def expect_name(self, what):
        tok = self.take()
        if tok[0] != "name":
            self.expected(what, tok)
        return tok

    def expect_int(self):
        tok = self.take()
        if tok[0] != "int":
            self.expected("an integer", tok)
        return int(tok[1])

    def scalar(self):
        """The scalar at the cursor, an int, Fraction or Cyclotomic.

        Division by zero, too deep nesting and two roots of unity of
        different orders are errors at the scalar's first token.
        """
        tok = self.peek()
        try:
            return self._scalar(0)
        except RecursionError:
            message = "parentheses nested too deeply"
        except ZeroDivisionError:
            message = "division by zero"
        except OrderMismatchError as exc:
            message = str(exc)
        self.fail(message, tok)

    def _scalar(self, level):
        """The grammar above: expr at level 0, term at 1, factor at 2."""
        if level < 2:
            ops = _LEVELS[level]
            value = self._scalar(level + 1)
            while self.peek()[1] in ops:
                op = ops[self.take()[1]]
                value = op(value, self._scalar(level + 1))
            return value
        sign = 1
        while self.at_sym("-"):
            self.take()
            sign = -sign
        tok = self.take()
        kind, text = tok[0], tok[1]
        if text == "(":
            value = self._scalar(0)
            self.expect_sym(")")
        elif text in ("q", "Q"):
            self.expect_sym("(")
            n = self.expect_int()
            self.expect_sym(",")
            k = self.expect_int()
            self.expect_sym(")")
            if n < 1:
                self.fail("q(N,k) needs N >= 1", tok)
            if self.order not in (None, n) and 2 * k % n:
                raise FieldError("q(%d,%d) is not in Q(zeta_%d)"
                                 % (n, k, self.order), tok[2], tok[3])
            k *= self._exponent()[0]
            return sign * (
                root_of_unity(n, k) if self.order in (None, n) else
                Cyclotomic.from_rational(-1 if k % n else 1, self.order))
        elif kind == "int":
            value = int(text)
        else:
            self.expected("a scalar", tok)
        e, etok = self._exponent()
        if etok is not None:
            if isinstance(value, int):
                value = Fraction(value)
            bits = _power_bits(value, e)
            if bits > POWER_BITS:
                if not _is_root_of_unity(value):
                    self.fail("power of about %d bits, more than %d"
                              % (bits, POWER_BITS), etok)
                e %= 2 * value.order
            value = value ** e
        return sign * value

    def _exponent(self):
        """The exponent of '^' '-'? INT at the cursor and the token of its
        INT, or (1, None) when no '^' follows."""
        if not self.at_sym("^"):
            return 1, None
        self.take()
        esign = 1
        if self.at_sym("-"):
            self.take()
            esign = -1
        etok = self.peek()
        return esign * self.expect_int(), etok


def parse_scalar(text: str, order=None):
    """Read text as one scalar; returns int, Fraction or Cyclotomic, in
    Q(zeta_order) if an order is given.

    Text outside the grammar, division by zero, too deep nesting and a
    q(N,k) outside Q(zeta_order) included, raises ParseError, a ValueError.
    """
    reader = TokenReader(text, order)
    value = reader.scalar()
    tok = reader.peek()
    if tok[0] != "eof":
        reader.expected("end of input", tok)
    return value


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def format_roots_of_unity(order: int, exponents) -> list:
    """[format_scalar(root_of_unity(order, e)) for e in exponents], with
    no long division.  For even order zeta^e = -zeta^(e - order/2) when
    e >= order/2, and zeta^j with j < phi(order) is 1 or a power-basis
    vector.  Each other zeta^j is one shift and one Phi_order step from
    zeta^(j-1), so one pass up the sorted j builds them all."""
    exponents = [e % order for e in exponents]
    d = euler_phi(order)
    terms = [(i, f) for i, f in enumerate(cyclotomic_polynomial(order)[:d]) if f]
    half = order // 2 if order % 2 == 0 else order
    row, k, texts = [0] * (d - 1) + [1], d - 1, {}  # row is zeta^k
    for e in sorted(set(exponents), key=lambda e: e % half):
        sign, j = ("-", e - half) if e >= half else ("", e)
        if j < d:
            texts[e] = sign + ("q(%d,%d)" % (order, j) if j else "1")
            continue
        while k < j:  # zeta^d = -(phi_0 + phi_1 zeta + ... )
            c = row.pop()
            row.insert(0, 0)
            for i, f in terms:
                row[i] -= c * f
            k += 1
        num = [-x for x in row] if sign else row
        texts[e] = format_scalar(_make(order, tuple(num), 1))
    return [texts[e] for e in exponents]


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
        c = Fraction(coeff, value.den) if value.den > 1 else coeff
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
