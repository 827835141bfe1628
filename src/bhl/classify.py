"""Classification combinatorics for graded braided-module structures.

Over (Vec_{Z/N}, chi) with chi(i,j) = zeta^{cij}, everything reduces to
finite scalar tables:

* characters lambda_t(x) = zeta^{tx} and anti-twists  sigma lambda_t,
  sigma(x) = zeta^{-cx^2} the canonical one;
* the symmetrization homomorphism  omega(-, y) = lambda_{2cy}  whose
  cosets are the braided-isomorphism classes;
* the N^2 arrows  y: sigma lambda_t -> sigma lambda_{t+2cy}, each with its
  eta invariant  eta(y, sigma lambda_t) = omega(y,y) sigma lambda_t(y)
  = zeta^{cy^2+ty}.  An arrow is a stable witness (lambda_t(y) = sigma(y))
  exactly when it lies in the eta kernel, y(cy + t) = 0 (mod N), that is
  t = -cy (mod N/gcd(y, N)): the kernel's sum_y gcd(y, N) arrows are
  listed directly, without a pass over all N^2 arrows;
* stable isomorphism: the symmetric-transitive closure of the witnessed
  pairs (target, source);
* the packet report I = theta(G) = {zeta^{cx^2}} with multiplicities
  n_i = #{x : theta(x) = i}, summing to N.

The last section handles a finite group given by a Cayley table: validate
the table, then list conjugacy classes with centralizer orders — the
combinatorial shadow of the Rep(G) decomposition, where singleton classes
are the ones visible through the one-object embedding.
"""

from __future__ import annotations

from math import gcd

from .record import Record
from .scalars import format_roots_of_unity


# ---------------------------------------------------------------------------
# braided and stable classes of the twisted lines over Z/N
# ---------------------------------------------------------------------------


def omega_hom(N, c):
    """The homomorphism G -> G^: y |-> omega(-, y) = lambda_{2cy},
    returned as the map on character indices."""
    return {y: (2 * c * y) % N for y in range(N)}


def classify_braided(N, c):
    """Braided-isomorphism classes of anti-twists: cosets of image(omega).

    Returns {"classes", "omega_image", "omega_trivial", "omega_injective"}.
    Classes are sorted tuples of parameter values t.
    """
    om = omega_hom(N, c)
    image = sorted(set(om.values()))
    seen = set()
    classes = []
    for t in range(N):
        if t in seen:
            continue
        coset = sorted((t + w) % N for w in image)
        classes.append(tuple(coset))
        seen.update(coset)
    return {
        "classes": classes,
        "omega_image": image,
        "omega_trivial": image == [0],
        "omega_injective": len(image) == N,
    }


def classify_stable(N, c):
    """Stable-isomorphism classes of anti-twists, plus the packet report.

    The stable witnesses for (s, t) are the y of the eta-kernel arrows
    from t to s, for each y the gcd(y, N) values t = -cy (mod N/gcd(y, N)),
    listed in increasing y.  The relation "some witness exists" need not
    be transitive a priori, so the closure is taken.
    """
    related = {}
    for y in range(N):
        step = N // gcd(y, N)
        for t in range(-c * y % step, N, step):
            related.setdefault(((t + 2 * c * y) % N, t), []).append(y)
    related = dict(sorted(related.items()))
    # symmetric-transitive closure
    parent = list(range(N))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (s, t) in related:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[max(rs, rt)] = min(rs, rt)
    groups = {}
    for t in range(N):
        groups.setdefault(find(t), []).append(t)
    classes = [tuple(sorted(v)) for _, v in sorted(groups.items())]
    return {
        "classes": classes,
        "witnesses": related,
        "packet": packet_report(N, c),
    }


class PacketReport(Record):
    """I = theta(G) with multiplicities; entries are (exponent
    representative c*x^2 mod N, multiplicity, elements).  A value
    theta(x) = zeta^e is kept as its exponent e until it is formatted
    (texts)."""

    _fields = ("N", "entries")

    @property
    def texts(self):
        """The values as text, formatted in one pass."""
        return format_roots_of_unity(self.N,
                                     [e["exponent"] for e in self.entries])

    @property
    def multiplicities(self):
        return [e["multiplicity"] for e in self.entries]

    def total(self):
        return sum(self.multiplicities)

    def to_json(self):
        return {
            "N": self.N,
            "entries": [
                {
                    "value": text,
                    "exponent": e["exponent"],
                    "multiplicity": e["multiplicity"],
                    "elements": list(e["elements"]),
                }
                for text, e in zip(self.texts, self.entries)
            ],
        }


def packet_report(N, c):
    """Group the twist values theta(x) = zeta^{c x^2} over x in Z/N, by
    exponent."""
    by_exponent = {}
    for x in range(N):
        e = (c * x * x) % N
        by_exponent.setdefault(e, []).append(x)
    entries = tuple(
        {"exponent": e, "multiplicity": len(xs), "elements": tuple(xs)}
        for e, xs in sorted(by_exponent.items())
    )
    return PacketReport(N, entries)


# ---------------------------------------------------------------------------
# finite groups from Cayley tables
# ---------------------------------------------------------------------------


class CayleyGroup:
    """A finite group given by its multiplication table.

    table, a list of n lists of n ints, has table[i][j] the index of
    g_i g_j.  Shape, identity, inverses and full associativity are
    validated on construction.
    """

    def __init__(self, table):
        n = len(table) if isinstance(table, list) else None
        if n is None or not all(
                isinstance(row, list) and len(row) == n
                and all(type(v) is int and 0 <= v < n for v in row)
                for row in table):
            raise ValueError("Cayley table is not an n x n index table")
        self.table = [list(row) for row in table]
        self.order = n
        identity = None
        for e in range(n):
            if all(self.table[e][j] == j and self.table[j][e] == j
                   for j in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("Cayley table has no identity element")
        self.identity = identity
        self.inverse = [None] * n
        for i in range(n):
            for j in range(n):
                if (self.table[i][j] == identity
                        and self.table[j][i] == identity):
                    self.inverse[i] = j
                    break
            if self.inverse[i] is None:
                raise ValueError("element %d has no inverse" % i)
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for cc in range(n):
                    if self.table[ab][cc] != self.table[a][self.table[b][cc]]:
                        raise ValueError(
                            "Cayley table is not associative at (%d,%d,%d)"
                            % (a, b, cc)
                        )

    def mul(self, a, b):
        return self.table[a][b]


def rep_g_decomposition(G):
    """Conjugacy classes of a CayleyGroup with centralizer data.

    Returns a list of {"representative", "size", "centralizer_order",
    "singleton"} sorted by representative index.
    """
    n = G.order
    seen = [False] * n
    out = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = sorted(
            {G.mul(G.mul(g, x), G.inverse[g]) for g in range(n)}
        )
        for y in orbit:
            seen[y] = True
        centralizer = sum(
            1 for g in range(n) if G.mul(g, x) == G.mul(x, g)
        )
        out.append(
            {
                "representative": orbit[0],
                "size": len(orbit),
                "centralizer_order": centralizer,
                "singleton": len(orbit) == 1,
            }
        )
    return out
