"""A small language for string-diagram morphism expressions.

Scripts declare graded objects and matrix generators, then assert diagram
identities.  One walk of each side (evaluate) type-checks it and builds it
as a lazy graded.Diagram; map_check then pushes one basis vector at a time
through both sides and compares them column by column, so no product matrix
is formed.  A tensor product of morphisms has a tensor word for its source
and target, and a witness is named from the diagram, so no basis of such a
product is listed.  Every object expression passes the dimension guard
before its basis is listed, and matrix entries must lie in Q(zeta_N) for
the script's N: rationals and expressions in q(N,k).  Diagrams read top to
bottom: ``a ; b`` means first a, then b, so evaluation composes b after a.

Grammar:

    script    := (decl | assertion)*
    decl      := "let" NAME "=" ( "obj" "{" dims "}"
                | "gen" "(" objexpr "->" objexpr ")" "{" matrix "}" )
    dims      := "deg" INT ":" INT ("," "deg" INT ":" INT)*
    assertion := "assert" morexpr "==" morexpr
    morexpr   := morterm (";" morterm)*
    morterm   := morfactor ("*" morfactor)*
    morfactor := "id" "[" objexpr "]"
               | "braid" "[" objexpr "," objexpr "]"
               | "braid_inv" "[" objexpr "," objexpr "]"
               | "ev" "[" objexpr "]"    | "coev" "[" objexpr "]"
               | "ev_l" "[" objexpr "]"  | "coev_l" "[" objexpr "]"
               | "theta" "[" objexpr "]" | "antitwist" "[" objexpr "]"
               | NAME | "(" morexpr ")"
    objexpr   := objfactor ("*" objfactor)*
    objfactor := "I" | NAME | "^" objfactor | objfactor "^" | "(" objexpr ")"
    matrix    := "[" row (";" row)* "]" ;  row := entry ("," entry)*

Matrix rows index the target basis, and each entry is read by the scalar
grammar of scalars.py (Parser is a scalars.TokenReader, whose tokenizer
and cursor it shares); the degree shift of a generator is inferred from
its first nonzero entry.  ``#`` starts a comment running to end of line.
A syntax error names its line and column.

Duals: the prefix form ``^V`` and postfix form ``V^`` both negate degrees;
they pair with the four duality maps as  ev: V^ * V -> I,  ev_l: V * ^V -> I,
coev: I -> V * V^,  coev_l: I -> ^V * V.
"""

from __future__ import annotations

from .algebras import check_guard, is_prime
from .exactmat import Mat
from .graded import (
    AntiTwist,
    Bicharacter,
    GradedMap,
    GradedSpace,
    anti_twist,
    braiding,
    braiding_inverse,
    diagram,
    duality,
    left_dual,
    right_dual,
    tensor,
    tensor_diagram,
    twist_theta,
    word_degrees,
)
from .hopf import anyonic_hopf
from .record import Record
from .report import check, map_check
from .scalars import ParseError, TokenReader, format_scalar, in_field


class DslError(Exception):
    pass


class DslSyntaxError(DslError, ParseError):
    """A script outside the grammar, at a line and column."""


class DslTypeError(DslError):
    pass


# ---------------------------------------------------------------------------
# syntax trees
# ---------------------------------------------------------------------------


class OUnit(Record):
    pass


class OName(Record):
    _fields = ("name",)


class OTensor(Record):
    _fields = ("left", "right")


class ODual(Record):
    _fields = ("inner", "prefix")  # prefix: True for ^V, False for V^


class MPrim(Record):
    _fields = ("kind", "objs")


class MName(Record):
    _fields = ("name",)


class MTensor(Record):
    _fields = ("left", "right")


class MCompose(Record):
    _fields = ("first", "second")  # diagram order: first, then second


class ObjDecl(Record):
    _fields = ("dims",)  # ((degree, dimension), ...)


class GenDecl(Record):
    # entries: rows of exact scalars, row = target index
    _fields = ("source", "target", "entries")


class Let(Record):
    _fields = ("name", "decl")


class Assertion(Record):
    """lhs == rhs, asserted at a line that takes no part in equality."""

    _fields = ("lhs", "rhs", "line")
    _defaults = {"line": 0}

    def _key(self):
        return self[:2]


_PRIM_ARITY = {
    "id": 1, "braid": 2, "braid_inv": 2, "ev": 1, "coev": 1,
    "ev_l": 1, "coev_l": 1, "theta": 1, "antitwist": 1,
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class Parser(TokenReader):
    """The script grammar above, on the cursor and the scalar grammar of
    scalars.TokenReader; a tree node per rule."""

    script = True

    # -- script level -------------------------------------------------------

    def parse_script(self):
        stmts = []
        declared = set()
        while self.peek()[0] != "eof":
            tok = self.peek()
            if tok[1] == "let":
                stmt = self.parse_let()
                if stmt.name in declared:
                    self.fail("duplicate name %r" % stmt.name, tok)
                declared.add(stmt.name)
                stmts.append(stmt)
            elif tok[1] == "assert":
                stmts.append(self.parse_assertion())
            else:
                self.expected("'let' or 'assert'", tok)
        return stmts

    def parse_let(self):
        self.take()  # let
        name_tok = self.expect_name("a declaration name")
        name = name_tok[1]
        if name == "I":
            self.fail("'I' names the unit object and is reserved", name_tok)
        self.expect_sym("=")
        kind = self.expect_name("'obj' or 'gen'")
        if kind[1] == "obj":
            self.expect_sym("{")
            dims = [self.parse_dim_entry()]
            while self.at_sym(","):
                self.take()
                dims.append(self.parse_dim_entry())
            self.expect_sym("}")
            return Let(name, ObjDecl(tuple(dims)))
        if kind[1] == "gen":
            self.expect_sym("(")
            source = self.parse_objexpr()
            self.expect_sym("->")
            target = self.parse_objexpr()
            self.expect_sym(")")
            self.expect_sym("{")
            entries = self.parse_matrix()
            self.expect_sym("}")
            return Let(name, GenDecl(source, target, entries))
        self.expected("'obj' or 'gen'", kind)

    def parse_dim_entry(self):
        tok = self.expect_name("'deg'")
        if tok[1] != "deg":
            self.expected("'deg'", tok)
        degree = self.expect_int()
        self.expect_sym(":")
        dim = self.expect_int()
        return (degree, dim)

    def parse_matrix(self):
        """Rows end at ';', entries at ','; each entry is one scalar."""
        self.expect_sym("[")
        rows = [[self.scalar()]]
        while not self.at_sym("]"):
            tok = self.take()
            if tok[1] == ";":
                rows.append([])
            elif tok[1] != ",":
                self.expected("',', ';' or ']'", tok)
            rows[-1].append(self.scalar())
        self.take()
        return tuple(map(tuple, rows))

    def parse_assertion(self):
        tok = self.take()  # assert
        lhs = self.parse_morexpr()
        self.expect_sym("==")
        rhs = self.parse_morexpr()
        return Assertion(lhs, rhs, tok[2])

    # -- morphism expressions -------------------------------------------------

    def parse_morexpr(self):
        node = self.parse_morterm()
        while self.at_sym(";"):
            self.take()
            node = MCompose(node, self.parse_morterm())
        return node

    def parse_morterm(self):
        node = self.parse_morfactor()
        while self.at_sym("*"):
            self.take()
            node = MTensor(node, self.parse_morfactor())
        return node

    def parse_morfactor(self):
        if self.at_sym("("):
            self.take()
            node = self.parse_morexpr()
            self.expect_sym(")")
            return node
        name = self.expect_name("a morphism")[1]
        arity = _PRIM_ARITY.get(name)
        if arity and self.at_sym("["):
            self.take()
            objs = [self.parse_objexpr()]
            for _ in range(arity - 1):
                self.expect_sym(",")
                objs.append(self.parse_objexpr())
            self.expect_sym("]")
            return MPrim(name, tuple(objs))
        return MName(name)

    # -- object expressions -----------------------------------------------------

    def parse_objexpr(self):
        node = self.parse_objfactor()
        while self.at_sym("*"):
            self.take()
            node = OTensor(node, self.parse_objfactor())
        return node

    def parse_objfactor(self):
        if self.at_sym("^"):
            self.take()
            return ODual(self.parse_objfactor(), True)
        node = self.parse_objprimary()
        while self.at_sym("^"):
            self.take()
            node = ODual(node, False)
        return node

    def parse_objprimary(self):
        if self.at_sym("("):
            self.take()
            node = self.parse_objexpr()
            self.expect_sym(")")
            return node
        name = self.expect_name("an object")[1]
        return OUnit() if name == "I" else OName(name)


def parse(text, order=None):
    """The statements of a script; a q(N,k) outside Q(zeta_order), for an
    order given, is a syntax error."""
    try:
        return Parser(text, order).parse_script()
    except ParseError as exc:
        raise DslSyntaxError(exc.message, exc.line, exc.col) from None


# ---------------------------------------------------------------------------
# expressions as text, for messages (parsing the text gives the tree back)
# ---------------------------------------------------------------------------


def obj_text(expr, prec=0):
    if isinstance(expr, OUnit):
        return "I"
    if isinstance(expr, OName):
        return expr.name
    if isinstance(expr, ODual):
        inner = obj_text(expr.inner, 3)
        return "^" + inner if expr.prefix else inner + "^"
    if isinstance(expr, OTensor):
        s = "%s*%s" % (obj_text(expr.left, 1), obj_text(expr.right, 2))
        return "(%s)" % s if prec > 1 else s
    raise TypeError("not an object expression: %r" % (expr,))


def mor_text(expr, prec=0):
    if isinstance(expr, MName):
        return expr.name
    if isinstance(expr, MPrim):
        return "%s[%s]" % (expr.kind, ", ".join(obj_text(o) for o in expr.objs))
    if isinstance(expr, MTensor):
        s = "%s * %s" % (mor_text(expr.left, 1), mor_text(expr.right, 2))
        return "(%s)" % s if prec > 1 else s
    if isinstance(expr, MCompose):
        s = "%s ; %s" % (mor_text(expr.first, 0), mor_text(expr.second, 1))
        return "(%s)" % s if prec > 0 else s
    raise TypeError("not a morphism expression: %r" % (expr,))


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


class Environment:
    """Ambient braided category (Vec_{Z/N}, chi) plus named objects,
    named generators, and the anti-twist used by antitwist[...]."""

    def __init__(self, N, c=1, mu=0):
        self.chi = Bicharacter(N, c)
        # sigma_mu(i) = zeta^(-c i^2 - mu i)
        self.sigma = AntiTwist(self.chi, -mu)
        self.objects = {}
        self.gens = {}

    @staticmethod
    def build(N, c=1, mu=0, hopf=anyonic_hopf):
        """When N is prime and gcd(c, N) = 1, the anyonic line's Hopf
        structure hopf(N, c mod N) is preloaded: object H with generators
        m, u, Delta, eps, S."""
        env = Environment(N, c, mu)
        if is_prime(N) and c % N:
            H = hopf(N, c % N)
            env.objects["H"] = H.space
            env.gens.update(m=H.m, u=H.u, Delta=H.Delta, eps=H.eps, S=H.S)
        return env


def eval_obj(expr, env):
    """The graded space of an object expression; each tensor product
    passes the dimension guard before its basis is listed."""
    if isinstance(expr, OUnit):
        return GradedSpace.unit(env.chi.N)
    if isinstance(expr, OName):
        if expr.name not in env.objects:
            raise DslTypeError("unknown object %r" % expr.name)
        return env.objects[expr.name]
    if isinstance(expr, OTensor):
        V, W = eval_obj(expr.left, env), eval_obj(expr.right, env)
        check_guard(V.dim * W.dim, "object %s" % obj_text(expr))
        return tensor(V, W)
    if isinstance(expr, ODual):
        V = eval_obj(expr.inner, env)
        return right_dual(V) if expr.prefix else left_dual(V)
    raise TypeError("not an object expression: %r" % (expr,))


def _space_text(word, N):
    """The degrees of a tensor word's basis, for messages."""
    return "(%s)" % ", ".join("deg %d" % d for d in word_degrees(word, N))


def _leaf(expr, env):
    """The map of a generator name, or of id[...], braid[...] etc.: a
    GradedMap, or a diagram leaf for braid, braid_inv, the duality maps
    and the preloaded m, Delta, eps, S."""
    if isinstance(expr, MName):
        if expr.name not in env.gens:
            raise DslTypeError("unknown generator %r" % expr.name)
        return env.gens[expr.name]
    spaces = [eval_obj(o, env) for o in expr.objs]
    if expr.kind == "id":
        return GradedMap.identity(spaces[0])
    if expr.kind == "theta":
        return twist_theta(spaces[0], env.chi)
    if expr.kind == "antitwist":
        return anti_twist(spaces[0], env.sigma)
    if expr.kind == "braid":
        return braiding(spaces[0], spaces[1], env.chi)
    if expr.kind == "braid_inv":
        return braiding_inverse(spaces[0], spaces[1], env.chi)
    return duality(expr.kind, spaces[0])


def evaluate(expr, env):
    """The diagram of a morphism expression, in one walk that type-checks
    it: a generator or primitive becomes a diagram leaf, ``*`` a lazy
    tensor product and ``;`` a lazy composite.  Source and target are the
    diagram's tensor words, so no basis of a product is listed."""
    if isinstance(expr, (MName, MPrim)):
        return diagram(_leaf(expr, env))
    if isinstance(expr, MTensor):
        return tensor_diagram(evaluate(expr.left, env),
                              evaluate(expr.right, env))
    if isinstance(expr, MCompose):
        f, g = evaluate(expr.first, env), evaluate(expr.second, env)
        try:
            return g @ f
        except TypeError:
            raise DslTypeError(
                "cannot compose %s ; %s: middle objects differ: %s vs %s"
                % (mor_text(expr.first), mor_text(expr.second),
                   _space_text(f.target, f.N), _space_text(g.source, g.N)))
    raise TypeError("not a morphism expression: %r" % (expr,))


# ---------------------------------------------------------------------------
# declarations and assertion checking
# ---------------------------------------------------------------------------


def apply_decl(env, stmt):
    if stmt.name in env.objects or stmt.name in env.gens:
        raise DslTypeError("duplicate name %r" % stmt.name)
    decl = stmt.decl
    if isinstance(decl, ObjDecl):
        check_guard(sum(dim for _, dim in decl.dims), "object %s" % stmt.name)
        env.objects[stmt.name] = GradedSpace.from_dims(env.chi.N, decl.dims)
        return
    source = eval_obj(decl.source, env)
    target = eval_obj(decl.target, env)
    rows = decl.entries
    if len(rows) != target.dim or any(len(r) != source.dim for r in rows):
        raise DslTypeError(
            "generator %r: matrix has %d row(s) but needs %d, target %s, "
            "source %s" % (stmt.name, len(rows), target.dim,
                           _space_text((target,), env.chi.N),
                           _space_text((source,), env.chi.N)))
    data = {}
    shift = 0
    for r, row in enumerate(rows):
        for c, value in enumerate(row):
            if not in_field(value, env.chi.N):
                raise DslTypeError(
                    "generator %r: entry %s is not in Q(zeta_%d)"
                    % (stmt.name, format_scalar(value), env.chi.N))
            if value != 0:
                if not data:
                    shift = (target.degrees[r] - source.degrees[c]) % env.chi.N
                data[r, c] = value
    try:
        env.gens[stmt.name] = GradedMap(
            source, target, Mat(target.dim, source.dim, data), shift)
    except ValueError as exc:
        raise DslTypeError("generator %r: %s" % (stmt.name, exc))


def check_script(stmts, env):
    """Run a script: apply declarations, check assertions.

    Returns one report check per assertion; a failing assertion carries a
    witness basis vector (or the typechecking diagnostic)."""
    checks = []
    for st in stmts:
        if isinstance(st, Let):
            apply_decl(env, st)
            continue
        name = "assert line %d" % st.line
        detail = "%s == %s" % (mor_text(st.lhs), mor_text(st.rhs))
        try:
            lhs, rhs = evaluate(st.lhs, env), evaluate(st.rhs, env)
            if not lhs.parallel(rhs):
                raise DslTypeError(
                    "sides have different boundaries: %s -> %s vs %s -> %s"
                    % tuple(_space_text(w, lhs.N) for w in (
                        lhs.source, lhs.target, rhs.source, rhs.target)))
            if lhs.shift != rhs.shift:
                raise DslTypeError(
                    "sides have different degree shifts: %d vs %d"
                    % (lhs.shift, rhs.shift))
        except DslTypeError as exc:
            checks.append(check(name, False, details=detail,
                                witnesses=[{"type_error": str(exc)}]))
            continue
        checks.append(map_check(name, lhs, rhs, details=detail))
    return checks


def check_text(text, env):
    try:
        return check_script(parse(text, env.chi.N), env)
    except RecursionError:
        raise DslError("expression nested too deeply") from None
