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

Matrix rows index the target basis; entries use the scalar syntax from
scalars.py and the degree shift of a generator is inferred from its first
nonzero entry.  ``#`` starts a comment running to end of line.

Duals: the prefix form ``^V`` and postfix form ``V^`` both negate degrees;
they pair with the four duality maps as  ev: V^ * V -> I,  ev_l: V * ^V -> I,
coev: I -> V * V^,  coev_l: I -> ^V * V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    ev_coev,
    left_dual,
    right_dual,
    tensor,
    tensor_diagram,
    twist_theta,
    word_degrees,
)
from .hopf import anyonic_hopf
from .report import check, map_check
from .scalars import format_scalar, in_field, parse_scalar


class DslError(Exception):
    pass


class DslSyntaxError(DslError):
    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


class DslTypeError(DslError):
    pass


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_TWO_CHAR = ("->", "==")
_ONE_CHAR = "={}()[],;:*^+-/"


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "int" | "sym" | "eof"
    text: str
    line: int
    col: int


def tokenize(text):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i:i + 2] in _TWO_CHAR:
            tokens.append(Token("sym", text[i:i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslSyntaxError("unexpected character %r" % ch, line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# syntax trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OUnit:
    pass


@dataclass(frozen=True)
class OName:
    name: str


@dataclass(frozen=True)
class OTensor:
    left: object
    right: object


@dataclass(frozen=True)
class ODual:
    inner: object
    prefix: bool  # True for ^V, False for V^


@dataclass(frozen=True)
class MPrim:
    kind: str
    objs: tuple


@dataclass(frozen=True)
class MName:
    name: str


@dataclass(frozen=True)
class MTensor:
    left: object
    right: object


@dataclass(frozen=True)
class MCompose:
    first: object
    second: object  # diagram order: first, then second


@dataclass(frozen=True)
class ObjDecl:
    dims: tuple  # ((degree, dimension), ...)


@dataclass(frozen=True)
class GenDecl:
    source: object
    target: object
    entries: tuple  # rows of exact scalars, row = target index


@dataclass(frozen=True)
class Let:
    name: str
    decl: object


@dataclass(frozen=True)
class Assertion:
    lhs: object
    rhs: object
    line: int = field(default=0, compare=False)


_PRIM_ARITY = {
    "id": 1, "braid": 2, "braid_inv": 2, "ev": 1, "coev": 1,
    "ev_l": 1, "coev_l": 1, "theta": 1, "antitwist": 1,
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, s):
        tok = self.peek()
        return tok.kind == "sym" and tok.text == s

    def expect_sym(self, s):
        tok = self.take()
        if tok.kind != "sym" or tok.text != s:
            raise DslSyntaxError(
                "expected %r, found %r" % (s, tok.text or "end of input"),
                tok.line, tok.col)
        return tok

    def expect_name(self, what="a name"):
        tok = self.take()
        if tok.kind != "name":
            raise DslSyntaxError(
                "expected %s, found %r" % (what, tok.text or "end of input"),
                tok.line, tok.col)
        return tok

    def expect_int(self):
        tok = self.take()
        if tok.kind != "int":
            raise DslSyntaxError(
                "expected an integer, found %r" % (tok.text or "end of input"),
                tok.line, tok.col)
        return int(tok.text)

    # -- script level -------------------------------------------------------

    def parse_script(self):
        stmts = []
        declared = set()
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "name" and tok.text == "let":
                stmt = self.parse_let()
                if stmt.name in declared:
                    raise DslSyntaxError(
                        "duplicate name %r" % stmt.name, tok.line, tok.col)
                declared.add(stmt.name)
                stmts.append(stmt)
            elif tok.kind == "name" and tok.text == "assert":
                stmts.append(self.parse_assertion())
            else:
                raise DslSyntaxError(
                    "expected 'let' or 'assert', found %r"
                    % (tok.text or "end of input"), tok.line, tok.col)
        return stmts

    def parse_let(self):
        self.expect_name()  # let
        name_tok = self.expect_name("a declaration name")
        if name_tok.text == "I":
            raise DslSyntaxError("'I' names the unit object and is reserved",
                                 name_tok.line, name_tok.col)
        self.expect_sym("=")
        kind = self.expect_name("'obj' or 'gen'")
        if kind.text == "obj":
            self.expect_sym("{")
            dims = [self.parse_dim_entry()]
            while self.at_sym(","):
                self.take()
                dims.append(self.parse_dim_entry())
            self.expect_sym("}")
            return Let(name_tok.text, ObjDecl(tuple(dims)))
        if kind.text == "gen":
            self.expect_sym("(")
            source = self.parse_objexpr()
            self.expect_sym("->")
            target = self.parse_objexpr()
            self.expect_sym(")")
            self.expect_sym("{")
            entries = self.parse_matrix()
            self.expect_sym("}")
            return Let(name_tok.text, GenDecl(source, target, entries))
        raise DslSyntaxError("expected 'obj' or 'gen', found %r" % kind.text,
                             kind.line, kind.col)

    def parse_dim_entry(self):
        tok = self.expect_name("'deg'")
        if tok.text != "deg":
            raise DslSyntaxError("expected 'deg', found %r" % tok.text,
                                 tok.line, tok.col)
        degree = self.expect_int()
        self.expect_sym(":")
        dim = self.expect_int()
        return (degree, dim)

    def parse_matrix(self):
        """Rows split on ';', entries on ',' — both at parenthesis depth 0;
        each entry is handed to the scalar parser."""
        open_tok = self.expect_sym("[")
        rows, row, buf = [], [], []
        entry_tok = self.peek()
        depth = 0

        def flush():
            text = " ".join(buf)
            try:
                value = parse_scalar(text)
            except ValueError as exc:
                raise DslSyntaxError("bad matrix entry %r: %s" % (text, exc),
                                     entry_tok.line, entry_tok.col)
            row.append(value)
            buf.clear()

        while True:
            tok = self.peek()
            if tok.kind == "eof":
                raise DslSyntaxError("unclosed matrix literal",
                                     open_tok.line, open_tok.col)
            if tok.kind == "sym" and depth == 0 and tok.text in (",", ";", "]"):
                self.take()
                flush()
                if tok.text == ";":
                    rows.append(tuple(row))
                    row = []
                elif tok.text == "]":
                    rows.append(tuple(row))
                    return tuple(rows)
                entry_tok = self.peek()
                continue
            if tok.kind == "sym" and tok.text == "(":
                depth += 1
            elif tok.kind == "sym" and tok.text == ")":
                depth -= 1
            buf.append(self.take().text)

    def parse_assertion(self):
        tok = self.expect_name()  # assert
        lhs = self.parse_morexpr()
        self.expect_sym("==")
        rhs = self.parse_morexpr()
        return Assertion(lhs, rhs, tok.line)

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
        tok = self.peek()
        if self.at_sym("("):
            self.take()
            node = self.parse_morexpr()
            self.expect_sym(")")
            return node
        if tok.kind != "name":
            raise DslSyntaxError(
                "expected a morphism, found %r" % (tok.text or "end of input"),
                tok.line, tok.col)
        arity = _PRIM_ARITY.get(tok.text)
        if arity and self.peek(1).kind == "sym" and self.peek(1).text == "[":
            self.take()
            self.expect_sym("[")
            objs = [self.parse_objexpr()]
            for _ in range(arity - 1):
                self.expect_sym(",")
                objs.append(self.parse_objexpr())
            self.expect_sym("]")
            return MPrim(tok.text, tuple(objs))
        self.take()
        return MName(tok.text)

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
            return ODual(self.parse_objfactor(), prefix=True)
        node = self.parse_objprimary()
        while self.at_sym("^"):
            self.take()
            node = ODual(node, prefix=False)
        return node

    def parse_objprimary(self):
        tok = self.peek()
        if self.at_sym("("):
            self.take()
            node = self.parse_objexpr()
            self.expect_sym(")")
            return node
        if tok.kind == "name":
            self.take()
            return OUnit() if tok.text == "I" else OName(tok.text)
        raise DslSyntaxError(
            "expected an object, found %r" % (tok.text or "end of input"),
            tok.line, tok.col)


def parse(text):
    return Parser(text).parse_script()


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
        self.sigma = AntiTwist.with_parameter(self.chi, -mu)
        self.objects = {}
        self.gens = {}

    @staticmethod
    def build(N, c=1, mu=0):
        """When N is prime and gcd(c, N) = 1, the Hopf structure of the
        anyonic line is preloaded: object H with generators m, u, Delta,
        eps, S."""
        env = Environment(N, c, mu)
        if is_prime(N) and c % N:
            H = anyonic_hopf(N, c % N)
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
    """The GradedMap of a generator name, or of id[...], braid[...] etc."""
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
    ev, ev_l, coev, coev_l = ev_coev(spaces[0])
    return {"ev": ev, "ev_l": ev_l, "coev": coev, "coev_l": coev_l}[expr.kind]


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
    return check_script(parse(text), env)
