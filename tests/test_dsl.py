"""Tests for the diagram script language: parsing, typechecking, evaluation."""

import pathlib
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhl
from bhl.algebras import anyonic_line
from bhl.dsl import (
    Assertion,
    DslSyntaxError,
    DslTypeError,
    Environment,
    GenDecl,
    Let,
    MCompose,
    MName,
    MPrim,
    MTensor,
    ObjDecl,
    OName,
    OTensor,
    OUnit,
    _leaf,
    apply_decl,
    check_script,
    check_text,
    eval_obj,
    evaluate,
    mor_text,
    parse,
)
from bhl.graded import GradedMap, GradedSpace, tensor_map, word_degrees
from bhl.report import FAIL, PASS, map_check
from bhl.scalars import (Cyclotomic, euler_phi, format_scalar,
                         parse_scalar, root_of_unity)
from oracle import (braiding_inverse_matrix, braiding_matrix, leaf_map,
                    mult_map_by_pairs, script_text)

CORPUS = pathlib.Path(bhl.__file__).parent / "corpus"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def env3(mu=0):
    return Environment.build(3, 1, mu)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_object_declaration():
    script = parse("let H = obj { deg 0: 1, deg 1: 1 }")
    assert script == [Let("H", ObjDecl(((0, 1), (1, 1))))]


def test_parse_assertion_shape():
    (stmt,) = parse("assert braid[V,W] ; braid_inv[V,W] == id[V*W]")
    assert stmt == Assertion(
        MCompose(MPrim("braid", (OName("V"), OName("W"))),
                 MPrim("braid_inv", (OName("V"), OName("W")))),
        MPrim("id", (OTensor(OName("V"), OName("W")),)),
    )


def test_parse_gen_with_scalar_entries():
    (stmt,) = parse("let f = gen (V -> W) { [1, q(3,1); -1/2, 0] }")
    assert isinstance(stmt.decl, GenDecl)
    assert stmt.decl.entries[0][1] == root_of_unity(3)
    assert stmt.decl.entries[1][0] * 2 == -1


_SCALARS = (st.integers() | st.fractions()
            | st.sampled_from([1, 3, 4, 5, 8, 12]).flatmap(
                lambda n: st.builds(
                    Cyclotomic, st.just(n),
                    st.lists(st.integers(-9, 9), min_size=euler_phi(n),
                             max_size=euler_phi(n)),
                    st.integers(1, 9))))


@settings(max_examples=80, deadline=None)
@given(_SCALARS)
def test_formatted_scalar_reads_back_alone_and_as_a_matrix_entry(value):
    text = format_scalar(value)
    assert parse_scalar(text) == value
    (stmt,) = parse("let f = gen (V -> V) { [%s, 0;\n 0, %s] }"
                    % (text, text))
    assert stmt.decl.entries == ((value, 0), (0, value))


def test_parse_rejects_deeply_nested_entry():
    entry = "(" * 1000 + "1" + ")" * 1000
    with pytest.raises(DslSyntaxError) as err:
        parse("let f = gen (V -> V) { [%s] }" % entry)
    assert "parentheses nested too deeply (line 1, column 25)" in \
        str(err.value)


def test_parse_error_reports_location():
    with pytest.raises(DslSyntaxError) as err:
        parse("assert braid[V")
    assert "line 1" in str(err.value)


def test_parse_rejects_duplicate_names():
    with pytest.raises(DslSyntaxError) as err:
        parse("let V = obj { deg 0: 1 }\nlet V = obj { deg 1: 1 }")
    assert "duplicate" in str(err.value)


def test_parse_rejects_reserved_unit_name():
    with pytest.raises(DslSyntaxError):
        parse("let I = obj { deg 0: 1 }")


def test_parse_skips_comments():
    script = parse("# a comment\nlet V = obj { deg 0: 1 } # trailing\n")
    assert len(script) == 1


def test_unit_and_duals_parse():
    (stmt,) = parse("assert id[I * ^V * V^] == id[I * ^V * V^]")
    obj = stmt.lhs.objs[0]
    assert isinstance(obj, OTensor)
    assert obj.left.left == OUnit()


@pytest.mark.parametrize("text", [
    "let V = obj { deg 0: 2, deg 1: 1 }\n"
    "let W = obj { deg 1: 1 }\n"
    "let f = gen (V*W -> V*W) { [1, 0, 0; 0, q(3,1), 0; -1 - q(3,2), 0, 1/2] }\n"
    "assert (f ; f) * id[^W] == (f ; f) * id[^W]",
    "assert braid[V,W] ; (id[W] * theta[V]) ; braid_inv[V,W] == id[V*W]",
    "assert antitwist[(V*W)^] * ev[V] == antitwist[(V*W)^] * ev[V]",
    "assert coev_l[V] ; (id[^V] * id[V]) == coev_l[V]",
])
def test_pretty_print_round_trip(text):
    script = parse(text)
    assert parse(script_text(script)) == script


# ---------------------------------------------------------------------------
# typechecking
# ---------------------------------------------------------------------------


def test_id_of_unit_types_to_unit():
    env = env3()
    d = evaluate(MPrim("id", (OUnit(),)), env)
    assert d.source == d.target == ()
    assert d.shift == 0


def test_middle_object_mismatch_is_reported():
    env = env3()
    env.objects["V"] = GradedSpace(3, (0, 1))
    (stmt,) = parse("assert coev[V] ; ev[V] == coev[V] ; ev[V]")
    with pytest.raises(DslTypeError) as err:
        evaluate(stmt.lhs, env)
    message = str(err.value)
    assert "middle objects differ" in message
    assert "(deg 0, deg 2, deg 1, deg 0)" in message
    assert "(deg 0, deg 1, deg 2, deg 0)" in message


def test_ev_then_coev_typechecks():
    env = env3()
    env.objects["V"] = GradedSpace(3, (0, 1))
    (stmt,) = parse("assert ev[V] ; coev[V] == ev[V] ; coev[V]")
    d = evaluate(stmt.lhs, env)
    assert tuple(word_degrees(d.source, 3)) == (0, 1, 2, 0)
    assert tuple(word_degrees(d.target, 3)) == (0, 2, 1, 0)


def test_unknown_names_are_type_errors():
    env = env3()
    with pytest.raises(DslTypeError):
        evaluate(MName("nope"), env)
    with pytest.raises(DslTypeError):
        eval_obj(OName("nope"), env)


def test_zigzag_types_to_endomorphism():
    env = env3()
    V = GradedSpace(3, (0, 1, 1))
    env.objects["V"] = V
    (stmt,) = parse(
        "assert (coev[V] * id[V]) ; (id[V] * ev[V]) == id[V]")
    d = evaluate(stmt.lhs, env)
    assert d.source == d.target == (V,)


def test_shift_is_inferred_from_matrix():
    env = env3()
    checks = check_text(
        "let V = obj { deg 0: 1, deg 1: 1 }\n"
        "let x = gen (V -> V) { [0, 0; 1, 0] }\n"
        "assert x ; x == x ; x\n", env)
    assert env.gens["x"].shift == 1
    assert checks[0]["status"] == PASS


def test_mismatched_shifts_fail_the_assertion():
    env = env3()
    checks = check_text(
        "let V = obj { deg 0: 1, deg 1: 1 }\n"
        "let x = gen (V -> V) { [0, 0; 1, 0] }\n"
        "assert x == id[V]\n", env)
    assert checks[0]["status"] == FAIL
    assert "shift" in checks[0]["witnesses"][0]["type_error"]


def test_inhomogeneous_generator_is_rejected():
    env = env3()
    with pytest.raises(DslTypeError) as err:
        check_text(
            "let V = obj { deg 0: 1, deg 1: 1 }\n"
            "let f = gen (V -> V) { [1, 0; 1, 0] }\n", env)
    assert "homogeneity" in str(err.value)


def test_matrix_shape_must_match_declaration():
    env = env3()
    with pytest.raises(DslTypeError):
        check_text(
            "let V = obj { deg 0: 1, deg 1: 1 }\n"
            "let f = gen (V -> V) { [1, 0] }\n", env)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_braiding_of_two_lines_is_the_root_of_unity():
    env = env3()
    env.objects["V"] = GradedSpace(3, (1,))
    env.objects["W"] = GradedSpace(3, (1,))
    (stmt,) = parse("assert braid[V,W] == braid[V,W]")
    d = evaluate(stmt.lhs, env)
    assert list(d.columns()) == [{0: root_of_unity(3)}]


def test_antitwist_on_degree_one_line():
    env = env3(mu=0)
    env.objects["V"] = GradedSpace(3, (1,))
    d = evaluate(parse("assert antitwist[V] == antitwist[V]")[0].lhs, env)
    assert list(d.columns()) == [{0: root_of_unity(3, -1)}]


def test_evaluation_is_compositional():
    env = env3()
    env.objects["V"] = GradedSpace(3, (0, 1))
    env.objects["W"] = GradedSpace(3, (1, 2))
    a = parse("assert braid[V,W] == braid[V,W]")[0].lhs
    b = parse("assert braid_inv[V,W] == braid_inv[V,W]")[0].lhs
    combined = evaluate(MCompose(a, b), env)
    assert (list(combined.columns())
            == _columns(materialise(b, env) @ materialise(a, env)))
    pair = evaluate(MTensor(a, b), env)
    assert [V.dim for V in pair.source] == [2, 2, 2, 2]
    assert (list(pair.columns())
            == _columns(tensor_map(materialise(a, env), materialise(b, env))))


def test_check_text_reports_pass_and_fail_with_witness():
    env = env3()
    checks = check_text(
        "let V = obj { deg 1: 1 }\n"
        "assert theta[V] ; theta[V] ; theta[V] == id[V]\n"
        "assert theta[V] == id[V]\n", env)
    assert [c["status"] for c in checks] == [PASS, FAIL]
    witness = checks[1]["witnesses"][0]
    assert witness["input"] == "v0"
    assert witness["difference"]


def test_checks_name_their_source_lines():
    env = env3()
    checks = check_text(
        "let V = obj { deg 0: 1 }\n\nassert id[V] == id[V]\n", env)
    assert checks[0]["name"] == "assert line 3"


def test_entries_outside_the_field_are_rejected():
    # q(3,1) lies in Q(zeta_3), not in Q(zeta_5): a script read at N = 5
    # fails at its token, and a tree read with no order fails the type
    # check of the generator's entries
    text = ("let V = obj { deg 0: 1, deg 1: 1 }\n"
            "let f = gen (V -> V) { [2, 0; 0, q(3,1)] }\n"
            "assert (f * id[V]) ; braid[V,V] == braid[V,V] ; (id[V] * f)\n")
    with pytest.raises(DslSyntaxError) as err:
        check_text(text, Environment.build(5, 1))
    assert str(err.value) == "q(3,1) is not in Q(zeta_5) (line 2, column 34)"
    with pytest.raises(DslTypeError) as err:
        check_script(parse(text), Environment.build(5, 1))
    assert "generator 'f': entry q(3,1) is not in Q(zeta_5)" in str(err.value)
    # rational entries, and q(N,k) itself, are fine at every N
    for N in (1, 2, 5):
        checks = check_text(text.replace("q(3,1)", "q(%d,1) + 1/2" % N),
                            Environment.build(N, 1))
        assert [c["status"] for c in checks] == [PASS]


# ---------------------------------------------------------------------------
# preloaded Hopf environment
# ---------------------------------------------------------------------------


def test_build_preloads_hopf_names_for_prime_order():
    env = Environment.build(5, 1)
    assert env.objects["H"].dim == 5
    assert set(env.gens) == {"m", "u", "Delta", "eps", "S"}
    for name in ("Delta", "eps", "S"):
        assert env.gens[name].source == (env.objects["H"],)


def test_build_skips_hopf_names_otherwise():
    assert "H" not in Environment.build(4, 1).objects
    assert "H" not in Environment.build(3, 0).objects


# ---------------------------------------------------------------------------
# script corpus
# ---------------------------------------------------------------------------


def corpus_files():
    return sorted(CORPUS.glob("*.bdsl"))


def test_corpus_is_present():
    names = {f.stem for f in corpus_files()}
    assert {"zigzag", "yang_baxter", "naturality", "antitwist_law",
            "braided_module", "hopf_anyonic", "negative_control"} <= names


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_corpus_script(path):
    checks = check_text(path.read_text(), env3())
    assert checks, "script has no assertions"
    if path.stem == "negative_control":
        assert all(c["status"] == FAIL for c in checks)
        assert all(c["witnesses"] for c in checks)
    else:
        assert all(c["status"] == PASS for c in checks)


def test_corpus_passes_at_other_parameters():
    for path in corpus_files():
        if path.stem in ("negative_control", "hopf_anyonic"):
            continue
        for N, c, mu in [(5, 1, 2), (7, 3, 1)]:
            checks = check_text(path.read_text(), Environment.build(N, c, mu))
            assert all(c_["status"] == PASS for c_ in checks), (path.stem, N, c)


def test_hopf_corpus_passes_for_other_primes():
    path = CORPUS / "hopf_anyonic.bdsl"
    for N, c in [(2, 1), (5, 2)]:
        checks = check_text(path.read_text(), Environment.build(N, c))
        assert all(c_["status"] == PASS for c_ in checks)


# ---------------------------------------------------------------------------
# the materialising route as an oracle for the lazy one
# ---------------------------------------------------------------------------


def _columns(f):
    return [{i: v for (i, jj), v in f.mat.data.items() if jj == j}
            for j in range(f.source.dim)]


def materialise(expr, env):
    """The exact matrix of a morphism expression, built with tensor_map and
    @ from the GradedMaps of its leaves: the oracle matrices of the
    braidings, the anyonic line's product by pairs for the lazy m of the
    preloaded Hopf structure, and the columns of the other leaves, Delta
    and the duality maps, as matrices (leaf_map)."""
    if isinstance(expr, MTensor):
        return tensor_map(materialise(expr.left, env),
                          materialise(expr.right, env))
    if isinstance(expr, MCompose):
        return materialise(expr.second, env) @ materialise(expr.first, env)
    if isinstance(expr, MPrim) and expr.kind in ("braid", "braid_inv"):
        V, W = (eval_obj(o, env) for o in expr.objs)
        route = braiding_matrix if expr.kind == "braid" else \
            braiding_inverse_matrix
        return route(V, W, env.chi)
    f = _leaf(expr, env)
    if isinstance(f, GradedMap):
        return f
    if expr == MName("m"):
        return mult_map_by_pairs(anyonic_line(env.chi.N))
    return leaf_map(f)


def oracle_checks(text, env):
    """check_text on the matrix route: one check per assertion, or None for
    an assertion that is not well typed."""
    out = []
    for stmt in parse(text):
        if isinstance(stmt, Let):
            apply_decl(env, stmt)
            continue
        try:
            lhs = materialise(stmt.lhs, env)
            rhs = materialise(stmt.rhs, env)
        except (DslTypeError, TypeError):
            out.append(None)
            continue
        if (lhs.source, lhs.target, lhs.shift) != (rhs.source, rhs.target,
                                                    rhs.shift):
            out.append(None)
            continue
        out.append(map_check(
            "assert line %d" % stmt.line, lhs, rhs,
            details="%s == %s" % (mor_text(stmt.lhs), mor_text(stmt.rhs))))
    return out


FAILING_SCRIPTS = [
    # failing assertions with witnesses, mixed degrees and a generator
    "let V = obj { deg 0: 1, deg 1: 2 }\n"
    "let W = obj { deg 2: 1, deg 1: 1 }\n"
    "let f = gen (V -> V) { [2, 0, 0; 0, 1, 3; 0, 0, 1] }\n"
    "assert (f * id[W]) ; braid[V,W] == braid[V,W] ; (id[W] * f)\n"
    "assert braid[V,W] ; braid[W,V] == id[V*W]\n"
    "assert theta[V*W] == theta[V] * theta[W]\n"
    "assert antitwist[V] * id[W] == id[V*W]\n",
    # ill-typed composites, different boundaries, unknown names
    "let V = obj { deg 0: 1, deg 1: 1 }\n"
    "let W = obj { deg 1: 1 }\n"
    "assert braid[V,W] ; braid[V,W] == id[V*W]\n"
    "assert id[V] == id[W]\n"
    "assert braid[V,W] == braid_inv[W,V]\n"
    "assert id[V] == nope ; nope\n",
    # shifted generators: different shifts, and a failing shifted identity
    "let V = obj { deg 0: 1, deg 1: 1, deg 2: 1 }\n"
    "let x = gen (V -> V) { [0, 0, 0; 1, 0, 0; 0, 1, 0] }\n"
    "assert x == id[V]\n"
    "assert x * id[V] == id[V] * x\n"
    "assert (x * id[V]) ; braid[V,V] == braid[V,V] ; (id[V] * x)\n",
    # a declared one-dimensional object of degree 0: tensor() drops its
    # label from a product, but names its own basis vector v0
    "let L = obj { deg 0: 1 }\n"
    "let V = obj { deg 1: 2 }\n"
    "let f = gen (L -> L) { [2] }\n"
    "assert f == id[L]\n"
    "assert f * id[V] == id[L * V]\n"
    "assert id[V] * f == id[V] * id[L]\n",
    # A * B has degree 3: one-dimensional of degree 0 only when N = 3
    "let A = obj { deg 1: 1 }\n"
    "let B = obj { deg 2: 1 }\n"
    "let V = obj { deg 0: 1, deg 1: 1 }\n"
    "let g = gen (V -> V) { [1, 0; 0, 2] }\n"
    "assert id[A * B] * g == id[A * B] * id[V]\n"
    "assert g * id[A * B] == id[V] * id[A] * id[B]\n",
]


@pytest.mark.parametrize("N, c, mu", [(3, 1, 0), (5, 1, 2), (7, 3, 1),
                                      (5, 2, 0), (2, 1, 1), (4, 1, 0)])
def test_lazy_route_matches_the_matrix_route(N, c, mu):
    texts = [path.read_text() for path in corpus_files()] + FAILING_SCRIPTS
    for text in texts:
        lazy = check_text(text, Environment.build(N, c, mu))
        oracle = oracle_checks(text, Environment.build(N, c, mu))
        assert len(lazy) == len(oracle)
        for got, want in zip(lazy, oracle):
            if want is None:
                assert got["status"] == FAIL
                assert "type_error" in got["witnesses"][0]
            else:
                assert got == want


def test_failing_scripts_fail_with_witnesses():
    statuses = [[c["status"] for c in check_text(text, env3())]
                for text in FAILING_SCRIPTS]
    assert statuses == [[PASS, FAIL, FAIL, FAIL], [FAIL] * 4,
                        [FAIL, FAIL, FAIL], [FAIL] * 3, [FAIL] * 2]


def test_tensor_product_of_morphisms_lists_no_basis():
    # each side is 56^3 = 175 616-dimensional; the check stops at the first
    # differing column and names it from the diagram, without the basis
    text = ("let V = obj { deg 0: 28, deg 1: 28 }\n"
            "assert id[V] * id[V] * theta[V] == id[V] * id[V] * id[V]\n")
    env = env3()
    tracemalloc.start()
    try:
        (got,) = check_text(text, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got["status"] == FAIL
    assert got["witnesses"][0]["input"] == "v0*v0*v28"
    assert peak < 5 * 2 ** 20, peak


def test_duality_maps_list_no_basis_of_their_product(monkeypatch):
    # each duality map is a leaf on its tensor word, built alone: no space
    # of the 60^2 vectors of V^ * V is built, nor its degrees listed
    text = "let V = obj { deg 0: 30, deg 1: 30 }\n" + "".join(
        "assert %s[V] == %s[V]\n" % (k, k)
        for k in ("ev", "ev_l", "coev", "coev_l"))
    dims, init = [], GradedSpace.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        dims.append(self.dim)

    monkeypatch.setattr(GradedSpace, "__init__", spy)
    checks = check_text(text, env3())
    assert [c["status"] for c in checks] == [PASS] * 4
    assert max(dims) == 60


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@st.composite
def graded_object(draw, max_total=3):
    N = draw(st.integers(min_value=2, max_value=7))
    count = draw(st.integers(min_value=1, max_value=max_total))
    degrees = draw(st.lists(st.integers(min_value=0, max_value=N - 1),
                            min_size=count, max_size=count))
    return N, degrees


@given(graded_object())
@settings(max_examples=40, deadline=None)
def test_zigzags_pass_for_random_objects(obj):
    N, degrees = obj
    dims = ", ".join("deg %d: 1" % d for d in degrees)
    script = (
        "let V = obj { %s }\n"
        "assert (coev[V] * id[V]) ; (id[V] * ev[V]) == id[V]\n"
        "assert (id[V^] * coev[V]) ; (ev[V] * id[V^]) == id[V^]\n"
        "assert (id[V] * coev_l[V]) ; (ev_l[V] * id[V]) == id[V]\n"
        "assert (coev_l[V] * id[^V]) ; (id[^V] * ev_l[V]) == id[^V]\n"
        % dims)
    for c in range(1, N):
        checks = check_text(script, Environment(N, c))
        assert all(ch["status"] == PASS for ch in checks)


@given(graded_object(), st.data())
@settings(max_examples=40, deadline=None)
def test_braiding_naturality_for_random_generators(obj, data):
    N, degrees = obj
    # f: diagonal on mixed degrees; g: arbitrary matrix on a single degree
    diag = data.draw(st.lists(
        st.integers(min_value=-3, max_value=3),
        min_size=len(degrees), max_size=len(degrees)))
    wdim = data.draw(st.integers(min_value=1, max_value=2))
    wdeg = data.draw(st.integers(min_value=0, max_value=N - 1))
    gmat = data.draw(st.lists(
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=wdim, max_size=wdim),
        min_size=wdim, max_size=wdim))
    frows = "; ".join(
        ", ".join(str(diag[r]) if r == c_ else "0"
                  for c_ in range(len(degrees)))
        for r in range(len(degrees)))
    grows = "; ".join(", ".join(str(v) for v in row) for row in gmat)
    script = (
        "let V = obj { %s }\n"
        "let W = obj { deg %d: %d }\n"
        "let f = gen (V -> V) { [%s] }\n"
        "let g = gen (W -> W) { [%s] }\n"
        "assert (f * g) ; braid[V,W] == braid[V,W] ; (g * f)\n"
        % (", ".join("deg %d: 1" % d for d in degrees), wdeg, wdim,
           frows, grows))
    checks = check_text(script, Environment(N, 1))
    assert all(ch["status"] == PASS for ch in checks)


def test_readme_script_example_passes():
    # the README's ```text block is the documented script example; it must
    # load and pass under the defaults of `bhl dsl check` (N=3, chi=1, mu=0)
    blocks = re.findall(r"```text\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    checks = check_text(blocks[0], env3())
    assert checks
    assert all(c["status"] == PASS for c in checks), checks
