"""Tests for the braided/stable classification tables and Cayley groups."""

import json
import pathlib

import pytest

import bhl
from bhl.algebras import is_prime
from bhl.classify import (
    CayleyGroup,
    classify_braided,
    classify_stable,
    omega_hom,
    packet_report,
    rep_g_decomposition,
)
from bhl.graded import AntiTwist, Bicharacter
from bhl.scalars import root_of_unity
from oracle import (
    eta_arrows_by_anti_twists,
    eta_kernel,
    omega,
    packet_values,
    run_script,
    stable_witnesses_by_pairs,
)

DATA_DIR = pathlib.Path(bhl.__file__).parent / "data"


def dagger_involution(N):
    """The pairing (y, sigma lambda_t) |-> (-y, sigma lambda_{-t}) on
    (y, t) pairs."""
    return {(y, t): ((-y) % N, (-t) % N) for y in range(N) for t in range(N)}


def cyclic_cayley(n):
    return CayleyGroup([[(i + j) % n for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
def test_character_table_group_structure(N):
    zeta = root_of_unity(N)
    T = [tuple(zeta ** (t * x) for x in range(N)) for t in range(N)]
    assert len(set(T)) == N
    for s in range(N):
        for t in range(N):
            product = tuple(a * b for a, b in zip(T[s], T[t]))
            assert product == T[(s + t) % N]
        inverse = tuple(v.inverse() for v in T[s])
        assert inverse == T[-s]


# ---------------------------------------------------------------------------
# anti-twists
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N,c", [(2, 1), (3, 1), (4, 1), (5, 2), (6, 1)])
def test_anti_twists_satisfy_law(N, c):
    chi = Bicharacter(N, c)
    twists = [AntiTwist(chi, t) for t in range(N)]
    assert len(twists) == N
    assert len({tuple(t(i) for i in range(N)) for t in twists}) == N
    for sig in twists:
        for i in range(N):
            for j in range(N):
                assert sig(i + j) * omega(chi, i, j) == sig(i) * sig(j)


def test_anti_twist_parameter_matches_mu_form():
    chi = Bicharacter(5, 1)
    twists = [AntiTwist(chi, t) for t in range(5)]
    for t in range(5):
        assert [twists[t](i) for i in range(5)] == [
            root_of_unity(5, -i * i + t * i) for i in range(5)]


def test_n2_second_anti_twist_is_trivial():
    # sigma(x) lambda_1(x) = (-1)^(x^2 - x) = 1 for both degrees
    chi = Bicharacter(2, 1)
    twists = [AntiTwist(chi, t) for t in range(2)]
    assert all(twists[1](i) == 1 for i in range(2))
    assert not all(twists[0](i) == 1 for i in range(2))


# ---------------------------------------------------------------------------
# braided classification
# ---------------------------------------------------------------------------


def test_omega_hom_is_a_homomorphism():
    for N, c in [(3, 1), (4, 1), (6, 2), (8, 3)]:
        om = omega_hom(N, c)
        for y1 in range(N):
            for y2 in range(N):
                assert om[(y1 + y2) % N] == (om[y1] + om[y2]) % N


@pytest.mark.parametrize("p", [3, 5, 7])
def test_braided_classes_odd_prime_single_class(p):
    result = classify_braided(p, 1)
    assert result["omega_injective"]
    assert result["classes"] == [tuple(range(p))]


def test_braided_classes_n2_two_singletons():
    result = classify_braided(2, 1)
    assert result["omega_trivial"]
    assert result["classes"] == [(0,), (1,)]


def test_braided_classes_n4():
    result = classify_braided(4, 1)
    assert result["omega_image"] == [0, 2]
    assert result["classes"] == [(0, 2), (1, 3)]


def test_braided_classes_partition():
    for N in range(1, 9):
        for c in range(N):
            classes = classify_braided(N, c)["classes"]
            flat = sorted(t for cls in classes for t in cls)
            assert flat == list(range(N))


# ---------------------------------------------------------------------------
# stable classification
# ---------------------------------------------------------------------------


def test_stable_classes_small_primes():
    assert classify_stable(3, 1)["classes"] == [(0,), (1, 2)]
    assert classify_stable(5, 1)["classes"] == [(0,), (1, 4), (2, 3)]
    assert classify_stable(7, 1)["classes"] == [(0,), (1, 6), (2, 5), (3, 4)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_stable_class_count_odd_prime(p):
    result = classify_stable(p, 1)
    assert len(result["classes"]) == (p + 1) // 2
    assert len(packet_values(result["packet"])) == (p + 1) // 2


def test_stable_pairs_t_with_minus_t():
    for N in range(2, 10):
        witnesses = classify_stable(N, 1)["witnesses"]
        for t in range(N):
            assert witnesses.get(((-t) % N, t))


def test_stable_refines_braided():
    for N in range(1, 10):
        for c in range(N):
            braided = classify_braided(N, c)["classes"]
            stable = classify_stable(N, c)["classes"]
            flat = sorted(t for cls in stable for t in cls)
            assert flat == list(range(N))
            for cls in stable:
                assert any(set(cls) <= set(b) for b in braided)


def test_stable_witness_zero_is_reflexive():
    witnesses = classify_stable(5, 1)["witnesses"]
    for t in range(5):
        assert 0 in witnesses[(t, t)]


# ---------------------------------------------------------------------------
# packet reports
# ---------------------------------------------------------------------------


def test_packet_report_n3():
    rep = packet_report(3, 1)
    xi = root_of_unity(3)
    assert packet_values(rep) == [1, xi]
    assert rep.multiplicities == [1, 2]
    assert rep.total() == 3


def test_packet_report_n5():
    rep = packet_report(5, 1)
    xi = root_of_unity(5)
    assert packet_values(rep) == [1, xi, xi ** 4]
    assert rep.multiplicities == [1, 2, 2]


def test_packet_total_is_group_order():
    for N in range(1, 11):
        for c in range(N):
            assert packet_report(N, c).total() == N


def test_packet_values_match_binary_powering():
    # decompose vec-g prints these values, so each keeps the type and
    # repr of zeta ** e
    for N in range(1, 61):
        zeta = root_of_unity(N)
        powers = [zeta ** e for e in range(N)]
        for c in range(N):
            packet = packet_report(N, c)
            for value, entry in zip(packet_values(packet), packet.entries):
                expected = powers[entry["exponent"]]
                assert (type(value), repr(value)) == \
                    (type(expected), repr(expected)), (N, c, entry)
                assert value == expected


def test_packet_report_json_is_serializable():
    blob = json.dumps(packet_report(5, 1).to_json())
    data = json.loads(blob)
    assert data["N"] == 5
    assert sum(e["multiplicity"] for e in data["entries"]) == 5


# ---------------------------------------------------------------------------
# the eta invariant
# ---------------------------------------------------------------------------


def test_eta_values_n3_canonical_twist():
    # omega(y,y) sigma(y) = xi^(2y^2) xi^(-y^2) = xi^(y^2)
    xi = root_of_unity(3)
    result = eta_kernel(3, 1)
    etas = {a["y"]: a["eta"] for a in result["arrows"] if a["source"] == 0}
    assert etas == {0: xi ** 0, 1: xi, 2: xi}


def test_eta_kernel_contains_identity_arrows():
    for N, c in [(2, 1), (3, 1), (4, 1), (5, 2), (6, 1)]:
        result = eta_kernel(N, c)
        for a in result["arrows"]:
            if a["y"] == 0:
                assert a["in_kernel"]
                assert a["target"] == a["source"]


def test_eta_arrow_targets_follow_omega():
    om = omega_hom(5, 2)
    for a in eta_kernel(5, 2)["arrows"]:
        assert a["target"] == (a["source"] + om[a["y"]]) % 5


@pytest.mark.parametrize("N,c", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1)])
def test_dagger_involution_preserves_eta(N, c):
    inv = dagger_involution(N)
    etas = {
        (a["y"], a["source"]): (a["eta"], a["in_kernel"])
        for a in eta_kernel(N, c)["arrows"]
    }
    for pair, image in inv.items():
        assert inv[image] == pair
        assert etas[image] == etas[pair]


# ---------------------------------------------------------------------------
# one pass over the arrows against the pair scan and the anti-twists
# ---------------------------------------------------------------------------


def typed_arrows(arrows):
    return [{k: (type(v).__name__, repr(v)) for k, v in a.items()}
            for a in arrows]


def check_arrows_against_oracles(N):
    for c in range(N):
        witnesses = classify_stable(N, c)["witnesses"]
        assert list(witnesses.items()) == \
            list(stable_witnesses_by_pairs(N, c).items())
        result = eta_kernel(N, c)
        assert typed_arrows(result["arrows"]) == \
            typed_arrows(eta_arrows_by_anti_twists(N, c))
        kernel = {}
        for a in result["kernel_arrows"]:
            kernel.setdefault((a["target"], a["source"]), []).append(a["y"])
        assert dict(sorted(kernel.items())) == witnesses


@pytest.mark.parametrize("N", range(1, 25))
def test_arrows_match_oracles(N):
    check_arrows_against_oracles(N)


@pytest.mark.slow
@pytest.mark.parametrize("N", range(25, 41))
def test_arrows_match_oracles_large(N):
    check_arrows_against_oracles(N)


def test_packet_tables_script_runs():
    proc = run_script("packet_tables.py", "--all-c")
    assert proc.returncode == 0, proc.stderr
    assert "!!" not in proc.stdout
    # the eta kernel at a prime N: the N arrows with y = 0, and one arrow
    # for each y != 0
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    prime_rows = [r for r in rows if is_prime(int(r[0]))]
    assert {int(r[0]) for r in prime_rows} == {2, 3, 5, 7}
    for r in prime_rows:
        assert int(r[2]) == 2 * int(r[0]) - 1, r
    # the script counts the stable witnesses; the listing of all N^2
    # arrows gives the same kernel size for every N and c
    for r in rows:
        assert int(r[2]) == eta_kernel(int(r[0]), int(r[1]))["kernel_size"], r


# ---------------------------------------------------------------------------
# Cayley groups and conjugacy data
# ---------------------------------------------------------------------------


def s3_table():
    return json.loads((DATA_DIR / "cayley_s3.json").read_text())


def test_cyclic_group_decomposition():
    G = cyclic_cayley(4)
    classes = rep_g_decomposition(G)
    assert len(classes) == 4
    for cls in classes:
        assert cls["size"] == 1
        assert cls["centralizer_order"] == 4
        assert cls["singleton"]


def test_s3_decomposition():
    G = CayleyGroup(s3_table())
    assert G.order == 6
    assert G.identity == 0
    classes = rep_g_decomposition(G)
    assert [c["size"] for c in classes] == [1, 3, 2]
    assert [c["centralizer_order"] for c in classes] == [6, 2, 3]
    assert [c["singleton"] for c in classes] == [True, False, False]


def test_orbit_stabilizer_product():
    for G in [cyclic_cayley(6), CayleyGroup(s3_table())]:
        classes = rep_g_decomposition(G)
        assert sum(c["size"] for c in classes) == G.order
        for c in classes:
            assert c["size"] * c["centralizer_order"] == G.order


def test_cayley_rejects_missing_identity():
    with pytest.raises(ValueError):
        CayleyGroup([[0, 0], [0, 0]])


def test_cayley_rejects_non_associative_loop():
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError):
        CayleyGroup(loop)


def test_cayley_rejects_malformed_tables():
    with pytest.raises(ValueError):
        CayleyGroup([[0, 1], [1]])
    with pytest.raises(ValueError):
        CayleyGroup([[0, 3], [1, 0]])
    # anything but a list of lists of ints, as JSON can give it
    for table in ({"0": [0]}, "0", [0, 1, 1, 0], [["0", "1"], ["1", "0"]],
                  [[0, 1.0], [1, 0]], [[True, False], [False, True]],
                  [[0, None], [1, 0]], [{"0": 0}]):
        with pytest.raises(ValueError, match="not an n x n index table"):
            CayleyGroup(table)
