"""Tests for the braided/stable classification tables and Cayley groups."""

import json
import pathlib

import pytest

import bhl
from bhl.classify import (
    CayleyGroup,
    anti_twists,
    classify_braided,
    classify_stable,
    eta_kernel,
    omega_hom,
    packet_report,
    rep_g_decomposition,
    stable_witnesses,
)
from bhl.graded import AntiTwist, Bicharacter
from bhl.scalars import root_of_unity

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
    twists = anti_twists(N, c)
    assert len(twists) == N
    assert len({t.values for t in twists}) == N
    for sig in twists:
        for i in range(N):
            for j in range(N):
                assert sig(i + j) * chi.omega(i, j) == sig(i) * sig(j)


def test_anti_twist_parameter_matches_mu_form():
    chi = Bicharacter(5, 1)
    for t in range(5):
        assert anti_twists(5, 1)[t] == AntiTwist(
            chi, [root_of_unity(5, -i * i + t * i) for i in range(5)])


def test_n2_second_anti_twist_is_trivial():
    # sigma(x) lambda_1(x) = (-1)^(x^2 - x) = 1 for both degrees
    twists = anti_twists(2, 1)
    assert all(v == 1 for v in twists[1].values)
    assert not all(v == 1 for v in twists[0].values)


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
    assert len(result["packet"].values) == (p + 1) // 2


def test_stable_pairs_t_with_minus_t():
    for N in range(2, 10):
        for t in range(N):
            assert stable_witnesses(N, 1, (-t) % N, t)


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
    assert rep.values == [1, xi]
    assert rep.multiplicities == [1, 2]
    assert rep.total() == 3


def test_packet_report_n5():
    rep = packet_report(5, 1)
    xi = root_of_unity(5)
    assert rep.values == [1, xi, xi ** 4]
    assert rep.multiplicities == [1, 2, 2]


def test_packet_total_is_group_order():
    for N in range(1, 11):
        for c in range(N):
            assert packet_report(N, c).total() == N


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
    G = CayleyGroup.from_json(s3_table())
    assert G.order == 6
    assert G.identity == 0
    classes = rep_g_decomposition(G)
    assert [c["size"] for c in classes] == [1, 3, 2]
    assert [c["centralizer_order"] for c in classes] == [6, 2, 3]
    assert [c["singleton"] for c in classes] == [True, False, False]


def test_orbit_stabilizer_product():
    for G in [cyclic_cayley(6), CayleyGroup.from_json(s3_table())]:
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
