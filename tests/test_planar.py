import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    concat,
    min_copies_restart,
    r_lower_via_network,
    random_canonical_factorization,
    strip_u_diagonals,
)
from oscillax import planar
from oscillax.errors import (
    FeasibilityExceeded,
    NotOscillatory,
    ParamOutOfRange,
    ShapeMismatch,
)
from oscillax.exponent import (
    generate_z1,
    generate_z2,
    random_oscillatory_factorization,
)
from oscillax.matrix import mat_mul, minor
from oscillax.planar import (
    COPIES_LAYER_LIMIT,
    DOT_LINE_LIMIT,
    INFINITE_COPIES,
    PlanarNetwork,
    build_network,
    concat_copies,
    enumerate_path_families,
    export_dot,
    min_copies_lower_corner,
    minor_via_paths,
    network_to_json_dict,
)
from oscillax.seb import (
    SEBFactorization,
    compose,
    ebd,
    ebl,
    identity_factorization,
    multiplier_count,
    neville_factorize,
)
from oscillax.verify import corpus_matrices

M = corpus_matrices()

GOLDEN = Path(__file__).parent / "golden"


def single_down_layer(n, i, weight=1):
    return PlanarNetwork(n=n, layers=(ebl(i, weight),))


def test_build_network_elim3_structure():
    net = build_network(neville_factorize(M["elim3"]))
    kinds = [(l.kind, l.index) for l in net.layers]
    assert kinds == [
        ("L", 3),
        ("L", 2),
        ("L", 3),
        ("D", None),
        ("U", 3),
        ("U", 2),
        ("U", 3),
    ]


def test_build_network_diagonal_only():
    net = build_network(identity_factorization(4))
    assert len(net.layers) == 1
    assert net.layers[0].kind == "D"


def test_elementary_diagram_families():
    # single lower diagram: sources {i-1, i} to sinks {i-1, i} admit one
    # family of weight one; sources {1, i} to sinks {1, i-1} weight q
    net = single_down_layer(4, 3, Fraction(7))
    fams = enumerate_path_families(net, (2, 3), (2, 3))
    assert len(fams) == 1 and fams[0].weight == 1
    fams = enumerate_path_families(net, (1, 3), (1, 2))
    assert len(fams) == 1 and fams[0].weight == 7
    assert minor_via_paths(net, (2, 3), (2, 3)) == 1
    assert minor_via_paths(net, (1, 3), (1, 2)) == 7


def test_net4_path_values():
    a = M["net4"]
    net = build_network(neville_factorize(a))
    assert minor_via_paths(net, (2,), (4,)) == Fraction(1, 10)
    assert len(enumerate_path_families(net, (2,), (4,))) == 1
    assert minor_via_paths(net, (2,), (2,)) == 4
    assert len(enumerate_path_families(net, (2,), (2,))) == 2
    assert minor_via_paths(net, (1, 3), (2, 3)) == 5
    fams = enumerate_path_families(net, (1, 3), (2, 3))
    assert len(fams) == 3
    assert sum(f.weight for f in fams) == 5


def test_paths_match_minors_exhaustively():
    rng = random.Random(73)
    for _ in range(8):
        n = rng.randint(2, 5)
        f = random_canonical_factorization(n, rng)
        a = compose(f)
        net = build_network(f)
        for p in range(1, n + 1):
            for rows in itertools.combinations(range(1, n + 1), p):
                for cols in itertools.combinations(range(1, n + 1), p):
                    assert minor_via_paths(net, rows, cols) == minor(a, rows, cols)


def test_enumeration_matches_sweep():
    rng = random.Random(79)
    for _ in range(6):
        n = rng.randint(2, 4)
        f = random_canonical_factorization(n, rng)
        net = build_network(f)
        for p in range(1, n + 1):
            for rows in itertools.combinations(range(1, n + 1), p):
                for cols in itertools.combinations(range(1, n + 1), p):
                    fams = enumerate_path_families(net, rows, cols)
                    assert sum(f.weight for f in fams) == minor_via_paths(
                        net, rows, cols
                    )


def test_family_paths_are_vertex_disjoint():
    net = build_network(neville_factorize(M["net4"]))
    for fam in enumerate_path_families(net, (1, 3), (2, 3)):
        for step in range(len(net.layers) + 1):
            occupied = [path[step] for path in fam.paths]
            assert len(set(occupied)) == len(occupied)


def test_concat_is_multiplication():
    rng = random.Random(83)
    fa = random_canonical_factorization(3, rng)
    fb = random_canonical_factorization(3, rng)
    a, b = compose(fa), compose(fb)
    ab = mat_mul(a, b)
    net = concat(build_network(fa), build_network(fb))
    for i in range(1, 4):
        for j in range(1, 4):
            assert minor_via_paths(net, (i,), (j,)) == ab[i - 1, j - 1]
    assert minor_via_paths(net, (1, 2), (2, 3)) == minor(ab, (1, 2), (2, 3))


def test_concat_identity_and_mismatch():
    net = build_network(neville_factorize(M["elim3"]))
    empty = PlanarNetwork(n=3, layers=())
    assert concat(net, empty) == net
    with pytest.raises(ShapeMismatch):
        concat(net, PlanarNetwork(n=4, layers=()))


def test_two_copies_exp4_corner_family_weight_zero():
    f = neville_factorize(M["exp4"])
    net = concat_copies(build_network(f), 2)
    assert minor_via_paths(net, (2, 3, 4), (1, 2, 3)) == 0


def test_concat_copies_bounds_its_layers():
    net = build_network(neville_factorize(M["exp4"]))
    most = COPIES_LAYER_LIMIT // len(net.layers)
    assert len(concat_copies(net, most).layers) == most * len(net.layers)
    for copies in (most + 1, 10**18):
        with pytest.raises(FeasibilityExceeded, match="exceed the limit of 100000"):
            concat_copies(net, copies)


def test_strip_u_diagonals():
    f = neville_factorize(M["elim3"])
    net = build_network(f)
    stripped = strip_u_diagonals(net)
    assert [l.kind for l in stripped.layers] == ["L", "L", "L", "D"]
    assert strip_u_diagonals(stripped) == stripped


def test_min_copies_invariant_under_strip():
    f = neville_factorize(M["net4"])
    net = build_network(f)
    for c in (1, 2, 3):
        assert min_copies_lower_corner(net, c) == min_copies_lower_corner(
            strip_u_diagonals(net), c
        )


def test_min_copies_chain_shapes():
    # single ascending chain: the corner entry needs n-1 copies
    for n in (4, 5):
        net = build_network(generate_z2(n, n, {n - 1}, seed=3))
        assert min_copies_lower_corner(net, 1) == n - 1
    # full lower side reaches the largest corner in one copy
    net = build_network(generate_z1(5, 5, seed=4))
    assert min_copies_lower_corner(net, 4) == 1
    # single full descending chain, largest corner of n=4 takes 3 copies
    net = build_network(generate_z1(4, 2, seed=5))
    assert min_copies_lower_corner(net, 3) == 3


def test_min_copies_unreachable_is_infinite():
    net = build_network(identity_factorization(4))
    assert min_copies_lower_corner(net, 1) == INFINITE_COPIES
    with pytest.raises(ParamOutOfRange):
        min_copies_lower_corner(net, 4)


def _copy_count_networks(n, rng):
    """All-positive, sparse oscillatory and random staircase factorizations
    at dimension n, as networks and with their upward diagonals stripped,
    plus the identity."""
    k = multiplier_count(n)
    full = SEBFactorization(
        n,
        tuple(rng.randint(1, 9) for _ in range(k)),
        tuple(rng.randint(1, 4) for _ in range(n)),
        tuple(rng.randint(1, 9) for _ in range(k)),
    )
    sparse = random_oscillatory_factorization(n, rng, density=0.1)
    staircase = random_canonical_factorization(n, rng)
    nets = [build_network(f) for f in (full, sparse, staircase)]
    nets += [strip_u_diagonals(net) for net in nets]
    nets.append(build_network(identity_factorization(n)))
    return nets


def test_min_copies_matches_restart_oracle():
    rng = random.Random(131)
    seen = set()
    for n in range(2, 9):
        for net in _copy_count_networks(n, rng):
            for c in range(1, n):
                copies = min_copies_lower_corner(net, c)
                assert copies == min_copies_restart(net, c)
                seen.add(copies)
    assert {1, 2, 3, INFINITE_COPIES} <= seen


def test_zero_weight_descent_never_reaches_the_corner():
    net = PlanarNetwork(3, [ebl(2, 0), ebl(3, 1)])
    assert min_copies_lower_corner(net, 1) == INFINITE_COPIES
    assert min_copies_restart(net, 1) == INFINITE_COPIES


def test_min_copies_keeps_track_cap():
    net = build_network(SEBFactorization(9, (1,) * 36, (1,) * 9, (1,) * 36))
    message = "path sweep over 9 tracks exceeds cap 8"
    with pytest.raises(FeasibilityExceeded, match=message):
        min_copies_lower_corner(net, 1)
    with pytest.raises(FeasibilityExceeded, match=message):
        r_lower_via_network(net)
    # a level without descents is decided before the cap is consulted
    identity = build_network(identity_factorization(9))
    assert min_copies_lower_corner(identity, 1) == INFINITE_COPIES


def test_min_copies_zero_weight_level_is_infinite():
    net = PlanarNetwork(3, (ebl(3, 1), ebl(2, 0)))
    assert min_copies_lower_corner(net, 1) == INFINITE_COPIES
    assert min_copies_lower_corner(net, 2) == INFINITE_COPIES
    with pytest.raises(NotOscillatory):
        r_lower_via_network(net)


def test_min_copies_rejects_negative_and_zero_scale_weights():
    signed = PlanarNetwork(2, (ebl(2, 1), ebl(2, -1)))
    with pytest.raises(ParamOutOfRange):
        min_copies_lower_corner(signed, 1)
    # the sweep itself stays general: the two families cancel
    assert minor_via_paths(signed, (2,), (1,)) == 0
    blocked = PlanarNetwork(2, (ebd((1, 0)), ebl(2, 1)))
    with pytest.raises(ParamOutOfRange):
        min_copies_lower_corner(blocked, 1)


def test_sweep_validation():
    net = build_network(identity_factorization(3))
    with pytest.raises(ShapeMismatch):
        minor_via_paths(net, (1, 2), (1,))
    big = PlanarNetwork(n=9, layers=())
    with pytest.raises(FeasibilityExceeded, match="^path sweep over 9 tracks exceeds cap 8$"):
        minor_via_paths(big, (1,), (1,))
    wide = PlanarNetwork(n=6, layers=())
    with pytest.raises(FeasibilityExceeded, match="^enumeration over 6 tracks exceeds cap 5$"):
        enumerate_path_families(wide, (1,), (1,))
    # both caps are fixed: 8 and 5 tracks still run
    assert minor_via_paths(PlanarNetwork(n=8, layers=()), (1,), (1,)) == 1
    assert len(enumerate_path_families(PlanarNetwork(n=5, layers=()), (1,), (1,))) == 1


def test_export_dot_deterministic():
    net = build_network(neville_factorize(M["elim3"]))
    assert export_dot(net) == export_dot(net)


def test_export_dot_diagonal_count_elim3():
    # three lower and three upper diagonals, one per nonzero multiplier
    net = build_network(neville_factorize(M["elim3"]))
    dot = export_dot(net)
    down = [l for l in dot.splitlines() if "_t3 -> " in l and "_t2;" in l or "_t3 -> " in l and "_t2 [" in l]
    up = [l for l in dot.splitlines() if "_t2 -> " in l and ("_t3;" in l or "_t3 [" in l)]
    assert len(down) == 2 and len(up) == 2  # index-3 diagonals each way
    assert sum(1 for layer in net.layers if layer.kind in ("L", "U")) == 6


def test_export_dot_diag_only():
    dot = export_dot(build_network(identity_factorization(2)))
    assert "c0_t1 -> c1_t1" in dot and "c0_t2 -> c1_t2" in dot
    assert "label" not in dot  # unit weights are unlabeled


def test_export_dot_golden():
    net = build_network(neville_factorize(M["net4"]))
    golden = (GOLDEN / "net4_network.dot").read_text()
    assert export_dot(net) == golden


def test_export_dot_bounds_its_lines(monkeypatch):
    # a 4-track network at the copy layer limit still renders
    assert COPIES_LAYER_LIMIT * (4 + 1) <= DOT_LINE_LIMIT
    net = build_network(neville_factorize(M["exp4"]))  # 9 layers over 4 tracks
    full = export_dot(net)
    monkeypatch.setattr(planar, "DOT_LINE_LIMIT", 9 * 5)
    assert export_dot(net) == full
    message = "DOT rendering of 18 layers over 4 tracks exceeds the limit of 45 lines"
    with pytest.raises(FeasibilityExceeded, match=message):
        export_dot(concat_copies(net, 2))


def test_network_json_dump():
    net = build_network(neville_factorize(M["elim3"]))
    doc = network_to_json_dict(net)
    assert doc["n"] == 3
    assert doc["layers"][0] == {"diag": "down", "i": 3, "w": "1"}
    assert doc["layers"][3]["diag"] == "horizontal"
