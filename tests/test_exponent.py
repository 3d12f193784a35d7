import collections
import gc
import itertools
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest

from oracles import (
    four_criteria_oscillatory,
    fraction_mat_mul,
    min_copies_restart,
    per_psi_class_json,
    positives_end_each_chain,
    power_loop_exponent_via_theorem,
    power_loop_r_lower,
    power_loop_r_upper,
    product_order,
    r_lower_via_network,
    refactorizing_recognize_class,
    scan_exponent_bruteforce,
    scan_early_tp_product_scan,
    scan_product_family_check,
    slot_factor_indices,
    slot_recognize_class,
    staircase_flat,
    token_corner_copies,
    value_keyed_tag_json,
    width_recognize_class,
)
from oscillax.errors import (
    ClassMismatch,
    FeasibilityExceeded,
    InvalidPsiPattern,
    MalformedNumber,
    NotNormalizable,
    NotOscillatory,
    OscillaxError,
    ParamOutOfRange,
    ShapeMismatch,
    Unpredictable,
)
from oscillax.cells import SIDES, copy_counts, demazure
from oscillax.classify import corner_index_sets, is_oscillatory, is_tp
from oscillax.exponent import (
    TAG_ENTRY_LIMIT,
    ClassMatch,
    Prediction,
    _corner_powers,
    _side_indices,
    early_tp_product_scan,
    enumerate_psi_patterns,
    exponent_bruteforce,
    exponent_via_prediction,
    exponent_via_theorem,
    generate_z1,
    generate_z2,
    lower_part,
    mu1,
    mu2,
    n_from_flat,
    plus_extra_tag,
    predict_exponent,
    product_family_check,
    psi_membership,
    r_lower,
    r_upper,
    random_oscillatory_factorization,
    recognize_class,
    recognize_sides,
    resolve_psi_choice,
    upper_part,
    with_transpose,
    z1_slots,
    z2_slots,
)
from oscillax.matrix import Matrix, _scaled, _unscaled, mat_pow, minor
from oscillax.planar import (
    INFINITE_COPIES,
    PlanarNetwork,
    build_network,
    min_copies_lower_corner,
)
from oscillax.seb import (
    EBFactor,
    SEBFactorization,
    chain_layout,
    compose,
    ebd,
    ebl,
    identity_factorization,
    multiplier_count,
    neville_factorize,
)
from oscillax.verify import _OSCILLATION_CRITERIA, corpus_matrices

M = corpus_matrices()


def test_mu_values():
    assert mu1(5, 5) == 1
    assert mu1(5, 2) == 4
    assert mu1(4, 3) == 2
    assert mu2(5, 4) == 3
    assert mu2(4, 4) == 3
    with pytest.raises(ParamOutOfRange):
        mu1(4, 1)
    with pytest.raises(ParamOutOfRange):
        mu2(4, 5)


_FAMILY = [generate_z1(4, 4, seed=1)]

#: Each entry point that takes a count, called with one bad count.
_COUNT_TAKERS = {
    "product_family_check": lambda x: product_family_check(_FAMILY, x),
    "early_tp_product_scan": lambda x: early_tp_product_scan(_FAMILY, x),
    "mu1": lambda x: mu1(x, 2),
    "mu2": lambda x: mu2(5, x),
    "generate_z1": lambda x: generate_z1(x, 2, 1),
    "generate_z2": lambda x: generate_z2(5, x, None, 1),
    "z1_slots": lambda x: z1_slots(5, x),
    "z2_slots": lambda x: z2_slots(x, 3, None),
}


@pytest.mark.parametrize("name", sorted(_COUNT_TAKERS))
def test_counts_that_are_no_ints_get_param_out_of_range(name):
    # k, n and s follow the one count rule: an int that is not a bool; a
    # float or a bool equal to a valid count is refused all the same
    for bad in (2.0, 2.5, 5.0, 3.5, "3", True):
        with pytest.raises(ParamOutOfRange, match="must be an int") as info:
            _COUNT_TAKERS[name](bad)
        assert type(info.value) is ParamOutOfRange


def test_psi_membership():
    assert psi_membership((0, 2), 4)  # lone own factor in a width-2 chain
    assert not psi_membership((1, 2), 4)
    assert psi_membership((3, 0, 2, 5), 2)  # slot for index 4 is zero
    assert not psi_membership((3, 1, 2, 0), 2)  # own factor missing
    # entries are read as recognize_class reads them
    assert psi_membership(("1", "0", "2"), 3)
    assert psi_membership((Fraction(1, 2), "0", "3/4"), 3)
    with pytest.raises(MalformedNumber):
        psi_membership((0.5, 0, 1), 3)
    with pytest.raises(MalformedNumber):
        psi_membership((True, 0, 1), 3)
    with pytest.raises(MalformedNumber):
        psi_membership(("abc", 0, 1), 3)
    with pytest.raises(NotNormalizable):
        psi_membership((-1, 0, 2), 3)


def test_enumerate_psi_patterns():
    assert enumerate_psi_patterns(5, 2) == (None,)
    pats = enumerate_psi_patterns(5, 4)
    assert frozenset() in pats and frozenset({4}) in pats and frozenset({5}) in pats
    assert frozenset({4, 5}) not in pats


def test_enumerate_psi_patterns_refuses_past_the_entry_limit(monkeypatch):
    # Z2(s) has 2^(n-s+1) - 1 patterns: 65,535 at n = 18, s = 3
    assert len(enumerate_psi_patterns(18, 3)) == 2**16 - 1 <= TAG_ENTRY_LIMIT
    message = "Z2(3) at n=19 has 2^17 - 1 partial-chain patterns, past the limit of 65536"
    with pytest.raises(FeasibilityExceeded, match=re.escape(message)):
        enumerate_psi_patterns(19, 3)
    # before anything is built: n = 10**9 would not fit in memory
    for n in (40, 10**9):
        with pytest.raises(FeasibilityExceeded, match=f"at n={n} has"):
            enumerate_psi_patterns(n, 3)
    assert enumerate_psi_patterns(10**9, 2) == (None,)
    # both sides of a smaller limit: 15 patterns fit it, 31 do not
    monkeypatch.setattr(sys.modules["oscillax.exponent"], "TAG_ENTRY_LIMIT", 15)
    assert len(enumerate_psi_patterns(7, 4)) == 15
    with pytest.raises(FeasibilityExceeded, match="2\\^5 - 1 partial-chain patterns"):
        enumerate_psi_patterns(7, 3)


def test_random_psi_draw_matches_enumerated_pattern():
    for n in range(3, 9):
        for s in range(2, n + 1):
            patterns = enumerate_psi_patterns(n, s)
            for seed in range(6):
                rng, ref = random.Random(seed), random.Random(seed)
                expected = patterns[ref.randrange(len(patterns))] if s >= 3 else None
                assert resolve_psi_choice(n, s, "random", rng) == expected
                assert rng.random() == ref.random()  # same stream afterwards


def test_random_psi_draw_at_large_n():
    f = generate_z2(30, 3, "random", seed=1)
    assert f.n == 30 and f == generate_z2(30, 3, "random", seed=1)


def test_generate_z1_shape_and_determinism():
    f = generate_z1(5, 3, seed=9)
    assert f == generate_z1(5, 3, seed=9)
    assert f != generate_z1(5, 3, seed=10)
    assert all(x > 0 for x in f.l_chain(2)) and all(x > 0 for x in f.l_chain(3))
    assert all(x == 0 for x in f.l_chain(4)) and all(x == 0 for x in f.l_chain(5))
    with pytest.raises(ParamOutOfRange):
        generate_z1(4, 5, seed=0)


def test_generate_z2_tridiagonal_pattern():
    f = generate_z2(5, 5, {4}, seed=11)
    # single ascending chain: exactly factors L_2, L_3, L_4, L_5
    seq = [(fac.kind, fac.index) for fac in f.factor_sequence() if fac.kind == "L"]
    assert seq == [("L", 2), ("L", 3), ("L", 4), ("L", 5)]
    a = compose(with_transpose(f, (1, 1, 1, 1, 1)))
    # tridiagonal: zero beyond the first off-diagonals
    for i in range(5):
        for j in range(5):
            if abs(i - j) > 1:
                assert a[i, j] == 0


def test_generate_z2_pattern_validation():
    with pytest.raises(InvalidPsiPattern):
        generate_z2(5, 4, {4, 5}, seed=0)  # misses factor s-1 = 3
    with pytest.raises(InvalidPsiPattern):
        generate_z2(5, 4, {3, 4, 5}, seed=0)  # full optional set
    with pytest.raises(InvalidPsiPattern):
        generate_z2(5, 2, {2}, seed=0)
    # an index is an int and not a bool, on either branch
    for s, choice in (
        (2, 5), (3, 5), (2, [2.5]), (3, [2.5]), (3, [2, 3.0]), (4, ["3"]), (3, [2, True])
    ):
        with pytest.raises(InvalidPsiPattern):
            resolve_psi_choice(4, s, choice, random.Random(0))
        with pytest.raises(InvalidPsiPattern):
            generate_z2(4, s, choice, seed=0)
    f = generate_z2(5, 4, "random", seed=1)
    assert f == generate_z2(5, 4, "random", seed=1)


def test_generate_z1_full_transpose_is_oscillatory():
    f = generate_z1(4, 2, seed=7)
    a = compose(with_transpose(f))
    assert is_oscillatory(a) and four_criteria_oscillatory(a)
    assert exponent_bruteforce(a).r == 3  # n - 1 for the single-chain shape


def test_exponent_bruteforce_exp4():
    rep = exponent_bruteforce(M["exp4"])
    assert rep.r == 3
    assert rep.zero_witness.side == "lower-left"
    assert rep.zero_witness.size == 3
    assert rep.zero_witness.power == 2
    assert is_tp(rep.witness_power).ok


def test_exponent_bruteforce_tp_input():
    rng = random.Random(87)
    n, k = 4, 6
    f = SEBFactorization(
        n,
        tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
        (1,) * n,
        tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
    )
    rep = exponent_bruteforce(compose(f))
    assert rep.r == 1 and rep.zero_witness is None


def test_exponent_bruteforce_exp5():
    rep = exponent_bruteforce(M["exp5"])
    assert rep.r == 3
    assert minor(mat_pow(M["exp5"], 2), (1,), (4,)) == 0
    # the first vanishing corner at power 2 is the top-right entry
    assert rep.zero_witness.side == "upper-right" and rep.zero_witness.size == 1


def test_exponent_requires_oscillatory():
    with pytest.raises(NotOscillatory):
        exponent_bruteforce(Matrix.identity(3))
    with pytest.raises(NotOscillatory):
        exponent_via_theorem(Matrix.identity(3))
    with pytest.raises(NotOscillatory):
        exponent_via_theorem(Matrix([[1, 2], [3, 1]]))


def test_r_lower_upper_corpus():
    assert r_lower(M["exp4"]) == 3
    assert r_upper(M["exp4"]) == 2
    f = generate_z2(4, 4, None, seed=13)
    jac = compose(with_transpose(f, (1, 2, 1, 2)))
    assert r_lower(jac) == 3
    p = mat_pow(jac, 2)
    assert p[3, 0] == 0 and p[0, 3] == 0  # corner entries at power n-2
    rng = random.Random(91)
    n, k = 4, 6
    tp = SEBFactorization(
        n,
        tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
        (1,) * n,
        tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
    )
    a = compose(tp)
    assert r_lower(a) == 1 and r_upper(a) == 1


def test_exponent_via_theorem_matches_corpus():
    rep = exponent_via_theorem(M["exp4"])
    assert (rep.r_lower, rep.r_upper, rep.r) == (3, 2, 3)
    rep = exponent_via_theorem(M["exp5"])
    assert (rep.r_lower, rep.r_upper, rep.r) == (2, 3, 3)


def test_theorem_agrees_with_bruteforce_seeded():
    rng = random.Random(93)
    for _ in range(15):
        n = rng.randint(3, 5)
        f = random_oscillatory_factorization(n, rng, density=rng.choice((0.2, 0.5)))
        a = compose(f)
        assert exponent_bruteforce(a).r == exponent_via_theorem(a).r


def test_network_route_matches_algebraic_r_lower():
    rng = random.Random(97)
    for _ in range(10):
        n = rng.randint(3, 5)
        f = random_oscillatory_factorization(n, rng)
        assert r_lower_via_network(lower_part(f)) == r_lower(compose(lower_part(f)))


def test_network_route_on_full_matrix_ignores_upper_side():
    # copy counting on the full network (upper diagonals included) equals
    # the algebraic lower exponent of the composed matrix
    rng = random.Random(98)
    for _ in range(8):
        n = rng.randint(3, 5)
        f = random_oscillatory_factorization(n, rng, density=rng.choice((0.2, 0.5)))
        assert r_lower_via_network(f) == r_lower(compose(f))


def test_r_lower_blind_to_upper_side():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(3, 5)
        f = random_oscillatory_factorization(n, rng)
        a = compose(f)
        zeroed = SEBFactorization(
            n,
            f.l,
            tuple(Fraction(rng.randint(1, 5)) for _ in range(n)),
            (Fraction(0),) * multiplier_count(n),
        )
        assert power_loop_r_lower(a) == power_loop_r_lower(compose(zeroed))


def test_recognize_full_support_is_z1_n():
    f = generate_z1(4, 4, seed=17)
    tag = recognize_class(f.l, 4)
    labels = {(m.family, m.s) for m in tag.exact}
    assert ("Z1", 4) in labels and ("Z2", 2) in labels


def test_recognize_class_matches_enumerated_oracle():
    # every canonical support at n = 7 (n <= 6, refactorized, has its own
    # test below) and seeded class shapes, with and without extra factors,
    # at n = 8..9
    rng = random.Random(131)
    flats = list(_canonical_flats(7, rng))
    assert len(flats) == math.factorial(7)
    assert _assert_recognition_matches_oracle(flats, 7, refactorize=False) == {True}
    for n in (8, 9):
        layout = chain_layout(n)
        flats = []
        for s in range(2, n + 1):
            flats.append(generate_z1(n, s, seed=rng.randrange(10**6)).l)
            patterns = enumerate_psi_patterns(n, s)
            for psi in rng.sample(patterns, min(3, len(patterns))):
                members = None if psi is None else psi | {s - 1}
                flat = list(generate_z2(n, s, members, seed=rng.randrange(10**6)).l)
                flats.append(tuple(flat))
                flat[rng.randrange(len(flat))] = Fraction(rng.randint(1, 9))
                flats.append(tuple(flat))
        flats.append(layout.mirror(staircase_flat(n, rng, "u")))
        assert _assert_recognition_matches_oracle(flats, n) == {True, False}


def test_recognize_class_holds_one_match_per_support():
    # the JSON lists 2^(n-1) - 2 with-extras entries on the full support;
    # the tag itself holds one per class support below it
    for n, seed in ((30, 3), (40, 4)):
        tag = recognize_class(generate_z1(n, n, seed).l, n)
        assert tag.exact == (ClassMatch("Z1", n, None), ClassMatch("Z2", 2, None))
        assert len(tag.with_extras) == n * (n - 1) // 2 - 1
        assert sum(m.patterns(n) for m, _ in tag.with_extras) == 2 ** (n - 1) - 2
    rep = exponent_via_theorem(compose(with_transpose(generate_z1(30, 30, 5))))
    assert (rep.r, rep.zero_witness) == (1, None)


def test_recognition_past_enumerated_catalog_limit():
    n = 12
    rng = random.Random(12)
    for s in range(2, n + 1):
        f = generate_z1(n, s, seed=s)
        tag = recognize_class(f.l, n)
        assert (tag.family, tag.s) == ("Z1", s)
        pred, _, _ = exponent_via_prediction(compose(with_transpose(f)))
        assert (pred.kind, pred.value) == ("exact", mu1(n, s))
    for s in range(3, n + 1):
        optional = list(range(s, n + 1))
        psi = set(rng.sample(optional, rng.randrange(len(optional))))
        run = []
        while s + len(run) in psi:
            run.append(s + len(run))
        tag = recognize_class(generate_z2(n, s, psi | {s - 1}, seed=s).l, n)
        assert (tag.family, tag.s, tag.psi_pattern) == ("Z2", s, tuple(run))


def test_recognize_reordered_upper_example():
    from oscillax.seb import ebu, normalize_commutation

    facs = [ebu(5, 1), ebu(4, 2), ebu(3, 4), ebu(5, 6), ebu(2, 7), ebu(4, 9)]
    f = normalize_commutation(facs, n=5)
    tag = recognize_class(chain_layout(5).mirror(f.u), 5)
    assert (tag.family, tag.s, tag.psi_pattern) == ("Z2", 4, (4,))


def test_recognize_plus_extra_framing():
    f = neville_factorize(M["bound3"])
    u_tag = recognize_class(chain_layout(3).mirror(f.u), 3)
    assert u_tag.is_pure  # full support is also the s = n chain class
    bases = [(m.family, m.s) for m, _ in u_tag.with_extras]
    assert ("Z2", 3) in bases
    for m, extras in u_tag.with_extras:
        if (m.family, m.s) == ("Z2", 3):
            assert [(e.kind, e.index) for e in extras] == [("L", 3)]


def test_recognition_declines_shapes_outside_both_classes():
    # the lower word L_3 L_2 L_4 cannot be commuted into either class
    # shape; recognition must decline rather than guess, while the
    # decoupled route still produces the exponent
    f = neville_factorize(M["basic4"])
    l_tag, u_tag = recognize_sides(f)
    assert l_tag.family == "unrecognized"
    assert u_tag.family == "unrecognized"
    with pytest.raises(Unpredictable):
        exponent_via_prediction(M["basic4"])
    assert exponent_via_theorem(M["basic4"]).r == 2


def test_recognize_unrecognized():
    # lower support missing chain coverage entirely
    k = multiplier_count(4)
    flat = [Fraction(0)] * k
    flat[0] = Fraction(2)  # single factor L_4 in the first chain
    tag = recognize_class(tuple(flat), 4)
    assert tag.family == "unrecognized"
    assert not tag.exact and not tag.with_extras


def test_predict_exact_and_bound():
    l4, u4 = recognize_sides(neville_factorize(M["exp4"]))
    pred = predict_exponent(l4, u4)
    assert (pred.kind, pred.value) == ("exact", 3)
    # full support on both sides predicts exponent one
    f = generate_z1(4, 4, seed=19)
    tag = recognize_class(f.l, 4)
    assert predict_exponent(tag, tag) == predict_exponent(tag, tag)
    assert predict_exponent(tag, tag).value == 1
    # committed plus-extra framing yields a bound
    fb = neville_factorize(M["bound3"])
    l_tag = recognize_class(fb.l, 3)
    u_full = recognize_class(chain_layout(3).mirror(fb.u), 3)
    base, extras = next(
        (m, e) for m, e in u_full.with_extras if (m.family, m.s) == ("Z2", 3)
    )
    framed = plus_extra_tag(3, base, extras)
    pred = predict_exponent(l_tag, framed)
    assert (pred.kind, pred.value) == ("upper_bound", 2)


def test_predict_bound_ignores_which_side_carries_extras():
    fb = neville_factorize(M["bound3"])
    l_tag = recognize_class(fb.l, 3)
    u_full = recognize_class(chain_layout(3).mirror(fb.u), 3)
    pairs = [(l_tag, plus_extra_tag(3, m, e)) for m, e in u_full.with_extras]
    rng = random.Random(421)
    for n in range(3, 9):
        for _ in range(6):
            part = generate_z2(n, rng.randint(2, n), "random", rng.random())
            pure = recognize_class(part.l, n)
            flat = list(generate_z1(n, rng.randint(2, n - 1), rng.random()).l)
            zeros = [p for p, x in enumerate(flat) if x == 0]
            for p in rng.sample(zeros, rng.randint(1, min(2, len(zeros)))):
                flat[p] = Fraction(rng.randint(1, 9))
            extra = recognize_class(tuple(flat), n)
            if not extra.is_pure and extra.with_extras:
                pairs.append((pure, extra))
    assert len(pairs) > 20
    for pure, extra in pairs:
        pred = predict_exponent(pure, extra)
        assert pred.kind == "upper_bound"
        assert predict_exponent(extra, pure) == pred


def test_predict_unrecognized_raises():
    k = multiplier_count(4)
    flat = [Fraction(0)] * k
    flat[0] = Fraction(2)
    bad = recognize_class(tuple(flat), 4)
    good = recognize_class(generate_z1(4, 2, seed=3).l, 4)
    with pytest.raises(Unpredictable):
        predict_exponent(bad, good)
    framed = plus_extra_tag(4, ClassMatch("Z1", 2, None), ())
    with pytest.raises(Unpredictable):
        predict_exponent(framed, framed)


def test_exponent_via_prediction_route():
    pred, l_tag, u_tag = exponent_via_prediction(M["exp4"])
    assert pred.kind == "exact" and pred.value == 3
    assert (l_tag.family, l_tag.s) == ("Z1", 2)
    assert (u_tag.family, u_tag.s) == ("Z1", 3)


def _class_inputs(seed, sizes):
    """Seeded full matrices whose lower and transposed upper parts are
    Z1/Z2 shapes, plus a diagonal."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        for _ in range(3):
            s = rng.randint(2, n)
            part = (
                generate_z1(n, s, rng.randint(0, 10**6))
                if rng.random() < 0.5
                else generate_z2(n, s, "random", rng.randint(0, 10**6))
            )
            other = generate_z1(n, rng.randint(2, n), rng.randint(0, 10**6))
            d = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
            upper = chain_layout(n).mirror(other.l)
            out.append(compose(SEBFactorization(n, part.l, d, upper)))
    return out


def _assert_witnesses(a, rep):
    """The report's witness power is A^r, and its zero witness names a
    corner minor that vanishes in A^(r-1)."""
    assert rep.witness_power == mat_pow(a, rep.r)
    if rep.r == 1:
        assert rep.zero_witness is None
        return
    w = rep.zero_witness
    assert w.power == rep.r - 1
    rows, cols = corner_index_sets(a.rows, w.side, w.size)
    assert minor(mat_pow(a, rep.r - 1), rows, cols) == 0


def test_witness_power_and_zero_corner_on_both_routes():
    for a in list(M.values()) + _class_inputs(113, (3, 4, 5)):
        _assert_witnesses(a, exponent_via_theorem(a))
        _assert_witnesses(a, exponent_bruteforce(a))
    for a in _class_inputs(127, (6, 7, 8)):  # brute force scans every minor
        _assert_witnesses(a, exponent_via_theorem(a))


def test_prediction_route_rejects_non_oscillatory_inputs():
    itn_only = (Matrix.identity(3), compose(generate_z1(4, 3, seed=5)))
    for a in itn_only + (Matrix([[1, 2], [3, 1]]),):
        assert not _OSCILLATION_CRITERIA["seb"](a)
        with pytest.raises(NotOscillatory, match="^input is not oscillatory$"):
            exponent_via_prediction(a)
    for a in _class_inputs(131, (3, 4, 5, 6)):
        assert _OSCILLATION_CRITERIA["seb"](a)
        pred, _, _ = exponent_via_prediction(a)
        assert pred == Prediction("exact", exponent_via_theorem(a).r)


def test_product_family_check_pair():
    fa = neville_factorize(M["pair_a"])
    fb = neville_factorize(M["pair_b"])
    res2 = product_family_check([fa, fb], 2)
    assert res2.all_tp and res2.counterexample is None
    res1 = product_family_check([fa, fb], 1)
    assert not res1.all_tp and res1.counterexample is not None


def test_product_family_check_forms_no_product(monkeypatch):
    fa = neville_factorize(M["pair_a"])
    fb = neville_factorize(M["pair_b"])
    module = sys.modules["oscillax.exponent"]
    formed = []
    # every matrix product, the power chain's included, runs on _int_mul
    monkeypatch.setattr(
        sys.modules["oscillax.matrix"], "_int_mul", lambda *args: formed.append(args)
    )
    monkeypatch.setattr(module, "compose", lambda *args: formed.append(args))
    # the verdict comes from the copy counts alone, however many ordered
    # tuples there are
    for k in (10**9, 14):
        assert product_family_check([fa, fb], k).all_tp
    assert formed == []


def test_product_family_check_single_tp_member():
    rng = random.Random(101)
    n, k = 3, 3
    f = SEBFactorization(
        n,
        tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
        (1,) * n,
        tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
    )
    assert product_family_check([f], 1).all_tp


def test_product_family_check_jacobi():
    f = generate_z2(4, 4, None, seed=23)
    jac = with_transpose(f, (1, 1, 1, 1))
    assert product_family_check([jac], 3).all_tp
    assert not product_family_check([jac], 2).all_tp


def test_product_family_class_mismatch():
    f1 = with_transpose(generate_z1(4, 2, seed=29))
    f2 = with_transpose(generate_z2(4, 4, None, seed=29))
    with pytest.raises(ClassMismatch):
        product_family_check([f1, f2], 2)


def test_product_family_check_rejects_itn_only_members():
    # a member that misses a factor index on some side has no exponent, so
    # the check raises before any verdict instead of building (0,) * k
    identity = identity_factorization(4)
    # a lower part alone: its upper side holds no U factor
    itn_only = generate_z1(5, 3, seed=37)
    for members in ([identity], [itn_only], [itn_only, itn_only]):
        for k in (1, 10**9):
            with pytest.raises(NotOscillatory, match="^input is not oscillatory$"):
                product_family_check(members, k)


def test_early_tp_product_scan():
    fa = neville_factorize(M["early_a"])
    fb = neville_factorize(M["early_b"])
    assert early_tp_product_scan([fa, fb], 2) == ((0, 1), (1, 0))
    assert early_tp_product_scan([fa], 2) == ()


def test_mirror_flat_involution():
    rng = random.Random(103)
    for n in (2, 3, 5, 6):
        flat = tuple(Fraction(rng.randint(0, 5)) for _ in range(multiplier_count(n)))
        assert chain_layout(n).mirror(chain_layout(n).mirror(flat)) == flat
    assert n_from_flat((0,) * 10) == 5
    with pytest.raises(ParamOutOfRange):
        n_from_flat((0,) * 7)


def test_n_from_flat_is_exact_at_large_n():
    # a range has a length without its elements; from n = 94_906_267 on,
    # 1 + 8k no longer fits a float's 53-bit mantissa
    for n in (1, 2, 3, 94_906_267, 10**9 + 7, 2**32 - 5, 4 * 10**9):
        k = multiplier_count(n)
        assert n_from_flat(range(k)) == n
        for off in (-1, 1):
            if multiplier_count(n - 1) < k + off < multiplier_count(n + 1):
                with pytest.raises(ParamOutOfRange):
                    n_from_flat(range(k + off))


def test_pure_class_prediction_equals_bruteforce():
    rng = random.Random(109)
    for _ in range(12):
        n = rng.randint(3, 5)
        ls = rng.randint(2, n)
        us = rng.randint(2, n)
        f = SEBFactorization(
            n,
            generate_z1(n, ls, rng.randint(0, 10**6)).l,
            tuple(Fraction(rng.randint(1, 4)) for _ in range(n)),
            chain_layout(n).mirror(generate_z1(n, us, rng.randint(0, 10**6)).l),
        )
        a = compose(f)
        pred, _, _ = exponent_via_prediction(a)
        assert pred.kind == "exact"
        assert exponent_bruteforce(a).r == pred.value


def test_powers_stay_tp_beyond_exponent():
    a = M["exp4"]
    r = exponent_bruteforce(a).r
    for k in range(r, r + 3):
        assert is_tp(mat_pow(a, k)).ok


def test_early_scan_cross_family_recorded():
    # two members with swapped single- and double-chain sides, k below both
    # exponents; the scan may or may not find early products, but it must
    # be deterministic and only report totally positive ones
    f1 = SEBFactorization(
        4,
        generate_z1(4, 2, seed=31).l,
        (1, 1, 1, 1),
        chain_layout(4).mirror(generate_z1(4, 3, seed=32).l),
    )
    f2 = SEBFactorization(
        4,
        generate_z1(4, 3, seed=33).l,
        (1, 1, 1, 1),
        chain_layout(4).mirror(generate_z1(4, 2, seed=34).l),
    )
    hits = early_tp_product_scan([f1, f2], 2)
    assert hits == early_tp_product_scan([f1, f2], 2)
    from oscillax.matrix import mat_mul

    mats = [compose(f1), compose(f2)]
    for combo in hits:
        prod = mats[combo[0]]
        for idx in combo[1:]:
            prod = mat_mul(prod, mats[idx])
        assert is_tp(prod).ok


def test_gk_bound_on_seeded_instances():
    rng = random.Random(107)
    for _ in range(10):
        n = rng.randint(3, 5)
        f = random_oscillatory_factorization(n, rng, density=0.2)
        assert exponent_bruteforce(compose(f)).r <= n - 1


def test_concurrent_calls_are_consistent():
    # everything is immutable and pure; parallel calls must agree
    from concurrent.futures import ThreadPoolExecutor

    matrices = [M["exp4"], M["exp5"], M["net4"], M["basic4"]] * 3
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda m: exponent_bruteforce(m).r, matrices))
    assert results == [3, 3, 2, 2] * 3


def test_upper_bound_suite_holds():
    # seeded class-plus-extra instances: brute force never exceeds the bound
    from oscillax.verify import suite_bounds

    res = suite_bounds(cases=20, seed=211, nmax=6)
    assert res.ok, [c.detail for c in res.cases if not c.ok]


def _canonical_flats(n, rng):
    """One vector for every canonical lower support at dimension n: chain i
    keeps a run of t = 0 .. n-i+1 factors ending at its own factor L_i."""
    layout = chain_layout(n)
    for runs in itertools.product(*(range(n - i + 2) for i in range(2, n + 1))):
        flat = [Fraction(0)] * multiplier_count(n)
        for i, t in zip(range(2, n + 1), runs):
            stop = layout.chain(i).stop
            for p in range(stop - t, stop):
                flat[p] = Fraction(rng.randint(1, 9))
        yield tuple(flat)


def _prediction(l_tag, u_tag):
    try:
        return predict_exponent(l_tag, u_tag)
    except OscillaxError as exc:
        return type(exc), str(exc)


def _assert_recognition_matches_oracle(flats, n, refactorize=True):
    """Each tag equals the refactorizing oracle's, its JSON equals the
    oracle's rendering with one entry per partial-chain pattern, and the
    prediction (or its error) against itself and the previous vector
    equals the oracle's.  ``refactorize=False`` spares the oracle its
    refactorization of vectors that are canonical by construction."""
    prev = None
    canonical = set()
    for flat in flats:
        canonical.add(chain_layout(n).is_canonical(flat))
        fast = recognize_class(flat, n)
        slow = refactorizing_recognize_class(flat, n, refactorize)
        assert fast == slow, flat
        assert fast.to_json_dict() == per_psi_class_json(flat, n, refactorize), flat
        prev_fast, prev_slow = prev or (fast, slow)
        assert _prediction(fast, prev_fast) == _prediction(slow, prev_slow)
        assert _prediction(prev_fast, fast) == _prediction(prev_slow, slow)
        prev = fast, slow
    return canonical


def test_recognize_class_matches_oracle_on_every_canonical_support():
    rng = random.Random(137)
    for n in range(2, 7):
        flats = list(_canonical_flats(n, rng))
        assert len(flats) == math.factorial(n)
        assert _assert_recognition_matches_oracle(flats, n) == {True}


def test_recognize_class_matches_oracle_seeded():
    rng = random.Random(139)
    seen = set()
    for n in range(2, 10):
        layout = chain_layout(n)
        k = multiplier_count(n)
        flats = []
        for _ in range(3):
            flats.append(staircase_flat(n, rng, "l"))
            flats.append(layout.mirror(staircase_flat(n, rng, "u")))
            density = rng.choice((0.2, 0.5, 0.8))
            flats.append(
                tuple(
                    Fraction(rng.randint(1, 9)) if rng.random() < density else Fraction(0)
                    for _ in range(k)
                )
            )
            s = rng.randint(2, n)
            flats.append(generate_z1(n, s, seed=rng.randrange(10**6)).l)
            flats.append(generate_z2(n, s, "random", seed=rng.randrange(10**6)).l)
            f = random_oscillatory_factorization(n, rng, density=rng.choice((0.2, 0.5)))
            flats.append(layout.mirror(f.u))
            flats.append(layout.mirror(neville_factorize(compose(f)).u))
            flats.append(layout.mirror(with_transpose(generate_z2(n, s, "random", seed=s)).u))
        seen |= _assert_recognition_matches_oracle(flats, n)
    assert seen == {True, False}


def _class_shape_flats(n, rng):
    """Seeded lower flats at dimension n: canonical staircases, Z1/Z2
    shapes as generated, with one run extended (canonical, with extras)
    and with one random slot set (mostly not canonical), random flats of
    several densities, and zero-heavy flats that mostly match no class."""
    layout = chain_layout(n)
    k = multiplier_count(n)

    def one():
        return Fraction(rng.randint(1, 9))

    def random_flat(density):
        return tuple(one() if rng.random() < density else Fraction(0) for _ in range(k))

    for _ in range(4):
        yield staircase_flat(n, rng, "l")
        yield layout.mirror(staircase_flat(n, rng, "u"))
    for _ in range(6):
        s = rng.randint(2, n)
        for shape in (
            generate_z1(n, s, seed=rng.randrange(10**6)).l,
            generate_z2(n, s, "random", seed=rng.randrange(10**6)).l,
        ):
            yield shape
            extended = list(shape)
            i = rng.randint(2, n)
            chain = layout.chain(i)
            run = sum(x > 0 for x in shape[chain])
            if run < chain.stop - chain.start:
                extended[chain.stop - run - 1] = one()
            yield tuple(extended)
            scattered = list(shape)
            scattered[rng.randrange(k)] = one()
            yield tuple(scattered)
    for density in (0.1, 0.3, 0.6, 0.9):
        yield random_flat(density)
        yield random_flat(density)
    for _ in range(4):
        flat = [Fraction(0)] * k
        flat[rng.randrange(k)] = one()
        yield tuple(flat)
    f = random_oscillatory_factorization(n, rng, density=0.3)
    yield f.l
    yield layout.mirror(f.u)


def test_recognize_class_matches_width_oracle():
    # the width formulas state the class shapes independently of the slot
    # sets recognition reads, so they reach the n = 10..12 that the
    # enumerated catalog cannot
    rng = random.Random(281)
    seen = collections.Counter()
    for n in range(2, 13):
        layout = chain_layout(n)
        for _ in range(5):
            for flat in _class_shape_flats(n, rng):
                tag = recognize_class(flat, n)
                want = width_recognize_class(flat, n)
                assert tag == want, (n, flat)
                assert tag.to_json_dict() == want.to_json_dict(), (n, flat)
                seen["flats"] += 1
                seen["canonical" if layout.is_canonical(flat) else "refactorized"] += 1
                seen["exact" if tag.exact else "no exact"] += 1
                seen["with extras" if tag.with_extras else "no extras"] += 1
                seen[tag.family] += 1
    assert seen["flats"] >= 2000
    assert min(seen.values()) >= 100, seen


def test_class_tag_json_renders_each_distinct_factor_once(monkeypatch):
    report = exponent_via_theorem(compose(with_transpose(generate_z1(16, 16, seed=1))))
    tags = (report.l_class, report.u_class)
    # distinct by identity: equal-valued factors of different slots are
    # distinct objects, each rendered once
    per_tag = collections.Counter(
        {
            id(x)
            for tag in tags
            for x in itertools.chain(tag.extras, *(e for _, e in tag.with_extras))
        }
    )
    rendered = collections.Counter()
    plain = EBFactor.__str__

    def counting(x):
        rendered[id(x)] += 1
        return plain(x)

    monkeypatch.setattr(EBFactor, "__str__", counting)
    doc = report.to_json_dict()
    assert rendered == per_tag
    for key, tag in zip(("l_class", "u_class"), tags):
        entries = doc[key]["with_extras"]
        assert len(entries) == 2**15 - 2
        # one entry object per class support, repeated by reference
        assert len({id(e) for e in entries}) == len(tag.with_extras)


def test_class_tag_json_bounds_its_entries(monkeypatch):
    # a TP lower part lists 2^(n-1)-2 with_extras entries: n = 17 fits
    tags = {n: recognize_class(generate_z1(n, n, seed=1).l) for n in (17, 18)}
    assert len(tags[17].to_json_dict()["with_extras"]) == 2**16 - 2 <= TAG_ENTRY_LIMIT
    # the check comes before any factor is rendered
    monkeypatch.setattr(EBFactor, "__str__", None)
    message = "class tag at n=18 lists 131070 with_extras entries, past the limit of 65536"
    with pytest.raises(FeasibilityExceeded, match=message):
        tags[18].to_json_dict()
    # the exact list counts too: Z2(3) with a lone L2 has 2^(n-3) patterns
    monkeypatch.setattr(sys.modules["oscillax.exponent"], "TAG_ENTRY_LIMIT", 16)
    lone = recognize_class(generate_z2(8, 3, None, seed=1).l)
    assert [m.patterns(8) for m in lone.exact] == [32]
    with pytest.raises(FeasibilityExceeded, match="lists 32 exact entries"):
        lone.to_json_dict()


def _entry_runs(doc):
    """A tag's JSON with its ``exact`` and ``with_extras`` lists as runs of
    (entry, count): lossless, and cheap to compare when each list repeats
    its entries by reference."""
    return {
        **doc,
        **{
            key: [(e, len(list(g))) for e, g in itertools.groupby(doc[key])]
            for key in ("exact", "with_extras")
        },
    }


def _assert_runs_match_slot_oracle(flats, n, seen):
    """Each tag equals the slot-set oracle's, and so does its JSON unless
    a list would pass TAG_ENTRY_LIMIT, when rendering refuses; tallies
    what the tags hold into ``seen``."""
    for flat in flats:
        tag = recognize_class(flat, n)
        want = slot_recognize_class(flat, n)
        assert tag == want, (n, flat)
        entries = max(
            sum(m.patterns(n) for m in want.exact),
            sum(m.patterns(n) for m, _ in want.with_extras),
        )
        if entries <= TAG_ENTRY_LIMIT:
            got = _entry_runs(tag.to_json_dict())
            assert got == _entry_runs(value_keyed_tag_json(want)), (n, flat)
            seen["rendered"] += 1
        else:
            with pytest.raises(FeasibilityExceeded):
                tag.to_json_dict()
            seen["past the entry limit"] += 1
        seen["exact" if tag.exact else "no exact"] += 1
        seen["with extras" if tag.with_extras else "no extras"] += 1
        seen["unrecognized" if tag.family == "unrecognized" else "recognized"] += 1


def test_run_rule_matches_slot_oracle_on_every_canonical_support():
    # 2! + 3! + ... + 8! = 46,232 supports, of which n-1 + (n-1)(n-2)/2
    # per n, 84 in all, are class supports
    rng = random.Random(331)
    seen = collections.Counter()
    for n in range(2, 9):
        _assert_runs_match_slot_oracle(_canonical_flats(n, rng), n, seen)
    assert seen["rendered"] == 46_232
    assert seen["exact"] == 84
    assert min(seen["with extras"], seen["unrecognized"]) >= 10_000, seen


def _seeded_canonical_flat(n, rng):
    """A canonical lower vector whose chain runs are random, Z1- or
    Z2-shaped, each shape with up to two runs lengthened; multipliers in
    1..3, so equal-valued factors recur."""
    widths = [n - i + 1 for i in range(2, n + 1)]
    shape = rng.randrange(3)
    if shape == 0:
        runs = [rng.randint(0, w) for w in widths]
    elif shape == 1:
        s = rng.randint(2, n)
        runs = widths[: s - 1] + [0] * (n - s)
    else:
        s = rng.randint(3, n)
        runs = [1] * (s - 3) + [rng.randint(1, n - s + 1)] + widths[s - 2 :]
    for _ in range(rng.randint(0, 2)):
        c = rng.randrange(n - 1)
        runs[c] = rng.randint(runs[c], widths[c])
    flat = []
    for run, w in zip(runs, widths):
        flat += [Fraction(0)] * (w - run) + [Fraction(rng.randint(1, 3)) for _ in range(run)]
    return tuple(flat)


def test_run_rule_matches_slot_oracle_seeded():
    # 2,000 canonical vectors at n = 9..30, and 500 that are not canonical,
    # which recognize_class refactorizes first
    rng = random.Random(337)
    seen = collections.Counter()
    for t in range(2000):
        n = 9 + t % 22
        flat = _seeded_canonical_flat(n, rng)
        assert positives_end_each_chain(flat, n)
        _assert_runs_match_slot_oracle([flat], n, seen)
    assert min(seen.values()) >= 100, seen
    seen.clear()
    done = 0
    while done < 500:
        n = rng.randint(3, 10)
        flat = _seeded_canonical_flat(n, rng)
        scattered = list(flat)
        for _ in range(rng.randint(1, 3)):
            scattered[rng.randrange(len(flat))] = Fraction(rng.randint(1, 3))
        if positives_end_each_chain(scattered, n):
            continue
        _assert_runs_match_slot_oracle([tuple(scattered)], n, seen)
        done += 1
    assert min(seen.values()) >= 20, seen


def test_class_tag_json_keys_factors_by_identity():
    # equal-valued but distinct factors, and one factor repeated by
    # reference, render as a rendering keyed by value does
    equal_valued = 0
    for n in range(5, 11):
        for s in range(2, n + 1):
            for f in (generate_z1(n, s, seed=s), generate_z2(n, s, "random", seed=s)):
                for tag in recognize_sides(with_transpose(f)):
                    assert tag.to_json_dict() == value_keyed_tag_json(tag)
                    factors = list(
                        itertools.chain(tag.extras, *(e for _, e in tag.with_extras))
                    )
                    equal_valued += len({id(x) for x in factors}) > len(set(factors))
    assert equal_valued >= 20
    x = ebl(3, Fraction(2, 7))
    for extras in ((x, x, x), (ebl(3, 2), ebl(3, 2), ebl(4, 2))):
        tag = plus_extra_tag(4, ClassMatch("Z2", 3, ()), extras)
        assert tag.to_json_dict() == value_keyed_tag_json(tag)
        assert tag.to_json_dict()["with_extras"][0]["extras"] == [str(e) for e in extras]


def test_prediction_holds_no_catalog():
    # recognition keeps no per-dimension table: a cold prediction at
    # n = 60 stays small and leaves nothing behind
    a = compose(with_transpose(generate_z1(60, 3, 1), range(1, 61)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prediction, _, _ = exponent_via_prediction(a)
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prediction == Prediction("exact", 30)
    assert peak - before < 8 * 2**20
    assert after - before < 64 * 2**10


def _count_factorizations(monkeypatch):
    module = sys.modules["oscillax.exponent"]
    calls = []

    def counting(a):
        calls.append(a)
        return neville_factorize(a)

    monkeypatch.setattr(module, "neville_factorize", counting)
    return calls


def test_each_exponent_route_factorizes_once(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    rng = random.Random(149)
    inputs = [M["exp4"], M["exp5"], M["basic4"], M["bound3"]]
    for _ in range(6):
        n = rng.randint(3, 6)
        f = random_oscillatory_factorization(n, rng, density=rng.choice((0.2, 0.5)))
        inputs.append(compose(f))
    for a in inputs:
        for route in (exponent_via_theorem, exponent_bruteforce):
            calls.clear()
            route(a)
            assert len(calls) == 1, route
        calls.clear()
        try:
            exponent_via_prediction(a)
        except Unpredictable:
            pass
        assert len(calls) == 1


def test_recognize_sides_refactorizes_only_non_canonical_sides(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    n = 6
    l_flat = generate_z2(n, 3, {2, 4}, seed=151).l
    u_flat = chain_layout(n).mirror(generate_z1(n, 3, seed=152).l)
    f = SEBFactorization(n, l_flat, (1,) * n, u_flat)
    assert not f.layout.is_canonical(f.l)
    l_tag, u_tag = recognize_sides(f)
    assert len(calls) == 1
    assert (l_tag.family, l_tag.s) == ("Z2", 3)
    assert (u_tag.family, u_tag.s) == ("Z1", 3)
    calls.clear()
    recognize_sides(neville_factorize(compose(f)))
    assert calls == []


def _class_family(rng, n, count):
    """Members sharing one lower and one upper class shape."""
    ls, us = rng.randint(2, n), rng.randint(2, n)
    lz2, uz2 = rng.random() < 0.5, rng.random() < 0.5
    members = []
    for _ in range(count):
        side = [
            generate_z2(n, s, None, seed=rng.randrange(10**6))
            if z2
            else generate_z1(n, s, seed=rng.randrange(10**6))
            for s, z2 in ((ls, lz2), (us, uz2))
        ]
        d = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
        members.append(
            SEBFactorization(n, side[0].l, d, chain_layout(n).mirror(side[1].l))
        )
    return members


def _support_family(rng, n, m):
    """m members sharing the canonical supports of a seeded oscillatory
    factorization: each redraws the multipliers and the diagonal on either
    the raw slots of that factorization, which need not be canonical, or
    the slots of its Neville factorization."""
    raw = random_oscillatory_factorization(n, rng, rng.choice((0.1, 0.3, 0.55)))
    shapes = (raw, neville_factorize(compose(raw)))

    def redraw(flat):
        return tuple(Fraction(rng.randint(1, 9)) if x else x for x in flat)

    members = []
    for _ in range(m):
        shape = rng.choice(shapes)
        d = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
        members.append(SEBFactorization(n, redraw(shape.l), d, redraw(shape.u)))
    return members


def _is_canonical(f):
    return f.layout.is_canonical(f.l) and f.layout.is_canonical(f.layout.mirror(f.u))


def test_product_family_check_matches_scan_oracle():
    # families sharing canonical supports, many of them with a member that
    # is not canonical or whose sides match no pure class
    rng = random.Random(157)
    non_canonical = class_refused = 0
    outcomes = set()
    for _ in range(400):
        n, m = rng.randint(2, 5), rng.randint(1, 3)
        members = _support_family(rng, n, m)
        non_canonical += not all(map(_is_canonical, members))
        exact = {tuple(tag.exact for tag in recognize_sides(f)) for f in members}
        class_refused += len(exact) != 1 or not all(exact.pop())
        for k in range(1, 4):
            fast = product_family_check(members, k)
            assert fast == scan_product_family_check(members, k)
            outcomes.add(fast.all_tp)
    assert non_canonical >= 100 and class_refused >= 150
    assert outcomes == {True, False}


def test_early_tp_product_scan_matches_scan_oracle():
    # members with swapped Z1 sides (as early_a and early_b) often have
    # totally positive cross products below their exponents
    rng = random.Random(163)
    found = 0
    for _ in range(10):
        n = rng.randint(4, 5)
        a, b = rng.randint(2, n - 1), rng.randint(2, n - 1)
        members = [
            SEBFactorization(
                n,
                generate_z1(n, ls, seed=rng.randrange(10**6)).l,
                tuple(Fraction(rng.randint(1, 4)) for _ in range(n)),
                chain_layout(n).mirror(generate_z1(n, us, seed=rng.randrange(10**6)).l),
            )
            for ls, us in ((a, b), (b, a))
        ]
        if rng.random() < 0.5:
            members.append(random_oscillatory_factorization(n, rng, density=0.1))
        for k in (1, 2):
            hits = early_tp_product_scan(members, k)
            assert hits == scan_early_tp_product_scan(members, k)
            found += len(hits)
    assert found
    fa = neville_factorize(M["early_a"])
    fb = neville_factorize(M["early_b"])
    assert early_tp_product_scan([fa, fb], 2) == scan_early_tp_product_scan([fa, fb], 2)
    # arbitrary sparse members, non-canonical flats included
    rng = random.Random(167)
    for _ in range(60):
        n = rng.randint(2, 6)
        members = [
            random_oscillatory_factorization(n, rng, density=rng.choice((0.1, 0.3)))
            for _ in range(rng.randint(1, 3))
        ]
        for k in (1, 2):
            assert early_tp_product_scan(members, k) == scan_early_tp_product_scan(
                members, k
            )


def test_product_family_of_one_member_reaches_its_exponent():
    # past the old minor-scan cap of 8: the least k at which a family of
    # one member is all TP is the member's exponent
    rng = random.Random(173)
    for n in range(2, 21):
        randoms = [
            random_oscillatory_factorization(n, rng, density)
            for density in (0.1, 0.3, 1)
        ]
        for f in randoms + _class_family(rng, n, 1):
            r = exponent_via_theorem(compose(f)).r
            least = next(
                k for k in itertools.count(1) if product_family_check([f], k).all_tp
            )
            assert least == r


def test_product_checks_reject_members_of_different_sizes(monkeypatch):
    module = sys.modules["oscillax.exponent"]
    members = [with_transpose(generate_z1(n, n, seed=n)) for n in (4, 5)]
    # the side reader and the cell reader fail if they run before the size
    # check
    monkeypatch.setattr(module, "demazure", None)
    monkeypatch.setattr(module, "_side_indices", None)
    for check in (product_family_check, early_tp_product_scan):
        with pytest.raises(ShapeMismatch, match="different dimensions"):
            check(members, 1)


def test_product_checks_refactorize_no_member(monkeypatch):
    # members that are not canonical are read through their cells: neither
    # check composes or refactorizes one
    module = sys.modules["oscillax.exponent"]
    cases = []
    for n in range(6, 13):
        f = random_oscillatory_factorization(n, random.Random(n), 0.1)
        assert not _is_canonical(f)
        other = random_oscillatory_factorization(n, random.Random(-n), 0.1)
        members = [f, neville_factorize(compose(f)), other]
        r = exponent_via_theorem(compose(f)).r
        assert r >= 2
        cases.append((members, r, early_tp_product_scan(members, r - 1)))

    def refuse(*args):
        raise AssertionError("a product check refactorized a member")

    monkeypatch.setattr(module, "compose", refuse)
    monkeypatch.setattr(module, "neville_factorize", refuse)
    for members, r, early in cases:
        for k in (r - 1, r):
            got = product_family_check(members[:2], k)
            assert (got.all_tp, got.counterexample) == (
                (True, None) if k >= r else (False, (0,) * k)
            )
            assert early_tp_product_scan(members[:2], k) == ()
        assert early_tp_product_scan(members, r - 1) == early


def test_early_tp_product_scan_bounds_its_sweep(monkeypatch):
    built = []
    monkeypatch.setattr(
        sys.modules["oscillax.exponent"], "compose", lambda f: built.append(f)
    )
    f = neville_factorize(M["early_a"])
    for members, k in (([f] * 10, 8), ([f] * 2, 14), ([f] * 2, 10**9)):
        with pytest.raises(FeasibilityExceeded, match="exceed the limit 10000"):
            early_tp_product_scan(members, k)
    assert built == []
    monkeypatch.undo()
    # 10**4 products are within the limit; one member has one product
    assert early_tp_product_scan([f] * 10, 4) == ()
    assert early_tp_product_scan([f], 10**9) == ()


# -- copy counts on the canonical support ------------------------------------------


def _lower_network(flat, n):
    return build_network(
        SEBFactorization(n, flat, (1,) * n, (0,) * multiplier_count(n))
    )


def _copy_count_flats(n, rng):
    """Lower flat vectors with full, sparse, staircase, randomly zeroed and
    empty supports, each also as the mirrored upper side."""
    k = multiplier_count(n)
    layout = chain_layout(n)
    sparse = random_oscillatory_factorization(n, rng, density=0.1)
    zeroed = tuple(rng.randint(1, 9) if rng.random() < 0.3 else 0 for _ in range(k))
    flats = [
        tuple(rng.randint(1, 9) for _ in range(k)),
        sparse.l,
        layout.mirror(sparse.u),
        staircase_flat(n, rng, "l"),
        layout.mirror(staircase_flat(n, rng, "u")),
        zeroed,
        (0,) * k,
    ]
    return [tuple(Fraction(x) for x in flat) for flat in flats]


def _interleaved_network(n, rng):
    """A network of arbitrarily interleaved L, U and D layers, about a
    third of the L and U layers with zero multipliers."""
    layers = []
    for _ in range(rng.randint(0, 3 * multiplier_count(n))):
        kind = rng.choice("LLUD")
        if kind == "D":
            layers.append(ebd(rng.randint(1, 4) for _ in range(n)))
        else:
            q = 0 if rng.random() < 0.3 else rng.randint(1, 9)
            layers.append(EBFactor(kind, rng.randint(2, n), q))
    return PlanarNetwork(n, layers)


def _positive_descents(net):
    return [x.index for x in net.layers if x.kind == "L" and x.multiplier > 0]


def test_corner_copies_match_network_copy_counts():
    rng = random.Random(157)
    seen = set()
    for n in range(2, 9):
        for flat in _copy_count_flats(n, rng):
            net = _lower_network(flat, n)
            counts = copy_counts([x.index for x in net.layers if x.kind == "L"], n)
            for c in range(1, n):
                assert counts[c - 1] == min_copies_lower_corner(net, c)
                assert counts[c - 1] == min_copies_restart(net, c)
            seen.update(counts)
    assert {1, 2, 3, INFINITE_COPIES} <= seen
    # interleaved L/U/D networks with zero multipliers: the counts of the
    # positive L indices alone
    seen.clear()
    for n in range(2, 8):
        for _ in range(30):
            net = _interleaved_network(n, rng)
            counts = copy_counts(_positive_descents(net), n)
            for c in range(1, n):
                assert counts[c - 1] == min_copies_lower_corner(net, c)
                assert counts[c - 1] == min_copies_restart(net, c)
            seen.update(counts)
    assert {1, 2, 3, INFINITE_COPIES} <= seen


def _cells(f):
    return tuple(demazure(ix, f.n) for ix in _side_indices(f).values())


def test_cell_copy_counts_match_token_oracle():
    rng = random.Random(181)
    words = 0
    for n in range(2, 10):
        for _ in range(240):
            repeated = [rng.randint(2, n) for _ in range(rng.randint(0, n * n))]
            missing = rng.randint(2, n)
            short = [j for j in repeated if j != missing]
            interleaved = _positive_descents(_interleaved_network(n, rng))
            for word in (repeated, short, interleaved):
                assert copy_counts(word, n) == token_corner_copies(word, n)
                words += 1
            assert copy_counts(short, n) == (INFINITE_COPIES,) * (n - 1)
    assert words >= 5000
    # a factorization and its Neville refactorization lie in the same cells
    for n in range(2, 8):
        for _ in range(80):
            f = random_oscillatory_factorization(n, rng, rng.choice((0.1, 0.3, 0.6)))
            flats = [
                tuple(x if rng.random() < 0.7 else 0 for x in flat)
                for flat in (f.l, f.u)
            ]
            f = SEBFactorization(n, flats[0], f.d, flats[1])
            assert _cells(f) == _cells(neville_factorize(compose(f)))
    # the n! canonical width tuples w_2 .. w_n give the n! permutations
    for n in range(2, 8):
        layout = chain_layout(n)
        cells = set()
        for widths in itertools.product(*(range(n - i + 2) for i in range(2, n + 1))):
            positive = set()
            for i, w in zip(range(2, n + 1), widths):
                chain = layout.chain(i)
                positive.update(range(chain.stop - w, chain.stop))
            cells.add(demazure([j for p, j in product_order(n, "L") if p in positive], n))
        assert len(cells) == math.factorial(n)
        assert all(sorted(w) == list(range(1, n + 1)) for w in cells)


def test_corner_copies_match_matrix_power_exponents():
    rng = random.Random(163)
    for n in (2, 3, 5, 7, 9, 11, 14):
        for density in (0.1, 0.3, 1.0):
            f = random_oscillatory_factorization(n, rng, density=density)
            word = f.factor_sequence()
            lower = [x.index for x in word if x.kind == "L"]
            upper = [x.index for x in reversed(word) if x.kind == "U"]
            lower_r = power_loop_r_lower(compose(lower_part(f)))
            assert max(copy_counts(lower, n)) == lower_r
            upper_r = power_loop_r_upper(compose(upper_part(f)))
            assert max(copy_counts(upper, n)) == upper_r


def _report_or_error(route, a):
    try:
        return route(a).to_json_dict()
    except OscillaxError as exc:
        return type(exc).__name__, str(exc)


def test_theorem_route_matches_power_loop_oracle():
    rng = random.Random(167)
    inputs = list(M.values()) + _class_inputs(173, (2, 3, 4, 5, 6, 7))
    for _ in range(30):
        n = rng.randint(2, 9)
        density = rng.choice((0.1, 0.3, 0.55, 1.0))
        inputs.append(compose(random_oscillatory_factorization(n, rng, density)))
    inputs += [
        Matrix.identity(3),
        compose(generate_z1(4, 3, seed=5)),  # ITN only
        Matrix([[1, 2], [3, 1]]),
        Matrix([[2]]),
        Matrix([[1, 1, 1], [1, 2, 3]]),
    ]
    outcomes = set()
    for a in inputs:
        expected = _report_or_error(power_loop_exponent_via_theorem, a)
        assert _report_or_error(exponent_via_theorem, a) == expected
        outcomes.add(expected[0] if isinstance(expected, tuple) else expected["r"])
    assert {1, 2, 3, "NotOscillatory", "ShapeMismatch"} <= outcomes


def test_theorem_route_equals_prediction_on_large_class_inputs():
    rng = random.Random(179)
    for n in (12, 13, 14):
        for family in ("Z1", "Z2"):
            s = rng.randint(2, n)
            seed = rng.randrange(10**6)
            if family == "Z1":
                part = generate_z1(n, s, seed)
            else:
                part = generate_z2(n, s, "random", seed)
            other = generate_z2(n, rng.randint(2, n), "random", seed + 1)
            d = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
            upper = chain_layout(n).mirror(other.l)
            rep = exponent_via_theorem(compose(SEBFactorization(n, part.l, d, upper)))
            assert predict_exponent(rep.l_class, rep.u_class) == Prediction(
                "exact", rep.r
            )


def test_theorem_route_never_composes_and_scans_no_corners(monkeypatch):
    from oscillax import matrix, seb

    calls = {"compose": 0, "minor": 0, "_minor_int": 0, "_int_mul": 0, "r_lower": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = {
        "compose": seb.compose,
        "minor": matrix.minor,
        "_minor_int": matrix._minor_int,
        "_int_mul": matrix._int_mul,
    }
    for module in [m for k, m in sys.modules.items() if k.startswith("oscillax.")]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    exponent = sys.modules["oscillax.exponent"]
    monkeypatch.setattr(exponent, "r_lower", counting("r_lower", exponent.r_lower))

    rng = random.Random(181)
    inputs = [M["exp4"], M["exp5"]] + _class_inputs(191, (5, 7))
    for _ in range(4):
        f = random_oscillatory_factorization(rng.randint(4, 8), rng, density=0.3)
        inputs.append(compose(f))
    rs = set()
    for a in inputs:
        calls.update(dict.fromkeys(calls, 0))
        r = exponent_via_theorem(a).r
        rs.add(r)
        # neville_factorize checks its round trip on int columns, not compose
        assert calls["compose"] == 0
        assert calls["r_lower"] == 0
        # one corner of A^(r-1) on the power chain, which stops at A^r
        assert calls["minor"] + calls["_minor_int"] <= 1
        assert calls["_int_mul"] <= r - 1
    assert len(rs) > 1


def _brute_inputs(rng):
    """The corpus, class shapes, seeded oscillatory inputs at n = 2..7,
    and ITN-only, non-TN, non-square, 1x1 and over-cap inputs."""
    inputs = list(M.values()) + _class_inputs(193, (2, 3, 4, 5, 6))
    for n in range(2, 8):
        for density in (0.1, 0.3, 0.55, 1.0)[: 4 if n < 7 else 1]:
            inputs.append(compose(random_oscillatory_factorization(n, rng, density)))
    inputs += [
        Matrix.identity(3),
        compose(generate_z1(4, 3, seed=5)),  # ITN only
        compose(with_transpose(generate_z1(5, 3, seed=6))),
        Matrix([[1, 2], [3, 1]]),
        Matrix([[2]]),
        Matrix([[1, 1, 1], [1, 2, 3]]),
        Matrix.identity(9),
    ]
    return inputs


def test_bruteforce_matches_scan_oracle():
    rng = random.Random(197)
    outcomes = set()
    for a in _brute_inputs(rng):
        expected = _report_or_error(scan_exponent_bruteforce, a)
        assert _report_or_error(exponent_bruteforce, a) == expected
        outcomes.add(expected[0] if isinstance(expected, tuple) else expected["r"])
    assert {
        1, 2, 3, 4, "NotOscillatory", "ShapeMismatch", "FeasibilityExceeded"
    } <= outcomes


def _side_exponent_or_error(fn, a):
    try:
        return fn(a)
    except OscillaxError as exc:
        return type(exc).__name__, str(exc)


def test_r_lower_and_r_upper_match_power_loop(monkeypatch):
    # both read the copy counts of one Neville factorization: no power of A
    exponent = sys.modules["oscillax.exponent"]

    def powers(*args):
        raise AssertionError("the power chain started")

    monkeypatch.setattr(exponent, "_powers", powers)
    rng = random.Random(199)
    inputs = []
    for n in range(2, 10):
        for density in (0.1, 0.3, 1.0):
            f = random_oscillatory_factorization(n, rng, density)
            itn_only = generate_z1(n, rng.randint(2, n), rng.randrange(10**6))
            inputs += [compose(p) for p in (f, lower_part(f), upper_part(f), itn_only)]
    # the bare Z1/Z2 lower parts at the sizes of the formula suites
    for n in range(3, 8):
        for s in range(2, n + 1):
            inputs.append(compose(generate_z1(n, s, rng.randrange(10**6))))
            for psi in enumerate_psi_patterns(n, s) if n <= 6 else ():
                members = None if psi is None else psi | {s - 1}
                inputs.append(compose(generate_z2(n, s, members, rng.randrange(10**6))))
    # rational multipliers, and integer ones scaled by a rational
    inputs += [a for a, _ in _chain_inputs(rng)]
    seen = set()
    for a in inputs:
        for fn, oracle, side in (
            (r_lower, power_loop_r_lower, "lower-left"),
            (r_upper, power_loop_r_upper, "upper-right"),
        ):
            expected = _side_exponent_or_error(oracle, a)
            if isinstance(expected, tuple):
                # the transposing oracle names the lower-left side
                expected = (expected[0], expected[1].replace("lower-left", side))
            got = _side_exponent_or_error(fn, a)
            assert got == expected
            seen.add(got if isinstance(got, int) else got[0])
    assert {1, 2, 3, 4, 5, 6, "NotOscillatory"} <= seen
    # inputs that are not invertible TN: det -5, singular, a permutation,
    # and a negative multiplier; a 1x1 or non-square input has no
    # factorization
    for rows in (
        [[1, 2], [3, 1]],
        [[1, 1], [1, 1]],
        [[0, 1], [1, 0]],
        [[1, -1, 0], [1, 1, 1], [0, 1, 1]],
    ):
        for fn in (r_lower, r_upper):
            with pytest.raises(NotOscillatory, match="^not invertible TN: "):
                fn(Matrix(rows))
    for rows in ([[2]], [[1, 2, 3], [4, 5, 6]]):
        for fn in (r_lower, r_upper):
            with pytest.raises(ShapeMismatch, match="^factorization requires"):
                fn(Matrix(rows))


def test_bruteforce_runs_two_scans_and_no_side_loops(monkeypatch):
    from oscillax import matrix

    calls = {"minor_levels": 0, "mat_mul": 0, "_int_mul": 0, "r_lower": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = {
        "minor_levels": matrix.minor_levels,
        "mat_mul": matrix.mat_mul,
        "_int_mul": matrix._int_mul,  # every product, the power chain's included
    }
    for module in [m for k, m in sys.modules.items() if k.startswith("oscillax.")]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    exponent = sys.modules["oscillax.exponent"]
    monkeypatch.setattr(exponent, "r_lower", counting("r_lower", exponent.r_lower))

    rng = random.Random(211)
    inputs = [M["exp4"], M["exp5"]] + _class_inputs(223, (4, 6))
    for _ in range(4):
        f = random_oscillatory_factorization(rng.randint(3, 6), rng, density=0.3)
        inputs.append(compose(f))
    rs = set()
    for a in inputs:
        calls.update(dict.fromkeys(calls, 0))
        rs.add(exponent_bruteforce(a).r)
        assert calls["minor_levels"] <= 2  # the TN scan of A, the TP scan of A^r
        assert calls["mat_mul"] <= a.rows - 1
        assert calls["_int_mul"] <= a.rows - 2  # A^2 .. A^(n-1), one product each
        assert calls["r_lower"] == 0
    assert len(rs) > 1


def _chain_inputs(rng):
    """Seeded ITN inputs at n = 2..10: oscillatory, ITN-only (one factor
    index missing on the lower side) and bare triangular parts, with
    integer multipliers, rational multipliers, or integer ones scaled by
    a rational, so that most scaled blocks have a denominator above 1."""
    out = []
    for n in range(2, 11):
        indices = slot_factor_indices(n)
        for density in (0.1, 0.3, 0.6):
            for flavour in ("int", "rational", "scaled"):
                f = random_oscillatory_factorization(n, rng, density)
                if flavour == "rational":
                    f = SEBFactorization(
                        n,
                        *(tuple(x / rng.randint(1, 5) for x in v) for v in (f.l, f.d, f.u)),
                    )
                missing = rng.randint(2, n)
                itn_only = f._replace(
                    l=tuple(0 if j == missing else x for j, x in zip(indices, f.l))
                )
                for part in (f, lower_part(f), upper_part(f), itn_only):
                    a = compose(part)
                    if flavour == "scaled":
                        c = Fraction(rng.randint(1, 7), rng.randint(2, 7))
                        a = Matrix([[x * c for x in row] for row in a.entries])
                    out.append((a, part is f))
    return out


def _least_positive_powers(powers, limit):
    """Per side, the least k <= limit whose corner minor of the oracle
    power A^k is positive (infinite if none is), every power tested."""
    n = powers[0].rows
    return {
        side: [
            min(
                (
                    k
                    for k in range(1, limit + 1)
                    if minor(powers[k - 1], *corner_index_sets(n, side, size)) > 0
                ),
                default=float("inf"),
            )
            for size in range(1, n)
        ]
        for side in SIDES
    }


def test_power_chain_matches_fraction_powers():
    rng = random.Random(331)
    inputs = _chain_inputs(rng)
    assert len(inputs) >= 300
    scaled = witnesses = 0
    for a, oscillatory in inputs:
        n = a.rows
        powers = [a]
        for _ in range(n - 2):
            powers.append(fraction_mat_mul(powers[-1], a))
        scaled += _scaled(a.entries)[1] != 1
        for k in range(1, min(n, 3) + 1):
            if k > len(powers):
                powers.append(fraction_mat_mul(powers[-1], a))
            assert mat_pow(a, k) == powers[k - 1]
        counts, last = _corner_powers(a, SIDES)
        expected = _least_positive_powers(powers, n - 1)
        assert counts == expected
        stop = min(n - 1, max(max(c) for c in expected.values()))
        assert _unscaled(*last) == powers[stop - 1]
        assert last[1] == _scaled(powers[stop - 1].entries)[1]
        for fn, side in ((r_lower, "lower-left"), (r_upper, "upper-right")):
            r = max(expected[side])
            if r <= n - 1:
                assert fn(a) == r
            else:
                message = f"^{side} corner minors not all positive within {n - 1} powers$"
                with pytest.raises(NotOscillatory, match=message):
                    fn(a)
        if not oscillatory:
            continue
        rep = exponent_via_theorem(a)
        r = rep.r
        assert r == max(max(c) for c in _least_positive_powers(powers, n - 1).values())
        assert rep.witness_power == powers[r - 1]
        if r == 1:
            assert rep.zero_witness is None
            continue
        below = powers[r - 2]
        first_zero = next(
            (side, size)
            for size in range(1, n)
            for side in SIDES
            if minor(below, *corner_index_sets(n, side, size)) == 0
        )
        assert (rep.zero_witness.side, rep.zero_witness.size) == first_zero
        assert rep.zero_witness.power == r - 1
        witnesses += 1
        if n <= 5:
            assert exponent_bruteforce(a) == rep._replace(method="bruteforce")
    assert scaled >= 150 and witnesses >= 50


def test_routes_tag_without_the_public_path(monkeypatch):
    # the routes tag their own factorization without recognize_class
    exponent = sys.modules["oscillax.exponent"]

    def refuse(*args):
        raise AssertionError("recognize_class called")

    monkeypatch.setattr(exponent, "recognize_class", refuse)
    for a in (M["exp4"], M["exp5"]):
        exponent_via_theorem(a)
        exponent_bruteforce(a)
        exponent_via_prediction(a)

