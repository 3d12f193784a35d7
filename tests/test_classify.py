import itertools
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

import oscillax.cells as cells
import oscillax.seb as seb
from oracles import (
    classify_four_criteria,
    four_criteria_oscillatory,
    random_canonical_factorization,
    scan_tn,
    scan_tp,
    word_side_indices,
    zero_minors_by_tokens,
)
from oscillax.classify import (
    _first_minor,
    classify,
    corner_minors,
    is_oscillatory,
    is_tn,
    is_tp,
)
from oscillax.errors import FeasibilityExceeded, InvariantViolation, ParamOutOfRange
from oscillax.matrix import Matrix, det, mat_mul, mat_pow, minor, minor_levels
from oscillax.exponent import exponent_bruteforce, random_oscillatory_factorization
from oscillax.seb import (
    SEBFactorization,
    _word_product,
    chain_layout,
    compose,
    ebd,
    ebl,
    ebu,
    multiplier_count,
)
from oscillax.verify import (
    _OSCILLATION_CRITERIA,
    _corner_shortcut,
    _irreducible,
    corpus_matrices,
)

M = corpus_matrices()


def test_is_tn_corpus():
    assert is_tn(M["net4"]).ok
    verdict = is_tn(Matrix([[1, 2], [3, 1]]))
    assert not verdict.ok
    assert verdict.witness.rows == (1, 2)
    assert verdict.witness.cols == (1, 2)
    assert verdict.witness.value == -5


def test_is_tn_rectangular():
    assert is_tn(Matrix([[1, 2, 3], [1, 3, 6]])).ok
    verdict = is_tn(Matrix([[1, 2, 3], [2, 3, 4]]))
    assert not verdict.ok and verdict.witness.value == -1


def test_random_factorization_products_are_tn():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(2, 5)
        f = random_canonical_factorization(n, rng)
        assert is_tn(compose(f)).ok


def test_is_tp_corpus():
    verdict = is_tp(M["exp4"])
    assert not verdict.ok
    assert (verdict.witness.rows, verdict.witness.cols) == ((2, 3), (1, 2))
    assert verdict.witness.value == 0
    assert not is_tp(Matrix.identity(3)).ok
    assert is_tp(mat_pow(M["exp4"], 3)).ok


def test_corner_minors_identity():
    vals = dict(corner_minors(Matrix.identity(3)))
    from oscillax.classify import CornerSpec

    assert vals[CornerSpec("lower-left", 1)] == 0
    assert vals[CornerSpec("lower-left", 2)] == 0
    assert vals[CornerSpec("lower-left", 3)] == 1
    assert len(vals) == 5


def test_corner_minors_net4_zero_corner():
    vals = dict(corner_minors(M["net4"]))
    from oscillax.classify import CornerSpec

    assert vals[CornerSpec("lower-left", 1)] == 0  # entry (4, 1)


def test_corner_shortcut_matches_full_scan():
    assert not _corner_shortcut(M["net4"])
    assert not _corner_shortcut(Matrix.identity(4))
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = compose(random_canonical_factorization(n, rng))
        assert _corner_shortcut(a) == scan_tp(a).ok


def test_random_tp_matrix_has_positive_corners():
    rng = random.Random(41)
    from oscillax.seb import SEBFactorization, multiplier_count
    from fractions import Fraction

    n = 4
    k = multiplier_count(n)
    f = SEBFactorization(
        n,
        tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
        tuple(Fraction(rng.randint(1, 4)) for _ in range(n)),
        tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
    )
    a = compose(f)
    assert is_tp(a).ok
    assert all(v > 0 for _, v in corner_minors(a))


def test_is_irreducible():
    assert not _irreducible(Matrix.diagonal([1, 2]))
    tri = Matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert _irreducible(tri)
    assert _irreducible(M["net4"])


def test_is_oscillatory_methods():
    for holds in (is_oscillatory, *_OSCILLATION_CRITERIA.values()):
        assert holds(M["net4"])
        assert not holds(Matrix.identity(3))
        assert holds(M["basic4"])


def test_oscillatory_methods_agree_on_seeded_inputs():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(2, 5)
        if rng.random() < 0.5:
            a = compose(random_canonical_factorization(n, rng))
        else:
            a = Matrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        # the oracle asserts that the four criteria agree
        assert is_oscillatory(a) == four_criteria_oscillatory(a)


def test_feasibility_cap():
    # the cap guards the scans of inputs Neville elimination refuses
    big = Matrix([[int(i == j > 0) for j in range(9)] for i in range(9)])
    with pytest.raises(FeasibilityExceeded):
        is_tn(big)
    with pytest.raises(FeasibilityExceeded):
        is_tn(big, cap=8)
    assert is_tn(big, cap=9).ok


def test_principal_minors_of_itn_positive():
    import itertools

    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(2, 4)
        a = compose(random_canonical_factorization(n, rng))
        for p in range(1, n + 1):
            for alpha in itertools.combinations(range(1, n + 1), p):
                assert minor(a, alpha, alpha) > 0


def test_tn_closed_under_product():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(2, 4)
        a = compose(random_canonical_factorization(n, rng))
        b = compose(random_canonical_factorization(n, rng))
        assert is_tn(mat_mul(a, b)).ok


def test_tp_times_invertible_tn_is_tp():
    from fractions import Fraction
    from oscillax.seb import SEBFactorization, multiplier_count

    rng = random.Random(59)
    n = 3
    k = multiplier_count(n)
    tp = compose(
        SEBFactorization(
            n,
            tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
            tuple(Fraction(rng.randint(1, 4)) for _ in range(n)),
            tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
        )
    )
    assert is_tp(tp).ok
    for _ in range(10):
        b = compose(random_canonical_factorization(n, rng))
        assert is_tp(mat_mul(tp, b)).ok
        assert is_tp(mat_mul(b, tp)).ok


def test_scan_tables_match_minor_kernel():
    rng = random.Random(61)
    for rows_n, cols_n in ((4, 4), (3, 5), (5, 3)):
        a = Matrix(
            [[rng.randint(-2, 4) for _ in range(cols_n)] for _ in range(rows_n)]
        )
        count = 0
        for p, table in minor_levels(a):
            for (rows, cols), value in table.items():
                assert len(rows) == len(cols) == p
                assert value == minor(a, rows, cols)
                count += 1
        assert count == sum(
            math.comb(rows_n, p) * math.comb(cols_n, p)
            for p in range(1, min(rows_n, cols_n) + 1)
        )


def test_two_by_two_end_to_end():
    # the smallest admissible dimension: an oscillatory 2x2 is already TP
    a = Matrix([[1, 1], [1, 2]])
    rep = classify(a)
    assert rep.is_tn and rep.is_tp and rep.is_oscillatory
    assert rep.is_basic_oscillatory is True  # one multiplier per side
    from oscillax.exponent import exponent_bruteforce, exponent_via_theorem

    assert exponent_bruteforce(a).r == 1
    assert exponent_via_theorem(a).r == 1


def test_classification_report():
    rep = classify(M["net4"])
    assert rep.is_tn and rep.is_invertible and rep.is_oscillatory
    assert not rep.is_tp
    assert rep.is_basic_oscillatory is False
    assert rep.tp_witness is not None
    doc = rep.to_json_dict()
    assert doc["is_oscillatory"] is True
    rep2 = classify(M["basic4"])
    assert rep2.is_basic_oscillatory is True
    rep3 = classify(Matrix([[1, 2], [3, 1]]))
    assert not rep3.is_tn and rep3.is_basic_oscillatory is None


def _differential_inputs(n, rng):
    """Seeded inputs of every classification outcome at dimension n."""
    k = multiplier_count(n)

    def positive(count):
        return tuple(Fraction(rng.randint(1, 9)) for _ in range(count))

    def diag():
        return tuple(Fraction(rng.randint(1, 4)) for _ in range(n))

    chain2 = {chain_layout(n).lower_slot(2, j) for j in range(2, n + 1)}

    def basic_side():
        return tuple(
            Fraction(rng.randint(1, 9)) if p in chain2 else Fraction(0)
            for p in range(k)
        )

    osc = random_oscillatory_factorization(n, rng)
    j = rng.randint(2, n)
    missing = {chain_layout(n).lower_slot(i, j) for i in range(2, j + 1)}
    itn_l = tuple(Fraction(0) if p in missing else q for p, q in enumerate(osc.l))
    yield "tp", compose(SEBFactorization(n, positive(k), diag(), positive(k)))
    yield "oscillatory", compose(osc)
    yield "basic", compose(SEBFactorization(n, basic_side(), diag(), basic_side()))
    yield "itn-only", compose(SEBFactorization(n, itn_l, osc.d, osc.u))
    yield "staircase", compose(random_canonical_factorization(n, rng))
    rows = [list(r) for r in compose(random_oscillatory_factorization(n, rng)).entries]
    i = rng.randrange(n - 1)
    singular = rows[: i + 1] + [rows[i]] + rows[i + 2 :]
    yield "singular", Matrix(singular)
    r, c = rng.randrange(n), rng.randrange(n)
    for kind, base in (("negative-entry", rows), ("singular-negative", singular)):
        neg = [list(row) for row in base]
        neg[r][c] = -neg[r][c] - 1
        yield kind, Matrix(neg)
    swapped = [list(r) for r in rows]
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    yield "swapped-rows", Matrix(swapped)
    yield "random", Matrix([[rng.randint(0, 4) for _ in range(n)] for _ in range(n)])


def test_classify_matches_four_criteria_oracle():
    rng = random.Random(67)
    kinds = set()
    inputs = list(M.values())
    for n in range(2, 8):
        for _ in range(2):
            for kind, a in _differential_inputs(n, rng):
                kinds.add(kind)
                inputs.append(a)
    outcomes = set()
    for a in inputs:
        rep = classify(a)
        expected = classify_four_criteria(a)
        assert rep.to_json_dict() == expected.to_json_dict()
        # the oracle's verdict is that of the four criteria of verify
        assert rep.is_oscillatory == expected.is_oscillatory
        outcomes.add(
            (
                rep.is_tn,
                rep.is_tp,
                rep.is_oscillatory,
                rep.is_invertible,
                rep.is_basic_oscillatory,
            )
        )
    assert len(kinds) == 10
    # TP, oscillatory (basic or not), ITN-only, singular TN and non-TN all occur
    assert {
        (True, True, True, True, True),
        (True, False, True, True, True),
        (True, False, True, True, False),
        (True, False, False, True, False),
        (True, False, False, False, None),
        (False, False, False, True, None),
        (False, False, False, False, None),
    } <= outcomes


def _count_minor_passes(monkeypatch):
    # the production scan: one minor after another on the scaled block
    module = sys.modules["oscillax.classify"]
    calls = []
    original = module._minors

    def counting(m, d):
        calls.append(m)
        return original(m, d)

    monkeypatch.setattr(module, "_minors", counting)
    return calls


def _count_factorizations(monkeypatch):
    # classify reads its verdicts off the int run that neville_factorize wraps
    module = sys.modules["oscillax.seb"]
    calls = []
    original = module._neville_run

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(module, "_neville_run", counting)
    return calls


def test_classify_makes_one_minor_pass(monkeypatch):
    # at most one minor pass and exactly one Neville elimination per call;
    # a TP input is decided by its multipliers alone
    passes = _count_minor_passes(monkeypatch)
    eliminations = _count_factorizations(monkeypatch)
    rng = random.Random(71)
    for n in range(2, 7):
        for kind, a in _differential_inputs(n, rng):
            passes.clear()
            eliminations.clear()
            classify(a)
            assert len(passes) <= 1
            if kind == "tp":
                assert passes == []
            assert len(eliminations) == 1


def _dense_factorization(n, rng, density):
    """Composed factorization whose multipliers are positive with
    probability ``density`` each."""
    k = multiplier_count(n)

    def side():
        return tuple(
            Fraction(rng.randint(1, 9)) if rng.random() < density else Fraction(0)
            for _ in range(k)
        )

    d = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
    return compose(SEBFactorization(n, side(), d, side()))


def _fast_path_inputs(n, rng):
    """Random integer matrices and composed factorizations, each also with
    an adjacent row duplicated and with one entry lowered."""
    bases = [
        Matrix([[rng.randint(-2, 4) for _ in range(n)] for _ in range(n)]),
        Matrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]),
    ]
    bases += [_dense_factorization(n, rng, d) for d in (0.2, 0.5, 0.8, 1.0)]
    for a in bases:
        yield a
        rows = [list(r) for r in a.entries]
        i = rng.randrange(n - 1)
        yield Matrix(rows[: i + 1] + [rows[i]] + rows[i + 2 :])
        r, c = rng.randrange(n), rng.randrange(n)
        rows[r][c] -= rng.randint(1, 3)
        yield Matrix(rows)


def test_classify_fast_path_matches_four_criteria():
    rng = random.Random(73)
    classes = set()
    for n in range(2, 7):
        for _ in range(3):
            for a in _fast_path_inputs(n, rng):
                rep = classify(a)
                assert rep.to_json_dict() == classify_four_criteria(a).to_json_dict()
                classes.add((rep.is_tn, rep.is_tp, rep.is_invertible))
    assert {
        (True, True, True),  # TP
        (True, False, True),  # invertible TN, not TP
        (True, False, False),  # singular TN
        (False, False, True),  # invertible, not TN
        (False, False, False),  # singular, not TN
    } <= classes


def test_classify_decides_tp_past_the_cap(monkeypatch):
    passes = _count_minor_passes(monkeypatch)
    n = 12
    a = _dense_factorization(n, random.Random(79), 1.0)
    rep = classify(a)
    assert rep.is_tp and rep.is_oscillatory and rep.tp_witness is None
    assert passes == []


def test_classify_keeps_feasibility_cap():
    # the cap guards the scan of inputs Neville elimination refuses:
    # singular TN and non-TN ones
    singular = Matrix([[int(i == j > 0) for j in range(9)] for i in range(9)])
    with pytest.raises(FeasibilityExceeded):
        classify(singular)
    assert not classify(singular, cap=9).is_invertible
    for a in ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], [[1, 2, 0], [3, 1, 1], [0, 1, 2]]):
        with pytest.raises(FeasibilityExceeded):
            classify(Matrix(a), cap=2)


@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "8", Fraction(8)])
def test_scan_cap_is_an_int_that_is_not_a_bool(bad):
    # refused where the scan would start; an int cap keeps its meaning,
    # and one below the dimension, 0 and -1 too, exceeds it
    neg = Matrix([[1, 2], [3, 1]])
    takers = (classify, is_tn, is_tp, exponent_bruteforce)
    message = f"cap must be an int, got {re.escape(repr(bad))}$"
    for take in takers:
        with pytest.raises(ParamOutOfRange, match=message):
            take(neg, bad)
        for cap in (1, 0, -1):
            with pytest.raises(FeasibilityExceeded):
                take(neg, cap)
    assert not classify(neg, 2).is_tn


def test_predicates_build_no_fraction_in_seb_on_itn_inputs(monkeypatch):
    # an invertible TN input is decided on the ints of one Neville run:
    # TP, non-TP and rational inputs alike
    rng = random.Random(83)
    inputs = [M["elim3"], M["exp5"], M["basic4"], Matrix.identity(4)]
    for n in range(2, 9):
        inputs.append(_dense_factorization(n, rng, 1.0))
        inputs.append(_dense_factorization(n, rng, 0.6))
        canonical = compose(random_canonical_factorization(n, rng))
        # positive row scalings keep an input invertible TN
        scaled = [[x / (i + 2) for x in row] for i, row in enumerate(canonical.entries)]
        inputs += [canonical, Matrix(scaled)]
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(seb, "Fraction", counting)
    reports = []
    for a in inputs:
        rep = classify(a)
        assert (rep.is_tn, rep.is_invertible) == (True, True)
        assert is_tn(a) == (True, None)
        assert is_tp(a) == (rep.is_tp, rep.tp_witness)
        assert is_oscillatory(a) is rep.is_oscillatory
        reports.append((rep.is_tp, rep.is_oscillatory))
    assert built == []
    assert {(True, True), (False, True), (False, False)} <= set(reports)


def _one_zero_multiplier(n, i, j):
    """All-ones factorization with lower factor L_j of chain i set to zero."""
    layout, k = chain_layout(n), multiplier_count(n)
    l = [Fraction(1)] * k
    l[layout.lower_slot(i, j)] = Fraction(0)
    return compose(SEBFactorization(n, l, (1,) * n, (1,) * k))


def test_classify_reads_invertible_tn_witnesses_past_the_cap(monkeypatch):
    # ITN inputs past the scan cap: the witness comes from the entries or
    # from the token greedy, never from a minor scan, and is a zero minor
    passes = _count_minor_passes(monkeypatch)
    cases = [
        (Matrix.identity(9), 1),
        (Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]]), 1),
        (_one_zero_multiplier(100, 50, 50), 49),
    ]
    for a, order in cases:
        rep = classify(a, cap=2)
        w = rep.tp_witness
        assert rep.is_tn and rep.is_invertible and not rep.is_tp
        assert len(w.rows) == order and w.value == 0 == minor(a, w.rows, w.cols)
        # the predicates read the same factorization
        assert is_tn(a, cap=2) == (True, None) and is_tp(a, cap=2) == (False, w)
        assert is_oscillatory(a) == rep.is_oscillatory
    assert classify(Matrix.identity(9)).tp_witness == ((1,), (2,), 0)
    assert passes == []


def _interleaved_word(n, rng):
    """A zero-heavy word of L, U and D factors in any order, with repeated
    indices; hardly ever canonical."""
    mults = (0, 0, 1, 2, Fraction(1, 2), 3)
    word = []
    for _ in range(rng.randint(0, 4 * n)):
        roll = rng.random()
        if roll < 0.1:
            word.append(ebd(rng.choice((1, 2, Fraction(1, 3))) for _ in range(n)))
        else:
            make = ebl if roll < 0.55 else ebu
            word.append(make(rng.randint(2, n), rng.choice(mults)))
    return word


def test_token_sets_read_every_minor_sign_of_a_word_product():
    rng = random.Random(3001)
    interleaved = zeros = positives = 0
    for t in range(540):
        n = 2 + t % 5
        word = _interleaved_word(n, rng)
        a = _word_product(word, n)
        want = []
        for p in range(1, n + 1):
            subsets = list(itertools.combinations(range(1, n + 1), p))
            for rset in subsets:
                for cset in subsets:
                    value = minor(a, rset, cset)
                    assert value >= 0
                    if value:
                        positives += 1
                    else:
                        want.append((rset, cset))
        # the zero minors, in scan order: orders, then rows, then columns
        assert list(zero_minors_by_tokens(word, n, range(1, n + 1))) == want
        zeros += len(want)
        kinds = "".join(fac.kind for fac in word if fac.kind == "D" or fac.multiplier)
        interleaved += "UL" in kinds or "DL" in kinds or "UD" in kinds
    assert interleaved >= 350 and zeros >= 50_000 and positives >= 20_000


def _zero_multipliers(n, rng):
    """Positive multipliers with one to three of them, on either side, set
    to zero."""
    k = multiplier_count(n)
    l = [Fraction(rng.randint(1, 9)) for _ in range(k)]
    u = [Fraction(rng.randint(1, 9)) for _ in range(k)]
    for _ in range(rng.randint(1, 3)):
        rng.choice((l, u))[rng.randrange(k)] = Fraction(0)
    d = [Fraction(rng.randint(1, 4)) for _ in range(n)]
    return SEBFactorization(n, l, d, u)


def _itn_not_tp(n, rng):
    """An invertible TN matrix that is not TP."""
    return compose(_zero_multipliers(n, rng))


def test_gale_greedy_finds_the_first_zero_minor_of_the_all_pairs_search():
    rng = random.Random(3003)
    orders = Counter()
    for t in range(2250):
        n = 2 + t % 9
        kind = t // 9 % 3
        if kind == 0:  # interleaved L, D and U factors
            canonical = _zero_multipliers(n, rng).factor_sequence()
            count = sum(x.kind == "L" for x in canonical)
            slots = set(rng.sample(range(len(canonical)), count))
            lower, rest = iter(canonical[:count]), iter(canonical[count:])
            word = [next(lower if i in slots else rest) for i in range(len(canonical))]
        elif kind == 1:  # zero-heavy
            word = _interleaved_word(n, rng)
        else:  # canonical with 1-3 zero multipliers
            word = _zero_multipliers(n, rng).factor_sequence()
        got = cells.first_zero(*word_side_indices(word).values(), n)
        assert got == next(zero_minors_by_tokens(word, n, range(2, n)), None)
        orders[kind, got and len(got[0])] += 1
    # every kind has words with no zero minor; the witnesses take orders 2..9
    assert all(orders[kind, None] for kind in range(3))
    assert {p for _, p in orders} == {None, *range(2, 10)}


def test_token_witness_matches_the_laplace_scan(monkeypatch):
    passes = _count_minor_passes(monkeypatch)
    rng = random.Random(3002)
    orders = Counter()
    for t in range(330):
        n = 2 + t % 7
        a = _itn_not_tp(n, rng)
        passes.clear()
        got = classify(a).tp_witness
        assert passes == []
        assert got == _first_minor(a, None, lambda value: value <= 0).witness
        orders[len(got.rows)] += 1
    assert orders[1] and sum(orders.values()) - orders[1] >= 60 and max(orders) >= 5


def test_token_witness_is_confirmed_by_a_minor(monkeypatch):
    a = M["exp4"]  # no zero entry; first zero minor (2, 3) x (1, 2)
    assert classify(a).tp_witness == ((2, 3), (1, 2), 0)
    monkeypatch.setattr(cells, "first_zero", lambda *args: ((1, 2), (1, 2)))
    with pytest.raises(InvariantViolation, match="read minor"):
        classify(a)
    monkeypatch.setattr(cells, "first_zero", lambda *args: None)
    with pytest.raises(InvariantViolation, match="no zero minor"):
        classify(a)


# Inputs per dimension of the differential test of the predicates: 2,026
# in all.  The definition, irreducibility and Gantmacher-Krein references
# each scan every minor of a TN input, so the large dimensions get few.
PREDICATE_INPUTS = {2: 620, 3: 620, 4: 435, 5: 232, 6: 87, 7: 20, 8: 12}


def _predicate_inputs(n, rng):
    """ITN (TP, oscillatory, ITN-only), singular TN and non-TN inputs, 29
    a round, round after round."""
    while True:
        for _, a in _differential_inputs(n, rng):
            yield a
        yield from _fast_path_inputs(n, rng)
        yield _itn_not_tp(n, rng)


@pytest.mark.parametrize("n", sorted(PREDICATE_INPUTS))
def test_predicates_match_the_scan_and_the_four_criteria(monkeypatch, n):
    passes = _count_minor_passes(monkeypatch)
    rng = random.Random(3100 + n)
    outcomes = Counter()
    inputs = itertools.islice(_predicate_inputs(n, rng), PREDICATE_INPUTS[n])
    for t, a in enumerate(inputs):
        passes.clear()
        tn, tp, oscillatory = is_tn(a), is_tp(a), is_oscillatory(a)
        reads = len(passes)
        itn = tn.ok and det(a) != 0
        assert tn == scan_tn(a)
        assert tp == scan_tp(a)
        assert oscillatory == four_criteria_oscillatory(a)
        # ITN inputs are decided by Neville elimination alone
        assert reads == 0 if itn else reads >= 1
        outcomes[tn.ok, itn, tp.ok, oscillatory] += 1
        if n > 2:  # drop the last row or the first column
            rect = Matrix(a.entries[:-1] if t % 2 else [r[1:] for r in a.entries])
            verdict = is_tn(rect)
            assert verdict == scan_tn(rect)
            outcomes["rectangular", verdict.ok] += 1
    assert {
        (True, True, True, True),  # TP
        (True, True, False, False),  # ITN only
        (True, False, False, False),  # singular TN
        (False, False, False, False),  # not TN
    } <= set(outcomes)
    if n > 2:  # a 2x2 oscillatory matrix is TP
        assert outcomes[True, True, False, True]
        assert outcomes["rectangular", True] and outcomes["rectangular", False]


# Inputs per dimension of the differential test of the Bareiss scan against
# the Laplace reference: 20,000 in all.  A singular TN input is scanned in
# full by both kernels, so the large dimensions get few.
SCAN_INPUTS = {2: 6000, 3: 6500, 4: 4500, 5: 2000, 6: 700, 7: 300}


def _scan_inputs(n, rng):
    """Bidiagonal products with zero multipliers and a duplicated row, the
    same perturbed, random small integer matrices with negative entries,
    and rational matrices of least common denominator > 1, round after
    round."""
    while True:
        rows = [list(r) for r in compose(_zero_multipliers(n, rng)).entries]
        i = rng.randrange(n)
        j = i + 1 if i < n - 1 and rng.random() < 0.7 else rng.randrange(n)
        rows[j] = list(rows[i])
        yield rows
        perturbed = [list(r) for r in rows]
        perturbed[rng.randrange(n)][rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
        yield perturbed
        yield [[rng.randint(-1, 6) for _ in range(n)] for _ in range(n)]
        # positive row and column scalings keep every minor's sign
        base = rng.choice((rows, perturbed))
        col = [Fraction(rng.randint(1, 3), rng.randint(1, 5)) for _ in range(n)]
        yield [[x * c / (r + 2) for x, c in zip(row, col)] for r, row in enumerate(base)]


def _refusal(call):
    with pytest.raises(FeasibilityExceeded) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize("n", sorted(SCAN_INPUTS))
def test_bareiss_scan_matches_the_laplace_reference(n):
    # classify, is_tn and is_tp read the minors of the scaled int block,
    # orders >= 3 by one Bareiss minor each; _first_minor reads the
    # Fraction Laplace tables
    rng = random.Random(4200 + n)
    outcomes, rectangular = Counter(), Counter()
    rescaled = 0
    for t, rows in enumerate(itertools.islice(_scan_inputs(n, rng), SCAN_INPUTS[n])):
        a = Matrix(rows)
        rep = classify(a)
        tn, tp = scan_tn(a), scan_tp(a)
        invertible = det(a) != 0
        assert (rep.tn_witness, rep.tp_witness) == (tn.witness, tp.witness)
        assert rep.is_invertible is invertible
        assert is_tn(a) == tn and is_tp(a) == tp
        scanned = not (tn.ok and invertible)
        if scanned:  # Neville refuses it: the cap refuses first, as before
            want = _refusal(lambda: scan_tn(a, n - 1))
            for take in (classify, is_tn, is_tp):
                assert _refusal(lambda: take(a, n - 1)) == want
        if n > 2:  # drop the last row or the first column
            rect = Matrix(a.entries[:-1] if t % 2 else [r[1:] for r in a.entries])
            verdict = is_tn(rect)
            assert verdict == scan_tn(rect)
            rectangular[verdict.ok] += 1
        w = tn.witness or tp.witness
        order = len(w.rows) if w else 0
        outcomes[scanned, tn.ok, invertible, order] += 1
        # a nonzero witness of order >= 2 divided back by d^p, d > 1
        lcd = math.lcm(*(x.denominator for row in a.entries for x in row))
        rescaled += lcd > 1 and order > 1 and w.value != 0
    assert outcomes[True, True, False, 1]  # singular TN, a zero entry
    assert outcomes[True, False, True, 1]  # invertible, a negative entry
    assert outcomes[True, False, False, 1]  # singular, a negative entry
    assert set(range(1, n)) <= {key[3] for key in outcomes if key[0]}
    assert rescaled
    if n > 2:
        assert rectangular[True] and rectangular[False]


# Square inputs per dimension of the order-1/2 differential test: 6,000 in
# all.  A repeated-row input is scanned in full by both kernels, so the
# large dimensions get few.
CLOSED_FORM_INPUTS = {2: 1900, 3: 1600, 4: 1200, 5: 800, 6: 360, 7: 100, 8: 40}


def _tp_product(n, rng):
    """A bidiagonal product with every multiplier positive: TP."""
    k = multiplier_count(n)

    def side():
        return [Fraction(rng.randint(1, 9)) for _ in range(k)]

    d = [Fraction(rng.randint(1, 4)) for _ in range(n)]
    return compose(SEBFactorization(n, side(), d, side()))


def _bidiagonal_product(n, rng):
    """A TP bidiagonal product, or one with zero multipliers (TN)."""
    if rng.random() < 0.3:
        return compose(_zero_multipliers(n, rng))
    return _tp_product(n, rng)


def _closed_form_inputs(n, rng):
    """Bidiagonal products with two adjacent rows swapped, their
    transposes, the products with one row repeated (singular TN), and a
    positive row and column scaling of one of the three with least common
    denominator > 1, round after round."""
    while True:
        base = [list(r) for r in _bidiagonal_product(n, rng).entries]
        i = rng.randrange(n - 1)
        swapped = [list(r) for r in base]
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        yield swapped
        transposed = [list(c) for c in zip(*swapped)]
        yield transposed
        repeated = [list(r) for r in base]
        i, j = rng.sample(range(n), 2)
        repeated[j] = list(repeated[i])
        yield repeated
        pick = rng.choice((swapped, transposed, repeated))
        row = [Fraction(rng.randint(1, 3), rng.randint(2, 5)) for _ in range(n)]
        col = [Fraction(rng.randint(1, 3), rng.randint(1, 5)) for _ in range(n)]
        yield [[x * r * c for x, c in zip(xs, col)] for r, xs in zip(row, pick)]


def test_closed_form_minors_match_the_laplace_reference():
    # the production scan reads order-1 minors as entries and order-2
    # minors as cross products of two scaled rows; _first_minor reads the
    # Fraction Laplace tables
    rng = random.Random(4300)
    tn_order2 = tp_zero_order2 = deep = rescaled = 0
    cuts = Counter()
    for n, count in CLOSED_FORM_INPUTS.items():
        for t, rows in enumerate(itertools.islice(_closed_form_inputs(n, rng), count)):
            a = Matrix(rows)
            rep = classify(a)
            tn = _first_minor(a, None, lambda value: value < 0)
            tp = _first_minor(a, None, lambda value: value <= 0)
            assert (rep.tn_witness, rep.tp_witness) == (tn.witness, tp.witness)
            assert rep.is_invertible is (det(a) != 0)
            assert is_tn(a) == tn and is_tp(a) == tp
            if n > 2:  # drop the last row or the first column, by turns per round
                shape = "wide" if (t + t // 4) % 2 else "tall"
                cut = Matrix(a.entries[:-1] if shape == "wide" else [r[1:] for r in a.entries])
                verdict = is_tn(cut)
                assert verdict == _first_minor(cut, None, lambda value: value < 0)
                cuts[shape, verdict.ok] += 1
            if tn.witness and len(tn.witness.rows) == 2:
                tn_order2 += 1
                deep += tn.witness.rows[0] > 1
                lcd = math.lcm(*(x.denominator for r in rows for x in r))
                rescaled += lcd > 1
            w = tp.witness
            tp_zero_order2 += bool(w) and len(w.rows) == 2 and w.value == 0
    assert tn_order2 >= 4000 and deep >= 1200 and rescaled >= 900
    assert tp_zero_order2 >= 1200
    assert all(cuts[shape, ok] for shape in ("wide", "tall") for ok in (True, False))


def test_classify_builds_one_witness_per_verdict(monkeypatch):
    # a repeated row makes every minor whose row set holds both copies
    # zero; only the first zero minor becomes a witness
    module = sys.modules["oscillax.classify"]
    built = []
    original = module.MinorWitness

    class Counting(original):
        def __new__(cls, *args):
            built.append(args)
            return original(*args)

    monkeypatch.setattr(module, "MinorWitness", Counting)
    rows = [list(r) for r in _tp_product(8, random.Random(8)).entries]
    rows[4] = list(rows[3])
    payload = classify(Matrix(rows)).to_json_dict()
    assert len(built) <= 2
    assert payload == {
        "n": 8,
        "is_tn": True,
        "is_invertible": False,
        "is_tp": False,
        "is_oscillatory": False,
        "is_basic_oscillatory": None,
        "witnesses": {"tn": None, "tp": {"rows": [4, 5], "cols": [1, 2], "value": "0"}},
    }
