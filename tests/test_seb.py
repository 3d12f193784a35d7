import gc
import itertools
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscillax.seb as seb
from oracles import (
    commutation_shuffle,
    dense_word_columns,
    dense_word_product,
    flat_layout_classification,
    flat_slot,
    fraction_neville_factorize,
    fraction_word_product,
    mirror_flat,
    product_order,
    random_canonical_factorization,
    refactorizing_normalize_commutation,
    scan_tp,
    search_assign_word_to_slots,
    slot_chain_factor,
    staircase_flat,
    upper_flat_slot,
    word_side_indices,
    x_offset,
)
from oscillax.errors import (
    FeasibilityExceeded,
    IndexOutOfRange,
    InvariantViolation,
    NotITN,
    NotNormalizable,
    ParamOutOfRange,
    ShapeMismatch,
)
from oscillax.exponent import random_oscillatory_factorization
from oscillax.matrix import Matrix, mat_mul
from oscillax.seb import (
    ChainLayout,
    EBFactor,
    FactorizationClass,
    SEBFactorization,
    _side_indices,
    chain_layout,
    classify_factorization,
    compose,
    eb_matrix,
    ebd,
    ebl,
    ebu,
    factorization_from_text,
    factorization_to_json_dict,
    factorization_from_json_dict,
    factorization_to_text,
    identity_factorization,
    is_basic_factorization,
    multiplier_count,
    neville_factorize,
    normalize_commutation,
    parse_factor_text,
    w_q_form,
)
from oscillax.verify import _OSCILLATION_CRITERIA, corpus_matrices

M = corpus_matrices()


def test_eb_matrix_known_value():
    assert eb_matrix("L", 2, 4, 3) == Matrix([[1, 0, 0], [4, 1, 0], [0, 0, 1]])


def test_eb_matrix_zero_is_identity():
    assert eb_matrix("L", 3, 0, 4) == Matrix.identity(4)
    assert eb_matrix("U", 2, 0, 4) == Matrix.identity(4)


def test_eb_matrix_transpose_relation():
    assert eb_matrix("U", 3, 2, 3) == eb_matrix("L", 3, 2, 3).transpose()


def test_eb_matrix_index_range():
    with pytest.raises(IndexOutOfRange):
        eb_matrix("L", 1, 1, 3)
    with pytest.raises(IndexOutOfRange):
        eb_matrix("U", 4, 1, 3)


def test_eb_inverse_relation():
    for i in (2, 3, 4):
        prod = mat_mul(eb_matrix("L", i, 5, 4), eb_matrix("L", i, -5, 4))
        assert prod == Matrix.identity(4)


def test_neville_elim3():
    f = neville_factorize(M["elim3"])
    assert f.l == (1, 2, 3)
    assert f.d == (1, 2, 3)
    assert f.u == (1, 1, 2)
    assert compose(f) == M["elim3"]


def test_neville_identity():
    f = neville_factorize(Matrix.identity(4))
    assert all(x == 0 for x in f.l) and all(x == 0 for x in f.u)
    assert f.d == (1, 1, 1, 1)


def test_neville_basic4():
    f = neville_factorize(M["basic4"])
    assert (
        factorization_to_text(f) == "L3(1) L2(2) L4(3) D(1,1,1,1) U3(4) U4(5) U2(6)"
    )


def test_neville_rejects_non_itn():
    with pytest.raises(NotITN):
        neville_factorize(Matrix([[1, 2], [3, 1]]))  # negative determinant
    with pytest.raises(NotITN):
        neville_factorize(Matrix([[0, 1], [1, 0]]))  # zero pivot, nonzero below
    with pytest.raises(NotITN):
        neville_factorize(Matrix([[1, 1], [1, 1]]))  # singular
    with pytest.raises(ShapeMismatch):
        neville_factorize(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_compose_diagonal_only():
    f = SEBFactorization(3, (0, 0, 0), (2, 3, 4), (0, 0, 0))
    assert compose(f) == Matrix.diagonal([2, 3, 4])


def test_roundtrip_on_canonical_random():
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(2, 5)
        f = random_canonical_factorization(n, rng)
        assert neville_factorize(compose(f)) == f


def test_all_positive_roundtrip_n5():
    rng = random.Random(71)
    n = 5
    k = multiplier_count(n)
    f = SEBFactorization(
        n,
        tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
        tuple(Fraction(rng.randint(1, 4)) for _ in range(n)),
        tuple(Fraction(rng.randint(1, 9)) for _ in range(k)),
    )
    assert neville_factorize(compose(f)) == f


def test_noncanonical_zero_pattern_refactorizes_differently():
    # uniqueness holds in elimination-canonical coordinates only: a flat
    # vector whose chain supports are not anchored runs composes to the
    # same matrix as its canonical form but is not reproduced verbatim
    f_odd = SEBFactorization(4, (0,) * 6, (1,) * 4, (5, 0, 6, 0, 4, 0))
    a = compose(f_odd)
    g = neville_factorize(a)
    assert compose(g) == a
    assert g != f_odd


def test_is_canonical_matches_refactorization():
    # a lower vector is canonical iff refactorizing its product returns it
    rng = random.Random(73)
    seen = set()
    for n in range(2, 9):
        layout = chain_layout(n)
        k = multiplier_count(n)
        for _ in range(40):
            if rng.random() < 0.25:
                flat = staircase_flat(n, rng, "l")
            else:
                density = rng.choice((0.15, 0.5, 0.85))
                flat = tuple(
                    Fraction(rng.randint(1, 9)) if rng.random() < density else Fraction(0)
                    for _ in range(k)
                )
            part = SEBFactorization(n, flat, (1,) * n, (0,) * k)
            refactorized = neville_factorize(compose(part)).l == part.l
            assert layout.is_canonical(part.l) == refactorized, flat
            seen.add(refactorized)
    assert seen == {True, False}
    # the own factor missing under a present higher one; a bare own factor
    assert not chain_layout(3).is_canonical((1, 0, 0))
    assert chain_layout(3).is_canonical((0, 1, 0))


def test_chain_offsets_n4():
    assert chain_layout(4).chain(2).start + 1 == 1
    assert chain_layout(4).chain(3).start + 1 == 4
    assert chain_layout(4).chain(4).start + 1 == 6
    f = identity_factorization(4)
    assert [len(f.l_chain(i)) for i in (2, 3, 4)] == [3, 2, 1]


def test_chain_layout_matches_closed_form_oracle():
    rng = random.Random(211)
    for n in range(2, 41):
        layout = chain_layout(n)
        assert chain_layout(n) is layout
        k = multiplier_count(n)
        pairs = [(i, j) for i in range(2, n + 1) for j in range(i, n + 1)]
        for i in range(2, n + 1):
            start = x_offset(i, n) - 1
            assert layout.chain(i) == slice(start, start + n - i + 1)
        for i, j in pairs:
            assert layout.lower_slot(i, j) == flat_slot(i, j, n)
            assert layout.upper_slot(i, j) == upper_flat_slot(i, j, n)
            assert slot_chain_factor(layout.lower_slot(i, j), n) == (i, j)
        assert layout.lower_indices == tuple(slot_chain_factor(p, n)[1] for p in range(k))
        # lower product order is flat order; the upper one is that order
        # reversed, read over the mirror
        positions = tuple(range(k))
        mirrored = layout.mirror(positions)
        assert mirrored == mirror_flat(positions, n)
        assert tuple(zip(positions, layout.lower_indices)) == product_order(n, "L")
        assert tuple(zip(mirrored, layout.lower_indices))[::-1] == product_order(n, "U")
        for _ in range(3):
            flat = tuple(Fraction(rng.randint(0, 9)) for _ in range(k))
            assert layout.mirror(flat) == mirror_flat(flat, n)
            assert layout.mirror(layout.mirror(flat)) == flat
        outside = [(i, j) for i in (0, 1, n + 1) for j in (i, n)]
        outside += [(i, j) for i in range(2, n + 1) for j in (i - 1, n + 1)]
        for i, j in outside:
            for slot, oracle in (
                (layout.lower_slot, flat_slot),
                (layout.upper_slot, upper_flat_slot),
            ):
                with pytest.raises(IndexOutOfRange):
                    oracle(i, j, n)
                with pytest.raises(IndexOutOfRange):
                    slot(i, j)
        # a bool or a float is no chain or factor index, even where it
        # compares equal to one
        for i, j in ((True, n), (2.0, n), (n, True), (2, 2.0), (n, float(n))):
            for slot in (layout.lower_slot, layout.upper_slot):
                with pytest.raises(IndexOutOfRange):
                    slot(i, j)
        for i in (0, 1, n + 1):
            with pytest.raises(IndexOutOfRange):
                x_offset(i, n)
            with pytest.raises(IndexOutOfRange):
                layout.chain(i)


def test_chain_layout_errors_name_the_chain_and_the_factor():
    layout = chain_layout(5)
    for i, j, message in (
        (1, 3, "chain index 1 outside [2, 5]"),
        (6, 6, "chain index 6 outside [2, 5]"),
        (True, 3, "chain index True outside [2, 5]"),
        (2.0, 3, "chain index 2.0 outside [2, 5]"),
        (3, 2, "factor 2 not in chain 3"),
        (3, 6, "factor 6 not in chain 3"),
        (3, True, "factor True not in chain 3"),
        (3, 4.0, "factor 4.0 not in chain 3"),
    ):
        for slot in (layout.lower_slot, layout.upper_slot):
            with pytest.raises(IndexOutOfRange, match=re.escape(message)):
                slot(i, j)


def test_chain_layout_holds_no_slot_table():
    # a layout keeps its chain slices and one factor index per lower
    # slot, whose ints it shares, and no per-slot table besides
    for n, most in ((100, 0.2), (447, 5)):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            layout = ChainLayout(n)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < most * 2**20, (n, after - before)
        assert layout.lower_slot(n, n) == multiplier_count(n) - 1


def test_chain_slices_n3():
    f = SEBFactorization(3, (10, 11, 12), (1, 1, 1), (0, 0, 0))
    assert f.l_chain(2) == (10, 11)
    assert f.l_chain(3) == (12,)


def test_chain_exp5_values():
    f = neville_factorize(M["exp5"])
    assert f.l_chain(3) == (3, 4, 2)
    assert f.l_chain(4) == (2, 1)
    assert f.l_chain(5) == (2,)
    assert f.u_chain(5) == (1,)
    assert f.u_chain(4) == (2, 3)


def test_wq_form():
    f = neville_factorize(M["elim3"])
    wq = w_q_form(f)
    assert str(wq) == "W2(1,2) W3(3) D(1,2,3) Q3(2) Q2(1,1)"
    assert str(w_q_form(identity_factorization(3))) == "D(1,1,1)"
    f4 = neville_factorize(M["exp4"])
    assert str(w_q_form(f4)) == "W2(1,3,2) Q3(1,2) Q2(1,2,1)"


def test_classify_factorization():
    assert (
        classify_factorization(neville_factorize(M["basic4"]))
        is FactorizationClass.BASIC_OSCILLATORY
    )
    n, k = 3, 3
    all_pos = SEBFactorization(n, (1,) * k, (1,) * n, (1,) * k)
    assert classify_factorization(all_pos) is FactorizationClass.TP
    assert (
        classify_factorization(identity_factorization(4))
        is FactorizationClass.ITN_ONLY
    )
    osc = neville_factorize(M["net4"])
    assert classify_factorization(osc) is FactorizationClass.OSCILLATORY


def test_factorization_class_matches_composition():
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(2, 5)
        f = random_canonical_factorization(n, rng)
        a = compose(f)
        label = classify_factorization(f)
        assert (label is FactorizationClass.TP) == scan_tp(a).ok
        assert (
            label
            in (
                FactorizationClass.TP,
                FactorizationClass.BASIC_OSCILLATORY,
                FactorizationClass.OSCILLATORY,
            )
        ) == _OSCILLATION_CRITERIA["definition"](a)


def _canonical_flats(n, side, rng):
    """One flat vector per canonical support of one side: each chain's
    positive slots are the run that starts at the chain's own factor."""
    layout = chain_layout(n)
    for widths in itertools.product(*(range(n - i + 2) for i in range(2, n + 1))):
        flat = [Fraction(0)] * multiplier_count(n)
        for i, t in zip(range(2, n + 1), widths):
            c = layout.chain(i)
            span = range(c.stop - t, c.stop) if side == "l" else range(c.start, c.start + t)
            for p in span:
                flat[p] = Fraction(rng.randint(1, 9))
        yield tuple(flat)


def test_classification_matches_index_counts_of_the_factor_word():
    """classify_factorization and is_basic_factorization, which read
    seb._side_indices off the flat vectors, against positive-factor counts
    per index over the factor word, on canonical and non-canonical, sparse
    and dense inputs."""
    rng = random.Random(571)
    cases = []
    for n in range(2, 11):
        k = multiplier_count(n)
        for density in (0.0, 0.1, 0.3, 0.6, 1.0):
            for _ in range(4):
                lower, upper = (
                    tuple(rng.randint(1, 9) if rng.random() < density else 0 for _ in range(k))
                    for _ in "lu"
                )
                d = tuple(rng.randint(1, 4) for _ in range(n))
                cases.append(SEBFactorization(n, lower, d, upper))
            f = random_oscillatory_factorization(n, rng, density)
            cases += [f, neville_factorize(compose(f))]
    seen = set()
    for f in cases:
        word = Counter((x.kind, x.index) for x in f.factor_sequence())
        counts = [word[kind, j] for kind in "LU" for j in range(2, f.n + 1)]
        if all(f.l) and all(f.u):
            want = FactorizationClass.TP
        elif 0 in counts:
            want = FactorizationClass.ITN_ONLY
        elif all(c == 1 for c in counts):
            want = FactorizationClass.BASIC_OSCILLATORY
        else:
            want = FactorizationClass.OSCILLATORY
        assert classify_factorization(f) is want, f
        assert is_basic_factorization(f) == all(c == 1 for c in counts), f
        seen.update(counts)
        seen.add(want)
    assert {0, 1, 2} | set(FactorizationClass) <= seen


def test_index_counts_match_flat_layout_counts():
    rng = random.Random(577)
    cases = []
    for n in range(2, 5):
        d = (1,) * n
        uppers = list(_canonical_flats(n, "u", rng))
        cases += [
            SEBFactorization(n, lower, d, upper)
            for lower in _canonical_flats(n, "l", rng)
            for upper in uppers
        ]
    for n in range(2, 11):
        k = multiplier_count(n)
        for density in (0.1, 0.3, 0.6, 0.9):
            for _ in range(8):
                lower, upper = (
                    tuple(rng.randint(1, 9) if rng.random() < density else 0 for _ in range(k))
                    for _ in "lu"
                )
                cases.append(SEBFactorization(n, lower, (1,) * n, upper))
    # at n = 2 the TP and basic shapes coincide
    cases += [SEBFactorization(2, (q,), (1, 2), (r,)) for q in (1, 3) for r in (2, 5)]
    seen = set()
    for f in cases:
        got = classify_factorization(f), is_basic_factorization(f)
        assert got == flat_layout_classification(f), f
        seen.add(got)
    assert {label for label, _ in seen} == set(FactorizationClass)
    assert (FactorizationClass.TP, True) in seen


def test_normalize_reordering_example():
    facs = [ebu(5, 1), ebu(4, 2), ebu(3, 4), ebu(5, 6), ebu(2, 7), ebu(4, 9)]
    f = normalize_commutation(facs, n=5)
    assert f.u_chain(5) == (1,)
    assert f.u_chain(4) == (2, 6)
    assert f.u_chain(3) == (4, 9, 0)
    assert f.u_chain(2) == (7, 0, 0, 0)
    product = Matrix.identity(5)
    for fac in facs:
        product = mat_mul(product, fac.matrix(5))
    assert compose(f) == product


def test_normalize_canonical_input_unchanged():
    f = neville_factorize(M["elim3"])
    assert normalize_commutation(f.factor_sequence()) == f


def test_normalize_canonical_word_takes_two_word_products(monkeypatch):
    # the one check: the int-column products of the input word and of the
    # placed factorization; nothing is composed into a Matrix or refactorized
    f = neville_factorize(M["elim3"])
    calls = {"_word_columns": 0, "compose": 0, "neville_factorize": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(seb, name, counting(name, getattr(seb, name)))
    assert factorization_from_text(factorization_to_text(f)) == f
    assert calls == {"_word_columns": 2, "compose": 0, "neville_factorize": 0}


def test_normalize_rejects_assignment_that_changes_the_product(monkeypatch):
    assign_once = seb._assign_word_to_slots

    def swap_first_two(word, indices):
        assign = assign_once(word, indices)
        if assign:
            assign[0], assign[1] = assign[1], assign[0]
        return assign

    monkeypatch.setattr(seb, "_assign_word_to_slots", swap_first_two)
    # slots 0 and 1 take L3(1) and L2(2): adjacent indices, different multipliers
    with pytest.raises(InvariantViolation):
        factorization_from_text("L3(1) L2(2) L3(3)")


def test_factorization_rejects_negative_and_nonpositive_entries():
    with pytest.raises(NotNormalizable, match="multipliers must be nonnegative"):
        SEBFactorization(2, (-1,), (1, 1), (0,))
    with pytest.raises(ValueError, match="diagonal entries must be positive"):
        SEBFactorization(2, (0,), (1, 0), (0,))


def test_normalize_commuting_swap():
    one = normalize_commutation([ebl(4, 3), ebl(2, 5)], n=4)
    other = normalize_commutation([ebl(2, 5), ebl(4, 3)], n=4)
    assert one == other
    assert compose(one) == mat_mul(eb_matrix("L", 4, 3, 4), eb_matrix("L", 2, 5, 4))


def test_normalize_rejections():
    with pytest.raises(NotNormalizable):
        normalize_commutation([ebu(3, 2), ebl(3, 5)], n=3)
    with pytest.raises(NotNormalizable):
        normalize_commutation([ebu(2, 1), ebd((1, 2))], n=2)
    with pytest.raises(NotNormalizable):
        normalize_commutation([ebd((2, 1)), ebl(2, 1)], n=2)
    with pytest.raises(NotNormalizable):
        # adjacent lower indices in the wrong order for the canonical shape
        normalize_commutation([ebl(2, 1), ebl(3, 2), ebl(2, 4)], n=3)


def test_normalize_recovers_canonical_after_commuting_shuffle():
    for trial in range(41):
        rng = random.Random(trial)
        n = rng.randint(2, 5) if trial < 40 else 30
        f = random_canonical_factorization(n, rng)
        word = f.factor_sequence()
        shuffled = commutation_shuffle(word, rng, 20 * len(word))
        assert n < 30 or shuffled != list(word)
        assert normalize_commutation(shuffled, n=n) == f


def _random_factor(n, rng):
    kind = rng.choice("LUD")
    if kind == "D":
        return ebd(rng.choice((1, 1, 2, 3, 0, -1)) for _ in range(n))
    return EBFactor(kind, index=rng.randint(2, n), multiplier=rng.randint(-1, 3))


def _normalization_words(n, rng):
    """A canonical word with its zero multipliers, the same word with
    identity factors inserted and shuffled by legal swaps, and a random
    word that is usually not normalizable."""
    f = random_canonical_factorization(n, rng)
    canonical = [ebl(j, f.l[p]) for p, j in product_order(n, "L")]
    canonical.append(ebd(f.d))
    canonical.extend(ebu(j, f.u[p]) for p, j in product_order(n, "U"))
    shuffled = list(canonical)
    for _ in range(2):
        shuffled.insert(rng.randrange(len(shuffled) + 1), ebd((1,) * n))
        side = rng.choice((ebl, ebu))
        shuffled.insert(rng.randrange(len(shuffled) + 1), side(rng.randint(2, n), 0))
    shuffled = commutation_shuffle(shuffled, rng, 4 * len(shuffled))
    scrambled = [_random_factor(n, rng) for _ in range(rng.randint(1, 2 * n))]
    return [canonical, shuffled, scrambled]


def _normalization_cases():
    rng = random.Random(907)
    return [
        (n, word)
        for n in range(2, 9)
        for _ in range(3 if n < 7 else 1)
        for word in _normalization_words(n, rng)
    ]


def _normalization_outcome(word, n, normalize=normalize_commutation):
    try:
        return normalize(word, n=n)
    except (NotNormalizable, InvariantViolation) as exc:
        return type(exc).__name__, str(exc)


def test_word_product_matches_dense_oracle():
    for n, word in _normalization_cases():
        full_diagonals = [f for f in word if f.kind != "D" or len(f.diag) == n]
        assert seb._word_product(full_diagonals, n) == dense_word_product(
            full_diagonals, n
        )


def _random_rational(rng, zero_share):
    """Zero with probability ``zero_share``, else p/q with q <= 97, an
    integer half of the time."""
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(1, 200), rng.choice((1, rng.randint(1, 97))))


def _random_word(n, rng):
    """A word of L, U and D factors in any order, with zero multipliers
    and non-unit diagonals anywhere.  One word in five is as long as a
    full factorization."""
    length = n * (n - 1) + 2 if rng.random() < 0.2 else 3 * n
    word = []
    for _ in range(rng.randint(0, length)):
        kind = rng.choice("LLUUD")
        if kind == "D":
            word.append(ebd(_random_rational(rng, 0) for _ in range(n)))
        else:
            q = _random_rational(rng, 0.15)
            word.append(EBFactor(kind, index=rng.randint(2, n), multiplier=q))
    return word


def test_word_product_matches_fraction_oracle():
    rng = random.Random(2121)
    words = 0
    for n in range(2, 13):
        for _ in range(240 if n <= 6 else 140):
            word = _random_word(n, rng)
            got = seb._word_product(word, n)
            assert got == fraction_word_product(word, n), (n, [str(x) for x in word])
            assert all(type(x) is Fraction for row in got.entries for x in row)
            words += 1
    assert words >= 2_000


def _field_types(fac):
    diag = None if fac.diag is None else tuple(map(type, fac.diag))
    return type(fac), tuple(map(type, fac)), diag


def test_factor_sequence_equals_checked_word():
    rng = random.Random(2123)

    def fraction_flat(n):
        k = multiplier_count(n)
        return tuple(_random_rational(rng, 0.3) for _ in range(k))

    cases = [M["elim3"], M["exp5"], M["net4"]]
    factorizations = [neville_factorize(a) for a in cases]
    for n in range(2, 11):
        factorizations.append(random_canonical_factorization(n, rng))
        factorizations.append(random_oscillatory_factorization(n, rng))
        d = tuple(_random_rational(rng, 0) for _ in range(n))
        l, u = fraction_flat(n), fraction_flat(n)
        factorizations.append(SEBFactorization(n, l, d, u))
    for f in factorizations:
        checked = [ebl(j, f.l[p]) for p, j in product_order(f.n, "L") if f.l[p]]
        checked.append(ebd(f.d))
        checked.extend(ebu(j, f.u[p]) for p, j in product_order(f.n, "U") if f.u[p])
        word = f.factor_sequence()
        assert word == tuple(checked)
        assert list(map(_field_types, word)) == list(map(_field_types, checked))


def test_side_indices_off_the_flat_vectors_match_the_word_reader():
    rng = random.Random(2125)
    canonical = 0
    for t in range(600):
        n = 2 + t % 9
        if t % 3 == 0:
            f = random_canonical_factorization(n, rng)
        else:  # staircase sides, then positive multipliers zeroed at random
            f = random_oscillatory_factorization(n, rng, rng.choice((0.1, 0.3, 0.6)))
            l, u = (
                tuple(x if rng.random() < 0.7 else 0 for x in flat)
                for flat in (f.l, f.u)
            )
            f = SEBFactorization(n, l, f.d, u)
        canonical += f.layout.is_canonical(f.l) and f.layout.is_canonical(
            f.layout.mirror(f.u)
        )
        assert _side_indices(f) == word_side_indices(f.factor_sequence())
    assert 200 <= canonical <= 500


def test_neville_rejects_a_composition_off_by_one_over_p(monkeypatch):
    columns_once = seb._word_columns
    rng = random.Random(2124)
    for a in (M["elim3"], M["exp4"], M["exp5"], M["net4"]):
        n = a.rows
        for p in (1, 2, 7, 97):
            r, c = rng.randrange(n), rng.randrange(n)

            def perturbed(factors, n, r=r, c=c, p=p):
                # entry (r, c) is cols[c][r] / den[c]; add 1/p to it
                cols, den = columns_once(factors, n)
                cols[c] = [x * p for x in cols[c]]
                cols[c][r] += den[c]
                den[c] *= p
                return cols, den

            monkeypatch.setattr(seb, "_word_columns", perturbed)
            with pytest.raises(
                InvariantViolation, match="factorization does not reproduce the input"
            ):
                neville_factorize(a)
            monkeypatch.setattr(seb, "_word_columns", columns_once)
            assert compose(neville_factorize(a)) == a


def test_neville_rejection_messages():
    cases = {
        "negative multiplier -1/2 at row 2, column 1": [[2, 1], [-1, 3]],
        "zero pivot above nonzero entry at row 2, column 1": [[0, 1], [1, 1]],
        "nonpositive diagonal ['1', '-5']": [[1, 2], [3, 1]],
    }
    for message, rows in cases.items():
        with pytest.raises(NotITN) as info:
            neville_factorize(Matrix(rows))
        assert str(info.value) == message


def _neville_outcome(factorize, a):
    try:
        return factorize(a)
    except (NotITN, InvariantViolation) as exc:
        return type(exc).__name__, str(exc)


def _rational_flat(n, rng, zero_share):
    return tuple(_random_rational(rng, zero_share) for _ in range(multiplier_count(n)))


def _neville_inputs(n, rng):
    """One matrix of each kind at dimension n: canonical integer and
    rational ITN products with zero multipliers, a non-canonical rational
    word, row-scaled rational entries, a repeated row (singular TN), a
    negated entry and two swapped rows (non-TN)."""
    canonical = compose(random_canonical_factorization(n, rng))
    staircase = [x * _random_rational(rng, 0) for x in staircase_flat(n, rng, "l")]
    d = tuple(_random_rational(rng, 0) for _ in range(n))
    rational = compose(
        SEBFactorization(n, staircase, d, staircase_flat(n, rng, "u"))
    )
    word = compose(
        SEBFactorization(n, _rational_flat(n, rng, 0.4), d, _rational_flat(n, rng, 0.4))
    )
    out = [canonical, rational, word]
    scales = [_random_rational(rng, 0) for _ in range(n)]
    out.append(Matrix([[s * x for x in row] for s, row in zip(scales, word.entries)]))
    for base in (canonical, rational):
        rows = [list(row) for row in base.entries]
        i = rng.randrange(n - 1)
        rows[i + 1] = list(rows[i])
        out.append(Matrix(rows))
        rows = [list(row) for row in base.entries]
        r, c = rng.randrange(n), rng.randrange(n)
        rows[r][c] = -rows[r][c] - 1
        out.append(Matrix(rows))
        rows = [list(row) for row in base.entries]
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
        out.append(Matrix(rows))
    return out


def test_neville_matches_fraction_oracle():
    rng = random.Random(2201)
    kinds = Counter()  # "ok", or the first word of the NotITN message
    for n in range(2, 13):
        for _ in range(28 if n <= 6 else 12):
            for a in _neville_inputs(n, rng):
                got = _neville_outcome(neville_factorize, a)
                assert got == _neville_outcome(fraction_neville_factorize, a), a
                ok = isinstance(got, SEBFactorization)
                kinds["ok" if ok else (got[0], got[1].split()[0])] += 1
    assert sum(kinds.values()) >= 2_000
    assert set(kinds) == {
        "ok",
        ("NotITN", "negative"),
        ("NotITN", "zero"),
        ("NotITN", "nonpositive"),
    }
    assert min(kinds.values()) >= 150


def _run_outcome(a):
    """The int run of ``a`` as a factorization, converted here after its
    types are checked: int pairs (num, den > 0) and int zeros for the
    multipliers, ints for the diagonal; or the refusal's type and message."""
    try:
        l, nums, dens, v = seb._neville_run(a)
    except (NotITN, InvariantViolation) as exc:
        return type(exc).__name__, str(exc)
    for x in l + v:
        if x:
            assert type(x) is tuple and list(map(type, x)) == [int, int] and x[1] > 0
        else:
            assert type(x) is int
    assert {type(x) for x in nums + dens} == {int}

    def fractions(flat):
        return [Fraction(*x) if x else Fraction(0) for x in flat]

    n = a.rows
    d = [Fraction(p, q) for p, q in zip(nums, dens)]
    return SEBFactorization(n, fractions(l), d, chain_layout(n).mirror(fractions(v)))


def test_neville_run_matches_fraction_oracle():
    # the int run against Neville elimination on Fractions: the same
    # verdict, the same multipliers once converted, the same refusal
    rng = random.Random(2204)
    kinds = Counter()  # as in test_neville_matches_fraction_oracle
    shapes = Counter()
    for n in range(2, 13):
        for _ in range(28 if n <= 6 else 12):
            for a in _neville_inputs(n, rng):
                got = _run_outcome(a)
                assert got == _neville_outcome(fraction_neville_factorize, a), a
                ok = isinstance(got, SEBFactorization)
                kinds["ok" if ok else (got[0], got[1].split()[0])] += 1
                shapes["rational"] += any(x.denominator != 1 for row in a.entries for x in row)
                shapes["zero multiplier"] += ok and not all(got.l + got.u)
    assert sum(kinds.values()) >= 2_000
    assert set(kinds) == {
        "ok",
        ("NotITN", "negative"),
        ("NotITN", "zero"),
        ("NotITN", "nonpositive"),
    }
    assert min(kinds.values()) >= 150
    assert min(shapes.values()) >= 300


def test_neville_builds_one_fraction_per_positive_multiplier_and_diagonal_entry(
    monkeypatch,
):
    rng = random.Random(2205)
    inputs = [M["elim3"], M["exp5"], M["net4"]]
    for n in range(2, 9):
        inputs.extend(_neville_inputs(n, rng)[:4])
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(seb, "Fraction", counting)
    for a in inputs:
        built.clear()
        f = neville_factorize(a)
        assert len(built) == sum(map(bool, f.l + f.u)) + f.n
    assert compose(f) == a


@pytest.mark.parametrize("bad", [2.5, "3", True, False, 1, 0])
def test_normalize_dimension_is_an_int_of_at_least_two(bad):
    f = neville_factorize(M["elim3"])
    text = factorization_to_text(f)
    assert normalize_commutation(f.factor_sequence(), 3) == f
    assert factorization_from_text(text, 3) == f
    message = f"dimension must be an int >= 2, got {re.escape(repr(bad))}$"
    with pytest.raises(ParamOutOfRange, match=message):
        normalize_commutation(f.factor_sequence(), bad)
    with pytest.raises(ParamOutOfRange, match=message):
        factorization_from_text(text, bad)


def test_neville_matches_fraction_oracle_at_larger_n():
    # the integer kernel's gcd reductions and row denominators meet far
    # larger numbers here than at n <= 12
    rng = random.Random(2203)
    kinds = Counter()
    for n in (16, 24, 32, 40):
        for a in _neville_inputs(n, rng):
            got = _neville_outcome(neville_factorize, a)
            assert got == _neville_outcome(fraction_neville_factorize, a), n
            ok = isinstance(got, SEBFactorization)
            kinds["ok" if ok else (got[0], got[1].split()[0])] += 1
    # the four invertible TN kinds factor; the other five are refused
    assert kinds["ok"] == 16
    assert set(kinds) == {"ok", ("NotITN", "negative"), ("NotITN", "zero")}


def test_neville_holds_no_table():
    # the chain layout is the one table kept per dimension: with it built
    # and the code warmed at n = 59, factorizing at n = 60 leaves nothing
    a = compose(random_oscillatory_factorization(60, random.Random(60), 0.6))
    neville_factorize(compose(random_oscillatory_factorization(59, random.Random(59), 0.6)))
    chain_layout(60)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert compose(neville_factorize(a)) == a
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 2**10


def _factorization_types(f):
    return type(f), type(f.n), [tuple(map(type, v)) for v in (f.l, f.d, f.u)]


def test_neville_result_equals_checked_constructor():
    rng = random.Random(2202)
    inputs = [M["elim3"], M["exp4"], M["exp5"], M["net4"]]
    for n in range(2, 11):
        inputs.append(compose(random_oscillatory_factorization(n, rng)))
        inputs.extend(_neville_inputs(n, rng)[:4])
    for a in inputs:
        f = neville_factorize(a)
        for checked in (SEBFactorization(*f), fraction_neville_factorize(a)):
            assert f == checked
            assert _factorization_types(f) == _factorization_types(checked)


def test_all_ones_text_round_trips_at_n40():
    n = 40
    ones = (Fraction(1),) * multiplier_count(n)
    want = SEBFactorization(n, ones, (Fraction(1),) * n, ones)
    f = factorization_from_text(factorization_to_text(want))
    assert f == want
    assert neville_factorize(compose(f)) == f


def test_normalize_matches_dense_rebuild(monkeypatch):
    cases = _normalization_cases()
    column_ops = [_normalization_outcome(word, n) for n, word in cases]
    monkeypatch.setattr(seb, "_word_columns", dense_word_columns)
    dense = [_normalization_outcome(word, n) for n, word in cases]
    assert column_ops == dense
    # outcomes are factorizations (NamedTuples) or plain (name, message) tuples
    kinds = {o[0] if type(o) is tuple else "ok" for o in column_ops}
    assert kinds == {"ok", "NotNormalizable"}


def _structured_word(n, rng):
    """An L word, an optional diagonal and a U word, with repeated
    letters and zero multipliers, shuffled by legal swaps and now and then
    given one random factor anywhere."""
    mults = (0, 1, 1, 2, Fraction(1, 2), 3)

    def side(make):
        length = rng.randint(0, n + 2)
        return [make(rng.randint(2, n), rng.choice(mults)) for _ in range(length)]

    word = side(ebl)
    if rng.random() < 0.7:
        word.append(ebd(rng.choice((1, 1, 2, Fraction(1, 3))) for _ in range(n)))
    word += side(ebu)
    word = commutation_shuffle(word, rng, 2 * len(word) - 2)
    if rng.random() < 0.1:
        word.insert(rng.randrange(len(word) + 1), _random_factor(n, rng))
    return word


def _differential_words():
    rng = random.Random(2701)
    for _ in range(4000):
        n = rng.randint(2, 8)
        yield n, _structured_word(n, rng)
        yield n, _structured_word(n, rng)
        for word in _normalization_words(n, rng):
            yield n, word


def test_normalize_matches_refactorizing_oracle():
    words = accepted = noncanonical = 0
    for n, word in _differential_words():
        words += 1
        want = _normalization_outcome(word, n, refactorizing_normalize_commutation)
        got = _normalization_outcome(word, n)
        if type(want) is tuple:  # a refusal: (name, message)
            assert got == want, word
            continue
        accepted += 1
        layout = chain_layout(n)
        if layout.is_canonical(want.l) and layout.is_canonical(layout.mirror(want.u)):
            assert got == want, word
        else:
            noncanonical += 1
            assert compose(got) == compose(want), word
    assert words >= 20_000 and accepted >= 10_000 and noncanonical >= 500


def _transposed_word(word):
    swap = {"L": ebu, "U": ebl}
    return [
        fac if fac.kind == "D" else swap[fac.kind](fac.index, fac.multiplier)
        for fac in reversed(word)
    ]


def test_normalize_commutes_with_transposition():
    f = factorization_from_text("L3(1) L3(1) U3(1)")
    g = factorization_from_text("L3(1) U3(1) U3(1)")
    assert (f.l, f.u) == ((1, 0, 1), (0, 0, 1))
    assert g == (3, f.layout.mirror(f.u), f.d, f.layout.mirror(f.l))
    accepted = 0
    for n, word in itertools.islice(_differential_words(), 4000):
        f = _normalization_outcome(word, n)
        g = _normalization_outcome(_transposed_word(word), n)
        if type(f) is tuple:
            assert type(g) is tuple and g[0] == f[0], word
            continue
        accepted += 1
        assert g == (n, f.layout.mirror(f.u), f.d, f.layout.mirror(f.l)), word
    assert accepted >= 2000


def test_one_by_one_diagonal_text_is_a_shape_mismatch():
    with pytest.raises(ShapeMismatch, match=r"factorizations require n >= 2"):
        factorization_from_text("D(2)")


def test_normalize_drops_identities():
    f = normalize_commutation([ebl(2, 0), ebd((1, 1)), ebu(2, 3)], n=2)
    assert f.l == (0,) and f.u == (3,)


def _assert_assignment_matches_search(word, indices):
    expected = search_assign_word_to_slots(word, indices)
    got = seb._assign_word_to_slots(word, indices)
    assert got == expected, word
    return got


def _order_indices(n, side):
    """The factor index of each slot of one side, in product order."""
    return tuple(j for _, j in product_order(n, side))


def test_assign_word_matches_search_on_every_short_word():
    for n in range(2, 6):
        for length in range(7):
            for indices in itertools.product(range(2, n + 1), repeat=length):
                word = tuple((j, 1) for j in indices)
                for side in "LU":
                    _assert_assignment_matches_search(word, _order_indices(n, side))


def test_assign_word_matches_search_on_random_words():
    rng = random.Random(4271)
    for _ in range(20_000):
        n = rng.randint(2, 8)
        word = tuple(
            (rng.randint(2, n), rng.randint(1, 9)) for _ in range(rng.randint(1, n + 3))
        )
        _assert_assignment_matches_search(word, _order_indices(n, rng.choice("LU")))


def test_assign_word_matches_search_on_commuted_canonical_words():
    rng = random.Random(613)
    makers = (random_canonical_factorization, random_oscillatory_factorization)
    for n in range(2, 13):
        for make in makers * (8 if n <= 8 else 2):
            f = make(n, rng)
            for flat, side in ((f.l, "L"), (f.u, "U")):
                word = [(j, flat[p]) for p, j in product_order(n, side) if flat[p]]
                for _ in range(4 * (len(word) - 1)):
                    i = rng.randrange(len(word) - 1)
                    if abs(word[i][0] - word[i + 1][0]) > 1:
                        word[i], word[i + 1] = word[i + 1], word[i]
                indices = _order_indices(n, side)
                assert _assert_assignment_matches_search(tuple(word), indices) is not None


def test_normalize_words_at_n_40():
    k = multiplier_count(40)
    f = SEBFactorization(40, (1,) * k, (1,) * 40, (1,) * k)
    assert factorization_from_text(factorization_to_text(f)) == f
    assert normalize_commutation([ebl(40, 1)]).l == (0,) * (k - 1) + (1,)


def test_normalize_bounds_the_dimension(monkeypatch):
    limit = seb.NORMALIZE_SLOT_LIMIT
    assert multiplier_count(447) <= limit < multiplier_count(448)

    def no_layout(n):
        raise AssertionError(f"laid out n={n}")

    monkeypatch.setattr(seb, "chain_layout", no_layout)
    for word, n in (
        ([ebl(100_000, 1)], None),
        ([ebd((2,) * 100_000)], None),
        ([ebl(2, 1)], 448),
    ):
        with pytest.raises(FeasibilityExceeded, match=f"exceed the limit of {limit}"):
            normalize_commutation(word, n=n)


def test_text_format_roundtrip():
    f = neville_factorize(M["elim3"])
    text = factorization_to_text(f)
    assert factorization_from_text(text) == f
    assert factorization_to_text(identity_factorization(3)) == "D(1,1,1)"


def test_text_format_jacobi_order():
    # ascending lower chain commutes into canonical slots
    f = factorization_from_text("L2(1) L3(2) L4(3) D(1,1,1,1) U4(3) U3(2) U2(1)")
    a = compose(f)
    seq = [str(x) for x in f.factor_sequence()]
    assert seq == ["L2(1)", "L3(2)", "L4(3)", "D(1,1,1,1)", "U4(3)", "U3(2)", "U2(1)"]
    assert neville_factorize(a) == f


def test_parse_factor_text_errors():
    from oscillax.errors import MalformedNumber

    with pytest.raises(MalformedNumber):
        parse_factor_text("L3(1) nonsense D(1,1,1)")


def test_json_roundtrip():
    f = neville_factorize(M["net4"])
    doc = factorization_to_json_dict(f)
    assert factorization_from_json_dict(doc) == f
    assert doc["n"] == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_roundtrip_property(seed, n):
    rng = random.Random(seed)
    f = random_canonical_factorization(n, rng)
    assert neville_factorize(compose(f)) == f
