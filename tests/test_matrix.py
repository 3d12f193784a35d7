import itertools
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    fraction_det_bareiss,
    fraction_mat_mul,
    laplace_det,
    laplace_minor,
    lex_subsets,
    multiplicative_compound,
)
from oscillax.errors import (
    FeasibilityExceeded,
    IndexOutOfRange,
    MalformedNumber,
    OscillaxError,
    ParamOutOfRange,
    ShapeMismatch,
)
from oscillax.matrix import (
    Matrix,
    _det_bareiss,
    _index_sets,
    cauchy_binet_check,
    det,
    dumps_matrix,
    loads_matrix,
    mat_mul,
    mat_pow,
    matrix_from_csv,
    matrix_to_csv,
    minor,
)
from oscillax.planar import (
    build_network,
    concat_copies,
    enumerate_path_families,
    min_copies_lower_corner,
    minor_via_paths,
)
from oscillax.seb import neville_factorize
from oscillax.verify import corpus_matrices

M = corpus_matrices()


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_constructor_rejects():
    with pytest.raises(ShapeMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(MalformedNumber):
        Matrix([[0.5]])
    with pytest.raises(ShapeMismatch):
        Matrix([])


def test_index_set_validation():
    with pytest.raises(ShapeMismatch):
        _index_sets((2, 2), (1, 2), (4, 4))
    with pytest.raises(ShapeMismatch):
        _index_sets((1, 2), (3, 1), (4, 4))
    with pytest.raises(IndexOutOfRange):
        _index_sets((1, 4), (1, 2), (3, 4))
    assert _index_sets([1, 4], iter([2, 3]), (4, 4)) == ((1, 4), (2, 3))
    assert _index_sets(2, 3, (4, 4)) == ((2,), (3,))


def test_minor_corpus_value():
    assert minor(M["net4"], (1, 3), (2, 3)) == 5


def test_minor_identity_principal():
    eye = Matrix.identity(4)
    for p in range(1, 5):
        for alpha in itertools.combinations(range(1, 5), p):
            assert minor(eye, alpha, alpha) == 1


def test_minor_shape_errors():
    with pytest.raises(ShapeMismatch):
        minor(M["net4"], (1, 2), (1,))


def test_minor_matches_laplace_random():
    rng = random.Random(501)
    for _ in range(25):
        a = rand_matrix(rng, 5, 5)
        rows = tuple(sorted(rng.sample(range(1, 6), 3)))
        cols = tuple(sorted(rng.sample(range(1, 6), 3)))
        assert minor(a, rows, cols) == laplace_minor(a, rows, cols)


def test_det_matches_laplace_up_to_six():
    rng = random.Random(77)
    for n in range(2, 7):
        a = rand_matrix(rng, n, n)
        assert det(a) == laplace_det([list(r) for r in a.entries])


def test_det_antisymmetric_under_row_swap():
    rng = random.Random(9)
    a = rand_matrix(rng, 4, 4)
    rows = list(a.entries)
    rows[1], rows[3] = rows[3], rows[1]
    assert det(Matrix(rows)) == -det(a)


def test_mat_mul_identity_and_mismatch():
    a = M["net4"]
    assert mat_mul(a, Matrix.identity(4)) == a
    with pytest.raises(ShapeMismatch):
        mat_mul(a, Matrix.identity(3))


def test_mat_pow():
    a = M["exp4"]
    assert mat_pow(a, 1) == a
    assert mat_pow(a, 2).row(0) == (27, 40, 97, 133)
    with pytest.raises(ValueError):
        mat_pow(a, 0)


def test_mat_pow_zero_raises_param_out_of_range():
    with pytest.raises(ParamOutOfRange, match="power must be an int >= 1, got 0"):
        mat_pow(M["exp4"], 0)
    with pytest.raises(ParamOutOfRange):
        mat_pow(M["exp4"], -2)


#: Every count (a power, a number of copies, a corner size) follows one
#: rule: an int that is not a bool, at least 1.
COUNT_TAKERS = {
    "mat_pow": lambda k: mat_pow(M["exp4"], k),
    "Matrix.__pow__": lambda k: M["exp4"] ** k,
    "concat_copies": lambda k: concat_copies(_net4(), k),
    "min_copies_lower_corner": lambda k: min_copies_lower_corner(_net4(), k),
}


def _net4():
    return build_network(neville_factorize(M["net4"]))


@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "2", Fraction(2), 0, -1])
@pytest.mark.parametrize("taker", sorted(COUNT_TAKERS))
def test_counts_take_an_int_that_is_not_a_bool(taker, bad):
    take = COUNT_TAKERS[taker]
    assert take(3) is not None
    with pytest.raises(ParamOutOfRange, match=f"must be an int .*, got {re.escape(repr(bad))}$"):
        take(bad)


#: The four readers of index sets (minors and path families of net4, n = 4);
#: each takes one index or an iterable of them.
INDEX_READERS = {
    "minor": lambda rows, cols: minor(M["net4"], rows, cols),
    "cauchy_binet_check": lambda rows, cols: cauchy_binet_check(
        M["net4"], M["net4"], rows, cols
    ),
    "minor_via_paths": lambda rows, cols: minor_via_paths(_net4(), rows, cols),
    "enumerate_path_families": lambda rows, cols: enumerate_path_families(
        _net4(), rows, cols
    ),
}


@pytest.mark.parametrize(
    "rows, cols, fault",
    [
        ("12", "12", ShapeMismatch),
        ((1.5,), (1,), ShapeMismatch),
        (True, 1, ShapeMismatch),
        ((True, 1.5), (1, 2), ShapeMismatch),
        ((), (), ShapeMismatch),
        ((2, 2), (1, 2), ShapeMismatch),
        ((3, 1), (1, 2), ShapeMismatch),
        ((1, 2), (1,), ShapeMismatch),
        ((0,), (1,), IndexOutOfRange),
        ((0, 1), (1, 2), IndexOutOfRange),
        ((5,), (1,), IndexOutOfRange),
        ((1, 2), (2, 5), IndexOutOfRange),
    ],
    ids=[
        "12-12",
        "rows1-cols1",
        "True-1",
        "bool-and-float",
        "empty",
        "repeated",
        "decreasing",
        "sizes-differ",
        "zero",
        "zero-first",
        "past-n",
        "column-past-n",
    ],
)
def test_index_sets_take_ints_that_are_not_bools(rows, cols, fault):
    """One index rule: nonempty, strictly increasing ints that are not
    bools, within [1, n], both sets the same size."""
    net = _net4()
    assert minor(M["net4"], 1, 1) == minor_via_paths(net, (1,), [1]) == M["net4"][0, 0]
    assert minor(M["net4"], [1, 4], iter((2, 3))) == minor_via_paths(net, [1, 4], (2, 3))
    for name, read in INDEX_READERS.items():
        assert read([1, 4], (2, 3)) is not None
        with pytest.raises(OscillaxError) as info:  # never a bare TypeError
            read(rows, cols)
        assert type(info.value) is fault, name


# -- integer kernels against their Fraction oracles -------------------------

#: Entry kinds of the differential tests: small integers with zeros and
#: negatives, p/q with distinct denominators, and 300+-bit values.
ENTRY_KINDS = ("int", "ratio", "big")


def rand_entry(rng, kind):
    if rng.random() < 0.2:
        return Fraction(0)
    sign = rng.choice((-1, 1))
    if kind == "int":
        return Fraction(sign * rng.randint(1, 9))
    if kind == "ratio":
        return Fraction(sign * rng.randint(1, 30), rng.randint(1, 12))
    return Fraction(sign * rng.getrandbits(330), rng.getrandbits(24) | 1)


def rand_entry_matrix(rng, rows, cols, kind):
    return Matrix([[rand_entry(rng, kind) for _ in range(cols)] for _ in range(rows)])


def assert_exact(value, expected):
    assert type(value) is Fraction
    assert value == expected


def test_mat_mul_matches_fraction_oracle():
    rng = random.Random(8101)
    shapes = [(1, 1, 1), (1, 4, 1), (4, 1, 3), (2, 3, 5), (5, 2, 1), (6, 6, 6)]
    shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(12)]
    for kind in ENTRY_KINDS:
        for r, k, c in shapes:
            a = rand_entry_matrix(rng, r, k, kind)
            b = rand_entry_matrix(rng, k, c, rng.choice(ENTRY_KINDS))
            got = mat_mul(a, b)
            expected = fraction_mat_mul(a, b)
            assert (got.rows, got.cols) == (r, c)
            for x, y in zip(
                itertools.chain(*got.entries), itertools.chain(*expected.entries)
            ):
                assert_exact(x, y)


def _bareiss_cases(rng):
    for kind in ENTRY_KINDS:
        for n in range(1, 8):
            yield rand_entry_matrix(rng, n, n, kind).entries
    # zero leading pivot: the first row swap happens at step 1
    yield [[0, 2, 1], [3, 1, 4], [5, 0, 2]]
    # the leading 2x2 minor vanishes: a swap in the middle of the elimination
    yield [[1, 2, 3], [2, 4, 5], [1, 1, 1]]
    yield [
        [Fraction(1, 3), Fraction(2, 3), 7],
        [Fraction(1, 2), 1, Fraction(-5, 4)],
        [0, 9, 2],
    ]
    # singular: repeated row, zero column, vanishing trailing pivot
    yield [[1, 2, 3], [4, 5, 6], [1, 2, 3]]
    yield [[0, 1, 2], [0, 3, 4], [0, 5, Fraction(6, 7)]]
    yield [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    yield [[0]]
    yield [[Fraction(-3, 7)]]
    for n in range(2, 7):
        rows = [[rand_entry(rng, "big") for _ in range(n)] for _ in range(n - 1)]
        rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        yield rows


def test_det_bareiss_matches_fraction_oracle():
    rng = random.Random(8103)
    for rows in _bareiss_cases(rng):
        a = Matrix(rows)
        expected = fraction_det_bareiss(a.entries)
        assert_exact(_det_bareiss(a.entries), expected)
        assert_exact(det(a), expected)
        n = a.rows
        for p in range(1, n + 1):
            rset = tuple(sorted(rng.sample(range(1, n + 1), p)))
            cset = tuple(sorted(rng.sample(range(1, n + 1), p)))
            sub = [[a[i - 1, j - 1] for j in cset] for i in rset]
            assert_exact(minor(a, rset, cset), fraction_det_bareiss(sub))


def test_det_bareiss_singular_and_swap_values():
    assert det(Matrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])) == 0
    assert det(Matrix([[0, 2, 1], [3, 1, 4], [5, 0, 2]])) == 23
    assert det(Matrix([[1, 2, 3], [2, 4, 5], [1, 1, 1]])) == -1
    assert det(Matrix([["1/2", "1/3"], ["1/5", "1/7"]])) == Fraction(1, 210)


def test_lex_subsets_order():
    assert lex_subsets(4, 2) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_compound_order_one_and_n():
    a = M["exp4"]
    c1 = multiplicative_compound(a, 1)
    assert c1.data == a
    cn = multiplicative_compound(a, 4)
    assert cn.data == Matrix([[det(a)]])
    with pytest.raises(ParamOutOfRange):
        multiplicative_compound(a, 5)


def test_compound_entries_are_minors():
    rng = random.Random(15)
    a = rand_matrix(rng, 4, 4)
    comp = multiplicative_compound(a, 2)
    subs = comp.subsets
    for i, rows in enumerate(subs):
        for j, cols in enumerate(subs):
            assert comp.data[i, j] == minor(a, rows, cols)


def test_compound_multiplicative():
    rng = random.Random(16)
    for _ in range(5):
        a = rand_matrix(rng, 4, 4)
        b = rand_matrix(rng, 4, 4)
        left = multiplicative_compound(mat_mul(a, b), 2).data
        right = mat_mul(
            multiplicative_compound(a, 2).data, multiplicative_compound(b, 2).data
        )
        assert left == right


def test_compound_of_power_is_power_of_compound():
    a = M["exp4"]
    left = multiplicative_compound(mat_pow(a, 3), 2).data
    right = mat_pow(multiplicative_compound(a, 2).data, 3)
    assert left == right


def test_corner_minors_are_compound_border_entries():
    from oscillax.classify import corner_minors

    a = M["net4"]
    n = a.rows
    vals = dict(corner_minors(a))
    for k in range(1, n):
        comp = multiplicative_compound(a, k).data
        m = comp.rows
        lower_left = next(v for (s, sz), v in vals.items() if s == "lower-left" and sz == k)
        upper_right = next(v for (s, sz), v in vals.items() if s == "upper-right" and sz == k)
        assert comp[m - 1, 0] == lower_left
        assert comp[0, m - 1] == upper_right


def test_cauchy_binet_identity_cases():
    eye = Matrix.identity(3)
    assert cauchy_binet_check(eye, eye, (1, 2), (1, 2))
    a = M["elim3"]
    assert cauchy_binet_check(a, a, (1, 3), (2, 3))


def test_cauchy_binet_rectangular_exhaustive():
    rng = random.Random(23)
    a = rand_matrix(rng, 4, 5)
    b = rand_matrix(rng, 5, 3)
    for alpha in itertools.combinations(range(1, 5), 2):
        for beta in itertools.combinations(range(1, 4), 2):
            assert cauchy_binet_check(a, b, alpha, beta)


def test_cauchy_binet_refuses_more_inner_sets_than_a_full_scan_reads(monkeypatch):
    # a full minor scan at the default cap of 8 reads C(16, 8) - 1 = 12,869
    reads = []
    monkeypatch.setattr(
        sys.modules["oscillax.matrix"],
        "minor",
        lambda a, rows, cols: reads.append(rows) or Fraction(0),
    )

    def ones(rows, cols):
        return Matrix([[1] * cols for _ in range(rows)])

    # C(16, 7) = 11,440 inner sets: two minors each, and one of AB
    assert cauchy_binet_check(ones(8, 16), ones(16, 8), range(1, 8), range(1, 8))
    assert len(reads) == 1 + 2 * 11_440
    reads.clear()
    message = "^12870 inner index sets pass the scan budget 12869$"
    with pytest.raises(FeasibilityExceeded, match=message):
        cauchy_binet_check(ones(8, 16), ones(16, 8), range(1, 9), range(1, 9))
    with pytest.raises(FeasibilityExceeded, match="^137846528820 inner index sets"):
        cauchy_binet_check(ones(20, 40), ones(40, 20), range(1, 21), range(1, 21))
    # the shape and index-set checks come first
    with pytest.raises(ShapeMismatch):
        cauchy_binet_check(ones(20, 40), ones(40, 20), (1, 1), (1, 2))
    assert reads == []


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_det_fraction_free_equals_laplace(rows):
    assert det(Matrix(rows)) == laplace_det([[Fraction(x) for x in r] for r in rows])


def test_json_roundtrip_bit_exact():
    a = M["net4"]
    assert loads_matrix(dumps_matrix(a)) == a
    text = dumps_matrix(a)
    assert '"1/10"' in text


def test_csv_roundtrip():
    a = M["net4"]
    assert matrix_from_csv(matrix_to_csv(a)) == a
    b = matrix_from_csv("1, 1/2\n0.25, 3\n")
    assert b[0, 1] == Fraction(1, 2)
    assert b[1, 0] == Fraction(1, 4)
