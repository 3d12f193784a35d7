"""Total nonnegativity, total positivity, and oscillatory classification.

Every predicate starts from one Neville elimination.  An invertible
matrix is TN iff the elimination runs with nonnegative multipliers and a
positive diagonal, and TP iff every multiplier is positive (Gasca & Peña,
LAA 165, 1992), so :func:`is_tn`, :func:`is_tp`, :func:`is_oscillatory`
and :func:`classify` decide an invertible TN input in O(n^3) and build no
minor table.  They read only which multipliers are zero, so they take
the int run of the elimination (:func:`seb._neville_run`), whose
multipliers are int pairs, and build no ``Fraction`` for it; the
``Fraction`` factorization is :func:`seb.neville_factorize`'s.  The TP
witness of a non-TP one, its first zero minor, is read off the cells of
its factor word (:func:`cells.first_zero`) and confirmed by one Bareiss
minor, at any n.  The cap guards the scans only: inputs the elimination
refuses, and rectangular inputs of :func:`is_tn`, keep the one scan that
stops at the first decisive minor.  On the LCD-scaled int block
(:func:`_minors`) it reads an order-1 minor as an entry, an order-2
minor as the cross product of two rows, and each minor of order 3 and
up by one Bareiss determinant; it keeps no table, and builds a
``Fraction`` only for a witness it reports.  The
Laplace tables of :func:`matrix.minor_levels` (:func:`_first_minor`) are
the reference scan: the brute exponent route, the criteria of
:mod:`oscillax.verify` and the tests read them.  Oscillation is the
Gantmacher–Krein test (nonsingular TN, positive sub- and superdiagonal);
the definition, the irreducibility criterion and the
factorization-support criterion are references in
:mod:`oscillax.verify`, which checks them against it.
"""

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator, NamedTuple

from .errors import InvariantViolation, NotITN, ShapeMismatch
from .matrix import (
    Matrix,
    _det_int,
    _scaled,
    check_scan_cap,
    minor,
    minor_levels,
)


class MinorWitness(NamedTuple):
    """A decisive minor: (row set, column set, exact value)."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    value: Fraction


class ScanVerdict(NamedTuple):
    ok: bool
    witness: MinorWitness | None


class CornerSpec(NamedTuple):
    """Corner minor selector: side is 'lower-left' or 'upper-right'."""

    side: str
    size: int


def _require_min_shape(a: Matrix) -> None:
    if a.rows < 2 or a.cols < 2:
        raise ShapeMismatch("classification requires at least a 2x2 matrix")


def _scaled_block(a: Matrix, cap: int | None) -> tuple[list[list[int]], int]:
    """The LCD-scaled int block (m, d) of ``a`` (:func:`matrix._scaled`),
    after the shape and cap refusals every scan makes first."""
    _require_min_shape(a)
    check_scan_cap(a, cap)
    return _scaled(a.entries)


def _minors(m: list[list[int]], d: int) -> Iterator[tuple[tuple, tuple, int, int]]:
    """Every minor of A = m / d (d > 0), in the reference scan order, as
    ``(rows, cols, v, d**p)``: v is the order-p minor times d^p, so it has
    the minor's sign and zero test.  An order-1 minor is the entry of
    ``m``, an order-2 minor the cross product of two rows of ``m``, and a
    minor of order p >= 3 one :func:`matrix._det_int` of fresh rows cut
    from ``m``.  No table and no ``Fraction``."""
    n, k = len(m), len(m[0])
    for i, row in enumerate(m, 1):
        for j, x in enumerate(row, 1):
            yield (i,), (j,), x, d
    scale = d * d
    pairs = [(j1, j2, (j1 + 1, j2 + 1)) for j1, j2 in combinations(range(k), 2)]
    for (i1, a), (i2, b) in combinations(enumerate(m, 1), 2):
        rows = (i1, i2)
        for j1, j2, cols in pairs:
            yield rows, cols, a[j1] * b[j2] - a[j2] * b[j1], scale
    for p in range(3, min(n, k) + 1):
        scale = d**p
        csets = [(c, tuple(j + 1 for j in c)) for c in combinations(range(k), p)]
        for rset in combinations(range(n), p):
            cut = [m[i] for i in rset]
            rows = tuple(i + 1 for i in rset)
            for cset, cols in csets:
                yield rows, cols, _det_int([[row[j] for j in cset] for row in cut]), scale


def _first_bad_minor(
    a: Matrix, cap: int | None, bad: Callable[[int], bool]
) -> ScanVerdict:
    """The production scan: the first minor whose scaled value is ``bad``,
    in scan order, read by :func:`_minors` under ``cap``."""
    for rows, cols, v, scale in _minors(*_scaled_block(a, cap)):
        if bad(v):
            return ScanVerdict(False, MinorWitness(rows, cols, Fraction(v, scale)))
    return ScanVerdict(True, None)


def _first_minor(
    a: Matrix, cap: int | None, bad: Callable[[Fraction], bool]
) -> ScanVerdict:
    """The reference for :func:`_first_bad_minor`: the first ``bad`` minor
    of the Laplace tables of :func:`matrix.minor_levels`, under ``cap``."""
    _require_min_shape(a)
    check_scan_cap(a, cap)
    for _, table in minor_levels(a):
        for (rset, cset), value in table.items():
            if bad(value):
                return ScanVerdict(False, MinorWitness(rset, cset, value))
    return ScanVerdict(True, None)


def _neville(a: Matrix) -> dict | None:
    """The side indices (:func:`seb._flat_sides`) of the Neville
    factorization of a square ``a``, None if ``a`` is singular or not TN:
    read off the int run (:func:`seb._neville_run`), no ``Fraction`` built."""
    from .seb import _flat_sides, _neville_run

    _require_min_shape(a)
    try:
        l, _, _, v = _neville_run(a)
    except NotITN:
        return None
    return _flat_sides(a.rows, l, v)


def is_tn(a: Matrix, cap: int | None = None) -> ScanVerdict:
    """Total nonnegativity.  A square input Neville elimination accepts
    reads no minor; the others are scanned under ``cap``, and the witness
    is the lexicographically first negative minor (orders ascending, then
    row subset, then column subset)."""
    if a.is_square() and _neville(a) is not None:
        return ScanVerdict(True, None)
    return _first_bad_minor(a, cap, lambda value: value < 0)


def is_tp(a: Matrix, cap: int | None = None) -> ScanVerdict:
    """Total positivity of a square matrix, with the first nonpositive
    minor as the witness: read off the Neville factorization of an
    invertible TN input, else by a scan under ``cap``."""
    if not a.is_square():
        raise ShapeMismatch("total positivity test requires a square matrix")
    sides = _neville(a)
    if sides is None:
        return _first_bad_minor(a, cap, lambda value: value <= 0)
    witness = _first_zero_minor(a, sides)
    return ScanVerdict(witness is None, witness)


def corner_index_sets(
    n: int, side: str, size: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column sets of the corner minor of the given side and size."""
    rows_ll = tuple(range(n - size + 1, n + 1))
    cols_ll = tuple(range(1, size + 1))
    if side == "lower-left":
        return rows_ll, cols_ll
    if side == "upper-right":
        return cols_ll, rows_ll
    raise ValueError(f"unknown corner side {side!r}")


def corner_minors(a: Matrix) -> tuple[tuple[CornerSpec, Fraction], ...]:
    """All 2n-1 distinct corner minors.

    Lower-left minors of sizes 1..n come first (size n is det(A), listed
    once), followed by upper-right minors of sizes 1..n-1.
    """
    if not a.is_square():
        raise ShapeMismatch("corner minors require a square matrix")
    _require_min_shape(a)
    n = a.rows
    out = []
    for size in range(1, n + 1):
        rset, cset = corner_index_sets(n, "lower-left", size)
        out.append((CornerSpec("lower-left", size), minor(a, rset, cset)))
    for size in range(1, n):
        rset, cset = corner_index_sets(n, "upper-right", size)
        out.append((CornerSpec("upper-right", size), minor(a, rset, cset)))
    return tuple(out)


def _off_diagonals_positive(a: Matrix) -> bool:
    """Gantmacher–Krein: a nonsingular TN matrix is oscillatory iff its
    sub- and superdiagonal entries are all positive."""
    return all(a[i, i + 1] > 0 and a[i + 1, i] > 0 for i in range(a.rows - 1))


def is_oscillatory(a: Matrix) -> bool:
    """Oscillation by the Gantmacher–Krein test: Neville elimination
    accepts ``a`` (it is invertible TN) and its sub- and superdiagonal
    entries are positive.  No minor is read, at any n."""
    if not a.is_square():
        raise ShapeMismatch("oscillatory test requires a square matrix")
    return _neville(a) is not None and _off_diagonals_positive(a)


class ClassificationReport(NamedTuple):
    """Combined verdicts with the decisive minors that produced them."""

    n: int
    is_tn: bool
    is_invertible: bool
    is_tp: bool
    is_oscillatory: bool
    is_basic_oscillatory: bool | None
    tn_witness: MinorWitness | None
    tp_witness: MinorWitness | None

    def to_json_dict(self) -> dict:
        from .rational import format_rational

        def wit(w: MinorWitness | None):
            if w is None:
                return None
            return {
                "rows": list(w.rows),
                "cols": list(w.cols),
                "value": format_rational(w.value),
            }

        return {
            "n": self.n,
            "is_tn": self.is_tn,
            "is_invertible": self.is_invertible,
            "is_tp": self.is_tp,
            "is_oscillatory": self.is_oscillatory,
            "is_basic_oscillatory": self.is_basic_oscillatory,
            "witnesses": {"tn": wit(self.tn_witness), "tp": wit(self.tp_witness)},
        }


def classify(a: Matrix, cap: int | None = None) -> ClassificationReport:
    """Produce the full classification report for a square matrix.

    Invertible TN inputs are decided by their Neville factorization, and
    a non-TP one takes its first zero minor from the cells of its
    factorization (:func:`_first_zero_minor`), at any n.  The other
    inputs take one scan under ``cap``, which stops at the first negative
    minor, by which point the first nonpositive one has been seen.
    """
    from .cells import is_basic

    if not a.is_square():
        raise ShapeMismatch("classification requires a square matrix")
    sides = _neville(a)
    if sides is None:
        return _classify_not_itn(a, cap)
    tp_witness = _first_zero_minor(a, sides)
    return ClassificationReport(
        n=a.rows,
        is_tn=True,
        is_invertible=True,
        is_tp=tp_witness is None,
        is_oscillatory=_off_diagonals_positive(a),
        is_basic_oscillatory=is_basic(sides, a.rows),
        tn_witness=None,
        tp_witness=tp_witness,
    )


def _first_zero_minor(a: Matrix, sides: dict) -> MinorWitness | None:
    """The first zero minor in scan order of an invertible TN matrix ``a``
    whose Neville factorization has the side indices ``sides``, None if
    every multiplier is positive (``a`` is TP): a zero entry, else
    :func:`cells.first_zero` on ``sides``, confirmed by one Bareiss
    :func:`minor`."""
    from .cells import first_zero
    from .seb import multiplier_count

    if all(len(ix) == multiplier_count(a.rows) for ix in sides.values()):
        return None
    for i, row in enumerate(a.entries, 1):
        for j, x in enumerate(row, 1):
            if not x:
                return MinorWitness((i,), (j,), x)
    found = first_zero(*sides.values(), a.rows)
    if found is None:
        raise InvariantViolation("a zero multiplier but no zero minor below order n")
    value = minor(a, *found)
    if value:
        raise InvariantViolation(
            f"token sets read minor {found[0]} x {found[1]} as zero, not {value}"
        )
    return MinorWitness(*found, value)


def _classify_not_itn(a: Matrix, cap: int | None) -> ClassificationReport:
    """Report on an input Neville elimination refused: singular or not TN."""
    m, d = _scaled_block(a, cap)
    tn_witness = tp_witness = None
    for rows, cols, v, scale in _minors(m, d):
        if v < 0:
            tn_witness = MinorWitness(rows, cols, Fraction(v, scale))
            if tp_witness is None:
                tp_witness = tn_witness
            break
        if v == 0 and tp_witness is None:
            tp_witness = MinorWitness(rows, cols, Fraction(0))
    invertible = _det_int([list(row) for row in m]) != 0
    if tn_witness is None and invertible:
        raise InvariantViolation(
            "Neville elimination refused an invertible matrix with no negative minor"
        )
    return ClassificationReport(
        n=a.rows,
        is_tn=tn_witness is None,
        is_invertible=invertible,
        is_tp=tp_witness is None,
        is_oscillatory=False,
        is_basic_oscillatory=None,
        tn_witness=tn_witness,
        tp_witness=tp_witness,
    )

