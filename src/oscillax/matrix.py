"""Dense exact-rational matrices, index sets and minors.

Everything here is immutable and pure.  ``Fraction`` is the boundary
type: entries, minors and results are ``Fraction``s.  The reference
minor scan, :func:`minor_levels`, builds order-by-order Laplace tables
over lexicographically ordered index subsets; the production scan of
``classify`` reads the minors of the :func:`_scaled` block instead, with
no table: orders 1 and 2 in closed form, and one :func:`_det_int` per
minor of order 3 and up.  An index set is a plain tuple of 1-based
``int``s; one rule (:func:`_index_sets`) checks the row and column sets
of ``minor`` and ``cauchy_binet_check`` and the source and sink sets of
``planar.minor_via_paths`` and ``planar.enumerate_path_families``.

The arithmetic-heavy kernels run on Python ints instead.  :func:`_scaled`
is the one place where ``Fraction``s become ints: the entries times
their least common denominator d, and d.  One product kernel,
:func:`_int_mul`, multiplies such blocks by summing products only, and
the Bareiss determinant :func:`_det_int` runs on one; ``mat_mul``,
``det`` and ``minor`` wrap them and build one ``Fraction`` per result
entry.  Powers form one chain (:func:`_powers`): with (M, d) the scaled
block of A, A^k is M_k / d_k with M_k = M_(k-1) M and d_k = d_(k-1) d,
so each power costs one integer product, and one gcd over the block
(to the least common denominator of A^k) only when d > 1; since d_k > 0
a minor of A^k has the sign, and the zero test, of the same minor of
M_k.  ``mat_pow`` and the exponent routes
walk this chain and build a ``Fraction`` matrix only of a power they
return (:func:`_unscaled`).  Neville elimination
(``seb._lower_elimination``, on rows) and the factor word product
(``seb._word_columns``, on columns) run on plain lists of ints: they
start from one denominator and then keep one positive denominator per
vector, so an operation rescales only the vector it changes.  Each such
operation ends with one gcd reduction of the vector and its denominator
rather than one per entry (:func:`_reduce` in the word product, inline
in elimination), and only the results become ``Fraction``s.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator

from .errors import (
    FeasibilityExceeded,
    IndexOutOfRange,
    ParamOutOfRange,
    ShapeMismatch,
)
from .rational import coerce_rational, format_rational

#: Default cap for operations that enumerate all minors of a matrix.
SCAN_CAP_DEFAULT = 8

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _is_int(x) -> bool:
    """The type test of every count: an ``int`` that is not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_count(k, what: str, most: int | None = None) -> None:
    """The one rule for counts (powers, copies, corner sizes): an ``int``
    that is not a ``bool``, at least 1 and at most ``most`` when given;
    :class:`ParamOutOfRange` otherwise."""
    top = k if most is None else most
    if not _is_int(k) or not 1 <= k <= top:
        bound = ">= 1" if most is None else f"in [1, {most}]"
        raise ParamOutOfRange(f"{what} must be an int {bound}, got {k!r}")


def _index_sets(rows, cols, limits, names=("row", "column")):
    """The one index rule, for minors and for path families: each set is
    one index or an iterable of them, ``int``s that are not ``bool``s,
    nonempty and strictly increasing (:class:`ShapeMismatch` otherwise),
    within ``[1, limit]`` (:class:`IndexOutOfRange`), and both sets have
    the same size (:class:`ShapeMismatch`).  Returns two ``int`` tuples."""
    sets = []
    for value, limit, name in zip((rows, cols), limits, names):
        try:
            indices = tuple(value)
        except TypeError:
            indices = (value,)
        ints = all(isinstance(i, int) and not isinstance(i, bool) for i in indices)
        if not (indices and ints):
            raise ShapeMismatch(f"{name} indices must be nonempty ints, got {value!r}")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ShapeMismatch(f"{name} indices must increase strictly: {indices}")
        if indices[0] < 1 or indices[-1] > limit:
            raise IndexOutOfRange(f"{name} indices {indices} outside [1, {limit}]")
        sets.append(indices)
    first, second = sets
    if len(first) != len(second):
        raise ShapeMismatch(
            f"{names[0]} and {names[1]} sets differ in size:"
            f" {len(first)} and {len(second)}"
        )
    return first, second


class Matrix:
    """Immutable dense matrix of exact rationals.

    Entries are addressed 0-based via ``A[i, j]``; the index sets used
    by :func:`minor` are 1-based.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(coerce_rational(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ShapeMismatch("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ShapeMismatch("rows have inconsistent lengths")
        object.__setattr__(self, "_rows", data)

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        d = [coerce_rational(x) for x in entries]
        n = len(d)
        return cls([[d[i] if i == j else _ZERO for j in range(n)] for i in range(n)])

    # -- shape and access -------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- algebra ----------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self._rows)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def __pow__(self, k: int) -> "Matrix":
        return mat_pow(self, k)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __reduce__(self):
        return type(self), (self._rows,)

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(x) for x in row) for row in self._rows
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def to_lists(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self._rows]


def _scaled(rows) -> tuple[list[list[int]], int]:
    """The entries as Python ints scaled by their least common
    denominator ``d``, and ``d``; the rows are fresh lists."""
    d = math.lcm(*[x.denominator for row in rows for x in row])
    if d == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _reduce(vecs: list[list[int]], dens: list[int], i: int) -> None:
    """Divide vector i of a scaled family and its denominator by their gcd."""
    g = math.gcd(dens[i], *vecs[i])
    if g != 1:
        vecs[i] = [x // g for x in vecs[i]]
        dens[i] //= g


def _int_mul(x: list[list[int]], y) -> list[list[int]]:
    """The product of two int blocks: only products are summed, with no
    gcd and no ``Fraction``.  The one product kernel."""
    yt = tuple(zip(*y))
    return [[sum(map(mul, row, col)) for col in yt] for row in x]


def _unscaled(m: list[list[int]], d: int) -> Matrix:
    """The matrix of the int block m over the positive denominator d."""
    if d == 1:  # integer entries: no gcd per entry
        return Matrix([[Fraction(x) for x in row] for row in m])
    return Matrix([[Fraction(x, d) for x in row] for row in m])


def _powers(a: Matrix) -> Iterator[tuple[list[list[int]], int]]:
    """A, A^2, A^3, ... of a square matrix as scaled int blocks: with
    (M, d) = ``_scaled(A)``, the k-th item is (M_k, d_k) with A^k =
    M_k / d_k and d_k the least common denominator of A^k, one
    :func:`_int_mul` after the one before.  When d > 1 each product is
    divided by the gcd of d_k and its entries, one gcd over the block,
    so d_k does not grow as d^k where A^k's entries stay small.  The
    blocks are shared with the chain, so a caller must not change them."""
    m, d = _scaled(a.entries)
    power, den = m, d
    while True:
        yield power, den
        power, den = _int_mul(power, m), den * d
        if d != 1:
            g = math.gcd(den, *itertools.chain.from_iterable(power))
            if g != 1:
                power, den = [[x // g for x in row] for row in power], den // g


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product, summed on integers and divided once per entry."""
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    a_int, d_a = _scaled(a.entries)
    b_int, d_b = _scaled(b.entries)
    return _unscaled(_int_mul(a_int, b_int), d_a * d_b)


def mat_pow(a: Matrix, k: int) -> Matrix:
    """Exact k-th power, k an int >= 1, from the power chain."""
    if not a.is_square():
        raise ShapeMismatch("powers require a square matrix")
    _check_count(k, "power")
    return _unscaled(*next(itertools.islice(_powers(a), k - 1, None)))


# -- determinants and minors ----------------------------------------------


def _det_int(m: list[list[int]]) -> int:
    """Determinant of a square int block by fraction-free Bareiss
    elimination; every division is exact, so ``//`` keeps it in ``int``.
    Eliminates in place: the rows must be fresh lists."""
    n = len(m)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        row_i = m[i]
        piv = row_i[i]
        for r in range(i + 1, n):
            row_r = m[r]
            mri = row_r[i]
            for c in range(i + 1, n):
                row_r[c] = (row_r[c] * piv - mri * row_i[c]) // prev
        prev = piv
    return sign * m[n - 1][n - 1]


def _minor_int(m: list[list[int]], rows, cols) -> int:
    """The minor of an int block at 1-based row and column sets."""
    return _det_int([[m[i - 1][j - 1] for j in cols] for i in rows])


def _det_bareiss(rows) -> Fraction:
    """The determinant of ``Fraction`` rows: :func:`_det_int` of their
    LCD-scaled block, over d^n."""
    m, d = _scaled(rows)
    return Fraction(_det_int(m), d ** len(m))


def det(a: Matrix) -> Fraction:
    """Determinant via fraction-free elimination."""
    if not a.is_square():
        raise ShapeMismatch("determinant requires a square matrix")
    return _det_bareiss(a.entries)


def minor(a: Matrix, rows, cols) -> Fraction:
    """Exact minor: determinant of the submatrix A[rows | cols] (1-based)."""
    rset, cset = _index_sets(rows, cols, (a.rows, a.cols))
    ent = a.entries
    return _det_bareiss([[ent[i - 1][j - 1] for j in cset] for i in rset])


def minor_levels(a: Matrix) -> Iterator[tuple[int, dict]]:
    """Yield ``(p, table)`` for p = 1..min(rows, cols), where ``table``
    maps ``(row_subset, col_subset)`` to the exact minor.

    Tables are built by Laplace expansion along the last selected row,
    reusing the previous order.  Iteration order within each table is
    lexicographic in (rows, cols).
    """
    n, m = a.rows, a.cols
    ent = a.entries
    prev: dict = {}
    for p in range(1, min(n, m) + 1):
        # one tuple per column subset, shared by the keys of every row subset
        # instead of a copy per key: a level holds C(n, p) * C(m, p) keys
        csets = list(itertools.combinations(range(1, m + 1), p))
        table: dict = {}
        if p == 1:
            for i in range(1, n + 1):
                rset, row = (i,), ent[i - 1]
                for cset in csets:
                    table[(rset, cset)] = row[cset[0] - 1]
        else:
            for rset in itertools.combinations(range(1, n + 1), p):
                head = rset[:-1]
                last_row = ent[rset[-1] - 1]
                for cset in csets:
                    acc = _ZERO
                    for t, c in enumerate(cset):
                        coeff = last_row[c - 1]
                        if coeff:
                            sub = prev[(head, cset[:t] + cset[t + 1 :])]
                            if sub:
                                # expansion along row p: sign (-1)^(p + t + 1)
                                if (p + t + 1) % 2 == 0:
                                    acc += coeff * sub
                                else:
                                    acc -= coeff * sub
                    table[(rset, cset)] = acc
        yield p, table
        prev = table


def cauchy_binet_check(a: Matrix, b: Matrix, alpha, beta) -> bool:
    """Check minor(AB, alpha, beta) against the sum over inner index sets.

    Both sides are computed independently, term by term; this always holds
    mathematically and serves as a cross-check of the minor kernel.  Inner
    index sets past the scan budget, the C(16, 8) - 1 minors a full scan
    reads at the default cap, raise :class:`FeasibilityExceeded` first.
    """
    if a.cols != b.rows:
        raise ShapeMismatch("shapes do not compose")
    aset, bset = _index_sets(alpha, beta, (a.rows, b.cols))
    k = len(aset)
    if k > a.cols:
        raise ShapeMismatch(f"cardinality {k} exceeds inner dimension {a.cols}")
    budget = math.comb(2 * SCAN_CAP_DEFAULT, SCAN_CAP_DEFAULT) - 1
    if (sets := math.comb(a.cols, k)) > budget:
        raise FeasibilityExceeded(f"{sets} inner index sets pass the scan budget {budget}")
    lhs = minor(mat_mul(a, b), aset, bset)
    rhs = _ZERO
    for gamma in itertools.combinations(range(1, a.cols + 1), k):
        rhs += minor(a, aset, gamma) * minor(b, gamma, bset)
    return lhs == rhs


def check_scan_cap(a: Matrix, cap: int | None) -> None:
    """:class:`FeasibilityExceeded` when a minor scan of ``a`` passes the
    dimension cap, :data:`SCAN_CAP_DEFAULT` when ``cap`` is None; a cap
    that is not an int (a bool is not) is :class:`ParamOutOfRange`."""
    if cap is not None and not _is_int(cap):
        raise ParamOutOfRange(f"cap must be an int, got {cap!r}")
    limit = SCAN_CAP_DEFAULT if cap is None else cap
    if max(a.rows, a.cols) > limit:
        raise FeasibilityExceeded(
            f"minor scan over a {a.rows}x{a.cols} matrix exceeds cap {limit}"
        )


# -- text formats -----------------------------------------------------------


def matrix_to_json_dict(a: Matrix) -> dict:
    return {"rows": a.rows, "cols": a.cols, "entries": a.to_lists()}


def matrix_from_json_dict(doc: dict) -> Matrix:
    try:
        entries = doc["entries"]
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise ShapeMismatch("matrix entries must be a list of lists")
        m = Matrix(entries)
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed matrix document: {exc}") from exc
    if m.rows != doc.get("rows", m.rows) or m.cols != doc.get("cols", m.cols):
        raise ShapeMismatch("declared shape does not match entries")
    return m


def dumps_matrix(a: Matrix) -> str:
    return json.dumps(matrix_to_json_dict(a), indent=2) + "\n"


def loads_matrix(text: str) -> Matrix:
    return matrix_from_json_dict(json.loads(text))


def matrix_from_csv(text: str) -> Matrix:
    """Read a matrix from comma-separated cells in parse_rational syntax."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rows.append([cell.strip() for cell in line.split(",")])
    return Matrix(rows)


def matrix_to_csv(a: Matrix) -> str:
    return "\n".join(",".join(cells) for cells in a.to_lists()) + "\n"
