"""Elementary bidiagonal factors and the successive factorization.

An invertible totally nonnegative matrix factors uniquely as

    A = W_2(l^2) ... W_n(l^n) . D . Q_n(u^n) ... Q_2(u^2)

where W_i(v) = L_n(v_1) L_{n-1}(v_2) ... L_i(v_{n-i+1}) is a descending
chain of lower elementary factors, Q_i(v) = U_i(v_1) ... U_n(v_{n-i+1})
the ascending upper chain, and D a positive diagonal.  Flat multiplier
vectors store l^2 ++ l^3 ++ ... ++ l^n (and the same layout for u), so
the slice for chain i starts at offset x_i = (i-2)n - (i-3)i/2 (1-based).
:class:`ChainLayout` is the one flat-layout abstraction: the chain
slices, and the factor index of each lower slot in flat order, which is
also the product order of W_2 ... W_n.  Every slot map is arithmetic on
those two, and the upper product order Q_n ... Q_2 is the lower one
reversed, read over :meth:`ChainLayout.mirror`.

Three readers take product order off the layout: the factor word
(:meth:`SEBFactorization.factor_sequence`); the positive factor indices
of each side (:func:`_side_indices`), which :mod:`oscillax.cells` reads
for the class gates and the copy counts; and the slot placement of
:func:`normalize_commutation`.  Every product is built by
one column operation per factor in :func:`_word_columns`, the word
product kernel: an int word in, columns of Python ints out, each over
one denominator, one of the integer kernels that :mod:`oscillax.matrix`
describes.  :func:`compose` turns that product into a ``Fraction``
:class:`Matrix` (:func:`_word_product`); the round-trip checks of the
Neville run and of :func:`normalize_commutation` compare int columns
(:func:`_same_columns`) and build no ``Fraction`` matrix.

Factorizations are produced by Neville elimination: columns left to
right, within each column bottom-up, always pivoting on the row directly
above.  The transposed pass yields the upper multipliers and diagonal.
:func:`_neville_run` is the whole elimination on Python ints: both
passes of :func:`_lower_elimination`, an integer kernel on plain lists
of ints with one denominator per row (see :mod:`oscillax.matrix`) that
does each row operation and its gcd reduction inline and leaves each
multiplier as an int pair ``(num, den)``, or 0; then the diagonal and
residue checks, and the round trip, which multiplies the int word back
through :func:`_word_columns`.  It builds a ``Fraction`` only to render
the message of a refusal.  ``classify`` reads its verdicts off the run's
zero pattern (:func:`_flat_sides`); :func:`neville_factorize` builds one
``Fraction`` per positive multiplier and diagonal entry once the run has
returned.  In the produced form, each chain's positive slots are a
contiguous run starting at the chain's own index; this is what makes the
factorization unique, and round-tripping reproduces it exactly.
"""

import enum
import json
import math
import re
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from .cells import SIDES, every_level, is_basic
from .errors import (
    FeasibilityExceeded,
    IndexOutOfRange,
    InvariantViolation,
    MalformedNumber,
    NotITN,
    NotNormalizable,
    ParamOutOfRange,
    ShapeMismatch,
)
from .matrix import Matrix, _is_int, _reduce, _scaled
from .rational import coerce_rational, format_rational, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- elementary factors ------------------------------------------------------


class _EBFactorFields(NamedTuple):
    kind: str
    index: int | None = None
    multiplier: Fraction | None = None
    diag: tuple[Fraction, ...] | None = None


class EBFactor(_EBFactorFields):
    """One factor of a bidiagonal product.

    kind 'L' or 'U' carries (index, multiplier), an ``int`` index whose
    range [2, n] is checked where n is known; kind 'D' carries the
    positive diagonal.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index=None, multiplier=None, diag=None):
        if kind in ("L", "U"):
            if index is None or multiplier is None:
                raise ValueError("L/U factors need an index and a multiplier")
            if type(index) is bool or not isinstance(index, int):
                raise ValueError(f"factor index must be an integer, got {index!r}")
            multiplier = coerce_rational(multiplier)
        elif kind == "D":
            if diag is None:
                raise ValueError("D factor needs diagonal entries")
            diag = tuple(coerce_rational(x) for x in diag)
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
        return tuple.__new__(cls, (kind, index, multiplier, diag))

    @classmethod
    def _make(cls, iterable) -> "EBFactor":
        return cls(*iterable)

    @property
    def tracks(self) -> tuple[int, int]:
        """(source, destination) of an L/U factor's diagonal edge: L_i
        joins track i to i-1, U_i joins i-1 to i.  As a right factor it
        adds its multiplier times column source to column destination."""
        i = self.index
        return (i, i - 1) if self.kind == "L" else (i - 1, i)

    def matrix(self, n: int) -> Matrix:
        if self.kind == "D":
            if len(self.diag) != n:
                raise ShapeMismatch("diagonal length does not match n")
            return Matrix.diagonal(self.diag)
        return eb_matrix(self.kind, self.index, self.multiplier, n)

    def __str__(self):
        if self.kind == "D":
            return "D(" + ",".join(format_rational(x) for x in self.diag) + ")"
        return f"{self.kind}{self.index}({format_rational(self.multiplier)})"


#: An EBFactor from a (kind, index, multiplier, diag) tuple whose fields
#: are already checked and coerced; skips every check of ``EBFactor``.
_trusted_factor = partial(tuple.__new__, EBFactor)


def ebl(i: int, q) -> EBFactor:
    return EBFactor("L", index=i, multiplier=q)


def ebu(i: int, q) -> EBFactor:
    return EBFactor("U", index=i, multiplier=q)


def ebd(diag) -> EBFactor:
    return EBFactor("D", diag=tuple(diag))


def eb_matrix(kind: str, i: int, q, n: int) -> Matrix:
    """The n x n identity plus q at (i, i-1) for L, or at (i-1, i) for U."""
    if kind not in ("L", "U"):
        raise ValueError(f"kind must be 'L' or 'U', got {kind!r}")
    if not 2 <= i <= n:
        raise IndexOutOfRange(f"factor index {i} outside [2, {n}]")
    q = coerce_rational(q)
    rows = [[_ONE if r == c else _ZERO for c in range(n)] for r in range(n)]
    if kind == "L":
        rows[i - 1][i - 2] = q
    else:
        rows[i - 2][i - 1] = q
    return Matrix(rows)


# -- the factorization type --------------------------------------------------


def multiplier_count(n: int) -> int:
    return (n - 1) * n // 2


def n_from_flat(flat) -> int:
    """Dimension of a flat multiplier vector, from its length alone."""
    k = len(flat)
    n = (1 + math.isqrt(1 + 8 * k)) // 2
    if multiplier_count(n) != k:
        raise ParamOutOfRange(f"length {k} is not a triangular number")
    return n


class ChainLayout:
    """The chain slices of a flat multiplier vector at dimension n: lower
    chain W_i lists L_n .. L_i and upper chain Q_i lists U_i .. U_n, both
    in slice i, so every slot map is arithmetic on the slices.
    :attr:`lower_indices` holds each lower slot's factor index in flat
    order, the product order of W_2 .. W_n.  Use :func:`chain_layout`,
    which builds the layout once per n.
    """

    __slots__ = ("n", "_chains", "lower_indices")

    def __init__(self, n: int):
        self.n = n
        self._chains: dict[int, slice] = {}
        start = 0
        for i in range(2, n + 1):
            self._chains[i] = slice(start, start + n - i + 1)
            start += n - i + 1
        # chain i lists n, n-1, ..., i: prefixes of one tuple share its ints
        descending = tuple(range(n, 1, -1))
        self.lower_indices = tuple(
            j for i in range(2, n + 1) for j in descending[: n - i + 1]
        )

    def chain(self, i: int) -> slice:
        """Slice of chain i within a flat vector."""
        if not isinstance(i, int) or i not in self._chains:
            raise IndexOutOfRange(f"chain index {i} outside [2, {self.n}]")
        return self._chains[i]

    def _start(self, i: int, j: int) -> int:
        """Start of chain i once j is checked to lie in it (no bool does)."""
        start = self.chain(i).start
        if not isinstance(j, int) or not i <= j <= self.n:
            raise IndexOutOfRange(f"factor {j} not in chain {i}")
        return start

    def lower_slot(self, i: int, j: int) -> int:
        """Flat position of factor L_j in lower chain i."""
        return self._start(i, j) + self.n - j

    def upper_slot(self, i: int, j: int) -> int:
        """Flat position of factor U_j in upper chain i."""
        return self._start(i, j) + j - i

    def runs(self, flat) -> tuple[int, ...] | None:
        """Per chain 2..n, the length of the positive suffix of its slice
        in a nonnegative lower flat vector: the run of factors i, i+1, ...
        that starts at chain i's own factor, as Neville elimination leaves
        them.  None when some chain's positive entries are not such a
        suffix, that is, when the vector is not canonical."""
        positive = list(map(bool, flat))
        out = []
        for chain in self._chains.values():
            run = sum(positive[chain])
            if not all(positive[chain.stop - run : chain.stop]):
                return None
            out.append(run)
        return tuple(out)

    def is_canonical(self, flat) -> bool:
        """Whether every chain's positive entries in a nonnegative lower
        flat vector form the suffix that :meth:`runs` measures.

        A vector of that shape is the unique canonical factorization of
        its product, so refactorizing it returns it unchanged (Gasca &
        Peña, LAA 165, 1992).
        """
        return self.runs(flat) is not None

    def mirror(self, flat) -> tuple[Fraction, ...]:
        """Reverse every chain slice; converts between the lower flat layout
        of a product and the upper flat layout of its transpose."""
        out: list = []
        for chain in self._chains.values():
            out += flat[chain][::-1]
        return tuple(out)


@lru_cache(maxsize=None)
def chain_layout(n: int) -> ChainLayout:
    """The layout of dimension n, built once."""
    return ChainLayout(n)


def checked_vectors(n: int, flats, diag=None):
    """Coerce and check the flat multiplier vectors ``flats`` of a
    dimension-n factorization and, when given, its diagonal.

    The first failing check raises, in this order: n >= 2; every entry a
    rational; each flat of length :func:`multiplier_count`; the diagonal
    of length n; no negative multiplier; a positive diagonal.
    """
    if n < 2:
        raise ShapeMismatch("factorizations require n >= 2")
    k = multiplier_count(n)
    vectors = tuple(tuple(coerce_rational(x) for x in flat) for flat in flats)
    d = None if diag is None else tuple(coerce_rational(x) for x in diag)
    if any(len(v) != k for v in vectors):
        raise ShapeMismatch(f"flat multiplier vectors must have length {k}")
    if d is not None and len(d) != n:
        raise ShapeMismatch(f"diagonal must have length {n}")
    if any(x < 0 for v in vectors for x in v):
        raise NotNormalizable("multipliers must be nonnegative")
    if d is not None and any(x <= 0 for x in d):
        raise NotNormalizable("diagonal entries must be positive")
    return vectors, d


class _SEBFactorizationFields(NamedTuple):
    n: int
    l: tuple[Fraction, ...]
    d: tuple[Fraction, ...]
    u: tuple[Fraction, ...]


class SEBFactorization(_SEBFactorizationFields):
    """Flat multipliers and diagonal of a successive bidiagonal product."""

    __slots__ = ()

    def __new__(cls, n: int, l, d, u):
        (lv, uv), dv = checked_vectors(n, (l, u), d)
        return tuple.__new__(cls, (n, lv, dv, uv))

    @classmethod
    def _make(cls, iterable) -> "SEBFactorization":
        return cls(*iterable)

    @property
    def layout(self) -> ChainLayout:
        return chain_layout(self.n)

    def l_chain(self, i: int) -> tuple[Fraction, ...]:
        return self.l[self.layout.chain(i)]

    def u_chain(self, i: int) -> tuple[Fraction, ...]:
        return self.u[self.layout.chain(i)]

    def factor_sequence(self) -> tuple[EBFactor, ...]:
        """Factors in product order; zero multipliers are elided.  The
        vectors are checked already, so no factor coerces them again."""
        layout, make = self.layout, _trusted_factor
        indices = layout.lower_indices
        out = [make(("L", j, x, None)) for j, x in zip(indices, self.l) if x]
        out.append(make(("D", None, None, self.d)))
        upper = zip(reversed(indices), reversed(layout.mirror(self.u)))
        out.extend(make(("U", j, x, None)) for j, x in upper if x)
        return tuple(out)


#: A SEBFactorization from an (n, l, d, u) tuple of ``Fraction`` tuples
#: that are already checked; skips every check of ``SEBFactorization``.
_trusted_factorization = partial(tuple.__new__, SEBFactorization)


def identity_factorization(n: int) -> SEBFactorization:
    k = multiplier_count(n)
    return SEBFactorization(n, (_ZERO,) * k, (_ONE,) * n, (_ZERO,) * k)


def _word_columns(word, n: int) -> tuple[list[list[int]], list[int]]:
    """Exact product of an int factor word, one column operation per
    factor (O(n) each): as a right factor, D scales the columns and an L/U
    factor adds its multiplier times column source to column destination,
    L_i from column i to i-1 and U_i from i-1 to i (:attr:`EBFactor.tracks`).
    Each factor is a tuple ``(kind, index, a, b)``: an L or U factor of
    multiplier a/b, ints with b positive, or ``("D", None, nums, dens)``,
    the diagonal of entries nums[c]/dens[c].  :func:`_int_word` turns
    :class:`EBFactor` words into this form.

    Returns ``(cols, den)``: entry (r, c) of the product is
    ``cols[c][r] / den[c]``, with ``den[c]`` positive.  D multiplies column
    c's ints by p_c and its denominator by q_c.  A multiplier a/b brings
    both columns to E = lcm(den[dst], b den[src]), adds, and divides the
    new column and E by their gcd.  A column need not be in lowest terms,
    so two products are compared by :func:`_same_columns`.
    """
    cols = [[0] * n for _ in range(n)]
    for c in range(n):
        cols[c][c] = 1
    den = [1] * n
    lcm = math.lcm
    for kind, i, a, b in word:
        if kind == "D":
            for c, (p, q) in enumerate(zip(a, b)):
                if p != 1:
                    cols[c] = [v * p for v in cols[c]]
                if q != 1:
                    den[c] *= q
            continue
        if not a:
            continue
        s, d = (i - 1, i - 2) if kind == "L" else (i - 2, i - 1)
        d_src, d_dst = b * den[s], den[d]
        if d_src == d_dst:  # integer columns and multiplier land here
            cols[d] = [x + a * y for x, y in zip(cols[d], cols[s])]
            if d_dst != 1:
                _reduce(cols, den, d)
            continue
        e = lcm(d_dst, d_src)
        fd, fs = e // d_dst, a * (e // d_src)
        cols[d] = [fd * x + fs * y for x, y in zip(cols[d], cols[s])]
        den[d] = e
        _reduce(cols, den, d)
    return cols, den


def _int_word(factors) -> list[tuple]:
    """An :class:`EBFactor` word as the int word of :func:`_word_columns`."""
    return [
        (kind, i, m.numerator, m.denominator)
        if diag is None
        else (kind, i, [x.numerator for x in diag], [x.denominator for x in diag])
        for kind, i, m, diag in factors
    ]


def _same_columns(x, y) -> bool:
    """Whether two ``(cols, den)`` families hold the same matrix: equal
    ints where the denominators agree, equal cross products elsewhere."""
    (x_cols, x_den), (y_cols, y_den) = x, y
    return all(
        cx == cy if dx == dy else all(p * dy == q * dx for p, q in zip(cx, cy))
        for cx, cy, dx, dy in zip(x_cols, y_cols, x_den, y_den)
    )


def _word_product(factors, n: int) -> Matrix:
    """The product of an :class:`EBFactor` word as a :class:`Matrix`, by
    :func:`_word_columns`: each entry becomes a ``Fraction`` once."""
    cols, den = _word_columns(_int_word(factors), n)
    out = [
        [Fraction(x) for x in col] if q == 1 else [Fraction(x, q) for x in col]
        for col, q in zip(cols, den)
    ]
    return Matrix(zip(*out))


def compose(f: SEBFactorization) -> Matrix:
    """Exact product of all factors in canonical order: the product of
    the factor word, O(k n) integer operations."""
    return _word_product(f.factor_sequence(), f.n)


# -- Neville elimination -----------------------------------------------------


def _lower_elimination(ints, dens, n: int, lower: bool = False) -> list:
    """Eliminate below the diagonal of scaled int rows in place; return the
    flat multipliers: an int pair ``(num, den)`` for each positive one,
    den positive and the pair not always in lowest terms, and 0 for each
    zero one.  Entry (r, c) is ``ints[r][c] / dens[r]``, each denominator
    positive.  With ``lower`` the rows are lower triangular, so row r is
    zero right of column r and stays so; it is left unread.

    Columns are processed left to right, each column bottom-up, pivoting
    on the row directly above.  A zero pivot under a nonzero entry, or a
    negative multiplier, disqualifies the input.  The multiplier is
    (val den_{r-1}) / (piv den_r), which then sets

        row_r <- (piv row_r - val row_{r-1}) / (piv den_r)

    and divides the row and its denominator by their gcd.  val and piv are
    divided by their own gcd first, so when piv divides val the row keeps
    its denominator and an integer row needs no gcd.  Entries left of
    column c are zero in both rows and stay so.  A ``Fraction`` is built
    only for the message of a negative multiplier.
    """
    layout = chain_layout(n)
    flat: list = [0] * multiplier_count(n)
    gcd = math.gcd
    for c in range(n - 1):
        last = layout.chain(c + 2).start + n - 1  # L_{r+1} of chain c+2 at last - r
        for r in range(n - 1, c, -1):
            row = ints[r]
            val = row[c]
            if not val:
                continue
            above = ints[r - 1]
            piv = above[c]
            if not piv:
                raise NotITN(
                    f"zero pivot above nonzero entry at row {r + 1}, column {c + 1}"
                )
            d_above, den = dens[r - 1], dens[r]
            g = gcd(val, piv)
            if g != 1:
                val, piv = val // g, piv // g
            if (val < 0) != (piv < 0):  # a negative multiplier: dens are positive
                q = Fraction(val * d_above, piv * den)
                raise NotITN(f"negative multiplier {q} at row {r + 1}, column {c + 1}")
            if piv < 0:  # keeps the denominator positive
                val, piv = -val, -piv
            flat[last - r] = (val * d_above, piv * den)
            stop = r + 1 if lower else n
            pairs = zip(row[c + 1 : stop], above[c + 1 : stop])
            if piv == 1:
                new = [x - val * y for x, y in pairs]
            else:
                new = [piv * x - val * y for x, y in pairs]
                den *= piv
            if den != 1:
                g = gcd(den, *new)
                if g != 1:
                    new = [x // g for x in new]
                    den //= g
            row[c] = 0
            row[c + 1 : stop] = new
            dens[r] = den
    return flat


def _neville_run(a: Matrix) -> tuple[list, list[int], list[int], list]:
    """Neville elimination of ``a`` on Python ints, with every check of
    :func:`neville_factorize` and its messages; a ``Fraction`` is built
    only to render the message of a refusal.

    Returns ``(l, nums, dens, v)``: the lower flat multipliers ``l``, the
    diagonal entries nums[i]/dens[i], and ``v``, the flat multipliers of
    the transposed pass, the upper side in the lower layout
    (:meth:`ChainLayout.mirror` maps it to ``u``).  A multiplier is an int
    pair ``(num, den)`` when positive and 0 when zero, as
    :func:`_lower_elimination` leaves it.  The round trip multiplies the
    int word of the result back through :func:`_word_columns` and compares
    it with the input's ints.
    """
    if not a.is_square():
        raise ShapeMismatch("factorization requires a square matrix")
    n = a.rows
    if n < 2:
        raise ShapeMismatch("factorization requires n >= 2")
    ints, d = _scaled(a.entries)
    a_cols = (list(map(list, zip(*ints))), [d] * n)  # before elimination
    dens = [d] * n
    l = _lower_elimination(ints, dens, n)

    # transpose the upper-triangular remainder, column c over the lcm of
    # the denominators of its nonzero entries, reduced; and repeat
    t_ints, t_dens = [], []
    for col in zip(*ints):
        e = math.lcm(*[q for x, q in zip(col, dens) if x])
        if e == 1:
            col = list(col)
        else:
            col = [x * (e // q) for x, q in zip(col, dens)]
            g = math.gcd(e, *col)
            if g != 1:
                col, e = [x // g for x in col], e // g
        t_ints.append(col)
        t_dens.append(e)
    v = _lower_elimination(t_ints, t_dens, n, lower=True)
    nums = [t_ints[i][i] for i in range(n)]
    if any(x <= 0 for x in nums):  # the denominators are positive
        diag = [format_rational(Fraction(p, q)) for p, q in zip(nums, t_dens)]
        raise NotITN(f"nonpositive diagonal {diag}")
    if any(any(row[:r]) or any(row[r + 1 :]) for r, row in enumerate(t_ints)):
        raise InvariantViolation("elimination left a nondiagonal residue")

    indices = chain_layout(n).lower_indices
    word = [("L", j, x[0], x[1]) for j, x in zip(indices, l) if x]
    word.append(("D", None, nums, t_dens))
    word += [("U", j, x[0], x[1]) for j, x in zip(reversed(indices), reversed(v)) if x]
    if not _same_columns(_word_columns(word, n), a_cols):
        raise InvariantViolation("factorization does not reproduce the input")
    return l, nums, t_dens, v


def _fractions(flat) -> tuple[Fraction, ...]:
    """The ``Fraction``s of a flat vector of int pairs and zeros."""
    return tuple(Fraction(*x) if x else _ZERO for x in flat)


def neville_factorize(a: Matrix) -> SEBFactorization:
    """Factor an invertible totally nonnegative matrix exactly.

    Raises :class:`NotITN` when elimination needs a negative multiplier,
    meets a zero pivot above a nonzero entry, or produces a nonpositive
    diagonal; by the classical characterization this happens exactly for
    inputs that are not invertible TN.  The elimination, its checks and
    the round trip are :func:`_neville_run`, on Python ints; one
    ``Fraction`` per positive multiplier and diagonal entry is built after
    it returns.
    """
    l, nums, dens, v = _neville_run(a)
    # transposing a descending lower chain yields the ascending upper chain
    u = chain_layout(a.rows).mirror(_fractions(v))
    d = tuple(map(Fraction, nums, dens))
    return _trusted_factorization((a.rows, _fractions(l), d, u))


# -- groupings ---------------------------------------------------------------


class WQForm(NamedTuple):
    """Grouped rendering W_2 .. W_n D Q_n .. Q_2 with empty chains elided."""

    n: int
    w_groups: tuple[tuple[int, tuple[Fraction, ...]], ...]
    d: tuple[Fraction, ...]
    q_groups: tuple[tuple[int, tuple[Fraction, ...]], ...]
    show_d: bool

    def __str__(self):
        parts = [
            f"W{i}(" + ",".join(format_rational(x) for x in v) + ")"
            for i, v in self.w_groups
        ]
        if self.show_d:
            parts.append("D(" + ",".join(format_rational(x) for x in self.d) + ")")
        parts.extend(
            f"Q{i}(" + ",".join(format_rational(x) for x in v) + ")"
            for i, v in self.q_groups
        )
        return " ".join(parts)


def w_q_form(f: SEBFactorization) -> WQForm:
    """Group the factorization into descending W and ascending Q chains.

    Chains whose multipliers are all zero are dropped; an identity
    diagonal is shown only when nothing else remains.
    """
    n = f.n
    w = tuple(
        (i, f.l_chain(i)) for i in range(2, n + 1) if any(f.l_chain(i))
    )
    q = tuple(
        (i, f.u_chain(i)) for i in range(n, 1, -1) if any(f.u_chain(i))
    )
    identity_d = all(x == 1 for x in f.d)
    show_d = not identity_d or (not w and not q)
    return WQForm(n=n, w_groups=w, d=f.d, q_groups=q, show_d=show_d)


class FactorizationClass(enum.Enum):
    TP = "TP"
    BASIC_OSCILLATORY = "basic-oscillatory"
    OSCILLATORY = "oscillatory"
    ITN_ONLY = "itn-only"


def is_basic_factorization(f: SEBFactorization) -> bool:
    """Exactly one positive multiplier per factor index on each side."""
    return is_basic(_side_indices(f), f.n)


def classify_factorization(f: SEBFactorization) -> FactorizationClass:
    """Positivity-pattern classification of a factorization: TP when
    every multiplier is positive, else oscillatory when both sides pass
    the level rule (:func:`cells.every_level`), and basic oscillatory when
    each side carries every level once.  At n = 2 the TP and basic shapes
    coincide and TP is reported."""
    if all(f.l) and all(f.u):
        return FactorizationClass.TP
    sides = _side_indices(f)
    if not all(every_level(ix, f.n) for ix in sides.values()):
        return FactorizationClass.ITN_ONLY
    if is_basic(sides, f.n):
        return FactorizationClass.BASIC_OSCILLATORY
    return FactorizationClass.OSCILLATORY


# -- side indices --------------------------------------------------------------


def _flat_sides(n: int, lower, upper) -> dict:
    """The side indices (:mod:`oscillax.cells`) of a word, read off two
    nonnegative lower flat vectors, ``lower`` and ``upper`` (the upper
    side mirrored, as :func:`exponent.recognize_sides` reads it), against
    :attr:`ChainLayout.lower_indices`, so no factor word is built.  A
    nonzero entry is positive: Fractions and the int pairs of
    :func:`_neville_run` alike."""
    indices = chain_layout(n).lower_indices
    return {
        side: [j for j, x in zip(indices, flat) if x]
        for side, flat in zip(SIDES, (lower, upper))
    }


def _side_indices(f: SEBFactorization) -> dict:
    """:func:`_flat_sides` of a factorization: ``f.l`` and the mirrored ``f.u``."""
    return _flat_sides(f.n, f.l, f.layout.mirror(f.u))


# -- commutation normalization -------------------------------------------------

# flat slots per side that normalize_commutation and the class generators
# lay out (n <= 447)
NORMALIZE_SLOT_LIMIT = 100_000


def _check_slot_limit(n: int) -> None:
    """:class:`FeasibilityExceeded` past :data:`NORMALIZE_SLOT_LIMIT` slots."""
    if multiplier_count(n) > NORMALIZE_SLOT_LIMIT:
        raise FeasibilityExceeded(
            f"{multiplier_count(n)} slots per side at n={n} exceed the limit"
            f" of {NORMALIZE_SLOT_LIMIT} slots"
        )


def _assign_word_to_slots(word, indices):
    """Map word positions to canonical slots using only adjacent swaps of
    commuting factors (indices differing by more than one).  ``word``
    holds (index, multiplier) pairs and ``indices`` the factor index of
    each slot, in product order.

    Returns a dict {slot position: word position} or None.  The swaps
    keep exactly the order of factors whose indices differ by at most
    one, so one right-to-left pass decides it: each factor takes the
    latest slot of its index before the slots of the next later factors
    of indices j-1, j and j+1, which leaves the most room to its left.
    """
    ranks: dict[int, list[int]] = {}
    for si, j in enumerate(indices):
        ranks.setdefault(j, []).append(si)
    nearest: dict[int, int] = {}  # factor index -> slot of its next later factor
    assign = {}
    for wp in range(len(word) - 1, -1, -1):
        j = word[wp][0]
        before = min(nearest.get(i, len(indices)) for i in (j - 1, j, j + 1))
        k = bisect_left(ranks.get(j, ()), before)
        if k == 0:
            return None
        nearest[j] = ranks[j][k - 1]
        assign[nearest[j]] = wp
    return assign


def normalize_commutation(factors, n: int | None = None) -> SEBFactorization:
    """Reorder a product of elementary factors into canonical form.

    Only the listed relations are used: lower (or upper) factors commute
    when their indices differ by more than one; lower and upper factors
    commute when their indices differ; zero multipliers and identity
    diagonals vanish.  A nonidentity diagonal commutes with nothing, so
    it must already separate the lower factors from the upper ones.
    Each side takes one linear pass of :func:`_assign_word_to_slots` over
    the lower product order: the L word as it stands, and the U word
    reversed, the L word of the transpose, which :meth:`ChainLayout.mirror`
    maps back; so the transposed word normalizes to the transposed result.
    A shuffle of a canonical word gets that factorization back; a side
    that cannot reach canonical order, as in ``L3(1) L3(1)``, keeps its
    latest-slot placement, a non-canonical factorization of the product.
    Raises :class:`ParamOutOfRange` when a given ``n`` is not an int (a
    bool is not) of at least 2, :class:`NotNormalizable` when the
    relations rule the word out, :class:`InvariantViolation` when the
    placement changes the product, and :class:`FeasibilityExceeded`,
    before any layout is built, past :data:`NORMALIZE_SLOT_LIMIT` slots.
    """
    factors = list(factors)
    if n is not None and (not _is_int(n) or n < 2):
        raise ParamOutOfRange(f"dimension must be an int >= 2, got {n!r}")
    if n is None:
        dims = [len(fac.diag) for fac in factors if fac.kind == "D"]
        idxs = [fac.index for fac in factors if fac.kind != "D"]
        if dims:
            n = dims[0]
        elif idxs:
            n = max(idxs)
        else:
            raise NotNormalizable("cannot infer dimension from an empty product")
    _check_slot_limit(n)

    diag = None
    seq: list[EBFactor] = []
    for fac in factors:
        if fac.kind == "D":
            if len(fac.diag) != n:
                raise NotNormalizable("diagonal length does not match n")
            if any(x <= 0 for x in fac.diag):
                raise NotNormalizable("diagonal entries must be positive")
            if all(x == 1 for x in fac.diag):
                continue
            if diag is not None:
                raise NotNormalizable("more than one nonidentity diagonal factor")
            diag = fac.diag
            seq.append(fac)
        else:
            if not 2 <= fac.index <= n:
                raise NotNormalizable(f"factor index {fac.index} outside [2, {n}]")
            if fac.multiplier < 0:
                raise NotNormalizable("multipliers must be nonnegative")
            if fac.multiplier == 0:
                continue
            seq.append(fac)

    # a nonidentity diagonal is a barrier: lower factors before, upper after
    if diag is not None:
        d_pos = next(i for i, fac in enumerate(seq) if fac.kind == "D")
        for i, fac in enumerate(seq):
            if fac.kind == "L" and i > d_pos:
                raise NotNormalizable("lower factor to the right of the diagonal")
            if fac.kind == "U" and i < d_pos:
                raise NotNormalizable("upper factor to the left of the diagonal")

    # every lower factor must precede every equal-index upper factor
    seen_upper: set[int] = set()
    for fac in seq:
        if fac.kind == "U":
            seen_upper.add(fac.index)
        elif fac.kind == "L" and fac.index in seen_upper:
            raise NotNormalizable(
                f"L{fac.index} appears after U{fac.index}; they do not commute"
            )

    layout = chain_layout(n)
    flats = []
    for side, kind, facs in (("lower", "L", seq), ("upper", "U", seq[::-1])):
        word = tuple((fac.index, fac.multiplier) for fac in facs if fac.kind == kind)
        assign = _assign_word_to_slots(word, layout.lower_indices)
        if assign is None:
            raise NotNormalizable(f"{side} factors cannot reach canonical order")
        flat = [_ZERO] * multiplier_count(n)
        for p, wp in assign.items():  # lower product order is flat order
            flat[p] = word[wp][1]
        flats.append(flat)

    d = diag if diag is not None else (_ONE,) * n
    f = SEBFactorization(n, flats[0], d, layout.mirror(flats[1]))
    product = _word_columns(_int_word(seq), n)
    if not _same_columns(_word_columns(_int_word(f.factor_sequence()), n), product):
        raise InvariantViolation("normalization changed the composed matrix")
    return f


# -- file formats --------------------------------------------------------------


def factorization_to_json_dict(f: SEBFactorization) -> dict:
    return {
        "n": f.n,
        "l": [format_rational(x) for x in f.l],
        "d": [format_rational(x) for x in f.d],
        "u": [format_rational(x) for x in f.u],
    }


def factorization_from_json_dict(doc: dict) -> SEBFactorization:
    try:
        n = coerce_rational(doc["n"])
        if n.denominator != 1:
            raise MalformedNumber(f"dimension {format_rational(n)} is not an integer")
        if not all(isinstance(doc[key], list) for key in "ldu"):
            raise ShapeMismatch("factorization fields l, d and u must be lists")
        return SEBFactorization(
            n=int(n),
            l=tuple(coerce_rational(x) for x in doc["l"]),
            d=tuple(coerce_rational(x) for x in doc["d"]),
            u=tuple(coerce_rational(x) for x in doc["u"]),
        )
    except KeyError as exc:
        raise ShapeMismatch(f"factorization document missing field {exc}") from exc


def dumps_factorization(f: SEBFactorization) -> str:
    return json.dumps(factorization_to_json_dict(f), indent=2) + "\n"


def loads_factorization(text: str) -> SEBFactorization:
    return factorization_from_json_dict(json.loads(text))


def factorization_to_text(f: SEBFactorization) -> str:
    """Factor-sequence form, e.g. ``L3(1) L2(2) L3(3) D(1,2,3) U3(2) ...``."""
    return " ".join(str(fac) for fac in f.factor_sequence())


_TOKEN_RE = re.compile(r"([LU])(\d+)\(([^()]*)\)|D\(([^()]*)\)|(\S+)")


def parse_factor_text(text: str) -> list[EBFactor]:
    """Tokenize the factor-sequence form into elementary factors.  An empty
    cell in ``D(...)`` is malformed; ``D()`` is an empty diagonal."""
    out: list[EBFactor] = []
    for m in _TOKEN_RE.finditer(text):
        if m.group(5) is not None:
            raise MalformedNumber(f"unrecognized factor token {m.group(5)!r}")
        if m.group(4) is not None:
            cells = m.group(4).split(",") if m.group(4).strip() else []
            out.append(ebd(coerce_rational(c) for c in cells))
        else:
            # parse_rational, unlike int, maps an index past the digit limit
            kind, idx, val = m.group(1), int(parse_rational(m.group(2))), m.group(3)
            out.append(EBFactor(kind, index=idx, multiplier=coerce_rational(val)))
    return out


def factorization_from_text(text: str, n: int | None = None) -> SEBFactorization:
    return normalize_commutation(parse_factor_text(text), n=n)
