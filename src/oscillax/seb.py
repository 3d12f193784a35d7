"""Elementary bidiagonal factors and the successive factorization.

An invertible totally nonnegative matrix factors uniquely as

    A = W_2(l^2) ... W_n(l^n) . D . Q_n(u^n) ... Q_2(u^2)

where W_i(v) = L_n(v_1) L_{n-1}(v_2) ... L_i(v_{n-i+1}) is a descending
chain of lower elementary factors, Q_i(v) = U_i(v_1) ... U_n(v_{n-i+1})
the ascending upper chain, and D a positive diagonal.  Flat multiplier
vectors store l^2 ++ l^3 ++ ... ++ l^n (and the same layout for u), so
the slice for chain i starts at offset x_i = (i-2)n - (i-3)i/2.

Factorizations are produced by Neville elimination: columns left to
right, within each column bottom-up, always pivoting on the row directly
above.  The transposed pass yields the upper multipliers and diagonal.
In the produced form, each chain's positive slots are a contiguous run
starting at the chain's own index; this is what makes the factorization
unique, and round-tripping reproduces it exactly.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import (
    IndexOutOfRange,
    InvariantViolation,
    MalformedNumber,
    NotITN,
    NotNormalizable,
    ShapeMismatch,
)
from .matrix import Matrix
from .rational import coerce_rational, format_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- elementary factors ------------------------------------------------------


@dataclass(frozen=True)
class EBFactor:
    """One factor of a bidiagonal product.

    kind 'L' or 'U' carries (index, multiplier); kind 'D' carries the
    positive diagonal.
    """

    kind: str
    index: int | None = None
    multiplier: Fraction | None = None
    diag: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.kind in ("L", "U"):
            if self.index is None or self.multiplier is None:
                raise ValueError("L/U factors need an index and a multiplier")
            object.__setattr__(self, "multiplier", coerce_rational(self.multiplier))
        elif self.kind == "D":
            if self.diag is None:
                raise ValueError("D factor needs diagonal entries")
            object.__setattr__(
                self, "diag", tuple(coerce_rational(x) for x in self.diag)
            )
        else:
            raise ValueError(f"unknown factor kind {self.kind!r}")

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


def x_offset(i: int, n: int) -> int:
    """1-based start of the chain-i slice within a flat multiplier vector."""
    if not 2 <= i <= n:
        raise IndexOutOfRange(f"chain index {i} outside [2, {n}]")
    return (i - 2) * n - (i - 3) * i // 2


def flat_slot(i: int, factor_index: int, n: int) -> int:
    """0-based flat position of factor L_j inside lower chain i.

    Lower chains list factors L_n .. L_i, so the chain's own factor sits
    in the last slot of its slice.
    """
    if not i <= factor_index <= n:
        raise IndexOutOfRange(f"factor {factor_index} not in chain {i}")
    return x_offset(i, n) - 1 + (n - factor_index)


def upper_flat_slot(i: int, factor_index: int, n: int) -> int:
    if not i <= factor_index <= n:
        raise IndexOutOfRange(f"factor {factor_index} not in chain {i}")
    return x_offset(i, n) - 1 + (factor_index - i)


@dataclass(frozen=True)
class SEBFactorization:
    """Flat multipliers and diagonal of a successive bidiagonal product."""

    n: int
    l: tuple[Fraction, ...]
    d: tuple[Fraction, ...]
    u: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise ShapeMismatch("factorizations require n >= 2")
        k = multiplier_count(n)
        lv = tuple(coerce_rational(x) for x in self.l)
        uv = tuple(coerce_rational(x) for x in self.u)
        dv = tuple(coerce_rational(x) for x in self.d)
        if len(lv) != k or len(uv) != k:
            raise ShapeMismatch(f"flat multiplier vectors must have length {k}")
        if len(dv) != n:
            raise ShapeMismatch(f"diagonal must have length {n}")
        if any(x < 0 for x in lv) or any(x < 0 for x in uv):
            raise ValueError("multipliers must be nonnegative")
        if any(x <= 0 for x in dv):
            raise ValueError("diagonal entries must be positive")
        object.__setattr__(self, "l", lv)
        object.__setattr__(self, "u", uv)
        object.__setattr__(self, "d", dv)

    @property
    def k(self) -> int:
        return multiplier_count(self.n)

    def l_chain(self, i: int) -> tuple[Fraction, ...]:
        x = x_offset(i, self.n)
        return self.l[x - 1 : x - 1 + self.n - i + 1]

    def u_chain(self, i: int) -> tuple[Fraction, ...]:
        x = x_offset(i, self.n)
        return self.u[x - 1 : x - 1 + self.n - i + 1]

    def factor_sequence(self, include_zero: bool = False) -> tuple[EBFactor, ...]:
        """Factors in product order; zero multipliers are elided by default."""
        n = self.n
        out: list[EBFactor] = []
        for i in range(2, n + 1):
            chain = self.l_chain(i)
            for t, q in enumerate(chain):
                if q or include_zero:
                    out.append(ebl(n - t, q))
        out.append(ebd(self.d))
        for i in range(n, 1, -1):
            chain = self.u_chain(i)
            for t, q in enumerate(chain):
                if q or include_zero:
                    out.append(ebu(i + t, q))
        return tuple(out)


def identity_factorization(n: int) -> SEBFactorization:
    k = multiplier_count(n)
    return SEBFactorization(n, (_ZERO,) * k, (_ONE,) * n, (_ZERO,) * k)


def _add_column(rows: list[list[Fraction]], dst: int, src: int, q: Fraction) -> None:
    """Column ``dst`` += q * column ``src`` (0-based), in place.

    This is right-multiplication by one elementary factor: L_j(q) is
    ``dst = j-2, src = j-1`` and U_j(q) is ``dst = j-1, src = j-2``.
    """
    for row in rows:
        row[dst] += q * row[src]


def _scale_columns(rows: list[list[Fraction]], diag) -> None:
    """Right-multiply by a diagonal factor, in place."""
    for c, scale in enumerate(diag):
        for row in rows:
            row[c] *= scale


def _identity_rows(n: int) -> list[list[Fraction]]:
    return [[_ONE if r == c else _ZERO for c in range(n)] for r in range(n)]


def compose(f: SEBFactorization) -> Matrix:
    """Exact product of all factors in canonical order.

    Each elementary factor is applied as a single column operation, so
    composition costs O(k n) rational operations.
    """
    n = f.n
    rows = _identity_rows(n)
    for i in range(2, n + 1):
        for t, q in enumerate(f.l_chain(i)):
            if q:
                j = n - t  # right-multiply by L_j(q)
                _add_column(rows, j - 2, j - 1, q)
    _scale_columns(rows, f.d)
    for i in range(n, 1, -1):
        for t, q in enumerate(f.u_chain(i)):
            if q:
                j = i + t  # right-multiply by U_j(q)
                _add_column(rows, j - 1, j - 2, q)
    return Matrix(rows)


def _word_product(factors, n: int) -> Matrix:
    """Exact product of elementary factors in the given order, one column
    operation per factor (O(n) each)."""
    rows = _identity_rows(n)
    for fac in factors:
        if fac.kind == "D":
            _scale_columns(rows, fac.diag)
        elif fac.kind == "L":
            _add_column(rows, fac.index - 2, fac.index - 1, fac.multiplier)
        else:
            _add_column(rows, fac.index - 1, fac.index - 2, fac.multiplier)
    return Matrix(rows)


# -- Neville elimination -----------------------------------------------------


def _lower_elimination(work: list[list[Fraction]], n: int) -> list[Fraction]:
    """Eliminate below the diagonal in place; return the flat multipliers.

    Columns are processed left to right, each column bottom-up, pivoting
    on the row directly above.  A zero pivot under a nonzero entry, or a
    negative multiplier, disqualifies the input.
    """
    flat = [_ZERO] * multiplier_count(n)
    for c in range(n - 1):
        base = x_offset(c + 2, n) - 1
        for r in range(n - 1, c, -1):
            val = work[r][c]
            if val == 0:
                continue
            piv = work[r - 1][c]
            if piv == 0:
                raise NotITN(
                    f"zero pivot above nonzero entry at row {r + 1}, column {c + 1}"
                )
            q = val / piv
            if q < 0:
                raise NotITN(
                    f"negative multiplier {q} at row {r + 1}, column {c + 1}"
                )
            above = work[r - 1]
            row = work[r]
            for j in range(c, n):
                row[j] -= q * above[j]
            flat[base + (n - 1 - r)] = q
    return flat


def neville_factorize(a: Matrix) -> SEBFactorization:
    """Factor an invertible totally nonnegative matrix exactly.

    Raises :class:`NotITN` when elimination needs a negative multiplier,
    meets a zero pivot above a nonzero entry, or produces a nonpositive
    diagonal; by the classical characterization this happens exactly for
    inputs that are not invertible TN.
    """
    if not a.is_square():
        raise ShapeMismatch("factorization requires a square matrix")
    n = a.rows
    if n < 2:
        raise ShapeMismatch("factorization requires n >= 2")
    work = [list(row) for row in a.entries]
    l_flat = _lower_elimination(work, n)

    # transpose the upper-triangular remainder and repeat
    workt = [[work[c][r] for c in range(n)] for r in range(n)]
    v_flat = _lower_elimination(workt, n)
    diag = tuple(workt[i][i] for i in range(n))
    if any(x <= 0 for x in diag):
        raise NotITN(f"nonpositive diagonal {[str(x) for x in diag]}")
    for r in range(n):
        for c in range(n):
            if r != c and workt[r][c] != 0:
                raise InvariantViolation("elimination left a nondiagonal residue")

    # upper multipliers: transposing a descending lower chain yields the
    # ascending upper chain with the slice reversed
    u_flat = [_ZERO] * multiplier_count(n)
    for i in range(2, n + 1):
        x = x_offset(i, n) - 1
        width = n - i + 1
        chain = v_flat[x : x + width]
        u_flat[x : x + width] = chain[::-1]

    f = SEBFactorization(n, tuple(l_flat), diag, tuple(u_flat))
    if compose(f) != a:
        raise InvariantViolation("factorization does not reproduce the input")
    return f


# -- packed views and groupings ----------------------------------------------


@dataclass(frozen=True)
class PackedParams:
    """Chain-sliced view of the flat multipliers (a derived view only)."""

    n: int
    l_vectors: dict[int, tuple[Fraction, ...]] = field(repr=False)
    u_vectors: dict[int, tuple[Fraction, ...]] = field(repr=False)
    offsets: dict[int, int] = field(repr=False)


def pack_parameters(f: SEBFactorization) -> PackedParams:
    n = f.n
    return PackedParams(
        n=n,
        l_vectors={i: f.l_chain(i) for i in range(2, n + 1)},
        u_vectors={i: f.u_chain(i) for i in range(2, n + 1)},
        offsets={i: x_offset(i, n) for i in range(2, n + 1)},
    )


@dataclass(frozen=True)
class WQForm:
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


def _family_counts(f: SEBFactorization, side: str) -> dict[int, int]:
    """Number of positive multipliers attached to each factor index."""
    n = f.n
    counts = {i: 0 for i in range(2, n + 1)}
    for i in range(2, n + 1):
        chain = f.l_chain(i) if side == "L" else f.u_chain(i)
        for t, q in enumerate(chain):
            j = (n - t) if side == "L" else (i + t)
            if q > 0:
                counts[j] += 1
    return counts


def is_basic_factorization(f: SEBFactorization) -> bool:
    """Exactly one positive multiplier per factor index on each side."""
    lc = _family_counts(f, "L")
    uc = _family_counts(f, "U")
    return all(v == 1 for v in lc.values()) and all(v == 1 for v in uc.values())


def classify_factorization(f: SEBFactorization) -> FactorizationClass:
    """Positivity-pattern classification of a factorization.

    All multipliers positive gives TP; at least one positive multiplier
    per factor index on each side gives oscillatory; exactly one per
    index on each side is the basic oscillatory case.  At n = 2 the TP
    and basic shapes coincide and TP is reported.
    """
    if all(x > 0 for x in f.l) and all(x > 0 for x in f.u):
        return FactorizationClass.TP
    lc = _family_counts(f, "L")
    uc = _family_counts(f, "U")
    if all(v >= 1 for v in lc.values()) and all(v >= 1 for v in uc.values()):
        if is_basic_factorization(f):
            return FactorizationClass.BASIC_OSCILLATORY
        return FactorizationClass.OSCILLATORY
    return FactorizationClass.ITN_ONLY


# -- commutation normalization -------------------------------------------------


def _canonical_lower_slots(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(2, n + 1) for j in range(n, i - 1, -1))


def _canonical_upper_slots(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n, 1, -1) for j in range(i, n + 1))


def _assign_word_to_slots(word, slots):
    """Map word positions to canonical slots using only adjacent swaps of
    commuting factors (indices differing by more than one).

    Returns a dict {slot position: word position} or None.  The search
    consumes, for each slot, the earliest word occurrence of the slot's
    factor index, and only when no earlier unconsumed factor blocks it.
    """
    indices = [j for j, _ in word]

    @lru_cache(maxsize=None)
    def solve(si: int, remaining: frozenset):
        if not remaining:
            return ()
        if si == len(slots):
            return None
        _, slot_j = slots[si]
        ordered = sorted(remaining)
        take = None
        for p in ordered:
            if indices[p] == slot_j:
                blocked = any(
                    q < p and abs(indices[q] - slot_j) <= 1 for q in ordered
                )
                if not blocked:
                    take = p
                break
        # prefer deferring a factor to a later chain when both fit
        deferred = solve(si + 1, remaining)
        if deferred is not None:
            return deferred
        if take is not None:
            taken = solve(si + 1, remaining - {take})
            if taken is not None:
                return ((si, take),) + taken
        return None

    result = solve(0, frozenset(range(len(word))))
    solve.cache_clear()
    return None if result is None else dict(result)


def _factor_multiset(f: SEBFactorization):
    n = f.n
    lower = sorted(
        (n - t, q)
        for i in range(2, n + 1)
        for t, q in enumerate(f.l_chain(i))
        if q
    )
    upper = sorted(
        (i + t, q)
        for i in range(2, n + 1)
        for t, q in enumerate(f.u_chain(i))
        if q
    )
    return lower, upper, f.d


def normalize_commutation(factors, n: int | None = None) -> SEBFactorization:
    """Reorder a product of elementary factors into canonical form.

    Only the listed relations are used: lower (or upper) factors commute
    when their indices differ by more than one; lower and upper factors
    commute when their indices differ; zero multipliers and identity
    diagonals vanish.  A nonidentity diagonal commutes with nothing, so
    it must already separate the lower factors from the upper ones.
    Raises :class:`NotNormalizable` when no such reordering exists.
    """
    factors = list(factors)
    if n is None:
        dims = [len(fac.diag) for fac in factors if fac.kind == "D"]
        idxs = [fac.index for fac in factors if fac.kind != "D"]
        if dims:
            n = dims[0]
        elif idxs:
            n = max(idxs)
        else:
            raise NotNormalizable("cannot infer dimension from an empty product")

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

    lower_word = [(fac.index, fac.multiplier) for fac in seq if fac.kind == "L"]
    upper_word = [(fac.index, fac.multiplier) for fac in seq if fac.kind == "U"]

    lower_slots = _canonical_lower_slots(n)
    upper_slots = _canonical_upper_slots(n)
    l_assign = _assign_word_to_slots(tuple(lower_word), lower_slots)
    if l_assign is None:
        raise NotNormalizable("lower factors cannot reach canonical order")
    u_assign = _assign_word_to_slots(tuple(upper_word), upper_slots)
    if u_assign is None:
        raise NotNormalizable("upper factors cannot reach canonical order")

    k = multiplier_count(n)
    l_flat = [_ZERO] * k
    for si, wp in l_assign.items():
        i, j = lower_slots[si]
        l_flat[flat_slot(i, j, n)] = lower_word[wp][1]
    u_flat = [_ZERO] * k
    for si, wp in u_assign.items():
        i, j = upper_slots[si]
        u_flat[upper_flat_slot(i, j, n)] = upper_word[wp][1]

    d = diag if diag is not None else (_ONE,) * n
    f = SEBFactorization(n, tuple(l_flat), tuple(d), tuple(u_flat))

    product = _word_product(seq, n)
    if compose(f) != product:
        raise InvariantViolation("normalization changed the composed matrix")

    # re-express in elimination-canonical coordinates when that keeps the
    # same factors (it always should; the raw assignment is the fallback)
    canonical = neville_factorize(product)
    if _factor_multiset(canonical) == _factor_multiset(f):
        return canonical
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
        return SEBFactorization(
            n=int(doc["n"]),
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
    """Tokenize the factor-sequence form into elementary factors."""
    out: list[EBFactor] = []
    for m in _TOKEN_RE.finditer(text):
        if m.group(5) is not None:
            raise MalformedNumber(f"unrecognized factor token {m.group(5)!r}")
        if m.group(4) is not None:
            cells = [c for c in m.group(4).split(",") if c.strip()]
            out.append(ebd(coerce_rational(c) for c in cells))
        else:
            kind, idx, val = m.group(1), int(m.group(2)), m.group(3)
            out.append(EBFactor(kind, index=idx, multiplier=coerce_rational(val)))
    return out


def factorization_from_text(text: str, n: int | None = None) -> SEBFactorization:
    return normalize_commutation(parse_factor_text(text), n=n)
