"""Independent reference implementations used only by the tests."""

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import le
from typing import NamedTuple

from oscillax.cells import SIDES, demazure
from oscillax.classify import (
    ClassificationReport,
    CornerSpec,
    _first_minor,
    _require_min_shape,
    corner_index_sets,
)
from oscillax.errors import (
    ClassMismatch,
    FeasibilityExceeded,
    IndexOutOfRange,
    InvariantViolation,
    NotITN,
    NotNormalizable,
    NotOscillatory,
    ParamOutOfRange,
    ShapeMismatch,
)
from oscillax.exponent import (
    ClassMatch,
    ClassTag,
    CornerZeroWitness,
    ExponentReport,
    ProductFamilyResult,
    enumerate_psi_patterns,
    exponent_bruteforce,
    lower_part,
    recognize_sides,
    upper_part,
    z1_slots,
    z2_slots,
)
from oscillax.matrix import Matrix, _scaled, det, mat_mul, mat_pow, minor, minor_levels
from oscillax.planar import (
    INFINITE_COPIES,
    PlanarNetwork,
    build_network,
    concat_copies,
    lower_corner_tracks,
    min_copies_lower_corner,
    minor_via_paths,
)
from oscillax.seb import (
    NORMALIZE_SLOT_LIMIT,
    EBFactor,
    FactorizationClass,
    SEBFactorization,
    _assign_word_to_slots,
    _word_product,
    chain_layout,
    classify_factorization,
    compose,
    ebd,
    ebl,
    multiplier_count,
    n_from_flat,
    neville_factorize,
)
from oscillax.rational import format_rational
from oscillax.verify import _OSCILLATION_CRITERIA, _by_gk

_ZERO = Fraction(0)
_ONE = Fraction(1)


def laplace_det(rows):
    """Cofactor expansion along the first row; exponential but independent
    of the elimination kernel it checks."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        coeff = rows[0][j]
        if coeff == 0:
            continue
        sub = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = coeff * laplace_det(sub)
        total += term if j % 2 == 0 else -term
    return total


def laplace_minor(matrix, row_set, col_set):
    sub = [[matrix[i - 1, j - 1] for j in col_set] for i in row_set]
    return laplace_det(sub)


def fraction_mat_mul(a, b):
    """The matrix product summed entry by entry in ``Fraction``: the
    reference for the integer kernel of ``matrix.mat_mul``."""
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = tuple(zip(*b.entries))
    return Matrix(
        [
            [sum(x * y for x, y in zip(row, col)) for col in bt]
            for row in a.entries
        ]
    )


def fraction_det_bareiss(rows):
    """Bareiss elimination carried out in ``Fraction``: the reference for
    the integer kernel of ``matrix._det_bareiss``."""
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = _ONE
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return _ZERO
        piv = m[i][i]
        for r in range(i + 1, n):
            mri = m[r][i]
            row_r = m[r]
            row_i = m[i]
            for c in range(i + 1, n):
                row_r[c] = (row_r[c] * piv - mri * row_i[c]) / prev
            row_r[i] = _ZERO
        prev = piv
    return sign * m[n - 1][n - 1]


def staircase_flat(n, rng, side):
    """Random flat multipliers in elimination-canonical form: each chain's
    positive slots form a contiguous run anchored at the chain's own factor."""
    k = multiplier_count(n)
    flat = [Fraction(0)] * k
    for i in range(2, n + 1):
        width = n - i + 1
        t = rng.randint(0, width)
        x = chain_layout(n).chain(i).start
        span = range(x + width - t, x + width) if side == "l" else range(x, x + t)
        for pos in span:
            flat[pos] = Fraction(rng.randint(1, 9))
    return tuple(flat)


def random_canonical_factorization(n, rng):
    return SEBFactorization(
        n,
        staircase_flat(n, rng, "l"),
        tuple(Fraction(rng.randint(1, 5)) for _ in range(n)),
        staircase_flat(n, rng, "u"),
    )


def commutes(f1, f2):
    """Adjacent factors that the normalizer's relations let trade places:
    an identity factor with any factor, two L (or two U) factors whose
    indices differ by more than one, and an L and a U factor of different
    indices."""
    if any(all(x == 1 for x in f.diag) if f.kind == "D" else f.multiplier == 0
           for f in (f1, f2)):
        return True
    if f1.kind == "D" or f2.kind == "D":
        return False
    if f1.kind == f2.kind:
        return abs(f1.index - f2.index) > 1
    return f1.index != f2.index


def commutation_shuffle(word, rng, swaps):
    """A copy of ``word`` after ``swaps`` draws of an adjacent pair, each
    pair swapped when :func:`commutes` lets it; so the same product."""
    word = list(word)
    for _ in range(swaps if len(word) > 1 else 0):
        i = rng.randrange(len(word) - 1)
        if commutes(word[i], word[i + 1]):
            word[i], word[i + 1] = word[i + 1], word[i]
    return word


@lru_cache(maxsize=None)
def enumerated_class_catalog(n):
    """Canonical-support table for every class shape at dimension n, one
    match per partial-chain pattern.

    Each shape is instantiated with unit multipliers, composed, and
    refactorized; the support of the canonical flat vector depends only
    on the shape, not on the multiplier values.
    """
    catalog: dict[frozenset[int], list[ClassMatch]] = {}

    def add(slots: frozenset[int], match: ClassMatch):
        flat = [_ZERO] * multiplier_count(n)
        for pos in slots:
            flat[pos] = _ONE
        part = SEBFactorization(
            n, tuple(flat), (_ONE,) * n, (_ZERO,) * multiplier_count(n)
        )
        canon = neville_factorize(compose(part))
        support = frozenset(p for p, v in enumerate(canon.l) if v > 0)
        catalog.setdefault(support, []).append(match)

    for s in range(2, n + 1):
        add(z1_slots(n, s), ClassMatch("Z1", s, None))
    for s in range(2, n + 1):
        for psi in enumerate_psi_patterns(n, s):
            key = None if psi is None else tuple(sorted(psi))
            add(z2_slots(n, s, psi), ClassMatch("Z2", s, key))
    # distinct shapes sharing one canonical support describe the same
    # matrices, so their formula values must coincide
    for supp, ms in catalog.items():
        values = {m.mu(n) for m in ms}
        if len(values) != 1:
            raise InvariantViolation(
                f"classes {ms} share a support but disagree on the formula"
            )
    return {supp: tuple(sorted(ms)) for supp, ms in catalog.items()}


def fraction_word_product(factors, n):
    """Product of a factor word by one column operation per factor on
    ``Fraction`` entries: D scales the columns, an L/U factor adds its
    multiplier times column source to column destination."""
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for fac in factors:
        if fac.kind == "D":
            for row in rows:
                for c, scale in enumerate(fac.diag):
                    row[c] *= scale
        else:
            src, dst = fac.tracks
            q = fac.multiplier
            for row in rows:
                row[dst - 1] += q * row[src - 1]
    return Matrix(rows)


def _fraction_lower_elimination(work, n):
    """Eliminate below the diagonal of ``Fraction`` rows in place, one
    ``Fraction`` operation per entry update; return the flat multipliers."""
    layout = chain_layout(n)
    flat = [_ZERO] * multiplier_count(n)
    for c in range(n - 1):
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
            flat[layout.lower_slot(c + 2, r + 1)] = q
    return flat


def fraction_neville_factorize(a):
    """Neville elimination on ``Fraction`` entries, with the same checks,
    messages and check order as ``seb.neville_factorize``."""
    if not a.is_square():
        raise ShapeMismatch("factorization requires a square matrix")
    n = a.rows
    if n < 2:
        raise ShapeMismatch("factorization requires n >= 2")
    work = [list(row) for row in a.entries]
    l_flat = _fraction_lower_elimination(work, n)
    workt = [[work[c][r] for c in range(n)] for r in range(n)]
    v_flat = _fraction_lower_elimination(workt, n)
    diag = tuple(workt[i][i] for i in range(n))
    if any(x <= 0 for x in diag):
        raise NotITN(f"nonpositive diagonal {[format_rational(x) for x in diag]}")
    for r in range(n):
        for c in range(n):
            if r != c and workt[r][c] != 0:
                raise InvariantViolation("elimination left a nondiagonal residue")
    f = SEBFactorization(n, tuple(l_flat), diag, chain_layout(n).mirror(v_flat))
    if compose(f) != a:
        raise InvariantViolation("factorization does not reproduce the input")
    return f


def dense_word_product(factors, n):
    """Product of a factor word by one dense n x n multiplication per
    factor, starting from the identity."""
    product = Matrix.identity(n)
    for fac in factors:
        product = mat_mul(product, fac.matrix(n))
    return product


def dense_word_columns(word, n):
    """:func:`dense_word_product` of an int word of ``seb._word_columns``,
    in its ``(cols, den)`` form."""
    factors = [
        ebd(map(Fraction, a, b)) if kind == "D" else EBFactor(kind, i, Fraction(a, b))
        for kind, i, a, b in word
    ]
    cols, d = _scaled(list(zip(*dense_word_product(factors, n).entries)))
    return cols, [d] * n


def _side(f, side):
    """The flat multipliers of one side and its (position, factor) order."""
    return (f.l if side == "L" else f.u), product_order(f.n, side)


def _family_counts(f, side):
    """Number of positive multipliers attached to each factor index."""
    flat, order = _side(f, side)
    counts = {i: 0 for i in range(2, f.n + 1)}
    for p, j in order:
        if flat[p] > 0:
            counts[j] += 1
    return counts


def flat_layout_classification(f):
    """(``classify_factorization(f)``, ``is_basic_factorization(f)``) from
    index counts read off each side's flat layout, not off the factor word."""
    lc = _family_counts(f, "L")
    uc = _family_counts(f, "U")
    basic = all(v == 1 for v in lc.values()) and all(v == 1 for v in uc.values())
    if all(x > 0 for x in f.l) and all(x > 0 for x in f.u):
        return FactorizationClass.TP, basic
    if all(v >= 1 for v in lc.values()) and all(v >= 1 for v in uc.values()):
        if basic:
            return FactorizationClass.BASIC_OSCILLATORY, basic
        return FactorizationClass.OSCILLATORY, basic
    return FactorizationClass.ITN_ONLY, basic


def search_assign_word_to_slots(word, indices):
    """Map word positions to canonical slots using only adjacent swaps of
    commuting factors (indices differing by more than one).  ``indices``
    holds the factor index of each slot, in product order.

    Returns a dict {slot position: word position} or None.  The search
    consumes, for each slot, the earliest word occurrence of the slot's
    factor index, and only when no earlier unconsumed factor blocks it.
    """
    word_indices = [j for j, _ in word]

    @lru_cache(maxsize=None)
    def solve(si: int, remaining: frozenset):
        if not remaining:
            return ()
        if si == len(indices):
            return None
        slot_j = indices[si]
        ordered = sorted(remaining)
        take = None
        for p in ordered:
            if word_indices[p] == slot_j:
                blocked = any(
                    q < p and abs(word_indices[q] - slot_j) <= 1 for q in ordered
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


def refactorizing_normalize_commutation(factors, n=None):
    """The commutation normalizer with a placement rule per side: the U
    word goes onto the upper product order as it stands, and the result
    is refactorized by Neville elimination and replaced by that canonical
    factorization whenever the two carry the same factors.  The reference
    for ``seb.normalize_commutation``: equal refusals on every word, equal
    results wherever this one's result is canonical on both sides, and
    the same product everywhere else."""
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
    if multiplier_count(n) > NORMALIZE_SLOT_LIMIT:
        raise FeasibilityExceeded(
            f"{multiplier_count(n)} slots per side at n={n} exceed the limit"
            f" of {NORMALIZE_SLOT_LIMIT} slots"
        )

    diag = None
    seq = []
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

    if diag is not None:
        d_pos = next(i for i, fac in enumerate(seq) if fac.kind == "D")
        for i, fac in enumerate(seq):
            if fac.kind == "L" and i > d_pos:
                raise NotNormalizable("lower factor to the right of the diagonal")
            if fac.kind == "U" and i < d_pos:
                raise NotNormalizable("upper factor to the left of the diagonal")

    seen_upper = set()
    for fac in seq:
        if fac.kind == "U":
            seen_upper.add(fac.index)
        elif fac.kind == "L" and fac.index in seen_upper:
            raise NotNormalizable(
                f"L{fac.index} appears after U{fac.index}; they do not commute"
            )

    lower_word = [(fac.index, fac.multiplier) for fac in seq if fac.kind == "L"]
    upper_word = [(fac.index, fac.multiplier) for fac in seq if fac.kind == "U"]

    flats = []
    for word, kind, side in ((lower_word, "L", "lower"), (upper_word, "U", "upper")):
        slots = product_order(n, kind)
        assign = _assign_word_to_slots(tuple(word), [j for _, j in slots])
        if assign is None:
            raise NotNormalizable(f"{side} factors cannot reach canonical order")
        flat = [_ZERO] * multiplier_count(n)
        for si, wp in assign.items():
            flat[slots[si][0]] = word[wp][1]
        flats.append(tuple(flat))

    d = diag if diag is not None else (_ONE,) * n
    f = SEBFactorization(n, flats[0], tuple(d), flats[1])

    product = _word_product(seq, n)
    canonical = neville_factorize(product)
    if f == canonical:
        return canonical
    if compose(f) != product:
        raise InvariantViolation("normalization changed the composed matrix")
    if sorted(canonical.factor_sequence()) == sorted(f.factor_sequence()):
        return canonical
    return f


def min_copies_restart(net, c):
    """Copy count of a lower-left corner by sweeping 1, 2, ..., n-1
    concatenated copies, each from scratch; a corner with some index j
    that no positive-weight L_j layer descends is never reachable."""
    n = net.n
    sources, sinks = lower_corner_tracks(n, c)
    down_levels = {l.index for l in net.layers if l.kind == "L" and l.multiplier > 0}
    if not set(range(2, n + 1)) <= down_levels:
        return INFINITE_COPIES
    for copies in range(1, n):
        if minor_via_paths(concat_copies(net, copies), sources, sinks) > 0:
            return copies
    raise InvariantViolation(
        f"no disjoint family for corner size {c} within {n - 1} copies"
    )


def token_corner_copies(descents, n):
    """Copy counts of the lower-left corners, sizes 1..n-1, by one token
    simulation per corner: tokens start on tracks n-c+1..n, and at each
    positive L_j, in product order, the token on track j moves to track
    j-1 if that track is free; the count is the first copy that leaves
    tracks 1..c full.  The reference for ``cells.copy_counts``."""
    if not set(range(2, n + 1)) <= set(descents):
        return (float("inf"),) * (n - 1)
    counts = []
    for c in range(1, n):
        occupied = [False] * (n - c + 1) + [True] * c  # tracks 1..n; 0 unused
        copies = 0
        while not all(occupied[1 : c + 1]):
            if copies == n - 1:
                raise InvariantViolation(
                    f"no disjoint family for corner size {c} within {n - 1} copies"
                )
            copies += 1
            for j in descents:
                if occupied[j] and not occupied[j - 1]:
                    occupied[j - 1], occupied[j] = True, False
        counts.append(copies)
    return tuple(counts)



def word_side_indices(word) -> dict:
    """Per side, the indices of a factor word's positive factors that
    carry its corners: the L indices of the word for the lower-left ones,
    and the U indices of the reversed word, the L indices of the
    transpose, for the upper-right ones.  The reference for
    ``seb._side_indices``, which reads them off the flat vectors, and the
    reader of words that are no factorization."""
    return {
        side: [x.index for x in w if x.kind == kind and x.multiplier]
        for side, kind, w in zip(SIDES, "LU", (word, word[::-1]))
    }


def zero_minors_by_tokens(word, n: int, orders):
    """``(rows, cols)`` of every zero minor of the given orders of the
    product of a factor word with nonnegative multipliers, in scan order,
    read off the word alone by walking every pair of row and column
    subsets.  The reference for ``cells.first_zero``.

    The signs come from token sets (``cells.demazure`` on a 0/1 start):
    G_L(I) moves the tokens of the rows I by the word's positive L indices,
    and G_U(J) those of the columns J by the reversed word's positive U
    indices (:func:`word_side_indices`).  By Cauchy–Binet and
    Lindström–Gessel–Viennot, minor (I, J) is positive exactly when some
    sink set K is reached by vertex-disjoint paths both from I in the
    lower network and from J in the upper one.  The sets reached from I
    are the K with G_L(I) <= K <= I entrywise, and likewise for J, so
    the minor is positive exactly when max(G_L(I)_p, G_U(J)_p) <=
    min(I_p, J_p) for every p; tokens only move up, so that is
    G_L(I) <= J and G_U(J) <= I.  G_U is taken once per column subset and
    G_L once per row subset.
    """
    lower, upper = word_side_indices(word).values()

    def tokens(indices, subset):
        start = [0] * n
        for i in subset:
            start[i - 1] = 1
        return tuple(i for i, x in enumerate(demazure(indices, n, start), 1) if x)

    for p in orders:
        subsets = list(itertools.combinations(range(1, n + 1), p))
        col_tokens = [tokens(upper, cset) for cset in subsets]
        for rset in subsets:
            row_tokens = tokens(lower, rset)
            for cset, gu in zip(subsets, col_tokens):
                if not (all(map(le, row_tokens, cset)) and all(map(le, gu, rset))):
                    yield rset, cset

def scan_tn(a, cap=None):
    """Total nonnegativity by the full minor scan: the first negative minor."""
    return _first_minor(a, cap, lambda value: value < 0)


def scan_tp(a, cap=None):
    """Total positivity by the full minor scan: the first nonpositive minor."""
    return _first_minor(a, cap, lambda value: value <= 0)


def four_criteria_oscillatory(a, cap=None):
    """The verdict of the four oscillation criteria of ``verify``, which
    must agree."""
    verdicts = {name: holds(a, cap) for name, holds in _OSCILLATION_CRITERIA.items()}
    assert len(set(verdicts.values())) == 1, f"criteria disagree: {verdicts}"
    return verdicts["gk"]


def classify_four_criteria(a, cap=None):
    """Classification by separate TN and TP scans, with the oscillatory
    verdict from all four criteria of ``verify``."""
    if not a.is_square():
        raise ShapeMismatch("classification requires a square matrix")
    _require_min_shape(a)
    tn = scan_tn(a, cap)
    tp = scan_tp(a, cap)
    invertible = det(a) != 0
    oscillatory = four_criteria_oscillatory(a, cap)
    basic: bool | None = None
    if tn.ok and invertible:
        from oscillax.seb import is_basic_factorization, neville_factorize

        basic = is_basic_factorization(neville_factorize(a))
    return ClassificationReport(
        n=a.rows,
        is_tn=tn.ok,
        is_invertible=invertible,
        is_tp=tp.ok,
        is_oscillatory=oscillatory,
        is_basic_oscillatory=basic,
        tn_witness=tn.witness,
        tp_witness=tp.witness,
    )


# The closed-form flat layout that ChainLayout replaced.


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


def slot_chain_factor(pos: int, n: int) -> tuple[int, int]:
    """Invert the flat layout: position -> (chain i, factor index j)."""
    for i in range(2, n + 1):
        start = x_offset(i, n) - 1
        width = n - i + 1
        if start <= pos < start + width:
            return i, n - (pos - start)
    raise ParamOutOfRange(f"slot {pos} outside flat vector for n={n}")


@lru_cache(maxsize=None)
def slot_factor_indices(n: int) -> tuple[int, ...]:
    """The factor index of every flat slot, in flat order."""
    return tuple(slot_chain_factor(p, n)[1] for p in range(multiplier_count(n)))


@lru_cache(maxsize=None)
def product_order(n: int, side: str) -> tuple[tuple[int, int], ...]:
    """(flat position, factor index) of every slot of side "L" or "U" in
    product order: W_2 .. W_n, chain i listing L_n .. L_i, and Q_n .. Q_2,
    chain i listing U_i .. U_n."""
    if side == "L":
        return tuple(
            (flat_slot(i, j, n), j) for i in range(2, n + 1) for j in range(n, i - 1, -1)
        )
    return tuple(
        (upper_flat_slot(i, j, n), j) for i in range(n, 1, -1) for j in range(i, n + 1)
    )


def mirror_flat(flat, n: int | None = None) -> tuple[Fraction, ...]:
    """Reverse every chain slice; converts between the lower flat layout
    of a product and the upper flat layout of its transpose."""
    flat = tuple(flat)
    if n is None:
        n = n_from_flat(flat)
    out = list(flat)
    for i in range(2, n + 1):
        x = x_offset(i, n) - 1
        width = n - i + 1
        out[x : x + width] = list(flat[x : x + width])[::-1]
    return tuple(out)


@lru_cache(maxsize=16)
def _per_psi_recognize_class(flat, n, refactorize):
    """Class tag whose matches are the enumerated catalog's, one per
    partial-chain pattern, for the canonical support of a lower flat
    vector: refactorized, or read as given when it is canonical by
    construction."""
    if refactorize:
        part = SEBFactorization(n, flat, (_ONE,) * n, (_ZERO,) * multiplier_count(n))
        flat = neville_factorize(compose(part)).l
    support = frozenset(p for p, v in enumerate(flat) if v > 0)
    catalog = enumerated_class_catalog(n)

    exact = catalog.get(support, ())
    indices = slot_factor_indices(n)
    extra_matches = []
    for supp, matches in catalog.items():
        if supp < support:
            extras = tuple(ebl(indices[p], flat[p]) for p in sorted(support - supp))
            for m in matches:
                extra_matches.append((m, extras))
    extra_matches.sort(key=lambda pair: (len(pair[1]), pair[0]))
    return _oracle_framed_tag(n, exact, extra_matches)


def _run_form(match):
    """The match for the run (s, s+1, ...) its partial-chain pattern keeps
    in canonical form."""
    if match.psi is None:
        return match
    run = itertools.takewhile(set(match.psi).__contains__, itertools.count(match.s))
    return ClassMatch(match.family, match.s, tuple(run))


def refactorizing_recognize_class(l_part_multipliers, n=None, refactorize=True):
    """Class recognition that refactorizes every input vector, canonical
    or not, and looks its support up in the enumerated catalog: the
    reference for ``exponent.recognize_class``.  Matches of one support
    collapse to one in run form, as ``recognize_class`` keeps them.
    ``refactorize=False`` skips the refactorization, for vectors that are
    canonical by construction."""
    flat = tuple(l_part_multipliers)
    if n is None:
        n = n_from_flat(flat)
    tag = _per_psi_recognize_class(flat, n, refactorize)
    return tag._replace(
        exact=tuple(dict.fromkeys(map(_run_form, tag.exact))),
        with_extras=tuple(dict.fromkeys((_run_form(m), e) for m, e in tag.with_extras)),
    )


def _width_class_supports(n):
    """Every class support at dimension n as (widths w_2 .. w_n, family, s,
    run), in ClassMatch order.  Z1(s): chains 2..s full, the rest empty.
    Z2(s, t), s >= 3: chains 2..s-2 singletons, chain s-1 of width 1+t,
    chains s..n full.  Z2(2) shares the support of Z1(n)."""
    full = tuple(range(n - 1, 0, -1))
    for s in range(2, n + 1):
        yield full[: s - 1] + (0,) * (n - s), "Z1", s, None
    yield full, "Z2", 2, None
    for s in range(3, n + 1):
        for t in range(n - s + 1):
            widths = (1,) * (s - 3) + (1 + t,) + full[s - 2 :]
            yield widths, "Z2", s, tuple(range(s, s + t))


def width_recognize_class(l_part_multipliers, n=None):
    """Class recognition by chain widths: each canonical chain support is
    a run, so widths equal to a class's are an exact match, and a class
    whose widths lie below them componentwise is a with-extras base whose
    extras are each chain's surplus factors.  The reference for
    ``exponent.recognize_class`` at any n, stated by width formulas
    rather than by the slot sets of ``z1_slots``/``z2_slots``."""
    flat = tuple(l_part_multipliers)
    if n is None:
        n = n_from_flat(flat)
    layout = chain_layout(n)
    if not layout.is_canonical(flat):
        part = SEBFactorization(n, flat, (_ONE,) * n, (_ZERO,) * len(flat))
        flat = neville_factorize(compose(part)).l
    positive = tuple(x > 0 for x in flat)
    chains = [layout.chain(i) for i in range(2, n + 1)]
    widths = tuple(sum(positive[c]) for c in chains)
    indices = slot_factor_indices(n)

    exact = []
    extra_matches = []
    for base, *match in _width_class_supports(n):
        if base == widths:
            exact.append(ClassMatch(*match))
        elif all(b <= w for b, w in zip(base, widths)):
            extras = tuple(
                ebl(indices[p], flat[p])
                for c, b, w in zip(chains, base, widths)
                for p in range(c.stop - w, c.stop - b)
            )
            extra_matches.append((ClassMatch(*match), extras))
    extra_matches.sort(key=lambda pair: (len(pair[1]), pair[0]))
    return _oracle_framed_tag(n, exact, extra_matches)


def per_psi_class_json(l_part_multipliers, n=None, refactorize=True):
    """The ``oscillax.exponent/1`` rendering of the class tag of
    :func:`refactorizing_recognize_class`, with one ``exact`` label and
    one ``with_extras`` entry per partial-chain pattern of the enumerated
    catalog."""
    flat = tuple(l_part_multipliers)
    if n is None:
        n = n_from_flat(flat)
    tag = _per_psi_recognize_class(flat, n, refactorize)
    return {
        "family": tag.family,
        "s": tag.s,
        "psi": list(tag.psi_pattern) if tag.psi_pattern is not None else None,
        "extras": [str(x) for x in tag.extras],
        "exact": [m.label() for m in tag.exact],
        "with_extras": [
            {"base": m.label(), "extras": [str(x) for x in extras]}
            for m, extras in tag.with_extras
        ],
    }


@lru_cache(maxsize=None)
def slot_class_supports(n):
    """Every class support at dimension n as (canonical flat slots, match),
    in ClassMatch order: Z1(2..n), Z2(2), which shares the slots of Z1(n),
    then Z2(s), s >= 3, once per run (s, ..., s+t-1) its partial chain
    keeps in canonical form."""
    out = [(z1_slots(n, s), ClassMatch("Z1", s, None)) for s in range(2, n + 1)]
    out.append((z2_slots(n, 2, None), ClassMatch("Z2", 2, None)))
    for s in range(3, n + 1):
        for t in range(n - s + 1):
            run = tuple(range(s, s + t))
            out.append((z2_slots(n, s, frozenset(run)), ClassMatch("Z2", s, run)))
    return tuple(out)


def positives_end_each_chain(flat, n):
    """Whether each chain's positive entries in a lower flat vector form
    the end of its slice: canonical form, tested by sorting each chain's
    positivity pattern."""
    layout = chain_layout(n)
    patterns = [[x > 0 for x in flat[layout.chain(i)]] for i in range(2, n + 1)]
    return all(p == sorted(p) for p in patterns)


def slot_recognize_class(l_part_multipliers, n=None):
    """Class recognition by slot sets: a class of :func:`slot_class_supports`
    whose slots equal the positive slots of the canonical vector is an
    exact match, one whose slots are a proper subset of them a with-extras
    base carrying the positive factors outside it, in flat order.  The
    reference for the run rule of ``exponent.recognize_class``, stated by
    the slot sets of ``z1_slots``/``z2_slots``; the vector is refactorized
    unless each chain's positive entries end its slice."""
    flat = tuple(l_part_multipliers)
    if n is None:
        n = n_from_flat(flat)
    if not positives_end_each_chain(flat, n):
        part = SEBFactorization(n, flat, (_ONE,) * n, (_ZERO,) * len(flat))
        flat = neville_factorize(compose(part)).l
    indices = slot_factor_indices(n)
    factors = {p: ebl(indices[p], x) for p, x in enumerate(flat) if x > 0}
    positive = frozenset(factors)

    exact, with_extras = [], []
    for slots, match in slot_class_supports(n):
        if slots == positive:
            exact.append(match)
        elif slots < positive:
            extras = tuple(factors[p] for p in sorted(positive - slots))
            with_extras.append((match, extras))
    with_extras.sort(key=lambda pair: (len(pair[1]), pair[0]))
    return _oracle_framed_tag(n, exact, with_extras)


def _oracle_framed_tag(n, exact, with_extras):
    """A tag framed by its first exact match, else by its first
    with-extras base and that base's extras, else unrecognized."""
    if exact:
        primary, family, extras = exact[0], exact[0].family, ()
    elif with_extras:
        primary, extras = with_extras[0]
        family = f"{primary.family}-plus-extra"
    else:
        return ClassTag(n, "unrecognized", None, None, (), (), ())
    return ClassTag(
        n, family, primary.s, primary.psi, extras, tuple(exact), tuple(with_extras)
    )


def value_keyed_tag_json(tag):
    """The ``oscillax.exponent/1`` rendering of a class tag with each
    factor text looked up by the factor's value, one entry per
    partial-chain pattern, each support's entry repeated by reference:
    the reference for ``ClassTag.to_json_dict``, which looks them up by
    identity."""
    n = tag.n
    text = {
        x: str(x)
        for x in dict.fromkeys(
            itertools.chain(tag.extras, *(e for _, e in tag.with_extras))
        )
    }
    return {
        "family": tag.family,
        "s": tag.s,
        "psi": list(tag.psi_pattern) if tag.psi_pattern is not None else None,
        "extras": [text[x] for x in tag.extras],
        "exact": [
            label for m in tag.exact for label in [m.label()] * m.patterns(n)
        ],
        "with_extras": [
            entry
            for m, extras in tag.with_extras
            for entry in [{"base": m.label(), "extras": [text[x] for x in extras]}]
            * m.patterns(n)
        ],
    }


# Product sweeps with a full minor scan (``scan_tp``) on every product: the
# references for the copy-count verdicts of ``exponent.product_family_check``
# and ``exponent.early_tp_product_scan``.


def _product(mats, combo):
    prod = mats[combo[0]]
    for idx in combo[1:]:
        prod = mat_mul(prod, mats[idx])
    return prod


def _supports(f):
    """Positive slots of the refactorized lower and upper parts."""
    lower = neville_factorize(compose(lower_part(f))).l
    upper = neville_factorize(compose(upper_part(f))).u
    return tuple(x > 0 for x in lower), tuple(x > 0 for x in upper)


def scan_product_family_check(factorizations, k, cap=None):
    members = list(factorizations)
    if not members or k < 1:
        raise ParamOutOfRange("need at least one member and k >= 1")
    if len({_supports(f) for f in members}) != 1:
        raise ClassMismatch("members do not share canonical supports on both sides")
    mats = [compose(f) for f in members]
    if not all(_by_gk(mat, cap) for mat in mats):
        raise NotOscillatory("input is not oscillatory")
    for combo in itertools.product(range(len(members)), repeat=k):
        if not scan_tp(_product(mats, combo), cap).ok:
            return ProductFamilyResult(False, combo)
    return ProductFamilyResult(True, None)


def scan_early_tp_product_scan(factorizations, k, cap=None):
    members = list(factorizations)
    if not members or k < 1:
        raise ParamOutOfRange("need at least one member and k >= 1")
    mats = [compose(f) for f in members]
    exps = [exponent_bruteforce(mat, cap).r for mat in mats]
    hits = []
    for combo in itertools.product(range(len(members)), repeat=k):
        if all(exps[i] > k for i in combo):
            if scan_tp(_product(mats, combo), cap).ok:
                hits.append(tuple(combo))
    return tuple(hits)


def power_loop_exponent_via_theorem(a):
    """The theorem route by matrix powers: each triangular part is composed
    and raised to successive powers until its corner minors turn positive,
    and A^(r-1) is scanned for its first vanishing corner.  The reference
    for the copy counts of ``exponent.exponent_via_theorem``."""
    try:
        f = neville_factorize(a)
    except NotITN as exc:
        raise NotOscillatory(f"not invertible TN: {exc}") from exc
    if classify_factorization(f) is FactorizationClass.ITN_ONLY:
        raise NotOscillatory("factorization misses a factor index on some side")
    rl = power_loop_r_lower(compose(lower_part(f)))
    ru = power_loop_r_upper(compose(upper_part(f)))
    r = max(rl, ru)
    l_tag, u_tag = recognize_sides(f)
    below = mat_pow(a, r - 1) if r > 1 else None
    return ExponentReport(
        n=f.n,
        r=r,
        r_lower=rl,
        r_upper=ru,
        method="theorem",
        l_class=l_tag,
        u_class=u_tag,
        witness_power=a if below is None else mat_mul(below, a),
        zero_witness=zero_corner_witness(below, r),
    )


# The exponent by separate power loops: a full ``scan_tp`` scan of every
# power, then one loop per side that tests all of a side's corners at each
# power, with the zero witness found by scanning the corners of A^(r-1).
# The reference for ``exponent._corner_powers`` and the brute-force route.


def _lower_corners_positive(a):
    n = a.rows
    for size in range(1, n):
        rset, cset = corner_index_sets(n, "lower-left", size)
        if minor(a, rset, cset) <= 0:
            return False
    return True


def power_loop_r_lower(a):
    if not a.is_square():
        raise ParamOutOfRange("square matrix required")
    n = a.rows
    power = a
    for w in range(1, n):
        if _lower_corners_positive(power):
            return w
        if w < n - 1:
            power = mat_mul(power, a)
    raise NotOscillatory(
        f"lower-left corner minors not all positive within {n - 1} powers"
    )


def power_loop_r_upper(a):
    return power_loop_r_lower(a.transpose())


def first_zero_corner(a):
    """First vanishing corner minor, scanning sizes 1..n-1, lower-left
    before upper-right within each size.  None if all are positive."""
    n = a.rows
    for size in range(1, n):
        for side in ("lower-left", "upper-right"):
            rset, cset = corner_index_sets(n, side, size)
            if minor(a, rset, cset) == 0:
                return CornerSpec(side, size)
    return None


def zero_corner_witness(below, r):
    """The first corner minor that vanishes in ``below`` = A^(r-1)."""
    if r <= 1:
        return None
    corner = first_zero_corner(below)
    if corner is None:
        raise InvariantViolation("no vanishing corner below the exponent")
    return CornerZeroWitness(side=corner.side, size=corner.size, power=r - 1)


def scan_exponent_bruteforce(a, cap=None):
    """Scan powers 1..n-1 with the full minor test for total positivity."""
    if not a.is_square():
        raise ShapeMismatch("oscillatory test requires a square matrix")
    if not _by_gk(a, cap):
        raise NotOscillatory("input is not oscillatory")
    n = a.rows
    r = None
    power = below = a
    for k in range(1, n):
        if scan_tp(power, cap).ok:
            r = k
            break
        below, power = power, mat_mul(power, a)
    if r is None:
        raise InvariantViolation("no totally positive power within n-1")
    rl, ru = power_loop_r_lower(a), power_loop_r_upper(a)
    if r != max(rl, ru):
        raise InvariantViolation(
            f"full scan found r={r} but corner exponents give max({rl}, {ru})"
        )
    f = neville_factorize(a)
    l_tag, u_tag = recognize_sides(f)
    return ExponentReport(
        n=n,
        r=r,
        r_lower=rl,
        r_upper=ru,
        method="bruteforce",
        l_class=l_tag,
        u_class=u_tag,
        witness_power=power,
        zero_witness=zero_corner_witness(below, r),
    )


def r_lower_via_network(source):
    """Independent route to the lower exponent through copy counting on
    the planar network; agrees with the algebraic computation."""
    net = source if isinstance(source, PlanarNetwork) else build_network(source)
    n = net.n
    worst = 0
    for c in range(1, n):
        copies = min_copies_lower_corner(net, c)
        if copies == float("inf"):
            raise NotOscillatory(f"corner size {c} is never reachable")
        worst = max(worst, copies)
    return worst


# Compounds and network helpers that no library code calls; the tests of
# the Laplace scan and of path families use them.


def lex_subsets(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All p-subsets of {1..n} in lexicographic order (the compound order)."""
    return tuple(itertools.combinations(range(1, n + 1), p))


class CompoundMatrix(NamedTuple):
    """All p x p minors of an n x n matrix in lexicographic order."""

    p: int
    base_n: int
    data: Matrix

    @property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        return lex_subsets(self.base_n, self.p)


def multiplicative_compound(a: Matrix, p: int) -> CompoundMatrix:
    """The p-th multiplicative compound of a square matrix."""
    if not a.is_square():
        raise ShapeMismatch("compound requires a square matrix")
    n = a.rows
    if not 1 <= p <= n:
        raise ParamOutOfRange(f"compound order {p} outside [1, {n}]")
    for order, table in minor_levels(a):
        if order == p:
            break
    subs = lex_subsets(n, p)
    data = Matrix([[table[(r, c)] for c in subs] for r in subs])
    return CompoundMatrix(p=p, base_n=n, data=data)


def concat(net1: PlanarNetwork, net2: PlanarNetwork) -> PlanarNetwork:
    if net1.n != net2.n:
        raise ShapeMismatch(f"track counts differ: {net1.n} vs {net2.n}")
    return PlanarNetwork(n=net1.n, layers=net1.layers + net2.layers)


def strip_u_diagonals(net: PlanarNetwork) -> PlanarNetwork:
    """Drop every upward diagonal; U layers become identities and vanish."""
    return PlanarNetwork(
        n=net.n, layers=tuple(l for l in net.layers if l.kind != "U")
    )
