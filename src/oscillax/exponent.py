"""Exponents of oscillatory matrices: brute force, decoupling, formulas.

The exponent r(A) is the least power at which every minor turns
positive.  It always equals max(r_lower, r_upper), where r_lower
(r_upper) is the least power making all lower-left (upper-right) corner
minors positive, and each side depends only on its own triangular part
of the factorization.  Two parametrized factorization shapes admit
closed forms for the lower exponent:

* Z1(s): full descending chains W_2 .. W_s, giving ceil((n-1)/(s-1));
* Z2(s): single factors L_2 .. L_{s-2}, a partial chain containing
  L_{s-1}, then full chains W_s .. W_n, giving s-1.

Recognition works on the positivity pattern of the canonical flat
multipliers only; multiplier values never matter for these results.
In canonical form the positives of each chain are a suffix of its
slice, its positive run, and each class support (the slots that the
generators fill, :func:`z1_slots`, :func:`z2_slots`) is a condition on
these run lengths, with one :class:`ClassMatch`: ``psi`` is the run its
partial chain keeps, and :meth:`~ClassMatch.patterns` counts the
partial-chain patterns sharing that support.  :func:`recognize_class`
measures the runs in one pass, refactorizing the input only when that
pass finds it is not canonical, reads every exact and with-extras match
off them (:func:`_canonical_tag`), and one rule frames every tag; a tag
costs that pass plus what it lists, and no per-dimension table is built
or kept.  :func:`recognize_sides` hands each side of a factorization,
checked when it was built, straight to the same core; a Neville
factorization is canonical, so each exponent route factorizes its input
once and checks no multiplier again.

Both exponent routes count, for each corner, the power at which its minor
turns positive, and build their report from these counts in one place
(:func:`_report`), which takes the zero witness by one rule
(:func:`_vanishing_corner`).  The brute-force route tests the corners of
successive powers (:func:`_corner_powers`) and confirms A^r by one full
minor scan.  The theorem route, :func:`r_lower` and :func:`r_upper` read
the counts off the cells of the Neville factor word
(:func:`cells.copy_counts`), so no power of a triangular part is formed.
Powers of A come from one scaled integer chain (:func:`matrix._powers`):
the brute-force route reads each corner's sign off the chain's int
blocks, and the theorem route walks it to A^(r-1) to confirm its zero
witness and one step further to A^r.  Each route builds one ``Fraction``
matrix, the A^r it reports.

The product checks read the same two cells, so no product is formed
and no member is refactorized: members with equal cells give every
ordered k-product the pattern of the first member's k-th power, and a
product is totally positive exactly when each side's member cells fold
to the longest permutation.
"""

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from .cells import SIDES, copy_counts, demazure, exponent_of
from .classify import _first_minor, _off_diagonals_positive, corner_index_sets
from .errors import (
    ClassMismatch,
    FeasibilityExceeded,
    InvalidPsiPattern,
    InvariantViolation,
    NotITN,
    NotNormalizable,
    NotOscillatory,
    ParamOutOfRange,
    ShapeMismatch,
    Unpredictable,
)
from .matrix import Matrix, _check_count, _is_int, _minor_int, _powers, _unscaled, det
from .rational import coerce_rational
from .seb import (
    EBFactor,
    FactorizationClass,
    SEBFactorization,
    _check_slot_limit,
    _side_indices,
    _trusted_factor,
    chain_layout,
    checked_vectors,
    classify_factorization,
    compose,
    multiplier_count,
    n_from_flat,
    neville_factorize,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- closed forms --------------------------------------------------------------


def _check_class_params(n: int, s: int, slots: bool = False) -> None:
    """Ints, not bools, with n >= 2 and s in [2, n]; with ``slots``, the
    slot limit (:func:`seb._check_slot_limit`) between types and ranges."""
    for what, x in (("dimension", n), ("parameter s", s)):
        if not _is_int(x):
            raise ParamOutOfRange(f"{what} must be an int, got {x!r}")
    if slots:
        _check_slot_limit(n)
    if n < 2:
        raise ParamOutOfRange(f"dimension {n} must be at least 2")
    if not 2 <= s <= n:
        raise ParamOutOfRange(f"parameter s={s} outside [2, {n}]")


def mu1(n: int, s: int) -> int:
    """Lower exponent of the Z1(s) shape: ceil((n-1)/(s-1))."""
    _check_class_params(n, s)
    return -((n - 1) // -(s - 1))


def mu2(n: int, s: int) -> int:
    """Lower exponent of the Z2(s) shape: s-1."""
    _check_class_params(n, s)
    return s - 1


def psi_membership(pattern, i: int) -> bool:
    """Partial-chain test for a chain-i multiplier vector.

    True when the chain's own factor (last slot) is positive and at
    least one higher slot is zero.  Entries are read as
    :func:`recognize_class` reads them: :class:`MalformedNumber` for one
    that is not a rational, :class:`NotNormalizable` for a negative one.
    """
    vec = tuple(coerce_rational(x) for x in pattern)
    if len(vec) < 1:
        raise ParamOutOfRange("empty chain vector")
    if i < 2:
        raise ParamOutOfRange(f"chain index {i} must be at least 2")
    if any(x < 0 for x in vec):
        raise NotNormalizable("multipliers must be nonnegative")
    return vec[-1] > 0 and any(x == 0 for x in vec[:-1])


# -- triangular parts -----------------------------------------------------------


def lower_part(f: SEBFactorization) -> SEBFactorization:
    k = multiplier_count(f.n)
    return SEBFactorization(f.n, f.l, (_ONE,) * f.n, (_ZERO,) * k)


def upper_part(f: SEBFactorization) -> SEBFactorization:
    k = multiplier_count(f.n)
    return SEBFactorization(f.n, (_ZERO,) * k, (_ONE,) * f.n, f.u)


def with_transpose(lpart: SEBFactorization, d=None) -> SEBFactorization:
    """Pair a lower part with its mirrored upper part and a diagonal,
    composing to (lower) D (lower transposed)."""
    dd = tuple(d) if d is not None else (_ONE,) * lpart.n
    return SEBFactorization(lpart.n, lpart.l, dd, lpart.layout.mirror(lpart.l))


# -- class generators -----------------------------------------------------------


def _fill_slots(n: int, slots, rng: random.Random) -> tuple[Fraction, ...]:
    flat = [_ZERO] * multiplier_count(n)
    for pos in sorted(slots):
        flat[pos] = Fraction(rng.randint(1, 9))
    return tuple(flat)


def z1_slots(n: int, s: int) -> frozenset[int]:
    _check_class_params(n, s)
    # full chains 2 .. s: the flat vector up to the end of chain s
    return frozenset(range(chain_layout(n).chain(s).stop))


def z2_slots(n: int, s: int, psi: frozenset[int] | None) -> frozenset[int]:
    _check_class_params(n, s)
    if s == 2:
        if psi:
            raise InvalidPsiPattern("s=2 admits no partial chain")
        return z1_slots(n, n)
    optional = set(range(s, n + 1))
    psi = frozenset() if psi is None else frozenset(psi)
    if not psi <= optional:
        raise InvalidPsiPattern(f"pattern {sorted(psi)} not within {sorted(optional)}")
    if psi == optional:
        raise InvalidPsiPattern("pattern must omit at least one optional factor")
    layout = chain_layout(n)
    out = {layout.lower_slot(i, i) for i in range(2, s)}
    out.update(layout.lower_slot(s - 1, j) for j in psi)
    # full chains s .. n: the flat vector from the start of chain s
    out.update(range(layout.chain(s).start, multiplier_count(n)))
    return frozenset(out)


def enumerate_psi_patterns(n: int, s: int) -> tuple[frozenset[int] | None, ...]:
    """Admissible partial-chain patterns for Z2(s), deterministically ordered.

    For s=2 the class has a single shape and the only 'pattern' is None.
    The 2^(n-s+1) - 1 patterns of s >= 3 raise :class:`FeasibilityExceeded`,
    before any is built, when they would pass :data:`TAG_ENTRY_LIMIT`.
    """
    _check_class_params(n, s)
    if s == 2:
        return (None,)
    free = n - s + 1
    # 2^free - 1 > limit exactly when free reaches the bit length of limit + 1
    if free >= (TAG_ENTRY_LIMIT + 1).bit_length():
        raise FeasibilityExceeded(
            f"Z2({s}) at n={n} has 2^{free} - 1 partial-chain patterns,"
            f" past the limit of {TAG_ENTRY_LIMIT}"
        )
    optional = sorted(range(s, n + 1))
    masks = range(2 ** len(optional) - 1)
    return tuple(_psi_from_mask(optional, mask) for mask in masks)


def _psi_from_mask(optional: list[int], mask: int) -> frozenset[int]:
    """Decode bit t of the mask as membership of optional[t]."""
    return frozenset(optional[t] for t in range(len(optional)) if mask >> t & 1)


def generate_z1(n: int, s: int, seed: int) -> SEBFactorization:
    """Seeded lower part with full chains W_2 .. W_s, multipliers in 1..9.
    Past :data:`seb.NORMALIZE_SLOT_LIMIT` slots per side it raises
    :class:`FeasibilityExceeded` before building anything, as
    :func:`generate_z2` does."""
    _check_class_params(n, s, slots=True)
    rng = random.Random(seed)
    slots = z1_slots(n, s)
    return SEBFactorization(
        n, _fill_slots(n, slots, rng), (_ONE,) * n, (_ZERO,) * multiplier_count(n)
    )


def resolve_psi_choice(n: int, s: int, psi_choice, rng: random.Random):
    """Interpret a partial-chain choice for Z2(s).

    Accepts ``None`` (lone L_{s-1} for s >= 3, nothing for s = 2), the
    string ``"random"``, or an iterable of factor indices for the chosen
    product, which must contain s-1 (be empty for s = 2).  An index is an
    ``int`` and not a ``bool``; anything else raises
    :class:`InvalidPsiPattern`.
    """
    if psi_choice in (None, "random"):
        if s == 2:
            return None
        if psi_choice is None:
            return frozenset()
        # draws enumerate_psi_patterns(n, s)[i] without building the tuple
        _check_class_params(n, s)
        optional = sorted(range(s, n + 1))
        return _psi_from_mask(optional, rng.randrange(2 ** len(optional) - 1))
    try:
        members = tuple(psi_choice)
    except TypeError as exc:
        raise InvalidPsiPattern(f"cannot read pattern {psi_choice!r}") from exc
    if any(type(x) is bool or not isinstance(x, int) for x in members):
        raise InvalidPsiPattern(f"cannot read pattern {psi_choice!r}")
    if s == 2 and members:
        raise InvalidPsiPattern("s=2 admits no partial chain")
    if s > 2 and s - 1 not in members:
        raise InvalidPsiPattern(f"partial chain must contain factor {s - 1}")
    return frozenset(members) - {s - 1} if s > 2 else None


def generate_z2(n: int, s: int, psi_choice, seed: int) -> SEBFactorization:
    """Seeded lower part in the Z2(s) shape for the given partial chain."""
    _check_class_params(n, s, slots=True)
    rng = random.Random(seed)
    pattern = resolve_psi_choice(n, s, psi_choice, rng)
    slots = z2_slots(n, s, pattern)
    return SEBFactorization(
        n, _fill_slots(n, slots, rng), (_ONE,) * n, (_ZERO,) * multiplier_count(n)
    )


def random_oscillatory_factorization(
    n: int, rng: random.Random, density: float = 0.55
) -> SEBFactorization:
    """Random factorization with every factor index hit on both sides,
    hence composing to an oscillatory matrix."""
    k = multiplier_count(n)
    layout = chain_layout(n)

    def side(slot_of) -> tuple[Fraction, ...]:
        flat = [_ZERO] * k
        for pos in range(k):
            if rng.random() < density:
                flat[pos] = Fraction(rng.randint(1, 9))
        for j in range(2, n + 1):
            slots = [slot_of(i, j) for i in range(2, j + 1)]
            if all(flat[p] == 0 for p in slots):
                flat[slots[rng.randrange(len(slots))]] = Fraction(rng.randint(1, 9))
        return tuple(flat)

    l_flat = side(layout.lower_slot)
    u_flat = side(layout.upper_slot)
    d = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
    return SEBFactorization(n, l_flat, d, u_flat)


# -- class recognition -----------------------------------------------------------


class ClassMatch(NamedTuple):
    """One class support: family 'Z1' or 'Z2', parameter s, and ``psi``,
    the run (s, ..., s+t-1) that the partial chain of Z2(s), s >= 3, keeps
    in canonical form (None for Z1 and Z2(2))."""

    family: str
    s: int
    psi: tuple[int, ...] | None

    def mu(self, n: int) -> int:
        return mu1(n, self.s) if self.family == "Z1" else mu2(n, self.s)

    def label(self) -> str:
        return f"{self.family}({self.s})"

    def patterns(self, n: int) -> int:
        """Partial-chain patterns sharing this support: 2^(n-s-t) for Z2(s),
        s >= 3, whose factors past s+t commute into the full chains; else 1."""
        if self.family == "Z2" and self.s >= 3:
            return 2 ** (n - self.s - len(self.psi))
        return 1


#: Most entries :meth:`ClassTag.to_json_dict` lists in ``exact`` or in
#: ``with_extras``, and most patterns :func:`enumerate_psi_patterns`
#: builds.  Each list repeats a support once per partial-chain
#: pattern, 2^(n-1)-2 ``with_extras`` entries on a TP input, whose printed
#: payload grows about 4.7-fold per two rows (36.7 MB at n = 16): n = 17
#: still fits, n = 18 does not.
TAG_ENTRY_LIMIT = 2**16


def _repeated(pairs) -> list:
    """Each item of the (item, count) pairs, count times by reference."""
    out = []
    for item, count in pairs:
        out += [item] * count
    return out


class ClassTag(NamedTuple):
    """Recognition result for one triangular side of a factorization.

    ``exact`` and ``with_extras`` hold one :class:`ClassMatch` per class
    support, at most n(n-1)/2 + 1 in all; the ``oscillax.exponent/1`` JSON
    lists every partial-chain pattern, so :meth:`to_json_dict` repeats each
    entry :meth:`ClassMatch.patterns` times.  It builds each support's
    label and entry once, and renders each distinct factor object once,
    looked up by identity, so only the list of references grows with the
    pattern count."""

    n: int
    family: str
    s: int | None
    psi_pattern: tuple[int, ...] | None
    extras: tuple[EBFactor, ...]
    exact: tuple[ClassMatch, ...]
    with_extras: tuple[tuple[ClassMatch, tuple[EBFactor, ...]], ...]

    @property
    def is_pure(self) -> bool:
        return bool(self.exact)

    def to_json_dict(self) -> dict:
        """The ``/1`` rendering.  Raises :class:`FeasibilityExceeded`, before
        rendering anything, when a list would pass :data:`TAG_ENTRY_LIMIT`
        entries."""
        n = self.n
        counts = {
            "exact": [m.patterns(n) for m in self.exact],
            "with_extras": [m.patterns(n) for m, _ in self.with_extras],
        }
        for key, per_support in counts.items():
            if sum(per_support) > TAG_ENTRY_LIMIT:
                raise FeasibilityExceeded(
                    f"class tag at n={n} lists {sum(per_support)} {key} entries,"
                    f" past the limit of {TAG_ENTRY_LIMIT}"
                )
        # keyed by identity: no factor (hence no Fraction) is hashed
        distinct = {
            id(x): x
            for x in itertools.chain(self.extras, *(e for _, e in self.with_extras))
        }
        text = {key: str(x) for key, x in distinct.items()}
        return {
            "family": self.family,
            "s": self.s,
            "psi": list(self.psi_pattern) if self.psi_pattern is not None else None,
            "extras": [text[id(x)] for x in self.extras],
            "exact": _repeated(
                (m.label(), k) for m, k in zip(self.exact, counts["exact"])
            ),
            "with_extras": _repeated(
                ({"base": m.label(), "extras": [text[id(x)] for x in extras]}, k)
                for (m, extras), k in zip(self.with_extras, counts["with_extras"])
            ),
        }


def recognize_class(l_part_multipliers, n: int | None = None) -> ClassTag:
    """Tag a flat lower multiplier vector with its class memberships.

    The vector is coerced and checked, then read in canonical form: as it
    stands when it already is (as every Neville factorization is), else
    refactorized first.  Membership is read off each chain's positive run
    (:func:`_canonical_tag`): a class whose support equals the positive
    slots is an exact match, one whose support lies strictly inside them
    is a with-extras base carrying the positive factors outside it, in
    flat order.  The tag is framed as :func:`_framed_tag` says."""
    flat = tuple(l_part_multipliers)
    if n is None:
        n = n_from_flat(flat)
    (checked,), _ = checked_vectors(n, (flat,))
    return _canonical_tag(n, checked)


def _canonical_tag(n: int, flat) -> ClassTag:
    """The tag of a checked lower flat vector: the core of
    :func:`recognize_class` and :func:`recognize_sides`.

    One pass (:meth:`ChainLayout.runs`) measures the positive run r_i of
    each chain i, the suffix of its slice that canonical form keeps, and
    so also tells whether the vector is canonical: only a vector that is
    not is refactorized.  No multiplier is checked again, and each
    positive factor is built once, as it stands.  With w_i = n-i+1 the
    width of chain i, every class support is a condition on the runs:

    * Z1(s) lies inside the positive slots iff r_i = w_i for 2 <= i <= s,
      and equals them iff also r_i = 0 for i > s;
    * Z2(2), the support of Z1(n), iff every chain is full;
    * Z2(s) whose partial chain keeps the run (s, ..., s+t-1), s >= 3,
      iff chains s..n are full, r_i >= 1 for 2 <= i <= s-2 and
      r_{s-1} >= t+1, and equals them iff these are equalities.

    The extras of a base are, chain by chain, the positive factors ahead
    of its own run.  So a tag costs one pass over the vector plus what it
    lists: exact matches in :class:`ClassMatch` order (Z1(2..n), Z2(2),
    then Z2(s) by s and run), with-extras bases by extras count, then
    match."""
    layout = chain_layout(n)
    runs = layout.runs(flat)
    if runs is None:
        part = SEBFactorization(n, flat, (_ONE,) * n, (_ZERO,) * len(flat))
        flat = neville_factorize(compose(part)).l
        runs = layout.runs(flat)
    # per chain i = 2..n, its positive factors in flat order, L_i last
    positives = []
    for i, run in enumerate(runs, 2):
        stop = layout.chain(i).stop
        cells = zip(range(i + run - 1, i - 1, -1), flat[stop - run : stop])
        positives.append(tuple(_trusted_factor(("L", j, x, None)) for j, x in cells))

    matches = []  # (match, extras) in ClassMatch order
    # Z1(s): chains 2..s full
    s = 2
    while s <= n and runs[s - 2] == n - s + 1:
        extras = tuple(itertools.chain.from_iterable(positives[s - 1 :]))
        matches.append((ClassMatch("Z1", s, None), extras))
        s += 1
    if s > n:
        matches.append((ClassMatch("Z2", 2, None), ()))
    # Z2(s), s >= 3: chains s..n full, chains 2..s-1 not empty
    low = n + 1
    while low > 3 and runs[low - 3] == n - low + 2:
        low -= 1
    for s in range(low, n + 1):
        if 0 in runs[: s - 2]:
            break
        head = tuple(itertools.chain.from_iterable(p[:-1] for p in positives[: s - 3]))
        below = positives[s - 3]  # chain s-1
        for t in range(min(len(below), n - s + 1)):
            extras = head + below[: len(below) - t - 1]
            matches.append((ClassMatch("Z2", s, tuple(range(s, s + t))), extras))
    exact = tuple(m for m, extras in matches if not extras)
    with_extras = sorted(
        (pair for pair in matches if pair[1]), key=lambda pair: (len(pair[1]), pair[0])
    )
    return _framed_tag(n, exact, tuple(with_extras))


def plus_extra_tag(n: int, base: ClassMatch, extras: tuple[EBFactor, ...]) -> ClassTag:
    """Build a tag that commits to a specific class-plus-extras framing."""
    return _framed_tag(n, (), ((base, extras),))


def _framed_tag(n: int, exact, with_extras) -> ClassTag:
    """The tag of these matches, framed by the first exact match, else by
    the first with-extras base and its extras, else unrecognized."""
    if exact:
        primary, family, extras = exact[0], exact[0].family, ()
    elif with_extras:
        primary, extras = with_extras[0]
        family = f"{primary.family}-plus-extra"
    else:
        return ClassTag(n, "unrecognized", None, None, (), (), ())
    return ClassTag(n, family, primary.s, primary.psi, extras, exact, with_extras)


class Prediction(NamedTuple):
    kind: str  # 'exact' or 'upper_bound'
    value: int

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


def predict_exponent(l_tag: ClassTag, u_tag: ClassTag) -> Prediction:
    """Closed-form exponent from class tags.

    Both tags pure gives the exact value; exactly one side carrying
    extra factors (the other pure) gives an upper bound.  Unrecognized
    tags, or extras on both sides, admit no prediction.
    """
    if l_tag.n != u_tag.n:
        raise ParamOutOfRange("tags describe different dimensions")
    n = l_tag.n
    if l_tag.family == "unrecognized" or u_tag.family == "unrecognized":
        raise Unpredictable("one of the tags is unrecognized")
    if l_tag.is_pure and u_tag.is_pure:
        values = {
            max(lm.mu(n), um.mu(n)) for lm in l_tag.exact for um in u_tag.exact
        }
        if len(values) != 1:
            raise InvariantViolation(f"exact predictions disagree: {sorted(values)}")
        return Prediction("exact", values.pop())
    for pure, other in ((l_tag, u_tag), (u_tag, l_tag)):
        if pure.is_pure and other.with_extras:
            value = min(
                max(pm.mu(n), base.mu(n))
                for pm in pure.exact
                for base, _ in other.with_extras
            )
            return Prediction("upper_bound", value)
    raise Unpredictable("no closed form covers extras on both sides")


# -- exponent computation ---------------------------------------------------------


def _corner_powers(a: Matrix, sides):
    """Per side, the least k <= n-1 at which each corner minor of A^k,
    sizes 1..n-1, is positive (infinite if none is), and the last power
    formed, as the (int block, denominator) pair of the power chain
    (:func:`matrix._powers`): the brute-force route's and ``verify``'s
    reference by powers of A.

    On invertible TN inputs, bare triangular parts included, a positive
    corner minor stays positive in every higher power (Cauchy-Binet), so
    each corner is tested only until it turns positive.  The chain's
    denominators are positive, so each sign is read off the int block.
    """
    n = a.rows
    counts = {side: [float("inf")] * (n - 1) for side in sides}
    corners = [
        (counts[side], size - 1, *corner_index_sets(n, side, size))
        for side, size in itertools.product(sides, range(1, n))
    ]
    for k, power in enumerate(_powers(a), 1):
        block = power[0]
        for side_counts, at, rows, cols in corners:
            if side_counts[at] > k and _minor_int(block, rows, cols) > 0:
                side_counts[at] = k
        if k == n - 1 or all(c <= k for cs in counts.values() for c in cs):
            return counts, power


def _factorized(a: Matrix) -> SEBFactorization:
    """The Neville factorization of A; :class:`NotOscillatory` if A is not
    invertible TN."""
    try:
        return neville_factorize(a)
    except NotITN as exc:
        raise NotOscillatory(f"not invertible TN: {exc}") from exc


def _side_exponent(a: Matrix, side: str) -> int:
    """The largest copy count of one side of A's Neville factorization."""
    r = max(copy_counts(_side_indices(_factorized(a))[side], a.rows))
    if r == float("inf"):
        raise NotOscillatory(
            f"{side} corner minors not all positive within {a.rows - 1} powers"
        )
    return r


def r_lower(a: Matrix) -> int:
    """Least power making every lower-left corner minor (sizes 1..n-1)
    positive: the largest lower copy count of A's Neville factorization.
    Defined for invertible TN inputs, bare triangular parts included."""
    return _side_exponent(a, "lower-left")


def r_upper(a: Matrix) -> int:
    """Least power making every upper-right corner minor positive."""
    return _side_exponent(a, "upper-right")


class CornerZeroWitness(NamedTuple):
    """A corner minor that still vanishes at the given power."""

    side: str
    size: int
    power: int

    def to_json_dict(self) -> dict:
        return {"side": self.side, "size": self.size, "power": self.power}


class ExponentReport(NamedTuple):
    n: int
    r: int
    r_lower: int
    r_upper: int
    method: str
    l_class: ClassTag
    u_class: ClassTag
    witness_power: Matrix
    zero_witness: CornerZeroWitness | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "r_lower": self.r_lower,
            "r_upper": self.r_upper,
            "method": self.method,
            "l_class": self.l_class.to_json_dict(),
            "u_class": self.u_class.to_json_dict(),
            "witness_power": {
                "k": self.r,
                "entries": self.witness_power.to_lists(),
            },
            "zero_witness": (
                self.zero_witness.to_json_dict() if self.zero_witness else None
            ),
        }


def recognize_sides(f: SEBFactorization) -> tuple[ClassTag, ClassTag]:
    """Class tags of the lower part and of the transposed upper part, as
    :func:`recognize_class` gives them.  The vectors of a factorization
    are checked already, and mirroring keeps them so."""
    return _canonical_tag(f.n, f.l), _canonical_tag(f.n, f.layout.mirror(f.u))


def _vanishing_corner(counts, r: int) -> CornerZeroWitness | None:
    """The first corner, by size and lower-left first, whose count (the
    power at which its minor turns positive) exceeds r-1; None if r is 1."""
    if r <= 1:
        return None
    side, size = next(
        (side, size)
        for size in range(1, len(counts[SIDES[0]]) + 1)
        for side in SIDES
        if counts[side][size - 1] > r - 1
    )
    return CornerZeroWitness(side=side, size=size, power=r - 1)


def _report(f: SEBFactorization, method: str, counts, power) -> ExponentReport:
    """The report of either route from the factorization of A, the
    per-side corner counts (the power at which each corner minor turns
    positive) and A^r."""
    rl, ru = max(counts["lower-left"]), max(counts["upper-right"])
    r = max(rl, ru)
    l_tag, u_tag = recognize_sides(f)
    return ExponentReport(
        n=f.n,
        r=r,
        r_lower=rl,
        r_upper=ru,
        method=method,
        l_class=l_tag,
        u_class=u_tag,
        witness_power=power,
        zero_witness=_vanishing_corner(counts, r),
    )


def exponent_bruteforce(a: Matrix, cap: int | None = None) -> ExponentReport:
    """Check oscillation by one full TN scan, find r from the corner minors
    of successive powers, and confirm A^r by one full TP scan: no verdict
    of this reference route comes from a Neville factorization."""
    if not a.is_square():
        raise ShapeMismatch("oscillatory test requires a square matrix")
    tn = _first_minor(a, cap, lambda value: value < 0).ok
    if not (tn and det(a) != 0 and _off_diagonals_positive(a)):
        raise NotOscillatory("input is not oscillatory")
    n = a.rows
    counts, last = _corner_powers(a, SIDES)
    power = _unscaled(*last)
    r = max(map(max, counts.values()))
    if r > n - 1 or not _first_minor(power, cap, lambda value: value <= 0).ok:
        raise InvariantViolation(f"corner minors give r={r} but A^r is not TP")
    return _report(neville_factorize(a), "bruteforce", counts, power)


def exponent_via_theorem(a: Matrix) -> ExponentReport:
    """Factor the input, then take the max of the lower part's lower
    exponent and the upper part's upper exponent, both read off the copy
    counts of its Neville factorization (:func:`cells.copy_counts`); they
    are infinite when a side misses a factor index.  The zero witness
    follows the brute-force route's rule (:func:`_vanishing_corner`); one
    minor of A^(r-1), on the int block of the power chain, confirms that
    it vanishes, and A^r is the chain's next power.
    """
    f = _factorized(a)
    counts = {side: copy_counts(ix, f.n) for side, ix in _side_indices(f).items()}
    r = max(map(max, counts.values()))
    if r == float("inf"):
        raise NotOscillatory("factorization misses a factor index on some side")
    witness = _vanishing_corner(counts, r)
    if witness is None:
        return _report(f, "theorem", counts, a)
    chain = _powers(a)
    below, _ = next(itertools.islice(chain, r - 2, None))
    rows, cols = corner_index_sets(f.n, witness.side, witness.size)
    if _minor_int(below, rows, cols) != 0:
        raise InvariantViolation(
            f"{witness.side} corner of size {witness.size} counted as zero"
            f" at power {r - 1} but its minor is not"
        )
    return _report(f, "theorem", counts, _unscaled(*next(chain)))


def exponent_via_prediction(a: Matrix) -> tuple[Prediction, ClassTag, ClassTag]:
    """Recognize both sides of the factorization and predict the exponent.

    Shape errors and the verdict are those of :func:`classify.is_oscillatory`,
    from the one factorization the prediction needs.
    """
    if not a.is_square():
        raise ShapeMismatch("oscillatory test requires a square matrix")
    if a.rows < 2:
        raise ShapeMismatch("classification requires at least a 2x2 matrix")
    try:
        f = neville_factorize(a)
    except NotITN as exc:
        raise NotOscillatory("input is not oscillatory") from exc
    if classify_factorization(f) is FactorizationClass.ITN_ONLY:
        raise NotOscillatory("input is not oscillatory")
    l_tag, u_tag = recognize_sides(f)
    return predict_exponent(l_tag, u_tag), l_tag, u_tag


# -- product families --------------------------------------------------------------

#: Most ordered products :func:`early_tp_product_scan` sweeps.
PRODUCT_LIMIT = 10_000


def _exceeds(m: int, k: int, limit: int) -> bool:
    """Whether m**k > limit, without forming a huge power."""
    if m > 1 and k > limit.bit_length():
        return True
    return m**k > limit


def _family_sides(factorizations, k: int) -> tuple[int, list[dict]]:
    """The dimension and the side indices (:func:`seb._side_indices`) of
    the members of a product check: at least one, all of one dimension,
    with k a count (:func:`matrix._check_count`)."""
    members = list(factorizations)
    if not members or _is_int(k) and k < 1:
        raise ParamOutOfRange("need at least one member and k >= 1")
    _check_count(k, "k")
    if len({f.n for f in members}) > 1:
        raise ShapeMismatch("members have different dimensions")
    return members[0].n, [_side_indices(f) for f in members]


class ProductFamilyResult(NamedTuple):
    all_tp: bool
    counterexample: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "all_tp": self.all_tp,
            "counterexample": (
                list(self.counterexample) if self.counterexample else None
            ),
        }


def product_family_check(factorizations, k: int) -> ProductFamilyResult:
    """Are all ordered k-fold products of family members totally positive?

    Members must share their cells on both sides (:mod:`oscillax.cells`),
    so every ordered k-product lies in the cells of A_1^k: all are
    totally positive exactly when k reaches the exponent of the first
    member, and A_1^k, the tuple ``(0,) * k``, is the counterexample
    otherwise.  Equal cells are equal canonical supports, so no member is
    refactorized.  Raises :class:`ClassMismatch` when cells differ and
    :class:`NotOscillatory` when the members miss a factor index on some
    side.
    """
    n, sides = _family_sides(factorizations, k)
    cells = {tuple(demazure(ix, n) for ix in s.values()) for s in sides}
    if len(cells) != 1:
        raise ClassMismatch("members do not share canonical supports on both sides")
    r = exponent_of(sides[0], n)
    if r == float("inf"):
        raise NotOscillatory("input is not oscillatory")
    if k >= r:
        return ProductFamilyResult(True, None)
    return ProductFamilyResult(False, (0,) * k)


def early_tp_product_scan(factorizations, k: int) -> tuple[tuple[int, ...], ...]:
    """Ordered k-products that are already totally positive although every
    member involved has exponent above k.  An exploration tool.

    A product is totally positive when both of its cells are the longest
    permutation w0 = (n, ..., 1), that is, when every copy count of its
    word is 1.  Each side's cell is the Demazure product of the member
    words in the order it reads them: the tuple's order for the lower
    side, the reverse for the upper side.  Raises
    :class:`FeasibilityExceeded` when the m**k ordered products of m
    members exceed :data:`PRODUCT_LIMIT`, and :class:`NotOscillatory` for
    a member that misses a factor index on some side.
    """
    n, sides = _family_sides(factorizations, k)
    m = len(sides)
    if _exceeds(m, k, PRODUCT_LIMIT):
        raise FeasibilityExceeded(
            f"{m}**{k} ordered products exceed the limit {PRODUCT_LIMIT}"
        )
    exponents = [exponent_of(s, n) for s in sides]
    if float("inf") in exponents:
        raise NotOscillatory("input is not oscillatory")
    eligible = [i for i, r in enumerate(exponents) if r > k]
    if not eligible:
        return ()
    lower, upper = zip(*(s.values() for s in sides))
    w0 = tuple(range(n, 0, -1))

    def fold(indices, combo):  # the cell of the members' words in this order
        return demazure(itertools.chain.from_iterable(indices[i] for i in combo), n)

    return tuple(
        combo
        for combo in itertools.product(eligible, repeat=k)
        if fold(lower, combo) == w0 == fold(upper, combo[::-1])
    )
