"""The cells of a factor word: which minors of its product vanish, read
off which of its factors are positive.  No multiplier value is read, so
this module takes side index lists or cells, never matrices, and builds
no ``Fraction``.

* Sides.  A word with nonnegative multipliers is read through the
  indices of its positive factors, per side (:data:`SIDES`), in the
  order the word reads them: its L indices for the lower-left corners,
  and the U indices of the reversed word, the L indices of the
  transpose, for the upper-right ones.
* Cells.  The positive factors of a side lie in one Bruhat cell, the
  Demazure (0-Hecke) product of their indices (:func:`demazure`), and
  the pair of cells, the double Bruhat cell of the product, fixes which
  of its minors vanish (Fomin & Zelevinsky, J. Amer. Math. Soc. 12,
  1999).  So the copy counts, the class gates, the first zero minor and
  the TP test of a product of words depend only on the cells.
* Tokens.  On the 0/1 start of a row set I, :func:`demazure` moves a
  token from track j to an empty j-1 at each index j.  The result G(I)
  is the entrywise least set of sinks that vertex-disjoint paths from I
  reach in the side's planar network.  By Lindström–Gessel–Viennot and
  Cauchy–Binet, minor (I, J) of the product is zero exactly when
  G_L(I) </= J or G_U(J) </= I entrywise (the Gale order).
* The level rule (:func:`every_level`).  A side missing some index j
  2..n carries no path from track j to j-1, so none of its corners turns
  positive in any power: its copy counts are infinite and the product is
  not oscillatory.
* The corner test (:func:`filled_corners`).  The size-c lower-left
  corner (rows n-c+1..n, columns 1..c) is positive exactly when the
  tokens of the top c tracks reach the bottom c, that is, when the first
  c entries of the cell exceed n-c: the tokens are the entries above
  n-c.
* Copy counts (:func:`copy_counts`).  The count of corner c is the least
  k at which the k-th Demazure power of the cell passes the corner test:
  the least number of concatenated copies of the network, and the least
  power of the product, at which that corner is positive.  A positive
  corner stays positive, and the largest count, at most n-1
  (Gantmacher–Krein), is the side's exponent.
* The first zero minor (:func:`first_zero`).  G is Gale-monotone and
  fixes the least k-set [k].  So with T = {n-k+1..n}: if G_U(T) != [k],
  the U cell fails the size-k corner test and the first zero minor of
  order k has rows [k] and columns the lex-first J with G_U(J) != [k];
  else, if the L cell fails it, rows the lex-first I with G_L(I) != [k]
  and columns [k]; else order k has none.  The k-sets S with G(S) != [k]
  form a Gale up-set holding T, so its lex-first member is fixed entry
  by entry by 0/1 token runs.
"""

import itertools

from .errors import InvariantViolation

#: The two sides of a factor word, named by the corners they carry.
SIDES = ("lower-left", "upper-right")


def demazure(indices, n: int, start=None) -> tuple[int, ...]:
    """The Demazure product of a word of factor indices, in one-line
    notation: index j swaps entries j-1 and j of ``start`` (the identity
    when None) when entry j-1 is the smaller, which makes the permutation
    longer.  ``demazure(word of v, n, u)`` is the product u * v of cells;
    a 0/1 ``start`` gives the token action."""
    w = list(range(1, n + 1) if start is None else start)
    for j in indices:
        if w[j - 2] < w[j - 1]:
            w[j - 2], w[j - 1] = w[j - 1], w[j - 2]
    return tuple(w)


def every_level(indices, n: int) -> bool:
    """The level rule: whether every factor index 2..n is among ``indices``."""
    return set(range(2, n + 1)) <= set(indices)


def is_basic(sides: dict, n: int) -> bool:
    """Whether each side carries every level exactly once: n - 1 indices
    that pass the level rule."""
    return all(len(ix) == n - 1 and every_level(ix, n) for ix in sides.values())


def filled_corners(cell) -> list[bool]:
    """The corner test: per size c = 1..n-1, whether the first c entries of
    the cell all exceed n-c, that is, whether its size-c lower-left corner
    is positive."""
    lows = itertools.accumulate(cell[:-1], min)
    return [low > len(cell) - c for c, low in enumerate(lows, 1)]


def copy_counts(indices, n: int) -> tuple[int | float, ...]:
    """Copy counts of the lower-left corners, sizes 1..n-1, of a side with
    these indices; all infinite when the indices fail the level rule.  A
    count past n-1 contradicts the power bound and raises
    :class:`InvariantViolation`."""
    if not every_level(indices, n):
        return (float("inf"),) * (n - 1)
    counts = [0] * (n - 1)
    power = None
    for k in range(1, n):
        power = demazure(indices, n, power)  # w^k: a word acts as its cell
        counts = [c or k * filled for c, filled in zip(counts, filled_corners(power))]
        if all(counts):
            return tuple(counts)
    raise InvariantViolation(
        f"no disjoint family for corner size {counts.index(0) + 1}"
        f" within {n - 1} copies"
    )


def exponent_of(sides: dict, n: int) -> int | float:
    """The largest copy count over both sides: the exponent of the product."""
    return max(max(copy_counts(ix, n)) for ix in sides.values())


def first_zero(lower, upper, n: int) -> tuple[tuple, tuple] | None:
    """``(rows, cols)`` of the first zero minor of order 2..n-1, in scan
    order, of a word whose sides have the indices ``lower`` and ``upper``;
    None if there is none."""
    lower_filled, upper_filled = (filled_corners(demazure(ix, n)) for ix in (lower, upper))
    for k in range(2, n):
        first = tuple(range(1, k + 1))
        if not upper_filled[k - 1]:
            return first, _lex_first_stuck(upper, n, k)
        if not lower_filled[k - 1]:
            return _lex_first_stuck(lower, n, k), first
    return None


def _lex_first_stuck(indices, n: int, k: int) -> tuple[int, ...]:
    """The lex-first k-set S with G(S) != [k] under these indices, given
    that the top set is one: each entry is the least whose top completion
    is still stuck; the largest completes to the previous top set, which
    is."""

    def stuck(subset):  # G(subset) != [k]: a token stops above k
        start = [int(i in subset) for i in range(1, n + 1)]
        return not all(demazure(indices, n, start)[:k])

    chosen: tuple[int, ...] = ()
    for last in range(n - k + 1, n + 1):
        tail, low = range(last + 1, n + 1), chosen[-1] + 1 if chosen else 1
        fits = (v for v in range(low, last) if stuck((*chosen, v, *tail)))
        chosen += (next(fits, last),)
    return chosen
