"""Seeded benchmark inputs, built with the benchmark's own exact arithmetic.

Nothing here imports oscillax: a change to the program cannot change the
inputs or the answers the benchmark expects for them.

A triangular part is a *support*: a dict mapping (chain i, factor j) to a
positive integer multiplier, 2 <= i <= j <= n.  The lower part is the
product W_2 ... W_n with W_i = L_n ... L_i (descending), and the upper
part is its mirror Q_n ... Q_2 with Q_i = U_i ... U_n.  A *staircase*
support has, in each chain i, a contiguous run L_i .. L_{i+w-1}; that is
the elimination-canonical form, so Neville elimination gives it back.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

MULTIPLIERS = (1, 9)  # inclusive range of multiplier values
DIAGONAL = (1, 4)  # inclusive range of diagonal values


# -- supports -----------------------------------------------------------------


def staircase(n: int, widths: dict[int, int], rng: random.Random) -> dict:
    """Support with chain i holding L_i .. L_{i + widths[i] - 1}."""
    out = {}
    for i in range(2, n + 1):
        w = widths.get(i, 0)
        if not 0 <= w <= n - i + 1:
            raise ValueError(f"chain {i} width {w} outside [0, {n - i + 1}]")
        for j in range(i, i + w):
            out[(i, j)] = rng.randint(*MULTIPLIERS)
    return out


def full_widths(n: int) -> dict[int, int]:
    return {i: n - i + 1 for i in range(2, n + 1)}


def z1_widths(n: int, s: int) -> dict[int, int]:
    """Z1(s): full chains W_2 .. W_s."""
    return {i: (n - i + 1 if i <= s else 0) for i in range(2, n + 1)}


def z2_widths(n: int, s: int, run: int) -> dict[int, int]:
    """Z2(s), s >= 3: singletons L_2 .. L_{s-2}, chain s-1 a proper run of
    length `run` (1 <= run <= n-s+1) and full chains W_s .. W_n."""
    if not (3 <= s <= n and 1 <= run <= n - s + 1):
        raise ValueError(f"bad Z2 parameters n={n} s={s} run={run}")
    out = {}
    for i in range(2, n + 1):
        if i < s - 1:
            out[i] = 1
        elif i == s - 1:
            out[i] = run
        else:
            out[i] = n - i + 1
    return out


def oscillatory_widths(n: int, rng: random.Random, density: float) -> dict[int, int]:
    """Random staircase widths in which every index is covered at least once."""
    widths = {}
    for i in range(2, n + 1):
        cap = n - i + 1
        widths[i] = sum(1 for _ in range(cap) if rng.random() < density)
    for j in range(2, n + 1):
        if not any(i + widths[i] - 1 >= j for i in range(2, j + 1)):
            i = rng.randint(2, j)
            widths[i] = j - i + 1
    return widths


def basic_widths(n: int, rng: random.Random) -> dict[int, int]:
    """Runs partitioning 2..n, each starting at its own chain: exactly one
    factor per index."""
    widths = {i: 0 for i in range(2, n + 1)}
    i = 2
    while i <= n:
        w = rng.randint(1, n - i + 1)
        widths[i] = w
        i += w
    return widths


def random_support(n: int, shape: random.Random, values: random.Random, density: float) -> dict:
    """Any support (not necessarily staircase) hitting every index; the
    positions come from `shape`, the multipliers from `values`."""
    slots = {(i, j) for i in range(2, n + 1) for j in range(i, n + 1) if shape.random() < density}
    for j in range(2, n + 1):
        if not any(jj == j for _, jj in slots):
            slots.add((shape.randint(2, j), j))
    return {slot: values.randint(*MULTIPLIERS) for slot in sorted(slots)}


def diagonal(n: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randint(*DIAGONAL) for _ in range(n))


# -- factor sequences and their product ------------------------------------------


def lower_factors(n: int, support: dict) -> list[tuple]:
    return [
        ("L", j, support[(i, j)])
        for i in range(2, n + 1)
        for j in range(n, i - 1, -1)
        if (i, j) in support
    ]


def upper_factors(n: int, support: dict) -> list[tuple]:
    return [
        ("U", j, support[(i, j)])
        for i in range(n, 1, -1)
        for j in range(i, n + 1)
        if (i, j) in support
    ]


def canonical_factors(n: int, lower: dict, d, upper: dict) -> list[tuple]:
    return lower_factors(n, lower) + [("D", tuple(d))] + upper_factors(n, upper)


def product(n: int, factors) -> list[list]:
    """Exact product of elementary factors, applied as column operations."""
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for fac in factors:
        if fac[0] == "D":
            for row in rows:
                for c, scale in enumerate(fac[1]):
                    row[c] *= scale
            continue
        kind, j, q = fac
        src, dst = (j - 1, j - 2) if kind == "L" else (j - 2, j - 1)
        for row in rows:
            row[dst] += q * row[src]
    return rows


def commuted(factors, rng: random.Random, sweeps: int) -> list[tuple]:
    """The same product reordered by random adjacent swaps of commuting
    factors: same-kind factors whose indices differ by more than one.
    The diagonal stays put, so lower factors stay left of it."""
    out = list(factors)
    for _ in range(sweeps * len(out)):
        p = rng.randrange(len(out) - 1)
        a, b = out[p], out[p + 1]
        if a[0] == b[0] and a[0] != "D" and abs(a[1] - b[1]) > 1:
            out[p], out[p + 1] = b, a
    return out


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def factor_text(factors) -> str:
    parts = []
    for fac in factors:
        if fac[0] == "D":
            parts.append("D(" + ",".join(fmt(x) for x in fac[1]) + ")")
        else:
            parts.append(f"{fac[0]}{fac[1]}({fmt(fac[2])})")
    return " ".join(parts)


def flat_vectors(n: int, lower: dict, upper: dict) -> tuple[list[str], list[str]]:
    """The l and u flat vectors of the canonical factorization, as text."""
    l_flat, u_flat = [], []
    for i in range(2, n + 1):
        l_flat += [fmt(lower.get((i, j), 0)) for j in range(n, i - 1, -1)]
        u_flat += [fmt(upper.get((i, j), 0)) for j in range(i, n + 1)]
    return l_flat, u_flat


# -- exact linear algebra for the oracle ---------------------------------------------


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det(rows) -> Fraction:
    """Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sign = 1
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        piv = m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / piv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def submatrix_det(a, rows, cols) -> Fraction:
    return det([[a[i - 1][j - 1] for j in cols] for i in rows])


def minor_tables(a):
    """Yield (p, {(rows, cols): minor}) in lexicographic order, p = 1..n,
    by Laplace expansion along the first selected row.  Integer entries
    give integer minors."""
    n = len(a)
    prev = {}
    for p in range(1, n + 1):
        table = {}
        for rset in itertools.combinations(range(1, n + 1), p):
            first = a[rset[0] - 1]
            rest = rset[1:]
            for cset in itertools.combinations(range(1, n + 1), p):
                if p == 1:
                    table[(rset, cset)] = first[cset[0] - 1]
                    continue
                acc = 0
                for t, c in enumerate(cset):
                    coeff = first[c - 1]
                    if coeff:
                        sub = prev[(rest, cset[:t] + cset[t + 1 :])]
                        acc += coeff * sub if t % 2 == 0 else -coeff * sub
                table[(rset, cset)] = acc
        yield p, table
        prev = table


def first_minor(a, predicate):
    """Lexicographically first (orders ascending, then rows, then columns)
    minor whose value satisfies the predicate, as (rows, cols, value)."""
    for _, table in minor_tables(a):
        for (rset, cset), value in table.items():
            if predicate(value):
                return rset, cset, value
    return None


def corner_minor(a, side: str, size: int) -> Fraction:
    """The lower-left or upper-right corner minor of the given size."""
    n = len(a)
    tail = tuple(range(n - size + 1, n + 1))
    head = tuple(range(1, size + 1))
    rows, cols = (tail, head) if side == "lower-left" else (head, tail)
    return submatrix_det(a, rows, cols)


def corner_exponents(a):
    """For an oscillatory matrix: (least power with every lower-left corner
    of sizes 1..n-1 positive, the same for upper-right, and the least power
    for each lower-left corner size c = 1..n-1)."""
    n = len(a)
    per_corner = {}
    r_lower = r_upper = None
    power = a
    for k in range(1, n):
        for c in range(1, n):
            if c not in per_corner and corner_minor(power, "lower-left", c) > 0:
                per_corner[c] = k
        if r_lower is None and len(per_corner) == n - 1:
            r_lower = k
        if r_upper is None and all(
            corner_minor(power, "upper-right", c) > 0 for c in range(1, n)
        ):
            r_upper = k
        if r_lower is not None and r_upper is not None:
            break
        power = mat_mul(power, a)
    if r_lower is None or r_upper is None:
        raise ValueError("matrix is not oscillatory")
    return r_lower, r_upper, [per_corner[c] for c in range(1, n)]


def mu(n: int, family: str, s: int) -> int:
    """Closed-form lower exponent of a class shape."""
    if family == "Z1":
        return -((n - 1) // -(s - 1))
    return s - 1
