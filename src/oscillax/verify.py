"""Reference corpus and randomized verification suites.

The corpus holds the worked examples with externally known exact values;
the seeded suites check the closed-form exponent statements against
brute-force computation on powers of A.  The command-line ``verify``
subcommand runs the suites of :data:`SUITE_BUILDERS` (``paper``, ``z1``,
``z2``, ``products`` and ``bounds``); :func:`suite_theorem` and
:func:`suite_equivalence` are not among them and run only from the
tier-1 acceptance tests.  The four oscillation criteria and the corner
shortcut are private references here, checked against ``classify``'s
predicates by :func:`suite_equivalence`.
"""

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from .classify import (
    _first_minor,
    _off_diagonals_positive,
    classify,
    corner_minors,
    is_oscillatory,
    is_tn,
    is_tp,
)
from .errors import FeasibilityExceeded, NotITN, OscillaxError, ParamOutOfRange
from .exponent import (
    ClassMatch,
    _corner_powers,
    enumerate_psi_patterns,
    exponent_bruteforce,
    exponent_via_theorem,
    generate_z1,
    generate_z2,
    mu1,
    mu2,
    plus_extra_tag,
    predict_exponent,
    product_family_check,
    early_tp_product_scan,
    random_oscillatory_factorization,
    recognize_class,
    recognize_sides,
    resolve_psi_choice,
)
from .matrix import (
    SCAN_CAP_DEFAULT,
    Matrix,
    cauchy_binet_check,
    det,
    mat_mul,
    mat_pow,
    minor,
)
from .planar import build_network, minor_via_paths, enumerate_path_families
from .seb import (
    FactorizationClass,
    SEBFactorization,
    chain_layout,
    classify_factorization,
    compose,
    ebl,
    factorization_to_text,
    multiplier_count,
    neville_factorize,
)

_ZERO = Fraction(0)


# -- reference corpus ----------------------------------------------------------


def corpus_matrices() -> dict[str, Matrix]:
    """Worked-example matrices with known exact behavior."""
    return {
        # 3x3 elimination example with factor chain L3(1) L2(2) L3(3)
        "elim3": Matrix([[1, 1, 1], [2, 4, 8], [2, 10, 29]]),
        # 4x4 basic oscillatory example
        "basic4": Matrix(
            [[1, 6, 0, 0], [2, 13, 4, 20], [2, 13, 5, 25], [0, 0, 3, 16]]
        ),
        # 4x4 network example with the 1/10 entry
        "net4": Matrix(
            [
                [3, 1, 0, 0],
                [1, 4, 1, "1/10"],
                ["1/10", 1, 5, 3],
                [0, 0, 2, 7],
            ]
        ),
        # 4x4 exponent-3 example
        "exp4": Matrix(
            [[1, 1, 2, 2], [2, 3, 7, 9], [6, 9, 22, 30], [6, 9, 22, 31]]
        ),
        # 5x5 exponent-3 example
        "exp5": Matrix(
            [
                [1, 2, 0, 0, 0],
                [2, 5, 3, 0, 0],
                [0, 2, 7, 2, 6],
                [0, 8, 29, 11, 34],
                [0, 24, 89, 41, 131],
            ]
        ),
        # exponent-2 pair sharing class tags
        "pair_a": Matrix(
            [
                [2, 8, 16, 48],
                [8, 33, 67, 203],
                [8, "79/2", "179/2", "579/2"],
                [20, "269/2", "701/2", "2439/2"],
            ]
        ),
        "pair_b": Matrix(
            [[1, 2, 8, 24], [2, 6, 28, 88], [6, 23, 117, 376], [30, 145, 789, 2580]]
        ),
        # exponent-3 pair whose cross products are already totally positive
        "early_a": Matrix(
            [[1, 1, 2, 6], [3, 4, 9, 28], [3, 4, 10, 32], [6, 8, 20, 65]]
        ),
        "early_b": Matrix(
            [[1, 3, 3, 6], [2, 7, 7, 14], [6, 23, 24, 48], [6, 25, 27, 55]]
        ),
        # 3x3 upper-bound example, bound 2 and tight
        "bound3": Matrix([[1, 1, 4], [1, 2, 10], [0, 2, 13]]),
    }


class CaseResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class _SuiteResultFields(NamedTuple):
    suite: str
    cases: list[CaseResult]


class SuiteResult(_SuiteResultFields):
    """One suite's case results; :meth:`add` appends to ``cases``."""

    __slots__ = ()

    def __new__(cls, suite: str, cases: list[CaseResult] | None = None):
        return tuple.__new__(cls, (suite, [] if cases is None else cases))

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def add(self, name: str, fn) -> None:
        try:
            fn()
        except AssertionError as exc:
            self.cases.append(CaseResult(name, False, str(exc) or "assertion failed"))
        except OscillaxError as exc:
            self.cases.append(CaseResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            self.cases.append(CaseResult(name, True))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "total": len(self.cases),
            "passed": self.passed,
            "failed": self.failed,
            "failures": [
                {"name": c.name, "detail": c.detail} for c in self.cases if not c.ok
            ],
        }


def _assert_gk_bound(r: int, n: int) -> None:
    assert 1 <= r <= n - 1, f"exponent {r} violates the n-1 bound for n={n}"


def suite_paper() -> SuiteResult:
    """Replay every corpus example with exact expectations."""
    res = SuiteResult("paper")
    M = corpus_matrices()

    def case_elim3():
        a = M["elim3"]
        f = neville_factorize(a)
        assert f.l == (1, 2, 3), f.l
        assert f.d == (1, 2, 3), f.d
        assert f.u == (1, 1, 2), f.u
        assert factorization_to_text(f) == "L3(1) L2(2) L3(3) D(1,2,3) U3(2) U2(1) U3(1)"
        assert compose(f) == a

    res.add("elim3 factorization", case_elim3)

    def case_basic4():
        a = M["basic4"]
        f = neville_factorize(a)
        assert (
            factorization_to_text(f)
            == "L3(1) L2(2) L4(3) D(1,1,1,1) U3(4) U4(5) U2(6)"
        )
        assert classify_factorization(f) is FactorizationClass.BASIC_OSCILLATORY
        assert is_oscillatory(a)
        assert all(criterion(a) for criterion in _OSCILLATION_CRITERIA.values())

    res.add("basic4 factorization", case_basic4)

    def case_net4_values():
        a = M["net4"]
        assert is_tn(a).ok
        f = neville_factorize(a)
        net = build_network(f)
        assert minor(a, (2,), (4,)) == Fraction(1, 10)
        assert minor_via_paths(net, (2,), (4,)) == Fraction(1, 10)
        assert minor(a, (2,), (2,)) == 4
        assert minor_via_paths(net, (2,), (2,)) == 4
        assert minor(a, (1, 3), (2, 3)) == 5
        assert minor_via_paths(net, (1, 3), (2, 3)) == 5
        families = enumerate_path_families(net, (1, 3), (2, 3))
        assert len(families) == 3, f"expected 3 families, got {len(families)}"
        assert sum(fam.weight for fam in families) == 5

    res.add("net4 path values", case_net4_values)

    def case_exp4():
        a = M["exp4"]
        sq = mat_pow(a, 2)
        assert sq == Matrix(
            [
                [27, 40, 97, 133],
                [104, 155, 377, 520],
                [336, 501, 1219, 1683],
                [342, 510, 1241, 1714],
            ]
        )
        assert minor(sq, (2, 3, 4), (1, 2, 3)) == 0
        tp = is_tp(a)
        assert not tp.ok and tp.witness.rows == (2, 3) and tp.witness.cols == (1, 2)
        assert tp.witness.value == 0
        assert is_tp(mat_pow(a, 3)).ok
        brute = exponent_bruteforce(a)
        assert brute.r == 3
        _assert_gk_bound(brute.r, 4)
        assert brute.zero_witness.side == "lower-left"
        assert brute.zero_witness.size == 3
        assert (brute.r_lower, brute.r_upper) == (3, 2)
        thm = exponent_via_theorem(a)
        assert (thm.r_lower, thm.r_upper, thm.r) == (3, 2, 3)
        l_tag, u_tag = recognize_sides(neville_factorize(a))
        assert (l_tag.family, l_tag.s) == ("Z1", 2)
        assert (u_tag.family, u_tag.s) == ("Z1", 3)
        pred = predict_exponent(l_tag, u_tag)
        assert (pred.kind, pred.value) == ("exact", 3)

    res.add("exp4 exponent 3", case_exp4)

    def case_exp5():
        a = M["exp5"]
        f = neville_factorize(a)
        assert factorization_to_text(f) == (
            "L2(2) L5(3) L4(4) L3(2) L5(2) L4(1) L5(2) D(1,1,1,1,1) "
            "U5(1) U4(2) U5(3) U3(3) U2(2)"
        )
        assert f.l_chain(3) == (3, 4, 2)
        assert f.l_chain(4) == (2, 1)
        assert f.l_chain(5) == (2,)
        assert f.u_chain(5) == (1,)
        assert f.u_chain(4) == (2, 3)
        assert minor(mat_pow(a, 2), (1,), (4,)) == 0
        brute = exponent_bruteforce(a)
        assert brute.r == 3
        _assert_gk_bound(brute.r, 5)
        thm = exponent_via_theorem(a)
        assert (thm.r_lower, thm.r_upper, thm.r) == (2, 3, 3)
        l_tag, u_tag = recognize_sides(f)
        assert (l_tag.family, l_tag.s) == ("Z2", 3)
        assert (u_tag.family, u_tag.s, u_tag.psi_pattern) == ("Z2", 4, ())
        pred = predict_exponent(l_tag, u_tag)
        assert (pred.kind, pred.value) == ("exact", 3)

    res.add("exp5 exponent 3", case_exp5)

    def case_pair_products():
        a, b = M["pair_a"], M["pair_b"]
        fa, fb = neville_factorize(a), neville_factorize(b)
        assert factorization_to_text(fa) == (
            "L4(5/2) L3(1) L2(4) L4(11/2) L3(13/2) L4(1) D(2,1,3,5) "
            "U3(1) U4(2) U2(4) U3(2) U4(3)"
        )
        assert factorization_to_text(fb) == (
            "L4(5) L3(3) L2(2) L4(6) L3(5/2) L4(2) D(1,2,3,4) "
            "U3(2) U4(1) U2(2) U3(4) U4(3)"
        )
        for mat in (a, b):
            rep = exponent_bruteforce(mat)
            assert rep.r == 2, f"expected exponent 2, got {rep.r}"
            _assert_gk_bound(rep.r, 4)
        for prod in (
            mat_pow(a, 2),
            mat_pow(b, 2),
            mat_mul(a, b),
            mat_mul(b, a),
        ):
            assert is_tp(prod).ok
        l_tag, u_tag = recognize_sides(fa)
        assert ("Z1", 4) in [(m.family, m.s) for m in l_tag.exact]
        assert ("Z1", 3) in [(m.family, m.s) for m in u_tag.exact]
        check = product_family_check([fa, fb], 2)
        assert check.all_tp and check.counterexample is None
        check1 = product_family_check([fa, fb], 1)
        assert not check1.all_tp

    res.add("pair products exponent 2", case_pair_products)

    def case_early_products():
        a, b = M["early_a"], M["early_b"]
        fa, fb = neville_factorize(a), neville_factorize(b)
        assert factorization_to_text(fa) == (
            "L4(2) L3(1) L2(3) D(1,1,1,1) U3(1) U4(1) U2(1) U3(2) U4(3)"
        )
        assert factorization_to_text(fb) == (
            "L4(1) L3(3) L2(2) L4(1) L3(2) D(1,1,1,1) U2(3) U3(1) U4(2)"
        )
        assert exponent_bruteforce(a).r == 3
        assert exponent_bruteforce(b).r == 3
        assert is_tp(mat_mul(a, b)).ok
        assert is_tp(mat_mul(b, a)).ok
        hits = early_tp_product_scan([fa, fb], 2)
        assert hits == ((0, 1), (1, 0)), hits

    res.add("early cross products", case_early_products)

    def case_bound3():
        a = M["bound3"]
        f = neville_factorize(a)
        assert factorization_to_text(f) == "L2(1) L3(2) D(1,1,1) U3(2) U2(1) U3(4)"
        l_tag, u_tag = recognize_sides(f)
        assert (l_tag.family, l_tag.s) == ("Z2", 3)
        framed = None
        for base, extras in u_tag.with_extras:
            if (base.family, base.s) == ("Z2", 3):
                framed = plus_extra_tag(f.n, base, extras)
                assert [(e.kind, e.index) for e in extras] == [("L", 3)]
        assert framed is not None, "missing Z2(3)-plus-extra framing"
        pred = predict_exponent(l_tag, framed)
        assert (pred.kind, pred.value) == ("upper_bound", 2)
        brute = exponent_bruteforce(a)
        assert brute.r == 2, "bound must be tight here"
        _assert_gk_bound(brute.r, 3)

    res.add("bound3 upper bound tight", case_bound3)

    return res


# -- oscillation references ------------------------------------------------------
#
# Four criteria independent of the Neville test of classify.is_oscillatory (the
# first three scan every minor under ``cap``), and the corner shortcut for TP.


def _scan_tn(a: Matrix, cap: int | None) -> bool:
    return _first_minor(a, cap, lambda value: value < 0).ok


def _by_definition(a: Matrix, cap: int | None = None) -> bool:
    """TN with a totally positive power; power n-1 suffices."""
    powers = itertools.accumulate(itertools.repeat(a, a.rows - 1), mat_mul)
    tp = (_first_minor(power, cap, lambda value: value <= 0).ok for power in powers)
    return _scan_tn(a, cap) and any(tp)


def _by_gk(a: Matrix, cap: int | None = None) -> bool:
    """Gantmacher–Krein: nonsingular TN with a positive sub- and superdiagonal."""
    return _scan_tn(a, cap) and det(a) != 0 and _off_diagonals_positive(a)


def _irreducible(a: Matrix) -> bool:
    """Strong connectivity of the digraph with an arc i -> j iff a_ij != 0,
    by Warshall's transitive closure."""
    n = a.rows
    reach = [{i} | {j for j in range(n) if a[i, j] != 0} for i in range(n)]
    for k in range(n):
        for i in range(n):
            if k in reach[i]:
                reach[i] |= reach[k]
    return all(len(r) == n for r in reach)


def _by_irreducible(a: Matrix, cap: int | None = None) -> bool:
    """Nonsingular, TN and irreducible."""
    return _scan_tn(a, cap) and det(a) != 0 and _irreducible(a)


def _by_seb(a: Matrix, cap: int | None = None) -> bool:
    """Neville elimination runs and each side has every factor index."""
    try:
        f = neville_factorize(a)
    except NotITN:
        return False
    return classify_factorization(f) is not FactorizationClass.ITN_ONLY


_OSCILLATION_CRITERIA = {
    "definition": _by_definition,
    "gk": _by_gk,
    "irreducible": _by_irreducible,
    "seb": _by_seb,
}


def _corner_shortcut(a: Matrix) -> bool:
    """Total positivity of a TN matrix by its 2n-1 corner minors."""
    return all(value > 0 for _, value in corner_minors(a))


# -- seeded formula suites -------------------------------------------------------


def _case_seed(seed: int, *parts: int) -> int:
    out = seed & 0xFFFFFFFF
    for p in parts:
        out = (out * 1_000_003 + p + 1) & 0xFFFFFFFFFFFF
    return out


def _power_r_lower(a: Matrix) -> int | float:
    """The lower exponent of A read off its powers (infinite past n-1)."""
    return max(_corner_powers(a, ("lower-left",))[0]["lower-left"])


def suite_z1(nmax: int = 7, cases: int = 20, seed: int = 0) -> SuiteResult:
    """Lower exponents of full-chain shapes, read off powers of A, match
    the ceiling formula for every parameter choice."""
    res = SuiteResult("z1")
    for n in range(3, nmax + 1):
        for s in range(2, n + 1):
            expected = mu1(n, s)
            for idx in range(cases):
                name = f"z1 n={n} s={s} case={idx}"

                def check(n=n, s=s, idx=idx, expected=expected):
                    f = generate_z1(n, s, _case_seed(seed, n, s, idx))
                    got = _power_r_lower(compose(f))
                    assert got == expected, f"r_lower={got}, formula={expected}"
                    assert got <= n - 1

                res.add(name, check)
    return res


def suite_z2(nmax: int = 6, cases: int = 20, seed: int = 0) -> SuiteResult:
    """Same for partial-chain shapes, across every admissible pattern,
    against powers of A."""
    res = SuiteResult("z2")
    for n in range(3, nmax + 1):
        for s in range(2, n + 1):
            expected = mu2(n, s)
            for pidx, psi in enumerate(enumerate_psi_patterns(n, s)):
                members = None if psi is None else frozenset(psi | {s - 1})
                for idx in range(cases):
                    name = f"z2 n={n} s={s} psi={sorted(psi) if psi else []} case={idx}"

                    def check(
                        n=n, s=s, idx=idx, pidx=pidx, members=members, expected=expected
                    ):
                        f = generate_z2(
                            n, s, members, _case_seed(seed, n, s, pidx, idx)
                        )
                        got = _power_r_lower(compose(f))
                        assert got == expected, f"r_lower={got}, formula={expected}"
                        assert got <= n - 1

                    res.add(name, check)
    return res


def suite_theorem(
    cases: int = 200, seed: int = 0, nmax: int = 7
) -> tuple[SuiteResult, list]:
    """Brute force equals the decoupled max, and the lower exponent, read
    off powers of A, is blind to the upper multipliers and the diagonal."""
    res = SuiteResult("theorem")
    reports = []
    dims = list(range(3, nmax + 1))
    for idx in range(cases):
        n = dims[idx % len(dims)]
        name = f"theorem n={n} case={idx}"

        def check(n=n, idx=idx):
            rng = random.Random(_case_seed(seed, n, idx))
            density = rng.choice((0.1, 0.3, 0.55))
            f = random_oscillatory_factorization(n, rng, density)
            a = compose(f)
            brute = exponent_bruteforce(a)
            thm = exponent_via_theorem(a)
            assert brute.r == thm.r, f"brute {brute.r} != theorem {thm.r}"
            assert brute.r <= n - 1
            alt_d = tuple(Fraction(rng.randint(1, 5)) for _ in range(n))
            stripped = SEBFactorization(
                n, f.l, alt_d, (_ZERO,) * multiplier_count(n)
            )
            assert _power_r_lower(compose(stripped)) == _power_r_lower(a)
            reports.append((n, brute.r))

        res.add(name, check)
    return res, reports


def suite_equivalence(
    cases: int = 100, seed: int = 0, nmax: int = 5, cb_pairs: int = 50
) -> SuiteResult:
    """On mixed inputs: ``is_tn``, ``is_tp`` and ``classify`` against the
    full minor scan, the corner shortcut against the TP scan, the four
    oscillation criteria against ``is_oscillatory``; then network/algebra
    minor equality and the composition identity for minors of a product."""
    res = SuiteResult("equivalence")
    for idx in range(cases):
        n = 2 + (idx % (nmax - 1))
        name = f"equivalence n={n} case={idx}"

        def check(n=n, idx=idx):
            rng = random.Random(_case_seed(seed, n, idx, 7))
            if idx % 2 == 0:
                k = multiplier_count(n)
                l = tuple(
                    Fraction(rng.randint(1, 6)) if rng.random() < 0.6 else _ZERO
                    for _ in range(k)
                )
                u = tuple(
                    Fraction(rng.randint(1, 6)) if rng.random() < 0.6 else _ZERO
                    for _ in range(k)
                )
                d = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
                f = SEBFactorization(n, l, d, u)
                a = compose(f)
            else:
                f = None
                a = Matrix(
                    [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
                )
            tn = _first_minor(a, None, lambda value: value < 0)
            tp = _first_minor(a, None, lambda value: value <= 0)
            assert is_tn(a) == tn, "is_tn disagrees with the scan"
            assert is_tp(a) == tp, "is_tp disagrees with the scan"
            if tn.ok:
                assert _corner_shortcut(a) == tp.ok, "corner shortcut disagrees"
            rep = classify(a)
            assert (rep.is_tn, rep.tn_witness) == tn, "classify disagrees on TN"
            assert (rep.is_tp, rep.tp_witness) == tp, "classify disagrees on TP"
            assert rep.is_invertible == (det(a) != 0), "classify disagrees on det"
            oscillatory = is_oscillatory(a)
            assert rep.is_oscillatory == oscillatory, "classify disagrees"
            for criterion, holds in _OSCILLATION_CRITERIA.items():
                assert holds(a) == oscillatory, f"criterion {criterion} disagrees"
            if f is not None:
                net = build_network(f)
                for p in range(1, n + 1):
                    for rows in itertools.combinations(range(1, n + 1), p):
                        for cols in itertools.combinations(range(1, n + 1), p):
                            assert minor_via_paths(net, rows, cols) == minor(
                                a, rows, cols
                            ), f"path/minor mismatch at {rows}|{cols}"

        res.add(name, check)

    for idx in range(cb_pairs):
        name = f"cauchy-binet pair={idx}"

        def check(idx=idx):
            rng = random.Random(_case_seed(seed, idx, 13))
            a = Matrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)])
            b = Matrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(5)])
            for alpha in itertools.combinations(range(1, 5), 2):
                for beta in itertools.combinations(range(1, 4), 2):
                    assert cauchy_binet_check(a, b, alpha, beta)

        res.add(name, check)
    return res


def _random_class(rng: random.Random, n: int) -> tuple[str, int, frozenset | None]:
    family = rng.choice(("Z1", "Z2"))
    s = rng.randint(2, n)
    psi = resolve_psi_choice(n, s, "random", rng) if family == "Z2" else None
    return family, s, psi


def _generate_member(
    family: str, n: int, s: int, psi, seed: int
) -> SEBFactorization:
    if family == "Z1":
        return generate_z1(n, s, seed)
    members = None if psi is None else frozenset(psi | {s - 1})
    return generate_z2(n, s, members, seed)


def suite_products(nmax: int = 5, cases: int = 20, seed: int = 0) -> SuiteResult:
    """Ordered k-fold products of class-sharing members are all totally
    positive exactly from the formula threshold onward."""
    res = SuiteResult("products")
    for idx in range(cases):
        name = f"products case={idx}"

        def check(idx=idx):
            rng = random.Random(_case_seed(seed, idx, 29))
            n = rng.randint(3, nmax)
            lf, ls, lpsi = _random_class(rng, n)
            uf, us, upsi = _random_class(rng, n)
            members = []
            for j in range(2):
                lflat = _generate_member(
                    lf, n, ls, lpsi, _case_seed(seed, idx, j, 31)
                ).l
                uflat = chain_layout(n).mirror(
                    _generate_member(uf, n, us, upsi, _case_seed(seed, idx, j, 37)).l
                )
                d = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
                members.append(SEBFactorization(n, lflat, d, uflat))
            kstar = max(ClassMatch(lf, ls, None).mu(n), ClassMatch(uf, us, None).mu(n))
            at = product_family_check(members, kstar)
            assert at.all_tp, f"threshold k={kstar} failed: {at.counterexample}"
            if kstar > 1:
                below = product_family_check(members, kstar - 1)
                assert not below.all_tp, f"k={kstar - 1} unexpectedly all TP"
            assert kstar <= n - 1

        res.add(name, check)
    return res


def suite_bounds(nmax: int = 6, cases: int = 20, seed: int = 0) -> SuiteResult:
    """A pure class on one side and extra factors on the other bound the
    exponent from above by the pure formula value."""
    res = SuiteResult("bounds")
    for idx in range(cases):
        name = f"bounds case={idx}"

        def check(idx=idx):
            rng = random.Random(_case_seed(seed, idx, 41))
            n = rng.randint(3, nmax)
            lf, ls, lpsi = _random_class(rng, n)
            uf, us, upsi = _random_class(rng, n)
            base = _generate_member(lf, n, ls, lpsi, _case_seed(seed, idx, 43))
            support = {p for p, v in enumerate(base.l) if v > 0}
            free = [p for p in range(multiplier_count(n)) if p not in support]
            l = list(base.l)
            extra_count = min(len(free), rng.randint(1, 2))
            extra_slots = rng.sample(free, extra_count)
            for p in extra_slots:
                l[p] = Fraction(rng.randint(1, 9))
            u = chain_layout(n).mirror(
                _generate_member(uf, n, us, upsi, _case_seed(seed, idx, 47)).l
            )
            d = tuple(Fraction(rng.randint(1, 4)) for _ in range(n))
            f = SEBFactorization(n, tuple(l), d, u)
            a = compose(f)
            run = None if lpsi is None else tuple(
                itertools.takewhile(lpsi.__contains__, itertools.count(ls))
            )
            base_match = ClassMatch(lf, ls, run)
            indices = f.layout.lower_indices
            extras = tuple(ebl(indices[p], l[p]) for p in sorted(extra_slots))
            l_tag = plus_extra_tag(n, base_match, extras)
            u_tag = recognize_class(f.layout.mirror(f.u), n)
            assert u_tag.is_pure, "upper side should recognize exactly"
            pred = predict_exponent(l_tag, u_tag)
            brute = exponent_bruteforce(a)
            assert pred.kind == "upper_bound"
            assert brute.r <= pred.value, (
                f"brute {brute.r} exceeds bound {pred.value}"
            )
            assert brute.r <= n - 1

        res.add(name, check)
    return res


#: Default and ceiling of ``nmax`` for each seeded suite.  ``bounds``
#: scans every minor of an n x n power, so its ceiling is the scan cap;
#: ``z2`` enumerates up to 2^(s-3) partial-chain patterns per shape;
#: ``z1`` and ``products`` are polynomial in n and stop where a run at the
#: default ``cases`` takes seconds.  Above its ceiling a suite is refused
#: with ``FeasibilityExceeded`` before any suite runs.
SUITE_NMAX = {
    "z1": (7, 12),
    "z2": (6, 8),
    "products": (5, 20),
    "bounds": (6, SCAN_CAP_DEFAULT),
}
DEFAULT_CASES = 20

SUITE_BUILDERS = {
    "paper": lambda nmax, cases, seed: suite_paper(),
    "z1": suite_z1,
    "z2": suite_z2,
    "products": suite_products,
    "bounds": suite_bounds,
}


def run_suites(
    names, nmax: int | None = None, cases: int | None = None, seed: int = 0
) -> list[SuiteResult]:
    """Run the named suites; ``None`` picks each suite's default size."""
    if "all" in names:
        names = list(SUITE_BUILDERS)
    unknown = [name for name in names if name not in SUITE_BUILDERS]
    if unknown:
        raise ParamOutOfRange(f"unknown suite {unknown[0]!r}")
    if nmax is not None and nmax < 3:
        raise ParamOutOfRange(f"nmax must be >= 3, got {nmax}")
    if cases is not None and cases < 1:
        raise ParamOutOfRange(f"cases must be >= 1, got {cases}")
    sizes = {}
    for name in names:
        default, ceiling = SUITE_NMAX.get(name, (None, None))
        if nmax is not None and ceiling is not None and nmax > ceiling:
            raise FeasibilityExceeded(
                f"suite {name}: nmax {nmax} exceeds its ceiling {ceiling}"
            )
        sizes[name] = default if nmax is None else nmax
    cases = DEFAULT_CASES if cases is None else cases
    return [SUITE_BUILDERS[name](sizes[name], cases, seed) for name in names]
