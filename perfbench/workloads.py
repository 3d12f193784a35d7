"""The four workloads: their input mix, how an op runs, and how it is checked.

A *cell* is (command, kind, n).  Each cell has VARIANTS inputs, built from
a fixed per-cell seed; the digest of each input's JSON payload at the
commit that defined the benchmark is in ``golden.json``.  The run's
``--seed`` picks which variant each cell uses in each cycle and the order
of the ops, so every op it runs can be checked against its digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs as gen

VARIANTS = 8
MATRIX_KINDS = ("tp", "osc", "basic", "itn", "singular", "neg1", "neg2", "negtop")
EXIT_CODES = {"NotITN": 4, "NotOscillatory": 5, "Unpredictable": 6}
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple  # (command, kind, n)
    warmup: tuple  # cells run once, untimed, during set-up
    min_cycles: int  # a run measures at least this many whole cycles
    cli: bool = False

    def tail_rank(self, samples: int) -> tuple[int, float]:
        """(0-based rank in sorted latencies, percentile) of the tail.

        The tail leaves k + 1/2 cells' worth of samples above it, the least
        that is at least TAIL_BEYOND samples in the shortest run: the rank
        falls in the middle of one cell's samples, not on the edge between
        two cells, and the percentile does not depend on the run's length.
        """
        cells_above = math.ceil(TAIL_BEYOND / self.min_cycles - 0.5) + 0.5
        above = math.floor(samples * cells_above / len(self.cells))
        return samples - 1 - above, 100 * (1 - cells_above / len(self.cells))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify-mix",
            # at n = 8, TP, basic and determinant-only inputs take ~2 s each
            # and would fill most of a run; the other kinds cover that size
            tuple(
                ("classify", k, n)
                for n in (5, 6, 7, 8)
                for k in MATRIX_KINDS
                if n < 8 or k not in ("tp", "basic", "negtop")
            ),
            (("classify", "osc", 5),),
            min_cycles=2,
        ),
        Workload(
            "exponent-routes",
            tuple(
                (route, kind, n)
                for n in range(5, 11)
                for kind in ("clsA", "clsB", "rnd10", "rnd30", "rnd55")
                for route in ("exponent:theorem", "exponent:predict")
            )
            + tuple(
                ("exponent:brute", kind, n) for n in (4, 5, 6) for kind in ("clsA", "rnd30")
            )
            + (("exponent:theorem", "itn", 7), ("exponent:brute", "itn", 5)),
            # builds the class catalog for every n the workload touches
            tuple(("exponent:predict", "clsA", n) for n in range(5, 11))
            + (("exponent:brute", "clsA", 4),),
            min_cycles=2,
        ),
        Workload(
            "network-text",
            tuple(
                ("network:2", kind, n)
                for n in range(4, 9)
                for kind in ("canonical", "commuted")
            ),
            (("network:2", "commuted", 4),),
            min_cycles=10,
        ),
        Workload(
            "cli-cold",
            tuple(("classify", "osc", n) for n in (4, 5, 6))
            + tuple(("factorize", "osc", n) for n in range(4, 10))
            # the two methods alternate over n = 4..9: more cycles fit a run
            + tuple(("exponent:predict", "clsA", n) for n in (4, 6, 8))
            + tuple(("exponent:theorem", "clsB", n) for n in (5, 7, 9))
            + tuple(("network:2", "commuted", n) for n in range(4, 8))
            + (("factorize", "neg1", 5), ("exponent:theorem", "itn", 6)),
            (("classify", "osc", 4),),
            min_cycles=6,
            cli=True,
        ),
    )
}


@dataclass
class Case:
    workload: str
    command: str  # classify | factorize | exponent:<method> | network:<copies>
    kind: str
    n: int
    variant: int
    text: str  # the input document: matrix JSON or factor text
    rows: list | None  # the input matrix
    facts: dict  # what the construction fixes

    @property
    def cell(self) -> str:
        return f"{self.command}/{self.kind}/{self.n}"

    @property
    def key(self) -> str:
        return hashlib.sha256(f"{self.command}\n{self.text}".encode()).hexdigest()[:16]


def no_span(name):
    return contextlib.nullcontext()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- inputs ---------------------------------------------------------------------


def matrix_json(rows) -> str:
    doc = {
        "rows": len(rows),
        "cols": len(rows[0]),
        "entries": [[gen.fmt(x) for x in row] for row in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


VERDICTS = ("is_tn", "is_invertible", "is_tp", "is_oscillatory", "is_basic_oscillatory")


def _verdicts(*values) -> dict:
    return dict(zip(VERDICTS, values))


def _oscillatory_widths(n, shape):
    """Staircase widths for both sides covering every index, neither
    totally positive nor basic."""
    while True:
        widths = [gen.oscillatory_widths(n, shape, 0.5) for _ in range(2)]
        full = all(w == gen.full_widths(n) for w in widths)
        if not full and any(_overlap(n, w) for w in widths):
            return widths


def _overlap(n, widths) -> bool:
    covered = [j for i, w in widths.items() for j in range(i, i + w)]
    return len(covered) != len(set(covered))


def _itn_only_widths(n, shape):
    """Staircase widths where one index is missing on one side."""
    widths = [gen.oscillatory_widths(n, shape, 0.5) for _ in range(2)]
    side, j = shape.randrange(2), shape.randint(2, n)
    for i in range(2, j + 1):
        if i + widths[side][i] - 1 >= j:
            widths[side][i] = j - i
    return widths


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator in the open interval
    (lo, hi), 0 <= lo < hi, by continued fractions."""
    whole = lo.numerator // lo.denominator
    if whole + 1 < hi:
        return Fraction(whole + 1)
    if lo == whole:
        return whole + Fraction(1, int(1 / (hi - whole)) + 1)
    return whole + 1 / _simplest_between(1 / (hi - whole), 1 / (lo - whole))


def _negative_top_only(n, values):
    """A matrix whose minors of orders below n are all positive but whose
    determinant is negative: lower a_11 of a totally positive B past
    det B / det B[2..n] but below every other minor's threshold."""
    full = gen.full_widths(n)
    while True:
        d = gen.diagonal(n, values)
        b = gen.product(
            n, gen.canonical_factors(n, gen.staircase(n, full, values), d, gen.staircase(n, full, values))
        )
        tables = dict(gen.minor_tables(b))
        tables[0] = {((), ()): 1}
        limits = {}
        for p in range(1, n + 1):
            for (rset, cset), value in tables[p].items():
                if rset[0] == 1 and cset[0] == 1:
                    limits[p] = min(
                        limits.get(p, value * 2),
                        Fraction(value, tables[p - 1][(rset[1:], cset[1:])]),
                    )
        lowest = min(limits[p] for p in range(1, n))
        if lowest > limits[n]:
            b[0][0] -= _simplest_between(limits[n], lowest)
            return b


def matrix_input(kind, n, shape, values):
    """(rows, facts) for a classify or factorize cell: `shape` fixes the
    supports and positions, `values` the multipliers."""
    d = gen.diagonal(n, values)

    def ldu(widths):
        lo, up = (gen.staircase(n, w, values) for w in widths)
        return gen.product(n, gen.canonical_factors(n, lo, d, up)), dict(lo=lo, up=up, d=d)

    if kind == "tp":
        rows, parts = ldu([gen.full_widths(n)] * 2)
        return rows, dict(_verdicts(True, True, True, True, False), **parts)
    if kind == "basic":
        rows, parts = ldu([gen.basic_widths(n, shape) for _ in range(2)])
        return rows, dict(_verdicts(True, True, False, True, True), **parts)
    if kind == "itn":
        rows, parts = ldu(_itn_only_widths(n, shape))
        return rows, dict(_verdicts(True, True, False, False, False), **parts)
    if kind == "negtop":
        rows = _negative_top_only(n, values)
        facts = _verdicts(False, True, False, False, None)
        whole = tuple(range(1, n + 1))
        facts["tn_witness"] = facts["tp_witness"] = (whole, whole, gen.det(rows))
        return rows, facts
    rows, parts = ldu(_oscillatory_widths(n, shape))
    if kind == "osc":
        return rows, dict(_verdicts(True, True, False, True, False), **parts)
    if kind == "singular":
        k = shape.randrange(n - 1)
        rows[k + 1] = list(rows[k])
        return rows, _verdicts(True, False, False, False, None)
    if kind == "neg1":
        i, j = shape.randrange(n), shape.randrange(n)
        rows[i][j] = -values.randint(*gen.MULTIPLIERS)
        facts = _verdicts(False, None, False, False, None)
        facts["tn_witness"] = ((i + 1,), (j + 1,), rows[i][j])
        return rows, facts
    if kind == "neg2":
        k = shape.randrange(n - 1)
        rows[k], rows[k + 1] = rows[k + 1], rows[k]
        return rows, _verdicts(False, None, False, False, None)
    raise ValueError(f"unknown matrix kind {kind!r}")


def exponent_input(kind, n, shape, values):
    d = gen.diagonal(n, values)
    if kind == "clsA":
        lo = gen.staircase(n, gen.z1_widths(n, 3), values)
        up = gen.staircase(n, gen.z2_widths(n, 4, shape.randint(1, n - 3)), values)
        facts = {"mu_l": gen.mu(n, "Z1", 3), "mu_u": gen.mu(n, "Z2", 4)}
    elif kind == "clsB":
        lo = gen.staircase(n, gen.z2_widths(n, 3, shape.randint(1, n - 2)), values)
        up = gen.staircase(n, gen.z1_widths(n, 2), values)
        facts = {"mu_l": gen.mu(n, "Z2", 3), "mu_u": gen.mu(n, "Z1", 2)}
    elif kind.startswith("rnd"):
        # a pure upper side, so a recognized lower side gives an upper bound
        lo = gen.random_support(n, shape, values, int(kind[3:]) / 100)
        up = gen.staircase(n, gen.z1_widths(n, 3), values)
        facts = {"oracle": True}
    elif kind == "itn":
        lo, up = (gen.staircase(n, w, values) for w in _itn_only_widths(n, shape))
        facts = {"error": "NotOscillatory"}
    else:
        raise ValueError(f"unknown exponent kind {kind!r}")
    return gen.product(n, gen.canonical_factors(n, lo, d, up)), facts


def make_case(workload: str, cell: tuple, variant: int) -> Case:
    """Variant `variant` of a cell.  The cell's own seed fixes the shape
    (supports, positions), so variants differ in multipliers only and cost
    about the same; for network cells the commuted order varies too."""
    command, kind, n = cell
    if command.startswith("network"):
        # canonical and commuted cells share their factorization
        shape = random.Random(f"{workload}/{command}/{n}")
        values = random.Random(f"{workload}/{command}/{n}/{variant}")
        lo, up = (gen.staircase(n, w, values) for w in _oscillatory_widths(n, shape))
        factors = gen.canonical_factors(n, lo, gen.diagonal(n, values), up)
        facts = {"factors": factors}
        if kind == "commuted":
            factors = gen.commuted(factors, values, 4)
        text = gen.factor_text(factors) + "\n"
        return Case(workload, command, kind, n, variant, text, gen.product(n, factors), facts)
    shape = random.Random(f"{workload}/{command}/{kind}/{n}")
    values = random.Random(f"{workload}/{command}/{kind}/{n}/{variant}")
    make = exponent_input if command.startswith("exponent") else matrix_input
    rows, facts = make(kind, n, shape, values)
    return Case(workload, command, kind, n, variant, matrix_json(rows), rows, facts)


def cycle_cases(workload: Workload, seed: int, cycle: int) -> list[Case]:
    """The ops of one cycle: every cell once, in a seeded order, each with
    the variant the seed assigns to this cycle."""
    cases = []
    for cell in workload.cells:
        order = random.Random(f"{seed}/{'/'.join(map(str, cell))}").sample(
            range(VARIANTS), VARIANTS
        )
        cases.append(make_case(workload.name, cell, order[cycle % VARIANTS]))
    random.Random(f"{seed}/cycle/{cycle}").shuffle(cases)
    return cases


# -- running an op --------------------------------------------------------------


def error_payload(err) -> dict:
    return {
        "schema": "oscillax.error/1",
        "status": "error",
        "error": {"type": type(err).__name__, "message": str(err)},
    }


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


class LibraryRunner:
    """Calls the library and renders the payload the CLI would print."""

    def __init__(self):
        import oscillax
        from oscillax import exponent, planar

        self.ox = oscillax
        self.exponent = exponent
        self.planar = planar

    def prepare(self, case: Case):
        return case.text if case.command.startswith("network") else self.ox.Matrix(case.rows)

    def run(self, case: Case, arg, span=no_span) -> tuple[int, str]:
        """Returns (exit code the CLI would give, payload text)."""
        try:
            result = self._compute(case.command, arg)
        except self.ox.OscillaxError as err:
            with span("report.serialize"):
                return EXIT_CODES.get(type(err).__name__, 1), dumps(error_payload(err))
        with span("report.serialize"):
            return 0, dumps(self._payload(case.command, result))

    def _compute(self, command, arg):
        ox = self.ox
        if command == "classify":
            return ox.classify(arg)
        if command == "exponent:theorem":
            return ox.exponent_via_theorem(arg)
        if command == "exponent:brute":
            return ox.exponent_bruteforce(arg)
        if command == "exponent:predict":
            return self.exponent.exponent_via_prediction(arg)
        if command == "network:2":
            net = ox.build_network(ox.factorization_from_text(arg))
            table = [ox.min_copies_lower_corner(net, c) for c in range(1, net.n)]
            return net, table, ox.export_dot(self.planar.concat_copies(net, 2))
        raise ValueError(f"no library op for {command!r}")

    def _payload(self, command, result) -> dict:
        name = command.split(":")[0]
        payload = {"schema": f"oscillax.{name}/1", "status": "ok"}
        if command == "classify":
            payload.update(result.to_json_dict())
        elif command == "exponent:predict":
            prediction, l_tag, u_tag = result
            payload["method"] = "predict"
            payload["prediction"] = prediction.to_json_dict()
            payload["l_class"] = l_tag.to_json_dict()
            payload["u_class"] = u_tag.to_json_dict()
        elif command.startswith("exponent"):
            payload["method"] = command.split(":")[1]
            payload["report"] = result.to_json_dict()
        else:
            net, table, dot = result
            payload["network"] = self.planar.network_to_json_dict(net)
            payload["dot"] = dot
            payload["copies"] = 2
            payload["lower_corner_table"] = [
                {
                    "corner_size": c,
                    "min_copies": None if k == float("inf") else k,
                    "positive_at_copies": k != float("inf") and k <= 2,
                }
                for c, k in enumerate(table, start=1)
            ]
        return payload


class CliRunner:
    """Runs ``python -m oscillax`` in a child process, one at a time."""

    ARGS = {
        "classify": ["classify"],
        "factorize": ["factorize"],
        "exponent:predict": ["exponent", "--method", "predict"],
        "exponent:theorem": ["exponent", "--method", "theorem"],
        "network:2": ["network", "--copies", "2"],
    }

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("OSCILLAX_SEED", None)
        self.peak_rss_kb = 0

    def prepare(self, case: Case) -> Path:
        path = self.workdir / f"{case.key}.in"
        path.write_text(case.text)
        return path

    def spawn(self, args) -> tuple[int, str, int]:
        """(exit code, stdout, peak RSS in KiB) of one child."""
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            cwd=self.root,
            env=self.env,
        )
        with proc.stdout:
            out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss

    def run(self, case: Case, path, span=no_span) -> tuple[int, str]:
        code, out, rss = self.spawn(
            ["-m", "oscillax", *self.ARGS[case.command], "--input", str(path)]
        )
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        return code, out


# -- the oracle -------------------------------------------------------------------


def _witness(w):
    if w is None:
        return None
    rows, cols, value = w
    return {"rows": list(rows), "cols": list(cols), "value": gen.fmt(value)}


def _check_classify(case: Case, doc: dict) -> list[str]:
    facts, rows = case.facts, case.rows
    expected = {k: facts[k] for k in VERDICTS}
    if expected["is_invertible"] is None:
        expected["is_invertible"] = gen.det(rows) != 0
    tn_w = facts.get("tn_witness")
    if tn_w is None and not facts["is_tn"]:
        tn_w = gen.first_minor(rows, lambda v: v < 0)
    tp_w = facts.get("tp_witness")
    if tp_w is None and not facts["is_tp"]:
        tp_w = gen.first_minor(rows, lambda v: v <= 0)
    expected["witnesses"] = {"tn": _witness(tn_w), "tp": _witness(tp_w)}
    expected["n"] = case.n
    return [
        f"{key}: got {doc.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if doc.get(key) != value
    ]


def _check_factorize(case: Case, doc: dict) -> list[str]:
    f = case.facts
    l_flat, u_flat = gen.flat_vectors(case.n, f["lo"], f["up"])
    expected = {"n": case.n, "l": l_flat, "d": [gen.fmt(x) for x in f["d"]], "u": u_flat}
    got = doc.get("factorization")
    return [] if got == expected else [f"factorization {got!r}, expected {expected!r}"]


def _check_exponent(case: Case, doc: dict) -> list[str]:
    facts, rows, n = case.facts, case.rows, case.n
    if "mu_l" in facts:
        rl, ru = facts["mu_l"], facts["mu_u"]
    else:
        rl, ru, _ = gen.corner_exponents(rows)
    r = max(rl, ru)
    if case.command == "exponent:predict":
        pred = doc.get("prediction") or {}
        if "mu_l" in facts and pred != {"kind": "exact", "value": r}:
            return [f"prediction {pred!r}, expected exact {r}"]
        if pred.get("kind") == "exact" and pred.get("value") != r:
            return [f"exact prediction {pred!r}, exponent is {r}"]
        if pred.get("kind") == "upper_bound" and not pred.get("value", 0) >= r:
            return [f"upper bound {pred!r} below exponent {r}"]
        return [] if pred.get("kind") in ("exact", "upper_bound") else [f"prediction {pred!r}"]
    report = doc.get("report") or {}
    problems = [
        f"{key}: got {report.get(key)!r}, expected {value!r}"
        for key, value in (("n", n), ("r", r), ("r_lower", rl), ("r_upper", ru))
        if report.get(key) != value
    ]
    if problems:
        return problems
    power = rows
    for _ in range(r - 1):
        power = gen.mat_mul(power, rows)
    wp = report.get("witness_power") or {}
    if wp.get("k") != r or wp.get("entries") != [[gen.fmt(x) for x in row] for row in power]:
        problems.append("witness_power is not A^r")
    zero = report.get("zero_witness")
    if r == 1:
        if zero is not None:
            problems.append(f"zero witness {zero!r} at r = 1")
    else:
        below = rows
        for _ in range(r - 2):
            below = gen.mat_mul(below, rows)
        if not zero or zero.get("power") != r - 1 or gen.corner_minor(below, zero["side"], zero["size"]) != 0:
            problems.append(f"zero witness {zero!r} is not a vanishing corner of A^{r - 1}")
    return problems


def _check_network(case: Case, doc: dict) -> list[str]:
    layers = []
    for fac in case.facts["factors"]:
        if fac[0] == "D":
            layers.append({"diag": "horizontal", "d": [gen.fmt(x) for x in fac[1]]})
        else:
            diag = "down" if fac[0] == "L" else "up"
            layers.append({"diag": diag, "i": fac[1], "w": gen.fmt(fac[2])})
    _, _, per_corner = gen.corner_exponents(case.rows)
    table = [
        {"corner_size": c, "min_copies": k, "positive_at_copies": k <= 2}
        for c, k in enumerate(per_corner, start=1)
    ]
    expected = {"network": {"n": case.n, "layers": layers}, "copies": 2, "lower_corner_table": table}
    return [
        f"{key}: got {doc.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if doc.get(key) != value
    ]


def expected_error(case: Case) -> str | None:
    if case.facts.get("error"):
        return case.facts["error"]
    if case.command == "factorize" and not case.facts["is_tn"]:
        return "NotITN"
    return None


def check(case: Case, code: int, text: str, golden: dict) -> list[str]:
    """Problems with one op's outcome; empty when it is correct."""
    recorded = golden.get(case.key)
    problems = []
    if recorded != digest(text):
        problems.append(f"payload digest {digest(text)} != recorded {recorded}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"payload is not JSON: {exc}"]
    err = expected_error(case)
    got_err = (doc.get("error") or {}).get("type") if doc.get("status") == "error" else None
    if err is not None:
        if got_err != err or code != EXIT_CODES[err]:
            problems.append(f"expected {err} (exit {EXIT_CODES[err]}), got {got_err} (exit {code})")
        return problems
    if case.command == "exponent:predict" and "oracle" in case.facts and got_err == "Unpredictable":
        if code != EXIT_CODES["Unpredictable"]:
            problems.append(f"Unpredictable with exit {code}")
        return problems
    if code != 0 or got_err is not None or doc.get("status") != "ok":
        return problems + [f"exit {code}, error {got_err}"]
    schema = f"oscillax.{case.command.split(':')[0]}/1"
    if doc.get("schema") != schema:
        problems.append(f"schema {doc.get('schema')!r}, expected {schema!r}")
    if case.command == "classify":
        problems += _check_classify(case, doc)
    elif case.command == "factorize":
        problems += _check_factorize(case, doc)
    elif case.command.startswith("exponent"):
        problems += _check_exponent(case, doc)
    else:
        problems += _check_network(case, doc)
    return problems
