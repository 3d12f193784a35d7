"""Command-line front end.

Machine-readable JSON goes to stdout; human-readable summaries go to
stderr.  Exit codes: 0 ok, 1 verification failure, 2 parse error,
3 feasibility cap, 4 not invertible-TN, 5 not oscillatory, 6 bad
parameters.  Each subcommand takes only the options it reads: ``--output``
on all, ``--format`` on ``factorize`` and ``network`` (the two with a text
rendering), and ``--seed`` (default 0), the one channel of randomness, on
``generate`` and ``verify`` (the two that draw random numbers).

Each subcommand imports the modules only it runs, so a cold call compiles
and loads no more than its own work needs.  The records those modules
define are NamedTuples, so no call imports ``inspect`` or ``exec``s
generated record methods at start-up.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .classify import classify
from .errors import (
    ClassMismatch,
    FeasibilityExceeded,
    IndexOutOfRange,
    InvalidPsiPattern,
    MalformedNumber,
    NotITN,
    NotNormalizable,
    NotOscillatory,
    OscillaxError,
    ParamOutOfRange,
    ShapeMismatch,
    Unpredictable,
    ZeroDenominator,
)
from .matrix import (
    SCAN_CAP_DEFAULT,
    Matrix,
    loads_matrix,
    matrix_from_csv,
    matrix_to_json_dict,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_FEASIBILITY = 3
EXIT_NOT_ITN = 4
EXIT_NOT_OSCILLATORY = 5
EXIT_BAD_PARAMS = 6

SCHEMA_PREFIX = "oscillax"
SCHEMA_VERSION = 1


def _schema(name: str) -> str:
    return f"{SCHEMA_PREFIX}.{name}/{SCHEMA_VERSION}"


def _read_input(path: str, loads, parse_text, noun: str):
    """Read a JSON document (first non-blank character ``{``) by ``loads``,
    anything else by ``parse_text``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedNumber(f"cannot read {path}: {exc}") from exc
    if not text.lstrip().startswith("{"):
        return parse_text(text)
    try:
        return loads(text)
    except OscillaxError:
        raise  # several are ValueErrors; they keep their type
    # ValueError includes JSONDecodeError and integers past the digit limit
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise MalformedNumber(f"bad {noun} JSON in {path}: {exc}") from exc


def _read_matrix(path: str) -> Matrix:
    return _read_input(path, loads_matrix, matrix_from_csv, "matrix")


def _read_factorization(path: str):
    from .seb import factorization_from_text, loads_factorization

    return _read_input(path, loads_factorization, factorization_from_text, "factorization")


def _emit(payload: dict, args, text_body: str | None = None) -> None:
    if text_body is not None and args.format == "text":
        body = text_body if text_body.endswith("\n") else text_body + "\n"
    else:
        body = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(body)
    if args.output:
        Path(args.output).write_text(body)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# -- subcommands ---------------------------------------------------------------


def cmd_classify(args) -> int:
    a = _read_matrix(args.input)
    report = classify(a, args.cap)
    payload = {"schema": _schema("classify"), "status": "ok", **report.to_json_dict()}
    _note(
        f"classify: n={a.rows} tn={payload['is_tn']} tp={payload['is_tp']} "
        f"oscillatory={payload['is_oscillatory']}"
    )
    _emit(payload, args)
    return EXIT_OK


def cmd_factorize(args) -> int:
    from .seb import (
        factorization_to_json_dict,
        factorization_to_text,
        neville_factorize,
        w_q_form,
    )

    a = _read_matrix(args.input)
    f = neville_factorize(a)
    text = factorization_to_text(f)
    wq = str(w_q_form(f))
    payload = {
        "schema": _schema("factorize"),
        "status": "ok",
        "form": args.form,
        "factorization": factorization_to_json_dict(f),
        "text": text,
        "wq": wq,
    }
    _note(f"factorize: n={f.n} {text}")
    _emit(payload, args, text_body=wq if args.form == "wq" else text)
    return EXIT_OK


def cmd_exponent(args) -> int:
    from .exponent import exponent_bruteforce, exponent_via_prediction, exponent_via_theorem

    a = _read_matrix(args.input)
    payload = {"schema": _schema("exponent"), "status": "ok", "method": args.method}
    if args.method == "brute":
        report = exponent_bruteforce(a, args.cap)
        payload["report"] = report.to_json_dict()
        summary = f"r={report.r}"
    elif args.method == "theorem":
        report = exponent_via_theorem(a)
        payload["report"] = report.to_json_dict()
        summary = f"r={report.r} (lower {report.r_lower}, upper {report.r_upper})"
    else:
        prediction, l_tag, u_tag = exponent_via_prediction(a)
        payload["prediction"] = prediction.to_json_dict()
        payload["l_class"] = l_tag.to_json_dict()
        payload["u_class"] = u_tag.to_json_dict()
        summary = f"{prediction.kind}={prediction.value}"
    _note(f"exponent[{args.method}]: {summary}")
    _emit(payload, args)
    return EXIT_OK


def cmd_network(args) -> int:
    from .planar import (
        build_network,
        concat_copies,
        export_dot,
        min_copies_lower_corner,
        network_to_json_dict,
    )

    f = _read_factorization(args.input)
    net = build_network(f)
    # the DOT shows the copies when asked for; concat_copies rejects copies < 1
    shown = net if args.copies is None else concat_copies(net, args.copies)
    dot = export_dot(shown)
    payload = {
        "schema": _schema("network"),
        "status": "ok",
        "network": network_to_json_dict(net),
        "dot": dot,
    }
    if args.copies is not None:
        table = []
        for c in range(1, net.n):
            copies = min_copies_lower_corner(net, c)
            table.append(
                {
                    "corner_size": c,
                    "min_copies": None if copies == float("inf") else copies,
                    "positive_at_copies": (
                        copies != float("inf") and copies <= args.copies
                    ),
                }
            )
        payload["copies"] = args.copies
        payload["lower_corner_table"] = table
    if args.dot:
        Path(args.dot).write_text(dot)
        _note(f"network: wrote DOT to {args.dot}")
    else:
        _note(f"network: n={net.n}, {len(net.layers)} layers")
    _emit(payload, args, text_body=dot)
    return EXIT_OK


def cmd_generate(args) -> int:
    import random

    from .exponent import generate_z1, generate_z2, with_transpose
    from .seb import compose, factorization_to_json_dict

    psi = None
    if args.psi:
        if args.psi == "random":
            psi = "random"
        else:
            # one L and decimal digits per token, as in the factor text
            tokens = [re.fullmatch(r"\s*L(\d+)\s*", t) for t in args.psi.split(",")]
            try:
                if not all(tokens):
                    raise ValueError("not an L<index> token")
                psi = {int(m.group(1)) for m in tokens}
            except ValueError as exc:  # also digits past int's conversion limit
                raise InvalidPsiPattern(f"cannot parse pattern {args.psi!r}") from exc
    if args.cls == "z1":
        if psi is not None:
            raise InvalidPsiPattern("z1 takes no partial-chain pattern")
        part = generate_z1(args.n, args.s, args.seed)
    else:
        part = generate_z2(args.n, args.s, psi, args.seed)
    payload = {
        "schema": _schema("generate"),
        "status": "ok",
        "class": args.cls,
        "n": args.n,
        "s": args.s,
        "psi": args.psi,
        "seed": args.seed,
        "factorization": factorization_to_json_dict(part),
    }
    if args.full:
        rng = random.Random(args.seed ^ 0x5EED)
        d = tuple(rng.randint(1, 4) for _ in range(args.n))
        full = with_transpose(part, d)
        payload["full_factorization"] = factorization_to_json_dict(full)
        payload["matrix"] = matrix_to_json_dict(compose(full))
    _note(f"generate: {args.cls}(s={args.s}) n={args.n} seed={args.seed}")
    _emit(payload, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suites

    results = run_suites(
        [args.suite], nmax=args.nmax, cases=args.cases, seed=args.seed
    )
    suites = [r.to_json_dict() for r in results]
    ok = all(r.ok for r in results)
    payload = {
        "schema": _schema("verify"),
        "status": "ok" if ok else "error",
        "seed": args.seed,
        "suites": suites,
    }
    for r in results:
        _note(f"verify[{r.suite}]: {r.passed}/{len(r.cases)} passed")
        for c in r.cases:
            if not c.ok:
                _note(f"  FAIL {c.name}: {c.detail}")
    _emit(payload, args)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# -- wiring ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscillax",
        description=(
            "Exact classification, factorization, planar networks, and "
            "exponents for totally nonnegative matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def text_format(p):
        p.add_argument(
            "--format", choices=("json", "text"), default="json",
            help="stdout format: the JSON payload (default) or its text rendering",
        )

    def seeded(p):
        p.add_argument(
            "--seed", type=int, default=0, help="seed of the random draws (default 0)"
        )

    p = sub.add_parser("classify", help="TN/TP/oscillatory report for a matrix")
    p.add_argument("--input", required=True, help="matrix file (JSON or CSV)")
    p.add_argument(
        "--cap",
        type=int,
        default=SCAN_CAP_DEFAULT,
        help="dimension cap of the minor scan of singular or non-TN inputs;"
        " invertible TN inputs need none",
    )
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("factorize", help="successive bidiagonal factorization")
    p.add_argument("--input", required=True, help="matrix file (JSON or CSV)")
    p.add_argument("--form", choices=("flat", "wq"), default="flat")
    text_format(p)
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("exponent", help="exponent of an oscillatory matrix")
    p.add_argument("--input", required=True, help="matrix file (JSON or CSV)")
    p.add_argument("--method", choices=("brute", "theorem", "predict"), default="brute")
    p.add_argument("--cap", type=int, default=SCAN_CAP_DEFAULT)
    p.set_defaults(fn=cmd_exponent)

    p = sub.add_parser("network", help="planar network of a factorization")
    p.add_argument("--input", required=True, help="factorization file (JSON or text)")
    p.add_argument(
        "--copies", type=int,
        help="report corner reachability; DOT shows the concatenated copies",
    )
    p.add_argument("--dot", help="write Graphviz output to this path")
    text_format(p)
    p.set_defaults(fn=cmd_network)

    p = sub.add_parser("generate", help="seeded class-shaped factorizations")
    p.add_argument("--class", dest="cls", choices=("z1", "z2"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument(
        "--psi", help="partial chain as L<index> tokens, e.g. 'L4' or 'L4,L5', or 'random'"
    )
    p.add_argument(
        "--full", action="store_true",
        help="pair with the transposed upper part and a diagonal",
    )
    seeded(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite",
        choices=("paper", "z1", "z2", "products", "bounds", "all"),
        default="all",
    )
    p.add_argument("--nmax", type=int)
    p.add_argument("--cases", type=int)
    seeded(p)
    p.set_defaults(fn=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--output", help="also write the payload to this path")
    return parser


_ERROR_EXIT = (
    (
        (MalformedNumber, ZeroDenominator, ShapeMismatch, NotNormalizable),
        EXIT_PARSE,
    ),
    ((FeasibilityExceeded,), EXIT_FEASIBILITY),
    ((NotITN,), EXIT_NOT_ITN),
    ((NotOscillatory,), EXIT_NOT_OSCILLATORY),
    (
        (
            ParamOutOfRange,
            InvalidPsiPattern,
            Unpredictable,
            ClassMismatch,
            IndexOutOfRange,
        ),
        EXIT_BAD_PARAMS,
    ),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OscillaxError as err:
        for kinds, code in _ERROR_EXIT:
            if isinstance(err, kinds):
                payload = {
                    "schema": _schema("error"),
                    "status": "error",
                    "error": {"type": type(err).__name__, "message": str(err)},
                }
                sys.stdout.write(json.dumps(payload, indent=2) + "\n")
                _note(f"error: {type(err).__name__}: {err}")
                return code
        raise  # internal invariants are bugs, not exits


if __name__ == "__main__":
    sys.exit(main())
