import hashlib
import json
import sys

import pytest

from oscillax.cli import main
from oscillax.matrix import Matrix, dumps_matrix
from oscillax.seb import dumps_factorization, neville_factorize
from oscillax.verify import corpus_matrices

M = corpus_matrices()


def write_matrix(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(dumps_matrix(matrix))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.startswith("{") else captured.out
    return code, payload, captured.err


def test_classify_net4(tmp_path, capsys):
    path = write_matrix(tmp_path, "net4.json", M["net4"])
    code, payload, _ = run(capsys, ["classify", "--input", path])
    assert code == 0
    assert payload["is_tn"] is True
    assert payload["is_tp"] is False
    assert payload["is_oscillatory"] is True
    assert payload["status"] == "ok"


def test_classify_identity_not_oscillatory(tmp_path, capsys):
    from oscillax.matrix import Matrix

    path = write_matrix(tmp_path, "eye.json", Matrix.identity(3))
    code, payload, _ = run(capsys, ["classify", "--input", path])
    assert code == 0 and payload["is_oscillatory"] is False


def test_classify_negative_minor_witness(tmp_path, capsys):
    from oscillax.matrix import Matrix

    path = write_matrix(tmp_path, "neg.json", Matrix([[1, 2], [3, 1]]))
    code, payload, _ = run(capsys, ["classify", "--input", path])
    assert code == 0
    assert payload["is_tn"] is False
    assert payload["witnesses"]["tn"]["value"] == "-5"


def test_classify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, payload, _ = run(capsys, ["classify", "--input", str(bad)])
    assert code == 2
    assert payload["status"] == "error"


def test_classify_feasibility_exit(tmp_path, capsys):
    # the cap guards the scan of singular and non-TN inputs; net4 is
    # invertible TN and not TP, and is classified past it
    singular = Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    not_tn = Matrix([[1, 2, 0], [3, 1, 1], [0, 1, 2]])
    for name, a in (("singular", singular), ("not_tn", not_tn), ("net4", M["net4"])):
        path = write_matrix(tmp_path, f"{name}.json", a)
        code, payload, _ = run(capsys, ["classify", "--input", path, "--cap", "2"])
        assert code == (0 if name == "net4" else 3)
    assert payload["is_tn"] and not payload["is_tp"]


def test_classify_has_no_method_option(tmp_path, capsys):
    # one oscillation test remains; --method and its payload keys are gone
    path = write_matrix(tmp_path, "net4.json", M["net4"])
    with pytest.raises(SystemExit) as info:
        main(["classify", "--input", path, "--method", "seb"])
    assert info.value.code == 2
    assert "unrecognized arguments: --method seb" in capsys.readouterr().err
    code, payload, _ = run(capsys, ["classify", "--input", path])
    assert code == 0 and "method" not in payload and "method_verdict" not in payload


def test_classify_missing_file(capsys):
    code, payload, _ = run(capsys, ["classify", "--input", "/nonexistent.json"])
    assert code == 2


def test_factorize_elim3_text(tmp_path, capsys):
    path = write_matrix(tmp_path, "elim3.json", M["elim3"])
    code, payload, _ = run(capsys, ["factorize", "--input", path])
    assert code == 0
    assert payload["text"] == "L3(1) L2(2) L3(3) D(1,2,3) U3(2) U2(1) U3(1)"
    code, body, _ = run(
        capsys, ["factorize", "--input", path, "--form", "wq", "--format", "text"]
    )
    assert code == 0
    assert body.strip() == "W2(1,2) W3(3) D(1,2,3) Q3(2) Q2(1,1)"


def test_factorize_identity(tmp_path, capsys):
    from oscillax.matrix import Matrix

    path = write_matrix(tmp_path, "eye.json", Matrix.identity(3))
    code, payload, _ = run(capsys, ["factorize", "--input", path])
    assert code == 0 and payload["text"] == "D(1,1,1)"


def test_factorize_not_itn_exit(tmp_path, capsys):
    from oscillax.matrix import Matrix

    path = write_matrix(tmp_path, "neg.json", Matrix([[1, 2], [3, 1]]))
    code, payload, _ = run(capsys, ["factorize", "--input", path])
    assert code == 4


def test_exponent_brute_and_predict(tmp_path, capsys):
    path = write_matrix(tmp_path, "exp4.json", M["exp4"])
    code, payload, _ = run(capsys, ["exponent", "--input", path])
    assert code == 0 and payload["report"]["r"] == 3
    code, payload, _ = run(
        capsys, ["exponent", "--input", path, "--method", "theorem"]
    )
    assert code == 0 and payload["report"]["r"] == 3
    assert payload["report"]["r_lower"] == 3 and payload["report"]["r_upper"] == 2
    code, payload, _ = run(
        capsys, ["exponent", "--input", path, "--method", "predict"]
    )
    assert code == 0
    assert payload["prediction"] == {"kind": "exact", "value": 3}
    assert payload["l_class"]["family"] == "Z1" and payload["l_class"]["s"] == 2
    assert payload["u_class"]["family"] == "Z1" and payload["u_class"]["s"] == 3


def test_exponent_tp_input_r1(tmp_path, capsys):
    from oscillax.seb import SEBFactorization, compose

    f = SEBFactorization(3, (1, 1, 1), (1, 1, 1), (1, 1, 1))
    path = write_matrix(tmp_path, "tp.json", compose(f))
    for method in ("brute", "theorem"):
        code, payload, _ = run(
            capsys, ["exponent", "--input", path, "--method", method]
        )
        assert code == 0 and payload["report"]["r"] == 1


def test_exponent_not_oscillatory_exit(tmp_path, capsys):
    from oscillax.matrix import Matrix

    path = write_matrix(tmp_path, "eye.json", Matrix.identity(3))
    code, payload, _ = run(capsys, ["exponent", "--input", path])
    assert code == 5


NOT_OSCILLATORY_PAYLOAD = """{
  "schema": "oscillax.error/1",
  "status": "error",
  "error": {
    "type": "NotOscillatory",
    "message": "input is not oscillatory"
  }
}
"""


def test_exponent_predict_not_oscillatory_bytes(tmp_path, capsys):
    from oscillax.matrix import Matrix

    inputs = {
        "itn_only.json": Matrix.identity(3),
        "not_itn.json": Matrix([[1, 2], [3, 1]]),
    }
    for name, matrix in inputs.items():
        path = write_matrix(tmp_path, name, matrix)
        code = main(["exponent", "--input", path, "--method", "predict"])
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == NOT_OSCILLATORY_PAYLOAD
        assert captured.err == "error: NotOscillatory: input is not oscillatory\n"


def test_network_dot_and_corner_table(tmp_path, capsys):
    f = neville_factorize(M["elim3"])
    fpath = tmp_path / "elim3.fact.json"
    fpath.write_text(dumps_factorization(f))
    dot_out = tmp_path / "net.dot"
    code, payload, _ = run(
        capsys, ["network", "--input", str(fpath), "--dot", str(dot_out)]
    )
    assert code == 0
    assert dot_out.read_text().startswith("digraph planar_network")
    assert payload["network"]["layers"][0] == {"diag": "down", "i": 3, "w": "1"}

    # ascending-chain factorization at two copies: largest corner still zero
    from oscillax.exponent import generate_z2, with_transpose

    jac = with_transpose(generate_z2(4, 4, None, seed=3), (1, 1, 1, 1))
    jpath = tmp_path / "jacobi.fact.json"
    jpath.write_text(dumps_factorization(jac))
    code, payload, _ = run(
        capsys, ["network", "--input", str(jpath), "--copies", "2"]
    )
    assert code == 0
    table = {row["corner_size"]: row for row in payload["lower_corner_table"]}
    # the (4,1) corner entry of a tridiagonal needs n-1 = 3 copies
    assert table[1]["min_copies"] == 3
    assert table[1]["positive_at_copies"] is False
    assert table[2]["positive_at_copies"] is True
    assert table[3]["positive_at_copies"] is True


NETWORK_CAP_PAYLOAD = """{
  "schema": "oscillax.error/1",
  "status": "error",
  "error": {
    "type": "FeasibilityExceeded",
    "message": "path sweep over 9 tracks exceeds cap 8"
  }
}
"""


def test_network_copies_past_track_cap(tmp_path, capsys):
    from oscillax.seb import SEBFactorization

    f = SEBFactorization(9, (1,) * 36, (1,) * 9, (1,) * 36)
    fpath = tmp_path / "tp9.fact.json"
    fpath.write_text(dumps_factorization(f))
    assert main(["network", "--input", str(fpath), "--copies", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == NETWORK_CAP_PAYLOAD
    assert captured.err == (
        "error: FeasibilityExceeded: path sweep over 9 tracks exceeds cap 8\n"
    )
    code, payload, _ = run(capsys, ["network", "--input", str(fpath)])
    assert code == 0 and payload["network"]["n"] == 9


def test_network_copies_past_layer_limit(tmp_path, capsys):
    fpath = tmp_path / "exp4.fact.json"
    fpath.write_text(dumps_factorization(neville_factorize(M["exp4"])))
    assert main(["network", "--input", str(fpath), "--copies", str(10**12)]) == 3
    captured = capsys.readouterr()
    message = "1000000000000 copies of 9 layers exceed the limit of 100000 layers"
    assert json.loads(captured.out)["error"] == {
        "type": "FeasibilityExceeded",
        "message": message,
    }
    assert captured.err == f"error: FeasibilityExceeded: {message}\n"


def test_network_accepts_text_form(tmp_path, capsys):
    fpath = tmp_path / "fact.txt"
    fpath.write_text("L3(1) L2(2) L3(3) D(1,2,3) U3(2) U2(1) U3(1)\n")
    code, payload, _ = run(capsys, ["network", "--input", str(fpath)])
    assert code == 0 and payload["network"]["n"] == 3


def _network_stdout(capsys, path):
    code = main(["network", "--input", str(path)])
    return code, capsys.readouterr().out


def test_network_text_matches_json_at_large_n(tmp_path, capsys):
    import random

    from oscillax.exponent import random_oscillatory_factorization
    from oscillax.seb import (
        SEBFactorization,
        compose,
        factorization_to_text,
        identity_factorization,
    )

    eye = identity_factorization(40)
    one = SEBFactorization(40, eye.l[:-1] + (1,), eye.d, eye.u)  # L40 in chain 40
    raw = random_oscillatory_factorization(16, random.Random(5))
    osc = neville_factorize(compose(raw))
    for name, text, f in (
        ("one40", "L40(1)", one),
        ("osc16", factorization_to_text(osc), osc),
    ):
        text_path = tmp_path / f"{name}.txt"
        text_path.write_text(text + "\n")
        json_path = tmp_path / f"{name}.json"
        json_path.write_text(dumps_factorization(f))
        from_text = _network_stdout(capsys, text_path)
        assert from_text[0] == 0
        assert from_text == _network_stdout(capsys, json_path)


def test_network_text_over_dimension_limit(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("L100000(1)\n")
    code, payload, err = run(capsys, ["network", "--input", str(path)])
    message = "4999950000 slots per side at n=100000 exceed the limit of 100000 slots"
    assert code == 3
    assert payload["error"] == {"type": "FeasibilityExceeded", "message": message}
    assert err == f"error: FeasibilityExceeded: {message}\n"


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("l", ["1", "-2", "3"], "NotNormalizable"),
        ("d", ["1", "0", "3"], "NotNormalizable"),
        ("n", "x", "MalformedNumber"),
        ("n", 3.5, "MalformedNumber"),
    ],
)
def test_network_rejects_malformed_factorization_json(
    tmp_path, capsys, field, value, error
):
    doc = {"n": 3, "l": ["1", "2", "3"], "d": ["1", "2", "3"], "u": ["1", "1", "2"]}
    doc[field] = value
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code, payload, err = run(capsys, ["network", "--input", str(path)])
    assert code == 2
    assert payload["schema"] == "oscillax.error/1"
    assert payload["error"]["type"] == error
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("L2(1) D(1,,2)", "MalformedNumber", "not an integer, fraction, or finite decimal: ''"),
        ("L2(1) D(1,2,)", "MalformedNumber", "not an integer, fraction, or finite decimal: ''"),
        ("D(,1) L2(1)", "MalformedNumber", "not an integer, fraction, or finite decimal: ''"),
        ("L2(1) D()", "NotNormalizable", "factor index 2 outside [2, 0]"),
        ("L2(" + "1" * 5000 + ")", "MalformedNumber", "number of 5000 characters is too long"),
        ("L" + "1" * 5000 + "(1)", "MalformedNumber", "number of 5000 characters is too long"),
        ("D(2)", "ShapeMismatch", "factorizations require n >= 2"),
    ],
    ids=[
        "empty-middle", "empty-last", "empty-first", "empty-d", "long-number",
        "long-index", "one-by-one-d",
    ],
)
def test_network_rejects_malformed_factor_text(tmp_path, capsys, text, error, message):
    path = tmp_path / "f.txt"
    path.write_text(text + "\n")
    code, payload, err = run(capsys, ["network", "--input", str(path)])
    assert code == 2
    assert payload == {
        "schema": "oscillax.error/1",
        "status": "error",
        "error": {"type": error, "message": message},
    }
    assert err == f"error: {error}: {message}\n"


@pytest.mark.parametrize("command", ["classify", "network"])
@pytest.mark.parametrize(
    "body",
    [
        '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"n": ' + "7" * 5000 + "}",
    ],
    ids=["deep", "long-int"],
)
def test_undecodable_json_is_a_parse_error(tmp_path, capsys, command, body):
    path = tmp_path / "doc.json"
    path.write_text(body)
    code, payload, _ = run(capsys, [command, "--input", str(path)])
    assert code == 2
    assert payload["error"]["type"] == "MalformedNumber"
    assert payload["error"]["message"].startswith("bad ")


def test_classify_prints_minors_past_the_digit_limit(tmp_path, capsys):
    big = "3" * 3000
    path = tmp_path / "big.csv"
    path.write_text(f"1,{big}\n{big},1\n")
    code, payload, _ = run(capsys, ["classify", "--input", str(path)])
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(1 - int(big) ** 2)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) == 6001
    assert payload["witnesses"]["tn"]["value"] == expected


def test_network_dot_past_line_limit(tmp_path, capsys):
    doc = {"n": 120, "l": [1] * 7140, "d": [1] * 120, "u": [1] * 7140}
    path = tmp_path / "ones120.json"
    path.write_text(json.dumps(doc))
    code, payload, err = run(capsys, ["network", "--input", str(path)])
    message = (
        "DOT rendering of 14281 layers over 120 tracks exceeds the limit of"
        " 500000 lines"
    )
    assert code == 3
    assert payload == {
        "schema": "oscillax.error/1",
        "status": "error",
        "error": {"type": "FeasibilityExceeded", "message": message},
    }
    assert err == f"error: FeasibilityExceeded: {message}\n"


def test_exponent_past_tag_entry_limit(tmp_path, capsys):
    # a TP input lists 2^(n-1)-2 with_extras entries per side
    code, generated, _ = run(
        capsys,
        ["generate", "--class", "z1", "--n", "18", "--s", "18", "--seed", "3", "--full"],
    )
    assert code == 0
    path = tmp_path / "tp18.json"
    path.write_text(json.dumps(generated["matrix"]))
    message = "class tag at n=18 lists 131070 with_extras entries, past the limit of 65536"
    for method in ("theorem", "predict"):
        code, payload, err = run(
            capsys, ["exponent", "--input", str(path), "--method", method]
        )
        assert code == 3
        assert payload == {
            "schema": "oscillax.error/1",
            "status": "error",
            "error": {"type": "FeasibilityExceeded", "message": message},
        }
        assert err == f"error: FeasibilityExceeded: {message}\n"


def test_generate_deterministic(tmp_path, capsys):
    argv = ["generate", "--class", "z1", "--n", "4", "--s", "2", "--seed", "7"]
    code1, payload1, _ = run(capsys, argv)
    code2, payload2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert payload1 == payload2


def test_generate_z2_jacobi_shape(capsys):
    code, payload, _ = run(
        capsys,
        ["generate", "--class", "z2", "--n", "5", "--s", "5", "--psi", "L4", "--seed", "1"],
    )
    assert code == 0
    l = payload["factorization"]["l"]
    from oscillax.seb import chain_layout

    nonzero = {pos for pos, v in enumerate(l) if v != "0"}
    assert nonzero == {chain_layout(5).lower_slot(i, i) for i in (2, 3, 4, 5)}


def test_generate_full_matrix_is_oscillatory(tmp_path, capsys):
    code, payload, _ = run(
        capsys,
        ["generate", "--class", "z1", "--n", "4", "--s", "3", "--seed", "5", "--full"],
    )
    assert code == 0
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(payload["matrix"]))
    code, verdict, _ = run(capsys, ["classify", "--input", str(mpath)])
    assert code == 0 and verdict["is_oscillatory"] is True


def test_generate_bad_params_exit(capsys):
    code, payload, _ = run(
        capsys, ["generate", "--class", "z1", "--n", "4", "--s", "9", "--seed", "0"]
    )
    assert code == 6
    code, payload, _ = run(
        capsys,
        ["generate", "--class", "z2", "--n", "5", "--s", "4", "--psi", "L4,L5", "--seed", "0"],
    )
    assert code == 6


@pytest.mark.parametrize("tail", ["z1", "z2 --psi random", "z2 --psi L2,L4"])
def test_generate_refuses_past_the_slot_limit(capsys, monkeypatch, tail):
    from oscillax import exponent, seb

    def no_layout(n):
        raise AssertionError(f"laid out n={n}")

    for module in (exponent, seb):
        monkeypatch.setattr(module, "chain_layout", no_layout)
    argv = f"generate --n 448 --s 3 --seed 1 --class {tail}".split()
    code, payload, err = run(capsys, argv)
    message = "100128 slots per side at n=448 exceed the limit of 100000 slots"
    assert code == 3
    assert payload == {
        "schema": "oscillax.error/1",
        "status": "error",
        "error": {"type": "FeasibilityExceeded", "message": message},
    }
    assert err == f"error: FeasibilityExceeded: {message}\n"


# the largest n within the slot limit, and the generate calls of CI
@pytest.mark.parametrize(
    "argv",
    [
        "--class z1 --n 447 --s 2 --seed 1",
        "--class z2 --n 5 --s 4 --psi L3,L5 --seed 1",
        "--class z1 --n 30 --s 30 --full --seed 3",
        "--class z1 --n 18 --s 18 --full --seed 3",
        "--class z2 --n 16 --s 12 --psi L11,L13 --full --seed 3",
        "--class z1 --n 80 --s 3 --full --seed 1",
    ],
)
def test_generate_within_the_slot_limit(capsys, argv):
    code, payload, _ = run(capsys, ["generate", *argv.split()])
    assert code == 0 and payload["status"] == "ok"


PSI_ARGV = ["generate", "--class", "z2", "--n", "5", "--s", "4", "--seed", "1", "--psi"]


@pytest.mark.parametrize("psi", ["LlL3, L5", "l3", "L1_1", "L3.0", "3", "L"])
def test_generate_psi_rejects_all_but_l_index_tokens(capsys, psi):
    code, payload, err = run(capsys, PSI_ARGV + [psi])
    assert code == 6
    message = f"cannot parse pattern {psi!r}"
    assert payload["error"] == {"type": "InvalidPsiPattern", "message": message}
    assert err == f"error: InvalidPsiPattern: {message}\n"


@pytest.mark.parametrize(
    "psi, digest",
    [
        ("L3,L5", "ebfe41a7261067a8116ff12988c24143bdd36d875537c9dcf241329381fc856e"),
        (" L3 ,L05", "f41944394a71a502556f9ad0c8a415105c57f593d936e5914d196235f815574b"),
        ("random", "2019ed24ad73da4d35c28c3a3705fc9b0b7473900d31b5b6e71be4aa369c4006"),
    ],
)
def test_generate_psi_accepts_l_index_tokens(capsys, psi, digest):
    assert main(PSI_ARGV + [psi]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_seed_env_and_flag_precedence(capsys, monkeypatch):
    # --seed is the one channel: an exported OSCILLAX_SEED changes nothing
    argv = ["generate", "--class", "z1", "--n", "4", "--s", "2"]
    monkeypatch.setenv("OSCILLAX_SEED", "11")
    code, with_env, _ = run(capsys, argv)
    assert code == 0 and with_env["seed"] == 0
    code, from_flag, _ = run(capsys, argv + ["--seed", "3"])
    assert code == 0 and from_flag["seed"] == 3
    monkeypatch.delenv("OSCILLAX_SEED")
    assert run(capsys, argv)[1] == with_env


#: One short call per subcommand with every option it keeps but --output:
#: --format on the two with a text rendering, --seed on the two that draw.
KEPT_ARGV = {
    "classify": ["classify", "--input", "{matrix}", "--cap", "4"],
    "factorize": ["factorize", "--input", "{matrix}", "--format", "text"],
    "exponent": ["exponent", "--input", "{matrix}", "--method", "theorem"],
    "network": ["network", "--input", "{factorization}", "--format", "text"],
    "generate": ["generate", "--class", "z1", "--n", "4", "--s", "2", "--seed", "5"],
    "verify": ["verify", "--suite", "z1", "--nmax", "3", "--cases", "1", "--seed", "5"],
}

#: The options each subcommand does not read, and so refuses.
REMOVED_FLAGS = {
    "classify": ("--format", "--seed"),
    "factorize": ("--seed",),
    "exponent": ("--format", "--seed"),
    "network": ("--seed",),
    "generate": ("--format",),
    "verify": ("--format",),
}


def _kept_argv(tmp_path, command):
    files = {
        "matrix": write_matrix(tmp_path, "net4.json", M["net4"]),
        "factorization": str(tmp_path / "net4.fact.json"),
    }
    (tmp_path / "net4.fact.json").write_text(
        dumps_factorization(neville_factorize(M["net4"]))
    )
    return [arg.format(**files) for arg in KEPT_ARGV[command]]


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in REMOVED_FLAGS.items() for flag in flags],
)
def test_subcommands_refuse_the_flags_they_do_not_read(tmp_path, capsys, command, flag):
    value = "text" if flag == "--format" else "1"
    with pytest.raises(SystemExit) as info:
        main(_kept_argv(tmp_path, command) + [flag, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(KEPT_ARGV))
def test_subcommands_read_the_flags_they_keep(tmp_path, capsys, command):
    out = tmp_path / "payload.out"
    code, payload, _ = run(capsys, _kept_argv(tmp_path, command) + ["--output", str(out)])
    assert code == 0
    written = out.read_text()
    if "--format" in KEPT_ARGV[command]:  # the text rendering, not the payload
        assert isinstance(payload, str) and payload == written
        assert not written.startswith("{")
    else:
        assert json.loads(written) == payload
    if "--seed" in KEPT_ARGV[command]:
        assert payload["seed"] == 5


def test_verify_paper_suite(capsys):
    code, payload, err = run(capsys, ["verify", "--suite", "paper"])
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["suites"][0]["failed"] == 0


def test_verify_all_smoke(capsys):
    code, payload, _ = run(
        capsys,
        ["verify", "--suite", "all", "--nmax", "3", "--cases", "2", "--seed", "1"],
    )
    assert code == 0
    assert {s["suite"] for s in payload["suites"]} == {
        "paper",
        "z1",
        "z2",
        "products",
        "bounds",
    }


def test_verify_failure_exit_code(capsys, monkeypatch):
    import oscillax.verify as verify_mod
    from oscillax.verify import CaseResult, SuiteResult

    def failing_suite(nmax, cases, seed):
        res = SuiteResult("paper")
        res.cases.append(CaseResult("synthetic", False, "forced failure"))
        return res

    monkeypatch.setitem(verify_mod.SUITE_BUILDERS, "paper", failing_suite)
    code, payload, err = run(capsys, ["verify", "--suite", "paper"])
    assert code == 1
    assert payload["status"] == "error"
    assert "forced failure" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "products", "--nmax", "1"],
        ["--suite", "products", "--nmax", "2"],
        ["--suite", "bounds", "--nmax", "1"],
        ["--suite", "bounds", "--nmax", "2"],
        ["--suite", "z1", "--nmax", "2"],
        ["--suite", "z1", "--cases", "-3"],
        ["--suite", "z1", "--nmax", "0"],
        ["--suite", "z1", "--cases", "0"],
        ["--suite", "all", "--nmax", "0"],
        ["--suite", "paper", "--cases", "0"],
    ],
)
def test_verify_rejects_low_sizes(capsys, argv):
    code, payload, err = run(capsys, ["verify", *argv])
    assert code == 6
    assert payload["schema"] == "oscillax.error/1"
    assert payload["error"]["type"] == "ParamOutOfRange"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "suite, nmax",
    [("products", 21), ("bounds", 9), ("z1", 13), ("z2", 9), ("all", 9)],
)
def test_verify_refuses_nmax_above_suite_ceiling(capsys, monkeypatch, suite, nmax):
    import oscillax.verify as verify_mod

    def must_not_run(nmax, cases, seed):
        raise AssertionError("a suite ran before the ceiling check")

    for name in verify_mod.SUITE_BUILDERS:
        monkeypatch.setitem(verify_mod.SUITE_BUILDERS, name, must_not_run)
    code, payload, err = run(capsys, ["verify", "--suite", suite, "--nmax", str(nmax)])
    assert code == 3
    assert payload["error"]["type"] == "FeasibilityExceeded"
    assert "ceiling" in payload["error"]["message"]
    assert "Traceback" not in err


def test_verify_runs_products_past_the_scan_cap(capsys):
    code, payload, _ = run(
        capsys, ["verify", "--suite", "products", "--nmax", "12", "--cases", "2"]
    )
    assert code == 0
    assert payload["suites"][0]["failed"] == 0
    assert payload["suites"][0]["total"] == 2


def test_verify_runs_z2_up_to_its_ceiling(capsys):
    code, payload, _ = run(
        capsys, ["verify", "--suite", "z2", "--nmax", "7", "--cases", "1"]
    )
    assert code == 0
    assert payload["suites"][0]["failed"] == 0
    # 46 cases for n = 3..6 and 58 for n = 7
    assert payload["suites"][0]["total"] == 104


def test_output_flag_writes_file(tmp_path, capsys):
    path = write_matrix(tmp_path, "elim3.json", M["elim3"])
    out = tmp_path / "payload.json"
    code, payload, _ = run(
        capsys, ["factorize", "--input", path, "--output", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text()) == payload
