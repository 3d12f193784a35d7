"""Derandomized fuzzing of the four input readers through ``cli.main``.

``classify --input`` reads matrix JSON and CSV; ``network --input`` reads
factorization JSON and factor text.  Whatever a file holds, raw bytes that
are not UTF-8 included, the command exits 0, 2 or 3, a non-zero exit
prints an ``oscillax.error/1`` payload, and no exception escapes ``main``.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oscillax.cli import main

FUZZ = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

scalars = st.one_of(
    st.integers(-(10**6), 10**6),
    st.sampled_from(["1", "0", "-3", "1/2", "2/0", "0.25", " 7 ", "", "x", "1e3"]),
    st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
grid = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(scalars, min_size=cols, max_size=cols), min_size=1, max_size=4
    )
)
# mostly well-formed grids, with stray cells, shapes and keys mixed in
matrix_docs = st.one_of(
    st.fixed_dictionaries(
        {"entries": grid},
        optional={"rows": scalars, "cols": scalars},
    ),
    st.fixed_dictionaries({"entries": json_values}),
    st.dictionaries(st.sampled_from(["entries", "rows", "cols", "x"]), json_values),
)
factorization_docs = st.integers(1, 4).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "n": st.one_of(st.just(n), scalars),
            "l": st.lists(scalars, min_size=0, max_size=n * (n - 1) // 2 + 1),
            "d": st.lists(scalars, min_size=0, max_size=n + 1),
            "u": st.lists(scalars, min_size=0, max_size=n * (n - 1) // 2 + 1),
        }
    )
) | st.dictionaries(st.sampled_from(["n", "l", "d", "u", "x"]), json_values)

csv_text = st.one_of(
    st.lists(
        st.lists(st.sampled_from(["1", "0", "-2", "3/4", "1/0", "0.5", "", "a"]),
                 min_size=1, max_size=4),
        min_size=1, max_size=4,
    ).map(lambda rows: "\n".join(",".join(row) for row in rows) + "\n"),
    st.text(alphabet="0123456789-+/., \n\tabx", max_size=40),
    st.text(max_size=40),
)
factor_token = st.one_of(
    st.builds(
        "{}{}({})".format,
        st.sampled_from("LU"),
        st.integers(0, 6),
        st.sampled_from(["1", "0", "2/3", "-1", "", "x", "1/0", "0.5"]),
    ),
    st.lists(st.sampled_from(["1", "2", "0", "-1", "", " ", "1/2", "y"]), max_size=4)
    .map(lambda cells: "D(" + ",".join(cells) + ")"),
    st.sampled_from(["L2", "D(", ")", "U(1)", "L2(1", "Q3(1)", ","]),
)
factor_text = st.one_of(
    st.lists(factor_token, max_size=8).map(" ".join),
    st.text(alphabet="LUD0123456789()/,.- \n", max_size=30),
    st.text(max_size=30),
)


def _check(tmp_path, capsys, command, body):
    path = tmp_path / "input"
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(body)
    code = main([command, "--input", str(path)])
    out = capsys.readouterr().out
    assert code in (0, 2, 3)
    if code != 0:
        payload = json.loads(out)
        assert payload["schema"] == "oscillax.error/1"
        assert payload["status"] == "error"
    return code, out


@FUZZ
@given(doc=matrix_docs)
def test_classify_reads_any_matrix_json(tmp_path, capsys, doc):
    _check(tmp_path, capsys, "classify", json.dumps(doc))


@FUZZ
@given(text=csv_text)
def test_classify_reads_any_csv(tmp_path, capsys, text):
    _check(tmp_path, capsys, "classify", text)


@FUZZ
@given(doc=factorization_docs)
def test_network_reads_any_factorization_json(tmp_path, capsys, doc):
    _check(tmp_path, capsys, "network", json.dumps(doc))


@FUZZ
@given(text=factor_text)
def test_network_reads_any_factor_text(tmp_path, capsys, text):
    _check(tmp_path, capsys, "network", text)


NOT_UTF8 = (b"\xff\xfe1,2\n3,4\n", b"{\"entries\": [[1, 2], [3, \xe9]]}", b"L2(1) \xc3")


@FUZZ
@given(body=st.binary(max_size=40))
@example(body=NOT_UTF8[0])
def test_classify_reads_any_bytes(tmp_path, capsys, body):
    _check(tmp_path, capsys, "classify", body)


@FUZZ
@given(body=st.binary(max_size=40))
@example(body=NOT_UTF8[2])
def test_network_reads_any_bytes(tmp_path, capsys, body):
    _check(tmp_path, capsys, "network", body)


@pytest.mark.parametrize("command", ["classify", "network"])
@pytest.mark.parametrize("body", NOT_UTF8)
def test_bytes_that_are_not_utf8_exit_2(tmp_path, capsys, command, body):
    code, out = _check(tmp_path, capsys, command, body)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "MalformedNumber"
    assert "cannot read" in error["message"]


# a string, or a dict, where a list belongs exits 2 instead of being read
# element by element into a matrix or a network
STRING_FOR_LIST = [
    ("classify", {"entries": ["12", "34"]}),
    ("classify", {"entries": "1234"}),
    ("classify", {"entries": [[1, 2], "34"]}),
    ("classify", {"entries": {"1": [1, 2], "2": [3, 4]}}),
    ("network", {"n": 2, "l": "1", "d": "12", "u": "0"}),
    ("network", {"n": 2, "l": "1", "d": [1, 2], "u": [0]}),
    ("network", {"n": 2, "l": [1], "d": "12", "u": [0]}),
    ("network", {"n": 2, "l": [1], "d": [1, 2], "u": "0"}),
    ("network", {"n": 2, "l": [1], "d": {"1": 1, "2": 2}, "u": [0]}),
]


@pytest.mark.parametrize("command, doc", STRING_FOR_LIST)
def test_string_for_list_exits_2(tmp_path, capsys, command, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "ShapeMismatch"
