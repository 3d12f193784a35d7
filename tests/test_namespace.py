"""The lazy package namespace: what `import oscillax` exposes, and what each
CLI subcommand loads.

Both checks run in a fresh interpreter: by the time a test runs, pytest has
already imported every oscillax module into its own process.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import oscillax
from oscillax.matrix import dumps_matrix
from oscillax.seb import dumps_factorization, neville_factorize
from oscillax.verify import corpus_matrices

SRC = Path(oscillax.__file__).resolve().parents[1]
M = corpus_matrices()

# The public names of dir(oscillax) when every re-export was eager: the
# submodules loaded by `import oscillax`, and each submodule's re-exports.
SUBMODULES = ("errors", "rational", "matrix", "seb", "planar", "exponent")
REEXPORTS = {
    "errors": (
        "ClassMismatch",
        "FeasibilityExceeded",
        "IndexOutOfRange",
        "InvalidPsiPattern",
        "InvariantViolation",
        "MalformedNumber",
        "NotITN",
        "NotNormalizable",
        "NotOscillatory",
        "OscillaxError",
        "ParamOutOfRange",
        "ShapeMismatch",
        "Unpredictable",
        "ZeroDenominator",
    ),
    "rational": ("coerce_rational", "format_rational", "parse_rational"),
    "matrix": (
        "Matrix",
        "cauchy_binet_check",
        "det",
        "mat_mul",
        "mat_pow",
        "minor",
    ),
    "classify": (
        "ClassificationReport",
        "CornerSpec",
        "MinorWitness",
        "classify",
        "corner_minors",
        "is_oscillatory",
        "is_tn",
        "is_tp",
    ),
    "seb": (
        "EBFactor",
        "FactorizationClass",
        "SEBFactorization",
        "classify_factorization",
        "compose",
        "eb_matrix",
        "factorization_from_text",
        "factorization_to_text",
        "neville_factorize",
        "normalize_commutation",
        "w_q_form",
    ),
    "planar": (
        "PathFamily",
        "PlanarNetwork",
        "build_network",
        "enumerate_path_families",
        "export_dot",
        "min_copies_lower_corner",
        "minor_via_paths",
    ),
    "exponent": (
        "ClassTag",
        "ExponentReport",
        "Prediction",
        "early_tp_product_scan",
        "exponent_bruteforce",
        "exponent_via_theorem",
        "generate_z1",
        "generate_z2",
        "mu1",
        "mu2",
        "predict_exponent",
        "product_family_check",
        "psi_membership",
        "r_lower",
        "r_upper",
        "recognize_class",
    ),
}

# Names that left the package: no library code raises or builds them.
REMOVED = (
    "IndexSet",
    "NotTN",
    "OrderOutOfRange",
    "TrackMismatch",
    "MethodDisagreement",
    "is_irreducible",
    "is_tp_given_tn",
    "PackedParams",
    "pack_parameters",
)


def run_fresh(code: str) -> str:
    """Run `code` in a new interpreter that imports this checkout; return
    its stdout."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_public_names_resolve_to_their_defining_objects():
    assert len(SUBMODULES) + sum(map(len, REEXPORTS.values())) == 71
    run_fresh(
        f"""
        import importlib
        import sys

        import oscillax

        submodules = {SUBMODULES!r}
        homes = {REEXPORTS!r}
        names = [*submodules, *(name for group in homes.values() for name in group)]
        assert set(names) <= set(dir(oscillax)), set(names) - set(dir(oscillax))
        assert set(names) <= set(oscillax.__all__)
        for gone in {REMOVED!r}:
            assert gone not in oscillax.__all__ and not hasattr(oscillax, gone), gone

        # loading the classify submodule again must not rebind the function
        import oscillax.exponent
        assert callable(oscillax.classify)
        classify_mod = importlib.import_module("oscillax.classify")
        assert oscillax.classify is classify_mod.classify

        # planar is still unloaded: the star import resolves it lazily
        assert "oscillax.planar" not in sys.modules
        star = {{}}
        exec("from oscillax import *", star)
        for name in submodules:
            assert star[name] is importlib.import_module("oscillax." + name), name
        for home, group in homes.items():
            module = importlib.import_module("oscillax." + home)
            for name in group:
                assert star[name] is getattr(module, name), name
                assert getattr(oscillax, name) is star[name], name
        assert oscillax.__version__ == "0.1.0"

        for missing in ("no_such_name", "verify", "cli"):
            try:
                getattr(oscillax, missing)
            except AttributeError:
                pass
            else:
                raise AssertionError(missing + " resolved")
        """
    )


NO_EXPONENT = ("oscillax.exponent", "oscillax.planar", "oscillax.verify")
NO_PLANAR = ("oscillax.planar", "oscillax.verify")
# Records are NamedTuples: no call may pay for the dataclass machinery.
NO_DATACLASSES = ("dataclasses", "inspect")


@pytest.mark.parametrize(
    "argv, input_kind, forbidden",
    [
        (None, None, ("oscillax.seb", "oscillax.cells", *NO_EXPONENT)),
        (["classify"], "matrix", NO_EXPONENT),
        (["factorize"], "matrix", NO_EXPONENT),
        (["network", "--copies", "2"], "factorization", ("oscillax.exponent", "oscillax.verify")),
        (["exponent", "--method", "brute"], "matrix", NO_PLANAR),
        (["exponent", "--method", "theorem"], "matrix", NO_PLANAR),
        (["exponent", "--method", "predict"], "matrix", NO_PLANAR),
        (["generate", "--class", "z2", "--n", "5", "--s", "3", "--full"], None, NO_PLANAR),
        (["verify", "--suite", "paper"], None, ()),
    ],
    ids=["import", "classify", "factorize", "network", "brute", "theorem", "predict",
         "generate", "verify"],
)
def test_subcommand_loads_only_what_it_runs(tmp_path, argv, input_kind, forbidden):
    """`argv` None is a bare `import oscillax`."""
    call = "0"
    if argv is not None:
        if input_kind is not None:
            path = tmp_path / "input.json"
            if input_kind == "matrix":
                path.write_text(dumps_matrix(M["exp4"]))
            else:
                path.write_text(dumps_factorization(neville_factorize(M["exp4"])))
            argv = [*argv, "--input", str(path)]
        call = f"importlib.import_module('oscillax.cli').main({argv!r})"
    out = run_fresh(
        f"""
        import contextlib, importlib, io, json, sys
        import oscillax

        with contextlib.redirect_stdout(io.StringIO()):
            code = {call}
        print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
        """
    )
    result = json.loads(out)
    assert result["code"] == 0
    loaded = set(result["modules"])
    assert ("oscillax.cli" in loaded) == (argv is not None)
    unwanted = loaded & {*forbidden, *NO_DATACLASSES}
    assert not unwanted, sorted(unwanted)
