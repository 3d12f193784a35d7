"""Exact-arithmetic toolkit for totally nonnegative matrices.

Classification (TN / TP / oscillatory), successive elementary bidiagonal
factorization by Neville elimination, planar-network minor evaluation
through vertex-disjoint path families, and closed-form exponents for two
parametrized factorization classes, all over exact rationals.

The namespace is lazy (PEP 562).  Importing the package loads only
``errors``, ``rational``, ``matrix`` and ``classify``; the re-exports of
``seb``, ``planar`` and ``exponent``, and those submodule names
themselves, are resolved on first access through ``_LAZY_EXPORTS``.
The first access imports the submodule and binds all of its re-exports
as package globals, so later lookups are plain attribute reads.  A cold
``python -m oscillax`` call thus compiles only what its subcommand runs.

``classify`` must stay eager.  The package re-exports the function
``classify`` under the name of its home submodule, and importing a
submodule sets the package attribute of that name to the module.  Loaded
during this import, the submodule is bound first and the function
replaces it below.  Loaded later, the module would replace the function
and break every ``oscillax.classify(a)`` caller.
"""

from .errors import (
    ClassMismatch,
    FeasibilityExceeded,
    IndexOutOfRange,
    InvalidPsiPattern,
    InvariantViolation,
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
from .rational import coerce_rational, format_rational, parse_rational
from .matrix import (
    Matrix,
    cauchy_binet_check,
    det,
    mat_mul,
    mat_pow,
    minor,
)
from .classify import (
    ClassificationReport,
    CornerSpec,
    MinorWitness,
    classify,
    corner_minors,
    is_oscillatory,
    is_tn,
    is_tp,
)

__version__ = "0.1.0"

# submodule -> the names it re-exports, bound on first access
_LAZY_EXPORTS = {
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
# lazy name (a re-export or the submodule itself) -> its submodule
_HOME = {name: home for home, names in _LAZY_EXPORTS.items() for name in (home, *names)}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_HOME))


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # the import also binds the package attribute `home` to the submodule
    module = import_module(f"{__name__}.{home}")
    namespace = globals()
    namespace.update((export, getattr(module, export)) for export in _LAZY_EXPORTS[home])
    return namespace[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
