"""Exception types shared across the library."""


class OscillaxError(Exception):
    """Base class for all library-specific errors."""


class MalformedNumber(OscillaxError, ValueError):
    """Text is not an integer, a fraction ``p/q``, or a finite decimal."""


class ZeroDenominator(OscillaxError, ZeroDivisionError):
    """Fraction text with a zero denominator."""


class ShapeMismatch(OscillaxError, ValueError):
    """Matrix or index-set dimensions do not compose."""


class IndexOutOfRange(OscillaxError, IndexError):
    """A 1-based row, column, or factor index falls outside its range."""


class FeasibilityExceeded(OscillaxError):
    """A request past one of the library's size limits: the minor-scan
    and path-sweep cap (``matrix.SCAN_CAP_DEFAULT``, or the caller's cap),
    the 5 tracks of ``planar.enumerate_path_families``, the class tag's
    entry limit (``exponent.TAG_ENTRY_LIMIT``, which also bounds the
    patterns of ``exponent.enumerate_psi_patterns``), the inner index sets
    of ``matrix.cauchy_binet_check`` (the minors a full scan reads at
    ``matrix.SCAN_CAP_DEFAULT``), the copies limit
    (``planar.COPIES_LAYER_LIMIT``), the DOT line limit
    (``planar.DOT_LINE_LIMIT``), the ordered-product limit
    (``exponent.PRODUCT_LIMIT``), the slot limit
    (``seb.NORMALIZE_SLOT_LIMIT``), or a verify suite's ``nmax`` ceiling
    (``verify.SUITE_NMAX``)."""


class NotITN(OscillaxError):
    """Input is not an invertible totally nonnegative matrix."""


class NotOscillatory(OscillaxError):
    """Input is not oscillatory (or no admissible power was found)."""


class InvariantViolation(OscillaxError):
    """An internal consistency condition failed; indicates a bug."""


class NotNormalizable(OscillaxError, ValueError):
    """A factor product cannot be reordered into canonical form using only
    the admissible commutation relations, or has a negative multiplier or
    a nonpositive diagonal entry."""


class ParamOutOfRange(OscillaxError, ValueError):
    """Generator or formula parameter outside its domain."""


class InvalidPsiPattern(OscillaxError, ValueError):
    """Presence pattern is not an admissible partial-chain choice."""


class ClassMismatch(OscillaxError, ValueError):
    """Family members do not share their canonical supports on both sides."""


class Unpredictable(OscillaxError):
    """No closed-form exponent statement applies to the given class tags."""
