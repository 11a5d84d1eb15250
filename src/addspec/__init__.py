"""Numerical certificates for exponential bases of two-axis additive measures.

Component measures live on the coordinate axes of the plane; the toolkit
assembles exact Gram sections, runs the zigzag combinatorics that obstruct
Riesz bases, builds the known explicit spectra, and solves or scans the
orthogonality constraint for interval components.

The names below are imported from their modules on first use, so
``from addspec import ExponentSet`` loads only the exact-arithmetic modules.
No module loads numpy at import; the numerical functions import it when
they first run.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "additive_space": (
        "AdditiveSpace",
        "FiniteCombination",
        "PiecewisePolynomial",
        "exp_inner",
        "l_space",
        "plus_space",
        "projection_coefficients",
        "space_from_name",
        "symmetric_space",
        "t_space",
    ),
    "constructions": (
        "NonOverlapSpectrum",
        "integer_base",
        "l_space_onb",
        "lev_style_set",
        "m_tau_eigenvalues",
        "mirror_spectrum",
        "nonoverlap_riesz_spectrum",
        "staircase_zigzag",
    ),
    "errors": (
        "MalformedInputError",
        "MultiplicityOneViolation",
        "NotAnSSequenceError",
        "OverlappingSupportError",
        "ToolkitError",
        "UnsolvedCaseError",
        "ZigzagLoopDetected",
    ),
    "exponents": (
        "UNBOUNDED_BY_LOOP",
        "ExponentPair",
        "ExponentSet",
        "ZigzagPath",
        "find_zigzag_loop",
        "is_zigzag_complete",
        "lower_beurling_density",
        "max_zigzag_length",
        "multiplicity",
        "project",
        "zigzag_distance_map",
    ),
    "gram": (
        "GramMatrix",
        "SectionCertificate",
        "alternating_zigzag_norm",
        "assemble",
        "collinear_failure_demo",
        "combination_norm_sq",
        "extremal_eigenvalues",
        "identity_deviation",
        "monomial_pair",
        "parseval_residual",
        "riesz_section_certificate",
    ),
    "measures": ("IntervalUnionMeasure", "fourier_transform", "support_bounds"),
    "ortho_solver": (
        "OrthSolutionFamily",
        "classify_case",
        "classify_spectrum_candidates",
        "residual",
        "scan_residual",
        "solve_families",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    """Import the module of a listed name on first use and bind the name here,
    so later lookups are plain global reads."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
