"""Window-average filtering on the circle: spectra, disk extensions,
combed/ragged classification, and the combing procedures that repair
ragged functions.  See the module docstrings for the conventions.
Public names load their module on first use (PEP 562)."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": "CatalogEntry exact_filtered make names",
    "classify": "ClassificationReport CoefficientCertificate "
                "FourierCombResult NodeReport certificate_report "
                "classify_coefficients classify_pointwise comb_by_disk "
                "comb_by_filter_limit comb_from_coefficients",
    "disk": "DiskPoint InnerAnalyticFunction arc_filter_eval "
            "boundary_value_grid complex_filter eval_ring evaluate "
            "from_coefficients log_derivative log_primitive",
    "errors": "BadParams CircleCombError DomainError EpsilonBelowResolution "
              "NoConvergence NonIntegrableInput NotAvailable OutOfDomain "
              "QuadratureFailure UndefinedHere UnknownName",
    "formats": "coefficients_from_doc coefficients_to_doc dumps_json "
               "load_coefficients read_grid report_to_doc save_coefficients "
               "write_grid",
    "realfilter": "DEFAULT_EPS_SCHEDULE filter_limit "
                  "filtered_derivative_limit grid_evaluator "
                  "kernel_filter_eval kernel_filter_grid multiplier_filter",
    "rescale": "IntervalMap filter_physical_grid pullback transport_filter",
    "spectrum": "CoefficientSequence EvaluatorFunction GridFunction "
                "SingularPoint angular_derivative circle_distance "
                "compute_coefficients grid_nodes partial_sum_eval "
                "partial_sum_grid wrap_angle",
}
# Public name -> the module that defines it; a submodule maps to itself.
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()} | {module: module for module in _EXPORTS}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{_HOME[name]}", __name__)
    if name not in _EXPORTS:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
