"""Toolkit for local-realistic (factorizable) probability models and the
Bell-inequality family: genuine tests, auxiliary-assumption tests, quantum
predictions for photon-pair experiments, and detection-loophole search.

`import bellkit` loads no submodule.  A public name, or a submodule named in
`_PUBLIC`, imports its module on first use (PEP 562), so code that does no
array arithmetic never loads numpy.
"""

import importlib

# Each submodule and the public names it defines.
_PUBLIC = {
    "inequalities": (
        "ChannelProbabilities", "InequalityReport", "NormalizationError", "ProbabilitySet",
        "TwoChannelCounts", "ch_report", "channel_conversion", "correlation", "fc_report",
        "renormalized_correlation", "s_statistic",
    ),
    "models": (
        "FactorizableModel", "Feasible", "FourOutcomeJoint", "HiddenVariableSpace", "Infeasible",
        "ResponseTable", "ValidationReport", "formal_joint_distribution", "joint_feasibility",
        "joint_probability", "marginal_probability", "probability_set_from_model",
        "validate_model",
    ),
    "experiments": (
        "AngleSet", "CascadeConfig", "KinematicsInput", "PdcConfig", "bi1_min_efficiency",
        "bi_margin", "cascade_bi_maximum", "cascade_optics", "cascade_rates", "optimal_angles",
        "spacelike_constraints", "two_channel_rates", "visibility_estimators",
    ),
    "search": (
        "DeterministicStrategy", "SearchResult", "StrategyMixture", "enumerate_local_strategies",
        "maximize_s_star", "mixture_statistics", "mixture_to_model", "sample_counts",
    ),
    "harness": (
        "AnalysisConfig", "AnalysisReport", "CountDataset", "CountRow", "DatasetError",
        "emit_report", "ingest_counts", "run_analysis",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _PUBLIC and name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF.get(name, name)}")
    value = module if name in _PUBLIC else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *__all__})
