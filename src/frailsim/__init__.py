"""Shared-frailty survival models: simulation, fitting, and Monte Carlo studies.

Each public name loads its module on first use, so that importing the
package loads no numpy: ``python -m frailsim`` can then set the BLAS
thread variables before numpy reads them (see ``__main__``).
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "estimands": ("EstimandName", "EstimandResult", "MarginalModel", "delta_method_se",
                  "life_expectancy", "lle", "lle_functional", "true_estimands"),
    "fitting": ("FitResult", "ModelSpec", "all_model_ids", "fit", "information_criteria",
                "model_from_id"),
    "harness": ("filter_convergence", "performance", "run_cell", "summarize"),
    "hazards": ("Exponential", "FrailtyFamily", "FrailtySpec", "Gompertz", "Weibull",
                "WeibullMixture"),
    "simulate": ("ClusteredDataset", "Scenario", "generate_dataset", "make_scenario",
                 "read_dataset_csv", "scenario_grid", "write_dataset_csv"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
