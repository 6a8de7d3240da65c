"""Shared-frailty survival models: simulation, fitting, and Monte Carlo studies."""
from __future__ import annotations

from .estimands import (
    EstimandName,
    EstimandResult,
    MarginalModel,
    delta_method_se,
    life_expectancy,
    lle,
    lle_functional,
    true_estimands,
)
from .fitting import (
    FitResult,
    ModelSpec,
    all_model_ids,
    fit,
    information_criteria,
    model_from_id,
)
from .harness import (
    filter_convergence,
    performance,
    run_cell,
    summarize,
)
from .hazards import (
    Exponential,
    FrailtyFamily,
    FrailtySpec,
    Gompertz,
    Weibull,
    WeibullMixture,
)
from .simulate import (
    ClusteredDataset,
    Scenario,
    generate_dataset,
    make_scenario,
    read_dataset_csv,
    scenario_grid,
    write_dataset_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ClusteredDataset",
    "EstimandName",
    "EstimandResult",
    "Exponential",
    "FitResult",
    "FrailtyFamily",
    "FrailtySpec",
    "Gompertz",
    "MarginalModel",
    "ModelSpec",
    "Scenario",
    "Weibull",
    "WeibullMixture",
    "all_model_ids",
    "delta_method_se",
    "filter_convergence",
    "fit",
    "generate_dataset",
    "information_criteria",
    "life_expectancy",
    "lle",
    "lle_functional",
    "make_scenario",
    "model_from_id",
    "performance",
    "read_dataset_csv",
    "run_cell",
    "scenario_grid",
    "summarize",
    "true_estimands",
    "write_dataset_csv",
]
