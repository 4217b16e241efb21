"""Two-species aggregation dynamics in one dimension.

Three solvers for the same nonlocal transport model -- a finite-volume
upwind scheme, an event-driven aggregate (sticky particle) solver with
the cross-species synchronising rule, and a two-velocity kinetic solver
whose stiff relaxation limit recovers the aggregation dynamics --
together with Wasserstein-metric and conservation diagnostics and a
scenario-driven command line interface.
"""

from .kernel import PointyKernel, exponential_kernel, regularize
from .measures import (
    DiscreteMeasure,
    ModelParams,
    bump_mass_unit,
    sample_gaussian_bumps,
    wasserstein2,
)
from .fv import FluxField, GridState, cfl_dt, extract_peaks
from .particles import Cluster, ClusterSet, Event, glued_selection, sync_condition
from .kinetic import ChemoField, KineticState, check_positivity_condition, solve_chemo_field

__all__ = [
    "PointyKernel",
    "exponential_kernel",
    "regularize",
    "DiscreteMeasure",
    "ModelParams",
    "bump_mass_unit",
    "wasserstein2",
    "sample_gaussian_bumps",
    "GridState",
    "FluxField",
    "cfl_dt",
    "extract_peaks",
    "Cluster",
    "ClusterSet",
    "Event",
    "sync_condition",
    "glued_selection",
    "KineticState",
    "ChemoField",
    "solve_chemo_field",
    "check_positivity_condition",
]

__version__ = "0.1.0"
