"""Classification-distortion-perception tradeoff surfaces for discrete two-class sources.

A two-class signal passes through a known degradation channel; a restoration
kernel is then chosen to minimize classification error subject to budgets on
expected distortion and on the divergence between the source and restored
marginals.  This package provides the probability primitives, the error-rate
and divergence functionals, certified solvers for the fixed-classifier and
adaptive-classifier surfaces, an exhaustive lattice oracle, randomized
property audits, and a CSV/JSON command-line front end.
"""

from .audit import AuditReport, PropertyResult, run_audit
from .classify import (
    DecisionRegion,
    RegionPartition,
    bayes_error,
    bayes_error_tv_form,
    bayes_region,
    dpi_equality_holds,
    error_rate,
    region_partition,
)
from .errors import (
    CdpError,
    ConfigError,
    DimensionError,
    InvalidDistributionError,
    InvalidMixtureError,
    SizeError,
)
from .metrics import (
    DistortionMatrix,
    DivergenceKind,
    divergence,
    expected_distortion,
)
from .oracle import (
    KernelGrid,
    OracleSearchResult,
    grid_search_cdp,
    grid_search_scdp,
    simplex_lattice,
)
from .prob_core import (
    Alphabet,
    Channel,
    MixtureSource,
    ProbVector,
    compose,
    mix_mixtures,
    push_forward,
)
from .problem import ProblemInstance, SolveStatus, min_distortion
from .solver import (
    SurfaceTable,
    TradeoffResult,
    solve_cdp,
    solve_scdp,
    sweep_surface,
)

__all__ = [
    "Alphabet",
    "AuditReport",
    "CdpError",
    "Channel",
    "ConfigError",
    "DecisionRegion",
    "DimensionError",
    "DistortionMatrix",
    "DivergenceKind",
    "InvalidDistributionError",
    "InvalidMixtureError",
    "KernelGrid",
    "MixtureSource",
    "OracleSearchResult",
    "ProbVector",
    "ProblemInstance",
    "PropertyResult",
    "RegionPartition",
    "SizeError",
    "SolveStatus",
    "SurfaceTable",
    "TradeoffResult",
    "bayes_error",
    "bayes_error_tv_form",
    "bayes_region",
    "compose",
    "divergence",
    "dpi_equality_holds",
    "error_rate",
    "expected_distortion",
    "grid_search_cdp",
    "grid_search_scdp",
    "min_distortion",
    "mix_mixtures",
    "push_forward",
    "region_partition",
    "run_audit",
    "simplex_lattice",
    "solve_cdp",
    "solve_scdp",
    "sweep_surface",
]

__version__ = "0.1.0"
