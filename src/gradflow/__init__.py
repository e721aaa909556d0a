"""gradflow: gradient-flow numerics on 1D grids and particle ensembles.

Subpackages map onto one concern each:

* :mod:`gradflow.measures` -- discrete/grid measures, entropies, distances
* :mod:`gradflow.transport` -- Wasserstein distances, particle path actions
* :mod:`gradflow.gradient_flow` -- dissipations, path actions, EDI, JKO stepping
* :mod:`gradflow.models` -- spring-dashpot, Fokker-Planck, multicomponent,
  phase-field solvers
* :mod:`gradflow.particles` -- interacting SDE ensembles and large deviations
* :mod:`gradflow.cli` -- the ``gradflow`` experiment runner
"""

__version__ = "0.1.0"

from .measures import (
    DiscreteMeasure,
    GridDensity1D,
    PhysicalConstants,
    relative_entropy,
    total_variation,
    push_forward,
)

__all__ = [
    "__version__",
    "DiscreteMeasure",
    "GridDensity1D",
    "PhysicalConstants",
    "relative_entropy",
    "total_variation",
    "push_forward",
]
