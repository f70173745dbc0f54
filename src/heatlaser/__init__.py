"""Single-atom heat-engine laser simulator.

A three- or four-level atom pumped by thermal baths and coupled to a lossy
cavity mode.  The package builds the Lindblad master equation and solves it
exactly (:mod:`heatlaser.solver`), evaluates the closed-form semi-classical
and fully quantum laser theory (:mod:`heatlaser.semiclassical`,
:mod:`heatlaser.photonstats`), and cross-validates the two routes.

Every record type is a :func:`collections.namedtuple` class, except
:class:`PhotonDistribution`, a plain class that sets its mean and variance
when it is built, because each class that a decorator builds at import adds
about a millisecond to the start of every command; the records that
validate their fields check every copy (``_replace``, ``_make``) too.
"""

__version__ = "0.1.0"

from .core import build_liouvillian
from .models import (
    FOUR_LEVEL,
    THREE_LEVEL,
    BathSpec,
    EngineModel,
    build_four_level,
    build_three_level,
    planck_occupation,
    with_hot_occupation,
)
from .photonstats import (
    LaserCoefficients,
    Moments,
    PhotonDistribution,
    TruncationError,
    coefficient_flow,
    distribution_moments,
    output_power,
    scully_lamb_coefficients,
    steady_distribution,
)
from .semiclassical import (
    LasingReport,
    StructureConstants,
    find_thresholds,
    lasing_gain,
    population_inversion,
    structure_constants,
    temperature_lasing_condition,
)
from .solver import (
    SteadyStateError,
    SteadyStateResult,
    WignerField,
    partial_trace_atom,
    photon_distribution,
    solve_model,
    steady_state,
    wigner,
)

__all__ = [
    "__version__",
    "THREE_LEVEL",
    "FOUR_LEVEL",
    "BathSpec",
    "EngineModel",
    "planck_occupation",
    "build_three_level",
    "build_four_level",
    "with_hot_occupation",
    "build_liouvillian",
    "StructureConstants",
    "LasingReport",
    "structure_constants",
    "population_inversion",
    "lasing_gain",
    "find_thresholds",
    "temperature_lasing_condition",
    "LaserCoefficients",
    "PhotonDistribution",
    "Moments",
    "TruncationError",
    "scully_lamb_coefficients",
    "steady_distribution",
    "distribution_moments",
    "coefficient_flow",
    "output_power",
    "SteadyStateResult",
    "SteadyStateError",
    "WignerField",
    "steady_state",
    "partial_trace_atom",
    "photon_distribution",
    "wigner",
    "solve_model",
]
