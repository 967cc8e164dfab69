"""toruslab: a numerical laboratory for linear flows on the d-torus.

Core pieces: the small-divisor solver for the flow derivative equation,
finite-ball Diophantine certificates, a curve calculus with retraced-arc
excision, line-integral currents, and the twisted projection that turns
curves into linearization data.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    BadSchedule,
    BasepointMismatch,
    EndpointMismatch,
    ResonanceFound,
    ResonantMode,
    SeparationNotFound,
    StaleLocation,
    ToruslabError,
    TwistRouteMismatch,
)
from .torus_flow import (
    DiophantineCertificate,
    DirectionVector,
    TorusPoint,
    certify_diophantine,
    find_resonances,
    flow,
    liouville_vector,
)
from .spectral import (
    CohomologySolution,
    OneForm,
    TrigPoly,
    exterior_derivative,
    lie_derivative,
    solve_cohomological,
)
from .curves import (
    CurveFamily,
    PiecewiseCurve,
    RetracedArcLocation,
    ZeroCurrent,
    boundaries_equal,
    boundary_multiset,
    concatenate,
    find_retraced_arc,
    maximal_excision,
    simple_excision,
)
from .currents import (
    evaluate,
    evaluate_family,
    evaluate_twisted,
)
from .linearization import (
    LinearizationPoint,
    SeparationReport,
    albanese,
    build_battery,
    check_equivariance,
    generator,
    injectivity_probe,
    linearize,
)

# Everything imported above is public; the submodules themselves are not.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
