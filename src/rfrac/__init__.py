"""Two-point continued fractions, biorthogonal rational functions, and the
moment functionals that tie them together."""

from .errors import (
    BranchBoundaryError,
    CollisionError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    OutOfSpanError,
    PoleError,
    PrecisionError,
    SupportProximityError,
)
from .qseries import (
    INF,
    QContext,
    SeriesResult,
    basic_phi,
    gamma_fn,
    hyper_2f1,
    multi_q_pochhammer,
    q_pochhammer,
    shifted_factorial,
    w87,
)
from .recurrence import (
    R_I,
    R_II,
    PQPair,
    RecurrenceSpec,
    convergents,
    forward,
    minimal_solution_backward,
    pincherle_residual,
    rationalize,
)
from .favard import (
    MomentFunctional,
    build_RI,
    build_RII,
    functional_apply,
    kappa_tails,
)
from .measures import (
    Measure,
    circle_contour,
    discrete,
    integrate,
    interval,
    normalization,
    stieltjes,
    vertical_line,
    weighted_gram,
)
from .models import (
    MODEL_NAMES,
    BiorthFamily,
    ModelSpec,
    biorth,
    herglotz_511,
    instantiate,
    minimal_closed_form,
    qbeta_519,
    transform_241,
)

__version__ = "0.1.0"
