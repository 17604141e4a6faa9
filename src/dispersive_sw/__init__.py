"""Structure-preserving solvers for dispersive shallow water models.

Summation-by-parts finite difference operators in space, explicit
Runge-Kutta with optional relaxation in time; two models (BBM-BBM with
variable bathymetry and the Svärd-Kalisch system) with energy- and
entropy-conservative semidiscretizations, well balanced for the
lake-at-rest state.
"""

from .bbm_bbm import (
    bbm_phase_speed,
    bbm_soliton,
    build_bbm_discretization,
)
from .grid import (
    Grid,
    MassMatrix,
    l2_norm,
    make_uniform_grid,
)
from .sbp import (
    SbpOperatorSet,
    bounded_operators,
    build_bounded_central_d1,
    build_periodic_central_d1,
    build_periodic_d2,
    build_periodic_upwind,
    periodic_operators,
    verify_sbp_identity,
)
from .svaerd_kalisch import (
    build_sk_discretization,
    euler_phase_speed,
    sk_dispersion_omega,
    sk_parameter_set,
)
from .timestepping import (
    DOPRI5,
    RK4,
    IntegratorConfig,
    integrate,
    rk_step,
)

__version__ = "0.1.0"
