"""Structure-preserving solvers for dispersive shallow water models.

Summation-by-parts finite difference operators in space, explicit
Runge-Kutta with optional relaxation in time; two models (BBM-BBM with
variable bathymetry and the Svärd-Kalisch system) with energy- and
entropy-conservative semidiscretizations, well balanced for the
lake-at-rest state.
"""

__version__ = "0.1.0"
