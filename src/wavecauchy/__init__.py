"""Closed-form solvers for the n-dimensional wave-equation Cauchy problem.

Spherical means (odd n), weighted ball means (even n), d'Alembert (n = 1),
an FFT spectral oracle, and numeric verification of the sinc-kernel
identities that tie them together.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DomainSizeError, EvaluationError, StencilError
from .fields import ScalarField, bump, constant, gaussian, harmonic, make_field, zero
from .geometry import (
    Dimension,
    SphereQuadrature,
    reduce_ball_integral,
    reduce_sphere_integral,
    solution_constant,
    sphere_quadrature,
    sphere_quadrature_for_order,
    unit_ball_volume,
    unit_sphere_area,
)
from .kernels import (
    DistributionFunctional,
    KernelQuery,
    distribution_fourier_check,
    identity_record,
    identity_records,
    identity_sweep,
    normalization_constant,
)
from .montecarlo import ball_monte_carlo, sphere_monte_carlo
from .radial import MeanSeries, RadialDerivativeSpec, default_spec
from .solvers import (
    CauchyProblem,
    GridSpec,
    SolutionGrid,
    SolutionSample,
    SpectralState,
    hermitian_defect,
    solve_dalembert_point,
    solve_point,
    solve_points,
    spectral_energy,
    spectral_probes,
    spectral_solve,
    spectral_state,
    wave_residual,
    weighted_ball_mean,
)

__all__ = [name for name in dir() if not name.startswith("_")]
