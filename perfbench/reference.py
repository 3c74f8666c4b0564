"""References for the benchmark's row checks, computed apart from the program.

Nothing here imports wavecauchy: each value comes from a one-dimensional
integral (scipy.integrate.quad) or a closed form, so a fault in the program's
quadrature, stencils or FFT cannot cancel out of the comparison.
"""

from __future__ import annotations

import math

from scipy import integrate, special

#: exp(-(sigma k)^2 / 2) is below 1e-18 past sigma * k = 9.1
_GAUSS_CUT = 9.2


def _bessel_radial(z: float, n: int) -> float:
    """z^(1 - n/2) J_(n/2 - 1)(z), continued to z = 0."""
    nu = n / 2.0 - 1.0
    if z < 1e-6:
        return 2.0 ** (-nu) / math.gamma(n / 2.0) * (1.0 - z * z / (2.0 * n))
    return z ** (-nu) * float(special.jv(nu, z))


def _hankel_term(n: int, amplitude: float, sigma: float, d: float, t: float,
                 velocity: bool) -> float:
    if amplitude == 0.0:
        return 0.0
    scale = amplitude * sigma ** n

    def integrand(k: float) -> float:
        time_factor = (math.sin(k * t) / k if k > 0.0 else t) if velocity else math.cos(k * t)
        return (math.exp(-0.5 * (sigma * k) ** 2) * time_factor * k ** (n - 1)
                * _bessel_radial(k * d, n))

    value, _ = integrate.quad(integrand, 0.0, _GAUSS_CUT / sigma, limit=400,
                              epsabs=1e-13, epsrel=1e-11)
    return scale * value


def radial_gaussian_solution(n: int, phi: tuple[float, float], psi: tuple[float, float],
                             d: float, t: float) -> float:
    """u(x, t) for phi = A e^{-|x|^2/(2 s^2)}, psi likewise, at |x| = d.

    phi and psi are (amplitude, sigma) pairs; amplitude 0 means a zero field.
    The solution is the inverse Hankel transform of the exact Fourier
    multipliers,

        u(d, t) = (2 pi)^(-n/2) d^(1 - n/2) int_0^inf [phi_hat(k) cos kt
                  + psi_hat(k) sin(kt)/k] J_(n/2-1)(kd) k^(n/2) dk,

    with phi_hat(k) = A (2 pi s^2)^(n/2) e^{-s^2 k^2 / 2}.
    """
    return (_hankel_term(n, phi[0], phi[1], d, t, velocity=False)
            + _hankel_term(n, psi[0], psi[1], d, t, velocity=True))


def kirchhoff_offset_gaussian(amplitude: float, sigma: float, offset: float, t: float) -> float:
    """n = 3, phi = 0, psi a Gaussian centred `offset` away from the probe.

    Kirchhoff: u = t * (mean of psi over the sphere of radius t), and the
    sphere mean of an off-centre Gaussian is elementary.
    """
    a, r = offset, t
    mean = amplitude * sigma ** 2 / (2.0 * r * a) * (
        math.exp(-((r - a) ** 2) / (2.0 * sigma ** 2))
        - math.exp(-((r + a) ** 2) / (2.0 * sigma ** 2)))
    return t * mean


def sphere_area(n: int) -> float:
    """Area of the unit sphere S^(n-1) in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sinc_gaussian_integral(n: int, amplitude: float, sigma: float, radius: float) -> float:
    """int_{R^n} sin(R|xi|)/|xi| * A e^{-|xi|^2/(2 s^2)} d(xi), as a radial integral."""

    def integrand(k: float) -> float:
        kernel = math.sin(radius * k) / k if k > 0.0 else radius
        return kernel * math.exp(-0.5 * (k / sigma) ** 2) * k ** (n - 1)

    value, _ = integrate.quad(integrand, 0.0, _GAUSS_CUT * sigma, limit=400,
                              epsabs=1e-13, epsrel=1e-11)
    return sphere_area(n) * amplitude * value
