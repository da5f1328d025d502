"""Native-coordinate hyperbolic disk geometry and measure helpers.

Points live in a disk of radius R in the hyperbolic plane, given in polar
form (r, phi).  Radii are drawn with density alpha * sinh(alpha * r),
normalized over [0, R]; angles are uniform.  Two points are linked when
their hyperbolic distance is at most R, so R doubles as disk radius and
connection threshold.  R is tied to the point count through
R = 2 * ln(n) + C, where C tunes the expected average degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


class PolarPoint(NamedTuple):
    r: float
    phi: float


@dataclass(frozen=True)
class HrgParams:
    """Disk parameters: n points, dispersion alpha > 1/2, radius offset C."""

    n: int
    alpha: float
    C: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.alpha <= 0.5:
            raise ValueError("alpha must exceed 1/2")
        if self.R <= 0.0:
            raise ValueError("disk radius 2*ln(n) + C must be positive")

    @property
    def R(self) -> float:
        return 2.0 * math.log(self.n) + self.C

    @classmethod
    def from_avg_degree(cls, n: int, alpha: float, avg_degree: float) -> "HrgParams":
        """Pick C so the expected average degree comes out at avg_degree."""
        return cls(n, alpha, solve_C_for_avg_degree(n, alpha, avg_degree))


@dataclass(frozen=True)
class Points:
    """Point cloud as parallel coordinate arrays.

    Behaves as a sequence of PolarPoint while keeping the columns available
    for vectorized work.
    """

    r: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        if self.r.ndim != 1 or self.r.shape != self.phi.shape:
            raise ValueError("r and phi must be parallel 1-D arrays")

    def __len__(self) -> int:
        return int(self.r.shape[0])

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray, list)):
            return Points(self.r[i], self.phi[i])
        return PolarPoint(float(self.r[i]), float(self.phi[i]))


def angular_difference(phi_u, phi_v):
    """Smaller arc angle between two angles; accepts scalars or arrays."""
    d = np.abs(np.asarray(phi_u) - np.asarray(phi_v)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def cosh_distance(r_u, phi_u, r_v, phi_v):
    """cosh of the pairwise hyperbolic distance, vectorized.

    Monotone stand-in for distance(); builders compare this against
    cosh(R) so that the edge predicate is a single float expression with
    no inverse trig involved.
    """
    dphi = angular_difference(phi_u, phi_v)
    return np.cosh(r_u) * np.cosh(r_v) - np.sinh(r_u) * np.sinh(r_v) * np.cos(dphi)


def distance(u: PolarPoint, v: PolarPoint) -> float:
    """Hyperbolic distance between two native-polar points."""
    if u.r == v.r and u.phi == v.phi:
        return 0.0  # cosh^2 - sinh^2 loses to rounding for large radii
    dphi = angular_difference(u.phi, v.phi)
    arg = math.cosh(u.r) * math.cosh(v.r) - math.sinh(u.r) * math.sinh(v.r) * math.cos(dphi)
    # rounding can push the argument a hair below 1 for near-coincident points
    return math.acosh(max(arg, 1.0))


def radial_density(r, params: HrgParams):
    """Radial sampling density alpha*sinh(alpha*r) / (cosh(alpha*R) - 1) on [0, R]."""
    a = params.alpha
    return a * np.sinh(a * np.asarray(r, dtype=float)) / (math.cosh(a * params.R) - 1.0)


def origin_disk_measure(r: float, params: HrgParams) -> float:
    """Probability mass of the radius-r disk around the origin (closed form)."""
    if r < 0.0 or r > params.R:
        raise ValueError("r must lie in [0, R]")
    a = params.alpha
    return (math.cosh(a * r) - 1.0) / (math.cosh(a * params.R) - 1.0)


def _lens_angle(x: float, r: float, cosh_r: float, sinh_r: float, cosh_R: float) -> float:
    """Half-opening angle of the radius-R disk about (r, 0) at center radius x."""
    if x <= 0.0:
        return math.pi
    ratio = (math.cosh(x) * cosh_r - cosh_R) / (math.sinh(x) * sinh_r)
    return math.acos(min(1.0, max(-1.0, ratio)))


def intersection_measure(r: float, params: HrgParams) -> float:
    """Probability mass of the region within distance R of both the origin
    and a point at radius r.

    Splits the radial range at x = R - r: below it the whole circle at
    radius x is inside the off-center disk, above it only the arc within
    the lens boundary angle counts.  The remaining 1-D integral is solved
    by adaptive quadrature to absolute tolerance 1e-8.
    """
    if r < 0.0 or r > params.R:
        raise ValueError("r must lie in [0, R]")
    R = params.R
    if r == 0.0:
        return 1.0
    cosh_r, sinh_r = math.cosh(r), math.sinh(r)
    cosh_R = math.cosh(R)
    inner = R - r
    full = origin_disk_measure(inner, params) if inner > 0.0 else 0.0

    def arc_mass(x: float) -> float:
        theta = _lens_angle(x, r, cosh_r, sinh_r, cosh_R)
        return float(radial_density(x, params)) * theta / math.pi

    from scipy import integrate  # its only user; keeps it out of the package import

    tail, _ = integrate.quad(arc_mass, max(inner, 0.0), R, epsabs=1e-8, limit=200)
    return full + tail


def intersection_measure_asymptotic(r: float, params: HrgParams) -> float:
    """Large-R closed-form estimate of intersection_measure."""
    a = params.alpha
    return 2.0 * a * math.exp(-r / 2.0) / (math.pi * (a - 0.5))


@lru_cache(maxsize=256)
def expected_avg_degree(params: HrgParams) -> float:
    """Expected average degree n * E_r[intersection_measure(r)].

    Evaluated on fixed-order Gauss-Legendre grids (outer over the center
    radius, inner over the lens tail) so the bisection in
    solve_C_for_avg_degree stays cheap; accuracy is far below the 1e-3
    relative tolerance that solve needs.
    """
    R = params.R
    a = params.alpha
    norm = math.cosh(a * R) - 1.0
    xs, ws = np.polynomial.legendre.leggauss(256)
    r = 0.5 * R * (xs + 1.0)  # outer nodes over [0, R]
    wr = 0.5 * R * ws
    ts, wts = np.polynomial.legendre.leggauss(192)
    t = 0.5 * (ts + 1.0)  # inner nodes over [0, 1], scaled per row below
    # inner variable x spans [R - r, R] for each outer node r
    x = (R - r)[:, None] + r[:, None] * t[None, :]
    ratio = (np.cosh(x) * np.cosh(r)[:, None] - math.cosh(R)) / (np.sinh(x) * np.sinh(r)[:, None])
    theta = np.arccos(np.clip(ratio, -1.0, 1.0))
    dens = a * np.sinh(a * x) / norm
    tail = (r / 2.0) * np.sum(dens * theta / math.pi * wts[None, :], axis=1)
    full = (np.cosh(a * (R - r)) - 1.0) / norm
    mu = full + tail
    rho = a * np.sinh(a * r) / norm
    return params.n * float(np.sum(wr * rho * mu))


@lru_cache(maxsize=256)
def solve_C_for_avg_degree(n: int, alpha: float, avg_degree: float, rel_tol: float = 1e-3) -> float:
    """Find C with expected_avg_degree(HrgParams(n, alpha, C)) = avg_degree.

    The expected degree is monotone decreasing in C; bisection stops once
    the value matches to rel_tol relative accuracy.
    """
    if not 0.0 < avg_degree < n:
        raise ValueError("avg_degree must lie strictly between 0 and n")
    # R -> 0+ degenerates to a Euclidean disk where the expected degree tops
    # out near 0.586*n; keep R just above zero so cosh(alpha*R)-1 cannot
    # underflow to exactly 0
    lo = -2.0 * math.log(n) + 0.05
    hi = 10.0
    while expected_avg_degree(HrgParams(n, alpha, hi)) > avg_degree:
        hi += 10.0
        if hi > 200.0:
            raise RuntimeError("failed to bracket C from above")
    if expected_avg_degree(HrgParams(n, alpha, lo)) < avg_degree:
        raise RuntimeError("failed to bracket C from below")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = expected_avg_degree(HrgParams(n, alpha, mid))
        if abs(val - avg_degree) <= rel_tol * avg_degree:
            return mid
        if val > avg_degree:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("bisection on C did not converge")
