"""Spectral estimation from autocorrelation curves.

The autocorrelation t -> <U_T(t) f, f> is the Fourier transform of the
spectral measure of f, so a windowed inverse transform with a Gaussian
taper gives a nonnegative density estimate; negative lobes (taper and
truncation artifacts) are clipped and the mass renormalized to c(0).
Dilation lambda -> t * lambda and the Hellinger affinity provide the
probes used for spectral-disjointness experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:  # numpy >= 2
    _trapezoid = np.trapezoid
except AttributeError:  # pragma: no cover
    _trapezoid = np.trapz

from .correlate import Correlator
from .errors import ConfigurationError, DegenerateInputError
from .schedule import Schedule
from .stepfun import StepFunction


@dataclass
class AutocorrCurve:
    dt: float
    times: np.ndarray  # uniform grid, symmetric around 0
    values: np.ndarray  # complex
    bounds: np.ndarray  # per-point error bounds

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        self.bounds = np.asarray(self.bounds, dtype=float)


@dataclass
class SpectralEstimate:
    freqs: np.ndarray  # uniform over [-lam_max, lam_max]
    density: np.ndarray  # nonnegative
    taper_kind: str
    taper_width: float

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.density = np.asarray(self.density, dtype=float)

    @property
    def total_mass(self) -> float:
        return float(_trapezoid(self.density, self.freqs))


def autocorr_curve(
    schedule: Schedule, f: StepFunction, dt, t_max, guard: int = 10**6
) -> AutocorrCurve:
    """Sample <U_T(t_i) f, f> on the uniform grid t_i = i * dt,
    |t_i| <= t_max, sharing one correlator memo across the sweep."""
    n = int(round(float(t_max) / float(dt)))
    corr = Correlator(schedule, f, f, guard=guard)
    times, values, bounds = [], [], []
    for i in range(-n, n + 1):
        t = i * dt
        r = corr.at(t)
        times.append(float(t))
        values.append(r.value)
        bounds.append(r.error_bound)
    return AutocorrCurve(dt=float(dt), times=np.array(times), values=np.array(values), bounds=np.array(bounds))


def curve_from_samples(dt: float, values, bounds=None) -> AutocorrCurve:
    """Build a curve from raw samples (index -n..n); analytic test inputs."""
    values = np.asarray(values, dtype=complex)
    n = (len(values) - 1) // 2
    times = np.arange(-n, n + 1) * float(dt)
    if bounds is None:
        bounds = np.zeros_like(times)
    return AutocorrCurve(dt=float(dt), times=times, values=values, bounds=np.asarray(bounds, dtype=float))


def bochner_density(
    curve: AutocorrCurve, lam_max: float, grid_size: int = 1024, taper_width: float | None = None
) -> SpectralEstimate:
    """density(lambda) = dt * sum_i w(t_i) c(t_i) exp(-2 pi i lambda t_i)
    with the Gaussian taper w(t) = exp(-t^2 / (2 width^2)); negative
    lobes are clipped and the mass renormalized to c(0)."""
    t_max = float(curve.times[-1])
    if taper_width is None:
        taper_width = t_max / 3.0
    if taper_width > t_max:
        raise ConfigurationError(f"taper width {taper_width} exceeds T_max {t_max}")
    if taper_width <= 0:
        raise ConfigurationError("taper width must be positive")
    w = np.exp(-(curve.times**2) / (2.0 * taper_width**2))
    freqs = np.linspace(-lam_max, lam_max, grid_size)
    phases = np.exp(-2j * np.pi * np.outer(freqs, curve.times))
    density = curve.dt * np.real(phases @ (w * curve.values))
    density = np.clip(density, 0.0, None)
    c0 = float(np.real(curve.values[len(curve.values) // 2]))
    mass = float(_trapezoid(density, freqs))
    if mass > 0 and c0 > 0:
        density *= c0 / mass
    return SpectralEstimate(freqs=freqs, density=density, taper_kind="gaussian", taper_width=float(taper_width))


def aggregate(estimates, weights) -> SpectralEstimate:
    """Weighted sum of estimates on a common grid (truncated maximal-type
    aggregate sum_j 2^-j sigma_j when called with those weights)."""
    if not estimates:
        raise DegenerateInputError("no estimates to aggregate")
    base = estimates[0]
    density = np.zeros_like(base.density)
    for est, wt in zip(estimates, weights):
        density += wt * _regrid(est, base.freqs)
    return SpectralEstimate(freqs=base.freqs.copy(), density=density, taper_kind=base.taper_kind, taper_width=base.taper_width)


def _regrid(est: SpectralEstimate, freqs: np.ndarray) -> np.ndarray:
    return np.interp(freqs, est.freqs, est.density, left=0.0, right=0.0)


def dilate(est: SpectralEstimate, t) -> SpectralEstimate:
    """The dilation sigma_t(A) = sigma(t A): density'(lam) = t * density(t lam)
    on the rescaled grid; mass is preserved exactly."""
    t = float(t)
    if t <= 0:
        raise ConfigurationError("dilation factor must be positive")
    freqs = est.freqs / t
    density = t * est.density
    before = est.total_mass
    out = SpectralEstimate(freqs=freqs, density=density, taper_kind=est.taper_kind, taper_width=est.taper_width)
    after = out.total_mass
    if after > 0:
        out.density *= before / after
    return out


def affinity(a: SpectralEstimate, b: SpectralEstimate) -> float:
    """Hellinger affinity sum sqrt(p_i q_i) of the mass-normalized
    estimates on a common grid; 1 iff identical, 0 iff disjointly
    supported."""
    ma, mb = a.total_mass, b.total_mass
    if ma <= 0 or mb <= 0:
        raise DegenerateInputError("affinity of a zero-mass estimate")
    if a.freqs.shape == b.freqs.shape and np.array_equal(a.freqs, b.freqs) and np.array_equal(
        a.density / ma, b.density / mb
    ):
        return 1.0
    lo = min(a.freqs[0], b.freqs[0])
    hi = max(a.freqs[-1], b.freqs[-1])
    n = max(len(a.freqs), len(b.freqs))
    grid = np.linspace(lo, hi, 2 * n)
    pa = _regrid(a, grid)
    pb = _regrid(b, grid)
    pa = pa / _trapezoid(pa, grid)
    pb = pb / _trapezoid(pb, grid)
    return float(_trapezoid(np.sqrt(pa * pb), grid))
