"""Spectral estimation from autocorrelation curves.

The autocorrelation t -> <U_T(t) f, f> is the Fourier transform of the
spectral measure of f, so a windowed inverse transform with a Gaussian
taper gives a nonnegative density estimate; negative lobes (taper and
truncation artifacts) are clipped and the mass renormalized to c(0).
Dilation lambda -> t * lambda and the Hellinger affinity provide the
probes used for spectral-disjointness experiments.

Both halves of the path use c(-t) = conj c(t), which holds because U_T
is unitary.  :func:`autocorr_curve` queries the engine at t >= 0 only
and mirrors the rest: the truncated engine value is Hermitian too
(B_N(-tau) = conj B_N(tau)), and the working stage and the bound depend
on |t| only.  :func:`bochner_density` folds the two halves of its sum
into one polynomial in z = exp(-2 pi i dt lambda), since the phases on
the grid t_i = i dt are the powers z^i, and evaluates it on the whole
frequency grid at once as a chirp-z transform: the grid is uniform, so
the sum is one linear convolution, taken by three FFTs of one length
L >= n + G, in O((n + G) log(n + G)) time and O(n + G) memory.  A
curve's times must therefore be symmetric about 0, with t = 0 in the
middle, and uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

try:  # numpy >= 2
    _trapezoid = np.trapezoid
except AttributeError:  # pragma: no cover
    _trapezoid = np.trapz

from . import schedule as geometry  # for GUARD, read at call time
from .correlate import Correlator
from .errors import ConfigurationError, DegenerateInputError, ResourceError
from .scalars import FLOAT_EXACT
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
        if not len(self.times) == len(self.values) == len(self.bounds):
            sizes = f"{len(self.times)}, {len(self.values)} and {len(self.bounds)}"
            raise ConfigurationError(f"a curve needs as many values and bounds as times, got {sizes}")


@dataclass
class SpectralEstimate:
    freqs: np.ndarray  # uniform over [-lam_max, lam_max]
    density: np.ndarray  # nonnegative
    taper_kind: str
    taper_width: float

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.density = np.asarray(self.density, dtype=float)

    @cached_property
    def total_mass(self) -> float:
        """The trapezoid integral of the density, taken on first read: an
        estimate's density is not changed once it is made."""
        return float(_trapezoid(self.density, self.freqs))


def sample_count(t_max, dt) -> int:
    """The n of the sample times i * dt, |i| <= n, of a curve up to
    *t_max*; a curve needs a time besides 0.  Its n + 1 times from 0 are
    the memo keys of one engine query on a schedule curve, so
    ``schedule.GUARD`` bounds them, on both kinds of curve, before any
    time is built.  An exact dt past float range either way is refused
    by name: one that rounds to 0.0 would divide by zero, and one past
    the largest float has no float to print."""
    try:
        step = float(dt)
    except OverflowError:
        raise ConfigurationError("spec entry 'dt' is past float range") from None
    if not step and dt:
        raise ConfigurationError(f"spec entry 'dt' rounds to 0.0: t_max/dt with 't_max' = {t_max} is past float range")
    try:
        n = int(round(float(t_max) / step))
    except OverflowError:
        raise ConfigurationError(f"spec entries 't_max' = {t_max} and 'dt' = {step}: t_max/dt is past float range") from None
    if n < 1:
        raise ConfigurationError(
            f"spec entry 't_max' = {t_max} must exceed half of 'dt' = {float(dt)}: the curve has no time but 0"
        )
    if n + 1 > geometry.GUARD:
        raise ResourceError(
            f"sample blowup: spec entries 't_max' = {t_max} and 'dt' = {float(dt)} give {n + 1} sample times "
            f"from 0, more than GUARD = {geometry.GUARD}"
        )
    return n


def autocorr_curve(schedule: Schedule, f: StepFunction, dt, t_max) -> AutocorrCurve:
    """Sample <U_T(t_i) f, f> on the uniform grid t_i = i * dt,
    |t_i| <= t_max (:func:`sample_count`).  The engine is queried at
    i = 0..n, in one batch; the value at -t_i is the conjugate of the one
    at t_i, with the same bound.  A ``Fraction`` dt = p/q hands the engine
    the grid's ints i*p on scale q (:meth:`Correlator.sample`) and reads
    arrays back; a float dt queries the products i*dt."""
    n = sample_count(t_max, dt)
    correlator = Correlator(schedule, [(f, f)])
    if type(dt) is Fraction:  # i*dt = (i*p)/q, and its float the correctly rounded int division
        p, q = dt.numerator, dt.denominator
        (values,), (bounds,), _ = correlator.sample(range(0, (n + 1) * p, p), q)
        if abs(n * p) < FLOAT_EXACT and q < FLOAT_EXACT:  # exact operands: the float division rounds the same
            times = np.arange(n + 1) * p / q
        else:
            times = np.array([i * p / q for i in range(n + 1)])
    else:
        ts = [i * dt for i in range(n + 1)]
        (half,) = correlator.at(ts)
        values = np.array([r.value for r in half], dtype=complex)
        bounds = np.array([r.error_bound for r in half])
        times = np.array([float(t) for t in ts])
    # rounding is odd: float(-t) = -float(t)
    return AutocorrCurve(
        dt=float(dt),
        times=np.concatenate([-times[:0:-1], times]),
        values=np.concatenate([np.conjugate(values[:0:-1]), values]),
        bounds=np.concatenate([bounds[:0:-1], bounds]),
    )


def curve_from_samples(dt: float, values, bounds=None) -> AutocorrCurve:
    """Build a curve from raw samples (index -n..n); analytic test inputs."""
    values = np.asarray(values, dtype=complex)
    if len(values) % 2 == 0:
        raise ConfigurationError(f"samples at indices -n..n come in an odd number, got {len(values)}")
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
    lobes are clipped and the mass renormalized to c(0).

    The times must be symmetric about 0 and uniform: each t_i >= 0 within
    2 ulps of i * dt.  Then the term at -t_i is the conjugate phase of
    the one at t_i, and the real part of the sum is

        rho(lambda) = dt * Re sum_{i=0..n} a_i z^i,   z = exp(-2 pi i dt lambda),

    with a_0 = w_0 c_0 and a_i = w_i (c_i + conj c_{-i}), which is
    2 w_i c_i on a Hermitian curve.  The G grid points are lambda_k =
    lambda_0 + k Delta up to rounding, with ``np.linspace``'s own start
    and step, so the sums at all of them are one chirp-z transform
    (:func:`_chirp_z`): three FFTs of one length L, the power of two at
    or above N = n + G, in O(N) memory.

    Rounding (u = 2^-53, gamma_k = k u / (1 - k u)): against the exact
    two-sided sum over the computed taper w_i, the curve's own times and
    the grid's own points, to first order in u,

        |error(lambda_k)| <= dt * sum_i |a_i| (gamma_96 + 2 pi u i dt (|lambda_0| + k |Delta|)
                                                + 2 pi (|lambda_k| |t_i - i dt| + |t_i| |dlambda_k|))
                             + dt * (eps_F (N ||a||_2 + 2 sqrt(N) ||a||_1) + sqrt(2) gamma_2 sqrt(N) ||a||_1).

    gamma_96 covers the rounding of a_i and of dt * Re, the three
    complex products of the transform at sqrt(2) gamma_2 each (Higham,
    Accuracy and Stability of Numerical Algorithms, Lemma 3.5), and the
    four phases each term meets (the pre-twist, the chirp before, the
    kernel and the chirp after), each within (6 pi + 2) u of its exact
    value: :func:`_phases` reduces every argument exactly to less than
    one turn, so no phase error grows with i, k or the chirp's
    dt Delta m^2 (m^2 < 2^53 is exact for N <= 2^26).  The next term is
    the rounding of the products dt lambda_0 and dt Delta the phases are
    taken of, and the third the phase gap between the model's
    (lambda_0 + k Delta) i dt and the sum's lambda_k t_i: the time
    grid's |t_i - i dt| and the frequency grid's dlambda_k = lambda_k -
    (lambda_0 + k Delta), from ``np.linspace``'s rounding of k Delta and
    its sum with lambda_0.  The last is the FFT convolution: each of the
    three transforms is within eps_F = p eta / (1 - p eta) of exact in
    the 2-norm, with eta = u + gamma_4 (sqrt(2) + u) and p = log2 L
    (Higham, ch. 24, Theorem 24.2, for weights within u), and a 2-norm
    bounds every entry: the input's error is carried through the
    kernel's transform, at most ||kernel||_1 = N in modulus, and the
    kernel's, the pointwise product's and the inverse's errors with
    ||a||_1 sqrt(N).  This FFT term is an a-priori bound, 10^3 to 10^4
    times the observed error on every tested curve; what the tests
    enforce is the measured cap, ``1e-12 * max(reference)``.

    ``schedule.GUARD`` bounds *grid_size*, as it bounds a curve's sample
    times (:func:`sample_count`), before the grid is built."""
    times = curve.times
    n = len(times) // 2
    if not np.array_equal(times[n:], -times[n::-1]):
        raise ConfigurationError("curve times must be symmetric about 0, with t = 0 in the middle")
    grid = np.arange(n + 1) * curve.dt
    if not np.all(np.abs(times[n:] - grid) <= 2 * np.spacing(grid)):
        raise ConfigurationError(f"curve times must be uniform, t_i = i * dt with dt = {curve.dt}")
    t_max = float(times[-1])
    if taper_width is None:
        taper_width = t_max / 3.0
    if taper_width > t_max:
        raise ConfigurationError(f"taper width {taper_width} exceeds T_max {t_max}")
    if taper_width <= 0:
        raise ConfigurationError("taper width must be positive")
    if grid_size > geometry.GUARD:  # the transform holds several complex arrays of n + grid_size or more
        raise ResourceError(f"frequency grid blowup: 'grid_size' = {grid_size} points, more than GUARD = {geometry.GUARD}")
    c = curve.values
    with np.errstate(all="ignore"):  # a taper, grid or phases past float range are refused below
        w = np.exp(-(times[n:] ** 2) / (2.0 * taper_width**2))
        freqs, step = np.linspace(-lam_max, lam_max, grid_size, retstep=True)
        phases = 2 * np.pi * curve.dt * freqs
    if not np.all(np.isfinite(w)):
        raise ConfigurationError(f"spec entry 'taper_width' = {taper_width}: the taper exp(-t^2 / (2 width^2)) is past float range")
    if not np.all(np.isfinite(phases)):
        raise ConfigurationError(f"spec entry 'lam' = {lam_max}: the frequency grid or its phases are past float range")
    a = w * (c[n:] + np.conjugate(c[n::-1]))
    a[0] = w[0] * c[n]
    size = len(freqs)
    step = step if size > 1 else 0.0  # linspace's step is NaN below two points
    density = curve.dt * _chirp_z(a, curve.dt * -lam_max, curve.dt * step, size).real
    density = np.clip(density, 0.0, None)
    c0 = float(np.real(c[n]))
    mass = float(_trapezoid(density, freqs))
    if mass > 0 and c0 > 0:
        density *= c0 / mass
    return SpectralEstimate(freqs=freqs, density=density, taper_kind="gaussian", taper_width=float(taper_width))


def _chirp_z(a: np.ndarray, start: float, step: float, size: int) -> np.ndarray:
    """sum_i a_i exp(-2 pi i (start + k step) i) for k = 0..size-1, by
    Bluestein's chirp-z transform (Rabiner, Schafer and Rader, 1969).
    With W = exp(-2 pi i step) and i k = (i^2 + k^2 - (k - i)^2) / 2,
    the sum is W^(k^2/2) sum_i x_i W^(-(k - i)^2/2), x_i = a_i
    exp(-2 pi i start i) W^(i^2/2): one linear convolution of x with
    the conjugate chirp over k - i = -n..size-1, taken circularly at
    one length L >= n + size, a power of two, by three FFTs.  ``np.fft``
    is reached here, so importing the package loads no FFT."""
    n = len(a) - 1
    m = np.arange(max(n + 1, size), dtype=float)
    chirp = _phases(step / 2, m * m)  # W^(m^2/2)
    length = 1 << (n + size - 1).bit_length()
    kernel = np.zeros(length, dtype=complex)  # W^(-m^2/2) at m mod L
    kernel[:size] = chirp[:size]
    kernel[length - n :] = chirp[n:0:-1]
    np.conjugate(kernel, out=kernel)
    x = a * _phases(start, m[: n + 1]) * chirp[: n + 1]
    fft = np.fft
    return chirp[:size] * fft.ifft(fft.fft(x, length) * fft.fft(kernel))[:size]


def _split(x):
    """Veltkamp's split of float64 x into hi + lo, each of at most 26
    significant bits, so that a product of two halves is exact."""
    t = 134217729.0 * x  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _phases(c: float, m: np.ndarray) -> np.ndarray:
    """exp(-2 pi i c m) at integer floats m < 2^53, with c m reduced mod 1
    exactly: c less its nearest integer leaves |c m| <= m / 2, Dekker's
    product gives c m = p + e with p = fl(c m) and e exact, and r, p
    less its nearest integer, is exact too.  The argument r + e, of less
    than one turn, is rounded once, so the phase is within (6 pi + 2) u
    of exact whatever c m (2 u for exp, within an ulp per component)."""
    c = c - np.round(c)
    p = c * m
    (ch, cl), (mh, ml) = _split(c), _split(m)
    e = ((ch * mh - p) + ch * ml + cl * mh) + cl * ml
    return np.exp(-2j * np.pi * ((p - np.round(p)) + e))


def _regrid(est: SpectralEstimate, freqs: np.ndarray) -> np.ndarray:
    return np.interp(freqs, est.freqs, est.density, left=0.0, right=0.0)


def dilate(est: SpectralEstimate, t) -> SpectralEstimate:
    """The dilation sigma_t(A) = sigma(t A): density'(lam) = t * density(t lam)
    on the rescaled grid; mass is preserved exactly."""
    t = float(t)
    if t <= 0:
        raise ConfigurationError("dilation factor must be positive")
    with np.errstate(over="ignore"):  # past float range: a grid or density is refused, a mass of inf leaves none
        freqs = est.freqs / t
        density = t * est.density
        if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(density))):
            raise ConfigurationError(f"dilation factor {t:g} puts the estimate's grid or density past float range")
        after = float(_trapezoid(density, freqs))
    if after > 0:
        density *= est.total_mass / after
    return SpectralEstimate(freqs=freqs, density=density, taper_kind=est.taper_kind, taper_width=est.taper_width)


def affinity(a: SpectralEstimate, b: SpectralEstimate) -> float:
    """Hellinger affinity sum sqrt(p_i q_i) of the mass-normalized
    estimates on a common grid; 1 iff identical, 0 iff disjointly
    supported.  An estimate with no mass on that grid, zero or falling
    between its points, has no affinity."""
    if a.freqs.shape == b.freqs.shape and np.array_equal(a.freqs, b.freqs):
        ma, mb = a.total_mass, b.total_mass
        if ma > 0 and mb > 0 and np.array_equal(a.density / ma, b.density / mb):
            return 1.0
    lo = min(a.freqs[0], b.freqs[0])
    hi = max(a.freqs[-1], b.freqs[-1])
    n = max(len(a.freqs), len(b.freqs))
    grid = np.linspace(lo, hi, 2 * n)
    pa = _regrid(a, grid)
    pb = _regrid(b, grid)
    ma, mb = _trapezoid(pa, grid), _trapezoid(pb, grid)
    if not (ma > 0 and mb > 0):
        raise DegenerateInputError(f"affinity of an estimate with no mass on the common grid of {2 * n} points over [{lo:g}, {hi:g}]")
    return float(_trapezoid(np.sqrt(pa / ma * (pb / mb)), grid))
