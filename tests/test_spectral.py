import importlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rank1flow import (
    Correlator,
    affinity,
    asym49_schedule,
    autocorr_curve,
    bochner_density,
    curve_from_samples,
    dilate,
    flat_schedule,
    indicator,
    random_step_function,
)
from rank1flow import schedule as schedule_module
from rank1flow.errors import ConfigurationError, DegenerateInputError, ResourceError
from rank1flow.experiments import _curve_for_spec, _estimate_entries, run_experiment, seeded_family
from rank1flow.spectral import AutocorrCurve, sample_count

trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz  # numpy < 2 lacks trapezoid


def gaussian_curve(dt=0.05, t_max=20.0):
    n = int(round(t_max / dt))
    vals = [math.exp(-math.pi * (i * dt) ** 2) for i in range(-n, n + 1)]
    return curve_from_samples(dt, vals)


def cosine_curve(freq=1.0, dt=0.05, t_max=20.0):
    n = int(round(t_max / dt))
    vals = [math.cos(2 * math.pi * freq * i * dt) for i in range(-n, n + 1)]
    return curve_from_samples(dt, vals)


def test_gaussian_density_pointwise():
    est = bochner_density(gaussian_curve(), lam_max=4.0, grid_size=1601, taper_width=15.0)
    truth = np.exp(-math.pi * est.freqs**2)
    assert float(np.max(np.abs(est.density - truth))) < 1e-3


def test_gaussian_mass_matches_c0():
    curve = gaussian_curve()
    est = bochner_density(curve, lam_max=4.0, grid_size=1601, taper_width=15.0)
    c0 = curve.values[len(curve.values) // 2].real
    assert est.total_mass == pytest.approx(c0, abs=1e-9)


def test_cosine_lobes_carry_mass():
    est = bochner_density(cosine_curve(), lam_max=4.0, grid_size=1601, taper_width=6.0)
    lobes = (np.abs(est.freqs - 1.0) <= 0.25) | (np.abs(est.freqs + 1.0) <= 0.25)
    lobe_mass = float(trapezoid(np.where(lobes, est.density, 0.0), est.freqs))
    assert lobe_mass >= 0.9 * est.total_mass


def test_density_is_nonnegative():
    est = bochner_density(cosine_curve(), lam_max=4.0, grid_size=801)
    assert float(est.density.min()) >= 0.0


def test_taper_width_validation():
    curve = gaussian_curve(t_max=5.0)
    with pytest.raises(ConfigurationError):
        bochner_density(curve, lam_max=2.0, taper_width=50.0)
    with pytest.raises(ConfigurationError):
        bochner_density(curve, lam_max=2.0, taper_width=0.0)


def test_dilation_two_pipelines_agree():
    # pipeline A: estimate then dilate by s; pipeline B: reinterpret the
    # same samples on the time grid s * t with taper width scaled by s
    s = 2.0
    curve = gaussian_curve()
    est = bochner_density(curve, lam_max=4.0, grid_size=1601, taper_width=15.0)
    curve_b = curve_from_samples(curve.dt * s, curve.values)
    est_b = bochner_density(curve_b, lam_max=4.0 / s, grid_size=1601, taper_width=15.0 * s)
    dil = dilate(est, s)
    assert np.max(np.abs(dil.freqs - est_b.freqs)) < 1e-12
    assert float(np.max(np.abs(dil.density - est_b.density))) < 1e-6


def test_dilate_preserves_mass():
    est = bochner_density(gaussian_curve(), lam_max=4.0, grid_size=801)
    for s in (0.5, 2.0, 3.0):
        assert dilate(est, s).total_mass == pytest.approx(est.total_mass, rel=1e-9)


def test_dilate_rejects_nonpositive():
    est = bochner_density(gaussian_curve(), lam_max=4.0, grid_size=801)
    with pytest.raises(ConfigurationError):
        dilate(est, 0.0)


def test_affinity_self_is_one():
    est = bochner_density(cosine_curve(), lam_max=4.0, grid_size=801)
    assert affinity(est, est) == 1.0


def test_affinity_symmetry():
    a = bochner_density(gaussian_curve(), lam_max=4.0, grid_size=801)
    b = bochner_density(cosine_curve(), lam_max=4.0, grid_size=801)
    assert affinity(a, b) == affinity(b, a)


def test_affinity_disjoint_support_is_zero():
    freqs = np.linspace(-2.0, 2.0, 401)
    left = np.where(freqs < -0.5, 1.0, 0.0)
    right = np.where(freqs > 0.5, 1.0, 0.0)
    from rank1flow.spectral import SpectralEstimate

    a = SpectralEstimate(freqs=freqs, density=left, taper_kind="gaussian", taper_width=1.0)
    b = SpectralEstimate(freqs=freqs, density=right, taper_kind="gaussian", taper_width=1.0)
    assert affinity(a, b) == 0.0


def test_affinity_zero_mass_rejected():
    freqs = np.linspace(-1.0, 1.0, 11)
    from rank1flow.spectral import SpectralEstimate

    z = SpectralEstimate(freqs=freqs, density=np.zeros_like(freqs), taper_kind="gaussian", taper_width=1.0)
    with pytest.raises(DegenerateInputError):
        affinity(z, z)


def test_a_disjointness_run_integrates_each_mass_once(monkeypatch):
    """One disjointness run takes the trapezoid rule once for the
    estimate's own mass, then per dilation once for the rescaled density
    and once for each density on the common grid: the base estimate's
    mass is read again from its cache, and a dilated estimate's on its
    own grid is not needed."""
    spectral = importlib.import_module("rank1flow.spectral")
    calls = []
    integrate = spectral._trapezoid
    monkeypatch.setattr(spectral, "_trapezoid", lambda *args: calls.append(1) or integrate(*args))
    spec = {"schedule": {"kind": "flat", "params": {"r": 2}}, "dilations": [2, 3]}
    report = run_experiment("disjointness", spec)
    assert report["result"]["self_affinity"] == 1.0
    assert len(calls) == 2 + 4 * 2


def test_autocorr_curve_from_engine():
    sched = flat_schedule(2)
    f = indicator(1, 1, 0, 1)
    curve = autocorr_curve(sched, f, dt=0.25, t_max=1.0)
    mid = len(curve.values) // 2
    assert curve.values[mid] == pytest.approx(1.0)  # <f, f> = mu of the base
    assert len(curve.values) == 9
    assert np.all(curve.bounds >= 0.0)


def test_spec_dt_is_exact_and_matches_the_float_curve():
    """A spec's dt 0.05 (JSON number or string) samples at the exact times
    i/20; the values agree with the float-dt sweep within 1e-12."""
    sched = asym49_schedule()
    spec = {"schedule": {"kind": "asym49", "params": {}}, "dt": 0.05, "t_max": 4, "seed": 3}
    exact = _curve_for_spec(spec)()
    as_text = _curve_for_spec({**spec, "dt": "0.05"})()
    f = seeded_family(sched, spec, pair=False)[0]
    floats = autocorr_curve(sched, f, 0.05, 4)
    assert np.array_equal(exact.values, as_text.values)
    assert exact.dt == floats.dt == 0.05
    assert len(exact.values) == len(floats.values) == 161
    assert np.max(np.abs(exact.values - floats.values)) <= 1e-12
    assert np.max(np.abs(exact.times - floats.times)) <= 1e-12


def two_sided_sweep(schedule, f, dt, t_max):
    """(times, values, bounds) with the engine queried at every i * dt,
    |i| <= n, negative times included."""
    n = int(round(float(t_max) / float(dt)))
    corr = Correlator(schedule, [(f, f)])
    results = [corr.at([i * dt])[0][0] for i in range(-n, n + 1)]
    times = np.array([float(i * dt) for i in range(-n, n + 1)])
    return times, np.array([r.value for r in results]), np.array([r.error_bound for r in results])


@pytest.mark.parametrize("t_max", [3, 0.1], ids=["n>0", "n=0"])
@pytest.mark.parametrize("dt", [Fraction(1, 4), 0.3], ids=["exact-dt", "float-dt"])
@pytest.mark.parametrize("name", ["flat3", "small_staircase", "small_asym", "small_thm44"])
def test_half_sweep_matches_a_two_sided_sweep(request, name, dt, t_max):
    """The mirrored half is within 1e-15 of the engine's values at t < 0,
    with equal times and bounds; the queried half is the engine's, exactly.
    At n = 0 the curve would hold no time but 0, and is refused."""
    sched = request.getfixturevalue(name)
    f = random_step_function(1, sched.height(1), 4, random.Random(5))
    if t_max < dt / 2:
        with pytest.raises(ConfigurationError, match="must exceed half of 'dt'"):
            autocorr_curve(sched, f, dt, t_max)
        return
    curve = autocorr_curve(sched, f, dt, t_max)
    times, values, bounds = two_sided_sweep(sched, f, dt, t_max)
    n = len(times) // 2
    assert np.array_equal(curve.times, times)
    assert np.array_equal(curve.bounds, bounds)
    assert np.array_equal(curve.values[n:], values[n:])
    assert np.array_equal(curve.values[:n], np.conjugate(values[: n : -1]))
    assert np.max(np.abs(curve.values - values)) <= 1e-15


@pytest.mark.parametrize("dt, t_max", [(Fraction(1, 20), Fraction(1, 50)), (0.05, 0.025), (0.05, -1)])
def test_a_curve_needs_a_time_besides_zero(flat3, dt, t_max):
    """t_max <= dt/2 rounds to n = 0 sample steps, a negative t_max below
    that: no curve, where a one-point or empty curve would have failed
    only later, in bochner_density."""
    f = random_step_function(1, flat3.height(1), 4, random.Random(1))
    with pytest.raises(ConfigurationError, match="must exceed half of 'dt'"):
        autocorr_curve(flat3, f, dt, t_max)


def test_sample_count_stops_at_the_guard(monkeypatch):
    """n + 1 sample times from 0 may reach GUARD, not pass it: t_max/dt =
    10**18 raises at the default GUARD, and 161 times pass at GUARD = 161
    and raise at 160."""
    with pytest.raises(ResourceError, match=r"^sample blowup: .* give 1000000000000000001 sample times from 0, more than GUARD = 1000000$"):
        sample_count(1e9, 1e-9)
    monkeypatch.setattr(schedule_module, "GUARD", 161)
    assert sample_count(8, Fraction(1, 20)) == 160
    monkeypatch.setattr(schedule_module, "GUARD", 160)
    with pytest.raises(ResourceError, match="give 161 sample times from 0, more than GUARD = 160$"):
        sample_count(8, Fraction(1, 20))


@pytest.mark.parametrize(
    "dt, t_max",
    [(Fraction(1, 20), 16), (Fraction(1, 3), 2), (0.05, 4), (0.3, 3), (Fraction(2**53 + 1, 7), Fraction(8 * (2**53 + 1), 7))],
)
def test_curve_times_keep_the_bits_of_each_product(flat3, dt, t_max):
    """The t < 0 half of the times is the negation of the t >= 0 half,
    bit for bit float(i * dt) at every i, the sign of 0 included; past
    2**53 (i * p for dt = p/7 with p = 2**53 + 1) a float division of
    float(i * p) would round twice, and seven of the nine times differ."""
    f = random_step_function(1, flat3.height(1), 4, random.Random(1))
    curve = autocorr_curve(flat3, f, dt, t_max)
    n = int(round(float(t_max) / float(dt)))
    assert curve.times.tobytes() == np.array([float(i * dt) for i in range(-n, n + 1)]).tobytes()


def test_half_sweep_queries_each_nonnegative_time_once(monkeypatch, flat3):
    sample, queried = Correlator.sample, []

    def counting(self, coordinates, scale, stage=None):
        queried.extend(Fraction(x, scale) for x in coordinates)
        return sample(self, coordinates, scale, stage)

    monkeypatch.setattr(Correlator, "sample", counting)
    f = random_step_function(1, flat3.height(1), 4, random.Random(2))
    curve = autocorr_curve(flat3, f, Fraction(1, 4), 2)
    assert queried == [i * Fraction(1, 4) for i in range(9)]
    assert len(curve.values) == 17


def test_an_exact_curve_builds_no_scalar_or_result_per_time(monkeypatch):
    """A Fraction-dt curve of 321 times builds no CorrelationResult, and as
    many Fractions as one of 641 times over the same stages: none per time."""
    correlate_module = importlib.import_module("rank1flow.correlate")
    results, built = [], []

    class CountedResult(correlate_module.CorrelationResult):
        def __post_init__(self):
            results.append(self)

    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(None)
        return new(cls, *args, **kwargs)

    sched = asym49_schedule()
    f = seeded_family(sched, {"seed": 0}, pair=False)[0]
    autocorr_curve(sched, f, Fraction(1, 20), 16)  # the stages, built once
    monkeypatch.setattr(correlate_module, "CorrelationResult", CountedResult)
    counts = []
    for dt in (Fraction(1, 20), Fraction(1, 40)):
        built.clear()
        with monkeypatch.context() as patched:
            patched.setattr(Fraction, "__new__", counted)
            curve = autocorr_curve(sched, f, dt, 16)
        counts.append(len(built))
        assert len(curve.values) == 2 * 16 / dt + 1
    assert results == [] and counts[0] == counts[1] < 100


def full_transform_density(curve, lam_max, grid_size, taper_width):
    """bochner_density with exp evaluated at every (frequency, time) and
    one dense sum: (freqs, raw sum before the clip, density)."""
    w = np.exp(-(curve.times**2) / (2.0 * taper_width**2))
    freqs = np.linspace(-lam_max, lam_max, grid_size)
    phases = np.exp(-2j * np.pi * np.outer(freqs, curve.times))
    raw = curve.dt * np.real(phases @ (w * curve.values))
    density = np.clip(raw, 0.0, None)
    density *= float(np.real(curve.values[len(curve.values) // 2])) / float(trapezoid(density, freqs))
    return freqs, raw, density


U = 2.0**-53


def gamma(k):
    return k * U / (1 - k * U)


def transform_rounding_bound(curve, freqs, taper_width):
    """Per frequency: the rounding bound of the bochner_density docstring
    (Horner on z = exp(-2 pi i dt lambda)) plus the same kind of bound
    for the dense sum of full_transform_density, whose terms carry an
    exp of a rounded lambda * t and one sum of 2n + 1 complex products.
    exp is taken to be within 1 ulp per component (error <= 2u)."""
    n = len(curve.times) // 2
    i, t, c = np.arange(n + 1), curve.times[n:], curve.values
    w = np.exp(-(t**2) / (2.0 * taper_width**2))
    a = np.abs(w * (c[n:] + np.conjugate(c[n::-1])))
    a[0] = np.abs(w[0] * c[n])
    lam = np.abs(freqs)[:, None]
    eps = gamma(3) * 2 * np.pi * lam * curve.dt + 2 * U
    grid_error = np.abs(t - i * curve.dt) + np.spacing(t)  # |t_i - i dt| with i * dt exact
    horner = (gamma(4 * i + 4) + i * eps + 2 * np.pi * lam * grid_error) @ a
    terms = w * (np.abs(c[n:]) + np.abs(c[n::-1]))
    terms[0] = w[0] * np.abs(c[n])
    dense = (gamma(2 * n + 6) + gamma(3) * 2 * np.pi * lam * t + 2 * U) @ terms
    return curve.dt * (horner + dense)


def assert_within_rounding_bound(curve, estimate):
    """bochner_density against the dense reference, within the bound on
    the raw sums carried through the clip (1-Lipschitz) and the
    renormalization by c(0) / mass, and never above 1e-12 * max density."""
    est = bochner_density(curve, **estimate)
    freqs, raw, reference = full_transform_density(curve, **{**estimate, "taper_width": est.taper_width})
    assert np.array_equal(est.freqs, freqs)
    bound = transform_rounding_bound(curve, freqs, est.taper_width)
    mass = float(trapezoid(np.clip(raw, 0.0, None), freqs))
    scale = float(np.real(curve.values[len(curve.values) // 2])) / mass
    mass_error = float(trapezoid(bound, freqs)) + 2 * gamma(len(freqs) + 1) * mass
    tolerance = scale * bound + reference * (mass_error / mass + 4 * U)
    assert np.all(np.abs(est.density - reference) <= np.minimum(tolerance, 1e-12 * np.max(reference)))


# the curve and estimate entries of the spectrum and disjointness specs of
# the CLI determinism check (criterion 9)
CLI_CURVES = {
    "gaussian": {"analytic": {"kind": "gaussian"}, "dt": 0.05, "t_max": 20.0, "taper_width": 15.0, "lam": 4.0},
    "cosine": {"analytic": {"kind": "cosine", "freqs": [1.0]}, "dt": 0.05, "t_max": 20.0, "taper_width": 6.0, "lam": 4.0},
}


@pytest.mark.parametrize("name", CLI_CURVES)
def test_horner_density_is_within_its_rounding_bound_on_analytic_curves(name):
    spec = CLI_CURVES[name]
    assert_within_rounding_bound(_curve_for_spec(spec)(), _estimate_entries(spec))


def test_horner_density_is_within_its_rounding_bound_on_an_engine_curve():
    spec = {"schedule": {"kind": "asym49", "params": {}}, "dt": 0.05, "t_max": 4, "seed": 1}
    assert_within_rounding_bound(_curve_for_spec(spec)(), {"lam_max": 4.0, "grid_size": 401})


def polyval_density(curve, lam_max, grid_size, taper_width):
    """The density of :func:`bochner_density` with its polynomial
    evaluated by ``np.polyval``, the same taper, clip and mass rule."""
    n = len(curve.times) // 2
    c, w = curve.values, np.exp(-(curve.times[n:] ** 2) / (2.0 * taper_width**2))
    a = w * (c[n:] + np.conjugate(c[n::-1]))
    a[0] = w[0] * c[n]
    freqs = np.linspace(-lam_max, lam_max, grid_size)
    density = np.clip(curve.dt * np.real(np.polyval(a[::-1], np.exp(-2j * np.pi * curve.dt * freqs))), 0.0, None)
    mass, c0 = float(trapezoid(density, freqs)), float(np.real(c[n]))
    if mass > 0 and c0 > 0:
        density *= c0 / mass
    return density


@pytest.mark.parametrize("name", [*CLI_CURVES, "engine"])
def test_horner_in_place_keeps_the_bytes_of_polyval(name):
    """The in-place Horner loop does polyval's own operations, y = y * z
    + a_i from y = 0: the density's bytes are polyval's."""
    if name == "engine":
        spec, estimate = {"schedule": {"kind": "asym49", "params": {}}, "dt": 0.05, "t_max": 4, "seed": 1}, {"lam_max": 4.0, "grid_size": 401}
    else:
        spec = CLI_CURVES[name]
        estimate = _estimate_entries(spec)
    curve = _curve_for_spec(spec)()
    est = bochner_density(curve, **estimate)
    assert est.density.tobytes() == polyval_density(curve, estimate["lam_max"], len(est.freqs), est.taper_width).tobytes()


@pytest.mark.parametrize("times", [[0.0, 0.5, 1.0], [-0.5, 0.0, 0.5, 1.0], [-1.0, 0.1, 1.0]])
def test_transform_needs_times_symmetric_about_zero(times):
    curve = AutocorrCurve(dt=0.5, times=times, values=np.ones(len(times)), bounds=np.zeros(len(times)))
    with pytest.raises(ConfigurationError, match="symmetric about 0"):
        bochner_density(curve, lam_max=1.0, taper_width=0.5)


@pytest.mark.parametrize("offset", [0.1, 4 * np.spacing(0.5)], ids=["coarse", "4-ulps"])
def test_transform_needs_uniform_times(offset):
    half = np.array([0.0, 0.5 + offset, 1.0])
    times = np.concatenate([-half[:0:-1], half])
    curve = AutocorrCurve(dt=0.5, times=times, values=np.ones(5), bounds=np.zeros(5))
    with pytest.raises(ConfigurationError, match="uniform"):
        bochner_density(curve, lam_max=1.0, taper_width=0.5)


def test_transform_allocates_no_grid_by_times_array():
    """641 samples on a 1601-point grid: a complex grid x times array
    would take 16 MB; the Horner evaluation peaks below 1 MB."""
    curve = cosine_curve(dt=0.05, t_max=16.0)
    assert len(curve.times) == 641
    tracemalloc.start()
    try:
        bochner_density(curve, lam_max=4.0, grid_size=1601)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"peak {peak} bytes"


@pytest.mark.parametrize("count", [0, 2, 4])
def test_curve_from_samples_needs_an_odd_count(count):
    with pytest.raises(ConfigurationError, match=f"an odd number, got {count}"):
        curve_from_samples(0.5, list(range(1, count + 1)))
    assert len(curve_from_samples(0.5, list(range(count + 1))).times) == count + 1


@pytest.mark.parametrize("lengths", [(3, 4, 3), (3, 3, 4), (4, 3, 3)])
def test_curve_needs_one_value_and_bound_per_time(lengths):
    times, values, bounds = (np.arange(k) - 1.0 for k in lengths)
    with pytest.raises(ConfigurationError, match="as many values and bounds as times"):
        AutocorrCurve(dt=1.0, times=times, values=values, bounds=bounds)
