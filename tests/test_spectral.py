import math

import numpy as np
import pytest

from rank1flow import (
    affinity,
    aggregate,
    asym49_schedule,
    autocorr_curve,
    bochner_density,
    curve_from_samples,
    dilate,
    flat_schedule,
    indicator,
)
from rank1flow.errors import ConfigurationError, DegenerateInputError
from rank1flow.experiments import _curve_for_spec, seeded_family


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
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz  # numpy < 2 lacks trapezoid
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


def test_aggregate_weighted_sum():
    est = bochner_density(cosine_curve(), lam_max=4.0, grid_size=801)
    agg = aggregate([est, est], [0.25, 0.5])
    assert np.allclose(agg.density, 0.75 * est.density)


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
    exact = _curve_for_spec(sched, spec)
    as_text = _curve_for_spec(sched, {**spec, "dt": "0.05"})
    f = seeded_family(sched, spec, pair=False)[0]
    floats = autocorr_curve(sched, f, 0.05, 4)
    assert np.array_equal(exact.values, as_text.values)
    assert exact.dt == floats.dt == 0.05
    assert len(exact.values) == len(floats.values) == 161
    assert np.max(np.abs(exact.values - floats.values)) <= 1e-12
    assert np.max(np.abs(exact.times - floats.times)) <= 1e-12
