"""Rank-one measure-preserving flows from cutting-and-stacking schedules.

The package builds exact tower geometry for a schedule of cuts and
spacers, evaluates Koopman correlations <U(t) f, g> by an exact
stage-recursive overlap count, and provides weak-limit probes, joint
moment (m-point) correlations, diagonal coefficients of symmetric Fock
components and spectral density estimates on top of that engine.
"""

from .builders import (
    asym49_schedule,
    flat_schedule,
    named_schedule,
    staircase34_schedule,
    thm44_schedule,
)
from .correlate import (
    CorrelationResult,
    Correlator,
    FockComponent,
    MCorrelator,
    WeakLimitReport,
    WeakLimitTarget,
    correlate,
    inner_product,
    pick_stage,
    weak_limit_probe,
)
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    ModeError,
    Rank1Error,
    RangeError,
    ResourceError,
)
from .oracle import oracle_correlate, oracle_m_correlate
from .scalars import SQRT2, Sqrt2, coerce, scalar_from_string, scalar_to_string
from .schedule import (
    FinitenessVerdict,
    Schedule,
    TowerStage,
    finiteness_test,
    overlap_pairs,
    symmetrize,
)
from .serialize import load_schedule, schedule_from_json, schedule_to_json
from .spectral import (
    AutocorrCurve,
    SpectralEstimate,
    affinity,
    autocorr_curve,
    bochner_density,
    curve_from_samples,
    dilate,
)
from .stepfun import (
    StepFunction,
    indicator,
    level_partition,
    lift,
    product_integral,
    random_level_set,
    random_step_function,
    reflect,
)

__version__ = "0.1.0"
