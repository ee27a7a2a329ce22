"""Desk-scale lab for available-bandwidth estimation from multi-rate probe trains.

Simulates a single-bottleneck FIFO path under fractional-Brownian-motion
cross-traffic, pushes multi-rate probe sequences through it, estimates the
available bandwidth per sequence with a sequential-scalar Kalman filter, and
provides analytic and empirical error models for the estimator.
"""

from .fbm import FbmParams, FbmTrace, generate_trace
from .path import HopWorkload, PathModel, TransitResult, fluid_strain_oracle, transit_sequence
from .probing import (
    ProbeSchedule,
    SequenceConfig,
    StrainMeasurement,
    build_schedule,
    draw_portion_rates,
    pair_strains,
    reduce_measurement,
)
from .kalman import (
    EstimateRecord,
    FilterConfig,
    FilterState,
    initial_state,
    predict,
    process_sequence,
    update_sequential,
    update_vector,
)
from .analysis import (
    AnalyticParams,
    EmpiricalCoeffs,
    analytic_xi,
    empirical_xi,
    empirical_xi_slope,
    fit_coeffs,
    lookup_coeffs,
    normalized_mse,
    required_m,
    rp_theoretical,
)
from .experiment import ExperimentReport, RunConfig, run

__version__ = "0.1.0"
