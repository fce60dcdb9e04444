"""Periodic-point diagnostics for complex Henon maps.

Enumerates and certifies periodic orbits, builds the normalized
empirical measures they carry, averages saddle multipliers into
Lyapunov estimates, and scans parameter disks for harmonicity defects
correlated with sink creation.
"""

from .maps import EscapeOverflow, HenonMap, Point, quadratic_map
from .orbits import (
    AmbiguousOrbitError,
    DEFAULT_RNG_SEED,
    PeriodSpectrum,
    PeriodicOrbit,
    canonical_rotation,
    certify,
    classify,
    cyclic_jacobian,
    cyclic_residual,
    enumerate_fix,
    rotation_distance,
    spectrum_from_file,
    spectrum_to_json,
)
from .measures import EmpiricalMeasure, discrepancy, empirical_measure, moments
from .exponents import LyapunovEstimate, UnstableDirection, lambda_estimate, psi, unstable_direction
from .verify import green_minus_hp, green_plus_hp, orbit_greens_hp, refine_orbit_hp
from .scan import (
    FamilySpec,
    ScanField,
    harmonic_fit_field,
    harmonic_validation_field,
    laplacian_defect,
    lyapunov_noise_floor,
    max_interior_defect,
    scan,
    scan_to_csv,
    stencil_defect,
    stencil_noise_floor,
)

__all__ = [
    "AmbiguousOrbitError",
    "DEFAULT_RNG_SEED",
    "EmpiricalMeasure",
    "EscapeOverflow",
    "FamilySpec",
    "HenonMap",
    "LyapunovEstimate",
    "PeriodSpectrum",
    "PeriodicOrbit",
    "Point",
    "ScanField",
    "UnstableDirection",
    "canonical_rotation",
    "certify",
    "classify",
    "cyclic_jacobian",
    "cyclic_residual",
    "discrepancy",
    "empirical_measure",
    "enumerate_fix",
    "green_minus_hp",
    "green_plus_hp",
    "harmonic_fit_field",
    "harmonic_validation_field",
    "lambda_estimate",
    "laplacian_defect",
    "lyapunov_noise_floor",
    "max_interior_defect",
    "moments",
    "orbit_greens_hp",
    "psi",
    "refine_orbit_hp",
    "quadratic_map",
    "rotation_distance",
    "scan",
    "scan_to_csv",
    "spectrum_from_file",
    "spectrum_to_json",
    "stencil_defect",
    "stencil_noise_floor",
    "unstable_direction",
]

__version__ = "0.9.0"
