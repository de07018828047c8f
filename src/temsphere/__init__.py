"""Time-domain electromagnetic response of conducting, permeable spheres.

Forward modeling of eddy-current decay spectra and receiver voltages for
spherical targets, the early-time surface-current theory with its t^(-1/2)
voltage law, and inversion utilities for fitting and classifying measured
decay curves.

All external interfaces use SI units.  Internal spectral computations are
nondimensionalized by the target radius, the diffusion time a^2/D_c and the
illumination field scale.
"""

__version__ = "0.1.0"

from .core import (
    MU_0,
    EnvironmentSpec,
    MaterialSpec,
    RegimeCheck,
    ScaleSystem,
    TargetSpec,
    TimeMarkers,
    characteristic_times,
    diffusivity,
    scales_for,
    validate_regime,
)
from .modes import (
    Mode,
    ModeColumns,
    ModeLibrary,
    build_mode_library,
    eigencondition,
    find_decay_rates,
    radial_fd_decay_rates,
)
from .excitation import (
    ExcitationCoefficients,
    Loop,
    PulseWaveform,
    TimeSeries,
    UniformField,
    compute_excitation,
    coupling_table,
    pulse_history_integral,
    synthesize_voltage,
    truncation_bound,
)
from .earlytime import (
    EarlySignal,
    PotentialExpansion,
    SurfaceCurrentSpectrum,
    SurfaceScalarSpectrum,
    early_voltage,
    exterior_potential_correction,
    external_fields,
    illumination_coefficients,
    interior_electric_field,
    interior_vector_potential_correction,
    normal_field_change,
    run_early_pipeline,
    solve_exterior_neumann,
    static_sphere_response,
    surface_current,
)
from .composite import RegimeReport, compose_response, regime_boundaries
from .inversion import (
    DecayModel,
    FitResult,
    classify_library,
    fit_exponentials,
    fit_power_law,
)

__all__ = [name for name in dir() if not name.startswith("_")]
