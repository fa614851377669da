"""Inverse-map series, Gram-block spectra and Laplacian-growth diagnostics."""

from .errors import (
    TodaSpectraError,
    NoConvergence,
    DegenerateSeries,
    NoDominantOrbit,
    TailNotConverged,
    GridTooLarge,
    WrongSheet,
    InsufficientData,
    TrajectoryStalled,
    UnivalenceLost,
    QuadratureNotConverged,
    MomentMismatch,
    Degenerate,
    LogBranchCut,
    NotBracketed,
)
from .series_engine import (
    Leaf,
    ParamPoint,
    CirclePowerTable,
    taylor_branch,
    branch_power_rows,
)
from .branch_points import (
    CharPoint,
    DominantData,
    solve_characteristic,
    amplitude_A,
    dominant_data,
    critical_parameter,
)
from .hessian_blocks import (
    RenormConfig,
    gram_block,
    eigenvalues,
    check_alpha_admissible,
)
from .spectral_scan import (
    BlockSpectrum,
    ScanPoint,
    FitReport,
    log_scale,
    spike_vector,
    scan_path,
    fit_log_scaling,
)
from .laplacian_growth import (
    TrajectoryState,
    ThresholdReport,
    MomentDriver,
    SliceDriver,
    harmonic_moments,
    univalence_margin,
    initial_state,
    radius_excess,
    detect_thresholds,
    approach_path,
)
from .explicit_leaves import (
    PoleLeafPoint,
    LogLeafPoint,
    LogCharData,
    PhaseCell,
    PhaseTable,
    pole_rho_char,
    log_rho_char,
    phase_diagram,
    gamma_c_solve,
)

__version__ = "0.1.0"
