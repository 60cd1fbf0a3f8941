"""floqchern: effective Hamiltonians, Chern diagrams and drive optimization
for polychromatically shaken hexagonal lattices."""

from .drive import (
    DriveSpec,
    Harmonic,
    LatticeGeometry,
    SpectrumTruncationError,
    TunnelingSpectrum,
    build_custom_drive,
    build_family_drive,
    build_geometry,
    chi,
    default_geometry,
    drive_from_json,
    drive_to_json,
    family_harmonic_integer,
    force_at,
    fourier_components,
    wrap_angle,
)
from .effective import EffectiveRates, derive_rates, w_commutator
from .bloch import (
    BandScan,
    BlochModel,
    ChernDiagram,
    ChernIndeterminateError,
    band_energies,
    band_scan,
    chern_number,
    driven_boundary_ratios,
    h_vector,
    haldane_boundary_ratios,
    min_gap,
    model_from_rates,
    phase_diagram,
)
from .optimizer import (
    OptimizationProblem,
    OptimizationResult,
    PhaseMap,
    SweepResult,
    evaluate_candidate,
    maximize,
    phase_map,
    random_search_best,
    sweep_targets,
    worker_count,
)
from .validate import (
    LadderResult,
    PropagatorSettings,
    QuasienergyReport,
    StepCountError,
    bloch_hamiltonian_t,
    compare_effective,
    floquet_chern,
    fold_quasienergy,
    omega_ladder,
    period_propagator,
    torus_grid,
)

__version__ = "0.1.0"
