"""Eigenvalue inclusion regions for damped second-order systems.

The library computes quasi Cassini ovals, Gershgorin / Brauer style disks
and double ovals, and real interval bounds for the quadratic eigenvalue
problem of a mass / damping / stiffness triple, certifies overdampedness,
and verifies every bound against the directly computed spectrum.
"""

from .errors import (
    CertificateMissing,
    CriticalModePresent,
    EpsilonTooLarge,
    InputError,
    NoConvergence,
    NonPositiveFrequency,
    NotPositiveDefinite,
    OvalBoundsError,
    ResolutionTooCoarse,
    SingularFit,
)
from .matdense import (
    RTOL,
    DampedSystem,
    Spectrum,
    SymMatrix,
    cholesky,
    gen_sym_def_eig,
    load_system,
    save_system,
    spectral_norm,
    sym_eig,
)
from .modal import (
    ModalForm,
    ModalSplit,
    ModeFoci,
    ProportionalFit,
    SpreadBounds,
    cluster_frequencies,
    is_modally_damped,
    modal_split,
    mode_foci,
    proportional_fit,
    spread_bounds,
    to_modal,
)
from .overdamped import (
    CertificateRefusal,
    DefinitenessInterval,
    EtaEnvelope,
    IntervalBounds,
    OverdampedCertificate,
    duffin_values,
    eigenvalue_intervals,
    eta_envelope,
    exact_definiteness_interval,
    min_damping_d,
    sufficient_certificate,
)
from .regions import (
    RIGOROUS_METHODS,
    Box,
    Component,
    ComponentAnalysis,
    Disk,
    DoubleOval,
    Method,
    QuasiOval,
    RegionUnion,
    boundary_polylines,
    build_regions,
    component_analysis,
)
from .verify import (
    InclusionReport,
    RegionComparison,
    check_inclusion,
    compare_regions,
    linearize,
    true_spectrum,
)

__version__ = "0.1.0"
