"""Hydrodynamic (polar) formulation of the Dirac theory.

Spinor fields are handled through their polar variables: scalar density and
chiral angle, velocity and spin direction, plus a residual phase. The package
provides the Clifford algebra scaffolding, bilinear quadratics and their
algebraic interdependencies, the polar decomposition itself, field backgrounds
with derivative access, the full set of real bilinear balance equations, the
momentum/velocity guidance map in both directions, and trajectory integration,
all wired into a command line interface.
"""
from .algebra import (
    ETA,
    CliffordBasis,
    LorentzPair,
    boost_params,
    build_chiral_basis,
    lorentz_exp,
    rotation_params,
    verify_basis,
)
from .bilinears import (
    BilinearSet,
    check_fierz,
    check_spinor_constraints,
    compute_bilinears,
    random_regular_spinor,
)
from .errors import (
    ConfigError,
    DegenerateInversion,
    DegenerateX,
    DiracPolarError,
    ImmediateSingularity,
    OffShell,
    OutOfDomain,
    PhaseJump,
    SingularSpinor,
)
from .fieldconn import (
    Background,
    BoxWindow,
    ConstantVector,
    GriddedField,
    LinearVector,
    PlaneWaveField,
    derivative_jet,
    load_grid,
    plane_wave,
    polar_jet,
    save_grid,
    superpose,
    to_grid,
)
from .gordon import (
    compute_potentials,
    dirac_residual,
    equivalence_probe,
    residual_bilinear_gordon,
    residual_polar_groups,
)
from .guidance import (
    CompactForms,
    compact_forms,
    momentum_from_velocity,
    nonrel_limit_momentum,
    velocity_from_momentum,
)
from .polar import PolarData, kinematic_velocity, polar_decompose, polar_reconstruct
from .trajectories import Trajectory, batch_integrate, integrate, sup_divergence

__all__ = [
    "ETA",
    "Background",
    "BilinearSet",
    "BoxWindow",
    "CliffordBasis",
    "CompactForms",
    "ConfigError",
    "ConstantVector",
    "DegenerateInversion",
    "DegenerateX",
    "DiracPolarError",
    "GriddedField",
    "ImmediateSingularity",
    "LinearVector",
    "LorentzPair",
    "OffShell",
    "OutOfDomain",
    "PhaseJump",
    "PlaneWaveField",
    "PolarData",
    "SingularSpinor",
    "Trajectory",
    "batch_integrate",
    "boost_params",
    "build_chiral_basis",
    "check_fierz",
    "check_spinor_constraints",
    "compact_forms",
    "compute_bilinears",
    "compute_potentials",
    "derivative_jet",
    "dirac_residual",
    "equivalence_probe",
    "integrate",
    "kinematic_velocity",
    "load_grid",
    "lorentz_exp",
    "momentum_from_velocity",
    "nonrel_limit_momentum",
    "plane_wave",
    "polar_decompose",
    "polar_jet",
    "polar_reconstruct",
    "random_regular_spinor",
    "residual_bilinear_gordon",
    "residual_polar_groups",
    "rotation_params",
    "save_grid",
    "sup_divergence",
    "superpose",
    "to_grid",
    "verify_basis",
    "velocity_from_momentum",
]
