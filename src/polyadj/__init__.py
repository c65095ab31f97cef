"""Exact adjunction invariants of lattice polytopes.

Everything runs on Python Fractions; no floating point anywhere. The
central objects: the adjoint family A x <= b - c 1, its critical shift
c*, the Q-codegree 1/c*, the core (the adjoint at c*), the core normals
and their hull, normal fan singularity data (Gorenstein index, canonicity
threshold, smoothness), and the finite candidate set of Q-codegrees
attached to a core normal configuration.
"""

from .adjunction import (
    AdjunctionData,
    AnalysisReport,
    FanSummary,
    LemmaReport,
    adjoint,
    adjunction_data,
    analyze,
    core_config,
    critical_shift,
    qcodegree,
    raw_critical_shift,
    verify_lemmas,
)
from .errors import (
    DimensionMismatchError,
    EmptyPolytopeError,
    GridTooLargeError,
    InternalInconsistencyError,
    InvalidConeError,
    InvalidConfigError,
    LowerDimensionalError,
    NonUnimodularError,
    NotInConeError,
    NotLatticePolytopeError,
    ParseError,
    PolyadjError,
    UnboundedPolytopeError,
    ZeroVectorError,
)
from .fan import (
    CanonicityWitness,
    Cone,
    GorensteinCertificate,
    NormalFan,
    canonicity_threshold,
    cone,
    fan_canonicity_threshold,
    fan_gorenstein_index,
    gorenstein_index,
    height,
    is_smooth,
    is_smooth_cone,
    normal_fan,
)
from .generators import SplitMix64, cube, fig1, random_lattice_polytope, scaled_simplex
from .lp import is_feasible
from .polyfile import (
    PolytopeDocument,
    config_from_document,
    format_polytope,
    parse_document,
    polytope_from_document,
    read_polytope,
)
from .polytope import (
    AffineSubspace,
    EmbeddedPolytope,
    HPolytope,
    InequalitySystem,
    dilate,
    embed_system,
    from_inequalities,
    from_vertices,
    hull_any_dim,
    implicit_equalities,
    is_lattice_polytope,
    lattice_points,
    make_system,
    transform,
    vertices,
)
from .spectrum import (
    CoreNormalConfig,
    ReciprocalGrid,
    SpectrumSuperset,
    check_necessary_condition,
    codegree_step,
    make_config,
    spectrum_superset,
    validate_config,
)

__version__ = "0.1.0"
