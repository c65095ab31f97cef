"""Adjoint polytopes, Q-codegree, core data, and the machine checks that
tie them together.

For a full-dimensional lattice polytope P = {x : A x <= b} with primitive
rows, the adjoint at level c >= 0 is {x : A x <= b - c 1}. The critical
shift c* is the largest c keeping the adjoint nonempty, the Q-codegree is
1/c*, the core is the adjoint at c* (always of lower dimension), and the
core normals are the rows that are tight on the entire core. The hull of
the core normals and the normal fan's singularity data feed the finite
spectrum superset for the Q-codegree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import lp
from . import spectrum as spectrum_mod
from .errors import (
    EmptyPolytopeError,
    InternalInconsistencyError,
    NotLatticePolytopeError,
    UnboundedPolytopeError,
)
from .fan import (
    CanonicityWitness,
    NormalFan,
    fan_canonicity_threshold,
    fan_gorenstein_index,
    is_smooth,
    normal_fan,
)
from .polytope import (
    EmbeddedPolytope,
    HPolytope,
    InequalitySystem,
    _embedded,
    embed_system,
    hull_any_dim,
    is_lattice_polytope,
    lattice_points,
    make_system,
)
from .ratmath import IntVector, common_denominator, dot, rank
from .record import record


def adjoint(p: HPolytope, c) -> InequalitySystem:
    """The system A x <= b - c 1; rows keep their positions in p."""
    c = Fraction(c)
    if c < 0:
        raise ValueError("adjoint level must be nonnegative")
    return InequalitySystem(p.dim, p.normals, tuple(b - c for b in p.rhs))


def critical_shift(p: HPolytope) -> Fraction:
    """c* = max {c >= 0 : adjoint(p, c) is nonempty}; positive for full-dimensional p."""
    return _shift_lp(p).value


def raw_critical_shift(rows: Sequence[tuple[Sequence[int], object]]) -> Fraction:
    """Critical shift of a raw inequality description, exactly as given.

    Unlike critical_shift this performs no canonicalization, so redundant
    rows and non-primitive normals influence the answer: every row recedes
    at unit speed regardless of its scaling.
    """
    if not rows:
        raise UnboundedPolytopeError("no constraints given")
    return _shift_lp(make_system(rows)).value


def _shift_lp(system) -> lp.LpResult:
    """The optimal critical-shift LP of system, with one dual per row.

    system has dim, normals (int tuples) and rhs: an InequalitySystem, as
    raw_critical_shift builds, or an HPolytope, whose canonical rows are
    read as they are. Raises EmptyPolytopeError when the rows have no
    common solution and UnboundedPolytopeError when they do not bound the
    shift.
    """
    d = system.dim
    # maximize t >= 0 subject to A x + t 1 <= b
    res = lp.solve([a + (1,) for a in system.normals], system.rhs, [0] * d + [1], nonneg=(d,))
    if res.status == "infeasible":
        raise EmptyPolytopeError("the system has no solution at level 0")
    if res.status == "unbounded":
        raise UnboundedPolytopeError("rows do not bound the shift from above")
    return res


def qcodegree(p: HPolytope) -> Fraction:
    return 1 / critical_shift(p)


@record
class AdjunctionData:
    """Critical shift, core, and core normal data of one polytope.

    shift_duals are the critical-shift LP's dual multipliers y, one per
    facet row: y >= 0, sum y_i a_i = 0, sum y_i = 1 and y.b = c*, with y_i > 0
    only on core normal rows.
    """

    polytope: HPolytope
    critical_shift: Fraction
    qcodegree: Fraction
    core: EmbeddedPolytope
    core_normal_indices: tuple[int, ...]
    core_normals: tuple[IntVector, ...]
    acore: EmbeddedPolytope
    shift_duals: tuple[Fraction, ...]


def adjunction_data(p: HPolytope) -> AdjunctionData:
    """Critical shift, core and core normals of p, from one LP and its certificate.

    When the rows where the critical-shift LP's duals y are positive have
    rank d the core is one point, the LP's optimal one; otherwise one
    double description of the adjoint gives it (embed_system). One integer
    pass over the adjoint rows then decides the core rows: every row must
    hold at the vertex barycenter, and a row equal there must be tight at
    every core vertex; those rows are the core rows, and they must be
    embed_system's implicit rows when it ran. The vertices are read over
    the lcm of their denominators, the barycenter as their sum over that
    lcm times their number, and each b_i - c* over b_i's denominator times
    c*'s, so no Fraction is formed. Last, y is checked exactly: y >= 0, y A =
    0, sum y = 1, y.b = c*, and y vanishes off the core rows. The duals are
    a Farkas certificate that adjoint(p, c) is empty for every c > c*,
    since y.(b - c 1 - A x) = c* - c < 0 while every point x of adjoint(p,
    c) makes it nonnegative.
    """
    res = _shift_lp(p)
    c_star, y = res.value, res.duals
    if c_star <= 0:
        raise InternalInconsistencyError("critical shift of a full-dimensional polytope must be positive")
    implicit = None
    if rank([a for a, v in zip(p.normals, y) if v]) == p.dim:
        core = _embedded((res.point[:p.dim],))
    else:
        core, implicit = embed_system(adjoint(p, c_star))  # raises EmptyPolytopeError if the adjoint is empty
    if core.dim >= p.dim:
        raise InternalInconsistencyError("core must have lower dimension than the polytope")
    flat, scale = common_denominator([x for v in core.vertices for x in v])
    verts = [flat[k:k + p.dim] for k in range(0, len(flat), p.dim)]
    center = [sum(col) for col in zip(*verts)]
    cn, cd = c_star.numerator, c_star.denominator
    core_rows = []
    for i, (a, b) in enumerate(zip(p.normals, p.rhs)):
        # <a, v> = b - c* at a vertex v = verts[k] / scale, and the same at the
        # barycenter, with b - c* = num / den unreduced: den > 0, so both
        # tests read the same as over the reduced fraction
        num, den = b.numerator * cd - cn * b.denominator, b.denominator * cd
        at_vertex = num * scale
        value, bound = dot(a, center) * den, at_vertex * len(verts)
        if value > bound:
            raise InternalInconsistencyError(f"the core's barycenter violates adjoint row {i}")
        if value == bound:
            if len(verts) > 1 and any(dot(a, v) * den != at_vertex for v in verts):
                raise InternalInconsistencyError(f"adjoint row {i} is tight at the core's barycenter"
                                                 " but misses a core vertex")
            core_rows.append(i)
    core_rows = tuple(core_rows)
    if implicit is not None and implicit != core_rows:
        raise InternalInconsistencyError("the adjoint's implicit rows are not the rows tight on its core")
    _check_shift_duals(p, c_star, y, core_rows)
    normals = tuple(p.normals[i] for i in core_rows)
    acore = hull_any_dim([tuple(a) for a in normals])
    return AdjunctionData(p, c_star, 1 / c_star, core, core_rows, normals, acore, y)


def _check_shift_duals(p: HPolytope, c_star: Fraction, y: Sequence[Fraction],
                       core_rows: Sequence[int]) -> None:
    """Raise unless y certifies c* as in adjunction_data, supported on core_rows.

    Checked in integers: y_i = ys[i] / ys_scale and b_i = bs[i] / bs_scale,
    each over the lcm of its denominators.
    """
    ys, ys_scale = common_denominator(y)
    bs, bs_scale = common_denominator(p.rhs)
    if (len(y) != p.n_facets or any(v < 0 for v in ys) or sum(ys) != ys_scale
            or dot(ys, bs) * c_star.denominator != c_star.numerator * ys_scale * bs_scale
            or any(sum(v * a[j] for v, a in zip(ys, p.normals)) for j in range(p.dim))):
        raise InternalInconsistencyError("critical-shift duals do not certify an empty adjoint above c*")
    core_rows = set(core_rows)
    if any(v for i, v in enumerate(ys) if i not in core_rows):
        raise InternalInconsistencyError("critical-shift duals are supported off the core normals")


def core_config(data: AdjunctionData) -> spectrum_mod.CoreNormalConfig:
    """The core normal set as a spectrum configuration; raises
    InvalidConfigError when the positive spanning property fails.

    The property is read off data.acore, the hull of the core normals, as
    validate_config reads it off the hull of the rows, so no hull is built
    again.
    """
    cfg = spectrum_mod._checked_rows([tuple(a) for a in data.core_normals])
    spectrum_mod._require_positive_spanning(data.acore)
    return cfg


@record
class FanSummary:
    smooth: bool
    gorenstein_index: Optional[int]
    canonicity_threshold: Fraction
    threshold_witness: Optional[CanonicityWitness]


def fan_summary(fan: NormalFan) -> FanSummary:
    threshold, witness = fan_canonicity_threshold(fan)
    return FanSummary(is_smooth(fan), fan_gorenstein_index(fan), threshold, witness)


@record
class LemmaReport:
    """Results of the machine checks on one polytope.

    alpha is the canonicity level used for the scaled hull check: the
    caller's when supplied, otherwise the fan's own threshold. When the
    caller's alpha exceeds the threshold the scaled check asserts nothing
    and is skipped (None fields).
    """

    origin_in_relative_interior: bool
    core_normals_are_acore_vertices: bool
    alpha: Fraction
    alpha_is_canonical: bool
    scaled_interior_lattice_points: Optional[tuple[IntVector, ...]]
    scaled_check_holds: Optional[bool]
    shift_vector: tuple[Fraction, ...]
    shift_is_integral: bool

    @property
    def all_hold(self) -> bool:
        checks = [self.origin_in_relative_interior,
                  self.core_normals_are_acore_vertices,
                  self.shift_is_integral]
        if self.scaled_check_holds is not None:
            checks.append(self.scaled_check_holds)
        return all(checks)


def _canonical_alpha(alpha) -> Fraction:
    """alpha as a Fraction, or ValueError unless it lies in (0, 1]: the one
    check of a canonicity level, which analyze and the command line also
    make before any geometry."""
    level = Fraction(alpha)
    if not 0 < level <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    return level


def verify_lemmas(p: HPolytope, alpha=None, *, data: Optional[AdjunctionData] = None,
                  threshold: Optional[Fraction] = None) -> LemmaReport:
    """Check, on this one polytope, the structural facts the pipeline rests on.

    1. 0 lies in the relative interior of the hull of the core normals.
    2. Every core normal is a vertex of that hull.
    3. For a canonical level alpha, the relative interior of the alpha
       scaled hull contains no nonzero lattice point. Its points are
       those of the hull walked at shrink 1 / alpha (lattice_points).
    4. At a core point, row value plus critical shift is integral on every
       core normal row. adjunction_data has proven each core row tight on
       the whole core, <a_i, y> = b_i - c*, so that value is b_i.

    data and threshold, when given, are adjunction_data(p) and the
    canonicity threshold of p's normal fan; otherwise they are computed
    here, the threshold from normal_fan(p). alpha defaults to the
    threshold, and either must lie in (0, 1]: ValueError otherwise.
    """
    if not is_lattice_polytope(p):
        raise NotLatticePolytopeError("lemma checks require a lattice polytope")
    if data is None:
        data = adjunction_data(p)
    d = p.dim
    origin = (0,) * d
    origin_ok = data.acore.contains(origin, strict=True)
    vertices_ok = set(data.acore.vertices) == set(data.core_normals)  # an int equals and hashes as its Fraction

    if threshold is None:
        threshold, _ = fan_canonicity_threshold(normal_fan(p))
    alpha = _canonical_alpha(threshold if alpha is None else alpha)
    canonical = threshold >= alpha
    if canonical:
        inner = lattice_points(data.acore, region="relative_interior", shrink=1 / alpha)
        scaled_points: Optional[tuple] = inner
        scaled_ok: Optional[bool] = set(inner) == {origin}
    else:
        scaled_points = None
        scaled_ok = None

    shift_vector = tuple(data.polytope.rhs[i] for i in data.core_normal_indices)
    shift_ok = all(v.denominator == 1 for v in shift_vector)
    return LemmaReport(origin_ok, vertices_ok, alpha, canonical,
                       scaled_points, scaled_ok, shift_vector, shift_ok)


@record
class AnalysisReport:
    """Everything the analyzer computes for one lattice polytope."""

    data: AdjunctionData
    fan: NormalFan
    fan_info: FanSummary
    lemmas: LemmaReport
    spectrum: spectrum_mod.SpectrumSuperset
    qcodegree_in_superset: Optional[bool]


def analyze(p: HPolytope, alpha=None, epsilon=Fraction(1, 2)) -> AnalysisReport:
    """Full pipeline: critical shift, core data, fan invariants, lemma
    checks, and the spectrum superset of the core normal configuration.

    Raises InternalInconsistencyError when the computed critical shift is
    not a multiple of the configuration's step, since that would refute
    the necessary condition the superset is built on.
    """
    if not is_lattice_polytope(p):
        raise NotLatticePolytopeError("analysis requires a lattice polytope")
    # a bad level or cutoff is refused before any work, with the message
    # verify_lemmas or spectrum_superset would give after the whole scan
    if alpha is not None:
        _canonical_alpha(alpha)
    epsilon = spectrum_mod._positive_epsilon(epsilon)
    data = adjunction_data(p)
    fan = normal_fan(p)
    info = fan_summary(fan)
    lemmas = verify_lemmas(p, alpha, data=data, threshold=info.canonicity_threshold)
    cfg = core_config(data)
    superset = spectrum_mod.spectrum_superset(cfg, epsilon)
    step = superset.step
    if (data.critical_shift / step).denominator != 1:
        raise InternalInconsistencyError("critical shift is not on the configuration's grid")
    in_superset: Optional[bool]
    if data.qcodegree >= epsilon:
        in_superset = data.qcodegree in superset.values
        if not in_superset:
            raise InternalInconsistencyError("Q-codegree above epsilon missing from its superset")
    else:
        in_superset = None
    return AnalysisReport(data, fan, info, lemmas, superset, in_superset)
