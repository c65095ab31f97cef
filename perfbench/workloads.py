"""Workload definitions: inputs from a seed, the timed operation, and the
canonical form and independent checks of each operation's output.

Three workloads, each a list of instances described by input text:

- suite:   H documents of the 200 seeded instances of ``SUITE_SPECS``; one
           op is ``read_polytope`` then ``analyze`` with the defaults.
- adjoint: H documents of hulls of 12 lattice points in [-4, 4]^3; one op
           is ``read_polytope``, ``adjunction_data``, ``core_config`` and
           ``spectrum_superset`` (the ``spectrum --from-polytope`` path).
- hull:    V documents of 22 lattice points in [-6, 6]^3; one op is
           ``read_polytope`` then ``lattice_points`` of the result.

The workload seed s shifts every instance seed by s mod SEED_POOL, so seed 0
reproduces ``SUITE_SPECS`` (tests/conftest.py) exactly and other seeds give
inputs that seed 0 does not reach. A seed's list is the whole set of ops a
timed run makes (run.py), so the ops a run times depend on the seed alone. gen.py calls ``generate_text`` in a
process of its own, so the timed process starts with nothing cached.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

WORKLOADS = ("suite", "adjoint", "hull")

# (dim, points, box, first seed, count), as in tests/conftest.py.
SUITE_SPECS = (
    (2, 7, 5, 1000, 100),
    (3, 7, 3, 2000, 70),
    (4, 6, 2, 4000, 30),
)
# (dim, points, box, first seed, count); the counts fill about run_seconds
ADJOINT_SPEC = (3, 12, 4, 5000, 60)
HULL_SPEC = (3, 22, 6, 6000, 28)
# Seeds s and s + SEED_POOL give the same inputs; every input the seeds reach
# has its output pinned in data/pinned.json. With shifts below 20 every suite
# list holds d4-s4029 (10 s, the canonicity-scan tail of the reference suite)
# and none of d4-s4061, d4-s4068, d4-s4108 (12, 12 and 49 s): a run holding
# some of these and another holding none would differ by up to 2.5x in
# ops_per_s, and a run holding d4-s4108 would last two minutes.
SEED_POOL = 20
EPSILON = Fraction(1, 2)


def instance_keys(workload: str, seed: int) -> list[str]:
    """Instance keys of a workload in op order.

    The suite interleaves its dimensions in proportion to their counts
    (10 : 7 : 3 per 20 ops), so any prefix has the suite's mix.
    """
    seed %= SEED_POOL
    if workload == "suite":
        lists = [[f"d{d}-s{seed0 + seed + i}" for i in range(count)]
                 for d, _, _, seed0, count in SUITE_SPECS]
        total = sum(len(keys) for keys in lists)
        taken = [0] * len(lists)
        order = []
        for k in range(1, total + 1):
            # the list furthest behind its share k * len / total goes next
            j = max(range(len(lists)), key=lambda j: (len(lists[j]) * k - total * taken[j], -j))
            order.append(lists[j][taken[j]])
            taken[j] += 1
        return order
    if workload == "adjoint":
        _, _, _, seed0, count = ADJOINT_SPEC
        return [f"a-s{seed0 + seed + i}" for i in range(count)]
    if workload == "hull":
        _, _, _, seed0, count = HULL_SPEC
        return [f"h-s{seed0 + seed + i}" for i in range(count)]
    raise ValueError(f"unknown workload {workload!r}")


def hull_points(instance_seed: int) -> list[tuple[int, ...]]:
    from polyadj.generators import SplitMix64

    d, n, box, _, _ = HULL_SPEC
    rng = SplitMix64(instance_seed)
    return [tuple(rng.randint(-box, box) for _ in range(d)) for _ in range(n)]


def generate_text(key: str) -> str:
    """Input document of one instance."""
    from polyadj.generators import random_lattice_polytope
    from polyadj.polyfile import format_polytope

    if key.startswith("d"):
        d = int(key[1:key.index("-")])
        seed = int(key[key.index("-s") + 2:])
        _, n, box, _, _ = next(spec for spec in SUITE_SPECS if spec[0] == d)
        return format_polytope(random_lattice_polytope(d, n, seed, box=box), comments=[key])
    seed = int(key[3:])
    if key.startswith("a-"):
        d, n, box, _, _ = ADJOINT_SPEC
        return format_polytope(random_lattice_polytope(d, n, seed, box=box), comments=[key])
    if key.startswith("h-"):
        pts = hull_points(seed)
        lines = [f"# {key}", f"dim {len(pts[0])}", "V"]
        lines += [" ".join(str(x) for x in pt) for pt in pts]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown instance key {key!r}")


# ---------------------------------------------------------------------------
# the timed operations


def op_suite(text: str):
    from polyadj import analyze, read_polytope

    return analyze(read_polytope(text))


def op_adjoint(text: str):
    from polyadj import adjunction_data, core_config, read_polytope, spectrum_superset

    data = adjunction_data(read_polytope(text))
    return data, spectrum_superset(core_config(data), EPSILON)


def op_hull(text: str):
    from polyadj import lattice_points, read_polytope

    p = read_polytope(text)
    return p, lattice_points(p)


OPS = {"suite": op_suite, "adjoint": op_adjoint, "hull": op_hull}


# ---------------------------------------------------------------------------
# canonical outputs and independent checks (outside the timed region)


def _fr(x) -> str:
    return str(Fraction(x))


def _pts(points) -> list:
    return [[_fr(c) for c in pt] for pt in points]


def canonical(workload: str, result) -> dict:
    """Every exact value an op returns, with its ordering, as JSON data."""
    if workload == "suite":
        r = result
        w = r.fan_info.threshold_witness
        lem = r.lemmas
        return {
            "c_star": _fr(r.data.critical_shift),
            "qcd": _fr(r.data.qcodegree),
            "core": {"dim": r.data.core.dim, "vertices": _pts(r.data.core.vertices),
                     "equations": [[list(a), _fr(b)] for a, b in r.data.core.subspace.equations]},
            "core_normal_indices": list(r.data.core_normal_indices),
            "core_normals": [list(a) for a in r.data.core_normals],
            "acore": {"dim": r.data.acore.dim, "vertices": _pts(r.data.acore.vertices)},
            "fan": {"vertices": _pts(r.fan.vertex_points),
                    "smooth": r.fan_info.smooth,
                    "gorenstein_index": r.fan_info.gorenstein_index,
                    "threshold": _fr(r.fan_info.canonicity_threshold),
                    "witness": None if w is None else {
                        "rays": [list(x) for x in w.cone.rays],
                        "point": list(w.point), "height": _fr(w.height)}},
            "lemmas": {"origin": lem.origin_in_relative_interior,
                       "acore_vertices": lem.core_normals_are_acore_vertices,
                       "alpha": _fr(lem.alpha), "canonical": lem.alpha_is_canonical,
                       "scaled_points": None if lem.scaled_interior_lattice_points is None
                       else _pts(lem.scaled_interior_lattice_points),
                       "scaled_ok": lem.scaled_check_holds,
                       "shift_vector": [_fr(v) for v in lem.shift_vector],
                       "shift_ok": lem.shift_is_integral},
            "spectrum": {"step": _fr(r.spectrum.step), "epsilon": _fr(r.spectrum.epsilon),
                         "values": [_fr(v) for v in r.spectrum.values],
                         "in_superset": r.qcodegree_in_superset},
        }
    if workload == "adjoint":
        data, sup = result
        return {"c_star": _fr(data.critical_shift),
                "core_normal_indices": list(data.core_normal_indices),
                "step": _fr(sup.step), "epsilon": _fr(sup.epsilon),
                "values": [_fr(v) for v in sup.values]}
    if workload == "hull":
        p, points = result
        return {"normals": [list(a) for a in p.normals], "rhs": [_fr(b) for b in p.rhs],
                "n_points": len(points), "points": [list(x) for x in points]}
    raise ValueError(f"unknown workload {workload!r}")


def digest(canon: dict) -> str:
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def headline(workload: str, canon: dict) -> dict:
    """A few readable values stored beside each pinned digest."""
    if workload == "suite":
        return {"qcd": canon["qcd"], "threshold": canon["fan"]["threshold"]}
    if workload == "adjoint":
        return {"c_star": canon["c_star"], "step": canon["step"]}
    return {"n_facets": len(canon["normals"]), "n_points": canon["n_points"]}


def independent_check(workload: str, text: str, result) -> str | None:
    """Cheap checks that do not call the code under test; None when all hold."""
    if workload == "suite":
        r = result
        if r.data.qcodegree != 1 / r.data.critical_shift:
            return "qcd != 1/c_star"
        if not r.lemmas.all_hold:
            return "a lemma check failed"
        return None
    if workload == "adjoint":
        data, sup = result
        c_star, step = data.critical_shift, sup.step
        if step <= 0 or (c_star / step).denominator != 1:
            return "c_star is not a multiple of the step"
        expected = []
        for k in itertools.count(1):
            v = 1 / (k * step)
            if v < sup.epsilon:
                break
            expected.append(v)
        if list(sup.values) != expected:
            return "superset is not {1/(k step) >= epsilon}"
        if 1 / c_star >= sup.epsilon and 1 / c_star not in sup.values:
            return "Q-codegree missing from its superset"
        return None
    if workload == "hull":
        p, points = result
        cloud = [tuple(int(x) for x in line.split())
                 for line in text.splitlines()[3:] if line.strip()]
        d = len(cloud[0])
        rows = list(zip(p.normals, p.rhs))
        for a, b in rows:
            values = [sum(ai * xi for ai, xi in zip(a, pt)) for pt in cloud]
            if max(values) != b:
                return "a facet is violated or not tight"
            if values.count(b) < d:
                return "a facet is tight at fewer than d input points"
        lo = min(min(pt) for pt in cloud)
        hi = max(max(pt) for pt in cloud)
        brute = [x for x in itertools.product(range(lo, hi + 1), repeat=d)
                 if all(sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in rows)]
        if list(points) != brute:
            return "lattice points differ from a brute-force scan of the facets"
        return None
    raise ValueError(f"unknown workload {workload!r}")
