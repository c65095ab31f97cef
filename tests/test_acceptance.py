"""Signoff battery: one test per release criterion, exact arithmetic only.

Every comparison is an equality between Fractions or integer tuples;
nothing here tolerates rounding. Each criterion prints a single summary
line, so

    pytest tests/test_acceptance.py -v -s

reads as a checklist. The random material reuses the session suite from
conftest (200 seeded instances across dimensions 2, 3, 4).
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

from oracles import (
    bisect_critical_shift,
    bland_simplex,
    brute_vertices,
    fm_project_feasible,
    lp_height,
    smallest_solvable_level,
)
import polyadj
from polyadj.adjunction import (
    adjunction_data,
    core_config,
    critical_shift,
    fan_summary,
    qcodegree,
    raw_critical_shift,
)
from polyadj.fan import fan_gorenstein_index, gorenstein_index, height, normal_fan
from polyadj.generators import SplitMix64, cube, fig1, random_lattice_polytope, scaled_simplex
from polyadj.polytope import dilate, from_inequalities, transform, vertices
from polyadj.ratmath import rank
from polyadj.spectrum import check_necessary_condition, codegree_step, spectrum_superset


def _criterion(name, fn):
    """Run one signoff check and print its one-line verdict."""
    try:
        fn()
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


TRIANGLE = (((-1, 0), 0), ((0, -1), 0), ((3, 1), 3))


def test_criterion_1_pentagon_end_to_end():
    def check():
        data = adjunction_data(fig1())
        assert data.critical_shift == Fraction(3, 2)
        assert data.qcodegree == Fraction(2, 3)
        assert set(data.core.vertices) == {(Fraction(3, 2), Fraction(3, 2)),
                                           (Fraction(7, 2), Fraction(3, 2))}
        assert set(data.core_normals) == {(0, -1), (0, 1)}
        assert data.core.subspace.equations == (((0, 1), Fraction(3, 2)),)

    _criterion("pentagon end to end", check)


def test_criterion_2_raw_shift_depends_on_row_presentation():
    def check():
        assert raw_critical_shift(TRIANGLE) == Fraction(3, 5)
        assert critical_shift(from_inequalities(TRIANGLE)) == Fraction(3, 5)
        padded = TRIANGLE + (((1, 0), 1),)
        assert critical_shift(from_inequalities(padded)) == Fraction(3, 5)
        assert raw_critical_shift(padded) == Fraction(1, 2)
        scaled = TRIANGLE[:2] + (((6, 2), 6),)
        assert critical_shift(from_inequalities(scaled)) == Fraction(3, 5)
        assert raw_critical_shift(scaled) == Fraction(2, 3)

    _criterion("canonical shift ignores redundant and rescaled rows", check)


def test_criterion_3_scaled_simplex_family():
    def check():
        for d in (2, 3, 4):
            for a in range(1, 7):
                p = scaled_simplex(d, a)
                assert qcodegree(p) == d - 1 + Fraction(2, a), (d, a)
                fan = normal_fan(p)
                idx = fan_gorenstein_index(fan)
                assert idx is not None, (d, a)
                combined = 1
                for c in fan.maximal_cones:
                    cert = gorenstein_index(c)
                    assert cert is not None, (d, a)
                    rays = [list(r) for r in c.rays]
                    assert all(sum(x * w for x, w in zip(r, cert.functional)) == cert.index
                               for r in c.rays)
                    # brute scan: no smaller level admits an integer functional
                    assert smallest_solvable_level(rays, cert.index) == cert.index, (d, a)
                    combined = lcm(combined, cert.index)
                assert combined == idx, (d, a)
                if a % 2 == 1:
                    assert idx == a, (d, a)
                else:
                    assert a % idx == 0, (d, a)

    _criterion("scaled simplices: codegree d-1+2/a, odd scale = fan index", check)


def test_criterion_4_cubes_and_unit_simplices():
    def check():
        for d in (2, 3, 4):
            info = fan_summary(normal_fan(cube(d)))
            assert qcodegree(cube(d)) == 2, d
            assert info.smooth, d
            assert info.gorenstein_index == 1, d
            assert info.canonicity_threshold == 1, d
            assert qcodegree(scaled_simplex(d, 1)) == d + 1, d

    _criterion("cubes: codegree 2, smooth, index 1; unit simplices: d+1", check)


def test_criterion_5_structural_lemmas_on_the_suite(suite_reports):
    def check():
        assert len(suite_reports) == 200
        failures = []
        for key, rep in suite_reports.items():
            lem = rep.lemmas
            parts = (lem.origin_in_relative_interior, lem.core_normals_are_acore_vertices,
                     lem.scaled_check_holds, lem.shift_is_integral, lem.all_hold)
            if not all(part is True for part in parts):
                failures.append(key)
        assert failures == []

    _criterion("lemma checks pass on all 200 random instances", check)


def test_criterion_6_codegree_lies_in_the_candidate_set(suite_reports):
    def check():
        for key, rep in suite_reports.items():
            cfg = core_config(rep.data)
            sup = spectrum_superset(cfg, rep.data.qcodegree)
            assert rep.data.qcodegree in sup.values, key
            assert (rep.data.critical_shift / sup.step).denominator == 1, key

        # the admissibility test must agree with the step grid, on and off it
        rng = SplitMix64(77)
        configs = [core_config(adjunction_data(fig1())),
                   core_config(adjunction_data(cube(3)))]
        keys = list(suite_reports)
        configs.append(core_config(suite_reports[keys[0]].data))
        configs.append(core_config(suite_reports[keys[100]].data))
        admissible_seen = rejected_seen = 0
        for cfg in configs:
            g = codegree_step(cfg)
            for _ in range(250):
                c = Fraction(rng.randint(1, 60), rng.randint(1, 10))
                on_grid = (c / g).denominator == 1
                ok, witness = check_necessary_condition(cfg, c)
                assert ok == on_grid, (cfg.normals, c)
                if ok:
                    admissible_seen += 1
                    assert witness is not None
                    for a in cfg.normals:
                        value = sum(x * y for x, y in zip(a, witness)) + c
                        assert value.denominator == 1, (cfg.normals, c)
                else:
                    rejected_seen += 1
                    assert witness is None
        assert admissible_seen > 50
        assert rejected_seen > 50

    _criterion("codegree sits in its candidate set; grid rule matches", check)


def test_criterion_7_independent_routes_agree(suite, suite_reports):
    def check():
        for key, p in suite:
            rep = suite_reports[key]
            step = codegree_step(core_config(rep.data))
            # neither route is polyadj's simplex, which computed c*; the
            # elimination takes minutes at d >= 3, the Fraction simplex seconds
            if p.dim == 2:
                def feasible(c, p=p):
                    return fm_project_feasible(p.normals, [b - c for b in p.rhs])
            else:
                def feasible(c, p=p):
                    return bland_simplex(p.normals, [b - c for b in p.rhs], (0,) * p.dim)[0] == "optimal"
            assert bisect_critical_shift(p.normals, p.rhs, step, feasible) \
                == rep.data.critical_shift, key
            assert set(vertices(p)) == brute_vertices(p.normals, p.rhs), key

        # height solves directly on simplicial cones and reads the dual height
        # vertices on the others; the LP route checks both
        checked = {True: 0, False: 0}
        for key, rep in suite_reports.items():
            for c in rep.fan.maximal_cones:
                ray_sum = tuple(sum(col) for col in zip(*c.rays))
                for pt in (ray_sum, tuple(2 * x for x in c.rays[0])):
                    assert height(c, pt) == lp_height(c.rays, pt), key
                    checked[rank(c.rays) == c.n_rays] += 1
        assert checked[True] >= 400 and checked[False] >= 400

    _criterion("bisection, brute vertices and LP heights all agree", check)


def _random_unimodular(rng, d, steps=6):
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i = rng.randint(0, d - 1)
        j = rng.randint(0, d - 2)
        if j >= i:
            j += 1
        c = rng.randint(-1, 1)
        for k in range(d):
            u[i][k] += c * u[j][k]
    return u


def test_criterion_8_invariance_and_dilation(named):
    def check():
        rng = SplitMix64(88)
        cases = dict(named)
        for d, n, box, seed in ((2, 7, 5, 1000), (2, 7, 5, 1001),
                                (3, 7, 3, 2000), (3, 7, 3, 2001),
                                (4, 6, 2, 4000), (4, 6, 2, 4001)):
            cases[f"d{d}-s{seed}"] = random_lattice_polytope(d, n, seed, box=box)
        for key, p in cases.items():
            data = adjunction_data(p)
            info = fan_summary(normal_fan(p))
            base = (data.qcodegree, data.core.dim, info.smooth,
                    info.gorenstein_index, info.canonicity_threshold)
            for _ in range(20):
                u = _random_unimodular(rng, p.dim)
                shift = tuple(rng.randint(-4, 4) for _ in range(p.dim))
                q = transform(p, u, shift)
                qdata = adjunction_data(q)
                qinfo = fan_summary(normal_fan(q))
                assert (qdata.qcodegree, qdata.core.dim, qinfo.smooth,
                        qinfo.gorenstein_index, qinfo.canonicity_threshold) == base, key
            for k in (2, 3):
                assert qcodegree(dilate(p, k)) == data.qcodegree / k, key

    _criterion("invariants survive unimodular maps; dilation divides the codegree", check)


D5_PROBE = """
import json
from polyadj.fan import fan_canonicity_threshold, normal_fan
from polyadj.generators import random_lattice_polytope
t, w = fan_canonicity_threshold(normal_fan(random_lattice_polytope(5, 10, 1, box=2)))
print(json.dumps([str(t), w.point, w.cone.rays]))
"""


def test_criterion_9_d5_canonicity_threshold_within_a_time_cap():
    # 10 maximal cones with up to 21 rays whose entries reach 200: a scan
    # of conv(0, rays) would visit on the order of 10^10 lattice points.
    # The fan is not Q-Gorenstein, so no index bounds the threshold from
    # below; only the witness has an independent check.
    def check():
        package_root = str(Path(polyadj.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", D5_PROBE], env={**os.environ, "PYTHONPATH": pythonpath},
                             capture_output=True, text=True, timeout=60, check=True)
        threshold, point, rays = json.loads(out.stdout)
        assert Fraction(threshold) == Fraction(422, 29651)
        assert tuple(point) == (0, 0, 0, 1, 0)
        assert lp_height(rays, point) == Fraction(422, 29651)

    _criterion("d=5 canonicity threshold within 60 s, witness height by LP", check)
