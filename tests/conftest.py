"""Shared fixtures: the seeded 200-instance random suite and named cases.

The suite spans dimensions 2, 3 and 4 with fixed seeds so every run sees
the same polytopes. Full analysis reports are computed once per session
and shared by the tests that need them.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import mul

import pytest

from polyadj import analyze, lp, polytope
from polyadj.generators import cube, fig1, random_lattice_polytope, scaled_simplex

# (dim, points, box, first seed, count); 100 + 70 + 30 = 200 instances.
SUITE_SPECS = (
    (2, 7, 5, 1000, 100),
    (3, 7, 3, 2000, 70),
    (4, 6, 2, 4000, 30),
)


def suite_params():
    out = []
    for d, n, box, seed0, count in SUITE_SPECS:
        out.extend((d, n, box, seed0 + i) for i in range(count))
    return out


@pytest.fixture(scope="session")
def suite():
    """All 200 random lattice polytopes, keyed by dimension and seed."""
    return tuple((f"d{d}-s{seed}", random_lattice_polytope(d, n, seed, box=box))
                 for d, n, box, seed in suite_params())


@pytest.fixture(scope="session")
def suite_reports(suite):
    """Full analysis of every suite instance, computed once per session."""
    return {key: analyze(p) for key, p in suite}


@pytest.fixture(scope="session")
def named():
    out = {"fig1": fig1()}
    for d in (2, 3, 4):
        out[f"cube{d}"] = cube(d)
        out[f"simplex{d}"] = scaled_simplex(d, 1)
    out["simplex2x3"] = scaled_simplex(2, 3)
    return out


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls((module, name), ...) counts calls of polyadj functions.

    Each function is replaced, at its home module and at every `from ...
    import` copy in polyadj's modules, by a wrapper that counts its calls,
    as the benchmark's tracer wraps them. Returns the counts by name, which
    grow from then on until the test ends.
    """
    def install(*targets):
        counts = {}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "polyadj" or key.startswith("polyadj."))]
        for home, name in targets:
            original = getattr(home, name)
            counts[name] = 0

            def counting(*args, name=name, original=original, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        monkeypatch.setattr(m, attr, counting)
        return counts

    return install


@pytest.fixture
def count_fractions():
    """count_fractions(run) calls run() and returns how many times it called Fraction.__new__.

    Python 3.12 made Fraction arithmetic build its results without
    Fraction.__new__, so fewer calls are counted there than on 3.11.
    """
    def count(run):
        new = Fraction.__new__
        calls = 0

        def counting(cls, *args, **kwargs):
            nonlocal calls
            calls += 1
            return new(cls, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counting))
            run()
        return calls

    return count


@pytest.fixture
def count_fraction_compares():
    """count_fraction_compares(run) calls run() and returns the Fraction comparisons it made, by operator.

    Fraction's ==, <, <=, > and >= are wrapped for the call, as
    count_fractions wraps Fraction.__new__. A comparison Python reflects
    onto a Fraction operand (an int < a Fraction) counts as the reflected
    operator, and != counts as ==. Returns {"==": n, "<": n, "<=": n, ">":
    n, ">=": n}.
    """
    operators = {"__eq__": "==", "__lt__": "<", "__le__": "<=", "__gt__": ">", "__ge__": ">="}

    def count(run):
        counts = dict.fromkeys(operators.values(), 0)
        with pytest.MonkeyPatch.context() as patch:
            for name, op in operators.items():
                original = getattr(Fraction, name)

                def counting(a, b, op=op, original=original):
                    counts[op] += 1
                    return original(a, b)

                patch.setattr(Fraction, name, counting)
            run()
        return counts

    return count


@pytest.fixture
def count_kernel_work():
    """count_kernel_work(run) calls run() and returns the work of the double description's steps in it.

    polytope._add_row, the pair step of every double description and cut,
    is wrapped for the call; a pivot step (polytope._lift) pairs nothing.
    A pair step pairs each ray on the row's positive side with each on its
    negative side, and combines the pairs that are adjacent. Returns
    {"pairs": pairs visited, "created": rays made by combining}, both
    summed over the steps.
    """
    def count(run):
        step = polytope._add_row
        work = {"pairs": 0, "created": 0}

        def counting(rays, lineality, row, bit):
            out = step(rays, lineality, row, bit)
            values = [sum(map(mul, row, z)) for z, _ in rays]
            negative = sum(v < 0 for v in values)
            work["pairs"] += sum(v > 0 for v in values) * negative
            work["created"] += len(out[0]) - (len(rays) - negative)
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polytope, "_add_row", counting)
            run()
        return work

    return count


@pytest.fixture
def count_pivot_rows():
    """count_pivot_rows(run) calls run() and returns the rows the simplex pivots in it rewrite.

    lp._pivot, the step of every simplex pivot of both phases, is wrapped
    for the call. A pivot on (r, c) rewrites each stored row other than row
    r with a nonzero entry in column c; a row stored as None is not
    rewritten. Returns {"pivots": pivots, "rows": rows rewritten, "most":
    the most rows one pivot rewrote}.
    """
    def count(run):
        step = lp._pivot
        work = {"pivots": 0, "rows": 0, "most": 0}

        def counting(rows, basis, r, c):
            rewritten = sum(1 for i, row in enumerate(rows) if i != r and row is not None and row[c])
            work["pivots"] += 1
            work["rows"] += rewritten
            work["most"] = max(work["most"], rewritten)
            return step(rows, basis, r, c)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp, "_pivot", counting)
            run()
        return work

    return count
