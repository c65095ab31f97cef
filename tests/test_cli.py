"""Command line behaviour: reports, pipelines, census output, exit codes.

Most tests call main() in process and capture stdout. A couple run the
package as a module (``python -m polyadj``) in a child interpreter, so exit
codes and output streams are checked across a real process boundary; a
separate check pins the ``polyadj`` console-script entry point.
"""

import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polyadj
from polyadj.adjunction import adjunction_data
from polyadj import cli
from polyadj.cli import CENSUS_COLUMNS, main
from polyadj.generators import SplitMix64, fig1, random_lattice_polytope, scaled_simplex
from polyadj.polyfile import format_polytope
from polyadj.polytope import from_inequalities

TRIANGLE_WITH_SLACK = """\
dim 2
H
-1 0 0
0 -1 0
3 1 3
1 0 1
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_report(capsys, tmp_path):
    path = tmp_path / "fig1.poly"
    assert main(["gen", "fig1", "--out", str(path)]) == 0
    code, out, _ = run(capsys, ["analyze", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["c_star"] == "3/2"
    assert doc["qcd"] == "2/3"
    assert doc["core"]["vertices"] == [["3/2", "3/2"], ["7/2", "3/2"]]
    assert doc["core"]["affine_hull"] == [{"normal": [0, 1], "value": "3/2"}]
    assert doc["core_normals"] == [[0, -1], [0, 1]]
    assert doc["fan"] == {"smooth": True, "gorenstein_index": 1,
                          "canonicity_threshold": "1", "threshold_witness": None}
    assert doc["lemmas"]["all_hold"] is True
    assert doc["lemmas"]["shift_vector"] == ["0", "3"]
    assert doc["spectrum"]["values"] == ["2", "1", "2/3", "1/2"]
    assert doc["spectrum"]["qcd_in_superset"] is True
    assert "raw_c_star" not in doc


def test_analyze_text_report_uses_the_same_rational_strings(capsys, tmp_path):
    path = tmp_path / "fig1.poly"
    main(["gen", "fig1", "--out", str(path)])
    code, out, _ = run(capsys, ["analyze", str(path), "--format", "text"])
    assert code == 0
    assert "c_star: 3/2" in out
    assert "qcd: 2/3" in out
    assert "core affine hull: (0, 1) . x = 3/2" in out
    assert "gorenstein_index=1" in out
    assert "spectrum values (>= 1/2): 2 1 2/3 1/2" in out
    assert "qcd in superset: true" in out


def test_the_suite_reports_are_pinned(suite_reports):
    # sha256, over the 200 suite instances in suite order, of the JSON
    # report document, of its text rendering and of repr(analyze(p)): any
    # change to a reported value, witness or ordering moves one of them
    json_digest, text_digest, repr_digest = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for report in suite_reports.values():
        doc = cli._report_document(report, None)
        json_digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
        text_digest.update(cli._render_text(doc).encode())
        repr_digest.update((repr(report) + "\n").encode())
    assert [json_digest.hexdigest(), text_digest.hexdigest(), repr_digest.hexdigest()] == [
        "0191d6dc54329123f4fa72efd8bab24cf521bff51c0372024b4b2c117e6c0a94",
        "291c5a9e8d0fa1a1c28d744c9743683de78bfb681d66d22c1cca322b0c0008e9",
        "492df047c8a618ec0962cccb3708d3dc6ad24df40897e0bc58ec38638ceb0370",
    ]


def test_analyze_raw_reports_the_uncanonicalized_shift(capsys, tmp_path):
    path = tmp_path / "triangle.poly"
    path.write_text(TRIANGLE_WITH_SLACK)
    code, out, _ = run(capsys, ["analyze", str(path), "--raw"])
    assert code == 0
    doc = json.loads(out)
    assert doc["c_star"] == "3/5"
    assert doc["raw_c_star"] == "1/2"


def test_analyze_reads_stdin(capsys, monkeypatch, tmp_path):
    path = tmp_path / "fig1.poly"
    main(["gen", "fig1", "--out", str(path)])
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    code, out, _ = run(capsys, ["analyze", "-"])
    assert code == 0
    assert json.loads(out)["qcd"] == "2/3"


def test_gen_is_deterministic_and_labels_the_draw(capsys):
    code, first, _ = run(capsys, ["gen", "random", "2", "7", "5"])
    assert code == 0
    _, second, _ = run(capsys, ["gen", "random", "2", "7", "5"])
    assert first == second
    assert "# polyadj gen random 2 7 5" in first
    assert "# prng splitmix64 seed=5 points=7 box=5" in first
    _, other, _ = run(capsys, ["gen", "random", "2", "7", "6"])
    assert other != second


def test_gen_labels_each_family_with_its_command(capsys):
    for argv in (["fig1"], ["cube", "3"], ["simplex-scaled", "3", "2"]):
        code, out, _ = run(capsys, ["gen", *argv])
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("#")] == ["# polyadj gen " + " ".join(argv)]


def test_gen_help_lists_the_families_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--help"])
    assert exc.value.code == 0
    assert "{fig1,cube,simplex-scaled,random}" in capsys.readouterr().out


def test_gen_analyze_pipeline(capsys, tmp_path):
    path = tmp_path / "cube.poly"
    assert main(["gen", "cube", "3", "--out", str(path)]) == 0
    code, out, _ = run(capsys, ["analyze", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["qcd"] == "2"
    assert doc["fan"]["smooth"] is True


def test_gen_rejects_wrong_parameter_counts(capsys):
    code, _, err = run(capsys, ["gen", "fig1", "3"])
    assert code == 3
    assert "invalid input" in err
    assert run(capsys, ["gen", "cube"])[0] == 3
    assert run(capsys, ["gen", "random", "2", "7"])[0] == 3


def test_spectrum_of_a_configuration_file(capsys, tmp_path):
    path = tmp_path / "pair.cfg"
    path.write_text("dim 2\nA\n0 -1\n0 1\n")
    code, out, _ = run(capsys, ["spectrum", str(path), "--epsilon", "1/3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["step"] == "1/2"
    assert doc["values"] == ["2", "1", "2/3", "1/2", "2/5", "1/3"]
    assert "check" not in doc

    code, out, _ = run(capsys, ["spectrum", str(path), "--check", "3/2"])
    assert code == 0
    check = json.loads(out)["check"]
    assert check["c"] == "3/2"
    assert check["admissible"] is True
    y = [Fraction(x) for x in check["witness"]]
    for a in ((0, -1), (0, 1)):
        value = sum(c * x for c, x in zip(a, y)) + Fraction(3, 2)
        assert value.denominator == 1

    code, out, _ = run(capsys, ["spectrum", str(path), "--check", "1/5"])
    assert json.loads(out)["check"] == {"c": "1/5", "admissible": False, "witness": None}


def test_spectrum_from_polytope(capsys, tmp_path):
    path = tmp_path / "fig1.poly"
    main(["gen", "fig1", "--out", str(path)])
    code, out, _ = run(capsys, ["spectrum", "--from-polytope", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["normals"] == [[0, -1], [0, 1]]
    assert doc["values"] == ["2", "1", "2/3", "1/2"]

    cfg = tmp_path / "pair.cfg"
    cfg.write_text("dim 2\nA\n0 -1\n0 1\n")
    assert run(capsys, ["spectrum", str(cfg), "--from-polytope", str(path)])[0] == 3
    assert run(capsys, ["spectrum"])[0] == 3


@pytest.mark.parametrize("epsilon", ["0", "-1/2"])
def test_spectrum_refuses_a_bad_epsilon_before_any_work(capsys, monkeypatch, tmp_path, epsilon):
    # as analyze does: the cutoff is refused before the polytope's
    # adjunction data and core configuration are computed
    def fail(*args, **kw):
        raise AssertionError("geometry ran on a refused epsilon")

    monkeypatch.setattr(cli, "adjunction_data", fail)
    monkeypatch.setattr(cli, "core_config", fail)
    path = tmp_path / "fig1.poly"
    main(["gen", "fig1", "--out", str(path)])
    cfg = tmp_path / "pair.cfg"
    cfg.write_text("dim 2\nA\n0 -1\n0 1\n")
    for argv in (["--from-polytope", str(path)], [str(cfg)]):
        code, out, err = run(capsys, ["spectrum", *argv, f"--epsilon={epsilon}"])
        assert (code, out) == (3, "") and "epsilon must be positive" in err


def test_census_writes_csv_rows_and_a_consistent_summary(capsys, tmp_path):
    # the second run, at alpha = 1, has rows that are not canonical, one of
    # them with a Q-codegree above epsilon, and fans with no Gorenstein index
    seen = []
    for argv in (["6", "2", "--seed", "3"], ["6", "3", "--seed", "11", "--box", "1", "--alpha", "1"]):
        out_csv = tmp_path / "census.csv"
        code, out, _ = run(capsys, ["census", *argv, "--out", str(out_csv)])
        assert code == 0
        summary = json.loads(out)
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "# polyadj census v1"
        assert lines[2] == ",".join(CENSUS_COLUMNS)
        rows = [line.split(",") for line in lines[3:]]
        assert len(rows) == 6
        by_name = [dict(zip(CENSUS_COLUMNS, row)) for row in rows]
        assert [r["instance"] for r in by_name] == [str(i) for i in range(6)]
        assert all(r["lemmas_ok"] == "true" for r in by_name)
        assert [r["dilation_check"] for r in by_name] == ["pass", "-", "-", "-", "-", "pass"]
        assert summary["count"] == 6
        assert summary["lemma_failures"] == 0
        assert summary["dilation_checks"] == 2
        assert summary["dilation_failures"] == 0
        assert summary["csv"] == str(out_csv)
        expected_qcds = {Fraction(r["qcd"]) for r in by_name
                         if r["alpha_canonical"] == "true" and Fraction(r["qcd"]) >= Fraction(1, 2)}
        assert [Fraction(q) for q in summary["distinct_qcd_above_epsilon"]] \
            == sorted(expected_qcds, reverse=True)
        assert summary["smooth_count"] == sum(r["smooth"] == "true" for r in by_name)
        # every summary count is the count of the CSV rows
        assert summary["lemma_failures"] == sum(r["lemmas_ok"] == "false" for r in by_name)
        assert summary["not_q_gorenstein_count"] == sum(r["gorenstein_index"] == "none" for r in by_name)
        indices = [int(r["gorenstein_index"]) for r in by_name if r["gorenstein_index"] != "none"]
        assert summary["max_gorenstein_index"] == max(indices, default=None)
        assert summary["dilation_checks"] == sum(r["dilation_check"] != "-" for r in by_name)
        assert summary["dilation_failures"] == sum(r["dilation_check"] == "fail" for r in by_name)
        seen += by_name
    assert any(r["gorenstein_index"] == "none" for r in seen)
    assert any(r["alpha_canonical"] == "false" and Fraction(r["qcd"]) >= Fraction(1, 2) for r in seen)


def test_census_count_zero_is_a_header_only_file(capsys, tmp_path):
    out_csv = tmp_path / "empty.csv"
    code, out, _ = run(capsys, ["census", "0", "2", "--out", str(out_csv)])
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 3
    assert json.loads(out)["count"] == 0
    assert run(capsys, ["census", "-1", "2", "--out", str(out_csv)])[0] == 3


def test_rational_options_take_a_negative_value_after_a_space(capsys, tmp_path):
    # argparse reads -1 and -0.5 as values but -3/2 as an unknown option;
    # each rational option now hands it to the library as --option=-3/2 does
    poly = tmp_path / "fig1.poly"
    main(["gen", "fig1", "--out", str(poly)])
    cfg = tmp_path / "pair.cfg"
    cfg.write_text("dim 2\nA\n0 -1\n0 1\n")
    joined = run(capsys, ["spectrum", str(cfg), "--check=-3/2"])
    assert joined == run(capsys, ["spectrum", str(cfg), "--check", "-3/2"]) \
        == run(capsys, ["spectrum", str(cfg), "--ch", "-3/2"])
    assert json.loads(joined[1])["check"] == {"c": "-3/2", "admissible": True, "witness": ["0", "-3/2"]}
    out_csv = tmp_path / "census.csv"
    for argv, message in ((["spectrum", str(cfg), "--epsilon", "-1/2"], "epsilon must be positive"),
                          (["analyze", str(poly), "--epsilon", "-1/2"], "epsilon must be positive"),
                          (["analyze", str(poly), "--alpha", "-1/2"], "alpha must lie in (0, 1]"),
                          (["analyze", str(poly), "--eps", "-.5e0"], "epsilon must be positive"),
                          (["census", "1", "2", "--out", str(out_csv), "--epsilon", "-1/2"],
                           "epsilon must be positive"),
                          (["census", "1", "2", "--out", str(out_csv), "--alpha", "-1/2"],
                           "alpha must lie in (0, 1]")):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "") and message in err, argv
    assert not out_csv.exists()


def test_census_refuses_a_bad_alpha_or_epsilon_before_any_draw(capsys, monkeypatch, tmp_path):
    # whatever the count: a count of 0 once wrote epsilon=-1 alpha=7 into
    # its header, and a count of 1 refused only in the first analyze
    def fail(*args, **kw):
        raise AssertionError("a polytope was drawn for a refused census")

    monkeypatch.setattr(cli, "random_lattice_polytope", fail)
    out_csv = tmp_path / "census.csv"
    for count in ("0", "1"):
        for options, message in ((["--epsilon=-1"], "epsilon must be positive"),
                                 (["--alpha=7"], "alpha must lie in (0, 1]"),
                                 (["--alpha=0", "--epsilon=1/3"], "alpha must lie in (0, 1]")):
            code, out, err = run(capsys, ["census", count, "3", "--out", str(out_csv), *options])
            assert (code, out) == (3, "") and message in err, (count, options)
            assert not out_csv.exists()


def test_reported_input_reproduces_the_reported_shift(capsys, tmp_path):
    path = tmp_path / "r.poly"
    main(["gen", "random", "3", "8", "11", "--out", str(path)])
    code, out, _ = run(capsys, ["analyze", str(path)])
    assert code == 0
    doc = json.loads(out)
    rows = [(tuple(a), Fraction(b)) for a, b in zip(doc["input"]["normals"], doc["input"]["rhs"])]
    data = adjunction_data(from_inequalities(rows))
    assert data.critical_shift == Fraction(doc["c_star"])
    assert data.qcodegree == Fraction(doc["qcd"])


def test_exit_codes(capsys, monkeypatch, tmp_path):
    assert run(capsys, ["analyze", str(tmp_path / "missing.poly")])[0] == 2
    garbage = tmp_path / "garbage.poly"
    garbage.write_text("this is not a polytope\n")
    code, _, err = run(capsys, ["analyze", str(garbage)])
    assert code == 2
    assert "parse error" in err
    cfg = tmp_path / "pair.cfg"
    cfg.write_text("dim 2\nA\n0 -1\n0 1\n")
    assert run(capsys, ["analyze", str(cfg)])[0] == 3
    empty = tmp_path / "empty.poly"
    empty.write_text("dim 2\nH\n1 0 0\n-1 0 -1\n")
    assert run(capsys, ["analyze", str(empty)])[0] == 3

    cube4 = tmp_path / "cube4.poly"
    main(["gen", "cube", "4", "--out", str(cube4)])
    monkeypatch.setenv("POLYADJ_MAX_DIM", "3")
    assert run(capsys, ["analyze", str(cube4)])[0] == 3
    assert run(capsys, ["gen", "cube", "4"])[0] == 3
    monkeypatch.setenv("POLYADJ_MAX_DIM", "many")
    assert run(capsys, ["gen", "cube", "2"])[0] == 3
    monkeypatch.delenv("POLYADJ_MAX_DIM")

    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen", "dodecahedron"])
    assert exc.value.code == 2


def test_a_non_integer_entry_where_an_integer_is_needed_exits_2(capsys, tmp_path):
    # the normal 1/2 0 of an H file read raw, and the row 1/2 0 of an A file
    rows = tmp_path / "half.poly"
    rows.write_text("dim 2\nH\n1/2 0 1\n-1 0 0\n0 1 1\n0 -1 0\n")
    code, _, err = run(capsys, ["analyze", str(rows), "--raw"])
    assert code == 2 and "parse error" in err
    cfg = tmp_path / "half.cfg"
    cfg.write_text("dim 2\nA\n1/2 0\n-1 0\n0 1\n0 -1\n")
    code, _, err = run(capsys, ["spectrum", str(cfg)])
    assert code == 2 and "parse error" in err


# Seconds a child interpreter may run before its test fails instead of hanging.
CHILD_TIMEOUT = 60


def run_module(*args, timeout=CHILD_TIMEOUT, **kwargs):
    """Run ``python -m polyadj ARGS`` on the polyadj package this process imported."""
    package_root = str(Path(polyadj.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    return subprocess.run([sys.executable, "-m", "polyadj", *args], env=env,
                          capture_output=True, text=True, timeout=timeout, **kwargs)


def test_console_script_round_trip(tmp_path):
    gen = run_module("gen", "fig1")
    assert gen.returncode == 0
    run_analyze = run_module("analyze", "-", "--format", "text", input=gen.stdout)
    assert run_analyze.returncode == 0
    assert "qcd: 2/3" in run_analyze.stdout


def test_console_script_reports_parse_failures(tmp_path):
    bad = tmp_path / "bad.poly"
    bad.write_text("dim 2\nH\n1 0\n")
    proc = run_module("analyze", str(bad))
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


def test_console_script_entry_point_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["polyadj"] == "polyadj.cli:main"
    module_name, attr = scripts["polyadj"].split(":")
    assert getattr(importlib.import_module(module_name), attr) is main


def test_reports_give_the_size_of_a_grid_above_the_listing_cap(capsys, monkeypatch, tmp_path):
    path = tmp_path / "fig1.poly"
    main(["gen", "fig1", "--out", str(path)])
    monkeypatch.setattr(cli, "MAX_LISTED_VALUES", 4)
    listed = json.loads(run(capsys, ["analyze", str(path)])[1])["spectrum"]
    assert listed["values"] == ["2", "1", "2/3", "1/2"] and "n_values" not in listed
    monkeypatch.setattr(cli, "MAX_LISTED_VALUES", 3)
    spectrum = json.loads(run(capsys, ["analyze", str(path)])[1])["spectrum"]
    assert spectrum["values"] is None and spectrum["n_values"] == 4
    text = run(capsys, ["analyze", str(path), "--format", "text"])[1]
    assert "spectrum values (>= 1/2): 4 values, not listed" in text
    assert json.loads(run(capsys, ["spectrum", "--from-polytope", str(path)])[1])["n_values"] == 4
    monkeypatch.undo()
    # 23,613,696 values: listing them took minutes; the report is about a second
    big = tmp_path / "d5.poly"
    big.write_text(format_polytope(random_lattice_polytope(5, 10, 1, box=2)))
    for argv in (["analyze", str(big)], ["analyze", str(big), "--format", "text"],
                 ["spectrum", "--from-polytope", str(big)]):
        proc = run_module(*argv, timeout=30)
        assert proc.returncode == 0
        assert "23613696" in proc.stdout


def test_a_grid_of_more_than_sys_maxsize_values_is_reported_by_its_size(capsys, tmp_path):
    # the triangle conv(0, 10^20 e_1, e_2) has step 1 / (10^20 + 2), so
    # 2 10^20 + 4 values of at least 1/2: more than len() of a grid can return
    path = tmp_path / "long.poly"
    path.write_text("dim 2\nV\n0 0\n100000000000000000000 0\n0 1\n")
    n_values = 200000000000000000004
    assert n_values > sys.maxsize
    code, out, _ = run(capsys, ["analyze", str(path)])
    spectrum = json.loads(out)["spectrum"]
    assert code == 0 and (spectrum["values"], spectrum["n_values"]) == (None, n_values)
    code, out, _ = run(capsys, ["spectrum", "--from-polytope", str(path)])
    superset = json.loads(out)
    assert code == 0 and (superset["values"], superset["n_values"]) == (None, n_values)


# valid H, V and A documents, each with the command that reads it
FUZZ_BASES = (
    (format_polytope(fig1()), ["analyze", "-"]),
    (format_polytope(scaled_simplex(3, 2)), ["spectrum", "--from-polytope", "-"]),
    ("dim 2\nV\n0 0\n2 0\n0 3\n1 1\n", ["analyze", "-"]),
    ("dim 3\nV\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n", ["analyze", "--format", "text", "-"]),
    ("dim 2\nA\n1 0\n0 1\n-1 -1\n", ["spectrum", "-"]),
    ("dim 3\nA\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n", ["spectrum", "-"]),
)
FUZZ_WORDS = ("1/0", "0.5", "x", "-", "7/3", "-1/2", "2/-3", "V", "dim")
# Drawn integers stay within +-99. The lattice walks have no budget yet, and
# one large entry makes a valid input run long: the V file of 0, e_2, e_3 and
# (1, -(10^k - 1), 0) makes verify_lemmas walk about 2 10^k values of x_1 over
# its acore, 0.28 s at k = 5 and ten times that for each further digit.
FUZZ_CAP = 99


def fuzzed(text: str, rng: SplitMix64) -> str:
    """text with one to three mutations: a token dropped or duplicated, the
    rows emptied, an entry replaced by a word of FUZZ_WORDS or by a drawn
    integer, or a row dropped or duplicated."""
    lines = [line.split() for line in text.splitlines()]

    def pick(seq):
        return seq[rng.randint(0, len(seq) - 1)]

    for _ in range(rng.randint(1, 3)):
        kind = rng.randint(0, 9)
        if kind <= 1 and any(lines):
            tokens = pick([t for t in lines if t])
            j = rng.randint(0, len(tokens) - 1)
            if kind == 0:
                del tokens[j]
            else:
                tokens.insert(j, tokens[j])
        elif kind == 2:
            del lines[2:]
        elif len(lines) > 2:
            i = rng.randint(2, len(lines) - 1)
            if kind <= 4:
                lines[i][rng.randint(0, len(lines[i]) - 1)] = pick(FUZZ_WORDS)
            elif kind <= 7:
                lines[i][rng.randint(0, len(lines[i]) - 1)] = str(rng.randint(-FUZZ_CAP, FUZZ_CAP))
            elif kind == 8:
                del lines[i]
            else:
                lines.insert(i, list(lines[i]))
    return "\n".join(" ".join(t) for t in lines) + "\n"


def test_mutated_documents_exit_0_2_or_3(capsys, monkeypatch):
    # A seeded fuzz of main in process: every input either succeeds, fails
    # to parse or is refused with a typed error, and none ends in exit 4 or
    # an uncaught exception. No alarm bounds a case: main maps OSError, and
    # so TimeoutError, to exit 2, which would pass a case that ran too long.
    rng = SplitMix64(0)
    exits = {0: 0, 2: 0, 3: 0}
    for k in range(2000):
        base, argv = FUZZ_BASES[k % len(FUZZ_BASES)]
        text = fuzzed(base, rng)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(argv)
        capsys.readouterr()
        assert code in exits, text
        exits[code] += 1
    # every outcome is reached, so the mutations reach past the reader
    assert min(exits.values()) > 100
