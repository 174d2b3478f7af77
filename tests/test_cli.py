"""Exit codes, report shape, and determinism of the command line."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import intforms
from intforms.cli import main
from intforms.presets import REGISTRY

FAST = ["--max-len", "2", "--max-degree", "3", "--cases", "5"]
DATA = Path(intforms.__file__).parent / "data"
# the rows every calculus file gets at FAST, in report order
GENERIC_ROWS = [
    "derivation data verifies as free",
    "inverse identities hold on words up to length 2",
    "connection kills every dual one-form",
    "connection obeys the product rule on 5 seeded samples",
    "curvature vanishes on the degree-2 duals",
    "chain ladder commutes with bijective verticals up to length 2",
    "calculus is dense",
    "rewriting is locally confluent up to degree 3",
    "differential squares to zero on the window",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_qplane_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "preset:qplane", *FAST)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "0 failed" in out
    assert err == ""


def test_missing_file_is_a_config_error(capsys):
    code, out, err = run_cli(capsys, "verify", "nosuchfile")
    assert code == 2
    assert "error:" in err


def test_unknown_preset_is_a_config_error(capsys):
    code, out, err = run_cli(capsys, "verify", "preset:nosuch")
    assert code == 2
    assert "unknown preset" in err


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_integral_report_carries_the_haar_value(capsys):
    code, out, _ = run_cli(
        capsys, "integral", "preset:sl2", "--max-len", "6"
    )
    assert code == 0
    assert "Lambda(beta*gamma) = -q/(q^2 + 1)" in out


def test_json_reports_are_byte_identical(capsys):
    argv = ["verify", "preset:qplane", "--format", "json", "--seed", "0", *FAST]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    report = json.loads(first)
    assert report["schema"] == 1
    assert report["preset"] == "qplane"
    assert report["hash"] == REGISTRY["qplane"].digest
    assert set(report["summary"]) == {"pass", "fail", "skipped"}


def test_jobs_do_not_change_the_report(capsys):
    argv = ["flatness", "preset:sl2", "--format", "json", *FAST]
    _, serial, _ = run_cli(capsys, *argv)
    _, pooled, _ = run_cli(capsys, *argv, "--jobs", "4")
    assert serial == pooled


@pytest.mark.parametrize(
    "flag, value",
    [("--max-len", "0"), ("--max-len", "-1"), ("--cases", "0"), ("--cases", "-5"),
     ("--max-degree", "1"), ("--jobs", "0")],
)
def test_out_of_range_flags_are_usage_errors(capsys, flag, value):
    code, out, err = run_cli(capsys, "verify", "preset:qplane", *FAST, flag, value)
    assert code == 2
    assert out == ""  # rejected before any check runs
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("degree", ["3", "9", "-1", "-4"])
def test_integral_degree_outside_the_window_is_a_usage_error(capsys, degree):
    # the window of --max-len 3 has the degree blocks 0, 1 and 2
    argv = ["integral", "preset:qplane", "--max-len", "3"]
    code, out, err = run_cli(capsys, *argv, "--degree", degree)
    assert code == 2
    assert out == ""  # rejected before any check runs
    assert err.startswith("error:") and "--degree" in err
    code, out, _ = run_cli(capsys, *argv, "--degree", "2")
    assert code == 0 and "vanishes in every degree block" in out


@pytest.mark.parametrize(
    "target", ["preset:sl2-3d", str(DATA / "qplane.calc")], ids=["preset", "file"]
)
def test_integral_degree_is_refused_where_no_check_reads_it(capsys, target):
    # only the quantum plane preset's checks read --degree
    code, out, err = run_cli(capsys, "integral", target, "--max-len", "3", "--degree", "1")
    assert code == 2
    assert out == ""  # rejected before any check runs
    assert err.startswith("error:") and "--degree" in err


def test_timings_stay_out_of_the_report_by_default(capsys):
    argv = ["density", "preset:qplane", "--format", "json", *FAST]
    _, out, _ = run_cli(capsys, *argv)
    assert "elapsed" not in out
    _, timed, _ = run_cli(capsys, *argv, "--timings")
    assert "elapsed" in timed


def test_preset_list(capsys):
    code, out, _ = run_cli(capsys, "preset", "list")
    assert code == 0
    for name in ("qplane", "sl2-3d", "podles-sphere", "matrix-m2"):
        assert name in out
    code, out, _ = run_cli(capsys, "preset", "list", "--format", "json")
    rows = json.loads(out)["presets"]
    assert [r["name"] for r in rows] == list(REGISTRY)
    assert all(len(r["hash"]) == 64 for r in rows)


def test_matrix_verify_and_its_size_guard(capsys):
    code, out, _ = run_cli(capsys, "matrix", "verify", *FAST)
    assert code == 0
    assert "negative control" in out
    # only M_2 ships, so the matrix size is no flag
    with pytest.raises(SystemExit) as exit_:
        main(["matrix", "verify", "--n", "3", *FAST])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --n 3" in capsys.readouterr().err


def test_sphere_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "sphere", "verify", *FAST)
    assert code == 0
    assert "0 failed" in out


def test_corrupted_file_fails_with_witness(capsys, tmp_path):
    source = REGISTRY["qplane"].source.replace(
        "1: dx = -1 * dual(dy)", "1: dx = 1 * dual(dy)"
    )
    assert "1: dx = 1 * dual(dy)" in source
    path = tmp_path / "broken.calc"
    path.write_text(source)
    code, out, _ = run_cli(capsys, "iso-check", str(path), *FAST)
    assert code == 1
    assert "FAIL" in out and "versus" in out


def test_exponent_outside_the_range_is_a_config_error(capsys, tmp_path):
    source = REGISTRY["qplane"].source.replace(
        "relation: y*x = q^-1 * x*y", "relation: y*x = q^1073741824 * x*y"
    )
    assert "q^1073741824" in source
    path = tmp_path / "huge.calc"
    path.write_text(source)
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "outside [-2^30, 2^30)" in err


@pytest.mark.parametrize("rhs", ["1/0 * x*y", "(q-q)^-1 * x*y", "0^-1 * x*y"])
def test_division_by_zero_in_a_literal_is_a_config_error(capsys, tmp_path, rhs):
    source = REGISTRY["qplane"].source.replace(
        "relation: y*x = q^-1 * x*y", f"relation: y*x = {rhs}"
    )
    path = tmp_path / "zero.calc"
    path.write_text(source)
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 9, col") and "division by zero" in err


@pytest.mark.parametrize(
    "preset, old, new, where",
    [
        ("qplane", "relation: y*x = q^-1 * x*y", "relation: y*x = 1/0 * x*y", "line 9, col 18"),
        ("qplane", "partial: y = 0, 1", "partial: y = 0, 1/0", "line 17, col 18"),
        ("sl2-3d", "counit: beta = 0", "counit: beta = 1/0", "line 30, col 17"),
        ("sl2-3d", "d w0 = q * w-.w+", "d w0 = 1/0 * w0.w+", "line 62, col 9"),
    ],
    ids=["relation", "partial", "counit", "d-rule"],
)
def test_parse_errors_give_the_column_in_the_line(capsys, tmp_path, preset, old, new, where):
    # the column of the '/' counts from the start of the line, not of the
    # directive's value
    source = REGISTRY[preset].source
    assert old in source
    path = tmp_path / "columns.calc"
    path.write_text(source.replace(old, new))
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {where}: division by zero")


def test_a_file_without_a_ladder_skips_the_ladder_row(capsys, tmp_path):
    source = REGISTRY["qplane"].source
    path = tmp_path / "no_ladder.calc"
    path.write_text(source[: source.index("[ladder]")])
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 0 and err == ""
    rows = [line for line in out.splitlines() if "chain ladder" in line]
    assert rows == [f"SKIP  {GENERIC_ROWS[5]} :: no ladder section"]
    assert "8 passed, 0 failed, 1 skipped" in out


GRADES = "sigma grades: q^-2, q^-1, q^-1"
GRADING = "[grading]\nalpha = 1\ngamma = 1\nbeta = -1\ndelta = -1\n"


# case -> (preset, a line of its file, a line put right after it, where the
# load stops, what it says); each edit, a repeated key or an undeclared name,
# used to load silently, the later line winning, or to fail later with no line
INVERSE_2 = "sigma inverse 2: x -> q*p^-1*x, y -> p^-1*y"
UNKNOWN_Z, UNKNOWN_ZETA = "'z' is not in 'generators:'", "'zeta' is not in 'generators:'"
REPEATS = {
    "parameters": ("qplane", "parameters: q, p", "parameters: q",
                   6, "'parameters' repeats line 5"),
    "generators": ("qplane", "generators: x, y", "generators: y, x",
                   9, "'generators' repeats line 8"),
    "grading": ("qplane", "y = 1", "y = 2", 14, "'y' repeats line 13"),
    "partial": ("qplane", "partial: y = 0, 1", "partial: y = 1, 0",
                18, "'partial: y' repeats line 17"),
    "sigma-images": ("qplane", "sigma images: y = [q*y, (p - 1)*x; 0, p*y]",
                     "sigma images: y = [y, 0; 0, y]", 20, "'sigma images: y' repeats line 19"),
    "sigma-inverse": ("qplane", INVERSE_2, "sigma inverse 2: x -> x, y -> y",
                      22, "'sigma inverse 2' repeats line 21"),
    "grades-and-images": ("qplane", INVERSE_2, "sigma grades: p, p",
                          22, "sigma grades replace sigma images and inverses"),
    "names": ("qplane", "names: dx, dy", "names: dy, dx", 25, "'names' repeats line 24"),
    "rule": ("qplane", "rule: dy.dx = -p*q^-1 * dx.dy", "rule: dy . dx = 0",
             28, "'rule: dy . dx' repeats line 27"),
    "top": ("qplane", "top: 2", "top: 2", 31, "'top' repeats line 30"),
    "ladder": ("qplane", "1: dx = -1 * dual(dy)", "1: dx = 1 * dual(dy)",
               35, "'1: dx' repeats line 34"),
    "counit": ("sl2-3d", "counit: beta = 0", "counit: beta = 1",
               31, "'counit: beta' repeats line 30"),
    "sigma-grades": ("sl2-3d", GRADES, "sigma grades: q, q, q",
                     48, "'sigma grades' repeats line 47"),
    "d-rule": ("sl2-3d", "d w0 = q * w-.w+", "d w0 = 0", 63, "'d w0' repeats line 62"),
    "d-unknown": ("sl2-3d", "d w0 = q * w-.w+", "d wX = q * w-.w+",
                  63, "'wX' is not in 'names:'"),
    "grading-unknown": ("qplane", "y = 1", "z = 5", 14, UNKNOWN_Z),
    "partial-unknown": ("qplane", "partial: y = 0, 1", "partial: z = 0, 1", 18, UNKNOWN_Z),
    "sigma-images-unknown": ("qplane", "sigma images: y = [q*y, (p - 1)*x; 0, p*y]",
                             "sigma images: z = [x, 0; 0, x]", 20, UNKNOWN_Z),
    "sigma-inverse-unknown": ("qplane", INVERSE_2, "sigma inverse 3: z -> x", 22, UNKNOWN_Z),
    "coproduct-unknown": ("sl2-3d", "coproduct: alpha = alpha @ alpha + beta @ gamma",
                          "coproduct: zeta = alpha @ alpha", 26, UNKNOWN_ZETA),
    "counit-unknown": ("sl2-3d", "counit: beta = 0", "counit: zeta = 0", 31, UNKNOWN_ZETA),
}


@pytest.mark.parametrize("case", sorted(REPEATS))
def test_a_keyed_directive_is_given_once(capsys, tmp_path, case):
    preset, line, added, lineno, message = REPEATS[case]
    source = REGISTRY[preset].source
    assert f"\n{line}\n" in source
    path = tmp_path / "repeat.calc"
    path.write_text(source.replace(f"\n{line}\n", f"\n{line}\n{added}\n", 1))
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {lineno}, col 1: ") and message in err


@pytest.mark.parametrize(
    "preset, line, lineno, name",
    [("qplane", "y = 1", 12, "y"), ("qplane", "x = 1", 12, "x"), ("sl2-3d", "beta = -1", 19, "beta")],
)
def test_grading_gives_every_generator_a_degree(capsys, tmp_path, preset, line, lineno, name):
    # a generator left out of [grading] used to exit 2 with just "error: y"
    source = REGISTRY[preset].source
    assert f"\n{line}\n" in source
    path = tmp_path / "ungraded.calc"
    path.write_text(source.replace(f"\n{line}\n", "\n", 1))
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2
    assert out == ""
    assert err == f"error: line {lineno}, col 1: {name!r} has no degree\n"


@pytest.mark.parametrize(
    "line, message",
    [("partial: y = 0, 1", "partial rows missing for ['y']"),
     ("sigma images: y = [q*y, (p - 1)*x; 0, p*y]", "generator image matrices missing for ['y']")],
    ids=["partial", "sigma-images"],
)
def test_derivation_gives_every_generator_its_data(capsys, tmp_path, line, message):
    # a generator left out used to exit 2 with no line; the refusal now
    # names the first line of [derivation]
    source = REGISTRY["qplane"].source
    assert f"\n{line}\n" in source
    path = tmp_path / "underived.calc"
    path.write_text(source.replace(f"\n{line}\n", "\n", 1))
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2
    assert out == ""
    assert err == f"error: line 16, col 1: {message}\n"


# case -> (the lines of qplane.calc deleted, 1-based, and the refusal); each
# names the first directive line of its section in the edited file, where
# the first four used to give line 1 and the last two no line
SECTION_REFUSALS = {
    "generators": ((8,), "line 8, col 1: missing 'generators:' directive"),
    "partial-rows": ((16, 17), "line 16, col 1: derivation section lacks partial rows"),
    "sigma-inverse": ((21,), "line 16, col 1: need 'sigma inverse 1..2' directives"),
    "top": ((30,), "line 24, col 1: a calculus needs form 'names:' and 'top:'"),
    "form-rule": ((25,), "line 24, col 1: form word dx.dx.dx of degree 3 does not reduce "
                         "to zero above the top degree"),
    "ladder": ((34,), "line 33, col 1: vertical 1 must cover the degree-1 basis"),
}


@pytest.mark.parametrize("case", sorted(SECTION_REFUSALS))
def test_a_section_refusal_names_its_first_line(capsys, tmp_path, case):
    gone, message = SECTION_REFUSALS[case]
    lines = REGISTRY["qplane"].source.splitlines(keepends=True)
    assert all(lines[n - 1].strip() for n in gone)
    path = tmp_path / "short.calc"
    path.write_text("".join(line for n, line in enumerate(lines, 1) if n not in gone))
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def _directive_lines(lines):
    return [n for n, line in enumerate(lines, 1) if line.strip() and not line.startswith("#")]


@pytest.mark.parametrize("filename", ["qplane.calc", "sl2_3d.calc"])
def test_every_one_line_deletion_fails_a_row_or_names_its_line(capsys, tmp_path, filename):
    # each directive line of a shipped file, deleted alone, leaves a file
    # that passes, fails a check row, or is refused at a directive line of
    # the edited file; a blank or comment line is nothing the loader reads
    lines = (DATA / filename).read_text().splitlines(keepends=True)
    path = tmp_path / filename
    for n in _directive_lines(lines):
        edited = lines[: n - 1] + lines[n:]
        path.write_text("".join(edited))
        code, out, err = run_cli(capsys, "verify", str(path), *FAST, "--format", "json")
        if code == 1:
            assert any(row["status"] == "fail" for row in json.loads(out)["checks"]), n
        elif code == 2:
            named = re.match(r"error: line (\d+), col \d+: ", err)
            assert named and int(named[1]) in _directive_lines(edited), (n, err)
        else:
            assert code == 0, (n, code, err)


# qplane.calc from its 'top:' line to the end, the ladder section included
_QPLANE = (DATA / "qplane.calc").read_text()
QPLANE_CALCULUS_TAIL = _QPLANE[_QPLANE.index("top: 2"):]


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("rule: dy.dx =", "rule: dy.dz =", "rule: dy.dz ="),
        ("1: dx = -1 * dual(dy)", "1: dz = -1 * dual(dy)", "1: dz ="),
        ("1: dx = -1 * dual(dy)", "1: dx = -1 * dual(dx.dy)", "1: dx = -1 * dual(dx.dy)"),
        # the form rules leave no degree-3 form, with or without a ladder
        ("top: 2", "top: 3", "top: 3"),
        (QPLANE_CALCULUS_TAIL, "top: 3\n", "top: 3"),
        ("top: 2", "top: 0", "top: 0"),
    ],
    ids=["rule-unknown-name", "ladder-unknown-name", "ladder-wrong-degree", "top-too-high",
         "top-too-high-no-ladder", "top-zero"],
)
def test_refused_token_edit_names_its_line(capsys, tmp_path, old, new, named):
    source = (DATA / "qplane.calc").read_text()
    assert old in source
    edited = source.replace(old, new, 1)
    path = tmp_path / "qplane.calc"
    path.write_text(edited)
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2 and out == ""
    line = re.match(r"error: line (\d+), col \d+: ", err)
    assert line, err
    assert edited.splitlines()[int(line[1]) - 1].startswith(named), err


# edits refused by a constructor the loader calls (a context, a
# presentation, a calculus) -> the exact error, at the directive it names
CONSTRUCTOR_REFUSALS = {
    "relation-lengthens": ("qplane.calc", "relation: y*x = q^-1 * x*y", "relation: y*x = q^-1 * x*y*y",
                           "line 9, col 1: rule y*x -> ... does not decrease deglex"
                           " (offending word x*y^2)"),
    "relation-reversed": ("qplane.calc", "relation: y*x = q^-1 * x*y", "relation: x*y = q^-1 * y*x",
                          "line 9, col 1: rule x*y -> ... does not decrease deglex"
                          " (offending word y*x)"),
    "relation-inhomogeneous": ("qplane.calc", "relation: y*x = q^-1 * x*y", "relation: y*x = q^-1 * x",
                               "line 9, col 1: rule y*x is not degree-homogeneous"),
    "generator-twice": ("qplane.calc", "generators: x, y", "generators: x, y, x",
                        "line 8, col 1: duplicate generator names"),
    "parameter-twice": ("qplane.calc", "parameters: q, p", "parameters: q, p, q",
                        "line 5, col 1: duplicate parameter 'q'"),
    "order-not-a-permutation": ("sl2_3d.calc", "order: w-, w0, w+", "order: w-, w0, w0",
                                "line 51, col 1: form order must permute the form names"),
    "d-of-degree-one": ("sl2_3d.calc", "d w0 = q * w-.w+", "d w0 = w0",
                        "line 62, col 1: d w0 must be a degree-2 form"),
}


@pytest.mark.parametrize("case", list(CONSTRUCTOR_REFUSALS))
def test_refused_constructor_edit_names_its_line(capsys, tmp_path, case):
    filename, old, new, where = CONSTRUCTOR_REFUSALS[case]
    source = (DATA / filename).read_text()
    assert f"\n{old}\n" in source
    path = tmp_path / filename
    path.write_text(source.replace(f"\n{old}\n", f"\n{new}\n", 1))
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2 and out == ""
    assert err == f"error: {where}\n"


# [hopf] line edits of sl2_3d.calc -> the exact error; the refusals come in
# the order: no ':', no '=', an unknown generator, an unknown map
HOPF_REFUSALS = {
    "counit-parameter": ("counit: alpha = 1", "counit: alpha = alpha",
                         "line 29, col 17: unknown parameter 'alpha'"),
    "no-colon": ("counit: alpha = 1", "counit alpha = 1",
                 "line 29, col 1: hopf directives are 'map: generator = value'"),
    "no-equals": ("counit: alpha = 1", "counit: alpha 1",
                  "line 29, col 1: a hopf directive needs 'lhs = rhs'"),
    "unknown-generator": ("counit: alpha = 1", "counit: alfa = 1",
                          "line 29, col 1: 'alfa' is not in 'generators:'"),
    "unknown-map": ("counit: alpha = 1", "counits: alpha = 1",
                    "line 29, col 1: unknown hopf directive 'counits'"),
    "coproduct-algebra-term": ("coproduct: alpha = alpha @ alpha + beta @ gamma",
                               "coproduct: alpha = alpha * alpha + beta @ gamma",
                               "line 25, col 20: algebra term in a tensor (expected tensor terms)"),
    "antipode-tensor-term": ("antipode: alpha = delta", "antipode: alpha = delta @ delta",
                             "line 33, col 19: tensor term in an algebra element"
                             " (expected scalar or algebra terms)"),
    "antipode-inverse-dual": ("antipode inverse: alpha = delta",
                              "antipode inverse: alpha = dual(w0)",
                              "line 37, col 32: dual(...) needs a form word (expected form name)"),
}


@pytest.mark.parametrize("case", list(HOPF_REFUSALS))
def test_refused_hopf_edit_names_its_line(capsys, tmp_path, case):
    old, new, where = HOPF_REFUSALS[case]
    source = (DATA / "sl2_3d.calc").read_text()
    assert f"\n{old}\n" in source
    path = tmp_path / "sl2_3d.calc"
    path.write_text(source.replace(f"\n{old}\n", f"\n{new}\n", 1))
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2 and out == ""
    assert err == f"error: {where}\n"


@pytest.mark.parametrize(
    "new, message",
    [
        ("w0.wx", "'wx' is not in 'names:'"),
        ("w+.w0", "declared degree-2 basis disagrees with the rules"),
    ],
    ids=["basis-unknown-name", "basis-reducible-word"],
)
def test_refused_basis_edit_names_its_line(capsys, tmp_path, new, message):
    # sl2-3d's declared degree-2 basis, with a name that is no form and with
    # a word the rules reduce: both are refused at the 'basis 2:' line
    old = "basis 2: w-.w+, w-.w0, w0.w+"
    source = (DATA / "sl2_3d.calc").read_text()
    assert source.count(old) == 1
    edited = source.replace(old, old.replace("w0.w+", new))
    path = tmp_path / "sl2_3d.calc"
    path.write_text(edited)
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2 and out == ""
    line = re.match(r"error: line (\d+), col \d+: (.*)", err)
    assert line and message in line[2], err
    assert edited.splitlines()[int(line[1]) - 1].startswith("basis 2:"), err


@pytest.mark.parametrize(
    "preset, old, new, message",
    [
        ("sl2-3d", GRADES, "sigma grades: q^-2, 0, q^-1", "sigma grades must be invertible"),
        ("sl2-3d", GRADING, "", "sigma grades need a [grading] section"),
        ("sl2-3d", GRADES, "sigma grades: q^-2, q^-1", "expected 3 sigma grades"),
        ("qplane", "sigma inverse 2: x -> q*p^-1*x, y -> p^-1*y\n", "",
         "need 'sigma inverse 1..2' directives"),
        ("qplane", "sigma inverse 1: x -> p^-1*x, y -> q^-1*y", "sigma inverse 1: x -> p^-1*x",
         "line 20, col 1: 'y' has no image under 'sigma inverse 1'"),
        ("qplane", ", y -> p^-1*y", "",
         "line 21, col 1: 'y' has no image under 'sigma inverse 2'"),
    ],
    ids=["zero-grade", "no-grading", "grade-count", "missing-inverse",
         "inverse-omits-y", "second-inverse-omits-y"],
)
def test_bad_sigma_data_is_a_config_error(capsys, tmp_path, preset, old, new, message):
    source = REGISTRY[preset].source
    assert old in source
    path = tmp_path / "bad.calc"
    path.write_text(source.replace(old, new))
    code, out, err = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "old, new, witness",
    [
        ("sigma images: y = [q*y, (p - 1)*x; 0, p*y]",
         "sigma images: y = [q*y, (p - 1)*y; 0, p*y]",
         "sigma respects the defining relations: entry (0,1) on rule y*x"),
        ("(p - 1)*x", "(p - 2)*x",
         "partial annihilates the defining relations: index 1 on rule y*x"),
        ("y -> q^-1*y", "y -> y", "bar o sigma^T = id: entry (0,0) on y: q*y != y"),
    ],
    ids=["sigma-breaks-the-relation", "partial-breaks-the-relation", "wrong-inverse"],
)
def test_freeness_row_fails_on_wrong_derivation_data(capsys, tmp_path, old, new, witness):
    # one wrong datum in qplane's [derivation] loads, and the freeness row
    # reports the identity it breaks
    source = REGISTRY["qplane"].source
    assert source.count(old) == 1
    path = tmp_path / "unfree.calc"
    path.write_text(source.replace(old, new))
    code, out, err = run_cli(capsys, "invert-sigma", str(path), "--max-len", "2", "--format", "json")
    assert code == 1 and err == ""
    rows = {row["name"]: row for row in json.loads(out)["checks"]}
    row = rows["derivation data verifies as free"]
    assert row["status"] == "fail"
    assert row["witness"].startswith(witness)


def test_inverse_identities_row_fails_on_a_wrong_inverse(capsys, tmp_path):
    # the sweep of the four products over the window's words reports the
    # first one a wrong 'sigma inverse' line breaks
    source = REGISTRY["qplane"].source
    assert source.count("y -> q^-1*y") == 1
    path = tmp_path / "unfree.calc"
    path.write_text(source.replace("y -> q^-1*y", "y -> y"))
    code, out, err = run_cli(capsys, "invert-sigma", str(path), "--max-len", "2", "--format", "json")
    assert code == 1 and err == ""
    rows = {row["name"]: row for row in json.loads(out)["checks"]}
    row = rows["inverse identities hold on words up to length 2"]
    assert row["status"] == "fail"
    assert row["witness"] == "bar o sigma^T = id: entry (0,0) on y: q*y != y"


def test_file_target_passes_like_the_preset(capsys, tmp_path):
    path = tmp_path / "plane.calc"
    path.write_text(REGISTRY["qplane"].source)
    code, out, _ = run_cli(capsys, "nabla", str(path), *FAST)
    assert code == 0
    assert "plane" in out


@pytest.mark.parametrize("filename", ["sl2_3d.calc", "qplane.calc"])
def test_shipped_files_by_path_run_the_generic_checks(capsys, filename):
    # a file's name picks no preset's closed forms, whatever it is
    code, out, _ = run_cli(capsys, "verify", str(DATA / filename), *FAST, "--format", "json")
    assert code == 0
    assert [row["name"] for row in json.loads(out)["checks"]] == GENERIC_ROWS


def test_file_named_like_a_preset_runs_the_generic_checks(capsys, tmp_path):
    path = tmp_path / "sl2-3d.calc"
    path.write_text(REGISTRY["qplane"].source)
    code, out, _ = run_cli(capsys, "verify", str(path), *FAST)
    assert code == 0
    for sl2_only in ("level-one", "Haar", "beta*gamma"):
        assert sl2_only not in out


def _child_env():
    # the child finds the package where this process found it, also when
    # pytest put the source tree on sys.path rather than on PYTHONPATH
    src = str(Path(intforms.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


HUGE_POWER = """
import resource, sys, time

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from intforms.cli import main

start = time.perf_counter()
status = main(["verify", sys.argv[1]])
print(f"elapsed {time.perf_counter() - start:.3f}", file=sys.stderr)
sys.exit(status)
"""


def _refused_in_a_child(tmp_path, rhs):
    # verify qplane with its relation's right side replaced, in a child
    # process under a 1 GiB address-space limit, so a regression fails or
    # times out instead of holding this one; returns the error line
    source = REGISTRY["qplane"].source.replace(
        "relation: y*x = q^-1 * x*y", f"relation: y*x = {rhs}"
    )
    assert rhs in source
    path = tmp_path / "huge.calc"
    path.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_POWER, str(path)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    *message, elapsed = proc.stderr.strip().splitlines()
    assert float(elapsed.split()[1]) < 1.0
    return message[0]


def _assert_power_is_refused_in_a_child(tmp_path, coefficient):
    message = _refused_in_a_child(tmp_path, f"{coefficient} * x*y")
    assert message.startswith("error:") and "over 2^20 bits" in message


def test_huge_coefficient_power_is_a_config_error(tmp_path):
    # 2^(2^30 - 1) would be a 2^30-bit coefficient; the power is refused
    # before it is taken
    _assert_power_is_refused_in_a_child(tmp_path, "(2*q)^1073741823")


def test_huge_power_of_a_sum_is_a_config_error(tmp_path):
    # about 10^5 terms of up to 1.6 * 10^5 bits each; squaring up to it
    # would take days, so the size is estimated and refused first
    _assert_power_is_refused_in_a_child(tmp_path, "(q + 2)^100000")


def test_huge_degree_gcd_is_a_config_error(tmp_path):
    # the gcd of q + 3 and q^(2^30 - 1) + 2 would evaluate them to about
    # 6 * 2^30 bits; the degree is refused before anything is evaluated
    _assert_power_is_refused_in_a_child(tmp_path, "1/(q^1073741823 + 2)*(q + 3)")


def test_huge_generator_power_is_a_config_error(tmp_path):
    # x^100000000 would be a word of 10^8 letters; the exponent is refused
    # at its '^'
    message = _refused_in_a_child(tmp_path, "x^100000000")
    assert message == "error: line 9, col 18: a generator power over 2^16"


REWRITE_STEPS = """
import contextlib, io, sys
from intforms import ncalg
from intforms.cli import main

steps = 0
spend = ncalg._Budget.spend

def counted(self, units=1):
    global steps
    steps += units
    spend(self, units)

ncalg._Budget.spend = counted
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(status, steps)
"""


@pytest.mark.parametrize(
    "argv, steps",
    [(["verify", "preset:sl2-3d", "--max-len", "6"], 1483), (["sphere", "verify"], 877)],
    ids=["sl2-window", "sphere"],
)
def test_transposition_runs_skip_no_cache_hit(argv, steps):
    # rewrite steps are budget units, and a fresh interpreter starts with
    # empty caches.  Products fold one letter at a time onto a normal word,
    # and each letter-times-word product is cached, so the cache holds words
    # of many lengths.  A run past a word the cache holds would rewrite that
    # word again (with no length guard the runs spend 1,574 and 969).  The
    # counts are the same under every hash seed.
    for hash_seed in ("0", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", REWRITE_STEPS, *argv, "--seed", "1"],
            capture_output=True,
            text=True,
            env={**_child_env(), "PYTHONHASHSEED": hash_seed},
            timeout=60,
        )
        assert proc.stdout == f"0 {steps}\n", (hash_seed, proc.stderr)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "intforms", "preset", "list"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "qplane" in proc.stdout


NO_SYMPY = """
import contextlib, io, sys

class NoSympy:
    def find_spec(self, name, path=None, target=None):
        if name == "sympy" or name.startswith("sympy."):
            raise ImportError(f"sympy is a test-only dependency: {name}")

sys.meta_path.insert(0, NoSympy())
from intforms.cli import main

FAST = FAST_FLAGS
for argv in (
    ["verify", "preset:qplane", *FAST],
    ["verify", "preset:sl2-3d", *FAST],
    ["sphere", "verify", *FAST],
    ["matrix", "verify", *FAST],
    ["preset", "list"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    assert status == 0, (argv, status)
assert "sympy" not in sys.modules, "sympy was imported"
print("ok")
"""


def test_runs_without_sympy():
    # sympy is only the tests' oracle: every command runs with it unimportable
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY.replace("FAST_FLAGS", repr(FAST))],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_import_path_skips_packaging_metadata():
    # the report's version string comes from the package itself, so a cold
    # start never pays for importlib.metadata
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import intforms.cli"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()]
    assert "intforms.cli" in imported
    assert not [name for name in imported if name.startswith("importlib.metadata")]
    assert intforms.report.tool_version() == f"intforms {intforms.__version__}"


NO_OPENSSL = """
import contextlib, io, sys
from intforms.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    status = main(["verify", "preset:qplane", *FAST_FLAGS, "--format", "json"])
assert status == 0, status
assert "_hashlib" not in sys.modules, "hashlib's OpenSSL digests were loaded"
print("ok")
"""


def test_report_digest_loads_no_openssl():
    # the report's input digest is the builtin SHA-256, since hashlib would
    # load OpenSSL for it; -S keeps site's own imports out of the count
    proc = subprocess.run(
        [sys.executable, "-S", "-c", NO_OPENSSL.replace("FAST_FLAGS", repr(FAST))],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize(
    "command, target, hint",
    [("flatness", "preset:matrix-m2", "matrix verify"),
     ("integral", "preset:podles", "sphere verify"),
     ("invert-sigma", "preset:podles-sphere", "sphere verify"),
     pytest.param("integral", str(DATA / "qplane.calc"), "no checks for 'integral'",
                  id="integral-qplane.calc-no checks")],
)
def test_slice_commands_on_whole_suite_presets_are_usage_errors(capsys, command, target, hint):
    code, out, err = run_cli(capsys, command, target, *FAST)
    assert code == 2
    assert out == ""  # rejected before any check runs
    assert err.startswith("error:") and hint in err
