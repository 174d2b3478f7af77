"""Exit codes, report shape, and determinism of the command line."""

import json
import os
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
        capsys, "integral", "preset:sl2", "--max-len", "6", "--degree", "0"
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
