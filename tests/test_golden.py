"""Reports stay byte-identical to the committed golden files.

Each file in tests/golden is the JSON report of one CLI run with its
`tool` field masked; the runs cover every preset at the defaults and at
the fast test flags, the benchmark windows of the two presets with a
ladder, and a sign-flipped quantum plane whose failure witnesses the
report must keep.  Regenerate all of them from the repo root with

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); import test_golden; test_golden.regenerate()"
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from intforms.cli import main
from intforms.presets import REGISTRY

GOLDEN = Path(__file__).parent / "golden"
FAST = ["--max-len", "2", "--max-degree", "3", "--cases", "5"]

# golden file name -> (CLI arguments, expected exit status); BROKEN stands
# for the path of the sign-flipped quantum plane file
BROKEN = "broken.calc"
RUNS = {
    "qplane-fast": (["verify", "preset:qplane", *FAST], 0),
    "qplane": (["verify", "preset:qplane"], 0),
    "sl2-3d-fast": (["verify", "preset:sl2-3d", *FAST], 0),
    "sl2-3d": (["verify", "preset:sl2-3d"], 0),
    "sphere-fast": (["sphere", "verify", *FAST], 0),
    "sphere": (["sphere", "verify"], 0),
    "matrix-fast": (["matrix", "verify", *FAST], 0),
    "matrix": (["matrix", "verify"], 0),
    "broken-qplane-fast": (["verify", BROKEN, *FAST], 1),
    "sl2-3d-window": (["verify", "preset:sl2-3d", "--max-len", "6"], 0),
    "qplane-window": (["verify", "preset:qplane", "--max-len", "12"], 0),
}


def _broken_source():
    # the sign flip of test_cli.test_corrupted_file_fails_with_witness
    return REGISTRY["qplane"].source.replace(
        "1: dx = -1 * dual(dy)", "1: dx = 1 * dual(dy)"
    )


def masked_report(argv, directory):
    """(exit status, JSON report with `tool` masked) of one CLI run."""
    if BROKEN in argv:
        broken = Path(directory) / BROKEN
        broken.write_text(_broken_source())
        argv = [str(broken) if arg == BROKEN else arg for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([*argv, "--format", "json"])
    report = json.loads(out.getvalue())
    report["tool"] = "masked"
    return status, json.dumps(report, indent=2) + "\n"


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for name, (argv, _) in RUNS.items():
            _, text = masked_report(argv, directory)
            (GOLDEN / f"{name}.json").write_text(text)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name, tmp_path):
    argv, want_status = RUNS[name]
    status, text = masked_report(argv, tmp_path)
    assert status == want_status
    assert text == (GOLDEN / f"{name}.json").read_text()
