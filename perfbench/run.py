"""Benchmark of cold `intforms` CLI runs on the paper's four presets.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass is a fresh interpreter that
imports the package from the checkout's `src`, loads the preset and runs
one CLI command through `intforms.cli.main` (plus, on `qplane-window`, four
long-word normal forms).  Passes run one at a time in a closed loop, the
next starting when the previous one exits, for about S seconds.  The
seed is the CLI's `--seed` and every child's PYTHONHASHSEED.

With `--trace 0` the result reports, as medians over the run's passes,
  wall_s       launch to exit of one pass;
  setup_s      launch until `intforms.cli` is imported and the preset loaded;
  peak_rss_mb  peak resident memory of the pass's process.
With `--trace 1` the passes run with spans around every layer's entry
points (see spans.py) and the result reports the per-layer metrics.

The machine's speed drifts by tens of percent over minutes, so times are
reported in reference seconds: a fresh interpreter times `import sympy`
before the first pass and after every pass or set-up-only process, and the
times of each are scaled by REFERENCE_IMPORT_S over the mean of the two
readings around it.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the run's passes are also written to
perfbench/out/.  See perfbench/README.md for the workloads and the figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_pass, check_structure_constants
from spans import METRICS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# CLI arguments of each workload's command, the preset its set-up loads,
# and the k of the y^k x^k normal forms computed after the command
WORKLOADS = {
    "sl2-window": (["verify", "preset:sl2-3d", "--max-len", "6"], "sl2-3d", ()),
    "qplane-window": (
        ["verify", "preset:qplane", "--max-len", "12"],
        "qplane",
        (10, 20, 30, 40),
    ),
    "sphere": (["sphere", "verify"], "podles-sphere", ()),
    "matrix": (["matrix", "verify"], "matrix-m2", ()),
}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# the median `import sympy` time on the 2-vCPU VM the figures in
# README.md come from; it only sets the scale of the reported times
REFERENCE_IMPORT_S = 0.40
MIN_PASSES = 3  # a median needs at least three samples
MIN_SETUPS = 9  # set-up samples per run, topped up by set-up-only processes
CHILD_TIMEOUT = 100


class BenchError(Exception):
    """The benchmark could not measure: no program, or a process broke."""


def run_child(mode, preset, powers, cli_args, seed):
    """Run child.py once; returns (launch, exit) clock readings and its record."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
    command = [sys.executable, str(BENCH / "child.py"), mode, preset,
               ",".join(map(str, powers)), *cli_args]
    launched = time.monotonic()
    proc = subprocess.run(command, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT, check=False)
    exited = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    record = json.loads(proc.stdout.splitlines()[-1])
    if mode != "calibrate" and Path(record["package"]).resolve().parent != SRC / "intforms":
        raise BenchError(f"imported intforms from {record['package']}, not {SRC}")
    return launched, exited, record


def calibrate(seed):
    """Seconds a fresh interpreter takes to import sympy: the machine's speed."""
    return run_child("calibrate", "", (), (), seed)[2]["calibration_s"]


def reference_scale(readings):
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_IMPORT_S / statistics.mean(readings)


def measure(workload, seed, seconds, trace):
    cli_args, preset, powers = WORKLOADS[workload]
    cli_args = cli_args + ["--format", "json", "--jobs", "1", "--timings",
                           "--seed", str(seed)]
    # untimed: writes the bytecode, so that no pass pays for compiling
    _, _, warm = run_child("warmup", preset, (), (), seed)
    problems = []
    if workload == "matrix":
        problems += check_structure_constants(warm["probe"])

    # every pass and every set-up-only process sits between two calibrations
    # and is scaled by their mean
    mode = "trace" if trace else "pass"
    passes = []
    laps = []
    calibrations = [calibrate(seed)]
    start = time.monotonic()
    while len(passes) < MIN_PASSES or (
        time.monotonic() - start + statistics.median(laps) <= seconds
    ):
        lap = time.monotonic()
        launched, exited, record = run_child(mode, preset, powers, cli_args, seed)
        calibrations.append(calibrate(seed))
        laps.append(time.monotonic() - lap)
        record["wall_s"] = exited - launched
        record["setup_s"] = record["setup_done"] - launched
        record["scale"] = reference_scale(calibrations[-2:])
        problems += check_pass(workload, record)
        passes.append(record)
    setups = [(p["setup_s"], p["scale"]) for p in passes]
    while not trace and len(setups) < MIN_SETUPS:
        launched, _, record = run_child("setup", preset, (), (), seed)
        calibrations.append(calibrate(seed))
        setups.append((record["setup_done"] - launched, reference_scale(calibrations[-2:])))

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for op in p["ops"] if "error" in op)
    if trace:
        samples = []
        for p in passes:
            values = layer_metrics(p["trace"])
            values["traced.wall_s"] = p["wall_s"]
            samples.append((values, p["scale"]))
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m, _ in samples]
        if any(c != counts[0] for c in counts):
            problems.append("call counts differ between passes of one run")
        units = dict(METRICS, **{"traced.wall_s": "s"})
    else:
        samples = [({"wall_s": p["wall_s"], "peak_rss_mb": p["maxrss_kb"] / 1024}, p["scale"])
                   for p in passes]
        units = dict(END_TO_END)
    metrics = {}
    for name, unit in units.items():
        if name == "setup_s":
            values = [value * scale for value, scale in setups]
        elif unit == "s":
            values = [m[name] * scale for m, scale in samples]
        else:
            values = [m[name] for m, _ in samples]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    detail = {"workload": workload, "seed": seed, "trace": trace, "passes": passes,
              "setups": setups, "calibrations": calibrations, "problems": problems}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "intforms" / "cli.py").is_file():
        sys.stderr.write(f"error: no intforms package under {SRC}\n")
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    for problem in detail["problems"]:
        sys.stderr.write(f"incorrect: {problem}\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
