"""One benchmark process: a fresh interpreter running one `intforms` pass.

    python3 perfbench/child.py MODE PRESET POWERS [CLI ARGUMENT ...]

MODE is one of
  calibrate
          time `import sympy` and exit: run.py's reading of the
          machine's speed (PRESET and POWERS are ignored);
  warmup  compile the package's bytecode, load the preset and print the
          values run.py checks once per run (untimed);
  setup   import `intforms.cli`, load PRESET and exit;
  pass    set up as above, then run the CLI arguments through
          `intforms.cli.main` and normalise y^k x^k for each k in POWERS
          (comma separated, may be empty);
  trace   the same pass with every layer's entry points wrapped in spans.

The last line of standard output is one JSON object.  `setup_done` is read
from the system-wide monotonic clock, which run.py also uses for the
launch time.  The package comes from PYTHONPATH, which run.py points at
the checkout's `src`.
"""

import sys
import time


def main(argv):
    mode, preset_name, powers = argv[1], argv[2], argv[3]
    cli_args = argv[4:]
    if mode == "calibrate":
        start = time.perf_counter()
        import sympy  # noqa: F401

        sys.stdout.write(f'{{"calibration_s": {time.perf_counter() - start}}}\n')
        return 0
    if mode == "warmup":
        import compileall
        from pathlib import Path

        compileall.compile_dir(
            Path(__file__).resolve().parent.parent / "src" / "intforms", quiet=1
        )
    import intforms.cli
    from intforms.presets import get_preset

    preset = get_preset(preset_name)
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    bundle = preset.load()
    setup_done = time.monotonic()

    import json

    result = {"setup_done": setup_done, "package": intforms.__file__}
    if mode == "warmup":
        result["probe"] = _probe(preset_name, bundle)
    if mode in ("pass", "trace"):
        result["ops"] = _run_ops(intforms.cli.main, cli_args, bundle, powers, tracer)
        if tracer is not None:
            result["trace"] = tracer.snapshot()
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["maxrss_kb"] = usage.ru_maxrss
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _run_ops(cli_main, cli_args, bundle, powers, tracer):
    import io

    ops = []
    captured = io.StringIO()
    saved, sys.stdout = sys.stdout, captured
    try:
        status = cli_main(cli_args)
    except Exception as exc:  # a crash of the program is a failed operation
        ops.append({"op": "cli", "error": f"{type(exc).__name__}: {exc}"})
    else:
        ops.append({"op": "cli", "status": status, "stdout": captured.getvalue()})
    finally:
        sys.stdout = saved
    for k in (int(piece) for piece in powers.split(",") if piece):
        pres = bundle.presentation
        op = f"y^{k} x^{k}"
        try:
            value = pres.monomial(pres.word(*("y",) * k + ("x",) * k))
        except Exception as exc:  # a crash of the program is a failed operation
            ops.append({"op": op, "k": k, "error": f"{type(exc).__name__}: {exc}"})
            if tracer is not None:
                tracer.reset_stack()
            continue
        terms = [
            [[pres.generators[g] for g in word], str(coeff.evaluate({"q": 2, "p": 3}))]
            for word, coeff in value.terms.items()
        ]
        ops.append({"op": op, "k": k, "terms": terms})
    return ops


def _probe(preset_name, bundle):
    if preset_name != "matrix-m2":
        return None
    from intforms.matrixcalc import structure_constants

    return [
        [
            [[c.x.numerator, c.x.denominator, c.y.numerator, c.y.denominator] for c in row]
            for row in plane
        ]
        for plane in structure_constants(bundle)
    ]


if __name__ == "__main__":
    sys.exit(main(sys.argv))
