"""Outcomes of the verification passes and the rendering of a check run."""

from __future__ import annotations

import json

from . import __version__


class CheckReport:
    """Named checks with failure witnesses, plus counts of the cases swept.

    Each check is a dict with at least name, ok and witness (None when there
    is nothing to show); passes may add fields of their own.  A sweep over
    many cases can record only the cases that fail and keep how many it
    covered in counts, keyed by what it counted.
    """

    def __init__(self, checks=(), **counts):
        self.checks = list(checks)
        self.counts = counts

    def add(self, name, ok, witness=None, **fields):
        self.checks.append({"name": name, "ok": ok, "witness": witness, **fields})

    @property
    def ok(self):
        return all(c["ok"] for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c["ok"]]

    def first_failure(self):
        """The "name: witness" text of the first failed check, or None."""
        for check in self.checks:
            if not check["ok"]:
                witness = check["witness"]
                return check["name"] if witness is None else f"{check['name']}: {witness}"
        return None

    def __repr__(self):
        counts = "".join(f", {n} {name}" for name, n in self.counts.items())
        return (
            f"<CheckReport {len(self.checks)} checks, "
            f"{len(self.failures)} failed{counts}>"
        )


def tool_version():
    """The package's own version string; the packaging metadata reads it too."""
    return f"intforms {__version__}"


def build_report(command, preset, opts, checks, timings=False):
    """Assemble the report dict; key order is the output order.

    Timings are real and therefore nondeterministic, so they stay out of
    the report unless explicitly requested; everything else depends only
    on the input file, the flags, and the seed.
    """
    rows = []
    for check in checks:
        row = {"name": check["name"], "status": check["status"]}
        if check["witness"] is not None:
            row["witness"] = check["witness"]
        if timings:
            row["elapsed"] = round(check["elapsed"], 6)
        rows.append(row)
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for check in checks:
        counts[check["status"]] += 1
    return {
        "schema": 1,
        "tool": tool_version(),
        "command": command,
        "preset": preset.name,
        "hash": preset.digest,
        "seed": opts.seed,
        "cases": opts.cases,
        "max_len": opts.max_len,
        "max_degree": opts.max_degree,
        "checks": rows,
        "summary": counts,
    }


def render_json(report):
    return json.dumps(report, indent=2) + "\n"


def render_text(report):
    lines = [
        f"{report['preset']}  {report['command']}  ({report['tool']})",
        f"input sha256 {report['hash'][:16]}",
    ]
    for row in report["checks"]:
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[row["status"]]
        line = f"{mark}  {row['name']}"
        if row.get("witness"):
            line += f" :: {row['witness']}"
        if "elapsed" in row:
            line += f"  [{row['elapsed']:.3f}s]"
        lines.append(line)
    counts = report["summary"]
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['skipped']} skipped"
    )
    return "\n".join(lines) + "\n"
