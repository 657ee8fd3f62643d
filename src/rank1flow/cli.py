"""The ``rank1`` command line.

Usage: rank1 <subcommand> --spec <file> [--out <dir>]

Each subcommand reads one JSON experiment spec, runs it, writes
``report.json`` (and ``plot.csv`` when the result is sequence-valued)
into the output directory, and exits 0 on pass, 1 on threshold failure,
2 on error.  Reports are byte-identical across reruns of the same spec.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click

from .errors import Rank1Error
from .experiments import KINDS, export_plotdata, run_experiment


@click.group()
def main():
    """Build rank-one flows from cutting-and-stacking schedules and run
    correlation, weak-limit and spectral experiments on them."""


def _run(kind: str, spec_path: str, out_dir: str):
    try:
        with open(spec_path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, or not JSON
        click.echo(f"error: cannot read spec {spec_path}: {exc}", err=True)
        sys.exit(2)
    started = time.monotonic()
    try:
        report = run_experiment(kind, spec)
    except (Rank1Error, MemoryError) as exc:
        click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
        sys.exit(2)
    elapsed = time.monotonic() - started
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if report["plot"]["rows"] or report["plot"]["columns"]:
        export_plotdata(report, out / "plot.csv")
    status = "pass" if report["passed"] else "FAIL"
    click.echo(f"{kind}: {status} ({elapsed:.2f}s) -> {report_path}", err=True)
    sys.exit(0 if report["passed"] else 1)


def _register(kind: str):
    @main.command(name=kind)
    @click.option("--spec", "spec_path", required=True, type=click.Path(exists=True), help="JSON experiment spec.")
    @click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False), help="Output directory.")
    def _cmd(spec_path, out_dir, _kind=kind):
        _run(_kind, spec_path, out_dir)

    _cmd.__doc__ = f"Run a {kind} experiment from a JSON spec."


for _k in KINDS:
    _register(_k)


if __name__ == "__main__":
    main()
