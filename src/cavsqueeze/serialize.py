"""Deterministic, machine-readable output: CSV, JSON and run manifests.

Floats are written with Python's shortest round-trip representation
(repr), so CSV/JSON outputs are byte-stable and parse back exactly.  Every
CLI run writes a manifest beside its outputs (write_manifest): the argv,
the outputs in write order, the warnings raised as {"category", "message"}
entries (an empty list when none), the environment (seeded Monte Carlo
bytes follow numpy's generators) and the wall time, which makes it the one
file excluded from the byte-identical reproducibility guarantee.
"""

import json
import sys
import time

import numpy as np

from . import __version__

SCHEMA_VERSION = "1.0"


def format_value(value):
    """Shortest round-trip text for one CSV cell; None (undefined) is an empty cell."""
    if type(value) is float:  # most cells: skip the isinstance chain
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    """Write rows with a fixed column order and round-trip float format."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(format_value, row)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, obj):
    """Write standard JSON: a nan or infinite float raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_manifest(path, command, outputs, started, seed=None, config=None, mc_health=None, warnings=()):
    """Write the record of one CLI run: its argv, the files it wrote in order, and the warnings it raised.

    started is the time.perf_counter() reading at the start of the run;
    mc_health is written only when given.
    """
    record = {
        "command": list(command),
        "seed": seed,
        "config": config,
        "environment": {"python": sys.version, "numpy": np.__version__, "platform": sys.platform},
        "outputs": list(outputs),
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "warnings": list(warnings),
    }
    if mc_health is not None:
        record["mc_health"] = dict(mc_health)
    write_json(path, record)
