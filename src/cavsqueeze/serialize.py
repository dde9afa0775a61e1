"""Deterministic, machine-readable output: CSV, JSON and run manifests.

Floats are written with Python's shortest round-trip representation
(repr), so CSV/JSON outputs are byte-stable and parse back exactly, and
both writers refuse a nan or infinite float before they open the file.  A CSV
is written from blocks of columns (write_csv), and a column that recurs
across blocks, such as fig2's Q grid, is formatted once per file.  Every
CLI run writes a manifest beside its outputs (write_manifest): the argv,
the outputs in write order, the warnings raised as {"category", "message"}
entries (an empty list when none), the environment (seeded Monte Carlo
bytes follow numpy's generators) and the wall time, which makes it the one
file excluded from the byte-identical reproducibility guarantee.
"""

import json
import math
import sys
import time

import numpy as np

from . import __version__

SCHEMA_VERSION = "1.0"


def format_value(value):
    """Shortest round-trip text for one CSV cell; None (undefined) is an empty cell, a nan or inf raises ValueError."""
    if type(value) is float and value - value == 0.0:  # most cells, a finite float: skip the isinstance chain
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isfinite(value):
            return repr(float(value))
        raise ValueError(f"CSV cells must be finite, got {value!r}")
    return str(value)


def write_csv(path, header, blocks):
    """Write a CSV with a fixed column order from blocks of columns, in the round-trip float format.

    Each block is a sequence of columns over the same rows.  A list column
    holds one cell per row of its block, and any other value fills every
    row; a block without a list column is one row.  A list that recurs, in
    one block or several, is formatted once per file, keyed by identity: the
    key holds the list until every row is made, so no other list can take
    its id.  List columns of one block that differ in length, and a nan or
    infinite float cell, raise ValueError before the file is opened.
    """
    lines = [",".join(header), *_rows(blocks), ""]  # the empty last line ends the file with a newline
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


def _rows(blocks):
    """The CSV text of each row of blocks; the formatted cells are freed with the generator, before the join."""
    formatted = {}  # id -> (list, its cells)
    for block in blocks:
        rows = next((len(c) for c in block if isinstance(c, list)), 1)
        for column in block:
            if isinstance(column, list) and id(column) not in formatted:
                formatted[id(column)] = (column, list(map(format_value, column)))
        columns = [formatted[id(c)][1] if isinstance(c, list) else [format_value(c)] * rows for c in block]
        yield from map(",".join, zip(*columns, strict=True))


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
