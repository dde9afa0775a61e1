"""Deterministic, machine-readable output: CSV, JSON and run manifests.

Floats are written with Python's shortest round-trip representation
(repr), so CSV/JSON outputs are byte-stable and parse back exactly, and
both writers refuse a nan or infinite float before they create the file or
its directory: each makes the directory only once its text is built, and
only when it is missing.  A CSV is written from blocks of columns
(write_csv), and a column that recurs across blocks, such as fig2's Q grid,
is formatted once per file: at once, by one map(repr), when its cells are
all finite Python floats, and cell by cell otherwise.  Every CLI run
writes a manifest beside its outputs (write_manifest): the argv, the
outputs in write order, the warnings raised as {"category", "message"}
entries (an empty list when none), the environment (seeded Monte Carlo
bytes follow numpy's generators, and exp, log, log1p, expm1 and power
differ in last bits between the kernel targets numpy_dispatch records) and
the wall time, which makes it the one file excluded from the byte-identical
guarantee; that holds per (numpy version, dispatch level).
"""

import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__

SCHEMA_VERSION = "1.0"


def format_value(value):
    """Shortest round-trip text for one CSV cell; None (undefined) is an empty cell, a nan or inf raises ValueError."""
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
    infinite float cell, raise ValueError before the file or its directory is made.
    """
    lines = [",".join(header), *_rows(blocks), ""]  # the empty last line ends the file with a newline
    _write_text(path, "\n".join(lines))


def _rows(blocks):
    """The CSV text of each row of blocks; the formatted cells are freed with the generator, before the join."""
    formatted = {}  # id -> (list, its cells)
    for block in blocks:
        rows = next((len(c) for c in block if isinstance(c, list)), 1)
        for column in block:
            if isinstance(column, list) and id(column) not in formatted:
                formatted[id(column)] = (column, _cells(column))
        columns = [formatted[id(c)][1] if isinstance(c, list) else [format_value(c)] * rows for c in block]
        yield from map(",".join, zip(*columns, strict=True))


def _cells(column):
    """A list column's cells: one map(repr) if all are Python floats with a finite sum (none nan or inf), else
    format_value each, which also takes a sum that overflows."""
    if set(map(type, column)) == {float} and math.isfinite(sum(column)):
        return list(map(repr, column))
    return list(map(format_value, column))


def write_json(path, obj):
    """Write standard JSON: a nan or infinite float raises ValueError before the file or its directory is made."""
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_text(path, text):
    """Write built text to path, creating its directory (and any missing parents) only when it is missing."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", encoding="utf-8", newline="\n")
    with fh:
        fh.write(text)


@functools.cache
def _numpy_dispatch():
    """The target of numpy's current float64 kernel for each ufunc the package calls; None where numpy < 2.0."""
    ufuncs = ("exp", "log", "log1p", "expm1", "power", "sin", "cos", "sqrt")
    introspect = getattr(np.lib, "introspect", None)
    info = introspect.opt_func_info(func_name=f"^({'|'.join(ufuncs)})$", signature="float64") if introspect else {}
    return {name: next(iter(info.get(name, {}).values()), {}).get("current") for name in ufuncs}


def write_manifest(path, command, outputs, started, fields, warnings=()):
    """Write the record of one CLI run: its argv, the files it wrote in order, and the warnings it raised.

    started is the time.perf_counter() reading at the start of the run; the
    handler's fields are merged over a record whose seed and config are None.
    """
    record = {
        "command": list(command),
        "seed": None,
        "config": None,
        "environment": {"python": sys.version, "numpy": np.__version__, "numpy_dispatch": _numpy_dispatch(),
                        "platform": sys.platform},
        "outputs": list(outputs),
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "warnings": list(warnings),
    }
    write_json(path, record | fields)
