"""Deterministic, machine-readable output: CSV, JSON and run manifests.

Floats are written with Python's shortest round-trip representation
(repr), so CSV/JSON outputs are byte-stable and parse back exactly.  Every
CLI run writes a manifest listing its outputs beside them; the manifest
carries wall time and is the one file excluded from the byte-identical
reproducibility guarantee.
"""

import json
import time
from dataclasses import dataclass, field

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


@dataclass
class RunManifest:
    """Record of one CLI invocation and the files it produced."""

    command: list
    seed: int = None
    config: dict = None
    outputs: list = field(default_factory=list)
    mc_health: dict = None
    _started: float = field(default_factory=time.perf_counter, repr=False)

    def add_output(self, path):
        self.outputs.append(str(path))

    def write(self, path):
        record = {
            "command": list(self.command),
            "seed": self.seed,
            "config": self.config,
            "outputs": list(self.outputs),
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "wall_time_s": time.perf_counter() - self._started,
        }
        if self.mc_health is not None:
            record["mc_health"] = dict(self.mc_health)
        write_json(path, record)
