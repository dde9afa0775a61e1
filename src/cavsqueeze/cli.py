"""Command-line interface.

Subcommands
-----------
fig2            squeezing-vs-Q curves for one S and several cooperativities
validate-oracle closed forms vs brute-force Dicke sums over the standard grid
raman-mc        telegraph-jump Monte Carlo of the time-averaged S_z
design          operating-point report from a config file
sweep           (S, eta) grid scan of limits, optima and regimes

The parser is built once per process, on the first run, and reused by
every later run in that process: each parse returns a fresh namespace.
Only callers that run more than once in a process (the tests, the
benchmark worker) skip a build; the console script runs once.

A handler (cmd_*) validates its options and computes; it writes nothing
and returns a Result.  run alone writes, once the handler has returned:
the files, then the manifest, with each warning raised during the run as a
{"category", "message"} entry, then the "wrote" line.  The writers create
--out only once a file's text is built, so a run refused at write time
creates no --out either: raman-mc writes first its JSON, which holds every
number of its CSV but the finite target.

Exit codes: 0 success, 1 usage/config error (any ValueError or OSError, a
nan or infinite number included, printed to stderr as "<subcommand>:
<message>"), 2 validation-suite failure (a closed form off the oracle by
more than ORACLE_TOL).  Data files are byte-identical for an identical
invocation and seed (the Monte Carlo draws one PCG64 stream per
2,048-trajectory chunk, child c of SeedSequence(seed)); the manifest, with
its wall time, is the exception.  raman-mc runs in units of the pulse, so
its "pulse_time_s" is the constant 1.0 (and "flip_rate_per_atom" is r),
kept for schema stability.
"""

import argparse
import functools
import importlib
import math
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .design import classify_regime, curvature_optimum, design_report, full_curve_minimum, scattering_optimum
from .feedback import analytic_moments, correlation_integrals
from .oracle import oracle_moments_sum
from .params import EnsembleSpec, cavity_params, load_config, nearest_spin
from .raman import RamanProcess, fig2_curve, sample_trajectories
from .serialize import SCHEMA_VERSION, write_csv, write_json, write_manifest

ORACLE_TOL = 1e-10  # validate-oracle's relative-error gate, exit 2 beyond it
_ORACLE_S_GRID = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 200.0)

# Grid-size limits, checked before any grid is built.  Peak memory measured
# on a 2-vCPU host: fig2 ~530 B per (Q, eta) point (~140 MB at the limit);
# sweep ~1.1 kB per (S, eta) point, ~12 kB with --full-minimum (~200 MB).
MAX_FIG2_POINTS = 2 ** 18  # qpoints x number of --eta values
MAX_SWEEP_POINTS = 2 ** 14  # s-points x eta-points


def _relative_error(a, b):
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    return diff / scale if scale > 0.0 else 0.0


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cavsqueeze",
        description="Cavity-feedback spin squeezing calculations with machine-readable outputs.",
    )
    parser.add_argument("--version", action="version", version=f"cavsqueeze {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig2", help="squeezing-vs-Q curves (CSV)")
    p.set_defaults(handler=cmd_fig2)
    p.add_argument("--S", type=float, required=True, help="total spin S")
    p.add_argument("--eta", type=float, action="append", required=True,
                   help="single-atom cooperativity; repeatable")
    p.add_argument("--qmin", type=float, default=1.0)
    p.add_argument("--qmax", type=float, default=1000.0)
    p.add_argument("--qpoints", type=int, default=200)
    p.add_argument("--linear-grid", action="store_true", help="evenly spaced Q grid (default logarithmic)")

    p = sub.add_parser("validate-oracle", help="closed forms vs brute-force sums (CSV)")
    p.set_defaults(handler=cmd_validate_oracle)
    p.add_argument("--smax", type=float, default=200.0, help="largest S of the grid")

    p = sub.add_parser("raman-mc", help="telegraph Monte Carlo statistics (JSON + optional CSV)")
    p.set_defaults(handler=cmd_raman_mc)
    p.add_argument("--S", type=float, required=True)
    p.add_argument("--r", type=float, required=True, help="scattered photons per atom over the pulse")
    p.add_argument("--traj", type=int, default=10000)
    p.add_argument("--steps", type=int, default=4, help="lag intervals across the pulse")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "gaussian"), default="exact")
    p.add_argument("--corr-csv", action="store_true", help="also write the per-lag correlation CSV")

    p = sub.add_parser("design", help="operating-point report from a config file (JSON)")
    p.set_defaults(handler=cmd_design)
    p.add_argument("--config", required=True, help="config file; p0 is optional and unused: the report picks Q")
    p.add_argument("--eps-max", type=float, default=1e-5)
    p.add_argument("--q-target", type=float, default=None)

    p = sub.add_parser("sweep", help="(S, eta) grid scan of limits and regimes (CSV)")
    p.set_defaults(handler=cmd_sweep)
    p.add_argument("--s-min", type=float, default=1e2)
    p.add_argument("--s-max", type=float, default=1e6)
    p.add_argument("--s-points", type=int, default=9)
    p.add_argument("--eta-min", type=float, default=1e-4)
    p.add_argument("--eta-max", type=float, default=10.0)
    p.add_argument("--eta-points", type=int, default=11)
    p.add_argument("--full-minimum", action="store_true",
                   help="also minimize the full modified curve per grid point")
    for p in sub.choices.values():
        p.add_argument("--out", default="out", help="output directory, created once the results are computed")
    return parser


@dataclass(frozen=True)
class Result:
    """What a handler produced: files by name in write order, (header, blocks) for a .csv name and a JSON
    object otherwise; its manifest fields; its exit code; and the stdout text before "wrote <first file>"."""

    files: dict
    code: int = 0
    prefix: str = ""
    seed: int = None
    config: dict = None
    mc_health: dict = None


def cmd_fig2(args):
    spec = EnsembleSpec(total_spin=args.S)
    if args.qmin <= 0 or args.qmax <= args.qmin or args.qpoints < 2:
        raise ValueError("need 0 < qmin < qmax and qpoints >= 2")
    if args.qpoints * len(args.eta) > MAX_FIG2_POINTS:
        raise ValueError(f"{args.qpoints} Q points x {len(args.eta)} eta values exceed the limit "
                         f"MAX_FIG2_POINTS = {MAX_FIG2_POINTS}")
    q_grid = (np.linspace if args.linear_grid else np.geomspace)(args.qmin, args.qmax, args.qpoints)
    # raises ValueError where Q_eff / S passes the G-factor branch
    blocks = fig2_curve(spec.total_spin, args.eta, q_grid)
    return Result({"fig2.csv": (("eta", "Q", "sigma_min_sq", "sigma_curv_sq", "sigma_ideal_sq"), blocks)})


def cmd_validate_oracle(args):
    spins = [s for s in _ORACLE_S_GRID if s <= args.smax]
    if not spins:
        raise ValueError(f"--smax {args.smax:g} is below the smallest grid spin {_ORACLE_S_GRID[0]:g}")
    grids = [[0.0, 0.1, 1.0, 5.0, 0.5 * s] for s in spins]
    closed = analytic_moments(np.repeat(spins, 5), np.ravel(grids))
    blocks = []
    for s, qs, var_closed, cov_closed in zip(spins, grids, closed.var_y.reshape(-1, 5).tolist(),
                                             closed.cov_w.reshape(-1, 5).tolist()):
        oracle = oracle_moments_sum(s, np.array(qs))
        var_oracle, cov_oracle = oracle.var_y.tolist(), oracle.cov_w.tolist()
        err_v = list(map(_relative_error, var_closed, var_oracle))
        err_w = list(map(_relative_error, cov_closed, cov_oracle))
        ok = [ev <= ORACLE_TOL and ew <= ORACLE_TOL for ev, ew in zip(err_v, err_w)]
        blocks.append((s, qs, var_closed, var_oracle, err_v, cov_closed, cov_oracle, err_w, ok))
    passed = [ok for block in blocks for ok in block[-1]]
    # duplicated rel_err column name is the documented schema
    header = ("S", "Q", "var_y_closed", "var_y_oracle", "rel_err", "cov_closed", "cov_oracle", "rel_err", "pass")
    return Result({"validate_oracle.csv": (header, blocks)}, code=0 if all(passed) else 2,
                  prefix=f"{sum(passed)}/{len(passed)} grid points within {ORACLE_TOL:g}; ")


def _mc_health(stats, total_spin, r, corr_target, elapsed_s):
    """Events simulated, trajectories per second and the worst |estimate - target| / se.

    The worst z-score runs over the two Sbar_z moments and every lag; an
    estimate whose standard error is undefined or zero is left out, and the
    field is null when none is left.
    """
    c_sq, c_fin = correlation_integrals(r)
    estimates = [
        (stats["mean_sz_bar_sq"], stats["mean_sz_bar_sq_se"], total_spin / 2.0 * c_sq),
        (stats["cov_bar_final"], stats["cov_bar_final_se"], total_spin / 2.0 * c_fin),
        *zip(stats["corr"], stats["corr_se"], corr_target),
    ]
    return {
        "n_events": stats["n_events"],
        "trajectories_per_s": stats["n_trajectories"] / elapsed_s,
        "worst_z": max((abs(est - target) / se for est, se, target in estimates if se), default=None),
    }


def cmd_raman_mc(args):
    spec = EnsembleSpec(total_spin=args.S)
    process = RamanProcess(r=args.r, n_atoms=spec.atom_count)
    # numpy imports numpy.random on first use (~13 ms): before the timer, so
    # that trajectories_per_s measures the simulation alone
    importlib.import_module("numpy.random")
    started = time.perf_counter()
    stats = sample_trajectories(process, args.traj, args.steps, seed=args.seed, mode=args.mode)
    elapsed_s = time.perf_counter() - started
    target = np.exp(-2.0 * args.r * np.array(stats["lags"])).tolist()
    files = {"raman_stats.json": {
        "schema_version": SCHEMA_VERSION,
        "total_spin": args.S,
        "r": args.r,
        "mode": args.mode,
        "seed": args.seed,
        "pulse_time_s": 1.0,
        "flip_rate_per_atom": args.r,
        "stats": stats,
    }}
    if args.corr_csv:
        # an undefined standard error (one trajectory) is an empty cell
        columns = (stats["lags"], stats["corr"], stats["corr_se"], target)
        files["raman_corr.csv"] = (("lag", "corr", "corr_se", "target"), [columns])
    return Result(files, seed=args.seed,
                  mc_health=_mc_health(stats, spec.total_spin, args.r, target, elapsed_s))


def cmd_design(args):
    cfg = load_config(args.config)
    report = design_report(cfg["S"], cavity_params(cfg), cfg["t_s"], args.eps_max, args.q_target)
    return Result({"design_report.json": report}, config=cfg)


def cmd_sweep(args):
    if min(args.s_min, args.s_max, args.eta_min, args.eta_max) <= 0.0 or min(args.s_points, args.eta_points) < 1:
        raise ValueError("need positive S and eta ranges with at least one point each")
    if args.s_points * args.eta_points > MAX_SWEEP_POINTS:
        raise ValueError(f"{args.s_points} x {args.eta_points} grid points exceed the limit "
                         f"MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}")
    # S rounded to spins before any evaluation, and written rounded
    spins = nearest_spin(np.geomspace(args.s_min, args.s_max, args.s_points))
    s, eta = (g.ravel() for g in np.meshgrid(spins, np.geomspace(args.eta_min, args.eta_max, args.eta_points),
                                              indexing="ij"))
    header = ["S", "eta", "s_eta5", "regime", "near_boundary",
              "q_curv", "sigma_curv_sq", "q_scatt", "r_opt", "sigma_scatt_sq"]
    columns = [s, eta, *classify_regime(s, eta), *curvature_optimum(s), *scattering_optimum(s, eta)]
    if args.full_minimum:
        header += ["q_full", "sigma_full_sq"]
        columns += full_curve_minimum(s, eta)
    return Result({"sweep.csv": (header, [[np.asarray(c).tolist() for c in columns]])})


def _refuse_non_finite(args):
    """Raise ValueError for a nan or infinite float option, which every later range check would let through."""
    for dest, value in vars(args).items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"--{dest.replace('_', '-')} must be finite, got {v!r}")


def run(argv=None):
    """Entry point returning the process exit code (0/1/2); the only code that writes files."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors; usage
        # errors are exit code 1 here
        return 0 if exc.code == 0 else 1
    started = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _refuse_non_finite(args)
            result = args.handler(args)
        out = Path(args.out)
        for name, content in result.files.items():
            if name.endswith(".csv"):
                write_csv(out / name, *content)
            else:
                write_json(out / name, content)
        write_manifest(out / "manifest.json", argv, list(result.files), started, seed=result.seed,
                       config=result.config, mc_health=result.mc_health,
                       warnings=[{"category": w.category.__name__, "message": str(w.message)} for w in caught])
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    print(f"{result.prefix}wrote {out / next(iter(result.files))}")
    return result.code


def main():
    sys.exit(run())
