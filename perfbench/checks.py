"""Output checks for benchmark invocations.

Outputs are checked by physics, not by bytes: a change that re-keys the
Monte Carlo streams or reorders a sum changes the bytes but must still pass.
Each check returns a list of problems; an empty list means the output is
correct.  Tolerances were measured at the commit that introduced the
benchmark and set about ten times above the worst value seen there.
"""

import cmath
import csv
import hashlib
import json
import math
from pathlib import Path

# Imported before the traced run patches the package, so checks never add spans.
from cavsqueeze.dicke import expectation, variance
from cavsqueeze.raman import modified_min_variance

# |estimate - target| / se bound for every MC estimate.  The benchmark draws
# about 80 estimates per seed; the largest |z| among ~1e4 Gaussian values is
# about 4.4, so a correct MC with any stream keying stays below 6.
MC_Z_BOUND = 6.0

# Floored relative disagreement between independent moment routes (floor
# S/2 for first moments and variances, S^2/2 for <S_+^2>).  Exact-weight
# long-double path (2S <= 400): worst 4.4e-13.  lgamma path, Q in
# [1, 2 sqrt(S)]: worst 4.2e-9 at S = 1e4 and 1.1e-5 at S = 1e5, both at Q = 1.
EXACT_PATH_TOL = 1e-11
LGAMMA_PATH_TOL = {1e4: 1e-7, 1e5: 1e-4}

# <S_x> = S and Var S_z = S/2 on the dense CSS at S = 1000: worst 1.3e-13.
CSS_TOL = 1e-11

# A sweep q_full must not be beaten by f at q (1 +- SWEEP_STEP) inside the
# search bracket by more than SWEEP_TOL relative; f's own rounding noise
# near the minimum reaches 6e-10 at S = 3e5.
SWEEP_STEP = 1e-3
SWEEP_TOL = 1e-9


def read_csv(path):
    """Header and rows as strings; columns by index (names may repeat)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _as_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_problems(path):
    """Every numeric cell of a CSV must be finite."""
    header, rows = read_csv(path)
    problems = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"{path.name} row {i}: {len(row)} cells for {len(header)} columns")
        for name, cell in zip(header, row):
            value = _as_float(cell)
            if value is not None and not math.isfinite(value):
                problems.append(f"{path.name} row {i}: {name} = {cell}")
    return problems


def _json_numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _json_numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _json_numbers(value)


def json_problems(path):
    """Every number of a JSON file must be finite."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    bad = [v for v in _json_numbers(payload) if not math.isfinite(v)]
    return [f"{path.name}: non-finite values {bad[:3]}"] if bad else []


def output_problems(outdir):
    """Finite-value checks on every CSV and JSON file an invocation wrote."""
    problems = []
    for path in sorted(Path(outdir).iterdir()):
        if path.suffix == ".csv":
            problems += csv_problems(path)
        elif path.suffix == ".json":
            problems += json_problems(path)
    return problems


def digests(outdir):
    """sha256 of each data file; the manifest carries wall time and is skipped."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(outdir).iterdir())
        if path.name != "manifest.json"
    }


def correlation_targets(r):
    """(c_bar_sq, c_bar_fin) of the exponential kernel, computed here independently."""
    a = 2.0 * r
    return 2.0 * (math.expm1(-a) + a) / (a * a), -math.expm1(-a) / a


def mc_z_scores(payload):
    """|estimate - target| / se for both c_bar integrals and every lag."""
    stats = payload["stats"]
    s, r, t = payload["total_spin"], payload["r"], payload["pulse_time_s"]
    c_sq, c_fin = correlation_targets(r)
    pairs = [
        ("mean_sz_bar_sq", stats["mean_sz_bar_sq"], stats["mean_sz_bar_sq_se"], 0.5 * s * c_sq),
        ("cov_bar_final", stats["cov_bar_final"], stats["cov_bar_final_se"], 0.5 * s * c_fin),
    ]
    for lag, c, se in zip(stats["lags"], stats["corr"], stats["corr_se"]):
        pairs.append((f"corr(lag={lag:g})", c, se, math.exp(-2.0 * r * lag / t)))
    scores = {}
    for name, est, se, target in pairs:
        scores[name] = abs(est - target) / se if se > 0.0 else math.inf
    return scores


def mc_problems(stats_path, corr_path=None):
    """Problems of one raman-mc run, and its largest z-score."""
    with open(stats_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    scores = mc_z_scores(payload)
    problems = [f"{name}: {z:.2f} se from target" for name, z in scores.items() if not z <= MC_Z_BOUND]
    if corr_path is not None:
        _, rows = read_csv(corr_path)
        stats = payload["stats"]
        if len(rows) != len(stats["lags"]):
            problems.append(f"{corr_path.name}: {len(rows)} rows for {len(stats['lags'])} lags")
        for row, c in zip(rows, stats["corr"]):
            lag, corr, _, target = (float(x) for x in row)
            want = math.exp(-2.0 * payload["r"] * lag / payload["pulse_time_s"])
            if abs(target - want) > 1e-12 * want or corr != c:
                problems.append(f"{corr_path.name}: row at lag {lag:g} disagrees with the JSON or the target")
    return problems, max(scores.values())


def validate_oracle_problems(path):
    header, rows = read_csv(path)
    col = header.index("pass")
    failed = [row[:2] for row in rows if row[col] != "true"]
    problems = [f"validate-oracle point (S, Q) = {tuple(p)} did not pass" for p in failed]
    return problems if rows else ["validate-oracle wrote no rows"]


def search_bracket(s, eta):
    """The default Q bracket documented in design.full_curve_minimum."""
    q_curv = 6.0 ** 0.2 * max(s, 1.0) ** 0.4
    guess = max(q_curv, math.sqrt(3.0 * s * eta), 10.0)
    return min(0.05 * guess, 1.0), min(4.0 * guess, 1.4 * s)


def sweep_problems(path):
    """Each q_full must be a local minimum of f on its search bracket.

    Returns (problems, edge_minima): the second counts grid points whose
    minimum sits on the bracket edge while f keeps falling outside it.
    """
    header, rows = read_csv(path)
    idx = {name: header.index(name) for name in ("S", "eta", "q_full", "sigma_full_sq")}
    problems = []
    edges = 0
    for row in rows:
        s, eta, q, sigma = (float(row[idx[k]]) for k in ("S", "eta", "q_full", "sigma_full_sq"))
        f0 = modified_min_variance(s, eta, q)
        if abs(f0 - sigma) > SWEEP_TOL * abs(f0):
            problems.append(f"sweep (S, eta) = ({s:g}, {eta:g}): sigma_full_sq {sigma!r} != f(q_full) {f0!r}")
        lo, hi = search_bracket(s, eta)
        for neighbour, outside in ((q * (1.0 - SWEEP_STEP), q * (1.0 - SWEEP_STEP) < lo),
                                   (q * (1.0 + SWEEP_STEP), q * (1.0 + SWEEP_STEP) > hi)):
            f1 = modified_min_variance(s, eta, min(max(neighbour, lo), hi))
            if f1 < f0 - SWEEP_TOL * abs(f0):
                problems.append(f"sweep (S, eta) = ({s:g}, {eta:g}): q_full = {q!r} is not a local minimum")
            elif outside and modified_min_variance(s, eta, neighbour) < f0:
                edges += 1
    return problems, edges


def fig2_problems(path, s, etas, qpoints):
    header, rows = read_csv(path)
    problems = []
    if len(rows) != len(etas) * qpoints:
        problems.append(f"fig2: {len(rows)} rows for {len(etas)} x {qpoints}")
    curv = 1.25 * 6.0 ** (-0.2) * s ** (-0.4)
    for i, row in enumerate(rows):
        eta, q, sig, sig_curv, sig_ideal = (float(x) for x in row)
        if eta != etas[i // qpoints]:
            problems.append(f"fig2 row {i}: eta {eta!r} out of order")
        if not (sig > 0.0 and abs(sig_ideal * q - 1.0) <= 1e-12 and abs(sig_curv - curv) <= 1e-12 * curv):
            problems.append(f"fig2 row {i}: (Q, sigma, curv, ideal) = {(q, sig, sig_curv, sig_ideal)}")
    return problems


def design_problems(path, q_target):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    if report["limiting_regime"] not in ("curvature", "scattering"):
        problems.append(f"design: regime {report['limiting_regime']!r}")
    if not report["sigma_recommended_sq"] > 0.0:
        problems.append(f"design: sigma_recommended_sq {report['sigma_recommended_sq']!r}")
    if q_target is not None and report["q_recommended"] != q_target:
        problems.append(f"design: q_recommended {report['q_recommended']!r} != q_target {q_target!r}")
    return problems


def moments_disagreement(a, b, total_spin):
    """Largest floored relative difference over var_y, cov_w, <S_+>, <S_+^2>."""
    half = total_spin / 2.0

    def rel(x, y, floor):
        return abs(x - y) / max(abs(x), abs(y), floor)

    return max(
        rel(a.var_y, b.var_y, half),
        rel(a.cov_w, b.cov_w, half),
        rel(a.mean_sp, b.mean_sp, half),
        rel(a.mean_sp2, b.mean_sp2, total_spin * half),
    )


def agreement_problems(reference, others, total_spin, tol):
    """Each (name, moments) in others must agree with the reference route."""
    problems = []
    for name, moments in others:
        err = moments_disagreement(reference, moments, total_spin)
        if not err <= tol:
            problems.append(f"{name} vs oracle_moments_sum at S = {total_spin:g}: {err:.3g} > {tol:g}")
    return problems


def css_problems(ops, state, total_spin):
    """<S_x> = S and Var S_z = S/2 on the +x coherent state."""
    sx = expectation(state, ops.sx)
    vz = variance(state, ops.sz)
    problems = []
    if abs(sx - total_spin) > CSS_TOL * total_spin or not cmath.isfinite(sx):
        problems.append(f"<S_x> = {sx!r}, expected {total_spin!r}")
    if abs(vz - total_spin / 2.0) > CSS_TOL * total_spin:
        problems.append(f"Var S_z = {vz!r}, expected {total_spin / 2.0!r}")
    return problems
