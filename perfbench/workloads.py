"""The benchmark's three workloads: seeded inputs and checked invocations.

Each workload is a closed loop: one caller runs its invocation list in
sequence, each invocation after the previous one returned.

* ``mc``: three ``raman-mc`` runs.  Exact mode is bound by jump events (200
  and 100 per trajectory), gaussian mode by OU steps, so a change to
  ``raman.sample_trajectories`` that helps one kernel and hurts the other
  shows here.
* ``scan``: ``sweep --full-minimum``, seeded ``fig2`` curves and seeded
  ``design`` configs: thousands of scalar closed-form calls that bypass the
  MC and the Dicke matrices.  Every seed draws the same number of fig2 runs
  outside the G-factor domain (Q_eff / S >= pi/2), which count as they
  behave, so a defect there shows on every seed and at the same rate; no
  drawn input is filtered.  The grid point S eta^5 = 1 of the default sweep
  stays in too.
* ``oracle``: ``validate-oracle`` plus direct oracle, channel and dense
  Dicke calls; the closed forms run only a few times here.

No invocation passes ``--workers``: the benchmark must outlive the thread
pool.
"""

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from cavsqueeze import cli, dicke, feedback, oracle
from cavsqueeze.params import EnsembleSpec

import checks

WORKLOADS = ("mc", "scan", "oracle")

MC_TRAJ = 4096  # eight 512-trajectory chunks per run
FIG2_RUNS = 24
FIG2_OUT_OF_DOMAIN = 2  # of FIG2_RUNS; the others stay inside the G-factor domain by construction
FIG2_ETAS = 3
FIG2_QPOINTS = 200  # the CLI default
DESIGN_CONFIGS = 8
# Q values per oracle spin, one from each half of the log range: the oracle
# sums cost up to 1.7x more at some Q than at others, and one Q per seed
# would make the work of a pass depend on the seed.
ORACLE_Q_STRATA = 2


@dataclass
class Invocation:
    """One timed call and the check of what it returned or wrote.

    call() returns a cli exit code or library results; check(value, stderr)
    returns a list of problems.  outdir is emptied before each call.
    """

    label: str
    kind: str
    call: object
    check: object
    outdir: Path = None


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_strata(rng, n, lo, hi):
    """n log-uniform draws, one in each of n equal log-intervals of [lo, hi], shuffled.

    Every seed covers the whole range, so the work of a pass (and how many
    inputs fall outside the G-factor domain) varies little between seeds.
    """
    cells = list(range(n))
    rng.shuffle(cells)
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (c + rng.random()) / n * (b - a)) for c in cells]


def _half_integer(x):
    return round(2.0 * x) / 2.0


def generate(workload, seed):
    """JSON-able inputs of one workload; the same (workload, seed) gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mc":
        return {
            "mc": [
                {"S": 1000.0, "r": 0.1, "mode": "exact", "steps": 4, "corr_csv": False},
                {"S": 50.0, "r": 1.0, "mode": "exact", "steps": 4, "corr_csv": True},
                {"S": 1e5, "r": 0.05, "mode": "gaussian", "steps": 64, "corr_csv": False},
            ],
            "seeds": [rng.randrange(2 ** 32) for _ in range(4)],
        }
    if workload == "scan":
        n_in = FIG2_RUNS - FIG2_OUT_OF_DOMAIN
        spins = _log_strata(rng, n_in, 1e2, 1e6)
        etas = _log_strata(rng, n_in * FIG2_ETAS, 1e-4, 10.0)
        # qmax <= S keeps Q_eff <= Q below S, inside the domain Q_eff / S < pi/2
        fig2 = [
            {"S": _half_integer(s), "etas": etas[i * FIG2_ETAS:(i + 1) * FIG2_ETAS],
             "qmax": _log_uniform(rng, 1e2, min(1e4, s))}
            for i, s in enumerate(spins)
        ]
        # small S, large eta and qmax >= 10 S take Q_eff / S past pi/2 on the grid
        fig2 += [
            {"S": _half_integer(_log_uniform(rng, 1e2, 3e2)),
             "etas": [_log_uniform(rng, 3.0, 10.0) for _ in range(FIG2_ETAS)],
             "qmax": _log_uniform(rng, 3e3, 1e4)}
            for _ in range(FIG2_OUT_OF_DOMAIN)
        ]
        rng.shuffle(fig2)
        ranges = {"S": (1e3, 1e6), "g_hz": (1e5, 1e6), "kappa_hz": (5e5, 5e6),
                  "delta_over_gamma": (100.0, 2000.0), "p0": (10.0, 1e4), "t_s": (1e-5, 1e-3)}
        columns = {key: _log_strata(rng, DESIGN_CONFIGS, lo, hi) for key, (lo, hi) in ranges.items()}
        columns["S"] = [_half_integer(s) for s in columns["S"]]
        q_targets = _log_strata(rng, DESIGN_CONFIGS, 1.0, 100.0)
        designs = [
            {"config": {key: columns[key][i] for key in ranges}, "q_target": q_targets[i]}
            for i in range(DESIGN_CONFIGS)
        ]
        return {"fig2": fig2, "design": designs}
    return {
        "closed_vs_oracle": [{"S": s, "q": q} for s in (1e4, 1e5)
                             for q in _log_strata(rng, ORACLE_Q_STRATA, 1.0, 2.0 * math.sqrt(s))],
        "channel_vs_oracle": [{"S": s, "q": q} for s in (50.0, 200.0)
                              for q in _log_strata(rng, ORACLE_Q_STRATA, 0.1, s / 2.0)],
        "dense_css_spin": 1000.0,
    }


def inputs_bytes(spec):
    """Canonical bytes of generated inputs, for the determinism check."""
    return json.dumps(spec, sort_keys=True).encode()


def config_text(config):
    return "".join(f"{key} = {value!r}\n" for key, value in config.items())


def fig2_in_domain(s, eta, qmax, qmin=1.0, qpoints=FIG2_QPOINTS):
    """Whether every Q of the fig2 grid keeps Q_eff / S below pi/2 (the G-factor branch)."""
    for i in range(qpoints):
        q = qmin * (qmax / qmin) ** (i / (qpoints - 1))
        _, c_fin = checks.correlation_targets(q / (4.0 * s * eta))
        if q * c_fin / s >= math.pi / 2.0:
            return False
    return True


def _cli(label, argv, outdir, expect, check_files):
    """A cli.run invocation; exit 1 must come with a message on stderr."""

    def call():
        return cli.run(argv + ["--out", str(outdir)])

    def check(code, stderr):
        if code not in expect:
            return [f"exit code {code}, expected one of {expect}"]
        if code == 1:
            return [] if stderr.strip() else ["exit code 1 without a message"]
        return checks.output_problems(outdir) + check_files()

    return Invocation(label, argv[0], call, check, outdir)


def materialize(workload, spec, workdir, observed):
    """Write input files under workdir and build (invocations, warm-up argv).

    The observed dict receives side observations: fig2 inputs outside the
    G-factor domain, and from the checks the largest MC z-score and the
    sweep minima on the search-bracket edge.
    """
    workdir = Path(workdir)
    invocations = []

    def outdir(label):
        path = workdir / "out" / label
        path.mkdir(parents=True, exist_ok=True)
        return path

    if workload == "mc":
        seeds = spec["seeds"]
        for i, run in enumerate(spec["mc"]):
            label = f"raman-mc[{i}]"
            out = outdir(label)
            argv = ["raman-mc", "--S", repr(run["S"]), "--r", repr(run["r"]), "--traj", str(MC_TRAJ),
                    "--steps", str(run["steps"]), "--mode", run["mode"], "--seed", str(seeds[i])]
            if run["corr_csv"]:
                argv.append("--corr-csv")

            def mc_check(out=out, corr=run["corr_csv"]):
                problems, max_z = checks.mc_problems(out / "raman_stats.json",
                                                     out / "raman_corr.csv" if corr else None)
                observed["mc_max_z"] = max(observed.get("mc_max_z", 0.0), max_z)
                return problems

            invocations.append(_cli(label, argv, out, (0,), mc_check))
        warmup = ["raman-mc", "--S", "50", "--r", "1.0", "--traj", "64", "--seed", str(seeds[3])]

    elif workload == "scan":
        out = outdir("sweep")

        def sweep_check(out=out):
            problems, edges = checks.sweep_problems(out / "sweep.csv")
            observed["sweep_edge_minima"] = edges
            return problems

        invocations.append(_cli("sweep", ["sweep", "--full-minimum"], out, (0,), sweep_check))
        observed["fig2_out_of_domain_inputs"] = 0
        for i, run in enumerate(spec["fig2"]):
            label = f"fig2[{i}]"
            out = outdir(label)
            argv = ["fig2", "--S", repr(run["S"]), "--qmax", repr(run["qmax"])]
            for eta in run["etas"]:
                argv += ["--eta", repr(eta)]
            in_domain = all(fig2_in_domain(run["S"], eta, run["qmax"]) for eta in run["etas"])
            observed["fig2_out_of_domain_inputs"] += not in_domain
            expect = (0,) if in_domain else (0, 1)
            invocations.append(_cli(label, argv, out, expect,
                                    lambda out=out, run=run: checks.fig2_problems(
                                        out / "fig2.csv", run["S"], run["etas"], FIG2_QPOINTS)))
        for i, design in enumerate(spec["design"]):
            config = workdir / f"design{i}.cfg"
            config.write_text(config_text(design["config"]), encoding="utf-8")
            for q_target in (None, design["q_target"]):
                label = f"design[{i}]" + ("" if q_target is None else "+q")
                out = outdir(label)
                argv = ["design", "--config", str(config)]
                if q_target is not None:
                    argv += ["--q-target", repr(q_target)]
                invocations.append(_cli(label, argv, out, (0,),
                                        lambda out=out, q=q_target: checks.design_problems(
                                            out / "design_report.json", q)))
        warmup = ["sweep", "--s-points", "2", "--eta-points", "2", "--full-minimum"]

    else:
        out = outdir("validate-oracle")
        invocations.append(_cli("validate-oracle", ["validate-oracle", "--smax", "200"], out, (0,),
                                lambda out=out: checks.validate_oracle_problems(out / "validate_oracle.csv")))
        for i, run in enumerate(spec["closed_vs_oracle"]):
            s, q = run["S"], run["q"]
            invocations.append(Invocation(
                f"closed_vs_oracle[{i}][S={s:g}]", "oracle_moments_sum",
                lambda s=s, q=q: (oracle.oracle_moments_sum(s, q), feedback.analytic_moments(s, q)),
                lambda v, _, s=s: checks.agreement_problems(
                    v[0], [("analytic_moments", v[1])], s, checks.LGAMMA_PATH_TOL[s])))
        for i, run in enumerate(spec["channel_vs_oracle"]):
            s, q = run["S"], run["q"]
            invocations.append(Invocation(
                f"channel_vs_oracle[{i}][S={s:g}]", "channel_moments",
                lambda s=s, q=q: (oracle.oracle_moments_sum(s, q), oracle.channel_moments(s, q),
                                  feedback.analytic_moments(s, q)),
                lambda v, _, s=s: checks.agreement_problems(
                    v[0], [("channel_moments", v[1]), ("analytic_moments", v[2])], s, checks.EXACT_PATH_TOL)))
        s = spec["dense_css_spin"]

        def dense_css(s=s):
            ens = EnsembleSpec(total_spin=s)
            return dicke.build_operators(ens), dicke.make_css(ens)

        invocations.append(Invocation(f"dense_css[S={s:g}]", "build_operators", dense_css,
                                      lambda v, _, s=s: checks.css_problems(v[0], v[1], s)))
        warmup = ["validate-oracle", "--smax", "10"]

    return invocations, warmup + ["--out", str(outdir("warmup"))]
