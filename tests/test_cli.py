import argparse
import contextlib
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import MANIFEST_KEYS

import cavsqueeze
from cavsqueeze import cli, raman
from cavsqueeze.design import design_report, operating_point
from cavsqueeze.params import cavity_params
from cavsqueeze.raman import fig2_curve, modified_min_variance
from cavsqueeze.serialize import _numpy_dispatch, write_json

MC_ARGV = ["raman-mc", "--S", "20", "--r", "0.5", "--traj", "600", "--steps", "4",
           "--seed", "5", "--corr-csv"]


def _run(argv, out):
    return cli.run(argv + ["--out", str(out)])


def test_raman_mc_same_seed_same_bytes(tmp_path):
    # 2600 trajectories span two chunks, the second one partial
    argv = ["raman-mc", "--S", "20", "--r", "0.5", "--traj", "2600", "--steps", "4", "--seed", "5", "--corr-csv"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(argv, a) == 0
    assert _run(argv, b) == 0
    for name in ("raman_stats.json", "raman_corr.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    stats = json.loads((a / "raman_stats.json").read_text())["stats"]
    assert stats["n_trajectories"] == 2600
    assert stats["n_events"] > 0


@pytest.mark.parametrize("argv, message", [
    (["raman-mc", "--S", "50", "--r", "-1", "--seed", "1"], "r must be nonnegative"),
    (["raman-mc", "--S", "-5", "--r", "0.1", "--seed", "1"], "positive half-integer"),
    # refused before any trajectory runs: r N = 1e6 lockstep events, 6.5e7 samples
    (["raman-mc", "--S", "50", "--r", "1e4", "--traj", "1", "--seed", "1"], "--mode gaussian"),
    (["raman-mc", "--S", "50", "--r", "0.1", "--traj", "1000000", "--steps", "64", "--seed", "1"],
     "MAX_SAMPLE_ELEMENTS"),
    # 3e7 + 1 samples pass MAX_SAMPLE_ELEMENTS, but 3e7 OU steps on one chunk would take ~10 minutes
    (["raman-mc", "--S", "50", "--r", "0.1", "--traj", "1", "--steps", "30000000", "--mode", "gaussian",
      "--seed", "1"], "MAX_LOCKSTEP"),
    (["raman-mc", "--S", "2.3", "--r", "0.1", "--seed", "1"], "positive half-integer, got 2.3"),
    # the seed range is [0, 2**128); 0 is a valid seed
    (["raman-mc", "--S", "20", "--r", "0.5", "--seed", "-1"], "[0, 2**128)"),
    (["raman-mc", "--S", "20", "--r", "0.5", "--seed", str(2 ** 128)], "[0, 2**128)"),
    # r is refused first among the Monte Carlo's inputs, ahead of a bad trajectory count, step count and seed
    (["raman-mc", "--S", "50", "--r", "-1", "--traj", "0", "--steps", "0", "--seed", "-1"],
     "raman-mc: r must be nonnegative and finite\n"),
])
def test_raman_mc_bad_input_exits_1_with_message(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert _run(argv, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("raman-mc: ")
    assert message in err
    assert not out.exists()


def test_raman_mc_runs_at_the_seed_range_ends(tmp_path):
    for seed in (0, 2 ** 128 - 1):
        assert _run(["raman-mc", "--S", "20", "--r", "0.5", "--traj", "10", "--seed", str(seed)],
                    tmp_path / str(seed)) == 0
        assert json.loads((tmp_path / str(seed) / "manifest.json").read_text())["seed"] == seed


# Which pins follow numpy's dispatch level.  numpy runs each float64 ufunc on a CPU-specific kernel, recorded as
# the manifest's numpy_dispatch, and exp, log, log1p, expm1 and power differ in their last bits between the AVX-512
# (X86_V4) and AVX2 (X86_V3) kernels.  The MC and design pins are one digest each: their bytes are the same under
# both (the MC's target column is formed with scalar math.exp for that reason).  The fig2, sweep and
# validate-oracle pins hold one digest per dispatch of those five ufuncs, and a dispatch with no digest fails and
# names itself.  test_every_pin_holds_under_numpys_avx2_kernels checks the second set in a child process.
_DISPATCH_UFUNCS = ("exp", "log", "log1p", "expm1", "power")
_X86_V4 = ("X86_V4",) * 5
_X86_V3 = ("X86_V3", "X86_V3", "baseline(X86_V2)", "baseline(X86_V2)", "baseline(X86_V2)")


def _dispatch_key(dispatch):
    return tuple(dispatch[name] for name in _DISPATCH_UFUNCS)


def _digest_at(digests, dispatch):
    """The digest pinned for a numpy_dispatch; a dispatch with none fails the test and is named."""
    key = _dispatch_key(dispatch)
    if key not in digests:
        pytest.fail(f"no digest pinned for numpy dispatch {dict(zip(_DISPATCH_UFUNCS, key))}")
    return digests[key]


# sha256 of the seeded MC outputs.  They depend on numpy's Generator streams (SeedSequence, PCG64 and the
# binomial, exponential, uniform and normal samplers) as well as on _CHUNK, _BLOCK and the draw order, so a
# numpy release that changes a sampler, or a change to the stream layout, has to edit them on purpose.
_MC_DIGESTS = [
    (MC_ARGV, "a09783f9108e165a2b0b4afe0499070dc5e502fa089bffcb0213ae3f03901844",
     "43f0b2cfc2e0e66901206d15eb21eda934cb1c53bd13b2a6673c6b885416e524"),
    (["raman-mc", "--S", "1e5", "--r", "0.05", "--traj", "4096", "--steps", "64", "--mode", "gaussian",
      "--seed", "5", "--corr-csv"], "492f764028e85fa892eb23a515bc8d90a00f7870556305cae6332129aae7fd6f",
     "27e6b3090078fc7d56edb4e3b72c2ebe6963ea2ee74eff56ef0eb31d7b242bf3"),
    # 64 lags: most blocks hold several lag samples, each found by the exact mode's binary search
    (["raman-mc", "--S", "50", "--r", "1.0", "--traj", "600", "--steps", "64", "--seed", "5", "--corr-csv"],
     "84ad83a9adf2b2d2912a0bf9a2d0dd9e204ee5f8287c899a7b0fac87ce34cc5b",
     "fc567fa718c1d07314bed97568c18e0b548d5e507d0b8311be64bd09b82d697c"),
    # one trajectory: every standard error undefined, null in the JSON and an empty CSV cell
    (["raman-mc", "--S", "20", "--r", "0.5", "--traj", "1", "--seed", "5", "--corr-csv"],
     "9f8e35e2b7e66429750d3f8161194acc07f6a7f9881a9a7603dbf90945670803",
     "2a070e1ebb39af23c39cefdb5ef147d00048fb7815fae1505c49c987cd792260"),
]


@pytest.mark.parametrize("argv, stats, corr", _MC_DIGESTS, ids=["exact", "gaussian", "exact-64-lags", "one-trajectory"])
def test_seeded_mc_bytes_are_pinned(tmp_path, argv, stats, corr):
    assert _run(argv, tmp_path) == 0
    for name, digest in (("raman_stats.json", stats), ("raman_corr.csv", corr)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of design_report.json: the worked example, the same system at a set Q, and a system that fails every
# validity flag; the closed forms, the full-curve minimiser, the report's keys and float repr all feed them.
_WORKED_CFG = "S = 10000\ng_hz = 4e5\nkappa_hz = 1e6\ngamma_hz = 6.07e6\ndelta_over_gamma = 500\np0 = 10\nt_s = 4e-4\n"
_DESIGN_DIGESTS = [
    (_WORKED_CFG, [], "42ef3fd892ee2b0780694760fe748f760dcce18c2ecaa1da94890546375d2f47"),
    (_WORKED_CFG, ["--q-target", "20"], "c5b130940670eb37400fbd89c69aa0fd948090f0cfcbf60b5c9740af27c355e2"),
    ("S = 100\ng_hz = 4e5\nkappa_hz = 1e6\ndelta_over_gamma = 2\nt_s = 1e-8\n", [],
     "973c72b4d1d2c9dcc37926eb0990d9beb101f6f47f658618a2377a74c347cd95"),
]


@pytest.mark.parametrize("config, flags, digest", _DESIGN_DIGESTS, ids=["worked", "q-target", "flags-false"])
def test_design_report_bytes_are_pinned(tmp_path, config, flags, digest):
    cfg = tmp_path / "system.cfg"
    cfg.write_text(config, encoding="utf-8")
    assert _run(["design", "--config", str(cfg), *flags], tmp_path / "out") == 0
    assert hashlib.sha256((tmp_path / "out" / "design_report.json").read_bytes()).hexdigest() == digest


# sha256 of validate-oracle's CSV at the benchmark's --smax 200: the closed forms, the oracle sums (the same
# bits as the full-range sums on this grid), the long-format rows and float repr all feed it, so a change to any
# of them shows here.
_ORACLE_CSV_DIGESTS = {
    _X86_V4: "f3f0e9668d2ddd763488c0f6b18d03532390b33d9e2210703e355f79738f8d14",
    _X86_V3: "943741df60426d664325b763ea785137bd5c8988efb2c1ca55c1cc51fbfc4862",
}


def test_validate_oracle_bytes_are_pinned(tmp_path):
    assert _run(["validate-oracle", "--smax", "200"], tmp_path) == 0
    digest = hashlib.sha256((tmp_path / "validate_oracle.csv").read_bytes()).hexdigest()
    assert digest == _digest_at(_ORACLE_CSV_DIGESTS, _numpy_dispatch())


def test_validate_oracle_writes_one_row_per_s_q_moment_under_the_long_schema(tmp_path, capsys):
    # S and Q lead and pass ends each row, which is what perfbench's check reads; r, route, reference and metric
    # are the dimensions later routes add rows along, so they are columns now
    assert _run(["validate-oracle", "--smax", "200"], tmp_path) == 0
    assert capsys.readouterr().out.startswith("80/80 rows within their bounds; wrote ")
    header, *lines = (tmp_path / "validate_oracle.csv").read_text().splitlines()
    assert header == "S,Q,r,moment,route,value,reference,reference_value,metric,error,bound,pass"
    rows = [dict(zip(header.split(","), line.split(","), strict=True)) for line in lines]
    assert len(rows) == 80
    assert {(r["r"], r["route"], r["reference"], r["metric"], r["bound"], r["pass"]) for r in rows} == {
        ("0.0", "sums", "closed", "relative", "1e-10", "true")}
    # a block of five Q per (S, moment): S ascending, var_y then cov_w, Q in grid order
    spins = ["0.5", "1.0", "2.0", "5.0", "10.0", "50.0", "100.0", "200.0"]
    assert [(r["S"], r["moment"]) for r in rows[::5]] == [(s, m) for s in spins for m in ("var_y", "cov_w")]
    assert [r["Q"] for r in rows[:5]] == ["0.0", "0.1", "1.0", "5.0", "0.25"]


# sha256 of the closed-form CSVs: fig2 at three cooperativities (eta-major blocks that share the Q and 1/Q
# columns) and the default sweep --full-minimum; the closed forms, the writer and float repr all feed them.
_CLOSED_FORM_CSV_DIGESTS = [
    (["fig2", "--S", "1000", "--eta", "0.01", "--eta", "0.1", "--eta", "1"], "fig2.csv",
     {_X86_V4: "5830097a1bf55fe66793e1da14d8daa8e94b42d2e91f50008cabe721420c4349",
      _X86_V3: "40e32cd3f71c72825a0ee47c691adfd49eafac76cbafd0742f3208a24ca031f0"}),
    (["sweep", "--full-minimum"], "sweep.csv",
     {_X86_V4: "980ed35c6792920d2706716e5866caea99d97874edbeb0f9248a3039faf9db4e",
      _X86_V3: "b41446883fa0e82cf998fdfb02181daaf937a598d1bb65487851311113d6be28"}),
]


@pytest.mark.parametrize("argv, name, digests", _CLOSED_FORM_CSV_DIGESTS, ids=["fig2", "sweep"])
def test_closed_form_csv_bytes_are_pinned(tmp_path, argv, name, digests):
    assert _run(argv, tmp_path) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == _digest_at(digests, _numpy_dispatch())


# a child that runs each argv of argv[1] (JSON) through cli.run and prints its dispatch and the exit codes
_PIN_CHILD = """import contextlib, json, sys
from cavsqueeze import cli, serialize
with contextlib.redirect_stdout(sys.stderr):
    codes = [cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"dispatch": serialize._numpy_dispatch(), "codes": codes}))
"""


def test_every_pin_holds_under_numpys_avx2_kernels(tmp_path):
    # NPY_DISABLE_CPU_FEATURES makes the child run numpy's AVX2 kernels, as a host without AVX-512 would; it is
    # that one process's environment, no machine setting
    runs = [(argv, {"raman_stats.json": stats, "raman_corr.csv": corr}) for argv, stats, corr in _MC_DIGESTS]
    for i, (config, flags, digest) in enumerate(_DESIGN_DIGESTS):
        (tmp_path / f"design{i}.cfg").write_text(config, encoding="utf-8")
        runs.append((["design", "--config", str(tmp_path / f"design{i}.cfg"), *flags], {"design_report.json": digest}))
    runs.append((["validate-oracle", "--smax", "200"], {"validate_oracle.csv": _ORACLE_CSV_DIGESTS}))
    runs += [(argv, {name: digests}) for argv, name, digests in _CLOSED_FORM_CSV_DIGESTS]
    argvs = [argv + ["--out", str(tmp_path / str(i))] for i, (argv, _) in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=str(Path(cavsqueeze.__file__).parents[1]),
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    done = subprocess.run([sys.executable, "-c", _PIN_CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout)
    if _dispatch_key(child["dispatch"]) == _dispatch_key(_numpy_dispatch()):
        pytest.skip("the child runs the same numpy kernels as this process: this host has no second level to check")
    assert child["codes"] == [0] * len(runs)
    for i, (argv, digests) in enumerate(runs):
        for name, digest in digests.items():
            pinned = digest if isinstance(digest, str) else _digest_at(digest, child["dispatch"])
            assert hashlib.sha256((tmp_path / str(i) / name).read_bytes()).hexdigest() == pinned, (argv, name)


def test_design_prints_the_limits_of_the_sweep_row_at_its_s_and_eta(tmp_path):
    # (S, eta) = (1e5, 0.1) sits on S eta^5 = 1; S eta >= 10 everywhere keeps r_opt under its warning
    assert _run(["sweep", "--s-min", "1e3", "--s-max", "1e5", "--s-points", "3",
                 "--eta-min", "1e-2", "--eta-max", "10", "--eta-points", "4"], tmp_path) == 0
    header, *lines = (tmp_path / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","), strict=True)) for line in lines]
    assert len(rows) == 12 and any(abs(float(row["s_eta5"]) - 1.0) < 1e-12 for row in rows)
    params = cavity_params({"g_hz": 4e5, "kappa_hz": 1e6, "gamma_hz": 6.07e6, "delta_over_gamma": 500.0})
    for row in rows:
        report = design_report(float(row["S"]), {**params, "eta": float(row["eta"])}, 4e-4, 1e-5)
        for key in ("q_curv", "sigma_curv_sq", "q_scatt", "r_opt", "sigma_scatt_sq"):
            assert report[key].hex() == float(row[key]).hex(), (row["S"], row["eta"], key)
        assert (report["limiting_regime"], report["near_boundary"]) == (row["regime"], row["near_boundary"] == "true")


def test_fig2_prints_the_curvature_floor_of_sweep_and_design_at_every_half_integer_s():
    # under numpy's X86_V4 power, Python's float ** differs from np.power by 1-2 ulp at 194 of the half-integer S
    # in [100, 2000], 101.5, 121 and 131.5 among them; fig2, sweep (an array call) and design (a scalar one) share one
    spins = np.arange(1, 4001) / 2.0
    floors = operating_point(spins, 10.0)["sigma_curv_sq"]  # eta = 10 keeps r_opt under its warning at every S
    for s, floor in zip(spins.tolist(), floors.tolist()):
        (block,) = fig2_curve(s, 0.1, [1.0])
        assert block[3].hex() == floor.hex() == operating_point(s, 10.0)["sigma_curv_sq"].hex(), s


_OUTSIDE = "outside the principal branch |Q_eff / S| < pi/2 of the G factor"


@pytest.mark.parametrize("etas, message", [
    # eta = 100 leaves the domain at a lower Q than eta = 3, so only the eta-major order names eta = 3's value
    (["0.1", "3", "100"], f"Q_eff / S = 1.5737079693215268: {_OUTSIDE}"),
    # every eta is checked before any Q_eff / S, so a non-positive eta is named wherever it stands
    (["100", "-1"], "eta must be positive and finite"),
    (["-1", "100"], "eta must be positive and finite"),
    # the benchmark's refused shape, three eta in [3, 10] at qmax >= 10 S: one kind of refusal, one message
    (["7.5", "3.2", "9.1"], f"Q_eff / S = 1.6096773428518647: {_OUTSIDE}"),
])
def test_fig2_checks_s_then_eta_then_q_then_the_domain(tmp_path, capsys, etas, message):
    out = tmp_path / "out"
    argv = ["fig2", "--S", "100", "--qmax", "1000"]
    for eta in etas:
        argv += ["--eta", eta]
    assert _run(argv, out) == 1
    assert capsys.readouterr().err == f"fig2: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("etas, code", [(["0.01", "0.1"], 0), (["100", "-1"], 1), (["0.1", "3", "100"], 1)])
def test_fig2_calls_modified_min_variance_once_whether_or_not_it_refuses(tmp_path, monkeypatch, etas, code):
    calls = []

    def counted(*args):
        calls.append(args)
        return modified_min_variance(*args)

    monkeypatch.setattr(raman, "modified_min_variance", counted)
    argv = ["fig2", "--S", "100", "--qmax", "1000"]
    for eta in etas:
        argv += ["--eta", eta]
    assert _run(argv, tmp_path) == code
    assert len(calls) == 1


def test_fig2_outside_g_factor_domain_exits_1_with_message(tmp_path, capsys):
    # Q_eff / S passes pi/2 on these grids: past the principal branch of the G
    # factor, refused at S = 100 and S = 10 alike
    for s, qmax in (("100", "1000"), ("10", "200")):
        out = tmp_path / s
        assert _run(["fig2", "--S", s, "--eta", "100", "--qmax", qmax], out) == 1
        err = capsys.readouterr().err
        assert err.startswith("fig2: ")
        assert "principal branch" in err
        assert not out.exists()


# refused before any grid or file is built; the counts sit just above the
# limits, so a missing check would cost a few hundred MB at most
_FIG2_HALF = str(cli.MAX_FIG2_POINTS // 2 + 1)


def test_fig2_q_grid_is_geometric_unless_linear(tmp_path):
    for flag, spacing in (([], "ratio"), (["--linear-grid"], "step")):
        out = tmp_path / spacing
        assert _run(["fig2", "--S", "100", "--eta", "0.1", "--qmin", "1", "--qmax", "81", "--qpoints", "5",
                     *flag], out) == 0
        q = [float(line.split(",")[1]) for line in (out / "fig2.csv").read_text().splitlines()[1:]]
        expected = [1.0, 3.0, 9.0, 27.0, 81.0] if spacing == "ratio" else [1.0, 21.0, 41.0, 61.0, 81.0]
        assert q == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("argv", [
    ["sweep", "--s-min", "-1"],
    ["sweep", "--eta-min", "0"],
    ["sweep", "--s-points", "0"],
    ["sweep", "--s-points", "129", "--eta-points", "128"],
    ["fig2", "--S", "0", "--eta", "0.1"],
    ["fig2", "--S", "2.3", "--eta", "0.1"],
    ["fig2", "--S", "100", "--eta", "0.1", "--eta", "0.2", "--qpoints", _FIG2_HALF],
    ["validate-oracle", "--smax", "0.4"],
    ["design", "--config", "no-such-file.cfg"],
    # nan and inf pass every range comparison, so each is refused where it enters
    ["fig2", "--S", "100", "--eta", "0.1", "--qmin", "nan", "--qpoints", "3"],
    ["fig2", "--S", "100", "--eta", "nan"],
    ["fig2", "--S", "100", "--eta", "0.1", "--qmax", "inf"],
    ["sweep", "--s-min", "nan"],
    ["design", "--config", "{cfg}", "--eps-max", "nan"],
    ["design", "--config", "{cfg}", "--q-target", "nan"],
    # an excited-state population above 1 is no limit: --eps-max 2 used to report t_min_seconds 1.6e-6
    ["design", "--config", "{cfg}", "--eps-max", "2"],
    ["design", "--config", "{nan_cfg}"],
], ids=" ".join)
def test_refused_input_exits_1_with_message_and_no_output(tmp_path, capsys, argv):
    non_finite = bool({"nan", "inf", "{nan_cfg}"} & set(argv))
    config = "S = 1e4\ng_hz = {g}\nkappa_hz = 1e6\ndelta_over_gamma = 500.0\np0 = 100.0\nt_s = 4e-4\n"
    for name, g in (("cfg", "4e5"), ("nan_cfg", "nan")):
        (tmp_path / f"{name}.cfg").write_text(config.format(g=g), encoding="utf-8")
    argv = [a.format(cfg=tmp_path / "cfg.cfg", nan_cfg=tmp_path / "nan_cfg.cfg") for a in argv]
    out = tmp_path / "out"
    assert _run(argv, out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{argv[0]}: ")
    if non_finite:
        assert "must be finite" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


# 2S past 2**53, where every float is an integer and so would pass the half-integer test: before the cap, raman-mc
# overflowed a C long in the binomial draw and fig2 exited 0 with nan cells
@pytest.mark.parametrize("argv", [
    ["raman-mc", "--S", "1e300", "--r", "0", "--traj", "1", "--seed", "1"],
    ["raman-mc", "--S", "1e20", "--r", "0", "--traj", "1", "--seed", "1"],
    ["raman-mc", "--S", str(2 ** 52 + 1), "--r", "0", "--traj", "1", "--seed", "1", "--mode", "gaussian"],
    ["fig2", "--S", "1e300", "--eta", "1"],
    ["sweep", "--s-min", "1e300", "--s-max", "1e300", "--s-points", "1", "--eta-points", "1"],
    ["design", "--config", "{cfg}"],
], ids=lambda argv: " ".join(argv[:3]))
def test_a_spin_past_the_cap_exits_1_with_message(tmp_path, capsys, argv):
    cfg = tmp_path / "system.cfg"
    cfg.write_text(_SYSTEM_CFG.format(S="1e300"), encoding="utf-8")
    out = tmp_path / "out"
    assert _run([a.format(cfg=cfg) for a in argv], out) == 1
    assert capsys.readouterr().err.startswith(f"{argv[0]}: total spin must be a positive half-integer with 2S <= 2**53")
    assert not out.exists()


# --S at the ends of the float range and either side of the spin cap: 2**52 is the largest spin, 2**52 + 1 the first
# refused; sizes stay small, so a run that passes every refusal allocates little
_FUZZ_S = [5e-324, 1e-300, 0.5, float(2 ** 52), float(2 ** 52 + 1), 1e300]


def _fuzz_argv(command, s, size, r, mode, cfg):
    s = repr(s)
    return {
        "fig2": ["fig2", "--S", s, "--eta", "0.1", "--qpoints", str(size)],
        "validate-oracle": ["validate-oracle", "--smax", s],
        "raman-mc": ["raman-mc", "--S", s, "--r", r, "--traj", str(size), "--steps", "2", "--seed", "1",
                     "--mode", mode, "--corr-csv"],
        "design": ["design", "--config", str(cfg)],
        "sweep": ["sweep", "--s-min", s, "--s-max", s, "--s-points", str(size), "--eta-points", "2",
                  "--full-minimum"],
    }[command]


# each fuzz example runs under tracemalloc and a deadline: over the three tests the largest peak measured is 0.14 MB
# and the slowest example 29 ms (validate-oracle --smax 2**52 + 1), so 4 MB and 1 s still refuse any allocation or
# loop that grows with a size
_FUZZ_PEAK_BYTES = 4_000_000
_FUZZ_DEADLINE_MS = 1000


@contextlib.contextmanager
def _bounded_peak():
    """Trace the allocations of one fuzz example and assert that their peak stays under _FUZZ_PEAK_BYTES."""
    tracemalloc.start()
    try:
        yield
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _FUZZ_PEAK_BYTES, peak


def _csv_numbers(path):
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                yield float(cell)
            except ValueError:  # an empty, boolean or regime cell
                pass


@settings(derandomize=True, max_examples=150, deadline=_FUZZ_DEADLINE_MS)
@given(command=st.sampled_from(["fig2", "validate-oracle", "raman-mc", "design", "sweep"]),
       s=st.sampled_from(_FUZZ_S), size=st.integers(0, 3), r=st.sampled_from(["0", "0.5"]),
       mode=st.sampled_from(["exact", "gaussian"]))
def test_extreme_spins_exit_cleanly_with_finite_output(command, s, size, r, mode):
    with _bounded_peak(), tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "system.cfg", Path(tmp) / "out"
        cfg.write_text(_SYSTEM_CFG.format(S=repr(s)), encoding="utf-8")
        _assert_clean_exit(_run(_fuzz_argv(command, s, size, r, mode, cfg), out), out)


def _assert_clean_exit(code, out):
    """Exit 0, 1 or 2, no --out on exit 1, and only finite numbers in the files of exit 0."""
    assert code in (0, 1, 2)
    assert out.exists() == (code != 1)
    for path in out.iterdir() if code == 0 else ():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_raise_on_constant)
        else:
            assert all(map(math.isfinite, _csv_numbers(path))), path.name


# one option at a time, on an argv that is valid without it: the finite extremes, -0.0, and None for an ordinary value
_OPTION_ARGV = {
    "--eta": (["fig2", "--S", "100", "--qpoints", "3"], "0.1"),
    "--qmin": (["fig2", "--S", "100", "--eta", "0.1", "--qpoints", "3"], "2.0"),
    "--qmax": (["fig2", "--S", "100", "--eta", "0.1", "--qpoints", "3"], "500.0"),
    "--r": (["raman-mc", "--S", "20", "--steps", "2", "--seed", "1", "--corr-csv"], "0.5"),
    "--eps-max": (["design", "--config", "{cfg}"], "1e-4"),
    "--q-target": (["design", "--config", "{cfg}"], "20.0"),
    "--eta-min": (["sweep", "--s-points", "2", "--eta-points", "2", "--full-minimum"], "0.01"),
    "--eta-max": (["sweep", "--s-points", "2", "--eta-points", "2", "--full-minimum"], "1.0"),
}


@settings(derandomize=True, max_examples=150, deadline=_FUZZ_DEADLINE_MS)
@given(option=st.sampled_from(sorted(_OPTION_ARGV)), value=st.sampled_from(["-0.0", "5e-324", "1e300", None]),
       traj=st.integers(0, 3), mode=st.sampled_from(["exact", "gaussian"]))
def test_extreme_option_values_exit_cleanly_with_finite_output(option, value, traj, mode):
    argv, ordinary = _OPTION_ARGV[option]
    argv = argv + [option, ordinary if value is None else value]
    if option == "--r":
        argv += ["--traj", str(traj), "--mode", mode]
    with _bounded_peak(), tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "system.cfg", Path(tmp) / "out"
        cfg.write_text(_SYSTEM_CFG.format(S="1e4"), encoding="utf-8")
        _assert_clean_exit(_run([a.format(cfg=cfg) for a in argv], out), out)


# integer options one at a time, on an argv valid without them: (argv, the refusal of a count below 1, the cap's
# name).  Every cap refuses before anything is allocated; --seed refuses only -1, as its range is [0, 2**128)
_RAMAN_ARGV = ["raman-mc", "--S", "20", "--r", "0.5"]
_INTEGER_OPTION_ARGV = {
    "--qpoints": (["fig2", "--S", "100", "--eta", "0.1"], "qpoints >= 2", "MAX_FIG2_POINTS"),
    "--traj": (_RAMAN_ARGV + ["--steps", "2", "--seed", "1"], "at least one trajectory", "MAX_SAMPLE_ELEMENTS"),
    "--steps": (_RAMAN_ARGV + ["--traj", "2", "--seed", "1"], "invalid step count", "MAX_SAMPLE_ELEMENTS"),
    "--seed": (_RAMAN_ARGV + ["--traj", "2", "--steps", "2"], "[0, 2**128)", None),
    "--s-points": (["sweep", "--eta-points", "2"], "at least one point each", "MAX_SWEEP_POINTS"),
    "--eta-points": (["sweep", "--s-points", "2"], "at least one point each", "MAX_SWEEP_POINTS"),
}


@settings(derandomize=True, max_examples=100, deadline=_FUZZ_DEADLINE_MS)
@given(option=st.sampled_from(sorted(_INTEGER_OPTION_ARGV)), value=st.sampled_from([-1, 0, 2 ** 63, 10 ** 30]))
def test_extreme_integer_options_are_refused_by_their_domain_or_cap(option, value):
    argv, domain, cap = _INTEGER_OPTION_ARGV[option]
    with _bounded_peak(), tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        out = Path(tmp) / "out"
        code = _run(argv + [option, str(value)], out)
        if cap is None and value >= 0:  # a seed in range runs
            assert code == 0
            _assert_clean_exit(code, out)
        else:
            assert code == 1
            assert not out.exists()
            assert err.getvalue().startswith(f"{argv[0]}: ")
            assert (domain if value < 1 or cap is None else cap) in err.getvalue()
            assert "Traceback" not in err.getvalue()


# accepted inputs whose output a writer refused as nan or inf: run used to create --out before the writers ran.  A
# subnormal --qmin overflows fig2's 1 / Q, and a --q-target of 1e300 underflows the contrast C^2 to 0.0: both were
# refused only by the writers' catch-alls, and are now refused by name.  The
# sweeps overflow S eta^5, which operating_point refuses by name before any writer runs, or 3 / (16 S eta) in
# operating_point (or S eta underflows to 0.0 there), and fig2 at eta = 1e-308 overflows r = Q / (4 S eta): each
# of the last four used to be refused as "r" by correlation_integrals, or as an inf CSV cell by the writer
_TINY_ETA_SWEEP = ["sweep", "--eta-min", "1e-320", "--eta-max", "1e-319", "--eta-points", "2", "--s-points", "2"]


@pytest.mark.parametrize("argv, message", [
    (["fig2", "--S", "100", "--eta", "0.1", "--qmin", "5e-324"],
     "sigma_ideal_sq = 1 / Q (--qmin) must be nonnegative and finite"),
    (["design", "--config", "{cfg}", "--q-target", "1e300"],
     "contrast_sq = |<S~_+>|^2 / S^2 (--q-target) must be positive and finite"),
    (["sweep", "--eta-min", "1e300", "--eta-max", "1", "--s-points", "2", "--eta-points", "2", "--full-minimum"],
     "S eta^5 must be nonnegative and finite"),
    (["sweep", "--eta-min", "0.1", "--eta-max", "1e300", "--s-points", "2", "--eta-points", "2", "--full-minimum"],
     "S eta^5 must be nonnegative and finite"),
    (["fig2", "--S", "100", "--eta", "1e-308"], "Q / (4 S eta) must be nonnegative and finite"),
    (_TINY_ETA_SWEEP, "3 / (16 S eta) must be nonnegative and finite"),
    (_TINY_ETA_SWEEP + ["--full-minimum"], "3 / (16 S eta) must be nonnegative and finite"),
    (["sweep", "--s-min", "0.5", "--s-max", "0.5", "--s-points", "1", "--eta-min", "5e-324", "--eta-max", "5e-324",
      "--eta-points", "1"], "3 / (16 S eta) must be nonnegative and finite"),
], ids=["fig2 --qmin 5e-324", "design --q-target 1e300",
        "sweep --eta-min 1e300", "sweep --eta-max 1e300", "fig2 --eta 1e-308", "sweep --eta-max 1e-319",
        "sweep --eta-max 1e-319 --full-minimum", "sweep S eta = 0.0"])
def test_a_value_refused_at_write_time_leaves_no_out(tmp_path, capsys, argv, message):
    cfg = tmp_path / "system.cfg"  # the worked example without p0
    cfg.write_text("S = 10000\ng_hz = 4e5\nkappa_hz = 1e6\ndelta_over_gamma = 500\nt_s = 4e-4\n", encoding="utf-8")
    out = tmp_path / "out"
    assert _run([a.format(cfg=cfg) for a in argv], out) == 1
    assert capsys.readouterr().err == f"{argv[0]}: {message}\n"
    assert not out.exists()


def test_fig2_where_q_squared_overflows_dephases_to_the_css(tmp_path):
    # Q^2 overflows from Q = 1.3e154 on, and (2r)^2 from r = Q / (4 S eta) = 6.7e153 (Q = 2.7e155), where c_bar_sq
    # read 0.0: the dephasing Q^2 (c_bar_sq - c_bar_fin^2) was refused as inf * 0 at Q = 6.1e156, the first grid
    # point past both.  c_bar_sq = 2 (1 - c_bar_fin) / 2r stays positive, so the coherences dephase to 0 and sigma^2
    # is the CSS's 1 from Q = 1.035e3 on
    out = tmp_path / "out"
    assert _run(["fig2", "--S", "100", "--eta", "0.1", "--qmax", "1e300"], out) == 0
    _assert_clean_exit(0, out)
    header, *lines = (out / "fig2.csv").read_text().splitlines()
    assert header.startswith("eta,Q,sigma_min_sq,") and len(lines) == 200
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    tail = [sigma for _, q, sigma, *_ in rows if q >= 1.035e3]
    assert len(tail) == 198 and set(tail) == {1.0}


def test_a_sweep_spin_past_the_cap_is_named_as_given(tmp_path, capsys):
    # nearest_spin doubled 1e308 to inf before twice_spin saw it, so the message named inf
    out = tmp_path / "out"
    assert _run(["sweep", "--s-min", "1e308", "--s-max", "1e308"], out) == 1
    assert capsys.readouterr().err == "sweep: total spin must be a positive half-integer with 2S <= 2**53, got 1e+308\n"
    assert not out.exists()


# finite cavity values whose derived Omega, eta or (2 Omega / kappa)^2 over- or underflows, a subnormal t_s whose
# drive rate 2 p0 / (kappa t) overflows and a t_s whose kappa t overflows: each used to be refused later under a
# derived name (eta, shearing strength) or, at delta_hz = 1e-310 and t_s = 1e-310, 1e-320 or 1e303, by json at
# write time
_DRIVE_RATE = "drive rate 2 p0 / (kappa t) (t_s) must be nonnegative and finite"


@pytest.mark.parametrize("key, value, message", [
    ("g_hz", "1e200", "Omega = 2 g^2 / |Delta| (g_hz, delta_over_gamma, gamma_hz) must be positive and finite"),
    ("gamma_hz", "1e-310", "Omega = 2 g^2 / |Delta| (g_hz, delta_over_gamma, gamma_hz) must be positive and finite"),
    ("kappa_hz", "1e-300",
     "(2 Omega / kappa)^2 (g_hz, kappa_hz, delta_over_gamma, gamma_hz) must be positive and finite"),
    ("delta_hz", "1e-310", "Omega = 2 g^2 / |Delta| (g_hz, delta_hz) must be positive and finite"),
    ("g_hz", "1e-200", "Omega = 2 g^2 / |Delta| (g_hz, delta_over_gamma, gamma_hz) must be positive and finite"),
    ("t_s", "1e-310", _DRIVE_RATE),
    ("t_s", "1e-320", _DRIVE_RATE),
    ("t_s", "1e303", "kappa t (kappa_hz, t_s) must be positive and finite"),
], ids=["g_hz=1e200", "gamma_hz=1e-310", "kappa_hz=1e-300", "delta_hz=1e-310", "g_hz=1e-200", "t_s=1e-310",
        "t_s=1e-320", "t_s=1e303"])
def test_a_cavity_value_whose_derived_coupling_overflows_is_named_by_its_keys(tmp_path, capsys, key, value, message):
    cfg = {"S": "1e4", "g_hz": "4e5", "kappa_hz": "1e6", "delta_over_gamma": "500.0", "p0": "100.0", "t_s": "4e-4"}
    if key == "delta_hz":
        del cfg["delta_over_gamma"]
    cfg[key] = value
    path = tmp_path / "system.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
    out = tmp_path / "out"
    assert _run(["design", "--config", str(path)], out) == 1
    assert capsys.readouterr().err == f"design: {message}\n"
    assert not out.exists()


def test_a_normal_t_s_near_the_drive_rate_overflow_runs(tmp_path):
    # t_s = 1e-308 gives a drive rate ~3e306, still finite: the report is written
    path = tmp_path / "system.cfg"
    path.write_text("S = 1e4\ng_hz = 4e5\nkappa_hz = 1e6\ndelta_over_gamma = 500\nt_s = 1e-308\n", encoding="utf-8")
    out = tmp_path / "out"
    assert _run(["design", "--config", str(path)], out) == 0
    _assert_clean_exit(0, out)
    assert json.loads((out / "design_report.json").read_text())["validity"]["excited_pop"] > 1e298


# S eta^5 past the float range although S eta is finite: design exited 0 with an "overflow encountered in power"
# warning in its manifest, and sweep wrote s_eta5 = inf until the CSV writer refused it
@pytest.mark.parametrize("argv", [
    ["design", "--config", "{cfg}"],
    ["sweep", "--eta-min", "1e60", "--eta-max", "1e61", "--eta-points", "2", "--s-points", "2"],
], ids=["design", "sweep"])
def test_an_s_eta5_that_overflows_is_refused_by_name(tmp_path, capsys, argv):
    cfg = tmp_path / "system.cfg"  # the worked example's S, g and kappa at eta ~ 6e65
    cfg.write_text("S = 1e4\ng_hz = 4e5\nkappa_hz = 1e6\ngamma_hz = 1e-60\ndelta_hz = 1e9\nt_s = 4e-4\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert _run([a.format(cfg=cfg) for a in argv], out) == 1
    assert capsys.readouterr().err == f"{argv[0]}: S eta^5 must be nonnegative and finite\n"
    assert not out.exists()


def test_an_s_eta5_that_underflows_is_scattering_limited(tmp_path):
    # S eta^5 = 0.0 in float64 (eta <= 1e-69) is written as 0 and classified as before the overflow refusal
    out = tmp_path / "out"
    assert _run(["sweep", "--eta-min", "1e-70", "--eta-max", "1e-69", "--eta-points", "2", "--s-points", "2"], out) == 0
    _assert_clean_exit(0, out)
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [(float(row[2]), row[3]) for row in rows] == [(0.0, "scattering")] * 4
    # the one warning is operating_point's r_opt >> 0.3, no numpy floating-point warning
    assert [w["message"][:6] for w in json.loads((out / "manifest.json").read_text())["warnings"]] == ["r_opt "]


# a coupling whose eta and (2 Omega / kappa)^2 are finite but overflow once multiplied by S: the first used to be
# refused as "shearing strength", the second exited 0 with p0_required 0.0 and an overflow warning
@pytest.mark.parametrize("cavity, message", [
    ("kappa_hz = 1e6\ngamma_hz = 1e-300\ndelta_hz = 1e9\n", "S eta"),
    ("kappa_hz = 1e-150\ndelta_over_gamma = 500\n", "S (2 Omega / kappa)^2"),
], ids=["S*eta", "S*(2Omega/kappa)^2"])
def test_design_refuses_a_product_with_s_that_overflows_by_name(tmp_path, capsys, cavity, message):
    path = tmp_path / "system.cfg"
    path.write_text(f"S = 1e4\ng_hz = 4e5\n{cavity}t_s = 4e-4\n", encoding="utf-8")
    out = tmp_path / "out"
    assert _run(["design", "--config", str(path)], out) == 1
    assert capsys.readouterr().err == f"design: {message} must be positive and finite\n"
    assert not out.exists()


# eta = 4e-314 puts 3 / (16 S eta) past the float range: operating_point refuses it before full_curve_minimum
# reaches r = Q / (4 S eta), which used to be refused as "r"; kappa t = 6e-330 underflows to 0.0, and the drive
# rate 2 p0 / (kappa t) used to raise ZeroDivisionError.  Of the drive budget's other quantities, a kappa Gamma that
# underflows used to raise ZeroDivisionError in cavity_params, a (g / Delta)^2 or (kappa / g)^2 that overflows
# OverflowError, and an epsilon, kappa_t_min_saturation (--eps-max 5e-324 or 1e-320) or t_min_seconds (a subnormal
# kappa) that overflows reached json as inf.  A --q-target of 2e5 or more underflows the contrast C^2 to 0.0, and
# xi^2 = sigma^2 / C^2 used to raise ZeroDivisionError
_WORKED_CAVITY = "g_hz = 4e5\nkappa_hz = 1e6\ngamma_hz = 6.07e6\ndelta_over_gamma = 500\nt_s = 4e-4\n"


@pytest.mark.parametrize("cavity, flags, message", [
    ("g_hz = 1e-151\nkappa_hz = 1e6\ngamma_hz = 1e6\ndelta_hz = 1e-150\nt_s = 4e-4\n", [],
     "3 / (16 S eta) must be nonnegative and finite"),
    ("g_hz = 4e5\nkappa_hz = 1e-10\ndelta_over_gamma = 500\nt_s = 1e-320\n", [],
     "kappa t (kappa_hz, t_s) must be positive and finite"),
    ("g_hz = 4e5\nkappa_hz = 5e-324\ngamma_hz = 5e-324\ndelta_over_gamma = 500\nt_s = 4e-4\n", [],
     "kappa Gamma (kappa_hz, gamma_hz) must be positive and finite"),
    ("g_hz = 1e-140\nkappa_hz = 1e6\ndelta_hz = 1e-300\nt_s = 4e-4\n", [],
     "(g / Delta)^2 (g_hz, delta_hz or delta_over_gamma) must be nonnegative and finite"),
    ("g_hz = 1e7\nkappa_hz = 1e159\ngamma_hz = 1e11\ndelta_hz = 1e-114\nt_s = 1e-300\n", [],
     "excited_pop (g_hz, delta_hz or delta_over_gamma, t_s) must be nonnegative and finite"),
    ("g_hz = 1e145\nkappa_hz = 1e300\ngamma_hz = 1e-10\ndelta_hz = 1e140\nt_s = 4e-4\n", [],
     "(kappa / g)^2 (kappa_hz, g_hz) must be nonnegative and finite"),
    (_WORKED_CAVITY, ["--eps-max", "5e-324"],
     "kappa_t_min_saturation (kappa_hz, g_hz, --eps-max) must be nonnegative and finite"),
    (_WORKED_CAVITY, ["--eps-max", "1e-320"],
     "kappa_t_min_saturation (kappa_hz, g_hz, --eps-max) must be nonnegative and finite"),
    ("g_hz = 1e-82\nkappa_hz = 5e-324\ngamma_hz = 1e300\ndelta_hz = 1e12\nt_s = 1e300\n", [],
     "t_min_seconds (kappa_hz, --eps-max) must be nonnegative and finite"),
    *[(_WORKED_CAVITY, ["--q-target", q], "contrast_sq = |<S~_+>|^2 / S^2 (--q-target) must be positive and finite")
      for q in ("2e5", "1e6", "1e8")],
], ids=["r_opt overflow", "kappa t underflow", "kappa Gamma underflow", "(g/Delta)^2 overflow", "excited_pop overflow",
        "(kappa/g)^2 overflow", "--eps-max 5e-324", "--eps-max 1e-320", "t_min_seconds overflow",
        "--q-target 2e5", "--q-target 1e6", "--q-target 1e8"])
def test_a_design_value_derived_from_several_keys_is_refused_by_name(tmp_path, capsys, cavity, flags, message):
    path = tmp_path / "system.cfg"
    path.write_text(f"S = 1e4\n{cavity}", encoding="utf-8")
    out = tmp_path / "out"
    assert _run(["design", "--config", str(path), *flags], out) == 1
    assert capsys.readouterr().err == f"design: {message}\n"
    assert not out.exists()


# the config file's values, two keys at a time, at the ends of the float range on the worked system (its detuning as
# delta_hz), and the three systems of the test above whose refusals used to be a traceback
_CONFIG_KEYS = ("S", "g_hz", "kappa_hz", "gamma_hz", "delta_hz", "t_s")
_CONFIG_VALUES = (5e-324, 1e-300, 1e-160, 1e160, 1e300, 1.7e308)
_WORKED_SYSTEM = {"S": 1e4, "g_hz": 4e5, "kappa_hz": 1e6, "gamma_hz": 6.07e6, "delta_hz": 3.035e9, "t_s": 4e-4}


@settings(derandomize=True, max_examples=200, deadline=_FUZZ_DEADLINE_MS)
@given(keys=st.sampled_from(list(itertools.combinations(_CONFIG_KEYS, 2))),
       values=st.tuples(st.sampled_from(_CONFIG_VALUES), st.sampled_from(_CONFIG_VALUES)))
@example(keys=("kappa_hz", "gamma_hz"), values=(5e-324, 5e-324))
@example(keys=("g_hz", "delta_hz"), values=(1e-140, 1e-300))
@example(keys=("g_hz", "kappa_hz", "gamma_hz", "delta_hz"), values=(1e145, 1e300, 1e-10, 1e140))
def test_extreme_config_values_exit_cleanly_with_finite_output(keys, values):
    system = {**_WORKED_SYSTEM, **dict(zip(keys, values))}
    with _bounded_peak(), tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        cfg, out = Path(tmp) / "system.cfg", Path(tmp) / "out"
        cfg.write_text("".join(f"{k} = {v!r}\n" for k, v in system.items()), encoding="utf-8")
        code = _run(["design", "--config", str(cfg)], out)
        _assert_clean_exit(code, out)
        assert code == 0 or err.getvalue().startswith("design: ")
        assert not any(text in err.getvalue() for text in ("Traceback", "JSON compliant", "CSV cells must be finite"))


# accepted extremes whose printed numbers are right but whose manifest used to record a numpy overflow warning:
# a = 2r ~ 1e300 in correlation_integrals (whose square overflowed), and waiting times past the float range at
# r N = 5e-324 in the exact kernel (no event falls in the pulse).  Past r ~ 9e307, 2r itself overflowed: the lag
# target -2r lag was -inf * 0 = nan at lag 0 (refused by the CSV writer, and by json in mc_health at --steps 1),
# the gaussian step's decay overflowed and c_bar_sq, c_bar_fin read 0.0.  Past Q ~ 1.3e154 the dephasing's Q^2
# overflowed, though its limit, a coherence damped to 0, was printed right
_GAUSSIAN_2R_OVERFLOWS = ["raman-mc", "--S", "0.5", "--traj", "2", "--seed", "1", "--mode", "gaussian"]


@pytest.mark.parametrize("argv", [
    ["fig2", "--S", "100", "--eta", "1e-300", "--qpoints", "2"],
    ["raman-mc", "--S", "0.5", "--r", "1e300", "--traj", "1", "--steps", "2", "--seed", "1", "--mode", "gaussian"],
    ["raman-mc", "--S", "0.5", "--r", "5e-324", "--traj", "3", "--steps", "2", "--seed", "1"],
    [*_GAUSSIAN_2R_OVERFLOWS, "--r", "1e308", "--steps", "2", "--corr-csv"],
    [*_GAUSSIAN_2R_OVERFLOWS, "--r", "1e308", "--steps", "2"],
    [*_GAUSSIAN_2R_OVERFLOWS, "--r", "1.7e308", "--steps", "1"],
    ["fig2", "--S", "100", "--eta", "1e-6", "--qmin", "1e155", "--qmax", "1e156", "--qpoints", "2"],
], ids=["fig2 --eta 1e-300", "raman-mc --r 1e300", "raman-mc --r 5e-324", "raman-mc --r 1e308 --corr-csv",
        "raman-mc --r 1e308", "raman-mc --r 1.7e308 --steps 1", "fig2 --qmin 1e155"])
def test_an_extreme_accepted_input_records_no_numpy_warning(tmp_path, argv):
    out = tmp_path / "out"
    assert _run(argv, out) == 0
    _assert_clean_exit(0, out)
    assert json.loads((out / "manifest.json").read_text())["warnings"] == []
    if "5e-324" in argv:
        assert json.loads((out / "raman_stats.json").read_text())["stats"]["n_events"] == 0
    if "--corr-csv" in argv:
        # the target e^{-2 r lag} is 1 at lag 0 and 0 past it
        assert [line.rpartition(",")[2] for line in (out / "raman_corr.csv").read_text().splitlines()] == [
            "target", "1.0", "0.0", "0.0"]


def test_raman_mc_makes_its_out_once_and_a_run_refused_at_write_time_none(tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir
    monkeypatch.setattr(Path, "mkdir", lambda self, *args, **kwargs: made.append(self) or mkdir(self, *args, **kwargs))
    argv = ["raman-mc", "--S", "2", "--r", "0.5", "--traj", "8", "--steps", "2", "--seed", "1", "--corr-csv"]
    out = tmp_path / "out"
    assert _run(argv, out) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "raman_corr.csv", "raman_stats.json"]
    assert made == [out]
    # a nan estimate reaches the JSON writer, which refuses it before the file or --out exists
    sample = cli.sample_trajectories
    monkeypatch.setattr(cli, "sample_trajectories", lambda *a, **k: {**sample(*a, **k), "cov_bar_final": math.nan})
    refused = tmp_path / "refused"
    assert _run(argv, refused) == 1
    assert not refused.exists()


@pytest.mark.parametrize("r", ["1e-17", "1e-20", "5e-324"])
def test_gaussian_mc_at_a_rate_whose_decay_rounds_to_1_runs_as_at_r_0(tmp_path, r):
    # exp(-2 r h) == 1.0 made the OU step's var_z 0, and the step divided by it (ZeroDivisionError)
    stats = {}
    for rate in ("0", r):
        out = tmp_path / rate
        argv = ["raman-mc", "--S", "20", "--r", rate, "--traj", "2", "--steps", "2", "--seed", "1", "--mode", "gaussian",
                "--corr-csv"]
        assert _run(argv, out) == 0
        _assert_clean_exit(0, out)
        stats[rate] = json.loads((out / "raman_stats.json").read_text())["stats"]
    assert stats[r] == stats["0"]


@pytest.mark.parametrize("r", ["1e-15", "1e-12", "1e-9", "5e-4", "2e-3"])
def test_gaussian_mc_at_a_tiny_rate_stays_on_its_targets(tmp_path, r):
    # the OU step's var_i bracket, O((theta h)^3) built from O(theta h) terms, cancelled: mean_sz_bar_sq read
    # 7.997e12, 2.2e8 and 294.9 at the first three rates against 9.811 at r = 0.  At --steps 2, theta h = r: the
    # last two sit on either side of theta h = 1e-3, where the step used to switch from a series to that bracket
    argv = ["raman-mc", "--S", "20", "--r", r, "--traj", "2000", "--steps", "2", "--seed", "1", "--mode", "gaussian"]
    assert _run(argv, tmp_path) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["mc_health"]["worst_z"] < 3.0


def test_sweep_below_spin_half_is_refused(tmp_path, capsys):
    # S = 0.1 and 0.2 round to no spin at all
    out = tmp_path / "out"
    argv = ["sweep", "--s-min", "0.1", "--s-max", "0.2", "--s-points", "2", "--eta-points", "2", "--full-minimum"]
    assert _run(argv, out) == 1
    assert "sweep: total spin must be a positive half-integer" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_writes_the_half_integer_spins_it_evaluates(tmp_path):
    assert _run(["sweep", "--s-points", "9", "--eta-points", "2", "--full-minimum"], tmp_path) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    spins = sorted({float(line.split(",")[0]) for line in lines[1:]})
    assert spins == [100.0, 316.0, 1000.0, 3162.5, 10000.0, 31623.0, 100000.0, 316228.0, 1000000.0]


def _raise_on_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


def test_raman_mc_one_trajectory_writes_standard_json(tmp_path):
    # one trajectory: every standard error is undefined, written as null / an empty cell
    assert _run(["raman-mc", "--S", "20", "--r", "0.5", "--traj", "1", "--seed", "5", "--corr-csv"], tmp_path) == 0
    for name in ("raman_stats.json", "manifest.json"):
        json.loads((tmp_path / name).read_text(), parse_constant=_raise_on_constant)
    stats = json.loads((tmp_path / "raman_stats.json").read_text())["stats"]
    assert stats["mean_sz_bar_sq_se"] is None and stats["cov_bar_final_se"] is None
    assert stats["corr_se"] == [None] * 5
    rows = [line.split(",") for line in (tmp_path / "raman_corr.csv").read_text().splitlines()[1:]]
    assert len(rows) == 5
    assert all(row[2] == "" for row in rows)
    assert all(float(row[1]) == c for row, c in zip(rows, stats["corr"]))


def test_write_json_refuses_non_finite(tmp_path):
    path = tmp_path / "out.json"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            write_json(path, {"x": bad})
    assert not path.exists()


def test_raman_mc_manifest_reports_mc_health(tmp_path):
    assert _run(MC_ARGV, tmp_path) == 0
    health = json.loads((tmp_path / "manifest.json").read_text())["mc_health"]
    stats = json.loads((tmp_path / "raman_stats.json").read_text())["stats"]
    assert health["n_events"] == stats["n_events"] > 0
    assert health["trajectories_per_s"] > 0.0
    # the worst of the seven z-scores (two Sbar_z moments, five lags); at lag 0 the
    # estimate is the sample variance of S_z, so its z-score is itself a sample
    r, s = 0.5, 20.0
    c_sq, c_fin = cli.correlation_integrals(r)
    z = [abs(stats["mean_sz_bar_sq"] - s / 2.0 * c_sq) / stats["mean_sz_bar_sq_se"],
         abs(stats["cov_bar_final"] - s / 2.0 * c_fin) / stats["cov_bar_final_se"]]
    z += [abs(c - math.exp(-2.0 * r * lag)) / se for lag, c, se in zip(stats["lags"], stats["corr"], stats["corr_se"])]
    assert health["worst_z"] == pytest.approx(max(z), rel=1e-12)
    assert health["worst_z"] < 4.0
    # only raman-mc reports MC health
    assert _run(["fig2", "--S", "100", "--eta", "0.1", "--qpoints", "5"], tmp_path / "fig2") == 0
    assert "mc_health" not in json.loads((tmp_path / "fig2" / "manifest.json").read_text())


@pytest.mark.parametrize("argv, code, stream, text", [
    (["fig2", "--S", "100", "--eta", "0.1", "--qpoints", "5"], 0, "stdout", "wrote "),
    (["raman-mc", "--S", "50", "--r", "-1", "--seed", "1"], 1, "stderr", "raman-mc: r must be nonnegative"),
])
def test_python_m_entry_point(tmp_path, argv, code, stream, text):
    # a fresh interpreter through main(), so the exit code is the process's
    env = dict(os.environ, PYTHONPATH=str(Path(cavsqueeze.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "cavsqueeze", *argv, "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code
    assert getattr(done, stream).startswith(text)
    assert (tmp_path / "fig2.csv").exists() == (code == 0)


@pytest.mark.parametrize("argv, start", [
    (["--version"], f"cavsqueeze {cavsqueeze.__version__}\n"),
    (["fig2", "--help"], "usage: cavsqueeze fig2 "),
])
def test_help_and_version_exit_0_with_no_output(tmp_path, capsys, argv, start):
    out = tmp_path / "out"
    assert _run(argv, out) == 0
    assert capsys.readouterr().out.startswith(start)
    assert not out.exists()


# each argv once in this order: a shorter --eta list after a longer one, a usage error, the argparse exits,
# another subcommand and a store_true flag followed by its default
_PARSER_REUSE_ARGVS = [
    ["fig2", "--S", "100", "--eta", "0.01", "--eta", "0.1", "--eta", "0.3", "--qpoints", "5"],
    ["fig2", "--S", "100", "--eta", "0.3", "--qpoints", "5"],
    ["fig2", "--S", "abc", "--eta", "0.1"],
    ["--version"],
    ["fig2", "--help"],
    ["sweep", "--s-points", "2", "--eta-points", "2"],
    ["fig2", "--S", "100", "--eta", "0.1", "--qpoints", "5", "--linear-grid"],
    ["fig2", "--S", "100", "--eta", "0.1", "--qpoints", "5"],
]


def test_reused_parser_keeps_no_state_between_runs(tmp_path, capsys, monkeypatch):
    def outcome(argv):
        out = tmp_path / "out"
        code = _run(argv, out)
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"} if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        return code, capsys.readouterr(), files

    reused = [outcome(argv) for argv in _PARSER_REUSE_ARGVS]
    fresh_parser = inspect.unwrap(cli.build_parser)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", fresh_parser)
        fresh = [outcome(argv) for argv in _PARSER_REUSE_ARGVS]
    for argv, a, b in zip(_PARSER_REUSE_ARGVS, reused, fresh):
        assert a == b, argv
    assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0, 0, 0, 0]
    for argv in _PARSER_REUSE_ARGVS[:2] + _PARSER_REUSE_ARGVS[5:]:
        assert vars(cli.build_parser().parse_args(argv)) == vars(fresh_parser().parse_args(argv)), argv


def test_later_runs_build_no_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    # patched in place: a subclass put in argparse.ArgumentParser's place would recurse, since argparse's
    # __init__ calls super() through that module-level name
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["fig2", "--S", "100", "--eta", "0.1", "--qpoints", "5"]
    assert _run(argv, tmp_path / "first") == 0
    built.clear()
    assert _run(argv, tmp_path / "second") == 0
    assert _run(["sweep", "--s-points", "2", "--eta-points", "2"], tmp_path / "third") == 0
    assert built == []


def test_workers_flag_is_gone(tmp_path):
    assert _run(MC_ARGV + ["--workers", "2"], tmp_path) == 1


_SYSTEM_CFG = "S = {S}\ng_hz = 4e5\nkappa_hz = 1e6\ndelta_over_gamma = 500.0\np0 = 100.0\nt_s = 4e-4\n"
_OUTPUTS = {"raman-mc": ["raman_stats.json", "raman_corr.csv"], "fig2": ["fig2.csv"],
            "validate-oracle": ["validate_oracle.csv"], "sweep": ["sweep.csv"], "design": ["design_report.json"]}


@pytest.mark.parametrize("argv", [
    MC_ARGV,
    ["fig2", "--S", "100", "--eta", "0.1", "--qpoints", "5"],
    ["validate-oracle", "--smax", "1"],
    ["sweep", "--s-points", "2", "--eta-points", "2"],
    ["design", "--config", "{cfg}"],
])
def test_manifest_records_argv_once(tmp_path, argv):
    cfg = tmp_path / "system.cfg"
    cfg.write_text(_SYSTEM_CFG.format(S="1e4"), encoding="utf-8")
    full = [a.format(cfg=cfg) for a in argv] + ["--out", str(tmp_path / "out")]
    assert cli.run(full) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == full
    # seed for raman-mc and config for design only; mc_health only for raman-mc
    assert set(manifest) == MANIFEST_KEYS | ({"mc_health"} if argv[0] == "raman-mc" else set())
    assert manifest["seed"] == (5 if argv[0] == "raman-mc" else None)
    assert (manifest["config"] is not None) == (argv[0] == "design")
    outputs = _OUTPUTS[argv[0]]
    assert manifest["outputs"] == outputs
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(outputs + ["manifest.json"])


def test_manifest_records_the_environment(tmp_path):
    assert _run(["fig2", "--S", "100", "--eta", "0.1", "--qpoints", "5"], tmp_path) == 0
    environment = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    dispatch = environment.pop("numpy_dispatch")
    assert environment == {"python": sys.version, "numpy": np.__version__, "platform": sys.platform}
    # numpy's current float64 kernel of each ufunc the package calls, whose bits the pinned digests follow
    info = np.lib.introspect.opt_func_info(signature="float64")
    names = ("exp", "log", "log1p", "expm1", "power", "sin", "cos", "sqrt")
    assert dispatch == {name: next(iter(info[name].values()))["current"] for name in names}


@pytest.mark.parametrize("argv", [["design", "--config", "{cfg}"], ["sweep"]])
def test_warnings_go_to_the_manifest_not_stderr(tmp_path, capsys, argv):
    # S eta ~ 1 (design at S = 10) and S eta = 1e-2 (the default sweep's corner) put r_opt past 0.3
    cfg = tmp_path / "system.cfg"
    cfg.write_text(_SYSTEM_CFG.format(S="10"), encoding="utf-8")
    assert _run([a.format(cfg=cfg) for a in argv], tmp_path / "out") == 0
    assert capsys.readouterr().err == ""
    entries = json.loads((tmp_path / "out" / "manifest.json").read_text())["warnings"]
    assert [e["category"] for e in entries] == ["RuntimeWarning"]
    assert entries[0]["message"].startswith("r_opt = ") and "is not small" in entries[0]["message"]


@pytest.mark.parametrize("moment", ["var_y", "cov_w"])
def test_validate_oracle_failure_exits_2_and_writes_everything(tmp_path, capsys, monkeypatch, moment):
    # the oracle off by 1e-6 relative in one moment at one grid point, (S, Q) = (5, 1)
    oracle = cli.oracle_moments_sum

    def perturbed(total_spin, q):
        moments = oracle(total_spin, q)
        if total_spin == 5.0:
            value = getattr(moments, moment)
            return moments._replace(**{moment: np.where(q == 1.0, value * (1.0 + 1e-6), value)})
        return moments

    monkeypatch.setattr(cli, "oracle_moments_sum", perturbed)
    assert _run(["validate-oracle"], tmp_path) == 2
    assert capsys.readouterr().out.startswith("79/80 rows within their bounds; wrote ")
    rows = [line.split(",") for line in (tmp_path / "validate_oracle.csv").read_text().splitlines()[1:]]
    assert len(rows) == 80
    assert [row[:2] + row[3:4] for row in rows if row[-1] == "false"] == [["5.0", "1.0", moment]]
    assert json.loads((tmp_path / "manifest.json").read_text())["outputs"] == ["validate_oracle.csv"]


def test_design_config_without_p0_writes_the_same_report(tmp_path):
    # the report picks its own Q, so a config's p0 is optional and does not reach design_report.json
    system = "S = 1e4\ng_hz = 4e5\nkappa_hz = 1e6\ndelta_over_gamma = 500.0\nt_s = 4e-4\n"
    reports = []
    for name, text in (("with_p0", system + "p0 = 100.0\n"), ("without_p0", system)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert _run(["design", "--config", str(cfg)], tmp_path / name) == 0
        reports.append((tmp_path / name / "design_report.json").read_bytes())
        config = json.loads((tmp_path / name / "manifest.json").read_text())["config"]
        assert config.get("p0") == (100.0 if name == "with_p0" else None)
    assert reports[0] == reports[1]


def test_design_eps_max_is_the_one_excited_population_limit(tmp_path):
    # a 10 us pulse at the recommended Q puts epsilon between the default 1e-5 and 1e-3
    cfg = tmp_path / "system.cfg"
    cfg.write_text("S = 1e4\ng_hz = 4e5\nkappa_hz = 1e6\ndelta_over_gamma = 500.0\n"
                   "p0 = 100.0\nt_s = 1e-5\n", encoding="utf-8")
    validity = {}
    for eps in ("1e-5", "1e-3"):
        assert _run(["design", "--config", str(cfg), "--eps-max", eps], tmp_path / eps) == 0
        report = json.loads((tmp_path / eps / "design_report.json").read_text())
        assert report["validity"]["thresholds"]["max_excited_pop"] == float(eps)
        validity[eps] = report["validity"]
    assert validity["1e-5"]["excited_pop"] == validity["1e-3"]["excited_pop"]
    assert 1e-5 < validity["1e-3"]["excited_pop"] < 1e-3
    assert validity["1e-3"]["flags"]["excited_pop"] and not validity["1e-5"]["flags"]["excited_pop"]
