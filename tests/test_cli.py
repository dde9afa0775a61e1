import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cavsqueeze
from cavsqueeze import cli
from cavsqueeze.serialize import write_json

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


# sha256 of the seeded MC outputs.  They depend on numpy's Generator streams (SeedSequence, PCG64 and the
# binomial, exponential, uniform and normal samplers) as well as on _CHUNK, _BLOCK and the draw order, so a
# numpy release that changes a sampler, or a change to the stream layout, has to edit them on purpose.
_MC_DIGESTS = [
    (MC_ARGV, "a09783f9108e165a2b0b4afe0499070dc5e502fa089bffcb0213ae3f03901844",
     "43f0b2cfc2e0e66901206d15eb21eda934cb1c53bd13b2a6673c6b885416e524"),
    (["raman-mc", "--S", "1e5", "--r", "0.05", "--traj", "4096", "--steps", "64", "--mode", "gaussian",
      "--seed", "5", "--corr-csv"], "aa8738059cfa0cfa28f0a2996dc73bc56cd7b225f391e6d55ce1c4687ec8a20f",
     "0f9b31b8444bd95f2401e2a9c462187a148e894835b06919dd846d4093db5743"),
    # one trajectory: every standard error undefined, null in the JSON and an empty CSV cell
    (["raman-mc", "--S", "20", "--r", "0.5", "--traj", "1", "--seed", "5", "--corr-csv"],
     "9f8e35e2b7e66429750d3f8161194acc07f6a7f9881a9a7603dbf90945670803",
     "2a070e1ebb39af23c39cefdb5ef147d00048fb7815fae1505c49c987cd792260"),
]


@pytest.mark.parametrize("argv, stats, corr", _MC_DIGESTS, ids=["exact", "gaussian", "one-trajectory"])
def test_seeded_mc_bytes_are_pinned(tmp_path, argv, stats, corr):
    assert _run(argv, tmp_path) == 0
    for name, digest in (("raman_stats.json", stats), ("raman_corr.csv", corr)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of design_report.json: the worked example, the same system at a set Q, and a system that fails every
# validity flag; the closed forms, the full-curve minimiser, the report's keys and float repr all feed them.
_WORKED_CFG = "S = 10000\ng_hz = 4e5\nkappa_hz = 1e6\ngamma_hz = 6.07e6\ndelta_over_gamma = 500\np0 = 10\nt_s = 4e-4\n"
_DESIGN_DIGESTS = [
    (_WORKED_CFG, [], "9c4108e0de0e941b2324e56319e1c8ed31090a438f8e1ed247ea2692009092aa"),
    (_WORKED_CFG, ["--q-target", "20"], "f3f1acf549ccdf40863b22dcfd686f3a74d3e46ea7d4abe4c391b745def59cf3"),
    ("S = 100\ng_hz = 4e5\nkappa_hz = 1e6\ndelta_over_gamma = 2\nt_s = 1e-8\n", [],
     "68a3456684de280b7da277f08a437b17fb0fb75827c53976236c9623538b6a89"),
]


@pytest.mark.parametrize("config, flags, digest", _DESIGN_DIGESTS, ids=["worked", "q-target", "flags-false"])
def test_design_report_bytes_are_pinned(tmp_path, config, flags, digest):
    cfg = tmp_path / "system.cfg"
    cfg.write_text(config, encoding="utf-8")
    assert _run(["design", "--config", str(cfg), *flags], tmp_path / "out") == 0
    assert hashlib.sha256((tmp_path / "out" / "design_report.json").read_bytes()).hexdigest() == digest


# sha256 of validate-oracle's CSV at the benchmark's --smax 200: the closed forms, the oracle sums (the same
# bits as the full-range sums on this grid) and float repr all feed it, so a change to any of them shows here.
_ORACLE_CSV_DIGEST = "567b95ed6043998d8b8b1988e662ce09dabf6b4c301106025aba5d004901e560"


def test_validate_oracle_bytes_are_pinned(tmp_path):
    assert _run(["validate-oracle", "--smax", "200"], tmp_path) == 0
    digest = hashlib.sha256((tmp_path / "validate_oracle.csv").read_bytes()).hexdigest()
    assert digest == _ORACLE_CSV_DIGEST


# sha256 of the closed-form CSVs: fig2 at three cooperativities (eta-major blocks that share the Q and 1/Q
# columns) and the default sweep --full-minimum; the closed forms, the writer and float repr all feed them.
_CLOSED_FORM_CSV_DIGESTS = [
    (["fig2", "--S", "1000", "--eta", "0.01", "--eta", "0.1", "--eta", "1"], "fig2.csv",
     "5830097a1bf55fe66793e1da14d8daa8e94b42d2e91f50008cabe721420c4349"),
    (["sweep", "--full-minimum"], "sweep.csv", "980ed35c6792920d2706716e5866caea99d97874edbeb0f9248a3039faf9db4e"),
]


@pytest.mark.parametrize("argv, name, digest", _CLOSED_FORM_CSV_DIGESTS, ids=["fig2", "sweep"])
def test_closed_form_csv_bytes_are_pinned(tmp_path, argv, name, digest):
    assert _run(argv, tmp_path) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("etas, message", [
    # eta = 100 leaves the domain at a lower Q than eta = 3, so only the eta-major order names eta = 3's value
    (["0.1", "3", "100"], "Q_eff / S = 1.5737079693215268: outside the principal branch |Q_eff / S| < pi/2 "
                          "of the G factor"),
    # one curve per eta refuses the out-of-domain eta before it reaches the non-positive one, and the reverse
    (["100", "-1"], "Q_eff / S = 1.5822729517463208: outside the principal branch |Q_eff / S| < pi/2 "
                    "of the G factor"),
    (["-1", "100"], "eta must be positive and finite"),
])
def test_fig2_refuses_the_first_bad_eta_in_order(tmp_path, capsys, etas, message):
    out = tmp_path / "out"
    argv = ["fig2", "--S", "100", "--qmax", "1000"]
    for eta in etas:
        argv += ["--eta", eta]
    assert _run(argv, out) == 1
    assert capsys.readouterr().err == f"fig2: {message}\n"
    assert not out.exists()


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


def _csv_numbers(path):
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                yield float(cell)
            except ValueError:  # an empty, boolean or regime cell
                pass


@settings(derandomize=True, max_examples=150, deadline=None)
@given(command=st.sampled_from(["fig2", "validate-oracle", "raman-mc", "design", "sweep"]),
       s=st.sampled_from(_FUZZ_S), size=st.integers(0, 3), r=st.sampled_from(["0", "0.5"]),
       mode=st.sampled_from(["exact", "gaussian"]))
def test_extreme_spins_exit_cleanly_with_finite_output(command, s, size, r, mode):
    with tempfile.TemporaryDirectory() as tmp:
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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(option=st.sampled_from(sorted(_OPTION_ARGV)), value=st.sampled_from(["-0.0", "5e-324", "1e300", None]),
       traj=st.integers(0, 3), mode=st.sampled_from(["exact", "gaussian"]))
def test_extreme_option_values_exit_cleanly_with_finite_output(option, value, traj, mode):
    argv, ordinary = _OPTION_ARGV[option]
    argv = argv + [option, ordinary if value is None else value]
    if option == "--r":
        argv += ["--traj", str(traj), "--mode", mode]
    with tempfile.TemporaryDirectory() as tmp:
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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(option=st.sampled_from(sorted(_INTEGER_OPTION_ARGV)), value=st.sampled_from([-1, 0, 2 ** 63, 10 ** 30]))
def test_extreme_integer_options_are_refused_by_their_domain_or_cap(option, value):
    argv, domain, cap = _INTEGER_OPTION_ARGV[option]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
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


# accepted inputs whose output a writer refuses as nan or inf: run used to create --out before the writers ran
@pytest.mark.parametrize("argv, message", [
    (["fig2", "--S", "100", "--eta", "0.1", "--qmin", "5e-324"], "CSV cells must be finite, got inf"),
    (["fig2", "--S", "100", "--eta", "0.1", "--qmax", "1e300"], "CSV cells must be finite, got nan"),
    (["design", "--config", "{cfg}", "--eps-max", "5e-324"], "Out of range float values are not JSON compliant: inf"),
    (["design", "--config", "{cfg}", "--q-target", "1e300"], "Out of range float values are not JSON compliant: nan"),
    (["sweep", "--eta-min", "1e300", "--eta-max", "1", "--s-points", "2", "--eta-points", "2", "--full-minimum"],
     "CSV cells must be finite, got inf"),
    (["sweep", "--eta-min", "0.1", "--eta-max", "1e300", "--s-points", "2", "--eta-points", "2", "--full-minimum"],
     "CSV cells must be finite, got inf"),
], ids=["fig2 --qmin 5e-324", "fig2 --qmax 1e300", "design --eps-max 5e-324", "design --q-target 1e300",
        "sweep --eta-min 1e300", "sweep --eta-max 1e300"])
def test_a_value_refused_at_write_time_leaves_no_out(tmp_path, capsys, argv, message):
    cfg = tmp_path / "system.cfg"  # the worked example without p0
    cfg.write_text("S = 10000\ng_hz = 4e5\nkappa_hz = 1e6\ndelta_over_gamma = 500\nt_s = 4e-4\n", encoding="utf-8")
    out = tmp_path / "out"
    assert _run([a.format(cfg=cfg) for a in argv], out) == 1
    assert capsys.readouterr().err == f"{argv[0]}: {message}\n"
    assert not out.exists()


def test_a_sweep_spin_past_the_cap_is_named_as_given(tmp_path, capsys):
    # nearest_spin doubled 1e308 to inf before twice_spin saw it, so the message named inf
    out = tmp_path / "out"
    assert _run(["sweep", "--s-min", "1e308", "--s-max", "1e308"], out) == 1
    assert capsys.readouterr().err == "sweep: total spin must be a positive half-integer with 2S <= 2**53, got 1e+308\n"
    assert not out.exists()


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


@pytest.mark.parametrize("r", ["1e-15", "1e-12", "1e-9"])
def test_gaussian_mc_at_a_tiny_rate_stays_on_its_targets(tmp_path, r):
    # the OU step's var_i bracket, O((theta h)^3) built from O(theta h) terms, cancelled: mean_sz_bar_sq read
    # 7.997e12, 2.2e8 and 294.9 at these rates against 9.811 at r = 0
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
_MANIFEST_KEYS = {"command", "seed", "config", "environment", "outputs", "schema_version", "tool_version",
                  "wall_time_s", "warnings"}
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
    assert set(manifest) == _MANIFEST_KEYS | ({"mc_health"} if argv[0] == "raman-mc" else set())
    assert manifest["seed"] == (5 if argv[0] == "raman-mc" else None)
    assert (manifest["config"] is not None) == (argv[0] == "design")
    outputs = _OUTPUTS[argv[0]]
    assert manifest["outputs"] == outputs
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(outputs + ["manifest.json"])


def test_manifest_records_the_environment(tmp_path):
    assert _run(["fig2", "--S", "100", "--eta", "0.1", "--qpoints", "5"], tmp_path) == 0
    environment = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert environment == {"python": sys.version, "numpy": np.__version__, "platform": sys.platform}


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


def test_validate_oracle_failure_exits_2_and_writes_everything(tmp_path, capsys, monkeypatch):
    # the oracle off by 1e-6 relative at one grid point, (S, Q) = (5, 1)
    oracle = cli.oracle_moments_sum

    def perturbed(total_spin, q):
        moments = oracle(total_spin, q)
        if total_spin == 5.0:
            return dataclasses.replace(moments, var_y=np.where(q == 1.0, moments.var_y * (1.0 + 1e-6), moments.var_y))
        return moments

    monkeypatch.setattr(cli, "oracle_moments_sum", perturbed)
    assert _run(["validate-oracle"], tmp_path) == 2
    assert capsys.readouterr().out.startswith("39/40 grid points within 1e-10; wrote ")
    rows = [line.split(",") for line in (tmp_path / "validate_oracle.csv").read_text().splitlines()[1:]]
    assert len(rows) == 40
    assert [row[:2] for row in rows if row[-1] == "false"] == [["5.0", "1.0"]]
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
        limits = (report["provenance"]["max_excited_pop"], report["validity"]["thresholds"]["max_excited_pop"])
        assert limits == (float(eps), float(eps))
        validity[eps] = report["validity"]
    assert validity["1e-5"]["excited_pop"] == validity["1e-3"]["excited_pop"]
    assert 1e-5 < validity["1e-3"]["excited_pop"] < 1e-3
    assert validity["1e-3"]["flags"]["excited_pop"] and not validity["1e-5"]["flags"]["excited_pop"]
