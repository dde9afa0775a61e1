import json

import pytest

from cavsqueeze import cli

MC_ARGV = ["raman-mc", "--S", "20", "--r", "0.5", "--traj", "600", "--steps", "4",
           "--seed", "5", "--corr-csv"]


def _run(argv, out):
    return cli.run(argv + ["--out", str(out)])


def test_raman_mc_same_seed_same_bytes(tmp_path):
    # 600 trajectories span two chunks, the second one partial
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(MC_ARGV, a) == 0
    assert _run(MC_ARGV, b) == 0
    for name in ("raman_stats.json", "raman_corr.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    stats = json.loads((a / "raman_stats.json").read_text())["stats"]
    assert stats["n_trajectories"] == 600
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
])
def test_raman_mc_bad_input_exits_1_with_message(tmp_path, capsys, argv, message):
    assert _run(argv, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("raman-mc: ")
    assert message in err


def test_fig2_outside_g_factor_domain_exits_1_with_message(tmp_path, capsys):
    # Q_eff / S passes pi/2 on these grids: past the principal branch of the G
    # factor, refused on the log-space branch (S = 100) and the direct-power
    # one (S = 10) alike
    for s, qmax in (("100", "1000"), ("10", "200")):
        out = tmp_path / s
        assert _run(["fig2", "--S", s, "--eta", "100", "--qmax", qmax], out) == 1
        err = capsys.readouterr().err
        assert err.startswith("fig2: ")
        assert "principal branch" in err
        assert not (out / "fig2.csv").exists()


def test_workers_flag_is_gone(tmp_path):
    assert _run(MC_ARGV + ["--workers", "2"], tmp_path) == 1


@pytest.mark.parametrize("argv", [
    MC_ARGV,
    ["fig2", "--S", "100", "--eta", "0.1", "--qpoints", "5"],
    ["validate-oracle", "--smax", "1"],
    ["sweep", "--s-points", "2", "--eta-points", "2"],
    ["design", "--config", "{cfg}"],
])
def test_manifest_records_argv_once(tmp_path, argv):
    cfg = tmp_path / "system.cfg"
    cfg.write_text("S = 1e4\ng_hz = 4e5\nkappa_hz = 1e6\ndelta_over_gamma = 500.0\n"
                   "p0 = 100.0\nt_s = 4e-4\n", encoding="utf-8")
    full = [a.format(cfg=cfg) for a in argv] + ["--out", str(tmp_path / "out")]
    assert cli.run(full) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == full
