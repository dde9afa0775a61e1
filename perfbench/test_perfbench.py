"""Tests of the benchmark itself: inputs, span arithmetic and checks."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import calibrate
import checks
import spans
import worker
import workloads
from cavsqueeze import cli, design, raman

ROOT = Path(__file__).resolve().parent.parent


def quiet_run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = workloads.inputs_bytes(workloads.generate(workload, 7))
    assert workloads.inputs_bytes(workloads.generate(workload, 7)) == first
    assert workloads.inputs_bytes(workloads.generate(workload, 8)) != first
    written = []
    for name in ("a", "b"):
        invocations, warmup = workloads.materialize(workload, workloads.generate(workload, 7), tmp_path / name, {})
        files = sorted((tmp_path / name).glob("*.cfg"))
        written.append(([p.read_bytes() for p in files], [inv.label for inv in invocations], warmup[:-1]))
    assert written[0] == written[1]


def test_self_time_on_synthetic_nested_trace():
    trace = [
        spans.Span(0, -1, "root", 0.0, 10.0, None),
        spans.Span(1, 0, "a", 1.0, 4.0, None),
        spans.Span(2, 0, "b", 5.0, 9.0, None),
        spans.Span(3, 2, "c", 6.0, 8.0, None),
        spans.Span(4, 2, "d", 7.5, 9.5, None),  # overlaps c and runs past its parent
    ]
    own = spans.self_times(trace)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 1.0, 3: 2.0, 4: 2.0})


def test_tracer_patches_from_imported_bindings_and_restores_them():
    original = raman.modified_min_variance
    tracer = spans.Tracer()
    tracer.install(spans.cavsqueeze_targets())
    try:
        assert design.modified_min_variance is not original
        assert raman.modified_min_variance is design.modified_min_variance
        design.full_curve_minimum(1e4, 0.1)
    finally:
        tracer.uninstall()
    assert design.modified_min_variance is original and raman.modified_min_variance is original
    recorded = tracer.recorded()
    (fcm,) = [sp for sp in recorded if sp.name == "design.full_curve_minimum"]
    evals = [sp for sp in recorded if sp.name == "raman.modified_min_variance"]
    assert evals and all(sp.parent == fcm.id for sp in evals)
    metrics = spans.layer_metrics(recorded, 1)
    assert metrics["design.full_curve_minimum.f_evals_per_call"] == len(evals)


def test_layer_metrics_cover_the_per_layer_table():
    outside_spans = {"raman.mc_max_z", "import.numpy_s", "import.cavsqueeze_s",
                     "trace.overhead_frac", "trace.passes"}
    names = {name for name, _, _ in spans.PER_LAYER}
    assert set(spans.layer_metrics([], 1)) | outside_spans == names


def test_benchmark_json_matches_the_metric_tables():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [tuple(x) for x in spans.PER_LAYER]


def test_checker_flags_a_corrupted_csv_value(tmp_path):
    assert quiet_run(["fig2", "--S", "1000", "--eta", "0.1", "--qpoints", "5", "--out", str(tmp_path)]) == 0
    path = tmp_path / "fig2.csv"
    assert checks.output_problems(tmp_path) == []
    assert checks.fig2_problems(path, 1000.0, [0.1], 5) == []
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = "nan"
    path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
    assert checks.output_problems(tmp_path)
    assert checks.fig2_problems(path, 1000.0, [0.1], 5)


def test_checker_flags_an_out_of_bound_mc_estimate(tmp_path):
    argv = ["raman-mc", "--S", "50", "--r", "1.0", "--traj", "256", "--seed", "3", "--corr-csv",
            "--out", str(tmp_path)]
    assert quiet_run(argv) == 0
    stats = tmp_path / "raman_stats.json"
    problems, max_z = checks.mc_problems(stats, tmp_path / "raman_corr.csv")
    assert problems == [] and max_z < checks.MC_Z_BOUND
    payload = json.loads(stats.read_text())
    payload["stats"]["corr"][2] += 2.0 * checks.MC_Z_BOUND * payload["stats"]["corr_se"][2]
    stats.write_text(json.dumps(payload))
    problems, max_z = checks.mc_problems(stats)
    assert len(problems) == 1 and "corr" in problems[0] and max_z > checks.MC_Z_BOUND


def test_runner_counts_an_exception_raised_from_cli_run(tmp_path, monkeypatch):
    def broken(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", broken)
    inv = workloads._cli("fig2[0]", ["fig2", "--S", "100", "--eta", "1"], tmp_path, (0,), lambda: [])
    tally = worker.new_tally()
    for _ in range(3):
        worker.run_pass([inv], tally, checks.digests)
    counts = worker.summarize(tally)
    assert counts["attempted"] == 1 and counts["failed"] == 1 and counts["incorrect"] == 0
    assert counts["failures"] == {"fig2: RuntimeError raised in test_perfbench.broken": 1}


def test_runner_counts_an_unexpected_exit_code_as_wrong_output(tmp_path):
    inv = workloads._cli("fig2[0]", ["fig2", "--S", "100", "--eta", "0.1", "--qmin", "5", "--qmax", "1"],
                         tmp_path, (0,), lambda: [])
    tally = worker.new_tally()
    worker.run_pass([inv], tally, checks.digests)
    counts = worker.summarize(tally)
    assert counts["failed"] == 1 and counts["incorrect"] == 1


def test_every_scan_seed_draws_the_same_number_of_out_of_domain_fig2_runs():
    for seed in range(1, 21):
        runs = workloads.generate("scan", seed)["fig2"]
        outside = [r for r in runs if not all(workloads.fig2_in_domain(r["S"], e, r["qmax"]) for e in r["etas"])]
        assert len(runs) == workloads.FIG2_RUNS and len(outside) == workloads.FIG2_OUT_OF_DOMAIN


def test_calibration_scales_by_the_reference_time():
    assert calibrate.calibrated(2.0, calibrate.REF_S) == pytest.approx(2.0)
    assert calibrate.calibrated(2.0, 2.0 * calibrate.REF_S) == pytest.approx(1.0)
    assert calibrate.reference_s() > 0.0
    calls = [workloads.Invocation(label, "call", lambda: sum(range(10_000)), lambda v, _: []) for label in "ab"]
    times = worker.run_pass(calls, worker.new_tally(), checks.digests, lambda expected: 2.0)
    assert times["cal_wall_s"] == pytest.approx(2.0 * times["wall_s"])
    assert sum(times["call_cal_wall_s"]) == pytest.approx(times["cal_wall_s"])
