"""cavsqueeze benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {mc,scan,oracle,all} --seed N --seconds S --trace {0,1}

Each workload runs in a fresh interpreter (worker.py) that imports the
package from ./src, repeats passes over the workload's invocation list for
--seconds, and checks every output.  Set-up time is measured in several
further fresh interpreters and reported as the median.

--trace 0 prints the end-to-end metrics: wall_s and cpu_s (medians over
passes), peak_rss_mb of the worker and setup_s.  The three times are in
calibrated seconds (see calibrate.py): each is scaled by REF_S over the time
of a fixed reference kernel run beside it, which takes out the host's speed
drift; the raw medians are printed in the table and kept in the record.
--trace 1 alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; a fuller record, with the environment, the failures by
kind and the sha256 digests of the output files, goes to perfbench/_results/.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import calibrated
from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc", "scan", "oracle")
SETUP_PROBES = 6  # fresh interpreters measuring set-up only, besides the worker
CHILD_TIMEOUT_S = 120.0  # beyond --seconds

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def worker(root, workload, seed, seconds, trace, workdir, tag, spans=None):
    """Run worker.py in a fresh interpreter and return its result record."""
    result = workdir / f"{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir),
           "--result", str(result)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=seconds + CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(root, workload, seed, seconds, trace):
    workdir = root / "perfbench" / "_work" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    results = root / "perfbench" / "_results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        probes = [worker(root, workload, seed, 0, 0, workdir, f"probe{i}") for i in range(SETUP_PROBES)]
        main = worker(root, workload, seed, seconds, trace, workdir, "main",
                      spans=results / f"{stem}-spans.jsonl" if trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    setups = [r["setup"] for r in probes + [main]]
    untraced = [p for p in main["passes"] if not p["traced"]]
    if trace:
        metrics = dict(main["layers"])
        metrics["raman.mc_max_z"] = main["observed"].get("mc_max_z", 0.0)
        metrics["import.numpy_s"] = statistics.median(s["numpy_s"] for s in setups)
        metrics["import.cavsqueeze_s"] = statistics.median(s["cavsqueeze_s"] for s in setups)
        metrics["trace.overhead_frac"] = main["trace_overhead_frac"]
        metrics["trace.passes"] = main["traced_passes"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": statistics.median(p["cal_wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cal_cpu_s"] for p in untraced),
            "peak_rss_mb": main["peak_rss_mb"],
            "setup_s": statistics.median(calibrated(s["setup_s"], s["ref_s"]) for s in setups),
        }
        units = dict(END_TO_END)
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    report = {
        "correct": main["incorrect"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }

    print(f"# workload {workload}, seed {seed}, trace {trace}: {len(untraced)} untraced passes"
          + (f", {main['traced_passes']} traced" if trace else ""))
    for name, m in report["metrics"].items():
        print(f"{name:55s} {m['value']:>16.6g} {m['unit']}"
              + (f" calibrated ({raw[name]:.6g} s measured)" if name in raw and not trace else ""))
    print(f"{'failed_frac':55s} {main['failed'] / main['attempted']:>16.6g} frac "
          f"({main['failed']} of {main['attempted']} invocations, each called once per pass)")
    for kind, count in sorted(main["failures"].items()):
        print(f"  failures: {count} invocations x {kind}")
    if workload == "scan":
        print(f"  fig2 inputs outside the G-factor domain: {main['observed']['fig2_out_of_domain_inputs']} of "
              f"{len(main['inputs']['fig2'])}; sweep minima on the search-bracket edge: "
              f"{main['observed'].get('sweep_edge_minima')}")
    for problem in main["problems"]:
        print(f"  problem: {problem}")

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "report": report, "failed_frac": main["failed"] / main["attempted"], "measured": raw,
              "setup_probes": setups, "worker": main}
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cavsqueeze" / "__init__.py").is_file():
        print(f"perfbench: no cavsqueeze sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            report = run_workload(root, workload, args.seed, args.seconds, args.trace)
            print(json.dumps(report), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
