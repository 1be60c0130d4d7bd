"""qvampire benchmark: run one workload, check its outputs, print its metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

Every sample is a fresh ``perfbench/worker.py`` process, so each one pays
the import and the cold caches a CLI user pays.  With ``--trace 0`` the
command repeats the workload while ``--seconds`` allows (at least once)
and reports the end-to-end metrics as medians.  With ``--trace 1`` it
runs the workload once untraced and once traced and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the lines before it name every metric with its unit and sample count.
Raw samples, spans and the run record are written to
``.perfbench-results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchcore as bc  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "init.import_s": "s",
    "init.modules_loaded": "count",
    "init.scipy_modules_loaded": "count",
    "config.build_scenario_s": "s",
    "config.self_s": "s",
    "fock.beamsplitter_unitary.cold_s": "s",
    "fock.beamsplitter_unitary.cold_calls": "count",
    "fock.fidelity_s": "s",
    "fock.subtract_photon_s": "s",
    "fock.self_s": "s",
    "verify.recombination_unitary.cold_s": "s",
    "verify.regional_subtraction_s": "s",
    "verify.regional_subtraction.p50_ms": "ms",
    "verify.regional_subtraction.calls": "count",
    "verify.cases_per_s": "1/s",
    "verify.min_fidelity_margin": "1",
    "verify.max_complement_pop": "1",
    "verify.self_s": "s",
    "montecarlo.run_scan_s": "s",
    "montecarlo.run_scan.cpu_s": "s",
    "montecarlo.parallel_eff": "1",
    "montecarlo.tile_ms": "ms",
    "montecarlo.tiles": "count",
    "montecarlo.bins": "count",
    "montecarlo.blocks": "count",
    "montecarlo.mbins_per_s": "Mbin/s",
    "montecarlo.peak_rss_mb": "MB",
    "montecarlo.camera_z": "sigma",
    "montecarlo.herald_z": "sigma",
    "montecarlo.self_s": "s",
    "io.save_scan_csv_s": "s",
    "io.load_scan_csv_s": "s",
    "io.csv_bytes": "B",
    "io.self_s": "s",
    "analysis.analyze_s": "s",
    "analysis.superpixels_used_frac": "1",
    "analysis.chi2_per_dof": "1",
    "analysis.z_score": "sigma",
    "analysis.best_const": "1",
    "analysis.self_s": "s",
    "trace.run_s": "s",
    "trace.gap_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "check.failed_frac": "1",
}
LAYERS = ("config", "fock", "verify", "montecarlo", "io", "analysis")

SETUP_SAMPLES = 9  # fresh processes timed for setup_s per untraced run
DEADLINE_S = 170.0  # the whole command must end within 180 s


class Sampler:
    """Starts worker processes under one deadline and keeps their results."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("QVAMPIRE_")}

    def spawn(self, mode: str) -> dict:
        """One worker process; returns its result plus spawn-relative timings."""
        self.count += 1
        out = self.work / f"{self.count:03d}-{mode}"
        out.mkdir(parents=True)
        result = out / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
            "--src", str(self.root / "src"), "--out", str(out), "--result", str(result),
        ]
        t_spawn = time.monotonic()
        with open(out / "log.txt", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                    timeout=max(1.0, self.deadline - t_spawn),
                )
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        wall = time.monotonic() - t_spawn
        if code != 0 or not result.exists():
            tail = (out / "log.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"worker {mode} failed ({code}):\n{tail}", file=sys.stderr)
            return {"ok": False, "wall": wall}
        res = json.loads(result.read_text(encoding="utf-8"))
        res.update(ok=True, wall=wall, setup_s=res["setup_done"] - t_spawn)
        return res


def source_record(root: Path) -> dict:
    """Commit (when the checkout is a git repository) and a hash of the package source."""
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qvampire").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def _tally(samples) -> tuple[int, int]:
    attempted = failed = 0
    for s in samples:
        if s["ok"]:
            attempted += s["check"]["attempted"]
            failed += s["check"]["failed"]
        else:
            attempted += 1
            failed += 1
    return attempted, failed


def untraced(sampler: Sampler, seconds: float) -> tuple[dict, list, list]:
    reps = []
    t_start = time.monotonic()
    while True:
        rep = sampler.spawn("cli")
        reps.append(rep)
        if time.monotonic() - t_start + rep["wall"] > seconds:
            break
    good = [r for r in reps if r["ok"]]
    setups = [r["setup_s"] for r in good]
    while len(setups) < SETUP_SAMPLES:
        s = sampler.spawn("setup")
        if not s["ok"]:
            break
        setups.append(s["setup_s"])
    if not good or not setups:
        return {}, reps, setups
    samples = {
        "setup_s": setups,
        "run_s": [r["run_s"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    return {k: bc.summarize(v) for k, v in samples.items()}, reps, setups


def layer_metrics(workload: str, traced: dict, untraced_run_s: float) -> dict:
    spans, info, check = traced["spans"], traced["info"], traced["check"]
    layer = bc.layer_self_times(spans, traced["root_id"])
    root = spans[traced["root_id"]]
    trace_run_s = root["end"] - root["start"]
    setup_builds = [s for s in spans if s["name"] == "build_scenario" and s["parent"] is None]
    rs = bc.durations(spans, "regional_subtraction")
    is_verify = workload == "verify_sweep"
    run_scan_s = bc.total_duration(spans, "run_scan")
    scan_cpu = info.get("run_scan_cpu_s", 0.0)
    tiles = info.get("tiles", 0)
    m = {
        "init.import_s": traced["import_s"],
        "init.modules_loaded": traced["modules_loaded"],
        "init.scipy_modules_loaded": traced["scipy_modules_loaded"],
        "config.build_scenario_s": sum(s["end"] - s["start"] for s in setup_builds),
        "fock.beamsplitter_unitary.cold_s": bc.total_duration(spans, "beamsplitter_unitary"),
        "fock.beamsplitter_unitary.cold_calls": len(bc.durations(spans, "beamsplitter_unitary")),
        "fock.fidelity_s": bc.total_duration(spans, "fidelity"),
        "fock.subtract_photon_s": bc.total_duration(spans, "subtract_photon"),
        "verify.recombination_unitary.cold_s": bc.total_duration(spans, "recombination_unitary"),
        "verify.regional_subtraction_s": sum(rs),
        "verify.regional_subtraction.p50_ms": 1000 * bc.summarize(rs)["median"] if rs else 0.0,
        "verify.regional_subtraction.calls": len(rs),
        "verify.cases_per_s": len(bc.VERIFY_CASES) / untraced_run_s if is_verify else 0.0,
        "verify.min_fidelity_margin": check["min_fidelity_margin"] if is_verify else 0.0,
        "verify.max_complement_pop": check["max_complement_pop"] if is_verify else 0.0,
        "montecarlo.run_scan_s": run_scan_s,
        "montecarlo.run_scan.cpu_s": scan_cpu,
        "montecarlo.parallel_eff": scan_cpu / (run_scan_s * info["threads"]) if tiles else 0.0,
        "montecarlo.tile_ms": 1000 * scan_cpu / tiles if tiles else 0.0,
        "montecarlo.tiles": tiles,
        "montecarlo.bins": info.get("bins", 0),
        "montecarlo.blocks": info.get("blocks", 0),
        "montecarlo.mbins_per_s": info.get("bins", 0) / 1e6 / untraced_run_s,
        "montecarlo.peak_rss_mb": info.get("peak_rss_after_run_scan_mb", 0.0),
        "montecarlo.camera_z": check.get("camera_z", 0.0),
        "montecarlo.herald_z": check.get("herald_z", 0.0),
        "io.save_scan_csv_s": bc.total_duration(spans, "save_scan_csv"),
        "io.load_scan_csv_s": bc.total_duration(spans, "load_scan_csv"),
        "io.csv_bytes": info.get("csv_bytes", 0),
        "analysis.analyze_s": bc.total_duration(spans, "analyze"),
        "analysis.superpixels_used_frac": info.get("superpixels_used_frac", 0.0),
        "analysis.chi2_per_dof": info.get("chi2_per_dof", 0.0),
        "analysis.z_score": info.get("z_score", 0.0),
        "analysis.best_const": info.get("best_const", 0.0),
        "trace.run_s": trace_run_s,
        "trace.gap_s": layer.get("bench", 0.0),
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_s": trace_run_s - untraced_run_s,
    }
    for name in LAYERS:
        m[f"{name}.self_s"] = layer.get(name, 0.0)
    return m


def _print_summary(name: str, unit: str, s: dict) -> None:
    tail = (
        f"p{s['tail_pct']} {s['tail']:.6g}"
        if s["tail_pct"] is not None
        else "no percentile above the median has 10 samples beyond it"
    )
    print(f"{name:<14} {s['median']:.6g} {unit}  (median of n={s['n']}; {tail})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qvampire benchmark")
    ap.add_argument("--workload", choices=bc.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "qvampire" / "__init__.py").is_file():
        print(f"perfbench: no qvampire source under {root / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("perfbench: --seed must lie in [0, 2**63)", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **source_record(root)}
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=root))
    try:
        sampler = Sampler(root, work, args.workload, args.seed)
        if args.trace:
            plain = sampler.spawn("cli")
            traced = sampler.spawn("traced")
            samples = [plain, traced]
            if not (plain["ok"] and traced["ok"]):
                print("perfbench: a run did not finish", file=sys.stderr)
                return 1
            metrics = layer_metrics(args.workload, traced, plain["run_s"])
            attempted, failed = _tally(samples)
            metrics["check.failed_frac"] = failed / attempted
            record["versions"] = traced["versions"]
            units = PER_LAYER
        else:
            summaries, samples, setups = untraced(sampler, args.seconds)
            if not summaries:
                print("perfbench: no run finished", file=sys.stderr)
                return 1
            attempted, failed = _tally(samples)
            record["versions"] = next(s["versions"] for s in samples if s["ok"])
            metrics = {k: v["median"] for k, v in summaries.items()}
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"record {json.dumps(record, sort_keys=True)}")
    for s in samples:
        if s["ok"] and s["check"]["problems"]:
            print(f"check problems: {s['check']['problems'][:10]}")
    if args.trace:
        if args.workload == "verify_sweep":
            print("warm caches: the traced worker pre-builds the beam-splitter and")
            print("recombination unitaries through their public functions, so")
            print("verify.regional_subtraction_s is warm-cache time.")
        for name in PER_LAYER:
            print(f"{name:<40} {metrics[name]:.6g} {PER_LAYER[name]}")
        accounted = sum(metrics[f"{n}.self_s"] for n in LAYERS) + metrics["trace.gap_s"]
        print(
            f"layer self times + gap = {accounted:.6g} s of traced run_s "
            f"{metrics['trace.run_s']:.6g} s; tracing overhead (traced - untraced run_s) "
            f"= {metrics['trace.overhead_s']:.4g} s"
        )
    else:
        good = [s for s in samples if s["ok"]]
        print(f"runs={len(samples)} setup samples={len(setups)}")
        for name, unit in END_TO_END.items():
            _print_summary(name, unit, summaries[name])
        run_s = summaries["run_s"]["median"]
        if args.workload == "verify_sweep":
            print(f"cases_per_s    {len(bc.VERIFY_CASES) / run_s:.6g} 1/s")
        else:
            print(f"mbins_per_s    {good[0]['check']['bins'] / 1e6 / run_s:.6g} Mbin/s")
            print("verdicts       " + ", ".join(s.get("verdict", "?") for s in good) + " (reported, not gated)")
        print(f"failed_frac    {failed / attempted:.6g}  ({failed} of {attempted} checks)")

    Path(root / ".perfbench-results").mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(root / ".perfbench-results" / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"record": record, "metrics": metrics, "samples": samples,
             "setup_samples": [] if args.trace else setups},
            fh,
        )

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
