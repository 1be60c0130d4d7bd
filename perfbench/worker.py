"""One benchmark process: set up, run one workload, check its outputs.

``run.py`` starts this script in a fresh interpreter for every sample, so
each sample pays ``import qvampire`` and the cold ``lru_cache`` builds
again, as every CLI invocation does.  Modes:

- ``setup``: import qvampire and build the inputs, then stop.
- ``cli``: after setup, run the user's command(s) through
  ``qvampire.cli.main`` and time them.
- ``traced``: after setup, make the same calls into the modules' public
  functions directly, with a span around each call.

The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchcore as bc  # noqa: E402  (stdlib only)


def _rusage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _make_state(spec: str):
    from qvampire import fock

    kind, _, value = spec.partition(":")
    if kind == "thermal":
        return fock.make_thermal(float(value), bc.VERIFY_NMAX)
    if kind == "coherent":
        return fock.make_coherent(complex(value), bc.VERIFY_NMAX)
    return fock.make_fock(int(value), bc.VERIFY_NMAX)


def _build_scenario(cfg_path: Path, seed: int):
    from qvampire.config import build_scenario, load_config

    return build_scenario(load_config(cfg_path), seed=seed)


def setup(workload: str, seed: int, out: Path, tracer):
    """Inputs of the run: the verify states, or the resolved scan scenario."""
    if workload == "verify_sweep":
        return {spec: _make_state(spec) for spec in bc.VERIFY_STATES}
    cfg_path = out / "input.cfg"
    cfg_path.write_text(bc.SCAN_CONFIGS[workload], encoding="ascii")
    if tracer is None:
        return _build_scenario(cfg_path, seed)
    with tracer.span("config", "build_scenario"):
        return _build_scenario(cfg_path, seed)


# ---------------------------------------------------------------------------
# untraced: the user's commands


def run_cli(workload: str, seed: int, out: Path) -> list[int]:
    from qvampire.cli import main

    if workload == "verify_sweep":
        return [
            main(
                [
                    "verify",
                    "--out", str(out / "verify"),
                    "--states", ",".join(bc.VERIFY_STATES),
                    "--ca", ",".join(map(repr, bc.VERIFY_CA)),
                    "--r", ",".join(map(repr, bc.VERIFY_R)),
                    "--models", "operator",
                    "--nmax", str(bc.VERIFY_NMAX),
                ]
            )
        ]
    scan_dir = out / "scan"
    return [
        main(["scan", "--config", str(out / "input.cfg"), "--out", str(scan_dir), "--seed", str(seed)]),
        main(["analyze", "--scan", str(scan_dir / "scan.csv"), "--out", str(out / "report")]),
    ]


# ---------------------------------------------------------------------------
# traced: the same calls, one span each


def run_verify_traced(states: dict, tracer) -> list[tuple]:
    """Pre-build the unitaries, then run the sweep with warm caches."""
    from qvampire import fock, verify

    d = bc.VERIFY_NMAX + 1
    # The same (t, r) that regional_subtraction passes, so its lookups hit.
    for r in bc.VERIFY_R:
        with tracer.span("fock", "beamsplitter_unitary"):
            fock.beamsplitter_unitary(d, d, math.sqrt(max(1.0 - r * r, 0.0)), r)
    for c_a in bc.VERIFY_CA:
        with tracer.span("verify", "recombination_unitary"):
            verify.recombination_unitary(c_a, d)
    rows = []
    for spec, rho in states.items():
        with tracer.span("fock", "subtract_photon"):
            direct, _ = fock.subtract_photon(rho)
        for c_a in bc.VERIFY_CA:
            for r in bc.VERIFY_R:
                cfg = verify.SplitConfig(c_a=c_a, r=r, herald_model=verify.OPERATOR)
                with tracer.span("verify", "regional_subtraction"):
                    res = verify.regional_subtraction(rho, cfg)
                with tracer.span("fock", "fidelity"):
                    fid = fock.fidelity(res.state, direct)
                rows.append(
                    (spec, c_a, r, cfg.herald_model, fid, res.herald_prob, res.complement_population)
                )
    return rows


def run_scan_traced(seed: int, out: Path, tracer) -> dict:
    """``qvampire scan`` then ``qvampire analyze``, without writing the report files."""
    from qvampire import analysis, montecarlo as mc
    from qvampire.config import parse_region_spec

    scan_dir = out / "scan"
    scan_dir.mkdir(parents=True, exist_ok=True)
    info = {}
    with tracer.span("bench", "scan"):
        with tracer.span("config", "build_scenario"):
            scenario = _build_scenario(out / "input.cfg", seed)
        with tracer.span("montecarlo", "run_scan") as sp:
            result = mc.run_scan(scenario.source, scenario.scan)
        info["run_scan_cpu_s"] = sp["cpu_s"]
        info["peak_rss_after_run_scan_mb"] = _peak_rss_mb()
        with tracer.span("io", "save_scan_csv"):
            mc.save_scan_csv(scan_dir / "scan.csv", result)
        with tracer.span("io", "save_sidecar"):
            echo = dict(scenario.echo)
            echo.update(result.config)
            mc.save_sidecar(scan_dir / "scan.cfg", echo)
    with tracer.span("bench", "analyze"):
        with tracer.span("io", "load_sidecar"):
            cfg = mc.load_sidecar(scan_dir / "scan.cfg")
        with tracer.span("io", "load_scan_csv"):
            loaded = mc.load_scan_csv(scan_dir / "scan.csv", config=cfg)
        with tracer.span("config", "parse_region_spec"):
            region = parse_region_spec(
                cfg["mask.region"], int(cfg["grid.width"]), int(cfg["grid.height"])
            )
        with tracer.span("analysis", "region_fraction_map"):
            fracs = analysis.region_fraction_map(
                region, int(cfg["scan.superpixel"]), loaded.n_rows, loaded.n_cols
            )
        with tracer.span("montecarlo", "conditional_profile_mc"):
            maps = mc.conditional_profile_mc(loaded)
        with tracer.span("analysis", "ratio_map"):
            rmap = analysis.ratio_map(
                maps.conditional.values,
                maps.conditional.sigmas,
                maps.unconditional.values,
                maps.unconditional.sigmas,
                fracs,
            )
        with tracer.span("analysis", "flatness_test"):
            flat = analysis.flatness_test(rmap)
        with tracer.span("analysis", "shadow_depth"):
            _, z = analysis.shadow_depth(rmap)
        totals = [
            int(loaded.grid(name).sum())
            for name in ("camera_counts", "herald_counts", "coincidence_counts", "n_bins")
        ]
        with tracer.span("analysis", "g2_estimate"):
            analysis.g2_estimate(*totals)
        lo = loaded.n_rows // 3
        hi = max(lo + 1, (2 * loaded.n_rows) // 3)
        with tracer.span("analysis", "profile_cut"):
            analysis.profile_cut(maps.conditional.values, maps.conditional.sigmas, lo, hi)
            analysis.profile_cut(maps.unconditional.values, maps.unconditional.sigmas, lo, hi)
    info.update(
        superpixels_used_frac=float(rmap.usable().mean()),
        chi2_per_dof=flat.chi2 / flat.dof,
        z_score=float(z),
        best_const=flat.best_const,
        bins=sum(rec.n_bins for rec in result.records),
        tiles=len(result.records),
        threads=scenario.scan.threads,
        blocks=sum(
            -(-rec.n_bins // mc.bins_per_block(scenario.source, scenario.scan.herald_detector))
            for rec in result.records
        ),
        csv_bytes=(scan_dir / "scan.csv").stat().st_size,
    )
    return info


# ---------------------------------------------------------------------------
# checks (outside the timed region)


def check_scan(scenario, scan_csv: Path) -> dict:
    """Compare the scan CSV with the analytic singles model of ``montecarlo``."""
    from qvampire import montecarlo as mc, spatial

    src, scan = scenario.source, scenario.scan
    n_bins = min(int(scan.dwell / scan.bin_width + 1e-9), scan.bins_cap)
    profile = src.profile
    n_rows, n_cols, tiles = mc.superpixel_tiles(profile.height, profile.width, scan.superpixel)
    power = (scan.mask.transmission * profile.amplitude) ** 2
    herald_coupling = spatial.reduce(profile, scan.mask).r_eff ** 2
    cam = [
        mc.expected_singles_counts(float(power[ys, xs].sum()), src, scan.camera_detector, n_bins)
        for _, _, ys, xs in tiles
    ]
    her = mc.expected_singles_counts(herald_coupling, src, scan.herald_detector, n_bins)
    cam_expect = (sum(m for m, _ in cam), math.sqrt(sum(s * s for _, s in cam)))
    her_expect = (her[0] * len(tiles), her[1] * math.sqrt(len(tiles)))
    check = bc.check_scan_csv(
        scan_csv.read_text(encoding="ascii"), n_rows, n_cols, n_bins, cam_expect, her_expect
    )
    check["bins"] = n_bins * len(tiles)
    return check


def _read_verdict(summary: Path) -> str:
    for line in summary.read_text(encoding="ascii").splitlines():
        key, _, value = line.partition("=")
        if key == "verdict":
            return value
    return "missing"


def versions() -> dict:
    """Interpreter, numpy and scipy versions and OpenBLAS thread counts."""
    import ctypes

    import numpy
    import scipy

    blas = {}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas[os.path.basename(lib)] = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=bc.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "cli", "traced"), required=True)
    ap.add_argument("--src", required=True, help="directory holding the qvampire package")
    ap.add_argument("--out", required=True, help="scratch directory for this process")
    ap.add_argument("--result", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, args.src)
    before = set(sys.modules)
    t0 = time.perf_counter()
    import qvampire  # noqa: F401

    import_s = time.perf_counter() - t0
    loaded = set(sys.modules) - before
    tracer = bc.Tracer(f"{args.workload}-{args.seed}") if args.mode == "traced" else None
    inputs = setup(args.workload, args.seed, out, tracer)
    res = {
        "setup_done": time.monotonic(),
        "import_s": import_s,
        "modules_loaded": len(loaded),
        "scipy_modules_loaded": sum(1 for m in loaded if m == "scipy" or m.startswith("scipy.")),
    }
    if args.mode != "setup":
        cpu0 = _rusage_cpu()
        t1 = time.perf_counter()
        if args.mode == "cli":
            codes = run_cli(args.workload, args.seed, out)
            info = {}
        else:
            codes = [0]
            with tracer.span("bench", "run") as root:
                if args.workload == "verify_sweep":
                    rows, info = run_verify_traced(inputs, tracer), {}
                else:
                    info = run_scan_traced(args.seed, out, tracer)
        res["run_s"] = time.perf_counter() - t1
        res["cpu_s"] = _rusage_cpu() - cpu0
        res["peak_rss_mb"] = _peak_rss_mb()
        res["exit_codes"] = codes
        res["info"] = info

        if args.workload == "verify_sweep":
            if args.mode == "cli":
                check = bc.check_verify_csv((out / "verify" / "verify.csv").read_text(encoding="ascii"))
            else:
                check = bc.check_verify_rows(rows)
        else:
            check = check_scan(inputs, out / "scan" / "scan.csv")
            if args.mode == "cli":
                res["verdict"] = _read_verdict(out / "report" / "summary.txt")
        if any(codes):
            check["failed"] = check["attempted"]
            check["problems"].append(f"exit codes {codes}")
        res["check"] = check
        if tracer is not None:
            res["spans"] = tracer.spans
            res["root_id"] = root["id"]
        res["versions"] = versions()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
