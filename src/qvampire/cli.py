"""Command-line front end: profile, scan, verify, analyze.

Exit codes: 0 on success, 1 on validation or I/O problems, 2 when the
verification suite finds an operator-model fidelity breach (a scientific
failure, not a usage one).

Each command reaches its modules through the package root, which loads a
submodule at its first use, and building the parser loads none: ``verify``
loads ``fock`` and ``verify`` and no module of the Monte Carlo side, and
``profile``, ``scan`` and ``analyze`` load no part of the exact Fock engine.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

import qvampire as qv  # each submodule loads on first access

from .csvio import save_csv
from .errors import QVampireError

if TYPE_CHECKING:
    from .config import ScenarioConfig
    from .fock import DensityMatrix
    from .montecarlo import ScanResult

VERIFY_CSV_HEADER = "state,c_A,r,herald_model,fidelity,herald_prob,complement_population"
RATIO_CSV_HEADER = "row,col,ratio,sigma,tag"
CUT_CSV_HEADER = "x,scan_value,scan_sigma,ref_value,ref_sigma"

DEFAULT_STATES = "thermal:0.5,thermal:1,coherent:1,fock:1,fock:2,fock:3"
DEFAULT_CA = "0.1,0.5,0.9"
DEFAULT_R = "0.05,0.1,0.2"
STATE_FORMS = "thermal:<nbar>, coherent:<alpha> or fock:<n>"


def _load_scenario(args) -> ScenarioConfig:
    # loaded by the commands that read a config, so verify skips it
    from .config import apply_env_overrides, build_scenario, load_config

    cfg = load_config(args.config)
    cfg = apply_env_overrides(cfg, os.environ)
    seed = getattr(args, "seed", None)
    threads = getattr(args, "threads", None)
    return build_scenario(cfg, seed=seed, threads=threads)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _analytic_map(scenario: ScenarioConfig) -> np.ndarray:
    nbar = scenario.source.nbar
    profile, mask = scenario.source.profile, scenario.scan.mask
    if scenario.scenario != "subtraction":
        # the initial scenario's white mask transmits the whole profile
        return qv.spatial.loss_profile(profile, mask, nbar)
    # g2 of the source's photon statistics: Bose-Einstein 2, Poisson 1
    g2 = 2.0 if scenario.source.kind == qv.montecarlo.THERMAL else 1.0
    return qv.spatial.subtracted_profile_analytic(profile, mask, g2, nbar)


def cmd_profile(args) -> int:
    scenario = _load_scenario(args)
    out = _outdir(args)
    intensity = _analytic_map(scenario)
    qv.spatial.save_matrix_csv(out / "intensity.csv", intensity)
    peak = intensity.max()
    qv.spatial.save_pgm(out / "intensity.pgm", intensity / peak if peak > 0 else intensity)
    profile, mask = scenario.source.profile, scenario.scan.mask
    qv.spatial.save_matrix_csv(out / "profile.csv", profile.amplitude)
    qv.spatial.save_matrix_csv(out / "mask.csv", mask.transmission)
    qv.spatial.save_pgm(out / "mask.pgm", mask.transmission)
    qv.montecarlo.save_sidecar(out / "profile.cfg", scenario.echo)
    rate = qv.spatial.herald_rate(profile, mask, scenario.source.nbar)
    print(f"herald_rate={rate!r}")
    return 0


def cmd_scan(args) -> int:
    scenario = _load_scenario(args)
    out = _outdir(args)
    result = qv.montecarlo.run_scan(scenario.source, scenario.scan)
    echo = dict(scenario.echo)
    echo.update(result.config)
    qv.montecarlo.save_scan_csv(out / "scan.csv", result)
    qv.montecarlo.save_sidecar(out / "scan.cfg", echo)
    total = result.grid("camera_counts").sum()
    print(
        f"scan complete: {result.n_rows}x{result.n_cols} superpixels, "
        f"seed={scenario.scan.seed}, camera_counts={total}"
    )
    return 0


def _parse_state(spec: str, nmax: int) -> DensityMatrix:
    makers = {
        "thermal": (float, qv.fock.make_thermal),
        "coherent": (complex, qv.fock.make_coherent),
        "fock": (int, qv.fock.make_fock),
    }
    kind, _, value = spec.partition(":")
    try:
        convert, make = makers[kind]
        number = convert(value)
    except (KeyError, ValueError):
        raise QVampireError(f"state spec {spec!r}: expected {STATE_FORMS}") from None
    try:
        return make(number, nmax)
    except (QVampireError, ValueError) as exc:  # a value out of the maker's range
        raise QVampireError(f"state spec {spec!r}: {exc}") from None


def _split_list(text: str) -> list[str]:
    return [tok for tok in (t.strip() for t in text.split(",")) if tok]


def cmd_verify(args) -> int:
    specs = _split_list(args.states)
    cas = [float(v) for v in _split_list(args.ca)]
    rs = [float(v) for v in _split_list(args.r)]
    models = _split_list(qv.verify.OPERATOR if args.models is None else args.models)
    nmax = qv.verify.DEFAULT_VERIFY_NMAX if args.nmax is None else args.nmax
    if not specs or not cas or not rs or not models:
        print("verify: empty sweep (need states, ca, r and models)", file=sys.stderr)
        return 1
    if nmax < 1:  # checked once here, so no state spec takes the blame
        raise QVampireError(f"--nmax must be at least 1, got {nmax}")
    # the whole sweep is checked before its first case runs
    states = [(spec, _parse_state(spec, nmax)) for spec in specs]
    splits = [qv.verify.SplitConfig(c_a, r, model) for c_a in cas for r in rs for model in models]
    out = _outdir(args)
    rows = []
    margins, complements = [], []  # operator-model cases only
    for spec, rho in states:
        direct, _ = qv.fock.subtract_photon(rho)
        for split in splits:
            c_a, r, model = split.c_a, split.r, split.herald_model
            res = qv.verify.regional_subtraction(rho, split)
            fid = qv.fock.fidelity(res.state, direct)
            if model == qv.verify.OPERATOR:
                margins.append(fid - qv.verify.FIDELITY_FLOOR)
                complements.append(res.complement_population)
                status = "PASS" if fid >= qv.verify.FIDELITY_FLOOR else "FAIL"
            else:
                status = "INFO"
            print(
                f"{status} {spec} c_A={c_a} r={r} {model}: "
                f"fidelity={fid:.12f} herald_prob={res.herald_prob:.6e}"
            )
            rows.append((spec, c_a, r, model, fid, res.herald_prob, res.complement_population))
    save_csv(out / "verify.csv", VERIFY_CSV_HEADER, rows)
    summary = f"verify: {len(rows)} cases"
    if margins:
        summary += (
            f"; operator model: min fidelity - floor = {min(margins):+.3e}, "
            f"max complement population = {max(complements):.3e}"
        )
    print(summary)
    if margins and min(margins) < 0:
        print("verify: operator-model fidelity breach", file=sys.stderr)
        return 2
    return 0


def _sidecar_for(path: Path) -> dict:
    sidecar = path.with_suffix(".cfg")
    return qv.montecarlo.load_sidecar(sidecar) if sidecar.exists() else {}


def _region_fracs(result: ScanResult) -> tuple[np.ndarray, str | None]:
    """Fraction of each superpixel inside the mask region; zeros and the reason
    when the scan names no region (the shadow z-score is then NaN)."""
    from .config import parse_region_spec

    cfg = result.config
    if not cfg:
        reason = "no sidecar"
    elif cfg.get("scenario") == "initial":
        reason = "initial scenario"
    else:
        try:
            width = int(cfg["grid.width"])
            height = int(cfg["grid.height"])
            superpixel = int(cfg["scan.superpixel"])
            region = parse_region_spec(cfg["mask.region"], width, height)
        except KeyError as exc:
            reason = f"sidecar lacks {exc.args[0]}"
        except ValueError as exc:
            reason = f"bad region spec or grid size: {exc}"
        else:
            fracs = qv.analysis.region_fraction_map(
                region, superpixel, result.n_rows, result.n_cols
            )
            return fracs, None
    note = f"no mask region ({reason}); shadow z-score is NaN"
    return np.zeros((result.n_rows, result.n_cols)), note


def _report_assumptions(path: Path, result: ScanResult, region_note: str | None = None) -> None:
    """One stderr line per scan naming the sidecar defaults it was analyzed with."""
    used = [f"{k}={v}" for k, v in qv.montecarlo.SIDECAR_DEFAULTS.items() if k not in result.config]
    notes = [f"defaults used: {', '.join(used)}"] if used else []
    if region_note:
        notes.append(region_note)
    if notes:
        print(f"analyze: {path}: {'; '.join(notes)}", file=sys.stderr)


def cmd_analyze(args) -> int:
    scan_path = Path(args.scan)
    result = qv.montecarlo.load_scan_csv(scan_path, config=_sidecar_for(scan_path))
    fracs, region_note = _region_fracs(result)
    _report_assumptions(scan_path, result, region_note)

    if args.reference:
        ref_path = Path(args.reference)
        reference = qv.montecarlo.load_scan_csv(ref_path, config=_sidecar_for(ref_path))
        _report_assumptions(ref_path, reference)
        if (reference.n_rows, reference.n_cols) != (result.n_rows, result.n_cols):
            raise QVampireError(
                f"superpixel grids differ: scan {result.n_rows}x{result.n_cols} "
                f"vs reference {reference.n_rows}x{reference.n_cols}"
            )
        num, num_s = result.camera_rate_map()
        den, den_s = reference.camera_rate_map()
    else:
        maps = qv.montecarlo.conditional_profile_mc(result)
        num, num_s = maps.conditional.values, maps.conditional.sigmas
        den, den_s = maps.unconditional.values, maps.unconditional.sigmas

    rmap = qv.analysis.ratio_map(num, num_s, den, den_s, fracs)
    flat = qv.analysis.flatness_test(rmap)
    try:
        depth, z = qv.analysis.shadow_depth(rmap)
    except QVampireError:
        depth, z = float("nan"), float("nan")

    cam = int(result.grid("camera_counts").sum())
    her = int(result.grid("herald_counts").sum())
    both = int(result.grid("coincidence_counts").sum())
    bins = int(result.grid("n_bins").sum())
    if her > 0 and cam > 0:
        g2, g2_sigma = qv.analysis.g2_estimate(cam, her, both, bins)
    else:
        g2, g2_sigma = float("nan"), float("nan")

    verdict = qv.analysis.verdict(flat.p_value, z)

    if args.band is not None:
        lo, hi = args.band
    else:
        lo = result.n_rows // 3
        hi = max(lo + 1, (2 * result.n_rows) // 3)
    # cut before the first write, so a band off the grid leaves no partial report
    x, cut_num, cut_num_s = qv.analysis.profile_cut(num, num_s, lo, hi)
    _, cut_den, cut_den_s = qv.analysis.profile_cut(den, den_s, lo, hi)

    out = _outdir(args)
    cells = np.ndindex(result.n_rows, result.n_cols)
    rows = ((i, j, rmap.ratio[i, j], rmap.sigma[i, j], rmap.tags[i, j]) for i, j in cells)
    save_csv(out / "ratio_map.csv", RATIO_CSV_HEADER, rows)
    save_csv(out / "cut.csv", CUT_CSV_HEADER, zip(x, cut_num, cut_num_s, cut_den, cut_den_s))

    summary = {
        "chi2": repr(flat.chi2),
        "dof": str(flat.dof),
        "p_value": repr(flat.p_value),
        "best_const": repr(flat.best_const),
        "depth": repr(depth),
        "z_score": repr(z),
        "g2": repr(g2),
        "g2_sigma": repr(g2_sigma),
        "band": f"{lo}:{hi}",
        "verdict": verdict,
    }
    qv.montecarlo.save_sidecar(out / "summary.txt", summary)
    print(f"verdict={verdict} p_value={flat.p_value:.4g} best_const={flat.best_const:.4f} z={z:.2f}")
    return 0


def _band(text: str) -> tuple[int, int]:
    """``--band lo:hi``, the superpixel rows the 1-D cut averages."""
    try:
        lo, hi = (int(tok) for tok in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi (integer rows), got {text!r}") from None
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvampire",
        description="Heralded photon-subtraction imaging simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="write analytic intensity maps for a scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("scan", help="run the Monte Carlo raster scan")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="brute-force regional-subtraction check")
    p.add_argument("--out", required=True)
    p.add_argument("--states", default=DEFAULT_STATES)
    p.add_argument("--ca", default=DEFAULT_CA)
    p.add_argument("--r", default=DEFAULT_R)
    # None takes verify.OPERATOR and verify.DEFAULT_VERIFY_NMAX in cmd_verify,
    # so building the parser imports no module
    p.add_argument("--models", default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="ratio maps, flatness/shadow verdict, g2")
    p.add_argument("--scan", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--band", type=_band, default=None, metavar="LO:HI")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (QVampireError, OSError, ValueError) as exc:
        print(f"qvampire: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
