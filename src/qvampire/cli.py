"""Command-line front end: profile, scan, verify, analyze.

Each command parses its inputs, makes its calls and writes what they
return; the verdicts are ``analysis.analyze``'s and ``verify.sweep``'s.
Exit codes: 0 on success, 1 on validation or I/O problems, 2 when the
verification suite finds an operator-model breach, a fidelity below its
floor or a complement population above its tolerance (a scientific
failure, not a usage one).  Each command reaches its modules through the
package root, which loads a submodule at its first use, so ``verify``
loads no module of the Monte Carlo side and the other commands no part
of the exact Fock engine.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

import qvampire as qv  # each submodule loads on first access

from .csvio import save_csv
from .errors import QVampireError

if TYPE_CHECKING:
    from .config import ScenarioConfig

VERIFY_CSV_HEADER = "state,c_A,r,herald_model,fidelity,herald_prob,complement_population"
RATIO_CSV_HEADER = "row,col,ratio,sigma,tag"
CUT_CSV_HEADER = "x,scan_value,scan_sigma,ref_value,ref_sigma"

DEFAULT_STATES = "thermal:0.5,thermal:1,coherent:1,fock:1,fock:2,fock:3"
DEFAULT_CA = "0.1,0.5,0.9"
DEFAULT_R = "0.05,0.1,0.2"


def _load_scenario(args) -> tuple[dict, ScenarioConfig]:
    """The config as read and the scenario built from it."""
    # loaded by the commands that read a config, so verify skips it
    from .config import build_scenario, load_config

    cfg = load_config(args.config)
    return cfg, build_scenario(cfg, seed=getattr(args, "seed", None))


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_profile(args) -> int:
    cfg, scenario = _load_scenario(args)
    out = _outdir(args)
    intensity = scenario.analytic_map()
    qv.spatial.save_matrix_csv(out / "intensity.csv", intensity)
    peak = intensity.max()
    qv.spatial.save_pgm(out / "intensity.pgm", intensity / peak if peak > 0 else intensity)
    profile, mask = scenario.source.profile, scenario.scan.mask
    qv.spatial.save_matrix_csv(out / "profile.csv", profile.amplitude)
    qv.spatial.save_matrix_csv(out / "mask.csv", mask.transmission)
    qv.spatial.save_pgm(out / "mask.pgm", mask.transmission)
    # profile draws nothing, so it echoes only a seed the config gave
    echo = scenario.echo | {"scan.seed": cfg.get("scan.seed", "")}
    qv.montecarlo.save_sidecar(out / "profile.cfg", echo)
    # the mean photon number per time mode in the heralding channel
    rate = qv.spatial.reduce(profile, mask).r_eff ** 2 * scenario.source.nbar
    print(f"herald_rate={rate!r}")
    return 0


def cmd_scan(args) -> int:
    _, scenario = _load_scenario(args)
    out = _outdir(args)
    result = scenario.run_scan()
    echo = dict(scenario.echo)
    echo.update(result.config)
    qv.montecarlo.save_scan_csv(out / "scan.csv", result)
    qv.montecarlo.save_sidecar(out / "scan.cfg", echo)
    total = sum(result.grid("camera_counts").ravel().tolist())  # an int64 sum could wrap
    print(
        f"scan complete: {result.n_rows}x{result.n_cols} superpixels, "
        f"seed={scenario.scan.seed}, camera_counts={total}"
    )
    return 0


def _values(option: str, text: str, read) -> list:
    """``option``'s comma-separated values through ``read``; a refusal or no value names it."""
    try:
        values = [read(tok) for tok in (t.strip() for t in text.split(",")) if tok]
    except (ValueError, QVampireError) as exc:  # the number parser's, or the value's refusal
        raise QVampireError(f"{option} {text!r}: {exc}") from None
    if not values:
        raise QVampireError(f"{option} {text!r}: no value, so the sweep is empty")
    return values


def cmd_verify(args) -> int:
    specs = _values("--states", args.states, str)
    split = qv.verify.SplitConfig  # checks each option's values with the others held valid
    cas = _values("--ca", args.ca, lambda v: split(float(v), 1.0).c_a)
    rs = _values("--r", args.r, lambda v: split(1.0, float(v)).r)
    models = qv.verify.OPERATOR if args.models is None else args.models
    models = _values("--models", models, lambda v: split(1.0, 1.0, v).herald_model)
    nmax = qv.verify.DEFAULT_VERIFY_NMAX if args.nmax is None else args.nmax
    if nmax < 1:  # checked once here, so no state spec takes the blame
        raise QVampireError(f"--nmax must be at least 1, got {nmax}")
    # the whole sweep is checked before its first case runs
    states = [(spec, qv.verify.parse_state(spec, nmax)) for spec in specs]
    splits = [qv.verify.SplitConfig(c_a, r, model) for c_a in cas for r in rs for model in models]
    lines, rows, operator, breach = [], [], [], False  # only text and numbers outlive a case
    for case in qv.verify.sweep(states, splits):
        split, res = case.split, case.result
        lines.append(
            f"{case.status} {case.label} c_A={split.c_a} r={split.r} {split.herald_model}: "
            f"fidelity={case.fidelity:.12f} herald_prob={res.herald_prob:.6e}"
        )
        rows.append((case.label, split.c_a, split.r, split.herald_model, case.fidelity,
                     res.herald_prob, res.complement_population))
        if case.margin is not None:  # an operator-model case
            operator.append((case.margin, res.complement_population))
        breach |= case.status == "FAIL"
    # nothing is printed or written until the whole sweep has run, so a refused case leaves neither
    print("\n".join(lines))
    save_csv(_outdir(args) / "verify.csv", VERIFY_CSV_HEADER, rows)
    summary = f"verify: {len(rows)} cases"
    if operator:
        margins, complements = zip(*operator)
        summary += (
            f"; operator model: min fidelity - floor = {min(margins):+.3e}, "
            f"max complement population = {max(complements):.3e}"
        )
    print(summary)
    if breach:
        print("verify: operator-model breach of the fidelity floor or the complement "
              "tolerance", file=sys.stderr)
        return 2
    return 0


def _sidecar_for(path: Path) -> dict:
    sidecar = path.with_suffix(".cfg")
    return qv.montecarlo.load_sidecar(sidecar) if sidecar.exists() else {}


def _print_notes(paths: list[Path], notes) -> None:
    for path, note in zip(paths, notes):
        if note:
            print(f"analyze: {path}: {note}", file=sys.stderr)


def cmd_analyze(args) -> int:
    paths = [Path(p) for p in (args.scan, args.reference) if p]
    scans = [qv.montecarlo.load_scan_csv(p, config=_sidecar_for(p)) for p in paths]
    try:
        report = qv.analysis.analyze(*scans, band=args.band)
    except QVampireError as exc:
        _print_notes(paths, getattr(exc, "notes", ()))  # a failing run still names them
        raise
    _print_notes(paths, report.notes)

    out = _outdir(args)
    rmap = report.rmap
    cells = np.ndindex(rmap.ratio.shape)
    rows = ((i, j, rmap.ratio[i, j], rmap.sigma[i, j], rmap.tags[i, j]) for i, j in cells)
    save_csv(out / "ratio_map.csv", RATIO_CSV_HEADER, rows)
    save_csv(out / "cut.csv", CUT_CSV_HEADER, zip(*report.cut))
    qv.montecarlo.save_sidecar(out / "summary.txt", report.summary())
    flat = report.flat
    print(
        f"verdict={report.verdict} p_value={flat.p_value:.4g} "
        f"best_const={flat.best_const:.4f} z={report.z:.2f}"
    )
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
    except (QVampireError, OSError) as exc:
        print(f"qvampire: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
