"""Acceptance suite: one test per headline claim, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The Monte Carlo criteria use a 64x48 grid tiled into 16x12
superpixels of 4x4 pixels, with the heralding operating points scaled by
0.1 into the weak-click regime.
"""

import math
import time

import numpy as np
import pytest

from qvampire import analysis, cli, fock, montecarlo as mc, spatial, verify
from test_fock import weights_g2, weights_mean


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


# shared desk-scale apparatus geometry
GRID_W, GRID_H = 64, 48
SUPERPIXEL = 4  # 16x12 superpixels
REGION = spatial.rect_region(GRID_W, GRID_H, 22, 17, 20, 14)
PROFILE = spatial.make_profile("uniform_ellipse", GRID_W, GRID_H, rx=28, ry=20)
NBAR = 1.0
WEAK_CLICK_SCALE = 0.1  # herald operating points 1.0 and 0.13, scaled


def _vampire_mask(target_herald_rate: float) -> spatial.MaskSpec:
    contrast = spatial.contrast_for_herald_rate(PROFILE, REGION, NBAR, target_herald_rate)
    return spatial.vampire_mask(REGION, contrast)


def _scan(mask, seed, dwell, bins_cap=10**6):
    src = mc.SourceConfig(nbar=NBAR, profile=PROFILE)
    scan = mc.ScanConfig(
        mask=mask,
        seed=seed,
        superpixel=SUPERPIXEL,
        dwell=dwell,
        bins_cap=bins_cap,
    )
    return mc.run_scan(src, scan)


def test_criterion_1_thermal_doubling():
    t0 = time.perf_counter()
    worst = 0.0
    for nbar in (0.2, 0.5, 1.0):
        out, _ = fock.subtract_photon(fock.make_thermal(nbar, 60))
        worst = max(worst, abs(out.mean_photons() - 2.0 * nbar))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "thermal subtraction doubles the mean photon number",
        worst < 1e-6 and elapsed < 1.0,
        f"worst |error| {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_statistics_identity():
    t0 = time.perf_counter()
    states = [
        fock.make_thermal(1.0, 60),
        fock.make_coherent(1.0, 60),
        fock.make_fock(5, 60),
        fock.DensityMatrix(
            0.5 * fock.make_thermal(1.0, 60).elements + 0.5 * fock.make_coherent(1.0, 60).elements
        ),
    ]
    worst = 0.0
    for rho in states:
        p = rho.populations()
        out, _ = fock.subtract_photon(rho)
        worst = max(worst, abs(out.mean_photons() / weights_mean(p) - weights_g2(p)))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "mean ratio after/before subtraction equals g2",
        worst < 1e-8 and elapsed < 1.0,
        f"worst |error| {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_linear_growth():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 6):
        out = fock.make_thermal(0.5, 80)
        for _ in range(k):
            out, _ = fock.subtract_photon(out)
        worst = max(worst, abs(out.mean_photons() / 0.5 - (k + 1)))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "k-fold thermal subtraction grows the mean linearly",
        worst < 1e-4 and elapsed < 5.0,
        f"worst |error| {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_4_regional_subtraction_theorem():
    t0 = time.perf_counter()
    nmax = verify.DEFAULT_VERIFY_NMAX  # 28 photons per mode
    states = [
        fock.make_thermal(0.5, nmax),
        fock.make_thermal(1.0, nmax),
        fock.make_coherent(1.0, nmax),
        fock.make_fock(1, nmax),
        fock.make_fock(2, nmax),
        fock.make_fock(3, nmax),
    ]
    cases = 0
    worst_fid = 1.0
    worst_pop = 0.0
    for rho in states:
        direct, _ = fock.subtract_photon(rho)
        for c_a in (0.1, 0.5, 0.9):
            for r in (0.05, 0.1, 0.2):
                res = verify.regional_subtraction(
                    rho, verify.SplitConfig(c_a=c_a, r=r, herald_model=verify.OPERATOR)
                )
                worst_fid = min(worst_fid, fock.fidelity(res.state, direct))
                worst_pop = max(worst_pop, res.complement_population)
                cases += 1
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "sub-mode subtraction equals whole-beam subtraction",
        cases >= 36 and worst_fid >= 1 - 1e-9 and worst_pop <= 1e-10 and elapsed < 300,
        f"{cases} cases, min fidelity 1-{1 - worst_fid:.1e}, "
        f"max complement {worst_pop:.1e}, {elapsed:.0f} s",
    )


def test_criterion_5_coherent_invariance():
    rho = fock.make_coherent(1.0, 40)
    out, _ = fock.subtract_photon(rho)
    fid_direct = fock.fidelity(out, rho)
    res = verify.regional_subtraction(
        fock.make_coherent(1.0, verify.DEFAULT_VERIFY_NMAX),
        verify.SplitConfig(c_a=0.5, r=0.1, herald_model=verify.OPERATOR),
    )
    fid_regional = fock.fidelity(res.state, fock.make_coherent(1.0, verify.DEFAULT_VERIFY_NMAX))
    _report(
        5,
        "coherent states are fixed points of subtraction",
        fid_direct >= 1 - 1e-9 and fid_regional >= 1 - 1e-9,
        f"direct 1-{1 - fid_direct:.1e}, regional 1-{1 - fid_regional:.1e}",
    )


def test_criterion_6_herald_model_gap_scaling():
    rs = [0.02, 0.05, 0.1, 0.2]
    rho = fock.make_thermal(1.0, 26)
    ideal, _ = fock.subtract_photon(rho)
    dev = []
    for r in rs:
        cfg = verify.SplitConfig(c_a=math.sqrt(0.3), r=r, herald_model=verify.CLICK_POVM)
        f = fock.fidelity(verify.regional_subtraction(rho, cfg).state, ideal)
        # fidelity-derived (Bures) distance to the ideal subtracted state
        dev.append(math.sqrt(2.0 * (1.0 - math.sqrt(f))))
    slope = np.polyfit(np.log(rs), np.log(dev), 1)[0]
    _report(
        6,
        "click-detector deviation from pure lowering scales as r^2",
        abs(slope - 2.0) <= 0.3,
        f"log-log slope {slope:.3f}",
    )


def test_criterion_7_high_contrast_shadow():
    t0 = time.perf_counter()
    mask = _vampire_mask(1.0 * WEAK_CLICK_SCALE)
    loss = _scan(mask, seed=701, dwell=0.012)
    initial = _scan(spatial.MaskSpec(np.ones((GRID_H, GRID_W))), seed=702, dwell=0.012)
    num, num_s = loss.camera_rate_map()
    den, den_s = initial.camera_rate_map()
    fracs = analysis.region_fraction_map(REGION, SUPERPIXEL, loss.n_rows, loss.n_cols)
    rmap = analysis.ratio_map(num, num_s, den, den_s, fracs)
    flat = analysis.flatness_test(rmap)
    depth, z = analysis.shadow_depth(rmap)
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "high-contrast loss casts a clear shadow",
        z > 5.0 and flat.p_value < 1e-6 and elapsed < 600,
        f"depth {depth:.3f}, z {z:.1f}, p {flat.p_value:.2e}, {elapsed:.0f} s",
    )


def test_criterion_8_subtraction_no_shadow_twice_brighter():
    t0 = time.perf_counter()
    mask = _vampire_mask(0.13 * WEAK_CLICK_SCALE)
    result = _scan(mask, seed=801, dwell=0.096, bins_cap=8 * 10**6)
    maps = mc.conditional_profile_mc(result)
    fracs = analysis.region_fraction_map(REGION, SUPERPIXEL, result.n_rows, result.n_cols)
    rmap = analysis.ratio_map(
        maps.conditional.values,
        maps.conditional.sigmas,
        maps.unconditional.values,
        maps.unconditional.sigmas,
        fracs,
    )
    flat = analysis.flatness_test(rmap)
    depth, z = analysis.shadow_depth(rmap)
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "heralded subtraction: no shadow, profile twice brighter",
        flat.p_value > 0.01
        and abs(z) < 3.0
        and abs(flat.best_const - 2.0) <= 0.05
        and elapsed < 900,
        f"best_const {flat.best_const:.4f}, p {flat.p_value:.3f}, z {z:.2f}, {elapsed:.0f} s",
    )


def test_criterion_9_mc_matches_analytic_rates():
    t0 = time.perf_counter()
    src = mc.SourceConfig(nbar=NBAR, profile=PROFILE)
    mask = spatial.MaskSpec(np.ones((GRID_H, GRID_W)))
    power = PROFILE.power()
    _, _, tiles = mc.superpixel_tiles(GRID_H, GRID_W, SUPERPIXEL)
    tested = 0
    outliers = 0
    for seed in range(900, 910):
        scan = mc.ScanConfig(mask=mask, seed=seed, superpixel=SUPERPIXEL, dwell=0.0024)
        result = mc.run_scan(src, scan)
        for row, col, ys, xs in tiles:
            n_bins, counts = (int(result.grid(name)[row, col]) for name in mc.COUNTS[:2])
            w = float(power[ys, xs].sum())
            mean, sigma = mc.expected_singles_counts(w, src, scan.camera_detector, n_bins)
            tested += 1
            if sigma == 0.0:
                outliers += int(counts != round(mean))
            elif abs(counts - mean) > 3.0 * sigma:
                outliers += 1
    elapsed = time.perf_counter() - t0
    fraction = outliers / tested
    _report(
        9,
        "MC singles rates match the thermal-averaged analytic rates",
        fraction <= 0.01,
        f"{outliers}/{tested} beyond 3 sigma ({100 * fraction:.2f}%), {elapsed:.0f} s",
    )


def test_criterion_10_scan_determinism(tmp_path):
    base = (
        "\n".join(
            [
                "scenario=subtraction",
                "grid.width=64",
                "grid.height=48",
                "profile.kind=uniform_ellipse",
                "profile.rx=28",
                "profile.ry=20",
                "mask.region=rect:22,17,20,14",
                "mask.herald_target=0.013",
                "source.nbar=1.0",
                "scan.superpixel=4",
                "scan.dwell=0.00012",
                "scan.seed=1000",
            ]
        )
        + "\n"
    )
    payloads = []
    for threads in (1, 4, 8):
        cfg = tmp_path / f"det{threads}.cfg"
        cfg.write_text(base + f"scan.threads={threads}\n")
        out = tmp_path / f"threads{threads}"
        assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
        payloads.append((out / "scan.csv").read_bytes())
    _report(
        10,
        "fixed seed gives byte-identical scans at 1, 4, 8 threads",
        payloads[0] == payloads[1] == payloads[2],
        f"{len(payloads[0])} bytes each",
    )
