"""Estimator tests: g2, ratio maps, flatness calibration, shadow detection."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import chi2 as chi2_dist

from qvampire import analysis, config, montecarlo as mc
from qvampire.errors import QVampireError


def synthetic_flat_map(rng, shape=(8, 10), const=2.0, rel_err=0.03):
    sigma = np.full(shape, const * rel_err)
    ratio = const + sigma * rng.standard_normal(shape)
    tags = np.full(shape, analysis.TAG_OUTSIDE, dtype=object)
    return analysis.RatioMap(ratio=ratio, sigma=sigma, tags=tags)


# ---------------------------------------------------------------------------
# g2 estimator


def test_g2_estimate_independent_streams():
    rng = np.random.default_rng(42)
    n = 10**6
    a = rng.random(n) < 0.01
    b = rng.random(n) < 0.02
    g2, sigma = analysis.g2_estimate(int(a.sum()), int(b.sum()), int((a & b).sum()), n)
    assert abs(g2 - 1.0) < 3 * sigma
    assert sigma < 0.1


def test_g2_estimate_zero_coincidences():
    g2, sigma = analysis.g2_estimate(1000, 1000, 0, 10**6)
    assert g2 == 0.0
    assert 0.0 < sigma < np.inf


def test_g2_estimate_requires_singles():
    with pytest.raises(QVampireError, match="need camera and herald singles"):
        analysis.g2_estimate(0, 100, 0, 1000)
    with pytest.raises(QVampireError, match="counts must be non-negative"):
        analysis.g2_estimate(100, -1, 0, 1000)


def test_g2_estimate_exact_value():
    g2, _ = analysis.g2_estimate(1000, 2000, 4, 10**6)
    assert abs(g2 - 4 * 10**6 / (1000 * 2000)) < 1e-12


# ---------------------------------------------------------------------------
# ratio maps


def test_ratio_map_identical_inputs():
    v = np.full((4, 5), 0.02)
    s = np.full((4, 5), 0.001)
    rm = analysis.ratio_map(v, s, v, s, np.zeros_like(v))
    assert np.allclose(rm.ratio, 1.0)
    assert np.all(rm.tags == analysis.TAG_OUTSIDE)


def test_ratio_map_doubled_numerator():
    v = np.full((4, 5), 0.02)
    s = np.full((4, 5), 0.001)
    num = 2 * v
    num[0, 0] = 0.0  # a zero numerator keeps the finite bar num_s / den
    rm = analysis.ratio_map(num, 2 * s, v, s, np.zeros_like(v))
    assert np.allclose(rm.ratio[num > 0], 2.0)
    assert np.allclose(rm.sigma[num > 0], 2.0 * np.sqrt(2.0) * 0.05)
    assert rm.ratio[0, 0] == 0.0
    assert abs(rm.sigma[0, 0] - 0.1) < 1e-15


def test_ratio_map_excludes_low_signal():
    v = np.array([[0.02, 0.02, 0.0]])
    s = np.array([[0.001, 0.02, 0.001]])  # middle: 100% relative error
    rm = analysis.ratio_map(v, s, v, s, np.zeros_like(v))
    assert rm.tags[0, 0] == analysis.TAG_OUTSIDE
    assert rm.tags[0, 1] == analysis.TAG_EXCLUDED
    assert rm.tags[0, 2] == analysis.TAG_EXCLUDED  # zero denominator


def test_ratio_map_region_tags():
    v = np.full((2, 2), 1.0)
    s = np.full((2, 2), 0.01)
    frac = np.array([[1.0, 0.6], [0.4, 0.0]])
    rm = analysis.ratio_map(v, s, v, s, region_frac=frac)
    assert rm.tags[0, 0] == analysis.TAG_INSIDE
    assert rm.tags[0, 1] == analysis.TAG_INSIDE
    assert rm.tags[1, 0] == analysis.TAG_OUTSIDE
    assert rm.tags[1, 1] == analysis.TAG_OUTSIDE


def test_ratio_map_grid_mismatch():
    v = np.ones((2, 2))
    with pytest.raises(QVampireError, match="rate maps live on different superpixel grids"):
        analysis.ratio_map(v, v, np.ones((3, 2)), np.ones((3, 2)), np.zeros_like(v))


# ---------------------------------------------------------------------------
# flatness test


def test_flatness_typical_chi2_on_flat_data():
    rng = np.random.default_rng(7)
    red = [analysis.flatness_test(synthetic_flat_map(rng)).chi2 / 79 for _ in range(100)]
    assert abs(np.mean(red) - 1.0) < 0.2


def test_flatness_rejection_rate_is_calibrated():
    rng = np.random.default_rng(11)
    trials = 2000
    rejected = sum(
        analysis.flatness_test(synthetic_flat_map(rng)).p_value < 0.01
        for _ in range(trials)
    )
    assert abs(rejected / trials - 0.01) <= 0.005


def test_flatness_best_const_recovers_truth():
    rng = np.random.default_rng(3)
    fl = analysis.flatness_test(synthetic_flat_map(rng, shape=(20, 20), const=2.0))
    assert abs(fl.best_const - 2.0) < 0.01
    assert fl.dof == 399


def test_flatness_detects_dip():
    # 20% dip over 25% of superpixels at 3% errors
    rng = np.random.default_rng(13)
    rm = synthetic_flat_map(rng, shape=(8, 8), const=1.0)
    ratio = rm.ratio.copy()
    ratio[:4, :4] -= 0.2
    dipped = analysis.RatioMap(ratio=ratio, sigma=rm.sigma, tags=rm.tags)
    assert analysis.flatness_test(dipped).p_value < 1e-6
    # expected noncentrality dwarfs the dof:
    assert (0.2 / 0.03) ** 2 * 16 > 10 * 63


def test_flatness_needs_two_points():
    tags = np.array([[analysis.TAG_OUTSIDE, analysis.TAG_EXCLUDED]])
    rm = analysis.RatioMap(
        ratio=np.array([[1.0, 1.0]]), sigma=np.array([[0.1, np.inf]]), tags=tags
    )
    with pytest.raises(QVampireError, match="needs at least two superpixels, but excluded 1 of 2 "):
        analysis.flatness_test(rm)


def test_flatness_p_value_against_scipy():
    ratio = np.array([[1.0, 1.1], [0.9, 1.05]])
    sigma = np.full((2, 2), 0.05)
    tags = np.full((2, 2), analysis.TAG_OUTSIDE)
    fl = analysis.flatness_test(analysis.RatioMap(ratio, sigma, tags))
    w = 1 / sigma**2
    best = (w * ratio).sum() / w.sum()
    chi2 = ((ratio - best) ** 2 / sigma**2).sum()
    assert abs(fl.chi2 - chi2) < 1e-12
    assert abs(fl.p_value - chi2_dist.sf(chi2, 3)) < 1e-12


# ---------------------------------------------------------------------------
# shadow depth


def test_shadow_flat_map_has_no_depth():
    rng = np.random.default_rng(17)
    rm = synthetic_flat_map(rng, shape=(10, 10), const=2.0)
    tags = rm.tags.copy()
    tags[4:6, 4:6] = analysis.TAG_INSIDE
    rm = analysis.RatioMap(ratio=rm.ratio, sigma=rm.sigma, tags=tags)
    depth, z = analysis.shadow_depth(rm)
    assert abs(depth) < 0.05
    assert abs(z) < 3.0


def test_shadow_detects_real_dip():
    rng = np.random.default_rng(19)
    rm = synthetic_flat_map(rng, shape=(10, 10), const=1.0)
    ratio = rm.ratio.copy()
    tags = rm.tags.copy()
    tags[4:6, 4:6] = analysis.TAG_INSIDE
    ratio[4:6, 4:6] -= 0.5
    rm = analysis.RatioMap(ratio=ratio, sigma=rm.sigma, tags=tags)
    depth, z = analysis.shadow_depth(rm)
    assert abs(depth - 0.5) < 0.05
    assert z > 5.0


# the smoke scan's geometry (8x6 superpixels of 4x4 pixels), tapped at contrast 0.3
SMOKE_SCENE = {
    "scenario": "subtraction", "grid.width": "32", "grid.height": "24",
    "profile.kind": "uniform_ellipse", "profile.rx": "14", "profile.ry": "10",
    "mask.region": "rect:11,8,10,8", "mask.contrast": "0.3",
    "scan.superpixel": "4", "scan.dwell": "0.024", "scan.seed": "123",
}


def test_analyze_refuses_a_zero_outside_mean():
    # the smoke geometry at nbar 0.001 records no coincidence: a NaN z would
    # let the all-zero ratio map read as flat, NO_SHADOW
    scenario = config.build_scenario(SMOKE_SCENE | {"source.nbar": "0.001"})
    result = mc.run_scan(scenario.source, scenario.scan)
    result = dataclasses.replace(result, config=scenario.echo | result.config)
    assert result.grid("coincidence_counts").sum() == 0
    with pytest.raises(QVampireError, match="usable superpixels outside the region all have ratio 0"):
        analysis.analyze(result)


def test_analyze_names_the_superpixels_with_no_herald_and_the_keys_that_raise_it():
    scenario = config.build_scenario(SMOKE_SCENE | {"source.nbar": "0"})
    result = mc.run_scan(scenario.source, scenario.scan)
    with pytest.raises(QVampireError) as caught:
        analysis.analyze(result)
    assert str(caught.value) == (
        "48 of 48 superpixels recorded zero herald counts; a longer scan.dwell, a larger "
        "mask.herald_target or mask.contrast, or a larger source.nbar raises the herald count"
    )


def test_shadow_requires_both_regions():
    rng = np.random.default_rng(23)
    rm = synthetic_flat_map(rng)
    assert np.isnan(analysis.shadow_depth(rm)).all()


# ---------------------------------------------------------------------------
# verdict


@pytest.mark.parametrize(
    "p_value, z, expected",
    [
        (1e-5, 5.0, "SHADOW"),
        (0.5, 0.5, "NO_SHADOW"),
        (0.5, -2.9, "NO_SHADOW"),
        (1e-5, 1.0, "AMBIGUOUS"),  # not flat, but no dip inside the region
        (0.5, 4.0, "AMBIGUOUS"),  # flat, yet a significant dip
        (1e-5, -5.0, "AMBIGUOUS"),  # not flat, but a bump inside
        (analysis.FLATNESS_ALPHA, 0.0, "AMBIGUOUS"),  # p on the cut: neither flat
        (analysis.FLATNESS_ALPHA, 5.0, "AMBIGUOUS"),  # nor non-flat
        (0.015, 4.0, "AMBIGUOUS"),  # flat at the 1 % level, so a dip is no shadow
        (0.005, 4.0, "SHADOW"),
        (1e-5, float("nan"), "NONFLAT"),
        (0.5, float("nan"), "NO_SHADOW"),
    ],
)
def test_verdict_table(p_value, z, expected):
    assert analysis.verdict(p_value, z) == expected


@pytest.mark.parametrize("dof", [1, 2, 3, 29, 191, 3071])
def test_chi2_sf_matches_scipy(dof):
    for x in (dof / 10, dof, 3 * dof, dof + 10 * np.sqrt(dof)):
        assert abs(analysis._chi2_sf(dof, x) - chdtrc(dof, x)) <= 1e-11
    assert analysis._chi2_sf(dof, 0.0) == 1.0


def test_import_does_not_load_scipy_stats():
    # numpy is the only runtime dependency: any scipy module here would add
    # its import time to every command
    loaded = "' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    code = f"import sys, qvampire; sys.exit({loaded} or None)"
    env = dict(os.environ, PYTHONPATH=str(Path(analysis.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# profile cuts


def test_profile_cut_uniform_map():
    v = np.full((6, 9), 3.0)
    s = np.full((6, 9), 0.3)
    x, val, sig = analysis.profile_cut(v, s, 2, 5)
    assert np.allclose(val, 3.0)
    assert np.allclose(sig, 0.3 / np.sqrt(3))
    assert np.array_equal(x, np.arange(9.0))


def test_profile_cut_matches_direct_average():
    rng = np.random.default_rng(29)
    v = rng.random((8, 7))
    s = 0.1 + rng.random((8, 7))
    _, val, sig = analysis.profile_cut(v, s, 1, 4)
    assert np.allclose(val, v[1:4].mean(axis=0))
    assert np.allclose(sig, np.sqrt((s[1:4] ** 2).sum(axis=0)) / 3)


def test_profile_cut_band_out_of_range():
    v = np.ones((4, 4))
    with pytest.raises(QVampireError, match=r"band \[2, 7\) outside 0..4"):
        analysis.profile_cut(v, v, 2, 7)
    with pytest.raises(QVampireError, match=r"band \[3, 3\) outside 0..4"):
        analysis.profile_cut(v, v, 3, 3)


# ---------------------------------------------------------------------------
# region overlap map


def test_region_fraction_map():
    region = np.zeros((8, 8), dtype=bool)
    region[0:4, 0:4] = True
    frac = analysis.region_fraction_map(region, 4, 2, 2)
    assert frac[0, 0] == 1.0
    assert frac[0, 1] == 0.0
    region[0:2, 4:8] = True
    frac = analysis.region_fraction_map(region, 4, 2, 2)
    assert frac[0, 1] == 0.5


def test_region_fraction_map_is_each_tiles_mean():
    # edge tiles of 13 x 11 are partial at every superpixel but 1
    region = np.random.default_rng(5).random((11, 13)) < 0.4
    for superpixel in (1, 3, 4, 5, 13):
        rows, cols, tiles = mc.superpixel_tiles(11, 13, superpixel)
        frac = analysis.region_fraction_map(region, superpixel, rows, cols)
        oracle = np.zeros((rows, cols))
        for row, col, ys, xs in tiles:
            oracle[row, col] = region[ys, xs].mean()
        assert np.array_equal(frac, oracle)


def test_region_fraction_map_rejects_a_raster_off_the_scan_grid():
    # an 8x8 region tiles 2x2 at superpixel 4 and 3x3 at superpixel 3
    region = np.ones((8, 8), dtype=bool)
    with pytest.raises(QVampireError, match="3x3 grid, but the scan grid is 2x2"):
        analysis.region_fraction_map(region, 3, 2, 2)
    with pytest.raises(QVampireError, match="2x2 grid, but the scan grid is 2x3"):
        analysis.region_fraction_map(region, 4, 2, 3)


# ---------------------------------------------------------------------------
# analyze: the report the CLI writes

SCAN = {
    "scenario": "subtraction",
    "grid.width": "32",
    "grid.height": "24",
    "profile.kind": "uniform_ellipse",
    "profile.rx": "14",
    "profile.ry": "10",
    "mask.region": "rect:11,8,10,8",
    "mask.herald_target": "0.013",
    "scan.superpixel": "4",
    "scan.dwell": "0.0012",
}
COUNTS = ("camera_counts", "herald_counts", "coincidence_counts", "n_bins")
NO_SIDECAR = (
    "defaults used: derived.bins_per_block=1, source.kind=thermal; "
    "no mask region (no sidecar); shadow z-score is NaN"
)


def _scan(seed):
    """A 6x8-superpixel scan as ``analyze`` reads it back: counts and sidecar echo."""
    scenario = config.build_scenario({**SCAN, "scan.seed": str(seed)})
    result = mc.run_scan(scenario.source, scenario.scan)
    return dataclasses.replace(result, config={**scenario.echo, **result.config})


def _fracs():
    region = config.parse_region_spec(SCAN["mask.region"], 32, 24)
    return analysis.region_fraction_map(region, 4, 6, 8)


@pytest.fixture(scope="module")
def scans():
    return _scan(123), _scan(124)


def _steps(num, num_s, den, den_s, fracs, band=(2, 4)):
    """The report ``analyze`` should give, assembled from the public steps."""
    rmap = analysis.ratio_map(num, num_s, den, den_s, fracs)
    flat = analysis.flatness_test(rmap)
    depth, z = analysis.shadow_depth(rmap)
    cut = analysis.profile_cut(num, num_s, *band) + analysis.profile_cut(den, den_s, *band)[1:]
    return rmap, flat, depth, z, cut


def _assert_report(report, rmap, flat, depth, z, cut):
    assert all(np.array_equal(a, b) for a, b in zip(report.rmap, rmap))
    assert report.flat == flat
    assert np.array_equal([report.depth, report.z], [depth, z], equal_nan=True)
    assert len(report.cut) == 5 and all(np.array_equal(a, b) for a, b in zip(report.cut, cut))
    assert report.verdict == analysis.verdict(flat.p_value, z)


def test_analyze_self_conditional_report_and_summary(scans):
    scan = scans[0]
    maps = mc.conditional_profile_mc(scan)
    fracs = _fracs()
    expected = _steps(*maps.conditional, *maps.unconditional, fracs)
    report = analysis.analyze(scan)
    _assert_report(report, *expected)
    assert (analysis.TAG_INSIDE == report.rmap.tags).any() and math.isfinite(report.z)
    g2 = analysis.g2_estimate(*(int(scan.grid(name).sum()) for name in COUNTS))
    assert (report.g2, report.g2_sigma) == g2
    assert report.band == (2, 4)  # rows 6 // 3 to 2 * 6 // 3: the middle third
    assert report.notes == ("",)
    flat = report.flat
    assert report.summary() == {
        "chi2": repr(flat.chi2),
        "dof": str(flat.dof),
        "p_value": repr(flat.p_value),
        "best_const": repr(flat.best_const),
        "depth": repr(report.depth),
        "z_score": repr(report.z),
        "g2": repr(g2[0]),
        "g2_sigma": repr(g2[1]),
        "band": "2:4",
        "verdict": report.verdict,
    }


def test_analyze_with_a_reference_divides_the_camera_rates(scans):
    scan, reference = scans
    fracs = _fracs()
    expected = _steps(*scan.camera_rate_map(), *reference.camera_rate_map(), fracs, band=(0, 6))
    report = analysis.analyze(scan, reference, band=(0, 6))
    _assert_report(report, *expected)
    assert report.notes == ("", "")
    assert report.summary()["band"] == "0:6"


def test_analyze_without_a_sidecar_names_the_defaults_and_has_no_z(scans):
    scan = dataclasses.replace(scans[0], config={})
    report = analysis.analyze(scan)
    assert report.notes == (NO_SIDECAR,)
    assert math.isnan(report.depth) and math.isnan(report.z)
    assert not (report.rmap.tags == analysis.TAG_INSIDE).any()
    assert report.verdict in ("NO_SHADOW", "NONFLAT")
    assert report.summary()["z_score"] == "nan"


@pytest.mark.parametrize("region", ["all", "rect:0,0,1,1"], ids=["no_outside", "no_inside"])
def test_analyze_with_an_empty_side_has_no_z(scans, region):
    scan = scans[0]
    scan = dataclasses.replace(scan, config={**scan.config, "mask.region": region})
    report = analysis.analyze(scan)
    assert math.isnan(report.depth) and math.isnan(report.z)
    assert report.notes == ("",)
    assert report.summary()["depth"] == "nan"


def test_analyze_without_herald_singles_has_no_g2(scans):
    # self-conditional analysis needs heralds, so the silent scan takes a reference
    scan, reference = scans
    silent = np.zeros((scan.n_rows, scan.n_cols), dtype=np.int64)
    report = analysis.analyze(
        dataclasses.replace(scan, herald_counts=silent, coincidence_counts=silent), reference
    )
    assert math.isnan(report.g2) and math.isnan(report.g2_sigma)
    assert report.summary()["g2"] == report.summary()["g2_sigma"] == "nan"


def test_analyze_totals_the_counts_without_wrapping(scans):
    # 48 superpixels of 2**62 bins total 12 * 2**64, which an int64 sum wraps to 0
    scan = dataclasses.replace(scans[0], n_bins=np.full((6, 8), 2**62))
    cam, her, both, bins = (sum(scan.grid(name).ravel().tolist()) for name in COUNTS)
    report = analysis.analyze(scan)
    assert report.g2 == both * bins / (cam * her)
    assert report.g2_sigma == analysis.g2_estimate(cam, her, both, bins)[1] > 0


def test_analyze_errors_carry_the_notes(scans):
    scan, reference = scans
    bare = dataclasses.replace(scan, config={})
    with pytest.raises(QVampireError, match=r"band \[0, 9\) outside 0..6") as caught:
        analysis.analyze(bare, band=(0, 9))
    assert caught.value.notes == (NO_SIDECAR,)
    coarse = dataclasses.replace(
        reference, **{name: reference.grid(name)[:3, :4] for name in mc.COUNTS}
    )
    with pytest.raises(QVampireError, match="scan 6x8 vs reference 3x4") as caught:
        analysis.analyze(bare, coarse)
    assert caught.value.notes == (NO_SIDECAR, "")
