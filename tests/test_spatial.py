"""Beam-profile and mask tests with direct-summation oracles."""

import math
import warnings

import numpy as np
import pytest

from qvampire import config, spatial
from qvampire.errors import QVampireError, WeakCouplingViolated


def uniform_profile(width, height):
    """Flat profile: every pixel carries power 1/(width*height)."""
    return spatial.BeamProfile(np.full((height, width), 1.0 / math.sqrt(width * height)))


def flat_scenario(scenario, side, region, keys=None):
    """A scenario on a side x side grid whose beam is ``uniform_profile``: a uniform
    ellipse wider than the grid.  ``keys`` adds config keys."""
    cfg = {"scenario": scenario, "grid.width": str(side), "grid.height": str(side),
           "profile.kind": "uniform_ellipse", "profile.rx": "1000", "profile.ry": "1000",
           "mask.region": region, "scan.seed": "1"}
    return config.build_scenario(cfg | (keys or {}))


# ---------------------------------------------------------------------------
# profiles


def test_gaussian_single_pixel_grid():
    prof = spatial.make_profile("gaussian", 1, 1, sigma_x=1.0, sigma_y=1.0)
    assert prof.amplitude[0, 0] == 1.0


def test_uniform_ellipse_equal_amplitudes_and_normalized():
    prof = spatial.make_profile("uniform_ellipse", 32, 24, rx=12, ry=9)
    inside = prof.amplitude > 0
    vals = prof.amplitude[inside]
    assert np.allclose(vals, vals[0])
    assert abs(prof.power().sum() - 1.0) < 1e-12
    assert abs(vals[0] - 1.0 / math.sqrt(inside.sum())) < 1e-12


def test_ring_pixels_carry_gain_before_normalization():
    prof = spatial.make_profile(
        "uniform_ellipse_with_ring", 32, 24, rx=12, ry=9, ring_gain=1.5
    )
    vals = np.unique(np.round(prof.amplitude[prof.amplitude > 0], 14))
    assert vals.size == 2
    assert abs(vals[1] / vals[0] - 1.5) < 1e-12


def test_degenerate_profile_rejected():
    with pytest.raises(QVampireError, match="ellipse does not cover any pixel"):
        spatial.make_profile("uniform_ellipse", 20, 20, cx=-50.0, cy=-50.0, rx=1, ry=1)
    with pytest.raises(QVampireError):
        spatial.make_profile("donut", 8, 8)


def test_a_gaussian_width_whose_square_leaves_float_range():
    # 2 * sigma**2 is inf from 1e154 on, so every wider sigma draws the same flat beam
    flat = spatial.make_profile("gaussian", 8, 6, sigma_x=1e154).amplitude
    assert np.all(flat == flat[:, :1])
    for width in (1e155, 1.7e308, math.inf):
        assert np.array_equal(spatial.make_profile("gaussian", 8, 6, sigma_x=width).amplitude, flat)
    # a subnormal square leaves the centre pixel, every other exponent overflowing to -inf;
    # a square of 0 divides 0 by 0 there; neither warns
    point = spatial.make_profile("gaussian", 8, 6, cx=3.0, cy=2.0, sigma_x=1e-160, sigma_y=1e-160)
    assert point.amplitude[2, 3] == 1.0 and point.amplitude.sum() == 1.0
    with pytest.raises(QVampireError, match="amplitudes must be finite"):
        spatial.make_profile("gaussian", 8, 6, cx=3.0, cy=2.0, sigma_x=1e-300, sigma_y=1e-300)


def test_a_clipped_ring_judges_its_off_grid_neighbours_by_the_ellipse():
    # the ellipse's centre line is row 0, so the row above it is inside the ellipse
    # but off the grid; the rim must not wrap around to the grid's far edge
    params = dict(cx=7.5, cy=0.0, rx=6.0, ry=8.0)
    tall = spatial.make_profile("uniform_ellipse_with_ring", 16, 12, **params).amplitude
    short = spatial.make_profile("uniform_ellipse_with_ring", 16, 8, **params).amplitude
    assert np.array_equal(tall[0], short[0])
    assert np.array_equal(tall[:8], short) and not tall[8:].any()
    assert np.count_nonzero(tall[0] == tall[0].max()) == 2  # only the two ends are rim


def test_rect_region_clips_a_rect_off_the_near_edge():
    # a negative slice end would count from the far edge and mark the grid
    assert not spatial.rect_region(8, 4, -5, 0, 3, 2).any()
    assert not spatial.rect_region(8, 4, 0, -3, 8, 2).any()
    assert spatial.rect_region(8, 4, -2, 1, 3, 2).sum() == 2


def test_silhouette_region_is_nonempty_pixel_set():
    region = spatial.silhouette_region(64, 48)
    assert region.dtype == bool and region.shape == (48, 64)
    assert 0 < region.sum() < region.size


# ---------------------------------------------------------------------------
# masks and reduction


def test_white_mask_reduces_to_zero_coupling():
    prof = uniform_profile(10, 10)
    mask = spatial.MaskSpec(np.ones((10, 10)))
    red = spatial.reduce(prof, mask)
    assert red.r_eff == 0.0


def test_full_blocking_mask():
    region = spatial.rect_region(10, 10, 0, 0, 10, 5)
    mask = spatial.vampire_mask(region, 1.0)
    assert np.all(mask.transmission[region] == 0.0)
    assert np.all(mask.transmission[~region] == 1.0)


def test_reduce_rejects_mask_transmitting_no_beam_power():
    # the beam lives in the top half, which the mask blocks completely
    amp = np.zeros((10, 10))
    amp[:5] = 1.0
    prof = spatial.BeamProfile(amp / np.sqrt((amp**2).sum()))
    region = spatial.rect_region(10, 10, 0, 0, 10, 5)
    mask = spatial.vampire_mask(region, 1.0)
    with pytest.raises(QVampireError, match="mask transmits no beam power"):
        spatial.reduce(prof, mask)


def test_r_eff_matches_direct_sum_oracle():
    # region holding exactly 20% of the power of a flat beam, contrast 0.3
    prof = uniform_profile(10, 10)
    region = spatial.rect_region(10, 10, 0, 0, 10, 2)
    mask = spatial.vampire_mask(region, 0.3)
    red = spatial.reduce(prof, mask)
    oracle = math.sqrt(float((mask.reflectivity() ** 2 * prof.power()).sum()))
    assert abs(red.r_eff - oracle) < 1e-15
    assert abs(red.r_eff - 0.3 * math.sqrt(0.2)) < 1e-12


def test_uniform_mask_over_full_beam():
    prof = uniform_profile(8, 8)
    mask = spatial.vampire_mask(np.ones((8, 8), dtype=bool), 0.25)
    red = spatial.reduce(prof, mask)
    assert abs(red.r_eff - 0.25) < 1e-12


def test_reduce_dimension_mismatch():
    with pytest.raises(QVampireError, match=r"profile \(4, 4\) vs mask \(4, 5\)"):
        spatial.reduce(uniform_profile(4, 4), spatial.MaskSpec(np.ones((4, 5))))


def test_herald_rate_relations():
    # the herald rate r_eff^2 * nbar that cmd_profile prints and the light the loss map
    # transmits share the beam's nbar; a white mask heralds nothing
    keys = {"mask.contrast": "0.3", "source.nbar": "1.7"}
    loss = flat_scenario("loss_low_contrast", 10, "rect:0,0,10,2", keys)
    rate = spatial.reduce(loss.source.profile, loss.scan.mask).r_eff ** 2 * 1.7
    assert abs(rate - 0.3**2 * 0.2 * 1.7) < 1e-12
    assert abs(rate + loss.analytic_map().sum() - 1.7) < 1e-12
    white = flat_scenario("initial", 10, "rect:0,0,10,2", {"source.nbar": "1.7"})
    assert spatial.reduce(white.source.profile, white.scan.mask).r_eff == 0.0


def test_contrast_for_herald_rate_tunes_operating_point():
    prof = uniform_profile(10, 10)
    region = spatial.rect_region(10, 10, 0, 0, 10, 2)
    for target in (1.0 * 0.1, 0.13 * 0.1):
        c = spatial.contrast_for_herald_rate(prof, region, nbar=1.0, target=target)
        mask = spatial.vampire_mask(region, c)
        assert abs(spatial.reduce(prof, mask).r_eff ** 2 - target) < 1e-12
    with pytest.raises(QVampireError):
        spatial.contrast_for_herald_rate(prof, region, nbar=1.0, target=10.0)


# ---------------------------------------------------------------------------
# analytic intensity maps


def test_loss_profile_white_and_blocked():
    white = flat_scenario("initial", 10, "rect:2,2,3,3", {"source.nbar": "2"})
    assert np.abs(white.analytic_map() - uniform_profile(10, 10).power() * 2.0).max() < 1e-15
    # a full-contrast region casts a black shadow and leaves the rest of the beam as it was
    keys = {"mask.contrast": "1", "source.nbar": "2"}
    blocked = flat_scenario("loss_high_contrast", 10, "rect:2,2,3,3", keys).analytic_map()
    region = spatial.rect_region(10, 10, 2, 2, 3, 3)
    assert np.all(blocked[region] == 0.0)
    assert np.abs(blocked[~region] - 2.0 / 100.0).max() < 1e-15


def test_subtracted_profile_is_g2_times_loss_profile():
    keys = {"mask.contrast": "0.3"}
    unc = flat_scenario("loss_low_contrast", 12, "rect:3,3,4,4", keys).analytic_map()
    # the g2 of thermal and coherent light
    for kind, g2 in (("thermal", 2.0), ("coherent", 1.0)):
        sub = flat_scenario("subtraction", 12, "rect:3,3,4,4", keys | {"source.kind": kind})
        cond = sub.analytic_map()
        ratio = cond[unc > 0] / unc[unc > 0]
        assert np.abs(ratio - g2).max() < 1e-12


def test_weak_coupling_warning():
    keys = {"mask.contrast": "0.9"}  # r_eff = 0.9 with the whole beam tapped
    sub = flat_scenario("subtraction", 10, "all", keys)
    with pytest.warns(WeakCouplingViolated, match=r"^r_eff = 0\.900 exceeds weak-coupling "):
        sub.analytic_map()
    with warnings.catch_warnings():  # the unheralded map is exact at any coupling
        warnings.simplefilter("error")
        flat_scenario("loss_high_contrast", 10, "all", keys).analytic_map()


# ---------------------------------------------------------------------------
# serialization


def test_profile_csv_roundtrip(tmp_path):
    prof = spatial.make_profile("uniform_ellipse_with_ring", 20, 16, rx=8, ry=6)
    path = tmp_path / "profile.csv"
    spatial.save_matrix_csv(path, prof.amplitude)
    with open(path) as fh:
        assert fh.readline().strip() == "20,16"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, prof.amplitude)


def test_mask_csv_and_pgm_roundtrip(tmp_path):
    region = spatial.silhouette_region(20, 16)
    mask = spatial.vampire_mask(region, 0.5)
    csv_path = tmp_path / "mask.csv"
    spatial.save_matrix_csv(csv_path, mask.transmission)
    assert np.array_equal(np.loadtxt(csv_path, delimiter=",", skiprows=1), mask.transmission)
    pgm_path = tmp_path / "mask.pgm"
    spatial.save_pgm(pgm_path, mask.transmission)
    magic, size, maxval, body = pgm_path.read_bytes().split(b"\n", 3)
    assert (magic, size, maxval) == (b"P5", b"20 16", b"255")
    back = np.frombuffer(body, dtype=np.uint8).reshape(16, 20) / 255.0
    # PGM is 8-bit: transmissions survive to half a level
    assert np.abs(back - mask.transmission).max() <= 0.5 / 255.0
