"""Monte Carlo apparatus tests; rate oracles via numerical quadrature, tile
oracles via a sampler that draws every coherence block on its own."""

import functools
import itertools
import math
import re
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from qvampire import analysis, blocktable as bt, config, montecarlo as mc, spatial
from qvampire.errors import ConfigMismatch, QVampireError


def flat_profile(width=16, height=12):
    return spatial.BeamProfile(np.full((height, width), 1.0 / math.sqrt(width * height)))


def small_scan(mask, seed=11, **kw):
    kw.setdefault("superpixel", 4)
    kw.setdefault("dwell", 0.0012)  # 1e5 bins at 12 ns
    return mc.ScanConfig(mask=mask, seed=seed, **kw)


def thermal_click_quad(coupling, nbar, det):
    """Oracle: click probability averaged over the exponential intensity law."""
    integrand = lambda i: (
        det.dark_prob + (1 - det.dark_prob) * (1 - math.exp(-det.efficiency * coupling * i))
    ) * math.exp(-i / nbar) / nbar
    val, _ = integrate.quad(integrand, 0, np.inf)
    return val


def thermal_moments(coupling, nbar, det):
    """``mc._click_moments`` of a thermal source at the dark-free click mean
    x / (1 + x), x = efficiency * coupling * nbar."""
    x = det.efficiency * coupling * nbar
    return mc._click_moments(x / (1.0 + x), det.dark_prob, mc.THERMAL)


def block_intensity(gen: np.random.Generator, nbar: float, size=None):
    """Thermal block intensity |alpha|^2: exponential with mean nbar.

    The modulus squared of a circular Gaussian amplitude with E|alpha|^2 =
    nbar is exponentially distributed, so the amplitude is never formed.
    """
    if nbar < 0:
        raise ConfigMismatch("nbar must be non-negative")
    return nbar * gen.standard_exponential(size)


def per_block_tile(seed, index, w_cam, w_her, src, det_cam, det_her, n_bins, bpb):
    """Oracle for ``mc._simulate_tile``: every coherence block drawn on its own.

    Given a block's intensity its bins click independently, so a block is a
    Binomial(size, p_cam) camera count, a Binomial(size, p_her) herald count
    and their hypergeometric overlap given the two counts.
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    n_blocks = -(-n_bins // bpb)
    sizes = np.full(n_blocks, bpb, dtype=np.int64)
    sizes[-1] = n_bins - bpb * (n_blocks - 1)
    intensity = block_intensity(gen, src.nbar, n_blocks) if src.kind == mc.THERMAL else src.nbar
    c = gen.binomial(sizes, mc.click_probability(w_cam * intensity, det_cam))
    h = gen.binomial(sizes, mc.click_probability(w_her * intensity, det_her))
    overlap = (c > 0) & (h > 0)
    c_o = c[overlap]
    both = int(gen.hypergeometric(c_o, sizes[overlap] - c_o, h[overlap]).sum())
    return int(c.sum()), int(h.sum()), both


def tile_draws(seeds, index, *args):
    """``mc._simulate_tile`` totals of one tile at each seed, all drawn from
    the one law its camera weight needs by one re-keyed generator."""
    (law,) = mc._tile_laws([args[0]], *args[1:])
    gen = np.random.Generator(np.random.Philox(0))
    return np.array([mc._simulate_tile(gen, seed, index, law) for seed in seeds])


def count_grids(result):
    """A scan's four count grids, stacked in ``mc.COUNTS`` order."""
    return np.stack([result.grid(name) for name in mc.COUNTS])


def tile_by_tile(src, scan):
    """Oracle for ``count_grids`` of ``mc.run_scan``: every tile drawn in index
    order from a law checked for that tile alone, written to its own cell."""
    derived = mc.derived_settings(src, scan)
    n_bins = derived["n_bins"]
    power = (scan.mask.transmission * src.profile.amplitude) ** 2
    _, _, tiles = mc.superpixel_tiles(src.profile.height, src.profile.width, scan.superpixel)
    grids = np.zeros((len(mc.COUNTS), derived["n_rows"], derived["n_cols"]), dtype=np.int64)
    for index, (row, col, ys, xs) in enumerate(tiles):
        args = (float(power[ys, xs].sum()), derived["r_eff2"], src, scan.camera_detector,
                scan.herald_detector, n_bins, derived["bins_per_block"])
        grids[:, row, col] = (n_bins, *tile_draws([scan.seed], index, *args)[0])
    return grids


@functools.lru_cache(maxsize=None)
def log_binomials(n: int) -> np.ndarray:
    """log C(n, c) for c = 0..n, each the log of the exact integer C(n, c), so
    within a rounding of its value: the sum test of a long block's marginal
    then checks the quadrature, not the coefficients."""
    logs, comb = [], 1
    for c in range(n + 1):
        logs.append(math.log(comb))
        comb = comb * (n - c) // (c + 1)
    out = np.array(logs)
    out.setflags(write=False)
    return out


def binomial_rows(size: int, x_u: np.ndarray, dark: float) -> np.ndarray:
    """Bin(c; size, p) for c = 0..size, one row per mean photon number x_u of a
    bin, with p = dark + (1 - dark) (1 - exp(-x_u)).

    An entry is exp(log C(size, c) + size log(1 - p) + c log(p / (1 - p))),
    exact to rounding relative to its largest term; entries below 1e-100 are
    raised to 1e-100, which moves no cell of a marginal by more than that
    and keeps exp and the sums out of slow subnormals.
    """
    c = np.arange(size + 1.0)
    # 1 - p = (1 - dark) exp(-x_u) has an exact log; p below 1e-300 only adds
    # entries of c >= 1 far below 1e-100
    log_q = math.log1p(-dark) - x_u
    log_p = np.log(np.maximum(dark + (1.0 - dark) * -np.expm1(-x_u), 1e-300))
    logs = np.multiply.outer(log_p - log_q, c)
    logs += (size * log_q)[:, None]
    logs += log_binomials(size)
    return np.exp(np.maximum(logs, math.log(1e-100), out=logs), out=logs)


def rule_table(bpb, x_cam, dark_cam, x_her, dark_her, rule=None):
    """The block-outcome table of ``rule``, by default the one ``bt.block_rules``
    returns, the law a tile's blocks are drawn from:
    sum_i w_i Bin(.; s, p_cam(u_i)) (x) Bin(.; s, p_her(u_i))."""
    if rule is None:
        ((u, weights),) = bt.block_rules(bpb, [x_cam], dark_cam, x_her, dark_her)
    else:
        u, weights = rule
    cam = binomial_rows(bpb, x_cam * u, dark_cam) * weights[:, None]
    return cam.T @ binomial_rows(bpb, x_her * u, dark_her)


def rule_shape(bpb, x_cam, x_her, u):
    """The panels and nodes a panel of a rule of ``bt.block_rules`` with nodes ``u``."""
    panels = bt._panel_count(bpb, max(x_cam, x_her))
    assert len(u) % panels == 0
    return panels, len(u) // panels


# ---------------------------------------------------------------------------
# elementary pieces


def test_block_intensity_zero_source():
    gen = np.random.default_rng(0)
    assert block_intensity(gen, 0.0) == 0.0
    assert np.all(block_intensity(gen, 0.0, size=10) == 0.0)
    with pytest.raises(ConfigMismatch):
        block_intensity(gen, -1.0)


def test_block_intensity_moments():
    gen = np.random.Generator(np.random.Philox(key=np.array([3, 1], dtype=np.uint64)))
    i = block_intensity(gen, 1.0, size=1_000_000)
    assert abs(i.mean() - 1.0) < 0.004  # 3 sigma of the sample mean, with slack
    assert abs((i**2).mean() / i.mean() ** 2 - 2.0) < 0.02  # thermal bunching


def test_click_probability_limits():
    det = mc.DetectorConfig(efficiency=0.6, dark_prob=0.0)
    assert mc.click_probability(0.0, det) == 0.0
    assert abs(mc.click_probability(1e9, det) - 1.0) < 1e-12
    assert abs(mc.click_probability(0.1, det) - (1 - math.exp(-0.06))) < 1e-12
    dark = mc.DetectorConfig(efficiency=0.6, dark_prob=0.01)
    assert abs(mc.click_probability(0.0, dark) - 0.01) < 1e-15


def test_thermal_click_moments_match_quadrature():
    det = mc.DetectorConfig(efficiency=0.55, dark_prob=0.002)
    coupling, nbar = 0.02, 1.3
    p_mean, p_sq = thermal_moments(coupling, nbar, det)
    var_p = p_sq - p_mean**2
    assert abs(p_mean - thermal_click_quad(coupling, nbar, det)) < 1e-10
    sq = lambda i: (
        det.dark_prob + (1 - det.dark_prob) * (1 - math.exp(-det.efficiency * coupling * i))
    ) ** 2 * math.exp(-i / nbar) / nbar
    quad_sq, _ = integrate.quad(sq, 0, np.inf)
    assert abs(var_p - (quad_sq - p_mean**2)) < 1e-10


@pytest.mark.parametrize("dark", [0.0, 1e-3])
@pytest.mark.parametrize("p", [1e-3, 1e-6, 4e-9])
def test_click_moments_match_exact_rationals(p, dark):
    # x is the mean photons per bin whose dark-free click mean is p; the exact
    # moments use E[exp(-a u)] = 1 / (1 + a) for u ~ Exp(1), in rationals
    x = Fraction(p) / (1 - Fraction(p))
    keep = 1 - Fraction(dark)
    e1 = 1 / (1 + x)
    e2 = 1 / (1 + 2 * x)
    mean = 1 - keep * e1
    square = 1 - 2 * keep * e1 + keep * keep * e2
    got_mean, got_square = mc._click_moments(p, dark, mc.THERMAL)
    assert abs(Fraction(got_mean) - mean) <= Fraction(1e-12) * mean
    assert abs(Fraction(got_square) - square) <= Fraction(1e-12) * square


def test_detector_config_validation():
    with pytest.raises(ConfigMismatch):
        mc.DetectorConfig(efficiency=1.2)
    with pytest.raises(ConfigMismatch):
        mc.DetectorConfig(dark_prob=1.0)
    with pytest.raises(ConfigMismatch):
        mc.SourceConfig(nbar=-1.0, profile=flat_profile())
    with pytest.raises(ConfigMismatch):
        mc.SourceConfig(nbar=1.0, profile=flat_profile(), kind="squeezed")


def test_scan_config_validation():
    mask = spatial.MaskSpec(np.ones((12, 16)))
    with pytest.raises(ConfigMismatch):
        mc.ScanConfig(mask=mask, seed=1, superpixel=0)
    with pytest.raises(ConfigMismatch):
        mc.ScanConfig(mask=mask, seed=1, dwell=1e-9)
    with pytest.raises(ConfigMismatch):
        mc.ScanConfig(
            mask=mask,
            seed=1,
            herald_detector=mc.DetectorConfig(bin_width=12e-9),
            camera_detector=mc.DetectorConfig(bin_width=24e-9),
        )


# ---------------------------------------------------------------------------
# the block-outcome table

BPB = 83  # bins per block at the default 1 us coherence time and 12 ns bins
# the largest block the joint (s+1)^2 table's oracle reaches, and a block four
# times as long, which only the marginal oracles, O(nodes s), reach
ORACLE_MAX_BINS = 1024
LONG_BINS = 4 * ORACLE_MAX_BINS


@pytest.mark.parametrize("x_s", [0.45, 0.65, 3.6, 50.0])  # desk, full scan, bright
def test_table_marginals_are_beta_binomial_without_dark_counts(x_s):
    # over u ~ Exp(1), Bin(c; s, 1 - exp(-x u)) integrates to BetaBinomial(s, 1, 1/x)
    x_cam, x_her = x_s / BPB, 0.6 * x_s / BPB
    table = rule_table(BPB, x_cam, 0.0, x_her, 0.0)
    c = np.arange(BPB + 1)
    for marginal, x in ((table.sum(axis=1), x_cam), (table.sum(axis=0), x_her)):
        exact = stats.betabinom.pmf(c, BPB, 1.0, 1.0 / x)
        assert np.abs(marginal - exact).max() < 1e-12


@pytest.mark.parametrize("x_s", [0.0, 0.65, 20.0, 200.0])
@pytest.mark.parametrize("dark_cam, dark_her", [(0.0, 0.0), (0.01, 0.03)])
def test_table_sums_to_one(x_s, dark_cam, dark_her):
    table = rule_table(BPB, x_s / BPB, dark_cam, 0.3 * x_s / BPB, dark_her)
    assert table.shape == (BPB + 1, BPB + 1)
    assert table.min() >= 0.0
    assert abs(table.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("bpb", [512, 1024])
def test_long_block_marginals_sum_to_one_far_inside_the_check(bpb):
    # the tests hold each marginal's sum to 1 within TABLE_TOL; rounding in
    # the oracle's binomial rows must leave that tolerance to the quadrature,
    # so the marginal of each rule block_rules returns is held to a twentieth
    for dark in (0.0, 1e-4, 0.01, 0.05):
        for x_s in np.geomspace(0.01, 10.0, 7):
            ((u, weights),) = bt.block_rules(bpb, [x_s / bpb], dark, 0.0, 0.0)
            marginal, _ = marginal_of(bpb, x_s / bpb, dark, u, weights)
            assert abs(marginal.sum() - 1.0) < bt.TABLE_TOL / 20, (dark, x_s)


@pytest.mark.parametrize("dark_cam, dark_her", [(0.0, 0.0), (0.01, 0.03)])
def test_bright_table_matches_rule_refined_twice_over(dark_cam, dark_her):
    # x s = 50 for the camera: a cell's peak is far narrower than on a desk tile
    x_cam, x_her = 50.0 / BPB, 20.0 / BPB
    ((u, weights),) = bt.block_rules(BPB, [x_cam], dark_cam, x_her, dark_her)
    panels, nodes = rule_shape(BPB, x_cam, x_her, u)
    table = rule_table(BPB, x_cam, dark_cam, x_her, dark_her, (u, weights))
    refined = rule_table(BPB, x_cam, dark_cam, x_her, dark_her, bt._panel_rule(panels, 4 * nodes))
    assert np.abs(table - refined).max() < 1e-12


def test_table_refinement_that_cannot_converge_raises(monkeypatch):
    # capped at the fewest panels of the first node count, a bright tile's
    # bound fails, and the error names its mean
    monkeypatch.setattr(bt, "TABLE_NODE_CAP", bt.TABLE_MIN_PANELS * 2 * bt.TABLE_NODES)
    x_cam = 50.0 / BPB
    match = rf"block rule \(83 bins, x_cam {x_cam:.3g}, .*\) has error bound 10\^.* > 1e-12"
    with pytest.raises(QVampireError, match=match):
        bt.block_rules(BPB, [x_cam], 0.0, 20.0 / BPB, 0.0)


# nodes per product of the oracle's table contraction, and nodes whose rows it
# holds at once: the blocking of the (s+1)^2 table check that block_rules replaced
ORACLE_NODE_BLOCK = 24
ORACLE_ROW_NODES = 16 * ORACLE_NODE_BLOCK


def per_mean_rule(bpb, x_cam, dark_cam, x_her, dark_her):
    """Oracle for ``bt.block_rules``: the per-cell check of the joint (s+1)^2
    outcome table P(c, h) of one camera mean, against its refinement and
    against a sum of 1, its herald rows built for it alone."""

    def table(panels, nodes):
        u, weights = bt._panel_rule(panels, nodes)
        out = np.zeros((bpb + 1, bpb + 1))
        for lo in range(0, len(u), ORACLE_ROW_NODES):
            part = slice(lo, lo + ORACLE_ROW_NODES)
            cam = binomial_rows(bpb, x_cam * u[part], dark_cam) * weights[part, None]
            her = binomial_rows(bpb, x_her * u[part], dark_her)
            for k in range(0, len(cam), ORACLE_NODE_BLOCK):
                out += cam[k : k + ORACLE_NODE_BLOCK].T @ her[k : k + ORACLE_NODE_BLOCK]
        return out

    panels = bt.TABLE_MIN_PANELS
    wanted = 2.0 + 4.0 * math.sqrt(bpb * max(x_cam, x_her))
    while panels < wanted and 4 * panels * bt.TABLE_NODES <= bt.TABLE_NODE_CAP:
        panels *= 2
    nodes = bt.TABLE_NODES
    coarse = table(panels, nodes)
    while True:
        fine = table(panels, 2 * nodes)
        residual = max(float(np.abs(fine - coarse).max()), abs(float(fine.sum()) - 1.0))
        if residual <= bt.TABLE_TOL:
            u, weights = bt._panel_rule(panels, 2 * nodes)
            return u, weights / weights.sum()
        assert panels * 4 * nodes <= bt.TABLE_NODE_CAP
        nodes *= 2
        coarse = fine


def marginal_of(bpb, x, dark, u, weights):
    """One detector's marginal sum_i w_i Bin(.; bpb, p(u_i)) on the rule of
    nodes ``u`` and weights ``weights``, its rows summed ``ORACLE_ROW_NODES``
    nodes at a time, and its click probabilities p(u_i) at the nodes."""
    out = np.zeros(bpb + 1)
    for lo in range(0, len(u), ORACLE_ROW_NODES):
        part = slice(lo, lo + ORACLE_ROW_NODES)
        # einsum's own loop, not a BLAS kernel whose summation order varies by build
        out += np.einsum("i,ij->j", weights[part], binomial_rows(bpb, x * u[part], dark))
    return out, dark + (1.0 - dark) * -np.expm1(-x * u)


def marginal_check_rule(bpb, x_cam, dark_cam, x_her, dark_her):
    """Oracle for ``bt.block_rules``: the check its bound replaced.  It compares
    the rule of ``bt._panel_count`` panels with its refinement (twice the nodes
    a panel) in each cell of both marginals and in the mixed moments
    sum_i w_i p_cam^a p_her^b (a, b = 1, 2), with each marginal of the
    refinement summing to 1, and returns the first refinement within
    ``TABLE_TOL``: O(nodes s) a level, where the joint table's is O(nodes s^2)."""

    def level(panels, nodes):
        u, weights = bt._panel_rule(panels, nodes)
        cam, p_cam = marginal_of(bpb, x_cam, dark_cam, u, weights)
        her, p_her = marginal_of(bpb, x_her, dark_her, u, weights)
        moments = np.einsum("i,ai,bi->ab", weights, [p_cam, p_cam**2], [p_her, p_her**2])
        return np.concatenate([cam, her, moments.ravel(), [cam.sum(), her.sum()]])

    panels, nodes = bt._panel_count(bpb, max(x_cam, x_her)), bt.TABLE_NODES
    coarse = level(panels, nodes)
    while True:
        fine = level(panels, 2 * nodes)
        residual = max(np.abs(fine - coarse).max(), np.abs(fine[-2:] - 1.0).max())
        if residual <= bt.TABLE_TOL:
            u, weights = bt._panel_rule(panels, 2 * nodes)
            return u, weights / weights.sum()
        assert panels * 4 * nodes <= bt.TABLE_NODE_CAP
        coarse, nodes = fine, 2 * nodes


def scan_check_args(monkeypatch, src, scan):
    """The arguments of the one ``bt.block_rules`` call ``mc.run_scan`` makes,
    caught before the check runs."""

    class Caught(Exception):
        pass

    def catch(*args):
        raise Caught(args)

    with monkeypatch.context() as patch:
        patch.setattr(bt, "block_rules", catch)
        with pytest.raises(Caught) as caught:
            mc.run_scan(src, scan)
    return caught.value.args[0]


def bench_scan(text):
    """Source and scan of a ``key=value`` config at seed 1."""
    cfg = dict(line.split("=") for line in text.split())
    scenario = config.build_scenario(cfg, seed=1)
    return scenario.source, scenario.scan


def gaussian_1024_scan(threads=1):
    """12 tiles of an off-centre gaussian, each with its own camera weight, at
    the largest block the joint table's oracle reaches."""
    det = mc.DetectorConfig()
    prof = spatial.make_profile("gaussian", 8, 6, cx=2.4, cy=2.4)
    src = mc.SourceConfig(nbar=0.01, profile=prof, coherence_time=ORACLE_MAX_BINS * det.bin_width)
    scan = small_scan(spatial.MaskSpec(np.ones((6, 8))), seed=3, superpixel=2, dwell=1e-4,
                      threads=threads)
    return src, scan


# the scan_desk and scan_full workloads of perfbench/
DESK = """scenario=subtraction profile.kind=uniform_ellipse profile.rx=28 profile.ry=20
mask.region=rect:22,17,20,14 mask.herald_target=0.013 scan.superpixel=4 scan.dwell=0.096
scan.bins_cap=8000000"""
FULL = """scenario=subtraction mask.region=silhouette mask.herald_target=0.013
scan.superpixel=11 scan.dwell=3.0 scan.bins_cap=250000000 scan.threads=2"""


@pytest.mark.parametrize(
    "geometry, means",
    [("desk", 14), ("desk_dark", 14), ("full", 22), ("gaussian_1024", 12)],
)
def test_shared_check_returns_each_mean_its_own_rule(monkeypatch, geometry, means):
    src, scan = {
        "desk": lambda: bench_scan(DESK),
        # realistic dark counts on both detectors
        "desk_dark": lambda: bench_scan(
            DESK + " detector.camera.dark_prob=1e-3 detector.herald.dark_prob=1e-3"
        ),
        "full": lambda: bench_scan(FULL),
        "gaussian_1024": gaussian_1024_scan,
    }[geometry]()
    bpb, x_cams, *rest = scan_check_args(monkeypatch, src, scan)
    assert len(set(x_cams)) == len(x_cams) == means
    for x_cam, (u, weights) in zip(x_cams, bt.block_rules(bpb, x_cams, *rest)):
        oracle_u, oracle_weights = per_mean_rule(bpb, x_cam, *rest)
        assert np.array_equal(u, oracle_u)
        assert np.array_equal(weights, oracle_weights)


# block lengths, camera means x_cam s, herald means x_her / x_cam and (camera,
# herald) dark counts from a dim tile to far beyond the click-counting regime
SWEEP_BINS = (1, 3, 8, 30, 83, 256)
SWEEP_X_S = (0.01, 0.1, 0.5, 1.0, 3.6, 10.0, 50.0)
SWEEP_HERALD_RATIOS = (0.0, 0.05, 0.3, 1.0, 3.0)
SWEEP_DARKS = [(0.0, 0.0), (1e-3, 1e-3), (0.01, 0.03)]


@pytest.mark.parametrize("dark_cam, dark_her", SWEEP_DARKS)
def test_marginal_check_keeps_the_joint_table_checks_rules(dark_cam, dark_her):
    # the check compares marginals and mixed moments, never the (s+1)^2 table;
    # over the sweep it stops at the level the table's per-cell check stops at
    for bpb, x_s, ratio in itertools.product(SWEEP_BINS, SWEEP_X_S, SWEEP_HERALD_RATIOS):
        x_cam = x_s / bpb
        ((u, weights),) = bt.block_rules(bpb, [x_cam], dark_cam, ratio * x_cam, dark_her)
        oracle_u, oracle_weights = per_mean_rule(bpb, x_cam, dark_cam, ratio * x_cam, dark_her)
        assert np.array_equal(u, oracle_u), (bpb, x_s, ratio)
        assert np.array_equal(weights, oracle_weights), (bpb, x_s, ratio)


@pytest.mark.parametrize("x_s, ratio, dark", [(0.65, 0.3, 0.0), (50.0, 0.05, 1e-3)])
def test_marginal_check_keeps_the_joint_table_checks_rule_at_the_largest_block(x_s, ratio, dark):
    bpb = ORACLE_MAX_BINS
    x_cam = x_s / bpb
    ((u, weights),) = bt.block_rules(bpb, [x_cam], dark, ratio * x_cam, dark)
    oracle_u, oracle_weights = per_mean_rule(bpb, x_cam, dark, ratio * x_cam, dark)
    assert np.array_equal(u, oracle_u)
    assert np.array_equal(weights, oracle_weights)


@pytest.mark.parametrize("dark_cam, dark_her", [(0.0, 0.0), (0.01, 0.03)])
def test_bound_keeps_the_refinement_checks_rules_at_the_largest_block(dark_cam, dark_her):
    # the marginal refinement check the bound replaced, over the sweep's means
    # at the block length where the joint table's check is slowest and at one
    # it does not reach
    for bpb, x_s, ratio in itertools.product(
        (ORACLE_MAX_BINS, LONG_BINS), SWEEP_X_S, (0.0, 0.3, 3.0)
    ):
        x_cam = x_s / bpb
        ((u, weights),) = bt.block_rules(bpb, [x_cam], dark_cam, ratio * x_cam, dark_her)
        oracle_u, oracle_weights = marginal_check_rule(bpb, x_cam, dark_cam, ratio * x_cam, dark_her)
        assert np.array_equal(u, oracle_u), (bpb, x_s, ratio)
        assert np.array_equal(weights, oracle_weights), (bpb, x_s, ratio)


def test_gauss_legendre_rule_is_exact_to_rounding_on_every_polynomial_it_integrates():
    # every base rule a check can take: TABLE_NODES doubled until one panel of
    # the fewest would pass the cap, and the small counts a test may start from.
    # An n-node rule integrates P_k exactly for k < 2n, so sum w P_k is 2 at
    # k = 0 and 0 above; P_k comes from this test's own recurrence.  Up to 96
    # nodes it also agrees with numpy's eigenvalue-based rule.
    from numpy.polynomial.legendre import leggauss

    degrees, nodes = list(range(2, 40)), bt.TABLE_NODES
    while bt.TABLE_MIN_PANELS * nodes <= bt.TABLE_NODE_CAP:
        degrees.append(nodes)
        nodes *= 2
    assert max(degrees) == 3072
    for nodes in degrees:
        t, w = bt._gauss_legendre(nodes)
        assert len(t) == nodes and (np.diff(t) > 0).all() and (w > 0).all(), nodes
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1]), nodes
        p0, p1 = np.ones_like(t), t
        moments = [w.sum() - 2.0, w @ t]
        for k in range(2, 2 * nodes):
            p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
            moments.append(w @ p1)
        assert np.abs(moments).max() <= 2e-15, nodes
        if nodes <= 96:
            numpys_t, numpys_w = leggauss(nodes)
            assert np.abs(t - numpys_t).max() <= 2.2e-16, nodes
            assert np.abs(w - numpys_w).max() <= 1e-13, nodes


def test_means_leaving_the_refinement_at_different_levels_keep_their_rules(monkeypatch):
    # from four nodes a panel and at a tolerance of 1e-8, the dim means' bounds
    # pass at 8 nodes and the bright ones' at 16: each mean keeps the rule it
    # gets alone, whose table meets the tolerance against the oracle's
    monkeypatch.setattr(bt, "TABLE_NODES", 2)
    monkeypatch.setattr(bt, "TABLE_TOL", 1e-8)
    x_cams = [x / BPB for x in (0.0, 0.01, 0.1, 1.0, 3.6, 10.0, 50.0)]
    x_her = 3.6 / BPB
    rules = bt.block_rules(BPB, x_cams, 0.0, x_her, 0.0)
    assert {rule_shape(BPB, x_cam, x_her, u)[1] for x_cam, (u, _) in zip(x_cams, rules)} == {8, 16}
    for x_cam, (u, weights) in zip(x_cams, rules):
        ((alone_u, alone_weights),) = bt.block_rules(BPB, [x_cam], 0.0, x_her, 0.0)
        assert u.tobytes() == alone_u.tobytes()
        assert weights.tobytes() == alone_weights.tobytes()
        oracle = per_mean_rule(BPB, x_cam, 0.0, x_her, 0.0)
        table = rule_table(BPB, x_cam, 0.0, x_her, 0.0, (u, weights))
        assert np.abs(table - rule_table(BPB, x_cam, 0.0, x_her, 0.0, oracle)).max() < 1e-8


def test_herald_factor_is_built_once_per_panel_count(monkeypatch):
    # six camera means meet three panel counts: the herald's factor of the
    # bound is built once for each, the camera's once a mean; the two
    # detectors' dark counts tell their calls apart
    dark_cam, dark_her = 0.01, 0.03
    x_cams = [x / BPB for x in (0.0, 0.1, 0.5, 3.6, 10.0, 50.0)]
    x_her = 0.65 / BPB
    calls, bound = [], bt._log_binomial_bound

    def spy(bpb, x, dark, arcs):
        calls.append((dark, len(arcs.half)))
        return bound(bpb, x, dark, arcs)

    monkeypatch.setattr(bt, "_log_binomial_bound", spy)
    bt.block_rules(BPB, x_cams, dark_cam, x_her, dark_her)
    panels = [bt._panel_count(BPB, max(x_cam, x_her)) for x_cam in x_cams]
    assert sorted(set(panels)) == [8, 16, 32]
    assert [p for dark, p in calls if dark == dark_her] == sorted(set(panels))
    assert [p for dark, p in calls if dark == dark_cam] == panels


# block lengths, camera means x_cam s and (camera dark, herald dark, x_her / x_cam)
# of the soundness test, each at 2 to 8 nodes a panel
SOUND_BINS = (1, 8, 83, 256, LONG_BINS)
SOUND_X_S = (0.01, 1.0, 10.0, 50.0, 200.0)
SOUND_DARKS = [(0.0, 0.0, 0.3), (0.01, 0.03, 3.0), (0.3, 0.1, 1.0)]


def rule_cells(bpb, x_cam, dark_cam, x_her, dark_her, rule):
    """The cells of the joint table of ``rule`` up to ``ORACLE_MAX_BINS`` bins,
    and past that the cells of both its marginals, which are sums of joint
    cells, so one bound on the sum of all cells' moduli holds them too."""
    if bpb <= ORACLE_MAX_BINS:
        return rule_table(bpb, x_cam, dark_cam, x_her, dark_her, rule)
    detectors = ((x_cam, dark_cam), (x_her, dark_her))
    return np.concatenate([marginal_of(bpb, x, dark, *rule)[0] for x, dark in detectors])


def test_error_bound_holds_over_each_joint_cell():
    # the bound must hold the quadrature's worst joint-cell error (marginal-cell
    # error past the joint table's reach), measured against a rule of 64 nodes a
    # panel (32 past that reach, which halves the oracle's cost there; either
    # bound is below 1e-20); at 2 to 8 nodes the error is far above rounding,
    # so a bound that is too small by a factor rho^2 shows
    for bpb, x_s, (dark_cam, dark_her, ratio) in itertools.product(
        SOUND_BINS, SOUND_X_S, SOUND_DARKS
    ):
        x_cam, x_her = x_s / bpb, ratio * x_s / bpb
        panels = bt._panel_count(bpb, max(x_cam, x_her))
        arcs = bt._ellipse_arcs(panels)
        log_moduli = (arcs.log_weight + bt._log_binomial_bound(bpb, x_cam, dark_cam, arcs)
                      + bt._log_binomial_bound(bpb, x_her, dark_her, arcs))
        args = (bpb, x_cam, dark_cam, x_her, dark_her)
        reference = 64 if bpb <= ORACLE_MAX_BINS else 32
        assert bt._log_error_bound(log_moduli, arcs.half, reference) < math.log(1e-20)
        exact = rule_cells(*args, bt._panel_rule(panels, reference))
        for nodes in range(2, 9):
            error = np.abs(rule_cells(*args, bt._panel_rule(panels, nodes)) - exact).max()
            bound = math.exp(bt._log_error_bound(log_moduli, arcs.half, nodes))
            assert error <= bound, (bpb, x_s, dark_cam, nodes, error, bound)


# the brightest camera mean, as x s, that block_rules certifies at LONG_BINS
# with no herald light: measured 1.5307e5 (1.5687e5 at 1024 bins, 1.8734e5 at
# BPB), so 1.05 times it is refused
LONG_BRIGHTEST_X_S = 1.53e5


def test_bound_grows_with_the_block_length_past_the_oracle():
    # past the joint table's reach the bound's measured errors are so far below
    # it that a bound taking s as 1024 still holds them; the refusal at a long
    # block tells it apart, since it would certify four times the mean here
    x_cam = LONG_BRIGHTEST_X_S / LONG_BINS
    assert len(bt.block_rules(LONG_BINS, [x_cam], 0.0, 0.0, 0.0)) == 1
    with pytest.raises(QVampireError, match=f"block rule \\({LONG_BINS} bins"):
        bt.block_rules(LONG_BINS, [1.05 * x_cam], 0.0, 0.0, 0.0)


def test_batch_names_the_mean_that_cannot_converge(monkeypatch):
    # capped at the first refinement of the fewest panels, the dim means of
    # one call pass and its bright one fails
    monkeypatch.setattr(bt, "TABLE_NODE_CAP", bt.TABLE_MIN_PANELS * 2 * bt.TABLE_NODES)
    dim, bright, x_her = [0.45 / BPB, 0.65 / BPB], 50.0 / BPB, 0.135 / BPB
    assert len(bt.block_rules(BPB, dim, 0.0, x_her, 0.0)) == 2
    with pytest.raises(QVampireError, match=f"x_cam {bright:.3g},"):
        bt.block_rules(BPB, [dim[0], bright, dim[1]], 0.0, x_her, 0.0)


def test_a_repeated_mean_gets_one_rule_per_entry():
    # the check takes its means as given: each entry, repeated or not, gets
    # the rule of a call with its mean alone, bit for bit
    x_cams = [x / BPB for x in (0.1, 3.6, 0.1, 0.1)]
    x_her = 0.65 / BPB
    rules = bt.block_rules(BPB, x_cams, 1e-3, x_her, 1e-3)
    assert len(rules) == len(x_cams)
    for x_cam, (u, weights) in zip(x_cams, rules):
        ((alone_u, alone_weights),) = bt.block_rules(BPB, [x_cam], 1e-3, x_her, 1e-3)
        assert u.tobytes() == alone_u.tobytes()
        assert weights.tobytes() == alone_weights.tobytes()


def test_scan_of_distinct_means_at_512_bins_matches_tile_by_tile():
    # at 512 bins a block the 5 tiles of an off-centre gaussian have 5 distinct
    # camera weights; the herald, brighter than any tile, sets one panel count
    # for all of them, so all five share its rows
    det = mc.DetectorConfig()
    prof = spatial.make_profile("gaussian", 10, 2, cx=3.3, cy=0.4)
    src = mc.SourceConfig(nbar=0.01, profile=prof, coherence_time=512 * det.bin_width)
    mask = spatial.vampire_mask(np.ones((2, 10), dtype=bool), 0.9)
    results = []
    for threads in (1, 2, 4):
        scan = small_scan(mask, seed=17, superpixel=2, dwell=1e-4, threads=threads)
        results.append(count_grids(mc.run_scan(src, scan)))
    reference = tile_by_tile(src, scan)
    assert all(np.array_equal(grids, reference) for grids in results)
    assert results[0][mc.COUNTS.index("herald_counts")].min() > 0


def chi2_two_sample_p(a, b, n_bins=10):
    """p-value of a chi-square homogeneity test of two samples, binned at the
    pooled sample's quantiles; a bin neither sample reaches is dropped."""
    pooled = np.concatenate([a, b])
    edges = np.unique(np.quantile(pooled, np.linspace(0, 1, n_bins + 1)[1:-1]))
    observed = np.array(
        [np.bincount(np.searchsorted(edges, x, side="right"), minlength=len(edges) + 1)
         for x in (a, b)],
        dtype=float,
    )
    observed = observed[:, observed.sum(axis=0) > 0]
    expected = observed.sum(axis=1, keepdims=True) * observed.sum(axis=0) / observed.sum()
    chi2 = ((observed - expected) ** 2 / expected).sum()
    return stats.chi2.sf(chi2, observed.shape[1] - 1)


@pytest.mark.parametrize(
    "kind, w_cam, w_her, dark_cam, dark_her, n_bins, bpb",
    [
        # a desk-scan tile: camera x s = 0.45, herald x s = 0.65
        (mc.THERMAL, 0.45 / BPB / 0.6, 0.013, 0.0, 0.0, BPB * 2400 + 50, BPB),
        # the coincidence test's tile with dark counts
        (mc.THERMAL, 0.4, 0.3, 0.01, 0.03, 20_000, BPB),
        (mc.COHERENT, 0.4, 0.3, 0.01, 0.03, 20_000, BPB),
        # the joint table oracle's longest block: camera x s = 3.6, herald x s = 0.65
        (mc.THERMAL, 3.6 / 1024 / 0.6, 0.65 / 1024 / 0.6, 1e-4, 0.0, 1024 * 3000 + 100, 1024),
        # a block beyond its reach, at the same x s
        (mc.THERMAL, 3.6 / LONG_BINS / 0.6, 0.65 / LONG_BINS / 0.6, 1e-4, 0.0,
         LONG_BINS * 3000 + 100, LONG_BINS),
    ],
    ids=["desk", "dark", "coherent", "1024", "4096"],
)
def test_tile_totals_match_per_block_oracle(kind, w_cam, w_her, dark_cam, dark_her, n_bins, bpb):
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(4, 4), kind=kind)
    det_cam = mc.DetectorConfig(efficiency=0.6, dark_prob=dark_cam)
    det_her = mc.DetectorConfig(efficiency=0.6, dark_prob=dark_her)
    args = (w_cam, w_her, src, det_cam, det_her, n_bins, bpb)
    tiles = tile_draws(range(400), 3, *args)
    oracle = np.array([per_block_tile(seed, 3, *args) for seed in range(10_000, 10_400)])
    for name, a, b in zip(("camera", "herald", "coincidence"), tiles.T, oracle.T):
        assert chi2_two_sample_p(a, b) > 1e-3, name


def three_branch_tile(seed, index, w_cam, w_her, src, det_cam, det_her, n_bins, bpb):
    """Oracle for ``mc._simulate_tile``: the draw with its own branches for a
    coherent tile, a thermal tile without a full block and a thermal tile."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    dets = (det_cam, det_her)
    if src.kind == mc.COHERENT:
        bins, rows = np.array([n_bins]), mc._outcome_rows(w_cam, w_her, src, *dets, np.ones(1))
    else:
        n_full, rest = divmod(n_bins, bpb)
        bins, rows = np.zeros(0, dtype=np.int64), np.zeros((0, 4))
        if n_full:
            x_cam = det_cam.efficiency * w_cam * src.nbar
            x_her = det_her.efficiency * w_her * src.nbar
            ((u, weights),) = bt.block_rules(bpb, [x_cam], det_cam.dark_prob, x_her,
                                             det_her.dark_prob)
            blocks = gen.multinomial(n_full, weights)
            occupied = blocks > 0
            bins = bpb * blocks[occupied]
            rows = mc._outcome_rows(w_cam, w_her, src, *dets, u)[occupied]
        if rest:
            u = np.array([gen.standard_exponential()])
            bins = np.append(bins, rest)
            rows = np.concatenate([rows, mc._outcome_rows(w_cam, w_her, src, *dets, u)])
    both, cam_only, her_only, _ = gen.multinomial(bins, rows).sum(axis=0)
    return int(both + cam_only), int(both + her_only), int(both)


@pytest.mark.parametrize("kind", [mc.THERMAL, mc.COHERENT])
@pytest.mark.parametrize(
    "n_bins", [BPB - 1, BPB, BPB * 240, BPB * 240 + 17], ids=["short", "one", "full", "partial"]
)
def test_tile_totals_equal_the_three_branch_draw(kind, n_bins):
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(4, 4), kind=kind)
    det_cam = mc.DetectorConfig(efficiency=0.6, dark_prob=0.01)
    det_her = mc.DetectorConfig(efficiency=0.5, dark_prob=0.03)
    args = (0.4, 0.3, src, det_cam, det_her, n_bins, BPB)
    for index in (0, 7, 2**40 + 3):
        seeds = (1, 42, 7919, 2**63 + 5)
        oracle = np.array([three_branch_tile(seed, index, *args) for seed in seeds])
        assert np.array_equal(tile_draws(seeds, index, *args), oracle)


@pytest.mark.parametrize("kind", [mc.THERMAL, mc.COHERENT])
@pytest.mark.parametrize(
    "n_bins", [BPB - 1, BPB * 240, BPB * 240 + 17], ids=["short", "full", "partial"]
)
def test_a_rekeyed_generator_draws_each_tile_as_a_fresh_one(kind, n_bins):
    # one generator draws the tiles out of order and a tile twice, with its
    # counter and buffer wherever the last draw left them: each tile must
    # still draw what a fresh Philox(key=(seed, index)) draws
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(4, 4), kind=kind)
    det_cam = mc.DetectorConfig(efficiency=0.6, dark_prob=0.01)
    det_her = mc.DetectorConfig(efficiency=0.5, dark_prob=0.03)
    args = (0.4, 0.3, src, det_cam, det_her, n_bins, BPB)
    (law,) = mc._tile_laws([args[0]], *args[1:])
    gen = np.random.Generator(np.random.Philox(0))
    for seed in (1, 42, 7919, 2**63 + 5):
        for index in (7, 0, 2**40 + 3, 7):
            got = mc._simulate_tile(gen, seed, index, law)
            assert got == three_branch_tile(seed, index, *args)
            gen.integers(2**32, dtype=np.uint32, size=3)  # a draw between tiles


# ---------------------------------------------------------------------------
# run_scan


def test_zero_camera_efficiency_gives_zero_counts():
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile())
    scan = small_scan(
        spatial.MaskSpec(np.ones((12, 16))),
        camera_detector=mc.DetectorConfig(efficiency=0.0),
    )
    res = mc.run_scan(src, scan)
    assert res.grid("camera_counts").sum() == 0
    assert res.grid("coincidence_counts").sum() == 0


def test_dimension_mismatch_rejected():
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(16, 12))
    with pytest.raises(ConfigMismatch):
        mc.run_scan(src, small_scan(spatial.MaskSpec(np.ones((8, 8)))))


def test_coherence_shorter_than_bin_rejected():
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(), coherence_time=1e-9)
    with pytest.raises(ConfigMismatch):
        mc.run_scan(src, small_scan(spatial.MaskSpec(np.ones((12, 16)))))


def test_a_ratio_past_float_range_is_capped_before_int():
    # dwell / bin_width and coherence_time / bin_width overflow to inf: a scan
    # refuses the dwell, naming both keys, and the block of either kind is capped
    rule = "hold fewer than 2**63 bins"
    for given in ({"scan.dwell": "1e308"}, {"detector.bin_width": "5e-324"}):
        with pytest.raises(ConfigMismatch, match=re.escape(rule)) as caught:
            config.build_scenario({**given, "source.kind": "coherent", "scan.seed": "1"})
        assert str(caught.value).startswith("scan.dwell='")
        assert "detector.bin_width='" in str(caught.value)
    det = mc.DetectorConfig(bin_width=5e-324)
    for kind in (mc.COHERENT, mc.THERMAL):
        src = mc.SourceConfig(nbar=1.0, profile=flat_profile(), kind=kind)
        assert mc.bins_per_block(src, det) == 2**63 - 1


def test_a_dwell_holds_fewer_than_2_63_bins():
    # one-second bins: the float below 2**63 is drawn whole, 2**63 itself refused
    mask = spatial.MaskSpec(np.ones((12, 16)))
    det = mc.DetectorConfig(bin_width=1.0)
    below = math.nextafter(2.0**63, 0)
    scan = small_scan(mask, dwell=below, herald_detector=det, camera_detector=det)
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(), coherence_time=1.0, kind=mc.COHERENT)
    assert mc.derived_settings(src, scan)["n_bins"] == int(below)
    assert (mc.run_scan(src, scan).grid("n_bins") == int(below)).all()
    with pytest.raises(ConfigMismatch, match=re.escape("hold fewer than 2**63 bins")):
        small_scan(mask, dwell=2.0**63, herald_detector=det, camera_detector=det)


def test_singles_rates_match_quadrature_oracle():
    prof = flat_profile()
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    scan = small_scan(spatial.MaskSpec(np.ones((12, 16))), seed=101, dwell=0.0024)
    res = mc.run_scan(src, scan)
    w = float(prof.power()[:4, :4].sum())  # every 4x4 superpixel is identical
    p_oracle = thermal_click_quad(w, src.nbar, scan.camera_detector)
    n_bins = res.records[0].n_bins
    _, sigma = mc.expected_singles_counts(w, src, scan.camera_detector, n_bins)
    counts = res.grid("camera_counts").ravel()
    z = (counts - p_oracle * n_bins) / sigma
    assert np.abs(z).max() < 4.0  # 12 superpixel-tests; 3-sigma plus slack
    assert np.mean(np.abs(z) > 3.0) <= 1.0 / 12.0


def test_block_correlation_inflates_singles_variance():
    # with 83 bins per coherence block the counter variance is far above
    # binomial; check the analytic sigma against an empirical ensemble
    prof = flat_profile(4, 4)
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    mask = spatial.MaskSpec(np.ones((4, 4)))
    det = mc.DetectorConfig(efficiency=0.6)
    w = 1.0  # single superpixel covering the whole beam
    n_bins = 20_000
    counts = tile_draws(range(200), 0, w, 0.0, src, det, det, n_bins, 83)[:, 0].astype(float)
    mean, sigma = mc.expected_singles_counts(w, src, det, n_bins)
    assert abs(counts.mean() - mean) < 4 * sigma / math.sqrt(200)
    assert 0.8 < counts.std() / sigma < 1.2
    p = mean / n_bins
    binomial = math.sqrt(n_bins * p * (1 - p))
    assert sigma > 2.0 * binomial


@pytest.mark.parametrize("kind", [mc.THERMAL, mc.COHERENT])
def test_camera_rate_sigma_is_the_expected_singles_sigma(kind):
    # analyze's singles error and the analytic counter model share one formula
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(), kind=kind)
    det = mc.DetectorConfig(efficiency=0.6)
    bpb = mc.bins_per_block(src, det)
    assert bpb == 83
    n_bins = 1_000_000  # ends in a partial block
    counts = (3_000, 120_000, 450_000)
    silent = [[0] * len(counts)]
    config = {"source.kind": kind, "derived.bins_per_block": str(bpb)}
    result = mc.ScanResult([[n_bins] * len(counts)], [counts], silent, silent, config)
    rates, sigmas = result.camera_rate_map()
    for p, sigma in zip(rates[0], sigmas[0]):
        # the coupling whose dark-free click mean is the measured rate p
        if kind == mc.THERMAL:
            coupling = p / (1.0 - p) / (det.efficiency * src.nbar)
        else:
            coupling = -math.log1p(-p) / (det.efficiency * src.nbar)
        mean, expected = mc.expected_singles_counts(coupling, src, det, n_bins)
        assert abs(mean / n_bins - p) < 1e-12 * p
        assert abs(sigma * n_bins - expected) < 1e-12 * expected


@pytest.mark.parametrize("kind", [mc.THERMAL, mc.COHERENT])
def test_saturated_superpixel_gets_the_one_count_floor(kind):
    # every bin clicked: the rate is 1 and the field cannot move it, so the
    # error is the one-count floor 1/n whatever the source
    n_bins = 10_000
    config = {"source.kind": kind, "derived.bins_per_block": "83"}
    rates, sigmas = mc.ScanResult([[n_bins]], [[n_bins]], [[0]], [[0]], config).camera_rate_map()
    assert rates[0, 0] == 1.0
    assert sigmas[0, 0] == 1.0 / n_bins


def coincidence_moments(w_cam, w_her, src, det_cam, det_her):
    """Oracle: E[q] and E[q^2] over the field of q = p_cam * p_her.

    With k = 1 - dark_prob and u = exp(-efficiency * w * I), each click
    probability is 1 - k u; for an exponential intensity of mean nbar,
    E[u_cam^i u_her^j] = 1 / (1 + i x_cam + j x_her), x = efficiency * w * nbar.
    """
    x_c = det_cam.efficiency * w_cam * src.nbar
    x_h = det_her.efficiency * w_her * src.nbar
    k_c, k_h = 1.0 - det_cam.dark_prob, 1.0 - det_her.dark_prob
    if src.kind == mc.COHERENT:
        q = (1.0 - k_c * math.exp(-x_c)) * (1.0 - k_h * math.exp(-x_h))
        return q, q * q

    def moment(coef_c, coef_h):
        return sum(
            a * b / (1.0 + i * x_c + j * x_h)
            for i, a in enumerate(coef_c)
            for j, b in enumerate(coef_h)
        )

    return (
        moment((1.0, -k_c), (1.0, -k_h)),
        moment((1.0, -2.0 * k_c, k_c * k_c), (1.0, -2.0 * k_h, k_h * k_h)),
    )


@pytest.mark.parametrize(
    "kind, dark_cam, dark_her",
    [(mc.THERMAL, 0.0, 0.0), (mc.THERMAL, 0.01, 0.03), (mc.COHERENT, 0.0, 0.0)],
)
def test_coincidence_counts_match_closed_form(kind, dark_cam, dark_her):
    # thermal: n E[p_c p_h] = n (1 - k_c/(1+x_c) - k_h/(1+x_h) + k_c k_h/(1+x_c+x_h));
    # coherent: n p_c p_h.  The variance adds the excess of bins sharing a block.
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(4, 4), kind=kind)
    det_cam = mc.DetectorConfig(efficiency=0.6, dark_prob=dark_cam)
    det_her = mc.DetectorConfig(efficiency=0.5, dark_prob=dark_her)
    w_cam, w_her, n_bins, bpb = 0.4, 0.3, 20_000, 83  # ends in a partial block
    args = (w_cam, w_her, src, det_cam, det_her, n_bins, bpb)
    both = tile_draws(range(300), 2, *args)[:, 2].astype(float)
    q, q_sq = coincidence_moments(w_cam, w_her, src, det_cam, det_her)
    if kind == mc.THERMAL:
        p_cam, _ = thermal_moments(w_cam, src.nbar, det_cam)
        p_her, _ = thermal_moments(w_her, src.nbar, det_her)
        assert q > 1.2 * p_cam * p_her  # the bunching the counter must show
    var = n_bins * (q - q_sq) + float(mc._sum_block_squares(n_bins, bpb)) * (q_sq - q * q)
    sigma = math.sqrt(var)
    assert abs(both.mean() - n_bins * q) < 4 * sigma / math.sqrt(len(both))
    assert 0.8 < both.std() / sigma < 1.2


@pytest.mark.parametrize("kind", [mc.THERMAL, mc.COHERENT])
def test_tile_where_every_bin_clicks_counts_every_bin(kind):
    # dark counts that fire almost surely make every bin click both detectors,
    # which pins the bookkeeping of full blocks, overlaps and the partial block
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(4, 4), kind=kind)
    det = mc.DetectorConfig(dark_prob=1.0 - 1e-15)
    for n_bins in (50, BPB * 5, BPB * 5 + 17):
        args = (0.3, 0.2, src, det, det, n_bins, BPB)
        assert tuple(tile_draws([1], 0, *args)[0]) == (n_bins,) * 3


def test_billion_block_tile_matches_singles_model_in_bounded_memory():
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(4, 4))
    det = mc.DetectorConfig(efficiency=0.6)
    bpb, w = 83, 0.02
    n_bins = bpb * 10**9 + 17  # 1e9 full blocks and a partial one
    tracemalloc.start()
    try:
        (cam, her, _), = tile_draws([9], 0, w, w, src, det, det, n_bins, bpb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    mean, sigma = mc.expected_singles_counts(w, src, det, n_bins)
    assert abs(cam - mean) < 5 * sigma
    assert abs(her - mean) < 5 * sigma


def test_tile_memory_does_not_grow_with_dwell():
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(4, 4))
    det = mc.DetectorConfig(efficiency=0.6)
    bpb = 83
    tracemalloc.start()
    try:
        tile_draws([5], 0, 0.02, 0.02, src, det, det, bpb * 1_000_000, bpb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_determinism_across_thread_counts():
    prof = flat_profile()
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    region = spatial.rect_region(16, 12, 4, 4, 6, 4)
    mask = spatial.vampire_mask(region, 0.3)
    det = mc.DetectorConfig()
    bpb = mc.bins_per_block(src, det)
    # tiles of many full blocks that end in a partial block; half a bin over,
    # so the dwell floors to long_bins whatever the rounding
    long_bins = bpb * 70_000 + 17
    for kw in ({}, {"superpixel": 8, "dwell": (long_bins + 0.5) * det.bin_width}):
        results = [
            count_grids(mc.run_scan(src, small_scan(mask, seed=77, threads=threads, **kw)))
            for threads in (1, 4, 8)
        ]
        assert np.array_equal(results[0], results[1]) and np.array_equal(results[0], results[2])
    assert (results[0][mc.COUNTS.index("n_bins")] == long_bins).all()


def test_a_scan_starts_no_thread_at_any_thread_count(monkeypatch):
    # scan.threads is checked and echoed, but every tile is drawn on the
    # calling thread: 48 tiles at threads=16 start no thread and draw the
    # grids of threads=1
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile())
    mask = spatial.vampire_mask(spatial.rect_region(16, 12, 4, 4, 6, 4), 0.3)
    reference = count_grids(mc.run_scan(src, small_scan(mask, superpixel=2, threads=1)))

    def start(self):
        raise AssertionError("a scan started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    grids = count_grids(mc.run_scan(src, small_scan(mask, superpixel=2, threads=16)))
    assert grids[0].size == 48 and np.array_equal(grids, reference)


@pytest.mark.parametrize("failing", [0, 47], ids=["calling-thread", "worker"])
def test_a_tile_error_reaches_the_caller_after_every_thread_ends(monkeypatch, failing):
    # 48 tiles at threads=3: the first tile's error or the last's reaches the
    # caller, with no thread left running
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile())
    mask = spatial.MaskSpec(np.ones((12, 16)))
    scan = small_scan(mask, superpixel=2, threads=3)
    draw = mc._simulate_tile

    def faulty(gen, seed, index, law):
        if index == failing:
            raise FloatingPointError(f"tile {index}")
        return draw(gen, seed, index, law)

    monkeypatch.setattr(mc, "_simulate_tile", faulty)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"tile {failing}$"):
        mc.run_scan(src, scan)
    assert threading.active_count() == before


def test_run_scan_builds_each_distinct_table_once(monkeypatch):
    # the criterion-8 desk scan: 192 tiles, of which 68 lie outside the beam
    # and 68 in its flat interior, need 14 distinct tables
    prof = spatial.make_profile("uniform_ellipse", 64, 48, rx=28, ry=20)
    region = spatial.rect_region(64, 48, 22, 17, 20, 14)
    contrast = spatial.contrast_for_herald_rate(prof, region, 1.0, 0.013)
    mask = spatial.vampire_mask(region, contrast)
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    calls = []
    build = bt.block_rules
    monkeypatch.setattr(bt, "block_rules", lambda *args: calls.append(args[1]) or build(*args))
    results = []
    for threads in (1, 4):
        calls.clear()
        scan = small_scan(mask, seed=801, dwell=0.096, bins_cap=8 * 10**6, threads=threads)
        results.append(count_grids(mc.run_scan(src, scan)))
        assert results[-1][0].size == 192
        # one check of the 14 distinct camera means
        assert len(calls) == 1 and len(calls[0]) == len(set(calls[0])) == 14
    # the same totals as drawing tile by tile, in index order, each tile
    # from a rule of its own
    reference = tile_by_tile(src, scan)
    assert len(calls) == 1 + 192
    assert np.array_equal(results[0], reference) and np.array_equal(results[1], reference)


def test_scan_with_a_table_per_tile_holds_at_most_threads_tables():
    # blocks of 1024 bins on an off-centre gaussian: each of the 12 tiles
    # takes its own rule.  The bound that chooses it holds no (s+1)-wide
    # array and a tile's draw holds none, so a scan, at threads=2 too, stays
    # under a tenth of one chunk of the oracle's ORACLE_ROW_NODES x (s+1)
    # binomial rows (3.1 MB), which the check it replaced held at once.
    # Blocks of 1e5 bins at the same x s take the same panels, and the scan
    # stays under that same peak, less than half of one (s+1)-wide row
    det = mc.DetectorConfig()
    prof = spatial.make_profile("gaussian", 8, 6, cx=2.4, cy=2.4)
    chunk_bytes = ORACLE_ROW_NODES * (ORACLE_MAX_BINS + 1) * 8
    power = prof.power()
    _, _, tiles = mc.superpixel_tiles(6, 8, 2)
    assert len({float(power[ys, xs].sum()) for _, _, ys, xs in tiles}) == len(tiles) == 12
    for bpb, dwell in ((ORACLE_MAX_BINS, 1e-4), (100_000, 3e-3)):
        nbar = 0.01 * ORACLE_MAX_BINS / bpb
        src = mc.SourceConfig(nbar=nbar, profile=prof, coherence_time=bpb * det.bin_width)
        scan = small_scan(spatial.MaskSpec(np.ones((6, 8))), seed=3, superpixel=2, dwell=dwell,
                          threads=2)
        assert mc.derived_settings(src, scan)["bins_per_block"] == bpb
        tracemalloc.start()
        try:
            res = mc.run_scan(src, scan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.grid("camera_counts").sum() > 0, bpb
        assert peak < chunk_bytes / 10, bpb

def test_conditional_ratio_is_two_for_thermal(tmp_path):
    prof = flat_profile()
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    region = np.ones((12, 16), dtype=bool)
    mask = spatial.vampire_mask(region, 0.1)
    scan = small_scan(mask, seed=5, dwell=0.012, bins_cap=10**6)
    res = mc.run_scan(src, scan)
    maps = mc.conditional_profile_mc(res)
    ratio = maps.conditional.values / maps.unconditional.values
    sigma = ratio * np.sqrt(
        (maps.conditional.sigmas / maps.conditional.values) ** 2
        + (maps.unconditional.sigmas / maps.unconditional.values) ** 2
    )
    z = (ratio - 2.0) / sigma
    assert np.abs(z).mean() < 2.0
    assert np.abs(ratio.mean() - 2.0) < 0.1


def test_conditional_ratio_is_one_for_coherent_source():
    prof = flat_profile()
    src = mc.SourceConfig(nbar=1.0, profile=prof, kind=mc.COHERENT)
    region = np.ones((12, 16), dtype=bool)
    mask = spatial.vampire_mask(region, 0.1)
    res = mc.run_scan(src, small_scan(mask, seed=6, dwell=0.012, bins_cap=10**6))
    maps = mc.conditional_profile_mc(res)
    ratio = maps.conditional.values / maps.unconditional.values
    assert np.abs(ratio.mean() - 1.0) < 0.05


def test_whole_beam_g2_estimate():
    # one superpixel covering the full beam: plain intensity correlation
    prof = flat_profile(8, 8)
    src = mc.SourceConfig(nbar=0.15, profile=prof)
    region = np.ones((8, 8), dtype=bool)
    mask = spatial.vampire_mask(region, 0.25)
    scan = mc.ScanConfig(mask=mask, seed=21, superpixel=8, dwell=0.024, bins_cap=2 * 10**6)
    res = mc.run_scan(src, scan)
    rec = res.records[0]
    g2, sigma = analysis.g2_estimate(
        rec.camera_counts, rec.herald_counts, rec.coincidence_counts, rec.n_bins
    )
    assert abs(g2 - 2.0) < max(3 * sigma, 0.05)


def test_no_heralds_raises():
    prof = flat_profile()
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    res = mc.run_scan(src, small_scan(spatial.MaskSpec(np.ones((12, 16)))))
    with pytest.raises(QVampireError, match="zero herald counts"):
        mc.conditional_profile_mc(res)


def test_run_scan_echoes_only_what_analysis_reads():
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile())
    scan = small_scan(spatial.MaskSpec(np.ones((12, 16))))
    res = mc.run_scan(src, scan)
    derived = {f"derived.{name}" for name in mc.derived_settings(src, scan)}
    assert set(res.config) == set(mc.SIDECAR_DEFAULTS) | derived


# ---------------------------------------------------------------------------
# serialization


def test_scan_csv_roundtrip(tmp_path):
    prof = flat_profile()
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    region = spatial.rect_region(16, 12, 4, 4, 6, 4)
    mask = spatial.vampire_mask(region, 0.3)
    res = mc.run_scan(src, small_scan(mask, seed=3))
    path = tmp_path / "scan.csv"
    mc.save_scan_csv(path, res)
    with open(path) as fh:
        assert fh.readline().strip() == mc.SCAN_CSV_HEADER
    back = mc.load_scan_csv(path, config=res.config)
    assert np.array_equal(count_grids(back), count_grids(res))
    assert (back.n_rows, back.n_cols) == (res.n_rows, res.n_cols)
    # byte-identical rewrite
    path2 = tmp_path / "again.csv"
    mc.save_scan_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_sidecar_roundtrip(tmp_path):
    cfg = {"scan.seed": "42", "source.nbar": "1.0", "scenario": "subtraction"}
    path = tmp_path / "scan.cfg"
    mc.save_sidecar(path, cfg)
    assert mc.load_sidecar(path) == cfg


GRID_1X2 = {"derived.n_rows": "1", "derived.n_cols": "2"}


@pytest.mark.parametrize(
    "rows, config",
    [
        (["0,0", "0,0", "0,1"], GRID_1X2),  # duplicate superpixel
        (["0,0", "0,2"], GRID_1X2),  # column outside the grid
        (["0,0", "-1,1"], None),  # negative row
        (["0,0"], GRID_1X2),  # missing superpixel
        (["0,0", "1,1"], None),  # missing superpixels of the inferred 2x2 grid
        ([], GRID_1X2),  # empty body
    ],
)
def test_load_scan_csv_rejects_malformed_grid(tmp_path, rows, config):
    path = tmp_path / "scan.csv"
    body = "".join(f"{cell},10,2,1,1\n" for cell in rows)
    path.write_text(mc.SCAN_CSV_HEADER + "\n" + body)
    with pytest.raises(ConfigMismatch):
        mc.load_scan_csv(path, config=config)


@pytest.mark.parametrize(
    "row, rule",
    [
        ("0,0,5", "expected 6 fields"),  # short row
        ("0,0,10,2.5,1,1", "camera_counts='2.5' is not an integer"),
        ("0,0,10,2,-1,0", "non-negative"),  # negative herald count
        (f"0,0,{2**63},2,1,1", "n_bins must be below 2**63"),  # beyond an int64 grid
        (f"0,0,10,{-(2**63) - 1},1,1", "camera_counts must be below 2**63 and at least -2**63"),
        ("0,0,1_0,2,1,1", "n_bins='1_0' is not an integer"),  # np.loadtxt reads no '_'
        ("0,0,100,5,3,4", "coincidences exceed a singles counter"),
        ("0,0,100,101,3,1", "counts exceed the number of bins"),
        # the sign rule first: -1 camera counts also sits below 0 coincidences
        ("0,0,100,-1,3,0", "counts must be non-negative"),
        ("0,1,10,2,1,1", "superpixel (0, 1) appears twice"),  # line 2's superpixel
    ],
)
def test_load_scan_csv_names_file_line_and_rule(tmp_path, row, rule):
    path = tmp_path / "scan.csv"
    path.write_text(f"{mc.SCAN_CSV_HEADER}\n0,1,10,2,1,1\n{row}\n")
    with pytest.raises(ConfigMismatch) as info:
        mc.load_scan_csv(path)
    message = str(info.value)
    assert message.startswith(f"{path}: line 3: ") and rule in message


@pytest.mark.parametrize(
    "row, rule",
    [("0,0,5", "expected 6 fields"), ("0,1,10,2,1,1", "superpixel (0, 1) appears twice"),
     ("0,2,10,2,1,1", "superpixel (0, 2) outside the 1x2 grid")],
)
def test_load_scan_csv_counts_empty_lines_in_the_line_it_names(tmp_path, row, rule):
    path = tmp_path / "scan.csv"
    path.write_text(f"{mc.SCAN_CSV_HEADER}\n\n0,1,10,2,1,1\n\n{row}\n0,0,10,2,1,1\n")
    with pytest.raises(ConfigMismatch) as info:
        mc.load_scan_csv(path, config=GRID_1X2)
    message = str(info.value)
    assert message.startswith(f"{path}: line 5: ") and rule in message


def test_load_scan_csv_names_a_field_count_every_row_shares(tmp_path):
    # np.loadtxt reads rows of one wrong length as a table of that many columns
    path = tmp_path / "scan.csv"
    path.write_text(f"{mc.SCAN_CSV_HEADER}\n0,0,5\n0,1,5\n")
    with pytest.raises(ConfigMismatch, match=r": line 2: expected 6 fields .*, got 3$"):
        mc.load_scan_csv(path)


def test_a_scan_result_holds_read_only_int64_grids(tmp_path):
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile())
    res = mc.run_scan(src, small_scan(spatial.MaskSpec(np.ones((12, 16)))))
    mc.save_scan_csv(tmp_path / "scan.csv", res)
    for result in (res, mc.load_scan_csv(tmp_path / "scan.csv", config=res.config)):
        assert (result.n_rows, result.n_cols) == (3, 4)
        for name in mc.COUNTS:
            grid = result.grid(name)
            assert grid is result.grid(name)  # the stored grid, not a copy
            assert grid.dtype == np.int64 and grid.shape == (3, 4) and not grid.flags.writeable
        # the records are the cells, row-major
        cells = [(row, col) for row in range(3) for col in range(4)]
        assert [rec[:2] for rec in result.records] == cells
        assert result.records[5] == (1, 1, *(result.grid(name)[1, 1] for name in mc.COUNTS))


def test_load_scan_csv_names_an_unexpected_header(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text("row,col,counts\n0,0,10,2,1,1\n")
    with pytest.raises(ConfigMismatch) as info:
        mc.load_scan_csv(path)
    assert str(info.value) == f"{path}: line 1: unexpected scan CSV header: 'row,col,counts'"


def test_sidecar_skips_comment_and_blank_lines(tmp_path):
    path = tmp_path / "scan.cfg"
    path.write_text("# a comment\n\nscan.seed=42\n   \n  # indented\nsource.nbar = 1.0\n")
    assert mc.load_sidecar(path) == {"scan.seed": "42", "source.nbar": "1.0"}
    path.write_text("# a comment\n\nsource.nbar 1.0\n")  # the skipped lines keep their numbers
    with pytest.raises(ConfigMismatch) as info:
        mc.load_sidecar(path)
    assert str(info.value) == f"{path}: line 3: expected key=value, got 'source.nbar 1.0'"


def test_sidecar_rejects_line_without_equals(tmp_path):
    path = tmp_path / "scan.cfg"
    path.write_text("scan.seed=42\nsource.nbar 1.0\n")
    with pytest.raises(ConfigMismatch, match="line 2"):
        mc.load_sidecar(path)
