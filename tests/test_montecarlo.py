"""Monte Carlo apparatus tests; rate oracles via numerical quadrature, tile
oracles via a sampler that draws every coherence block on its own."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from qvampire import analysis, blocktable as bt, montecarlo as mc, spatial
from qvampire.errors import ConfigMismatch, NoHeralds, QuadratureUnresolved


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
    the one quadrature rule its arguments need."""
    rule = mc._block_rule(mc._table_key(*args))
    return np.array([mc._simulate_tile(seed, index, *args, rule) for seed in seeds])


def rule_table(bpb, x_cam, dark_cam, x_her, dark_her):
    """The block-outcome table of the rule ``bt.block_table`` returns, the law a
    tile's blocks are drawn from: sum_i w_i Bin(.; s, p_cam(u_i)) (x) Bin(.; s, p_her(u_i))."""
    u, weights = bt.block_table(bpb, x_cam, dark_cam, x_her, dark_her)
    cam = bt._binomial_rows(bpb, x_cam * u, dark_cam) * weights[:, None]
    return cam.T @ bt._binomial_rows(bpb, x_her * u, dark_her)


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
    mask = spatial.make_mask("white", 16, 12)
    with pytest.raises(ConfigMismatch):
        mc.ScanConfig(mask=mask, seed=1, superpixel=0)
    with pytest.raises(ConfigMismatch):
        mc.ScanConfig(mask=mask, seed=1, trigger_mode="gated")
    with pytest.raises(ConfigMismatch):
        mc.ScanConfig(mask=mask, seed=1, dwell=1e-9)
    with pytest.raises(ConfigMismatch):
        mc.ScanConfig(
            mask=mask,
            seed=1,
            herald_detector=mc.DetectorConfig(bin_width=12e-9),
            camera_detector=mc.DetectorConfig(bin_width=24e-9),
        )


def test_superpixel_record_invariants():
    with pytest.raises(ConfigMismatch):
        mc.SuperpixelRecord(0, 0, 100, camera_counts=5, herald_counts=3, coincidence_counts=4)
    with pytest.raises(ConfigMismatch):
        mc.SuperpixelRecord(0, 0, 100, camera_counts=101, herald_counts=3, coincidence_counts=1)


# ---------------------------------------------------------------------------
# the block-outcome table

BPB = 83  # bins per block at the default 1 us coherence time and 12 ns bins


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


@pytest.mark.parametrize("dark_cam, dark_her", [(0.0, 0.0), (0.01, 0.03)])
def test_bright_table_matches_rule_refined_twice_over(monkeypatch, dark_cam, dark_her):
    # x s = 50 for the camera: a cell's peak is far narrower than on a desk tile
    rules = []
    quadrature = bt._quadrature_table

    def spy(*args):
        rules.append(args[-2:])
        return quadrature(*args)

    monkeypatch.setattr(bt, "_quadrature_table", spy)
    args = (BPB, 50.0 / BPB, dark_cam, 20.0 / BPB, dark_her)
    table = rule_table(*args)
    panels, nodes = rules[-1]  # the rule the draw was taken from
    refined = quadrature(*args, panels, 4 * nodes)
    assert np.abs(table - refined).max() < 1e-12


def test_table_refinement_that_cannot_converge_raises(monkeypatch):
    # capped at the first refinement of the fewest panels, a bright tile fails
    monkeypatch.setattr(bt, "TABLE_NODE_CAP", bt.TABLE_MIN_PANELS * 2 * bt.TABLE_NODES)
    with pytest.raises(QuadratureUnresolved, match="residual"):
        rule_table(BPB, 50.0 / BPB, 0.0, 20.0 / BPB, 0.0)


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
        # the longest block: camera x s = 3.6, herald x s = 0.65
        (mc.THERMAL, 3.6 / 1024 / 0.6, 0.65 / 1024 / 0.6, 1e-4, 0.0, 1024 * 3000 + 100, 1024),
    ],
    ids=["desk", "dark", "coherent", "1024"],
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


# ---------------------------------------------------------------------------
# run_scan


def test_zero_camera_efficiency_gives_zero_counts():
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile())
    scan = small_scan(
        spatial.make_mask("white", 16, 12),
        camera_detector=mc.DetectorConfig(efficiency=0.0),
    )
    res = mc.run_scan(src, scan)
    assert res.grid("camera_counts").sum() == 0
    assert res.grid("coincidence_counts").sum() == 0


def test_dimension_mismatch_rejected():
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(16, 12))
    with pytest.raises(ConfigMismatch):
        mc.run_scan(src, small_scan(spatial.make_mask("white", 8, 8)))


def test_coherence_shorter_than_bin_rejected():
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(), coherence_time=1e-9)
    with pytest.raises(ConfigMismatch):
        mc.run_scan(src, small_scan(spatial.make_mask("white", 16, 12)))


def test_coherence_block_beyond_table_cap_rejected():
    det = mc.DetectorConfig()
    longest = mc.MAX_BINS_PER_BLOCK * det.bin_width
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(), coherence_time=longest)
    assert mc.bins_per_block(src, det) == mc.MAX_BINS_PER_BLOCK
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile(), coherence_time=longest + det.bin_width)
    with pytest.raises(ConfigMismatch, match="outcome table"):
        mc.bins_per_block(src, det)


def test_singles_rates_match_quadrature_oracle():
    prof = flat_profile()
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    scan = small_scan(spatial.make_mask("white", 16, 12), seed=101, dwell=0.0024)
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
    mask = spatial.make_mask("white", 4, 4)
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
    records = tuple(
        mc.SuperpixelRecord(0, col, n_bins, cam, 0, 0) for col, cam in enumerate(counts)
    )
    config = {"source.kind": kind, "derived.bins_per_block": str(bpb)}
    rates, sigmas = mc.ScanResult(records, 1, len(counts), config).camera_rate_map()
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
    records = (mc.SuperpixelRecord(0, 0, n_bins, n_bins, 0, 0),)
    config = {"source.kind": kind, "derived.bins_per_block": "83"}
    rates, sigmas = mc.ScanResult(records, 1, 1, config).camera_rate_map()
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
    mask = spatial.make_mask("vampire", 16, 12, contrast=0.3, region=region)
    bpb = mc.bins_per_block(src, mc.DetectorConfig())
    # tiles of many full blocks that end in a partial block
    long_bins = bpb * 70_000 + 17
    for kw in ({}, {"superpixel": 8, "dwell": 0.1, "bins_cap": long_bins}):
        results = [
            mc.run_scan(src, small_scan(mask, seed=77, threads=threads, **kw))
            for threads in (1, 4, 8)
        ]
        assert results[0].records == results[1].records == results[2].records
    assert results[0].records[0].n_bins == long_bins


def test_run_scan_builds_each_distinct_table_once(monkeypatch):
    # the criterion-8 desk scan: 192 tiles, of which 68 lie outside the beam
    # and 68 in its flat interior, need 14 distinct tables
    prof = spatial.make_profile("uniform_ellipse", 64, 48, rx=28, ry=20)
    region = spatial.rect_region(64, 48, 22, 17, 20, 14)
    contrast = spatial.contrast_for_herald_rate(prof, region, 1.0, 0.013)
    mask = spatial.make_mask("vampire", 64, 48, contrast, region)
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    calls = []
    build = bt.block_table
    monkeypatch.setattr(bt, "block_table", lambda *key: calls.append(key) or build(*key))
    results = []
    for threads in (1, 4):
        calls.clear()
        scan = small_scan(mask, seed=801, dwell=0.096, bins_cap=8 * 10**6, threads=threads)
        results.append(mc.run_scan(src, scan))
        assert len(results[-1].records) == 192
        assert len(calls) == len(set(calls)) == 14
    # the same totals as drawing tile by tile, in index order, each tile
    # from a rule of its own
    derived = mc.derived_settings(src, scan)
    power = (mask.transmission * prof.amplitude) ** 2
    _, _, tiles = mc.superpixel_tiles(48, 64, 4)
    reference = []
    for index, (row, col, ys, xs) in enumerate(tiles):
        args = (float(power[ys, xs].sum()), derived["r_eff2"], src, scan.camera_detector,
                scan.herald_detector, derived["n_bins"], derived["bins_per_block"])
        rule = mc._block_rule(mc._table_key(*args))
        counts = mc._simulate_tile(scan.seed, index, *args, rule)
        reference.append(mc.SuperpixelRecord(row, col, derived["n_bins"], *counts))
    assert len(calls) == 14 + 192
    assert results[0].records == results[1].records == tuple(reference)


def test_scan_with_a_table_per_tile_holds_at_most_threads_tables():
    # blocks of 1024 bins on an off-centre gaussian: each of the 12 tiles
    # needs its own 8.4 MB table.  A thread holds about four tables at most
    # (two rules of its table and their difference while it checks them; a
    # tile's draw holds none), so a scan stays under five tables a thread,
    # where keeping every table would hold twelve
    det = mc.DetectorConfig()
    prof = spatial.make_profile("gaussian", 8, 6, cx=2.4, cy=2.4)
    src = mc.SourceConfig(
        nbar=0.01, profile=prof, coherence_time=mc.MAX_BINS_PER_BLOCK * det.bin_width
    )
    threads = 2
    scan = small_scan(spatial.make_mask("white", 8, 6), seed=3, superpixel=2, dwell=1e-4,
                      trigger_mode=mc.SINGLES, threads=threads)
    table_bytes = (mc.MAX_BINS_PER_BLOCK + 1) ** 2 * 8
    power = prof.power()
    _, _, tiles = mc.superpixel_tiles(6, 8, 2)
    assert len({float(power[ys, xs].sum()) for _, _, ys, xs in tiles}) == len(tiles) == 12
    tracemalloc.start()
    try:
        res = mc.run_scan(src, scan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.grid("camera_counts").sum() > 0
    assert peak < 5 * threads * table_bytes < len(tiles) * table_bytes

def test_conditional_ratio_is_two_for_thermal(tmp_path):
    prof = flat_profile()
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    region = np.ones((12, 16), dtype=bool)
    mask = spatial.make_mask("vampire", 16, 12, contrast=0.1, region=region)
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
    mask = spatial.make_mask("vampire", 16, 12, contrast=0.1, region=region)
    res = mc.run_scan(src, small_scan(mask, seed=6, dwell=0.012, bins_cap=10**6))
    maps = mc.conditional_profile_mc(res)
    ratio = maps.conditional.values / maps.unconditional.values
    assert np.abs(ratio.mean() - 1.0) < 0.05


def test_whole_beam_g2_estimate():
    # one superpixel covering the full beam: plain intensity correlation
    prof = flat_profile(8, 8)
    src = mc.SourceConfig(nbar=0.15, profile=prof)
    region = np.ones((8, 8), dtype=bool)
    mask = spatial.make_mask("vampire", 8, 8, contrast=0.25, region=region)
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
    res = mc.run_scan(src, small_scan(spatial.make_mask("white", 16, 12)))
    with pytest.raises(NoHeralds):
        mc.conditional_profile_mc(res)


def test_conditional_profile_requires_coincidence_mode():
    prof = flat_profile()
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    region = np.ones((12, 16), dtype=bool)
    mask = spatial.make_mask("vampire", 16, 12, contrast=0.3, region=region)
    res = mc.run_scan(src, small_scan(mask, trigger_mode=mc.SINGLES))
    with pytest.raises(ConfigMismatch):
        mc.conditional_profile_mc(res)


def test_run_scan_echoes_only_what_analysis_reads():
    src = mc.SourceConfig(nbar=1.0, profile=flat_profile())
    scan = small_scan(spatial.make_mask("white", 16, 12))
    res = mc.run_scan(src, scan)
    derived = {f"derived.{name}" for name in mc.derived_settings(src, scan)}
    assert set(res.config) == set(mc.SIDECAR_DEFAULTS) | derived


# ---------------------------------------------------------------------------
# serialization


def test_scan_csv_roundtrip(tmp_path):
    prof = flat_profile()
    src = mc.SourceConfig(nbar=1.0, profile=prof)
    region = spatial.rect_region(16, 12, 4, 4, 6, 4)
    mask = spatial.make_mask("vampire", 16, 12, contrast=0.3, region=region)
    res = mc.run_scan(src, small_scan(mask, seed=3))
    path = tmp_path / "scan.csv"
    mc.save_scan_csv(path, res)
    with open(path) as fh:
        assert fh.readline().strip() == mc.SCAN_CSV_HEADER
    back = mc.load_scan_csv(path, config=res.config)
    assert back.records == res.records
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


def test_sidecar_rejects_line_without_equals(tmp_path):
    path = tmp_path / "scan.cfg"
    path.write_text("scan.seed=42\nsource.nbar 1.0\n")
    with pytest.raises(ConfigMismatch, match="line 2"):
        mc.load_sidecar(path)
