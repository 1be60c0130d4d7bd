"""Stochastic simulation of the heralded single-pixel imaging apparatus.

The thermal beam is modeled semiclassically: the field is a circular
Gaussian amplitude held constant for the bins of one coherence block, so
the block intensity |alpha|^2 is exponential, which gives the right
bunching statistics.  Each 12 ns bin the herald detector sees the power
tapped off by the mask and the camera detector sees the power transmitted
into the currently open superpixel; on/off clicks are independent given
the field, and same-bin herald+camera clicks feed the coincidence counter.

Every superpixel owns a counter-based Philox substream keyed by
(seed, superpixel index), so results are bit-identical no matter how the
raster is scheduled or parallelized.  A tile outputs three totals, and
its full coherence blocks are i.i.d., so it is drawn from a table of
block outcomes rather than block by block:

- Given the field, a block's camera and herald click counts c and h are
  independent binomials.  Their joint pmf P(c, h) over the exponential
  block intensity is a quadrature (``qvampire.blocktable``) whose own
  refinement must agree with it to 1e-12 per cell.
- One multinomial over the (s+1)^2 cells counts the full blocks of each
  outcome (Devroye, Non-Uniform Random Variate Generation, 1986, ch. III).
- Each detector's clicked bins form a uniformly random subset of the
  block, so the bins clicked by both are hypergeometric given (c, h); the
  blocks of one cell add up their overlaps through one multinomial over
  that hypergeometric pmf.
- The final partial block is drawn on its own.

A coherent tile has one click probability per detector, so it is a single
multinomial of its bins over the four joint outcomes.  Either way a
tile's time and memory do not grow with the dwell, and every draw is
distribution-exact up to the table's quadrature error.

A table depends on the tile only through the camera weight, and a raster
scan has few distinct weights (every tile outside the beam, or inside a
flat one, has the same), so a scan builds one table per distinct camera
weight.  Its tiles are grouped by table; each group is one pool task that
builds the table, draws every tile of the group from it with the tile's
own key, and drops it, so at most ``threads`` tables are alive at once.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import ConfigMismatch, NoHeralds
from .spatial import BeamProfile, MaskSpec, reduce, save_csv

THERMAL = "thermal"
COHERENT = "coherent"
SINGLES = "singles"
COINCIDENCE = "coincidence"

SCAN_CSV_HEADER = "row,col,n_bins,camera_counts,herald_counts,coincidence_counts"

# a tile's block-outcome table holds (s+1)^2 cells: 8.4 MB at the largest block
MAX_BINS_PER_BLOCK = 1024

# what a scan is analyzed with when its sidecar lacks the key
SIDECAR_DEFAULTS = {
    "derived.bins_per_block": "1",
    "source.kind": THERMAL,
    "scan.trigger_mode": COINCIDENCE,
}


@dataclass(frozen=True)
class DetectorConfig:
    """On/off single-photon detector with a fixed time-bin clock."""

    efficiency: float = 0.6
    dark_prob: float = 0.0
    bin_width: float = 12e-9

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigMismatch("efficiency must lie in [0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ConfigMismatch("dark_prob must lie in [0, 1)")
        if self.bin_width <= 0.0:
            raise ConfigMismatch("bin_width must be positive")


@dataclass(frozen=True)
class SourceConfig:
    """Single-spatial-mode source feeding the mask plane."""

    nbar: float
    profile: BeamProfile
    coherence_time: float = 1e-6
    kind: str = THERMAL

    def __post_init__(self):
        if self.nbar < 0:
            raise ConfigMismatch("nbar must be non-negative")
        if self.coherence_time <= 0:
            raise ConfigMismatch("coherence_time must be positive")
        if self.kind not in (THERMAL, COHERENT):
            raise ConfigMismatch(f"unknown source kind {self.kind!r}")


@dataclass(frozen=True)
class ScanConfig:
    """Raster-scan schedule, mask, trigger mode, and RNG seed."""

    mask: MaskSpec
    seed: int
    superpixel: int = 11
    dwell: float = 0.010
    bins_cap: int = 1_000_000
    trigger_mode: str = COINCIDENCE
    herald_detector: DetectorConfig = field(default_factory=DetectorConfig)
    camera_detector: DetectorConfig = field(default_factory=DetectorConfig)
    threads: int = 1

    def __post_init__(self):
        if self.superpixel < 1:
            raise ConfigMismatch("superpixel side must be at least 1")
        if self.trigger_mode not in (SINGLES, COINCIDENCE):
            raise ConfigMismatch(f"unknown trigger mode {self.trigger_mode!r}")
        if self.herald_detector.bin_width != self.camera_detector.bin_width:
            raise ConfigMismatch("detectors must share one time-bin width")
        if self.dwell < self.herald_detector.bin_width:
            raise ConfigMismatch("dwell must cover at least one time bin")
        if self.bins_cap < 1 or self.threads < 1:
            raise ConfigMismatch("bins_cap and threads must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigMismatch("seed must fit in 64 bits")

    @property
    def bin_width(self) -> float:
        return self.herald_detector.bin_width


@dataclass(frozen=True)
class SuperpixelRecord:
    """Counts accumulated while one superpixel was open."""

    row: int
    col: int
    n_bins: int
    camera_counts: int
    herald_counts: int
    coincidence_counts: int

    def __post_init__(self):
        if self.coincidence_counts > min(self.camera_counts, self.herald_counts):
            raise ConfigMismatch("coincidences exceed a singles counter")
        if max(self.camera_counts, self.herald_counts) > self.n_bins:
            raise ConfigMismatch("counts exceed the number of bins")


@dataclass(frozen=True)
class ScanResult:
    """Per-superpixel counts plus the flat config keys analysis reads them with."""

    records: tuple[SuperpixelRecord, ...]
    n_rows: int
    n_cols: int
    config: dict

    def grid(self, name: str) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        for rec in self.records:
            out[rec.row, rec.col] = getattr(rec, name)
        return out

    def setting(self, key: str) -> str:
        """A sidecar value, or its ``SIDECAR_DEFAULTS`` entry when the sidecar lacks it."""
        return self.config.get(key, SIDECAR_DEFAULTS[key])

    def camera_rate_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Unconditional camera rate per bin with its standard error: the singles
        count variance of ``expected_singles_counts`` at the measured rate, taken
        as the dark-free click mean (exact for dark_prob = 0)."""
        counts = self.grid("camera_counts").astype(float)
        n_bins = self.grid("n_bins").astype(float)
        rates = np.divide(counts, n_bins, out=np.zeros_like(counts), where=n_bins > 0)
        _, p_sq = _click_moments(rates, 0.0, self.setting("source.kind"))
        bpb = int(self.setting("derived.bins_per_block"))
        sigmas = np.sqrt(np.clip(_count_variance(n_bins, bpb, rates, p_sq), 1.0, None))
        sigmas = np.divide(sigmas, n_bins, out=np.full_like(counts, np.inf), where=n_bins > 0)
        return rates, sigmas


@dataclass(frozen=True)
class RateMap:
    """A per-superpixel rate map with one-sigma errors."""

    values: np.ndarray
    sigmas: np.ndarray


@dataclass(frozen=True)
class ConditionalProfile:
    """Heralded and unconditional camera rates from one coincidence scan."""

    conditional: RateMap
    unconditional: RateMap


# ---------------------------------------------------------------------------
# elementary pieces


def click_probability(intensity, det: DetectorConfig):
    """On/off click probability for a mean photon number per bin."""
    return det.dark_prob + (1.0 - det.dark_prob) * -np.expm1(
        -det.efficiency * np.asarray(intensity, dtype=float)
    )


def _click_moments(q, dark, kind: str):
    """E[p] and E[p^2] over the field of the click probability p = dark + keep * Q,
    keep = 1 - dark, where Q = 1 - exp(-x u) is the dark-free click probability
    at x detected photons per bin and block intensity u, and q = E[Q].

    A coherent field holds u = 1, so E[Q^2] = q^2.  A thermal one has u ~ Exp(1);
    with E[exp(-a u)] = 1 / (1 + a), q = x / (1 + x) and
    E[Q^2] = 2 x^2 / ((1 + x)(1 + 2 x)) = 2 q^2 / (1 + q).  Every term is
    non-negative, so neither moment cancels at small q.
    """
    keep = 1.0 - dark
    q_sq = 2.0 * q * q / (1.0 + q) if kind == THERMAL else q * q
    p_mean = dark + keep * q
    p_sq = dark * dark + 2.0 * keep * dark * q + keep * keep * q_sq
    return p_mean, p_sq


def _sum_block_squares(n_bins, bins_per_block: int):
    """Sum of squared block sizes when n_bins bins tile into blocks."""
    n_bins = np.asarray(n_bins, dtype=float)
    full = np.floor(n_bins / bins_per_block)
    rem = n_bins - full * bins_per_block
    return full * bins_per_block**2 + rem**2


def _count_variance(n_bins, bins_per_block: int, p_mean, p_sq):
    """Variance of a singles counter over n_bins bins whose click probability
    has field moments E[p] = p_mean, E[p^2] = p_sq: per-bin shot noise plus
    sum(block size^2) * Var p from the bins of one coherence block."""
    var_p = np.clip(p_sq - p_mean**2, 0.0, None)
    return n_bins * (p_mean - p_sq) + _sum_block_squares(n_bins, bins_per_block) * var_p


def expected_singles_counts(
    coupling: float, src: SourceConfig, det: DetectorConfig, n_bins: int
):
    """Analytic mean and standard deviation of a singles counter.

    The variance carries both per-bin shot noise and the excess from
    thermal intensity fluctuations shared by bins of one coherence block.
    """
    x = det.efficiency * coupling * src.nbar
    q = -math.expm1(-x) if src.kind == COHERENT else x / (1.0 + x)
    p_mean, p_sq = _click_moments(q, det.dark_prob, src.kind)
    var = float(_count_variance(n_bins, bins_per_block(src, det), p_mean, p_sq))
    return n_bins * p_mean, math.sqrt(max(var, 0.0))


def bins_per_block(src: SourceConfig, det: DetectorConfig) -> int:
    """Bins per coherence block: at least one, at most ``MAX_BINS_PER_BLOCK``."""
    if src.coherence_time < det.bin_width:
        raise ConfigMismatch("coherence time must be at least one bin")
    bpb = int(src.coherence_time / det.bin_width + 1e-9)
    if bpb > MAX_BINS_PER_BLOCK:
        raise ConfigMismatch(
            f"a coherence block of {bpb} bins exceeds {MAX_BINS_PER_BLOCK}: "
            f"its outcome table would hold {(bpb + 1) ** 2} cells"
        )
    return bpb


def superpixel_tiles(height: int, width: int, superpixel: int):
    """Row-major (row, col, yslice, xslice) tiles; edge tiles may be partial."""
    n_rows = -(-height // superpixel)
    n_cols = -(-width // superpixel)
    tiles = []
    for row in range(n_rows):
        for col in range(n_cols):
            tiles.append(
                (
                    row,
                    col,
                    slice(row * superpixel, min((row + 1) * superpixel, height)),
                    slice(col * superpixel, min((col + 1) * superpixel, width)),
                )
            )
    return n_rows, n_cols, tiles


def derived_settings(src: SourceConfig, scan: ScanConfig) -> dict:
    """What a scan computes from its config; its sidecar echoes each as ``derived.<name>``."""
    profile, mask = src.profile, scan.mask
    if profile.amplitude.shape != mask.transmission.shape:
        raise ConfigMismatch("profile and mask grids differ")
    n_rows, n_cols, _ = superpixel_tiles(profile.height, profile.width, scan.superpixel)
    return {
        # at least one bin: ScanConfig holds the dwell to one bin and bins_cap to 1
        "n_bins": min(int(scan.dwell / scan.bin_width + 1e-9), scan.bins_cap),
        "bins_per_block": bins_per_block(src, scan.herald_detector),
        "r_eff2": reduce(profile, mask).r_eff ** 2,
        "n_rows": n_rows,
        "n_cols": n_cols,
    }


# ---------------------------------------------------------------------------
# the scan itself


def _table_key(
    w_cam: float,
    w_her: float,
    src: SourceConfig,
    det_cam: DetectorConfig,
    det_her: DetectorConfig,
    n_bins: int,
    bpb: int,
):
    """The arguments of a tile's block table, or None when the tile draws no
    table (a coherent tile, or one without a full block)."""
    if src.kind == COHERENT or n_bins < bpb:
        return None
    return (
        bpb,
        det_cam.efficiency * w_cam * src.nbar,
        det_cam.dark_prob,
        det_her.efficiency * w_her * src.nbar,
        det_her.dark_prob,
    )


def _block_pmf(key):
    """The normalized block table of a ``_table_key``, or None for a None key."""
    if key is None:
        return None
    # loaded at a scan's first table, so commands that do not scan skip it
    from .blocktable import block_table

    table = block_table(*key)
    # normalized, so no rounding remainder falls to the last cell
    table /= table.sum()
    return table


def _simulate_tile(
    seed: int,
    index: int,
    w_cam: float,
    w_her: float,
    src: SourceConfig,
    det_cam: DetectorConfig,
    det_her: DetectorConfig,
    n_bins: int,
    bpb: int,
    pmf: np.ndarray | None,
):
    """One tile's (camera, herald, coincidence) totals from its Philox key
    (seed, index); ``pmf`` is ``_block_pmf`` of the tile's ``_table_key``."""
    gen = np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    )
    if src.kind == COHERENT:
        p_cam = float(click_probability(w_cam * src.nbar, det_cam))
        p_her = float(click_probability(w_her * src.nbar, det_her))
        # every bin clicks both detectors, the camera only, the herald only or neither
        both, cam_only, her_only, _ = gen.multinomial(
            n_bins,
            [p_cam * p_her, p_cam * (1 - p_her), (1 - p_cam) * p_her, (1 - p_cam) * (1 - p_her)],
        )
        return int(both + cam_only), int(both + her_only), int(both)
    n_full, rest = divmod(n_bins, bpb)
    cam = her = both = 0
    if n_full:
        from .blocktable import summed_overlaps

        counts = gen.multinomial(n_full, pmf.ravel()).reshape(pmf.shape)
        c, h = np.nonzero(counts)
        blocks = counts[c, h]
        cam, her = int(blocks @ c), int(blocks @ h)
        overlap = (c > 0) & (h > 0)
        if overlap.any():
            both = summed_overlaps(gen, bpb, c[overlap], h[overlap], blocks[overlap])
    if rest:
        intensity = src.nbar * gen.standard_exponential()
        c_last = int(gen.binomial(rest, click_probability(w_cam * intensity, det_cam)))
        h_last = int(gen.binomial(rest, click_probability(w_her * intensity, det_her)))
        cam, her = cam + c_last, her + h_last
        if c_last and h_last:
            both += int(gen.hypergeometric(c_last, rest - c_last, h_last))
    return cam, her, both


def run_scan(src: SourceConfig, scan: ScanConfig) -> ScanResult:
    """Raster-scan the camera superpixel over the masked beam.

    Deterministic for a fixed (seed, config) at any thread count: each
    superpixel draws from its own keyed Philox substream.  Tiles that share
    a block table (in a scan only the camera weight varies) form one pool
    task, which builds the table once and draws each of its tiles; the
    largest groups go first, and at most ``scan.threads`` tables are alive.
    """
    profile = src.profile
    derived = derived_settings(src, scan)
    n_bins, bpb = derived["n_bins"], derived["bins_per_block"]
    transmitted_power = (scan.mask.transmission * profile.amplitude) ** 2
    _, _, tiles = superpixel_tiles(profile.height, profile.width, scan.superpixel)
    common = (derived["r_eff2"], src, scan.camera_detector, scan.herald_detector, n_bins, bpb)
    tile_args = [(float(transmitted_power[ys, xs].sum()), *common) for _, _, ys, xs in tiles]
    groups: dict = {}
    for index, args in enumerate(tile_args):
        groups.setdefault(_table_key(*args), []).append(index)

    def work(group):
        key, indices = group
        # the table lives only while its group is drawn
        pmf = _block_pmf(key)
        return {i: _simulate_tile(scan.seed, i, *tile_args[i], pmf) for i in indices}

    totals = {}
    with ThreadPoolExecutor(max_workers=scan.threads) as pool:
        largest_first = sorted(groups.items(), key=lambda group: -len(group[1]))
        for drawn in pool.map(work, largest_first):
            totals.update(drawn)
    records = tuple(
        SuperpixelRecord(row, col, n_bins, *totals[index])
        for index, (row, col, _, _) in enumerate(tiles)
    )

    # what analysis reads back; build_scenario's echo holds the rest of the config
    echo = {
        "source.kind": src.kind,
        "scan.trigger_mode": scan.trigger_mode,
        **{f"derived.{name}": str(value) for name, value in derived.items()},
    }
    return ScanResult(
        records=records, n_rows=derived["n_rows"], n_cols=derived["n_cols"], config=echo
    )


def conditional_profile_mc(result: ScanResult) -> ConditionalProfile:
    """Heralded camera rate (coincidences per herald) next to the singles rate."""
    mode = result.setting("scan.trigger_mode")
    if mode != COINCIDENCE:
        raise ConfigMismatch("conditional profile needs a coincidence-mode scan")
    heralds = result.grid("herald_counts").astype(float)
    if (heralds <= 0).any():
        raise NoHeralds("a superpixel recorded zero herald counts")
    both = result.grid("coincidence_counts").astype(float)
    p_cond = both / heralds
    # each herald is one Bernoulli trial of a coincidence: no block term
    var = np.clip(_count_variance(heralds, 1, p_cond, p_cond**2), 1.0, None)
    cond = RateMap(values=p_cond, sigmas=np.sqrt(var) / heralds)
    rates, sigmas = result.camera_rate_map()
    return ConditionalProfile(
        conditional=cond, unconditional=RateMap(values=rates, sigmas=sigmas)
    )


# ---------------------------------------------------------------------------
# serialization


def save_scan_csv(path, result: ScanResult) -> None:
    # the header names SuperpixelRecord's fields in order
    save_csv(path, SCAN_CSV_HEADER, (astuple(rec) for rec in result.records))


def load_scan_csv(path, config: dict | None = None) -> ScanResult:
    """Read a scan CSV; every superpixel of the grid must appear exactly once."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != SCAN_CSV_HEADER:
            raise ConfigMismatch(f"unexpected scan CSV header: {header!r}")
        records = []
        seen = set()
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row, col, n_bins, cam, her, both = (int(tok) for tok in line.split(","))
            if (row, col) in seen:
                raise ConfigMismatch(f"{path}: superpixel ({row}, {col}) appears twice")
            seen.add((row, col))
            records.append(
                SuperpixelRecord(
                    row=row,
                    col=col,
                    n_bins=n_bins,
                    camera_counts=cam,
                    herald_counts=her,
                    coincidence_counts=both,
                )
            )
    if not records:
        raise ConfigMismatch(f"{path}: no superpixel rows")
    config = dict(config or {})
    n_rows = int(config.get("derived.n_rows", max(r.row for r in records) + 1))
    n_cols = int(config.get("derived.n_cols", max(r.col for r in records) + 1))
    if any(not (0 <= r < n_rows and 0 <= c < n_cols) for r, c in seen):
        raise ConfigMismatch(f"{path}: superpixel outside the {n_rows}x{n_cols} grid")
    if len(seen) != n_rows * n_cols:
        raise ConfigMismatch(f"{path}: {n_rows * n_cols - len(seen)} superpixels missing")
    return ScanResult(records=tuple(records), n_rows=n_rows, n_cols=n_cols, config=config)


def save_sidecar(path, config: dict) -> None:
    """Flat key=value config echo; rereading it reproduces the run."""
    with open(path, "w", encoding="ascii") as fh:
        for key in sorted(config):
            fh.write(f"{key}={config[key]}\n")


def load_sidecar(path) -> dict:
    """Read ``key=value`` lines (configs and sidecars); '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigMismatch(
                    f"{path}: line {lineno}: expected key=value, got {line!r}"
                )
            out[key.strip()] = value.strip()
    return out
