"""Stochastic simulation of the heralded single-pixel imaging apparatus.

The thermal beam is modeled semiclassically: the field is a circular
Gaussian amplitude held constant for the bins of one coherence block, so
the block intensity |alpha|^2 is exponential, which gives the right
bunching statistics.  Each 12 ns bin the herald detector sees the power
tapped off by the mask and the camera detector sees the power transmitted
into the currently open superpixel; on/off clicks are independent given
the field, and same-bin herald+camera clicks feed the coincidence counter.

A scan draws its tiles row-major from one Philox stream keyed by the
seed, on the calling thread, a chunk of tiles at a time, so a tile's counts
depend on the tiles drawn before it; ``scan.threads`` is accepted and
echoed but draws nothing in parallel, and ROADMAP item 2 removes it.  A
tile's three totals are its cell of the scan's count grids; its full
coherence blocks are i.i.d., so it is drawn as a mixture rather than block
by block (Devroye, Non-Uniform Random Variate Generation, 1986, ch. III):

- A block's intensity is drawn from a quadrature rule (``qvampire.blocktable``)
  whose node count an a-priori error bound certifies to 1e-12 in every
  cell of the block's joint click table: node u_i with probability w_i.
  One multinomial counts each tile's full blocks at each node.
- Given the field every bin clicks each detector independently, so the
  m s bins of the m blocks at one node are one multinomial over the four
  joint outcomes (both, camera only, herald only, neither).  The final
  partial block is one more row at an Exp(1) intensity, and the rows of
  all a chunk's tiles are one vectorized multinomial, in which a node no
  full block fell on draws nothing.

A coherent tile has one intensity, so its law is one block of all its bins
at u = 1 with weight 1, drawn by the same two multinomials.  Either way a
tile's time and memory do not grow with the dwell, and every draw is
distribution-exact up to the rule's quadrature error.  A rule depends on
the tile only through the camera weight, so a scan takes the rules of all
its distinct camera weights in one call, and computes each weight's
outcome rows at the rule's nodes once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .csvio import save_csv
from .errors import ConfigMismatch, QVampireError
from .spatial import BeamProfile, MaskSpec, reduce

THERMAL = "thermal"
COHERENT = "coherent"

# what a scan is analyzed with when its sidecar lacks the key
SIDECAR_DEFAULTS = {
    "derived.bins_per_block": "1",
    "source.kind": THERMAL,
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
        if not 0.0 < self.bin_width < math.inf:
            raise ConfigMismatch(f"bin_width must be positive and finite, got {self.bin_width!r}")


@dataclass(frozen=True)
class SourceConfig:
    """Single-spatial-mode source feeding the mask plane."""

    nbar: float
    profile: BeamProfile
    coherence_time: float = 1e-6
    kind: str = THERMAL

    def __post_init__(self):
        if not 0.0 <= self.nbar < math.inf:
            raise ConfigMismatch(f"nbar must be non-negative and finite, got {self.nbar!r}")
        if not 0.0 < self.coherence_time < math.inf:
            raise ConfigMismatch(
                f"coherence_time must be positive and finite, got {self.coherence_time!r}"
            )
        if self.kind not in (THERMAL, COHERENT):
            raise ConfigMismatch(f"unknown source kind {self.kind!r}")


@dataclass(frozen=True)
class ScanConfig:
    """Raster-scan schedule, mask, and RNG seed."""

    mask: MaskSpec
    seed: int
    superpixel: int = 11
    dwell: float = 0.010
    bins_cap: int = 1_000_000  # checked and echoed; a scan draws the dwell's whole bins
    herald_detector: DetectorConfig = field(default_factory=DetectorConfig)
    camera_detector: DetectorConfig = field(default_factory=DetectorConfig)
    threads: int = 1  # checked and echoed; a scan draws on the calling thread

    def __post_init__(self):
        if self.superpixel < 1:
            raise ConfigMismatch("superpixel side must be at least 1")
        if self.herald_detector.bin_width != self.camera_detector.bin_width:
            raise ConfigMismatch("detectors must share one time-bin width")
        # the whole bins derived_settings takes; a subnormal bin_width gives inf
        if not 1.0 <= self.dwell / self.bin_width + 1e-9 < 2**63:
            raise ConfigMismatch(f"dwell must be at least one bin_width and hold fewer than "
                                 f"2**63 bins, got {self.dwell!r}")
        if self.bins_cap < 1 or self.threads < 1:
            raise ConfigMismatch("bins_cap and threads must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigMismatch("seed must fit in 64 bits")

    @property
    def bin_width(self) -> float:
        return self.herald_detector.bin_width


class SuperpixelRecord(NamedTuple):
    """One superpixel's counts, as a scan CSV row; its fields are the CSV's columns."""

    row: int
    col: int
    n_bins: int
    camera_counts: int
    herald_counts: int
    coincidence_counts: int


SCAN_CSV_HEADER = ",".join(SuperpixelRecord._fields)
# the count grids of a ScanResult, in the scan CSV's column order
COUNTS = SuperpixelRecord._fields[2:]


class RateMap(NamedTuple):
    """A per-superpixel rate map with one-sigma errors."""

    values: np.ndarray
    sigmas: np.ndarray


@dataclass(frozen=True)
class ScanResult:
    """Per-superpixel counts as four read-only int64 (n_rows, n_cols) grids, plus
    the flat config keys analysis reads them with."""

    n_bins: np.ndarray
    camera_counts: np.ndarray
    herald_counts: np.ndarray
    coincidence_counts: np.ndarray
    config: dict

    n_rows = property(lambda self: self.n_bins.shape[0])
    n_cols = property(lambda self: self.n_bins.shape[1])

    def __post_init__(self):
        for name in COUNTS:  # an int64 copy that nothing can write
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=np.int64))
            getattr(self, name).setflags(write=False)

    def grid(self, name: str) -> np.ndarray:
        """The stored grid of one of ``COUNTS``."""
        return getattr(self, name)

    @property
    def records(self) -> tuple[SuperpixelRecord, ...]:
        """The grids as scan CSV rows, row-major."""
        columns = (*np.indices(self.n_bins.shape), *(getattr(self, name) for name in COUNTS))
        return tuple(map(SuperpixelRecord._make, zip(*(c.ravel().tolist() for c in columns))))

    def setting(self, key: str):
        """A sidecar value read by ``config.read_value``, or its ``SIDECAR_DEFAULTS``
        entry when the sidecar lacks it; ``ConfigMismatch`` names the key."""
        from .config import read_value  # config imports this module
        return read_value(key, self.config.get(key, SIDECAR_DEFAULTS[key]))

    def camera_rate_map(self) -> RateMap:
        """Unconditional camera rate per bin with its standard error: the singles
        count variance of ``expected_singles_counts`` at the measured rate, taken
        as the dark-free click mean (exact for dark_prob = 0)."""
        counts = self.grid("camera_counts").astype(float)
        n_bins = self.grid("n_bins").astype(float)
        rates = np.divide(counts, n_bins, out=np.zeros_like(counts), where=n_bins > 0)
        kind, bpb = self.setting("source.kind"), self.setting("derived.bins_per_block")
        _, p_sq = _click_moments(rates, 0.0, kind)
        sigmas = np.sqrt(np.clip(_count_variance(n_bins, bpb, rates, p_sq), 1.0, None))
        sigmas = np.divide(sigmas, n_bins, out=np.full_like(counts, np.inf), where=n_bins > 0)
        return RateMap(rates, sigmas)


class ConditionalProfile(NamedTuple):
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
    """Bins per coherence block, at least one: a thermal tile's rule is certified
    at any block length."""
    if src.coherence_time < det.bin_width:
        raise ConfigMismatch("coherence_time must be at least one bin_width")
    # capped before int(): a subnormal bin_width sends the ratio to inf
    return int(min(src.coherence_time / det.bin_width + 1e-9, 2**63 - 1))


def _grid_shape(height: int, width: int, superpixel: int) -> tuple[int, int]:
    """Rows and columns of the superpixels tiling a grid; edge tiles may be partial."""
    return -(-height // superpixel), -(-width // superpixel)


def superpixel_tiles(height: int, width: int, superpixel: int):
    """Row-major (row, col, yslice, xslice) tiles; edge tiles may be partial."""
    n_rows, n_cols = _grid_shape(height, width, superpixel)
    tiles = [(row, col, slice(row * superpixel, min((row + 1) * superpixel, height)),
              slice(col * superpixel, min((col + 1) * superpixel, width)))
             for row in range(n_rows) for col in range(n_cols)]
    return n_rows, n_cols, tiles


def derived_settings(src: SourceConfig, scan: ScanConfig) -> dict:
    """What a scan computes from its config; its sidecar echoes each as ``derived.<name>``."""
    profile, mask = src.profile, scan.mask
    n_rows, n_cols = _grid_shape(profile.height, profile.width, scan.superpixel)
    return {
        # the dwell's whole bins: ScanConfig holds them to [1, 2**63)
        "n_bins": int(scan.dwell / scan.bin_width + 1e-9),
        "bins_per_block": bins_per_block(src, scan.herald_detector),
        "r_eff2": reduce(profile, mask).r_eff ** 2,
        "n_rows": n_rows,
        "n_cols": n_cols,
    }


# ---------------------------------------------------------------------------
# the scan itself


# tile-node pairs a chunk of tiles draws at once: its outcome rows and counts
# hold 64 bytes a pair, so a chunk holds about 130 kB of them
_CHUNK_NODES = 1 << 11


def _outcome_rows(w_cam, w_her, src, det_cam, det_her, u):
    """A row per block intensity of ``u``, at the camera weights ``w_cam`` (one,
    or broadcast against ``u``): the probabilities that a bin clicks both
    detectors, the camera only, the herald only or neither."""
    intensity = src.nbar * u
    p_cam = click_probability(w_cam * intensity, det_cam)
    p_her = click_probability(w_her * intensity, det_her)
    return np.stack([p_cam * p_her, p_cam * (1 - p_her), (1 - p_cam) * p_her,
                     (1 - p_cam) * (1 - p_her)], axis=-1)


class _TileLaws(NamedTuple):
    """What the tiles of a scan draw from, a row per distinct camera weight.
    numpy's multinomial draws no number for a category of probability 0 and
    gives the last one what the others leave, so each rule is padded before
    its first node with nodes of weight 0: a row draws what its rule would."""

    full_blocks: int  # full coherence blocks a tile holds
    block: int  # bins of a full block
    weights: np.ndarray  # of each certified rule, padded to the longest
    rows: np.ndarray  # ``_outcome_rows`` at each rule's nodes, padded at u = 0
    rest: int  # bins of the partial block, drawn at an Exp(1) intensity
    clicks: tuple  # ``_outcome_rows``' arguments between the camera weight and the intensity


def _tile_laws(w_cams, w_her, src, det_cam, det_her, n_bins, bpb):
    """The ``_TileLaws`` of tiles of ``n_bins`` bins at each camera weight of
    ``w_cams``.  A coherent tile is one block of all its bins at u = 1 with
    weight 1, and a thermal tile shorter than a block has no full block, so
    it takes no rule."""
    block = n_bins if src.kind == COHERENT else bpb
    if src.kind == COHERENT or n_bins < bpb:
        rules = [(np.ones(1), np.ones(1))] * len(w_cams)
    else:
        # loaded at a scan's first rule, so commands that do not scan skip it
        from .blocktable import block_rules

        x_cams = [det_cam.efficiency * w_cam * src.nbar for w_cam in w_cams]
        x_her = det_her.efficiency * w_her * src.nbar
        rules = block_rules(bpb, x_cams, det_cam.dark_prob, x_her, det_her.dark_prob)
    clicks, nodes = (w_her, src, det_cam, det_her), max(len(u) for u, _ in rules)
    u, weights = np.zeros((2, len(rules), nodes))
    for i, (rule_u, rule_weights) in enumerate(rules):
        u[i, nodes - len(rule_u) :], weights[i, nodes - len(rule_u) :] = rule_u, rule_weights
    rows = _outcome_rows(np.array(w_cams)[:, None], *clicks, u)
    return _TileLaws(n_bins // block, block, weights, rows, n_bins % block, clicks)


def _draw_tiles(gen: np.random.Generator, laws: _TileLaws, w_cams, which):
    """The (camera, herald, coincidence) totals of a chunk of tiles, a column
    each, at camera weights ``w_cams`` and rows ``which`` of ``laws``.  One
    multinomial counts each tile's full blocks at each node, and one over
    (tile, node, outcome) splits the bins of the blocks at each node and of the
    partial block, at an Exp(1) intensity.  numpy's multinomial draws no number
    for a row of no trials or of one category: a node no block fell on, a
    coherent tile's one block and a tile with no full block draw none."""
    bins = laws.block * gen.multinomial(laws.full_blocks, laws.weights[which])
    rows = laws.rows[which]
    if laws.rest:
        u = gen.standard_exponential(len(which))
        bins = np.column_stack((bins, np.full(len(which), laws.rest)))
        rows = np.concatenate((rows, _outcome_rows(w_cams, *laws.clicks, u)[:, None]), axis=1)
    both, cam_only, her_only, _ = gen.multinomial(bins, rows).sum(axis=1).T
    return np.stack((both + cam_only, both + her_only, both))


def run_scan(src: SourceConfig, scan: ScanConfig) -> ScanResult:
    """Raster-scan the camera superpixel over the masked beam.

    Deterministic for a fixed (seed, config).  In a scan only the camera
    weight varies, so the rules of all distinct weights are chosen in one
    call.  Then one Philox stream keyed by the seed draws the tiles row-major
    on the calling thread, in chunks of about ``_CHUNK_NODES`` tile-node
    pairs, so a tile's counts depend on the tiles drawn before it.
    ``scan.threads`` goes unread."""
    profile = src.profile
    derived = derived_settings(src, scan)
    n_bins, bpb = derived["n_bins"], derived["bins_per_block"]
    transmitted_power = (scan.mask.transmission * profile.amplitude) ** 2
    _, _, tiles = superpixel_tiles(profile.height, profile.width, scan.superpixel)
    w_cams = [float(transmitted_power[ys, xs].sum()) for _, _, ys, xs in tiles]
    index = {w_cam: i for i, w_cam in enumerate(dict.fromkeys(w_cams))}
    which, w_cams = np.array([index[w_cam] for w_cam in w_cams]), np.array(w_cams)
    dets = (scan.camera_detector, scan.herald_detector)
    laws = _tile_laws(list(index), derived["r_eff2"], src, *dets, n_bins, bpb)
    gen = np.random.Generator(np.random.Philox(key=scan.seed))
    chunk = max(1, _CHUNK_NODES // laws.weights.shape[1])
    # camera, herald and coincidence totals; row-major tiles index the flattened grid
    totals = np.concatenate([_draw_tiles(gen, laws, w_cams[lo : lo + chunk], which[lo : lo + chunk])
                             for lo in range(0, len(tiles), chunk)], axis=1)
    # what analysis reads back; build_scenario's echo holds the rest of the config
    echo = {"source.kind": src.kind, **{f"derived.{k}": str(v) for k, v in derived.items()}}
    shape = (derived["n_rows"], derived["n_cols"])
    return ScanResult(np.full(shape, n_bins), *totals.reshape(3, *shape), config=echo)


def conditional_profile_mc(result: ScanResult) -> ConditionalProfile:
    """Heralded camera rate (coincidences per herald) next to the singles rate."""
    heralds = result.grid("herald_counts").astype(float)
    empty = heralds <= 0
    if empty.any():
        raise QVampireError(f"{empty.sum()} of {empty.size} superpixels recorded zero herald "
                            "counts; a longer scan.dwell, a larger mask.herald_target or "
                            "mask.contrast, or a larger source.nbar raises the herald count")
    both = result.grid("coincidence_counts").astype(float)
    p_cond = both / heralds
    # each herald is one Bernoulli trial of a coincidence: no block term
    var = np.clip(_count_variance(heralds, 1, p_cond, p_cond**2), 1.0, None)
    cond = RateMap(values=p_cond, sigmas=np.sqrt(var) / heralds)
    return ConditionalProfile(conditional=cond, unconditional=result.camera_rate_map())


# ---------------------------------------------------------------------------
# serialization


def save_scan_csv(path, result: ScanResult) -> None:
    save_csv(path, SCAN_CSV_HEADER, result.records)


def _unreadable(line: str) -> str | None:
    """Why ``np.loadtxt`` cannot read a scan CSV line as six int64 fields: its field
    count, a field that is no integer, or one outside int64; None if it can."""
    fields, tokens = SuperpixelRecord._fields, line.split(",")
    if len(tokens) != len(fields):
        return f"expected {len(fields)} fields ({SCAN_CSV_HEADER}), got {len(tokens)}"
    for name, tok in zip(fields, tokens):
        try:
            value = int(tok.replace("_", "/"))  # np.loadtxt reads no digit separator
        except ValueError:
            return f"{name}={tok!r} is not an integer"
        if not -(2**63) <= value < 2**63:
            return f"{name} must be below 2**63 and at least -2**63, as an int64 grid holds it"
    return None


def load_scan_csv(path, config: dict | None = None) -> ScanResult:
    """Read a scan CSV; every superpixel of the grid must appear exactly once.

    One ``np.loadtxt`` parses the body and each rule is one array test over its
    rows, so only a broken file pays to find the line of its first broken row."""
    from .config import read_value  # config imports this module
    # a byte outside ASCII reads as a lone surrogate, which no integer field takes
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if header != SCAN_CSV_HEADER:
            raise ConfigMismatch(f"{path}: line 1: unexpected scan CSV header: {header!r}")
        lines = fh.read().split("\n")
    if not any(lines):  # np.loadtxt warns on no data
        raise ConfigMismatch(f"{path}: no superpixel rows")
    try:
        table = np.loadtxt(lines, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
        if table.shape[1] != len(SuperpixelRecord._fields):  # every line has one wrong count
            raise ValueError(table.shape)
    except ValueError:
        # only an unreadable file pays to find its first unreadable line
        at, rule = next((at, rule) for at, line in enumerate(lines)
                        if line and (rule := _unreadable(line)))
        raise ConfigMismatch(f"{path}: line {at + 2}: {rule}") from None
    config = dict(config or {})
    row, col, n_bins, cam, her, both = table.T
    rows = config.get("derived.n_rows", str(int(row.max()) + 1))
    cols = config.get("derived.n_cols", str(int(col.max()) + 1))
    n_rows, n_cols = read_value("derived.n_rows", rows), read_value("derived.n_cols", cols)
    outside = (row < 0) | (row >= n_rows) | (col < 0) | (col >= n_cols)
    repeat = np.ones(len(table), dtype=bool)
    repeat[np.unique(table[:, :2], axis=0, return_index=True)[1]] = False
    rules = {  # in the order a row that breaks several is named by
        "counts must be non-negative": (table[:, 2:] < 0).any(axis=1),
        "coincidences exceed a singles counter": both > np.minimum(cam, her),
        "counts exceed the number of bins": np.maximum(cam, her) > n_bins,
        "superpixel ({}, {}) appears twice": repeat,
        "superpixel ({}, {}) outside the {}x{} grid": outside,
    }
    broken = np.array(list(rules.values()))
    if broken.any():
        i = int(np.argmax(broken.any(axis=0)))  # the first broken row, named by its first rule
        rule = list(rules)[int(np.argmax(broken[:, i]))].format(row[i], col[i], n_rows, n_cols)
        lineno = [n for n, line in enumerate(lines, start=2) if line][i]  # an empty line holds none
        raise ConfigMismatch(f"{path}: line {lineno}: {rule}")
    # no superpixel repeats or lies outside, so a full grid has one row each
    if len(table) != n_rows * n_cols:
        raise ConfigMismatch(f"{path}: {n_rows * n_cols - len(table)} superpixels missing")
    grids = np.empty((len(COUNTS), n_rows, n_cols), dtype=np.int64)
    grids[:, row, col] = table[:, 2:].T
    return ScanResult(*grids, config=config)


def save_sidecar(path, config: dict) -> None:
    """Flat key=value config echo; rereading it reproduces the run."""
    with open(path, "w", encoding="ascii") as fh:
        for key in sorted(config):
            fh.write(f"{key}={config[key]}\n")


def load_sidecar(path) -> dict:
    """Read ``key=value`` lines (configs and sidecars); '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
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
