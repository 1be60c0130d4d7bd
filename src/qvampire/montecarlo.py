"""Stochastic simulation of the heralded single-pixel imaging apparatus.

The thermal beam is modeled semiclassically: the field is a circular
Gaussian amplitude held constant for the bins of one coherence block, so
the block intensity |alpha|^2 is exponential, which gives the right
bunching statistics.  Each 12 ns bin the herald detector sees the power
tapped off by the mask and the camera detector sees the power transmitted
into the currently open superpixel; on/off clicks are independent given
the field, and same-bin herald+camera clicks feed the coincidence counter.

Every superpixel owns a counter-based Philox substream keyed by
(seed, superpixel index), so results do not depend on the order the tiles
are drawn in.  A scan draws them in index order on the calling thread with
one Philox generator, reset to the start of a tile's substream before the
tile, which draws what a generator built for that key alone would;
``scan.threads`` is accepted and echoed but draws nothing in parallel, and
ROADMAP item 2 removes it.  A tile's three totals are its cell of the
scan's count grids; its full coherence blocks are i.i.d., so it is drawn
as a mixture rather than block by block (Devroye, Non-Uniform Random Variate Generation, 1986, ch. III):

- A block's intensity is drawn from a quadrature rule (``qvampire.blocktable``)
  whose node count an a-priori error bound certifies to 1e-12 in every
  cell of the block's joint click table: node u_i with probability w_i.
  One multinomial counts the tile's full blocks at each node.
- Given the field every bin clicks each detector independently, so the
  m s bins of the m blocks at one node are one multinomial over the four
  joint outcomes (both, camera only, herald only, neither).  The final
  partial block is one more row at an Exp(1) intensity, and all rows are
  one vectorized multinomial, in which a node no full block fell on
  draws nothing.

A coherent tile has one intensity, so its law is one block of all its bins
at u = 1 with weight 1, drawn by the same two multinomials.  Either way a
tile's time and memory do not grow with the dwell, and every draw is
distribution-exact up to the rule's quadrature error.  A rule depends on
the tile only through the camera weight, so a scan takes the rules of all
its distinct camera weights in one call, which bounds the herald's factor
of the error once per panel count for all of them, and computes each
weight's outcome rows at the rule's nodes once.
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

# a thermal tile's rule is certified by a bound that holds at any block
# length; the tests hold its rules to the (s+1)^2-cell outcome table's check up to here
MAX_BINS_PER_BLOCK = 1024

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
        if kind == THERMAL and bpb > MAX_BINS_PER_BLOCK:  # no thermal scan draws such a block
            given = self.config["derived.bins_per_block"]
            raise ConfigMismatch(f"derived.bins_per_block={given!r}: a thermal scan draws at "
                                 f"most {MAX_BINS_PER_BLOCK} bins a block")
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
    """Bins per coherence block: at least one, and for a thermal source, whose
    tiles take a quadrature rule, at most ``MAX_BINS_PER_BLOCK``."""
    if src.coherence_time < det.bin_width:
        raise ConfigMismatch("coherence_time must be at least one bin_width")
    # capped before int(): a subnormal bin_width sends the ratio to inf
    bpb = int(min(src.coherence_time / det.bin_width + 1e-9, 2**63 - 1))
    if src.kind == THERMAL and bpb > MAX_BINS_PER_BLOCK:
        raise ConfigMismatch(
            f"a coherence block of {bpb} bins exceeds {MAX_BINS_PER_BLOCK}: its quadrature "
            f"rule is tested against the joint outcome table only up to that"
        )
    return bpb


def _grid_shape(height: int, width: int, superpixel: int) -> tuple[int, int]:
    """Rows and columns of the superpixels tiling a grid; edge tiles may be partial."""
    return -(-height // superpixel), -(-width // superpixel)


def superpixel_tiles(height: int, width: int, superpixel: int):
    """Row-major (row, col, yslice, xslice) tiles; edge tiles may be partial."""
    n_rows, n_cols = _grid_shape(height, width, superpixel)
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


# a fresh Philox's counter and buffer: the scan's one generator is reset to
# them, with the tile's key, before each tile
_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)
_PHILOX_ZEROS.setflags(write=False)


def _outcome_rows(w_cam, w_her, src, det_cam, det_her, u):
    """One row per block intensity of ``u``: the probabilities that a bin clicks
    both detectors, the camera only, the herald only or neither.  A scalar
    ``u`` gives one row of shape (4,), with no array built around it."""
    intensity = src.nbar * u
    p_cam = click_probability(w_cam * intensity, det_cam)
    p_her = click_probability(w_her * intensity, det_her)
    rows = np.array(
        [p_cam * p_her, p_cam * (1 - p_her), (1 - p_cam) * p_her, (1 - p_cam) * (1 - p_her)]
    )
    return np.ascontiguousarray(rows.T)


class _TileLaw(NamedTuple):
    """What every tile of one camera weight draws from."""

    full_blocks: int  # full coherence blocks a tile holds
    block: int  # bins of a full block
    weights: np.ndarray  # of the certified rule, one per node
    rows: np.ndarray  # ``_outcome_rows`` at the rule's nodes
    rest: int  # bins of the partial block, drawn at an Exp(1) intensity
    clicks: tuple  # ``_outcome_rows``' arguments before the intensity


def _tile_laws(w_cams, w_her, src, det_cam, det_her, n_bins, bpb):
    """The ``_TileLaw`` of a tile of ``n_bins`` bins at each camera weight of
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
    n_full, rest = divmod(n_bins, block)
    laws = []
    for w_cam, (u, weights) in zip(w_cams, rules):
        clicks = (w_cam, w_her, src, det_cam, det_her)
        laws.append(_TileLaw(n_full, block, weights, _outcome_rows(*clicks, u), rest, clicks))
    return laws


def _simulate_tile(gen: np.random.Generator, seed: int, index: int, law: _TileLaw):
    """One tile's (camera, herald, coincidence) totals from its ``_TileLaw``.

    ``gen`` is first reset to the start of the tile's Philox substream, keyed
    (seed, index), so it draws what a fresh ``Philox(key=(seed, index))``
    would, whatever it drew before."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _PHILOX_ZEROS, "key": np.array([seed, index], dtype=np.uint64)},
        "buffer": _PHILOX_ZEROS,
        "buffer_pos": 4,  # the buffer's length: nothing buffered
        "has_uint32": 0,
        "uinteger": 0,
    }
    # numpy's multinomial draws no number for a row of no trials or of one
    # category: a coherent tile and a tile shorter than a block draw none for
    # their blocks, and the row of a node that holds no full block draws none
    # for its outcomes, so it need not be dropped
    bins, rows = law.block * gen.multinomial(law.full_blocks, law.weights), law.rows
    if law.rest:
        u = gen.standard_exponential()
        bins = np.concatenate((bins, (law.rest,)))
        rows = np.concatenate((rows, (_outcome_rows(*law.clicks, u),)))
    # the column sums as an integer product: exact, and faster on four columns
    both, cam_only, her_only, _ = np.ones(len(bins), dtype=np.int64) @ gen.multinomial(bins, rows)
    return int(both + cam_only), int(both + her_only), int(both)


def run_scan(src: SourceConfig, scan: ScanConfig) -> ScanResult:
    """Raster-scan the camera superpixel over the masked beam.

    Deterministic for a fixed (seed, config): each superpixel draws from its
    own keyed Philox substream.  In a scan only the camera weight varies, so
    the rules of all distinct weights are chosen in one call.  Then the tiles
    are drawn in index order on the calling thread by one Philox generator,
    re-keyed to (seed, index) before each tile.  ``scan.threads`` goes unread.
    """
    profile = src.profile
    derived = derived_settings(src, scan)
    n_bins, bpb = derived["n_bins"], derived["bins_per_block"]
    transmitted_power = (scan.mask.transmission * profile.amplitude) ** 2
    _, _, tiles = superpixel_tiles(profile.height, profile.width, scan.superpixel)
    w_cams = [float(transmitted_power[ys, xs].sum()) for _, _, ys, xs in tiles]
    distinct = list(dict.fromkeys(w_cams))
    dets = (scan.camera_detector, scan.herald_detector)
    law_of = dict(zip(distinct, _tile_laws(distinct, derived["r_eff2"], src, *dets, n_bins, bpb)))
    gen = np.random.Generator(np.random.Philox(0))  # any key: each tile re-keys it
    # camera, herald and coincidence totals; row-major tiles index the flattened grid
    totals = np.array([_simulate_tile(gen, scan.seed, i, law_of[w_cam])
                       for i, w_cam in enumerate(w_cams)], dtype=np.int64).T
    # what analysis reads back; build_scenario's echo holds the rest of the config
    echo = {
        "source.kind": src.kind,
        **{f"derived.{name}": str(value) for name, value in derived.items()},
    }
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
