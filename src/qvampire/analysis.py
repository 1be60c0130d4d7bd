"""Turn scan counts into verdicts: g2, ratio maps, flatness and shadow tests.

The shadow statistic lives on a ratio of two rate maps, never on raw
intensity, so it is blind to overall brightness: a heralded profile that
is everywhere twice the unconditional one is flat with best constant 2,
while real per-pixel loss shows up as a dip no rescaling removes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import parse_region_spec, read_value
from .errors import ConfigMismatch, QVampireError
from .montecarlo import SIDECAR_DEFAULTS, ScanResult, conditional_profile_mc

TAG_INSIDE = "inside_mask_region"
TAG_OUTSIDE = "outside"
TAG_EXCLUDED = "excluded_low_signal"

SIGNAL_FLOOR_RELERR = 0.3
INSIDE_OVERLAP_THRESHOLD = 0.5
FLATNESS_ALPHA = 0.01
SHADOW_Z = 3.0


class RatioMap(NamedTuple):
    """Per-superpixel ratio with errors and region tags."""

    ratio: np.ndarray
    sigma: np.ndarray
    tags: np.ndarray

    def usable(self) -> np.ndarray:
        return self.tags != TAG_EXCLUDED


class FlatnessResult(NamedTuple):
    chi2: float
    dof: int
    p_value: float
    best_const: float


class Report(NamedTuple):
    """What ``analyze`` concludes from a scan, and what it read the scan with."""

    rmap: RatioMap
    flat: FlatnessResult
    depth: float  # depth and z are NaN without usable superpixels inside and outside
    z: float
    g2: float  # g2 and its sigma are NaN without camera and herald singles
    g2_sigma: float
    band: tuple[int, int]
    cut: tuple[np.ndarray, ...]  # x, then value and sigma of numerator and denominator
    verdict: str
    notes: tuple[str, ...]  # one per input, scan first; "" when it needs none

    def summary(self) -> dict[str, str]:
        """The ``summary.txt`` mapping."""
        flat = self.flat
        return {
            "chi2": repr(flat.chi2),
            "dof": str(flat.dof),
            "p_value": repr(flat.p_value),
            "best_const": repr(flat.best_const),
            "depth": repr(self.depth),
            "z_score": repr(self.z),
            "g2": repr(self.g2),
            "g2_sigma": repr(self.g2_sigma),
            "band": "{}:{}".format(*self.band),
            "verdict": self.verdict,
        }


def g2_estimate(
    camera_counts: int, herald_counts: int, coincidences: int, n_bins: int
) -> tuple[float, float]:
    """Normalized coincidence rate g2 = cc * n / (cam * her) with its error."""
    if min(camera_counts, herald_counts, coincidences, n_bins) < 0:
        raise QVampireError("counts must be non-negative")
    if camera_counts * herald_counts == 0:
        raise QVampireError("need camera and herald singles for g2")
    g2 = coincidences * n_bins / (camera_counts * herald_counts)
    if coincidences == 0:
        return 0.0, n_bins / (camera_counts * herald_counts)
    rel2 = 1.0 / coincidences + 1.0 / camera_counts + 1.0 / herald_counts
    return g2, g2 * math.sqrt(rel2)


def ratio_map(
    numerator: np.ndarray,
    numerator_sigma: np.ndarray,
    denominator: np.ndarray,
    denominator_sigma: np.ndarray,
    region_frac: np.ndarray,
) -> RatioMap:
    """Elementwise rate ratio with propagated errors and exclusion tags.

    The error is sqrt(num_s^2 + (ratio * den_s)^2) / den, the first-order
    (delta-method) propagation for an independent numerator and denominator
    (Casella & Berger, Statistical Inference, 5.5.4).  A zero numerator keeps
    the finite bar num_s / den; an excluded superpixel gets inf.

    Superpixels whose denominator is zero or carries relative error above
    ``SIGNAL_FLOOR_RELERR`` are excluded (beam edges where ratios mean nothing).
    ``region_frac`` is the fraction of each superpixel's pixels inside
    the mask region; ``INSIDE_OVERLAP_THRESHOLD`` or more tags it inside.
    """
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    num_s = np.asarray(numerator_sigma, dtype=float)
    den_s = np.asarray(denominator_sigma, dtype=float)
    if not (num.shape == den.shape == num_s.shape == den_s.shape):
        raise QVampireError("rate maps live on different superpixel grids")
    region_frac = np.asarray(region_frac, dtype=float)
    if region_frac.shape != num.shape:
        raise QVampireError("region map grid differs from the rate maps")

    good = (den > 0) & np.isfinite(den_s) & (den_s <= SIGNAL_FLOOR_RELERR * den)
    ratio = np.zeros_like(num)
    sigma = np.full_like(num, np.inf)
    ratio[good] = num[good] / den[good]
    sigma[good] = np.hypot(num_s[good], ratio[good] * den_s[good]) / den[good]

    tags = np.where(
        good,
        np.where(region_frac >= INSIDE_OVERLAP_THRESHOLD, TAG_INSIDE, TAG_OUTSIDE),
        TAG_EXCLUDED,
    )
    return RatioMap(ratio=ratio, sigma=sigma, tags=tags)


def flatness_test(rmap: RatioMap) -> FlatnessResult:
    """Weighted least-squares fit of a constant plus a chi-square p-value."""
    use = rmap.usable()
    r = rmap.ratio[use]
    s = rmap.sigma[use]
    if r.size < 2:
        why = f"the scan holds {use.size}"
        if use.size >= 2:
            why = (f"excluded {use.size - use.sum()} of {use.size} for a zero camera rate or a "
                   f"camera-rate relative error above SIGNAL_FLOOR_RELERR={SIGNAL_FLOOR_RELERR}")
        raise QVampireError(f"flatness test needs at least two superpixels, but {why}")
    w = 1.0 / s**2
    best = float((w * r).sum() / w.sum())
    chi2 = float((w * (r - best) ** 2).sum())
    dof = int(r.size - 1)
    return FlatnessResult(
        chi2=chi2, dof=dof, p_value=_chi2_sf(dof, chi2), best_const=best
    )


def _chi2_sf(dof: int, x: float) -> float:
    """Chi-square survival function Q(dof/2, x/2) for integer dof, as its finite series."""
    if x <= 0:
        return 1.0
    h = 0.5 * x
    a = 0.5 * (dof % 2)
    total = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    for i in range(dof // 2):
        total += math.exp((a + i) * math.log(h) - h - math.lgamma(a + i + 1))
    return total


def verdict(p_value: float, z: float) -> str:
    """SHADOW, NO_SHADOW, NONFLAT or AMBIGUOUS from a flatness p-value and shadow z.

    A shadow needs both a non-flat ratio map and an inside dip beyond
    ``SHADOW_Z``; no shadow needs a flat map and no significant dip.
    Without a z-score (no inside/outside split) only flatness decides.
    """
    if math.isnan(z):
        return "NONFLAT" if p_value < FLATNESS_ALPHA else "NO_SHADOW"
    if p_value < FLATNESS_ALPHA and z > SHADOW_Z:
        return "SHADOW"
    if p_value > FLATNESS_ALPHA and abs(z) < SHADOW_Z:
        return "NO_SHADOW"
    return "AMBIGUOUS"


def shadow_depth(rmap: RatioMap) -> tuple[float, float]:
    """Depth 1 - mean(inside)/mean(outside) with its significance z-score; both
    NaN without usable superpixels inside and outside."""
    inside = rmap.tags == TAG_INSIDE
    outside = rmap.tags == TAG_OUTSIDE
    if not inside.any() or not outside.any():
        return math.nan, math.nan

    def wmean(sel):
        w = 1.0 / rmap.sigma[sel] ** 2
        m = float((w * rmap.ratio[sel]).sum() / w.sum())
        return m, math.sqrt(1.0 / float(w.sum()))

    m_in, s_in = wmean(inside)
    m_out, s_out = wmean(outside)
    if m_out == 0.0:  # not NaN: with no z, an all-zero map would read as flat
        raise QVampireError(f"the {outside.sum()} usable superpixels outside the region all "
                            f"have ratio 0, so the shadow depth 1 - inside/outside is undefined")
    depth = 1.0 - m_in / m_out
    s_depth = math.sqrt((s_in / m_out) ** 2 + (m_in * s_out / m_out**2) ** 2)
    return depth, depth / s_depth


def profile_cut(
    values: np.ndarray, sigmas: np.ndarray, row_lo: int, row_hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise average over a row band; returns (x, value, sigma)."""
    values = np.asarray(values, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if values.shape != sigmas.shape:
        raise QVampireError("values and sigmas differ in shape")
    n_rows = values.shape[0]
    if not (0 <= row_lo < row_hi <= n_rows):
        raise QVampireError(f"band [{row_lo}, {row_hi}) outside 0..{n_rows}")
    band = values[row_lo:row_hi]
    band_s = sigmas[row_lo:row_hi]
    k = row_hi - row_lo
    x = np.arange(values.shape[1], dtype=float)
    return x, band.mean(axis=0), np.sqrt((band_s**2).sum(axis=0)) / k


def region_fraction_map(
    region: np.ndarray, superpixel: int, n_rows: int, n_cols: int
) -> np.ndarray:
    """Fraction of each superpixel's pixels lying inside a mask region.

    The region, tiled at ``superpixel``, must give the n_rows x n_cols grid.
    """
    region = np.asarray(region, dtype=bool)
    height, width = region.shape
    # the first row and column of each superpixel, as ``superpixel_tiles`` lays them
    ys, xs = np.arange(0, height, superpixel), np.arange(0, width, superpixel)
    if (len(ys), len(xs)) != (n_rows, n_cols):
        raise QVampireError(
            f"grid.width={width}, grid.height={height}, scan.superpixel={superpixel}: the region "
            f"tiles a {len(ys)}x{len(xs)} grid, but the scan grid is {n_rows}x{n_cols}"
        )
    # region pixels over pixels: the float of each tile's mean, whose sum of
    # zeros and ones is exact
    inside = np.add.reduceat(np.add.reduceat(region, ys, axis=0, dtype=np.int64), xs, axis=1)
    return inside / np.multiply.outer(np.diff(ys, append=height), np.diff(xs, append=width))


def _region_fracs(result: ScanResult) -> tuple[np.ndarray, str]:
    """Fraction of each superpixel inside the mask region; zeros and the reason
    when the scan names no region (the shadow z-score is then NaN)."""
    cfg = result.config
    if not cfg:
        reason = "no sidecar"
    elif cfg.get("scenario") == "initial":
        reason = "initial scenario"
    else:
        try:
            keys = ("grid.width", "grid.height", "scan.superpixel")
            width, height, superpixel = (read_value(key, cfg[key]) for key in keys)
            region = parse_region_spec(cfg["mask.region"], width, height)
        except KeyError as exc:
            reason = f"sidecar lacks {exc.args[0]}"
        except ConfigMismatch as exc:
            reason = f"bad region spec or grid size: {exc}"
        else:
            return region_fraction_map(region, superpixel, result.n_rows, result.n_cols), ""
    note = f"no mask region ({reason}); shadow z-score is NaN"
    return np.zeros((result.n_rows, result.n_cols)), note


def _input_note(result: ScanResult, region_note: str = "") -> str:
    """The sidecar defaults a scan is analyzed with, then its region note."""
    used = [f"{k}={v}" for k, v in SIDECAR_DEFAULTS.items() if k not in result.config]
    notes = [f"defaults used: {', '.join(used)}"] if used else []
    if region_note:
        notes.append(region_note)
    return "; ".join(notes)


def analyze(
    result: ScanResult, reference: ScanResult | None = None, band: tuple[int, int] | None = None
) -> Report:
    """Ratio map, flatness and shadow tests, g2 and verdict of a scan.

    The ratio is the scan's camera rate over the ``reference``'s, or else
    its heralded over its unconditional rate.  ``band`` (rows lo:hi of the
    cut) defaults to the middle third.  An error raised once the notes are
    known carries them as ``notes``, so a failing run still names them.
    """
    fracs, region_note = _region_fracs(result)
    notes = (_input_note(result, region_note),)
    if reference is not None:
        notes += (_input_note(reference),)
    try:
        if reference is not None:
            if (reference.n_rows, reference.n_cols) != (result.n_rows, result.n_cols):
                raise QVampireError(
                    f"superpixel grids differ: scan {result.n_rows}x{result.n_cols} "
                    f"vs reference {reference.n_rows}x{reference.n_cols}"
                )
            maps = result.camera_rate_map(), reference.camera_rate_map()
        else:
            maps = conditional_profile_mc(result)
        (num, num_s), (den, den_s) = maps
        rmap = ratio_map(num, num_s, den, den_s, fracs)
        flat = flatness_test(rmap)
        depth, z = shadow_depth(rmap)

        cam, her, both, bins = (  # Python ints: an int64 sum of the grid could wrap
            sum(result.grid(name).ravel().tolist())
            for name in ("camera_counts", "herald_counts", "coincidence_counts", "n_bins")
        )
        if her > 0 and cam > 0:
            g2, g2_sigma = g2_estimate(cam, her, both, bins)
        else:
            g2, g2_sigma = math.nan, math.nan

        if band is None:
            lo = result.n_rows // 3
            band = lo, max(lo + 1, (2 * result.n_rows) // 3)
        cut = (*profile_cut(num, num_s, *band), *profile_cut(den, den_s, *band)[1:])
    except QVampireError as exc:
        exc.notes = notes
        raise
    return Report(rmap, flat, depth, z, g2, g2_sigma, band, cut, verdict(flat.p_value, z), notes)
