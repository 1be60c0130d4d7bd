"""Pixelated beam profiles, amplitude masks, and effective mode couplings.

A beam profile is the transverse amplitude of one spatial mode on a pixel
grid (real, non-negative, sum of squares 1).  A mask is a per-pixel
amplitude transmission in [0, 1]; the complementary per-pixel reflectivity
sqrt(1 - t^2) couples the beam to the heralding channel.  Reducing a
(profile, mask) pair yields the number the single-mode physics needs: the
effective coupling into the heralding mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import save_csv
from .errors import ConfigMismatch, QVampireError

NORM_TOL = 1e-12

# the keyword parameters of make_profile per kind; a config sets each as profile.<name>
PROFILE_PARAMS = {
    "uniform_ellipse": ("cx", "cy", "rx", "ry"),
    "uniform_ellipse_with_ring": ("cx", "cy", "rx", "ry", "ring_gain"),
    "gaussian": ("cx", "cy", "sigma_x", "sigma_y"),
}


@dataclass(frozen=True)
class BeamProfile:
    """Normalized per-pixel modal amplitude, shape (height, width)."""

    amplitude: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitude, dtype=float)
        if arr.ndim != 2:
            raise QVampireError("profile must be a 2-D array")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise QVampireError("amplitudes must be finite and non-negative")
        norm2 = float((arr * arr).sum())
        if abs(norm2 - 1.0) > NORM_TOL:
            raise QVampireError(f"profile power {norm2} != 1 beyond {NORM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitude", arr)

    @property
    def height(self) -> int:
        return self.amplitude.shape[0]

    @property
    def width(self) -> int:
        return self.amplitude.shape[1]

    def power(self) -> np.ndarray:
        return self.amplitude**2


@dataclass(frozen=True)
class MaskSpec:
    """Per-pixel amplitude transmission in [0, 1], shape (height, width)."""

    transmission: np.ndarray

    def __post_init__(self):
        arr = np.array(self.transmission, dtype=float)
        if arr.ndim != 2:
            raise QVampireError("mask must be a 2-D array")
        if not np.isfinite(arr).all() or (arr < 0).any() or (arr > 1).any():
            raise QVampireError("transmissions must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "transmission", arr)

    def reflectivity(self) -> np.ndarray:
        return np.sqrt(np.clip(1.0 - self.transmission**2, 0.0, None))


@dataclass(frozen=True)
class ModeReduction:
    """Single-mode summary of a (profile, mask) pair."""

    r_eff: float  # effective coupling to the heralding mode


def _normalized(amp: np.ndarray, what: str) -> BeamProfile:
    norm = math.sqrt(float((amp * amp).sum()))
    if norm <= 0.0:
        raise QVampireError(f"{what}: no power left to normalize")
    return BeamProfile(amp / norm)


# ---------------------------------------------------------------------------
# profile constructors


def _grid(width: int, height: int, pad: int = 0):
    """Pixel coordinates of the grid, grown by ``pad`` pixels past each edge."""
    if width < 1 or height < 1:
        raise QVampireError("grid dimensions must be positive")
    y, x = np.mgrid[-pad : height + pad, -pad : width + pad]
    return x.astype(float), y.astype(float)


def ellipse_region(
    width: int, height: int, cx: float | None = None, cy: float | None = None,
    rx: float | None = None, ry: float | None = None,
) -> np.ndarray:
    """Boolean pixel set of an axis-aligned ellipse."""
    return _ellipse(width, height, 0, cx, cy, rx, ry)


def _ellipse(width: int, height: int, pad: int, cx=None, cy=None, rx=None, ry=None):
    """``ellipse_region`` on the grid grown by ``pad`` pixels past each edge."""
    x, y = _grid(width, height, pad)
    cx = (width - 1) / 2.0 if cx is None else cx
    cy = (height - 1) / 2.0 if cy is None else cy
    rx = 0.4 * width if rx is None else rx
    ry = 0.4 * height if ry is None else ry
    if rx <= 0 or ry <= 0:
        raise QVampireError("ellipse radii must be positive")
    # an offset past twice its radius lies outside either way: clipped there,
    # no centre or radius squares a value past the float range
    dx = np.clip(x - cx, -2.0 * rx, 2.0 * rx) / rx
    dy = np.clip(y - cy, -2.0 * ry, 2.0 * ry) / ry
    return dx**2 + dy**2 <= 1.0


def rect_region(width: int, height: int, x0: int, y0: int, w: int, h: int) -> np.ndarray:
    """Boolean pixel set of an axis-aligned rectangle."""
    region = np.zeros((height, width), dtype=bool)
    # each end clipped at 0: a negative slice end would count from the far edge
    region[max(y0, 0) : max(y0 + h, 0), max(x0, 0) : max(x0 + w, 0)] = True
    return region


def silhouette_region(width: int, height: int) -> np.ndarray:
    """Stylized bat silhouette: head, body ellipse, two triangular wings.

    Centred on the grid and 0.45 of its width across.  Purely a
    figure-parity shape; any pixel set works as a mask region.
    """
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    span = 0.45 * width
    x, y = _grid(width, height)
    body = ((x - cx) / (0.16 * span)) ** 2 + ((y - cy) / (0.36 * span)) ** 2 <= 1.0
    head = ((x - cx) / (0.10 * span)) ** 2 + (
        (y - (cy - 0.42 * span)) / (0.12 * span)
    ) ** 2 <= 1.0

    def wing(sign: float) -> np.ndarray:
        # triangle: shoulder near body, tip outward, trailing corner below
        ax, ay = cx + sign * 0.10 * span, cy - 0.18 * span
        bx, by = cx + sign * 0.50 * span, cy - 0.30 * span
        dx, dy = cx + sign * 0.34 * span, cy + 0.22 * span
        d1 = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        d2 = (dx - bx) * (y - by) - (dy - by) * (x - bx)
        d3 = (ax - dx) * (y - dy) - (ay - dy) * (x - dx)
        neg = (d1 <= 0) & (d2 <= 0) & (d3 <= 0)
        pos = (d1 >= 0) & (d2 >= 0) & (d3 >= 0)
        return neg | pos

    region = body | head | wing(1.0) | wing(-1.0)
    if not region.any():
        raise QVampireError("silhouette does not intersect the grid")
    return region


def make_profile(kind: str, width: int, height: int, **params) -> BeamProfile:
    """Build a normalized profile: uniform_ellipse[_with_ring] or gaussian."""
    if kind == "uniform_ellipse":
        # a rim as bright as the interior leaves every amplitude equal
        return make_profile("uniform_ellipse_with_ring", width, height, ring_gain=1.0, **params)
    if kind == "uniform_ellipse_with_ring":
        ring_gain = float(params.pop("ring_gain", 1.5))
        if not 0.0 <= ring_gain < math.inf:
            raise QVampireError(f"ring_gain must be non-negative and finite, got {ring_gain!r}")
        # one pixel past each edge too: an off-grid neighbour is inside if the ellipse is
        grown = _ellipse(width, height, 1, **params)
        inside = grown[1:-1, 1:-1]
        if not inside.any():
            raise QVampireError("ellipse does not cover any pixel")
        amp = inside.astype(float)
        interior = inside & grown[:-2, 1:-1] & grown[2:, 1:-1] & grown[1:-1, :-2] & grown[1:-1, 2:]
        # 1-pixel rim mimicking the bright diffraction contour of an iris
        amp[inside & ~interior] = ring_gain
        return _normalized(amp, "uniform_ellipse_with_ring")
    if kind == "gaussian":
        x, y = _grid(width, height)
        cx = float(params.get("cx", (width - 1) / 2.0))
        cy = float(params.get("cy", (height - 1) / 2.0))
        sx = float(params.get("sigma_x", 0.2 * width))
        sy = float(params.get("sigma_y", 0.2 * height))
        if sx <= 0 or sy <= 0:
            raise QVampireError("gaussian widths must be positive")
        # 2 * sx**2 is inf, the flat beam, from 1e154 on; ** raises past 1.34e154
        sx, sy = min(sx, 1e154), min(sy, 1e154)
        # a width far below a pixel divides by a square that overflows or underflows
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            amp = np.exp(-((x - cx) ** 2) / (2 * sx**2) - ((y - cy) ** 2) / (2 * sy**2))
        return _normalized(amp, "gaussian")
    raise QVampireError(f"unknown profile kind {kind!r}")


# ---------------------------------------------------------------------------
# masks


def vampire_mask(region: np.ndarray, contrast: float) -> MaskSpec:
    """Per-pixel reflectivity = contrast inside the region (t = sqrt(1 - contrast^2)),
    t = 1 outside; the mask's grid is the region's."""
    if not 0.0 <= contrast <= 1.0:
        raise QVampireError("contrast must lie in [0, 1]")
    region = np.asarray(region, dtype=bool)
    t = np.ones(region.shape)
    t[region] = math.sqrt(1.0 - contrast * contrast)
    return MaskSpec(t)


def contrast_for_herald_rate(
    profile: BeamProfile, region: np.ndarray, nbar: float, target: float
) -> float:
    """Uniform in-region contrast giving herald rate r_eff^2 * nbar = target."""
    frac = float(profile.power()[np.asarray(region, dtype=bool)].sum())
    if nbar <= 0 or 0 < frac and nbar * frac == 0:  # a subnormal nbar's rate underflows
        raise QVampireError(f"source.nbar = {nbar!r} gives no herald rate")
    if frac <= 0:
        raise QVampireError("mask.region carries no beam power")
    c2 = target / (nbar * frac)
    if c2 > 1.0:
        raise QVampireError(f"needs contrast^2 = {c2:.3g} > 1")
    contrast = math.sqrt(c2)
    if contrast > 0.0 and math.sqrt(1.0 - contrast * contrast) == 1.0:  # as vampire_mask takes t
        raise QVampireError(f"source.nbar = {nbar!r} solves contrast {contrast!r}, which leaves "
                            f"t = sqrt(1 - contrast^2) at 1, so the mask taps no light")
    return contrast


# ---------------------------------------------------------------------------
# reduction


def reduce(profile: BeamProfile, mask: MaskSpec) -> ModeReduction:
    """Collapse a (profile, mask) pair to its coupling into the heralding mode."""
    if profile.amplitude.shape != mask.transmission.shape:
        raise ConfigMismatch(f"profile {profile.amplitude.shape} vs mask {mask.transmission.shape}")
    r = mask.reflectivity()
    r_eff = math.sqrt(float((r * r * profile.power()).sum()))
    if float(((mask.transmission * profile.amplitude) ** 2).sum()) <= 0.0:
        raise QVampireError("mask transmits no beam power")
    return ModeReduction(r_eff=r_eff)


# ---------------------------------------------------------------------------
# CSV / PGM writers (the CLI writes these; nothing here reads them back)


def save_matrix_csv(path, arr: np.ndarray) -> None:
    """Row-major CSV with a 'width,height' header line."""
    arr = np.asarray(arr, dtype=float)
    h, w = arr.shape
    save_csv(path, f"{w},{h}", arr)


def save_pgm(path, values: np.ndarray) -> None:
    """8-bit binary PGM; 255 maps linearly to value 1.0."""
    arr = np.asarray(values, dtype=float)
    levels = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = levels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())
