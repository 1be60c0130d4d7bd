"""Flat key=value scenario configuration.

The config format is one ``section.key=value`` pair per line, chosen so
sidecar echoes diff cleanly and any run can be reproduced by feeding its
echo back in.
"""

from __future__ import annotations

import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigMismatch, QVampireError, WeakCouplingViolated
from .montecarlo import (
    DetectorConfig,
    ScanConfig,
    ScanResult,
    COHERENT,
    SourceConfig,
    THERMAL,
    bins_per_block,
    derived_settings,
    load_sidecar as load_config,  # a config is read like a sidecar echo
    run_scan,
)
from .spatial import (
    BeamProfile,
    contrast_for_herald_rate,
    ellipse_region,
    make_profile,
    PROFILE_PARAMS,
    rect_region,
    reduce,
    silhouette_region,
    vampire_mask,
)

_MASK_KEYS = ("mask.region", "mask.contrast", "mask.herald_target")
REGION_FORMS = "all, silhouette, rect:<x0>,<y0>,<w>,<h> or ellipse:<cx>,<cy>,<rx>,<ry>"

SCENARIOS = ("initial", "loss_high_contrast", "loss_low_contrast", "subtraction")
# the r_eff above which the heralded map's weak-coupling g2 is only approximate
WEAK_COUPLING_DEFAULT = 0.2


def _count(text: str, bits: int = 63) -> int:
    """A size or count: an integer in [1, 2**bits).  Numpy's int64 holds 2**63 - 1; a grid
    side (``_side``) is below 2**28, so a float64 map of a grid is under numpy's 2**63 bytes."""
    value = int(text)
    if not 0 < value < 2**bits:
        raise ConfigMismatch(f"expected an integer in [1, 2**{bits})")
    return value


_side = partial(_count, bits=28)


# each key's default and what ``read_value`` reads it as: an integer, a number, a
# count or grid side, one of a tuple of words, or text (a key whose default is empty may be empty)
_KEYS = {
    "scenario": ("initial", SCENARIOS),
    "grid.width": ("64", _side),
    "grid.height": ("48", _side),
    "profile.kind": ("uniform_ellipse_with_ring", tuple(PROFILE_PARAMS)),
    "profile.cx": ("", float),
    "profile.cy": ("", float),
    "profile.rx": ("", float),
    "profile.ry": ("", float),
    "profile.ring_gain": ("1.5", float),
    "profile.sigma_x": ("", float),
    "profile.sigma_y": ("", float),
    "mask.region": ("silhouette", str),
    "mask.contrast": ("", float),
    "mask.herald_target": ("", float),
    "source.nbar": ("1.0", float),
    "source.kind": (THERMAL, (THERMAL, COHERENT)),
    "source.coherence_time": ("1e-06", float),
    "scan.superpixel": ("11", _count),
    "scan.dwell": ("0.01", float),
    "scan.bins_cap": ("1000000", _count),
    "scan.seed": ("", int),
    "scan.threads": ("1", _count),
    "detector.bin_width": ("1.2e-08", float),
    "detector.herald.efficiency": ("0.6", float),
    "detector.herald.dark_prob": ("0.0", float),
    "detector.camera.efficiency": ("0.6", float),
    "detector.camera.dark_prob": ("0.0", float),
}
DEFAULTS: dict[str, str] = {key: default for key, (default, _) in _KEYS.items()}
# a sidecar's derived.* values are read as the scan derives them
TYPES: dict = {key: kind for key, (_, kind) in _KEYS.items()} | {
    "derived.n_bins": int, "derived.bins_per_block": _count, "derived.r_eff2": float,
    "derived.n_rows": int, "derived.n_cols": int,
}
_EXPECTED = {float: "a number", str: "ASCII text"}
_EXPECTED |= dict.fromkeys((int, _count, _side), "an integer")

# default vampire-mask contrasts per scenario when neither contrast nor herald target is given
_SCENARIO_CONTRAST = {"loss_high_contrast": 0.8, "loss_low_contrast": 0.3, "subtraction": 0.3}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: constructed objects plus the flat echo."""

    scenario: str
    source: SourceConfig
    scan: ScanConfig
    echo: dict

    def analytic_map(self) -> np.ndarray:
        """The camera intensity the scenario predicts, per pixel: the transmitted
        t^2 u^2 nbar, which a herald scales by the source's g2 in the weak-coupling limit."""
        profile, mask, nbar = self.source.profile, self.scan.mask, self.source.nbar
        r_eff = reduce(profile, mask).r_eff  # and the check that the two share a grid
        unheralded = mask.transmission**2 * profile.power() * nbar
        if self.scenario != "subtraction":
            # the initial scenario's white mask transmits the whole profile
            return unheralded
        if r_eff > WEAK_COUPLING_DEFAULT:
            warnings.warn(
                f"r_eff = {r_eff:.3f} exceeds weak-coupling threshold "
                f"{WEAK_COUPLING_DEFAULT}; analytic heralded profile is approximate",
                WeakCouplingViolated,
                stacklevel=2,
            )
        # g2 of the source's photon statistics: Bose-Einstein 2, Poisson 1
        g2 = 2.0 if self.source.kind == THERMAL else 1.0
        return g2 * unheralded

    def check_blocks(self) -> None:
        """``run_scan``'s coherence-block check, its range error named by its keys."""
        with _keyed(self.echo, "source.coherence_time", "detector.bin_width"):
            bins_per_block(self.source, self.scan.herald_detector)

    def run_scan(self) -> ScanResult:
        """``run_scan`` of the scenario after ``check_blocks``; a block rule it
        refuses, whose s x the source's brightness and coherence time both scale,
        names ``source.nbar`` and ``source.coherence_time``."""
        self.check_blocks()
        with _keyed(self.echo, "source.nbar", "source.coherence_time"):
            return run_scan(self.source, self.scan)


def read_value(key: str, text: str):
    """A config or sidecar value read as its ``TYPES`` entry, or None when a key
    whose default is empty is left empty; ``ConfigMismatch`` names the key."""
    if text == "" and DEFAULTS.get(key) == "":
        return None
    kind = TYPES.get(key, str)
    try:
        if not text.isascii():  # a sidecar echoes the value as ASCII
            raise ValueError(text)
        return kind[kind.index(text)] if isinstance(kind, tuple) else kind(text)
    except ValueError:
        expected = _EXPECTED.get(kind) or " or ".join([", ".join(kind[:-1]), kind[-1]])
        raise ConfigMismatch(f"{key}={text!r}: expected {expected}") from None
    except ConfigMismatch as exc:  # an integer outside its range
        raise ConfigMismatch(f"{key}={text!r}: {exc}") from None


def _given(merged: dict, *keys: str) -> str:
    """Each of ``keys`` as ``key='value'``, the way a range error names what fed it."""
    return ", ".join(f"{key}={merged[key]!r}" for key in keys)


@contextmanager
def _keyed(merged: dict, *keys: str):
    """Re-raise a range error of the block as ``{key}={value!r}: {rule}``, for each
    of ``keys`` whose field (its last part) the rule names, or each key if it names none.
    An error that already starts with one of ``keys`` passes unchanged."""
    try:
        yield
    except QVampireError as exc:
        if str(exc).startswith(tuple(f"{key}=" for key in keys)):
            raise
        words = set(re.findall(r"\w+", str(exc)))
        named = [key for key in keys if key.rpartition(".")[2] in words] or keys
        raise ConfigMismatch(f"{_given(merged, *named)}: {exc}") from None


def parse_region_spec(spec: str, width: int, height: int) -> np.ndarray:
    """The pixel set a spec names, one of ``REGION_FORMS``."""
    if spec == "all":
        return np.ones((height, width), dtype=bool)
    if spec == "silhouette":
        return silhouette_region(width, height)
    shapes = {"rect": (int, rect_region), "ellipse": (float, ellipse_region)}
    kind, _, rest = spec.partition(":")
    try:
        convert, shape = shapes[kind]
        # a rect's corner and size, or an ellipse's centre and radii
        x, y, a, b = (convert(tok) for tok in rest.split(","))
        if not (a > 0 and b > 0):
            raise ValueError(spec)
    except (KeyError, ValueError):
        raise ConfigMismatch(f"mask.region={spec!r}: expected {REGION_FORMS}") from None
    return shape(width, height, x, y, a, b)


def _build_profile(merged: dict, cfg: dict) -> BeamProfile:
    kind = cfg["profile.kind"]
    keys = [f"profile.{name}" for name in PROFILE_PARAMS[kind]]
    # a key of another kind must keep its default, so no sidecar echoes an unused value
    stray = [key for key in DEFAULTS if key.startswith("profile.") and key not in keys
             and key != "profile.kind" and merged[key] != DEFAULTS[key]]
    if stray:
        raise ConfigMismatch(f"profile kind {kind!r} takes no {', '.join(stray)}")
    keys = [key for key in keys if cfg[key] is not None]  # an empty key takes its default
    with _keyed(merged, "profile.kind", "grid.width", "grid.height", *keys):
        params = {key.removeprefix("profile."): cfg[key] for key in keys}
        return make_profile(kind, cfg["grid.width"], cfg["grid.height"], **params)


def build_scenario(cfg: dict, seed: int | None = None) -> ScenarioConfig:
    """Assemble a scenario from a flat config dict.

    The initial scenario checks its mask keys but scans the white mask.  A
    missing seed is generated and recorded in the echo.  Each value is read by ``read_value``,
    and a range error names the key that fed it.  The ``derived.*`` keys of a
    scan sidecar, and a ``mask.contrast`` next to a ``mask.herald_target``, are
    accepted only as what the rest of the config derives.
    """
    given = {key: value for key, value in cfg.items() if key.startswith("derived.")}
    unknown = set(cfg) - set(TYPES)  # the config keys and the derived.* keys of a sidecar
    if unknown:
        raise ConfigMismatch(f"unknown config keys: {sorted(unknown)}")
    merged = {**DEFAULTS, **{key: value for key, value in cfg.items() if key not in given}}
    if seed is not None:
        merged["scan.seed"] = str(seed)
    if merged["scan.seed"] == "":
        # os.urandom, not secrets: secrets loads hashlib and OpenSSL at import
        merged["scan.seed"] = str(int.from_bytes(os.urandom(8), "little") >> 1)
    cfg = {key: read_value(key, text) for key, text in merged.items()}
    scenario, width, height = cfg["scenario"], cfg["grid.width"], cfg["grid.height"]

    try:  # the profile is the first array of the grid's size
        profile = _build_profile(merged, cfg)
    except MemoryError:
        named = _given(merged, "grid.width", "grid.height")
        raise ConfigMismatch(f"{named}: the grid does not fit in memory") from None
    keys = ("source.nbar", "source.coherence_time", "source.kind")
    with _keyed(merged, *keys):  # checked before the herald target divides by nbar
        source = SourceConfig(profile=profile, **{key.partition(".")[2]: cfg[key] for key in keys})

    with _keyed(merged, "mask.region", "grid.width", "grid.height"):
        region = parse_region_spec(merged["mask.region"], width, height)
    target, asked = cfg["mask.herald_target"], cfg["mask.contrast"]  # None when left empty
    if target is not None and not 0.0 <= target < np.inf:
        named = _given(merged, "mask.herald_target")
        raise ConfigMismatch(f"{named}: herald_target must be finite and >= 0")
    if scenario == "initial":
        # the white mask: a contrast over no pixel, checked and echoed as given
        region, contrast = np.zeros_like(region), (0.0 if asked is None else asked)
    elif target is not None:
        try:
            contrast = contrast_for_herald_rate(profile, region, source.nbar, target)
        except QVampireError as exc:  # the region cannot tap that much light
            named = _given(merged, "mask.herald_target", "mask.region")
            raise ConfigMismatch(f"{named}: the target is out of reach: {exc}") from None
        if asked not in (None, contrast):  # a sidecar echoes the solved contrast
            named = _given(merged, "mask.contrast", "mask.herald_target")
            raise ConfigMismatch(f"{named}: the target solves contrast {contrast!r}")
    else:
        contrast = _SCENARIO_CONTRAST[scenario] if asked is None else asked
    with _keyed(merged, *(key for key in _MASK_KEYS if merged[key])):  # the keys given
        mask = vampire_mask(region, contrast)
        reduce(profile, mask)  # the mask must pass some of the beam
    merged["mask.contrast"] = repr(contrast)

    detectors = {}
    for role in ("herald", "camera"):
        keys = (f"detector.{role}.efficiency", f"detector.{role}.dark_prob", "detector.bin_width")
        with _keyed(merged, *keys):
            detectors[f"{role}_detector"] = DetectorConfig(*(cfg[key] for key in keys))
    fields = ("seed", "superpixel", "dwell", "bins_cap", "threads")
    with _keyed(merged, *(f"scan.{name}" for name in fields), "detector.bin_width"):
        values = {name: cfg[f"scan.{name}"] for name in fields}
        scan = ScanConfig(mask, **detectors, **values)
    built = ScenarioConfig(scenario, source, scan, merged)
    if given:
        built.check_blocks()  # before derived_settings makes it, so the error names its keys
        derived = derived_settings(source, scan)
        for key, value in sorted(given.items()):
            if read_value(key, value) != (want := derived[key.partition(".")[2]]):
                raise ConfigMismatch(f"{key}={value}, but the config derives {want}")
    return built
