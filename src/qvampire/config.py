"""Flat key=value scenario configuration with env-var overrides.

The config format is one ``section.key=value`` pair per line, chosen so
sidecar echoes diff cleanly and any run can be reproduced by feeding its
echo back in.  Every key can also be overridden by an environment
variable: ``QVAMPIRE_`` plus the key upper-cased with dots replaced by
underscores (e.g. ``QVAMPIRE_SOURCE_NBAR``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigMismatch
from .montecarlo import (
    COINCIDENCE,
    DetectorConfig,
    ScanConfig,
    SINGLES,
    SourceConfig,
    THERMAL,
    derived_settings,
    load_sidecar as load_config,  # a config is read like a sidecar echo
)
from .spatial import (
    BeamProfile,
    contrast_for_herald_rate,
    ellipse_region,
    loss_profile,
    make_mask,
    make_profile,
    PROFILE_PARAMS,
    rect_region,
    silhouette_region,
    subtracted_profile_analytic,
)

ENV_PREFIX = "QVAMPIRE_"
REGION_FORMS = "all, silhouette, rect:<x0>,<y0>,<w>,<h> or ellipse:<cx>,<cy>,<rx>,<ry>"

SCENARIOS = ("initial", "loss_high_contrast", "loss_low_contrast", "subtraction")

DEFAULTS: dict[str, str] = {
    "scenario": "initial",
    "grid.width": "64",
    "grid.height": "48",
    "profile.kind": "uniform_ellipse_with_ring",
    "profile.cx": "",
    "profile.cy": "",
    "profile.rx": "",
    "profile.ry": "",
    "profile.ring_gain": "1.5",
    "profile.sigma_x": "",
    "profile.sigma_y": "",
    "mask.region": "silhouette",
    "mask.contrast": "",
    "mask.herald_target": "",
    "source.nbar": "1.0",
    "source.kind": "thermal",
    "source.coherence_time": "1e-06",
    "scan.superpixel": "11",
    "scan.dwell": "0.01",
    "scan.bins_cap": "1000000",
    "scan.trigger_mode": "",
    "scan.seed": "",
    "scan.threads": "1",
    "detector.bin_width": "1.2e-08",
    "detector.herald.efficiency": "0.6",
    "detector.herald.dark_prob": "0.0",
    "detector.camera.efficiency": "0.6",
    "detector.camera.dark_prob": "0.0",
}

# default vampire-mask contrasts per scenario when neither contrast nor
# herald target is given
_SCENARIO_CONTRAST = {
    "loss_high_contrast": "0.8",
    "loss_low_contrast": "0.3",
    "subtraction": "0.3",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: constructed objects plus the flat echo."""

    scenario: str
    source: SourceConfig
    scan: ScanConfig
    echo: dict

    def analytic_map(self) -> np.ndarray:
        """The camera intensity the scenario predicts, per pixel."""
        profile, mask, nbar = self.source.profile, self.scan.mask, self.source.nbar
        if self.scenario != "subtraction":
            # the initial scenario's white mask transmits the whole profile
            return loss_profile(profile, mask, nbar)
        # g2 of the source's photon statistics: Bose-Einstein 2, Poisson 1
        g2 = 2.0 if self.source.kind == THERMAL else 1.0
        return subtracted_profile_analytic(profile, mask, g2, nbar)


def apply_env_overrides(cfg: dict, environ) -> dict:
    """Overlay QVAMPIRE_* environment variables onto a config dict."""
    lookup = {key.replace(".", "_").upper(): key for key in DEFAULTS}
    out = dict(cfg)
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = lookup.get(name[len(ENV_PREFIX) :])
        if key is None:
            raise ConfigMismatch(f"unknown config override {name}")
        out[key] = value
    return out


def _resolve(cfg: dict) -> dict:
    unknown = set(cfg) - set(DEFAULTS)
    if unknown:
        raise ConfigMismatch(f"unknown config keys: {sorted(unknown)}")
    merged = dict(DEFAULTS)
    merged.update(cfg)
    return merged


def _number(key: str, value: str, kind=float):
    """A config value as ``kind`` (int or float); a ``ConfigMismatch`` names the key."""
    try:
        return kind(value)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigMismatch(f"{key}={value!r}: expected {expected}") from None


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
    except (KeyError, ValueError):
        raise ConfigMismatch(f"region spec {spec!r}: expected {REGION_FORMS}") from None
    return shape(width, height, x, y, a, b)


def _build_profile(merged: dict, width: int, height: int) -> BeamProfile:
    kind = merged["profile.kind"]
    if kind not in PROFILE_PARAMS:
        raise ConfigMismatch(f"unknown profile kind {kind!r}")
    # a key of another kind must keep its default, so no sidecar echoes an unused value
    stray = [
        key
        for key in DEFAULTS
        if key.startswith("profile.")
        and key.removeprefix("profile.") not in ("kind", *PROFILE_PARAMS[kind])
        and merged[key] != DEFAULTS[key]
    ]
    if stray:
        raise ConfigMismatch(f"profile kind {kind!r} takes no {', '.join(stray)}")
    given = {name: merged[f"profile.{name}"] for name in PROFILE_PARAMS[kind]}
    params = {
        name: _number(f"profile.{name}", value) for name, value in given.items() if value != ""
    }
    return make_profile(kind, width, height, **params)


def _detector(merged: dict, role: str) -> DetectorConfig:
    """The herald or camera detector; a range error names the key that fed it."""
    keys = {
        "efficiency": f"detector.{role}.efficiency",
        "dark_prob": f"detector.{role}.dark_prob",
        "bin_width": "detector.bin_width",
    }
    values = {field: _number(key, merged[key]) for field, key in keys.items()}
    try:
        return DetectorConfig(**values)
    except ConfigMismatch as exc:
        # each of DetectorConfig's range messages opens with its field's name
        key = next(key for field, key in keys.items() if str(exc).startswith(field))
        raise ConfigMismatch(f"{key}={merged[key]!r}: {exc}") from None


def build_scenario(cfg: dict, seed: int | None = None, threads: int | None = None) -> ScenarioConfig:
    """Assemble a scenario from a flat config dict.

    The scenario fixes the parts the physics requires: the initial run
    uses the white mask, the subtraction run acquires in coincidence
    mode.  A missing seed is generated and recorded in the echo.  The
    ``derived.*`` keys of a scan sidecar are accepted and must match what
    this config derives.
    """
    given = {key: value for key, value in cfg.items() if key.startswith("derived.")}
    merged = _resolve({key: value for key, value in cfg.items() if key not in given})
    scenario = merged["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigMismatch(f"unknown scenario {scenario!r}")
    width = _number("grid.width", merged["grid.width"], int)
    height = _number("grid.height", merged["grid.height"], int)
    nbar = _number("source.nbar", merged["source.nbar"])

    profile = _build_profile(merged, width, height)
    # checked before the herald target divides by nbar
    source = SourceConfig(
        nbar=nbar,
        profile=profile,
        coherence_time=_number("source.coherence_time", merged["source.coherence_time"]),
        kind=merged["source.kind"],
    )

    if scenario == "initial":
        mask = make_mask("white", width, height)
        merged["mask.contrast"] = "0.0"
    else:
        region = parse_region_spec(merged["mask.region"], width, height)
        if merged["mask.herald_target"] != "":
            target = _number("mask.herald_target", merged["mask.herald_target"])
            if not 0.0 <= target < np.inf:
                raise ConfigMismatch(f"mask.herald_target must be finite and >= 0, got {target!r}")
            try:
                contrast = contrast_for_herald_rate(profile, region, nbar, target)
            except ValueError as exc:  # the region cannot tap that much light
                raise ConfigMismatch(
                    f"mask.herald_target must be reachable, got {target!r}: {exc}"
                ) from None
        else:
            value = merged["mask.contrast"] or _SCENARIO_CONTRAST[scenario]
            contrast = _number("mask.contrast", value)
            if not 0.0 <= contrast <= 1.0:
                raise ConfigMismatch(f"mask.contrast must lie in [0, 1], got {contrast!r}")
        merged["mask.contrast"] = repr(contrast)
        mask = make_mask("vampire", width, height, contrast, region)

    trigger = merged["scan.trigger_mode"]
    if scenario == "subtraction":
        trigger = COINCIDENCE
    elif trigger == "":
        trigger = SINGLES
    merged["scan.trigger_mode"] = trigger

    if seed is not None:
        merged["scan.seed"] = str(seed)
    if merged["scan.seed"] == "":
        # os.urandom, not secrets: secrets loads hashlib and OpenSSL at import
        merged["scan.seed"] = str(int.from_bytes(os.urandom(8), "little") >> 1)
    if threads is not None:
        merged["scan.threads"] = str(threads)

    herald_det, camera_det = _detector(merged, "herald"), _detector(merged, "camera")
    scan = ScanConfig(
        mask=mask,
        seed=_number("scan.seed", merged["scan.seed"], int),
        superpixel=_number("scan.superpixel", merged["scan.superpixel"], int),
        dwell=_number("scan.dwell", merged["scan.dwell"]),
        bins_cap=_number("scan.bins_cap", merged["scan.bins_cap"], int),
        trigger_mode=trigger,
        herald_detector=herald_det,
        camera_detector=camera_det,
        threads=_number("scan.threads", merged["scan.threads"], int),
    )
    derived = derived_settings(source, scan) if given else {}
    for key, value in sorted(given.items()):
        name = key[len("derived.") :]
        if name not in derived:
            raise ConfigMismatch(f"unknown config keys: {[key]}")
        if _number(key, value) != derived[name]:
            raise ConfigMismatch(f"{key}={value}, but the config derives {derived[name]}")
    return ScenarioConfig(
        scenario=scenario,
        source=source,
        scan=scan,
        echo=merged,
    )
