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
    derived_settings,
    load_sidecar as load_config,  # a config is read like a sidecar echo
)
from .spatial import (
    BeamProfile,
    contrast_for_herald_rate,
    ellipse_region,
    make_mask,
    make_profile,
    PROFILE_PARAMS,
    rect_region,
    silhouette_region,
)

ENV_PREFIX = "QVAMPIRE_"

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


def _opt_float(value: str):
    return float(value) if value != "" else None


def parse_region_spec(spec: str, width: int, height: int) -> np.ndarray:
    """Pixel-set specs: all | silhouette | rect:x0,y0,w,h | ellipse:cx,cy,rx,ry."""
    if spec == "all":
        return np.ones((height, width), dtype=bool)
    if spec == "silhouette":
        return silhouette_region(width, height)
    kind, _, rest = spec.partition(":")
    if kind == "rect":
        x0, y0, w, h = (int(tok) for tok in rest.split(","))
        return rect_region(width, height, x0, y0, w, h)
    if kind == "ellipse":
        cx, cy, rx, ry = (float(tok) for tok in rest.split(","))
        return ellipse_region(width, height, cx, cy, rx, ry)
    raise ConfigMismatch(f"unknown region spec {spec!r}")


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
    params = {name: float(value) for name, value in given.items() if value != ""}
    return make_profile(kind, width, height, **params)


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
    width = int(merged["grid.width"])
    height = int(merged["grid.height"])
    nbar = float(merged["source.nbar"])

    profile = _build_profile(merged, width, height)
    # checked before the herald target divides by nbar
    source = SourceConfig(
        nbar=nbar,
        profile=profile,
        coherence_time=float(merged["source.coherence_time"]),
        kind=merged["source.kind"],
    )

    if scenario == "initial":
        mask = make_mask("white", width, height)
        merged["mask.contrast"] = "0.0"
    else:
        region = parse_region_spec(merged["mask.region"], width, height)
        target = _opt_float(merged["mask.herald_target"])
        if target is not None:
            if not 0.0 <= target < np.inf:
                raise ConfigMismatch(f"mask.herald_target must be finite and >= 0, got {target!r}")
            try:
                contrast = contrast_for_herald_rate(profile, region, nbar, target)
            except ValueError as exc:  # the region cannot tap that much light
                raise ConfigMismatch(
                    f"mask.herald_target must be reachable, got {target!r}: {exc}"
                ) from None
        else:
            contrast = float(merged["mask.contrast"] or _SCENARIO_CONTRAST[scenario])
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

    bin_width = float(merged["detector.bin_width"])
    herald_det = DetectorConfig(
        efficiency=float(merged["detector.herald.efficiency"]),
        dark_prob=float(merged["detector.herald.dark_prob"]),
        bin_width=bin_width,
    )
    camera_det = DetectorConfig(
        efficiency=float(merged["detector.camera.efficiency"]),
        dark_prob=float(merged["detector.camera.dark_prob"]),
        bin_width=bin_width,
    )
    scan = ScanConfig(
        mask=mask,
        seed=int(merged["scan.seed"]),
        superpixel=int(merged["scan.superpixel"]),
        dwell=float(merged["scan.dwell"]),
        bins_cap=int(merged["scan.bins_cap"]),
        trigger_mode=trigger,
        herald_detector=herald_det,
        camera_detector=camera_det,
        threads=int(merged["scan.threads"]),
    )
    derived = derived_settings(source, scan) if given else {}
    for key, value in sorted(given.items()):
        name = key[len("derived.") :]
        if name not in derived:
            raise ConfigMismatch(f"unknown config keys: {[key]}")
        if float(value) != derived[name]:
            raise ConfigMismatch(f"{key}={value}, but the config derives {derived[name]}")
    return ScenarioConfig(
        scenario=scenario,
        source=source,
        scan=scan,
        echo=merged,
    )
