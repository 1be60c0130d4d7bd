"""End-to-end CLI tests on miniature configs: schemas, round trips, exit codes."""

import csv
import math
import re
import warnings

import numpy as np
import pytest

from qvampire import cli, config, fock, montecarlo as mc, spatial, verify
from qvampire.errors import ConfigMismatch
from test_golden import DESK

SMOKE_CONFIG = """
scenario=subtraction
grid.width=32
grid.height=24
profile.kind=uniform_ellipse
profile.rx=14
profile.ry=10
mask.region=rect:11,8,10,8
mask.herald_target=0.013
source.nbar=1.0
scan.superpixel=4
scan.dwell=0.00012
scan.seed=123
"""


def write_config(tmp_path, text=SMOKE_CONFIG, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text.strip() + "\n")
    return path


def load_matrix_csv(path):
    # body of a 'width,height'-headed matrix CSV
    return np.loadtxt(path, delimiter=",", skiprows=1)


# ---------------------------------------------------------------------------
# config machinery


def test_parse_config_rejects_garbage(tmp_path):
    with pytest.raises(Exception):
        config.load_config(write_config(tmp_path, "scenario subtraction"))


def test_unknown_keys_rejected():
    with pytest.raises(Exception):
        config.build_scenario({"scenario": "initial", "mask.color": "red"})


def test_scenario_forcing_rules():
    init = config.build_scenario({"scenario": "initial", "scan.seed": "1"})
    assert np.all(init.scan.mask.transmission == 1.0)
    assert init.echo["mask.contrast"] == "0.0"
    # a contrast in range is echoed as given, over the same white mask
    given = config.build_scenario({"scenario": "initial", "mask.contrast": "0.5", "scan.seed": "1"})
    assert np.array_equal(given.scan.mask.transmission, init.scan.mask.transmission)
    assert given.echo["mask.contrast"] == "0.5"


@pytest.mark.parametrize(
    "setting, message",
    [("mask.contrast=2", "mask.contrast='2': contrast must lie in [0, 1]"),
     ("mask.herald_target=-1", "mask.herald_target='-1': herald_target must be finite and >= 0"),
     ("mask.region=rect:0,0", f"mask.region='rect:0,0': expected {config.REGION_FORMS}")],
    ids=["contrast", "herald_target", "region"],
)
def test_an_initial_scan_refuses_a_mask_value_out_of_range(tmp_path, capsys, setting, message):
    # the initial scenario scans the white mask, but checks the mask keys it is given
    text = SMOKE_CONFIG.replace("scenario=subtraction", "scenario=initial") + setting
    cfg = write_config(tmp_path, text)  # a later line overrides
    assert cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == f"qvampire: {message}\n"
    assert not (tmp_path / "s").exists()


def test_missing_seed_is_generated_and_recorded():
    scenarios = [config.build_scenario({"scenario": "initial"}) for _ in range(2)]
    for scenario in scenarios:
        assert scenario.echo["scan.seed"] == str(scenario.scan.seed)
        assert 0 <= scenario.scan.seed < 2**63
    assert scenarios[0].scan.seed != scenarios[1].scan.seed


def test_herald_target_resolves_contrast():
    scenario = config.build_scenario(
        {
            "scenario": "subtraction",
            "mask.region": "rect:16,12,16,12",
            "mask.herald_target": "0.013",
            "scan.seed": "1",
        }
    )
    reflected = 1.0 - scenario.scan.mask.transmission**2
    rate = float((reflected * scenario.source.profile.power()).sum()) * scenario.source.nbar
    assert abs(rate - 0.013) < 1e-12


def test_profile_keys_are_the_profile_params_table():
    keys = {key for key in config.DEFAULTS if key.startswith("profile.")} - {"profile.kind"}
    params = set().union(*spatial.PROFILE_PARAMS.values())
    assert keys == {f"profile.{name}" for name in params}
    with pytest.raises(ConfigMismatch, match="profile.kind='donut': expected uniform_ellipse, "):
        config.build_scenario({"profile.kind": "donut", "scan.seed": "1"})


def test_profile_keys_of_another_kind_must_keep_their_default():
    with pytest.raises(ConfigMismatch, match="takes no profile.rx"):
        config.build_scenario({"profile.kind": "gaussian", "profile.rx": "3", "scan.seed": "1"})
    with pytest.raises(ConfigMismatch, match="takes no profile.ring_gain, profile.sigma_x"):
        config.build_scenario(
            {
                "profile.kind": "uniform_ellipse",
                "profile.ring_gain": "2",
                "profile.sigma_x": "3",
                "scan.seed": "1",
            }
        )
    # a sidecar echoes every key, so another kind's defaults are accepted
    echo = config.build_scenario({"profile.kind": "gaussian", "scan.seed": "1"}).echo
    assert echo["profile.ring_gain"] == config.DEFAULTS["profile.ring_gain"]
    config.build_scenario(echo)


def test_gaussian_profile_config_builds_make_profile():
    scenario = config.build_scenario(
        {
            "profile.kind": "gaussian",
            "profile.sigma_x": "7",
            "profile.sigma_y": "5",
            "profile.cx": "20.5",
            "profile.cy": "26",
            "scan.seed": "1",
        }
    )
    expected = spatial.make_profile(
        "gaussian", 64, 48, cx=20.5, cy=26.0, sigma_x=7.0, sigma_y=5.0
    )
    assert np.array_equal(scenario.source.profile.amplitude, expected.amplitude)


@pytest.mark.parametrize(
    "key, value, expected",
    [("scan.superpixel", "abc", "an integer"), ("scan.dwell", "fast", "a number"),
     ("grid.width", "1.5", "an integer"), ("profile.rx", "wide", "a number"),
     ("scan.seed", "1.5", "an integer"), ("scan.bins_cap", "0", "an integer in [1, 2**63)")],
)
def test_cmd_scan_names_the_config_value_it_cannot_read(tmp_path, capsys, key, value, expected):
    lines = [line for line in SMOKE_CONFIG.strip().splitlines() if not line.startswith(key)]
    cfg = write_config(tmp_path, "\n".join([*lines, f"{key}={value}"]))
    rc = cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err == f"qvampire: {key}={value!r}: expected {expected}\n"


@pytest.mark.parametrize(
    "key, value, rule",
    [("detector.camera.efficiency", "2", "efficiency must lie in [0, 1]"),
     ("detector.herald.dark_prob", "1", "dark_prob must lie in [0, 1)")],
)
def test_detector_range_error_names_its_config_key(key, value, rule):
    with pytest.raises(ConfigMismatch) as caught:
        config.build_scenario({key: value, "scan.seed": "1"})
    assert str(caught.value) == f"{key}={value!r}: {rule}"


@pytest.mark.parametrize(
    "spec", ["rect:1,2", "rect:a,b,c,d", "ellipse:1", "blob:1", "rect:0,0,-1,2", "ellipse:1,1,0,2"]
)
def test_bad_region_spec_names_the_spec_and_its_forms(tmp_path, capsys, spec):
    forms = ("all", "silhouette", "rect:<x0>,<y0>,<w>,<h>", "ellipse:<cx>,<cy>,<rx>,<ry>")
    with pytest.raises(ConfigMismatch) as caught:
        config.parse_region_spec(spec, 32, 24)
    assert repr(spec) in str(caught.value) and all(form in str(caught.value) for form in forms)
    # a scan config prints that message alone: it names its key already
    bad = write_config(tmp_path, SMOKE_CONFIG.replace("rect:11,8,10,8", spec), "bad.cfg")
    assert cli.main(["scan", "--config", str(bad), "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == f"qvampire: {caught.value}\n"
    # a scan sidecar with the spec analyzes with no region, and its note says why
    out = _run_scan_cli(tmp_path, SMOKE_CONFIG, "sub.cfg", "sub")
    echo = mc.load_sidecar(out / "scan.cfg")
    mc.save_sidecar(out / "scan.cfg", {**echo, "mask.region": spec})
    capsys.readouterr()
    assert cli.main(["analyze", "--scan", str(out / "scan.csv"), "--out", str(tmp_path / "r")]) == 0
    err = capsys.readouterr().err
    assert f"no mask region (bad region spec or grid size: {caught.value})" in err


# a mask that passes no beam power: the whole beam behind an opaque mask
NO_POWER = {"mask.region": "all", "mask.contrast": "1", "mask.herald_target": None}


@pytest.mark.parametrize(
    "command, settings",
    [pytest.param("scan", {key: value}, id=f"{key}-{value}") for key, value in [
        ("scan.superpixel", "0"), ("source.nbar", "-1"), ("scan.bins_cap", "0"),
        ("scan.threads", "0"), ("grid.width", "99999999999999999999"),
        ("scan.superpixel", "99999999999999999999"), ("detector.bin_width", "1.5"),
        ("grid.width", str(2**62)), ("grid.height", str(2**28)),
        ("source.coherence_time", "1e-9"), ("source.coherence_time", "1.1e-8"),
        ("mask.herald_target", "-1")]]
    + [pytest.param("scan", {"grid.width": "2", "grid.height": "2", "mask.region": "silhouette"},
                    id="silhouette-off-a-tiny-grid"),
       # an unreachable target names the region that cannot tap enough light
       pytest.param("scan", {"mask.herald_target": "5", "mask.region": "rect:11,8,10,8"},
                    id="unreachable-herald-target"),
       pytest.param("scan", {"mask.contrast": "2", "mask.herald_target": None},
                    id="mask.contrast-2"),
       # a contrast beside a herald target must be the one the target solves
       pytest.param("scan", {"mask.contrast": "0.9", "mask.herald_target": "0.013"},
                    id="contrast-beside-herald-target"),
       pytest.param("scan", NO_POWER, id="opaque-mask"),
       pytest.param("profile", NO_POWER, id="profile-opaque-mask")],
)
def test_cmd_scan_names_the_key_of_a_value_out_of_range(tmp_path, capsys, command, settings):
    # a key set to None is left out of the smoke config
    lines = [line for line in SMOKE_CONFIG.strip().splitlines()
             if line.partition("=")[0] not in settings]
    given = {key: value for key, value in settings.items() if value is not None}
    cfg = write_config(tmp_path, "\n".join([*lines, *(f"{k}={v}" for k, v in given.items())]))
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert all(f"{key}={value!r}" in err for key, value in given.items()), err


@pytest.mark.parametrize("command", ["scan", "profile"])
def test_a_grid_too_large_to_allocate_names_its_keys(tmp_path, capsys, monkeypatch, command):
    # a grid too large for memory ends in numpy's MemoryError at its first array;
    # the grid here is small, and the error is raised in place of that array
    def no_memory(width, height, pad=0):
        raise MemoryError(f"Unable to allocate an array with shape ({height}, {width})")

    monkeypatch.setattr(spatial, "_grid", no_memory)
    cfg = write_config(tmp_path, SMOKE_CONFIG.replace("grid.width=32", "grid.width=4096"))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == (
        "qvampire: grid.width='4096', grid.height='24': the grid does not fit in memory\n"
    )


@pytest.mark.parametrize(
    "settings, bins",
    [("scan.dwell=0.5", 41_666_666),  # of 12 ns bins, 41.7 times the default cap
     ("scan.dwell=0.096\nscan.bins_cap=8000000", 8_000_000),  # scan_desk: at its cap
     ("scan.bins_cap=9999", 10_000),  # the smoke dwell, one bin over the cap
     ("scan.bins_cap=10000", 10_000)],
    ids=["cut", "scan_desk", "cut_by_one", "at_the_cap"],
)
def test_cmd_scan_draws_the_whole_dwell_past_the_bin_cap(tmp_path, capsys, settings, bins):
    cfg = write_config(tmp_path, SMOKE_CONFIG + settings)  # a later line overrides
    out = tmp_path / "s"
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert mc.load_sidecar(out / "scan.cfg")["derived.n_bins"] == str(bins)
    assert (np.loadtxt(out / "scan.csv", delimiter=",", skiprows=1)[:, 2] == bins).all()


@pytest.mark.parametrize(
    "settings, given",
    [("scan.dwell=1e12", "scan.dwell='1e12', detector.bin_width='1.2e-08'"),
     ("detector.bin_width=5e-324\nsource.kind=coherent",
      "scan.dwell='0.00012', detector.bin_width='5e-324'")],
    ids=["past_int64", "subnormal_bin"],
)
def test_cmd_scan_refuses_a_dwell_of_2_63_bins(tmp_path, capsys, settings, given):
    cfg = write_config(tmp_path, SMOKE_CONFIG + settings)
    assert cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    dwell = float(given.split("'")[1])
    assert capsys.readouterr().err == (
        f"qvampire: {given}: dwell must be at least one bin_width and hold fewer than "
        f"2**63 bins, got {dwell!r}\n"
    )
    assert not (tmp_path / "s").exists()


def test_cmd_scan_totals_camera_counts_past_int64(tmp_path, capsys):
    # four tiles of 8.3e18 bins whose camera counts sum past 2**63
    cfg = write_config(tmp_path, """
scenario=subtraction
grid.width=8
grid.height=8
profile.kind=uniform_ellipse
mask.region=rect:0,0,4,4
mask.contrast=0.3
source.kind=coherent
source.nbar=1000
scan.superpixel=4
scan.dwell=1e11
scan.seed=1
""")
    out = tmp_path / "s"
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    counts = np.loadtxt(out / "scan.csv", delimiter=",", skiprows=1, dtype=np.int64)[:, 3]
    total = sum(counts.tolist())
    assert total >= 2**63
    assert capsys.readouterr().out.endswith(f"camera_counts={total}\n")


def test_a_bin_count_beyond_int64_is_rejected_before_the_scan():
    # a 1e12 s dwell holds 8.3e19 bins of 12 ns, which no cap below 2**63 lets through
    with pytest.raises(ConfigMismatch, match=r"scan.bins_cap='99999999999999999999': expected"):
        config.build_scenario(
            {"scan.dwell": "1e12", "scan.bins_cap": "99999999999999999999", "scan.seed": "1"}
        )


def test_cmd_profile_takes_a_coherence_block_the_scan_cannot_draw(tmp_path):
    # the analytic maps do not depend on the coherence time; only the scan checks
    # its block, which must span at least one bin
    cfg = write_config(tmp_path, SMOKE_CONFIG + "source.coherence_time=1.1e-8\n")
    assert cli.main(["profile", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
    assert cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1


def test_main_lets_a_bare_value_error_through(tmp_path, monkeypatch):
    # a ValueError that reaches main is a bug, not a validation message
    def broken(args):
        raise ValueError("not the package's message")

    monkeypatch.setattr(cli, "cmd_profile", broken)
    with pytest.raises(ValueError):
        cli.main(["profile", "--config", str(write_config(tmp_path)), "--out", str(tmp_path)])


# ---------------------------------------------------------------------------
# profile command


def test_cmd_profile_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("herald_rate=")
    assert abs(float(printed.split("=", 1)[1]) - 0.013) < 1e-9
    intensity = load_matrix_csv(out / "intensity.csv")
    profile = load_matrix_csv(out / "profile.csv")
    mask = load_matrix_csv(out / "mask.csv")
    # subtraction scenario: thermal doubling against the unmasked profile
    expected = 2.0 * (mask * profile) ** 2 * 1.0
    live = intensity > 0
    assert np.abs(intensity[live] / expected[live] - 1.0).max() < 1e-6
    assert (out / "intensity.pgm").exists() and (out / "mask.pgm").exists()


def test_cmd_profile_of_a_seedless_config_is_reproducible(tmp_path, capsys):
    # profile draws nothing, so it echoes no seed; scan draws one and echoes it
    cfg = write_config(tmp_path, DESK)
    outputs = []
    for name in ("a", "b"):
        assert cli.main(["profile", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        outputs.append({path.name: path.read_bytes() for path in (tmp_path / name).iterdir()})
    assert outputs[0] == outputs[1]
    assert mc.load_sidecar(tmp_path / "a" / "profile.cfg")["scan.seed"] == ""
    assert cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "scan")]) == 0
    seed = capsys.readouterr().out.split("seed=")[1].split(",")[0]
    assert mc.load_sidecar(tmp_path / "scan" / "scan.cfg")["scan.seed"] == seed


def test_cmd_profile_high_contrast_casts_shadow(tmp_path):
    text = SMOKE_CONFIG.replace("subtraction", "loss_high_contrast").replace(
        "mask.herald_target=0.013", "mask.herald_target=0.1"
    )
    cfg = write_config(tmp_path, text)
    out = tmp_path / "loss"
    assert cli.main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
    intensity = load_matrix_csv(out / "intensity.csv")
    inside = intensity[10, 14]  # in-region pixel
    outside = intensity[10, 4]  # in-beam pixel outside the region
    assert inside < 0.7 * outside


@pytest.mark.parametrize("kind, nbar, g2", [("thermal", "5", 2.0), ("coherent", "60", 1.0)])
def test_cmd_profile_takes_g2_from_the_source_kind_at_any_nbar(tmp_path, kind, nbar, g2):
    lines = [line for line in SMOKE_CONFIG.strip().splitlines() if not line.startswith("source.")]
    cfg = write_config(tmp_path, "\n".join([*lines, f"source.kind={kind}", f"source.nbar={nbar}"]))
    out = tmp_path / "prof"
    assert cli.main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
    scenario = config.build_scenario(config.load_config(cfg))
    unheralded = scenario.scan.mask.transmission**2 * scenario.source.profile.power() * float(nbar)
    intensity = load_matrix_csv(out / "intensity.csv")
    live = unheralded > 0
    assert np.all(intensity[~live] == 0.0)
    assert np.abs(intensity[live] / (g2 * unheralded[live]) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# scan command


def test_cmd_scan_roundtrip_and_schema(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "scan"
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == mc.SCAN_CSV_HEADER
    assert len(lines) == 1 + 8 * 6  # 32x24 grid, superpixel 4
    echo = mc.load_sidecar(out / "scan.cfg")
    assert echo["scan.seed"] == "123"
    result = mc.load_scan_csv(out / "scan.csv", config=echo)
    assert result.grid("coincidence_counts").sum() > 0  # sanity: heralds fire


def test_cmd_scan_reproducible_from_sidecar(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "first"
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out1)]) == 0
    # the echo itself, derived.* lines included, is a config reproducing the identical run
    out2 = tmp_path / "second"
    assert cli.main(["scan", "--config", str(out1 / "scan.cfg"), "--out", str(out2)]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    assert (out1 / "scan.cfg").read_bytes() == (out2 / "scan.cfg").read_bytes()


def test_cmd_scan_rejects_sidecar_with_edited_derived_value(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "first"
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out1)]) == 0
    echo = mc.load_sidecar(out1 / "scan.cfg")
    with pytest.raises(ConfigMismatch, match="derived.n_bins"):
        config.build_scenario({**echo, "derived.n_bins": str(int(echo["derived.n_bins"]) + 1)})
    with pytest.raises(ConfigMismatch, match="unknown config keys"):
        config.build_scenario({**echo, "derived.n_tiles": "48"})
    config.build_scenario(echo)  # the unedited echo is accepted
    edited = tmp_path / "edited.cfg"
    edited.write_text((out1 / "scan.cfg").read_text().replace("derived.n_bins=", "derived.n_bins=1"))
    assert cli.main(["scan", "--config", str(edited), "--out", str(tmp_path / "second")]) == 1
    assert "derived.n_bins" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "profile"])
def test_a_fed_back_sidecar_names_the_keys_of_its_coherence_block(tmp_path, capsys, command):
    # the derived.* lines make build_scenario derive the block, which must
    # name its keys as a scan's own block check does
    out = tmp_path / "first"
    assert cli.main(["scan", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    echo = mc.load_sidecar(out / "scan.cfg")
    assert "derived.bins_per_block" in echo
    mc.save_sidecar(tmp_path / "fed.cfg", {**echo, "source.coherence_time": "1e-09"})
    capsys.readouterr()
    rc = cli.main([command, "--config", str(tmp_path / "fed.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "qvampire: source.coherence_time='1e-09', detector.bin_width='1.2e-08': "
        "coherence_time must be at least one bin_width\n"
    )


def test_cmd_scan_thread_count_does_not_change_bytes(tmp_path):
    outs = []
    for threads in (1, 4):
        cfg = write_config(tmp_path, SMOKE_CONFIG + f"scan.threads={threads}\n", f"t{threads}.cfg")
        out = tmp_path / f"t{threads}"
        assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "scan.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cmd_scan_seed_flag_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cli.main(["scan", "--config", str(cfg), "--out", str(out_a), "--seed", "99"])
    cli.main(["scan", "--config", str(cfg), "--out", str(out_b)])
    assert mc.load_sidecar(out_a / "scan.cfg")["scan.seed"] == "99"
    assert (out_a / "scan.csv").read_bytes() != (out_b / "scan.csv").read_bytes()


def test_qvampire_environment_variables_change_no_scan(tmp_path, capsys, monkeypatch):
    # a run reads only its config file and flags
    cfg = write_config(tmp_path)
    runs = []
    for name in ("plain", "env"):
        if name == "env":
            monkeypatch.setenv("QVAMPIRE_SOURCE_NBAR", "2.5")
            monkeypatch.setenv("QVAMPIRE_FOO", "1")
        out = tmp_path / name
        assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
        files = [(out / file).read_bytes() for file in ("scan.csv", "scan.cfg")]
        runs.append([capsys.readouterr().out, *files])
    assert runs[0] == runs[1]


def test_bad_config_is_validation_error(tmp_path):
    cfg = write_config(tmp_path, "scenario=haunting\nscan.seed=1")
    assert cli.main(["profile", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "key", ["source.nbar", "source.coherence_time", "scan.dwell", "detector.bin_width"]
)
def test_cmd_scan_rejects_non_finite_config_value(tmp_path, capsys, key, value):
    lines = [line for line in SMOKE_CONFIG.strip().splitlines() if not line.startswith(key)]
    cfg = write_config(tmp_path, "\n".join([*lines, f"{key}={value}"]))
    rc = cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    field = key.rpartition(".")[2]
    assert f"{field} must be" in err and f"got {value}" in err


def test_cmd_scan_rejects_ring_gain_inf_before_dividing(tmp_path, capsys):
    text = SMOKE_CONFIG.replace("uniform_ellipse", "uniform_ellipse_with_ring")
    cfg = write_config(tmp_path, text + "profile.ring_gain=inf")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc == 1
    rule = "ring_gain must be non-negative and finite, got inf"
    assert err == f"qvampire: profile.ring_gain='inf': {rule}\n"
    assert caught == []


@pytest.mark.parametrize(
    "key, value",
    [("mask.herald_target", "nan"), ("mask.herald_target", "-1"), ("mask.herald_target", "inf"),
     ("mask.herald_target", "5"),
     ("mask.contrast", "nan"), ("mask.contrast", "-0.5"), ("mask.contrast", "1.5")],
)
def test_cmd_scan_names_the_mask_value_it_rejects(tmp_path, capsys, key, value):
    lines = SMOKE_CONFIG.strip().splitlines()
    lines = [line for line in lines if not line.startswith("mask.herald_target")]
    cfg = write_config(tmp_path, "\n".join([*lines, f"{key}={value}"]))
    rc = cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith(f"qvampire: {key}={value!r}")


def test_cmd_scan_takes_a_contrast_beside_a_herald_target_only_as_solved(tmp_path, capsys):
    solved = config.build_scenario(config.load_config(write_config(tmp_path))).echo["mask.contrast"]
    runs = {}
    for name, contrast in (("alone", None), ("solved", solved), ("other", "0.9")):
        text = SMOKE_CONFIG if contrast is None else f"{SMOKE_CONFIG}mask.contrast={contrast}\n"
        cfg = write_config(tmp_path, text, f"{name}.cfg")
        runs[name] = cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / name)])
    err = capsys.readouterr().err
    # the solved contrast, as the echo writes it, reproduces the run
    assert runs == {"alone": 0, "solved": 0, "other": 1}
    assert (tmp_path / "alone" / "scan.csv").read_bytes() == (
        tmp_path / "solved" / "scan.csv").read_bytes()
    assert err == (f"qvampire: mask.contrast='0.9', mask.herald_target='0.013': "
                   f"the target solves contrast {solved}\n")


@pytest.mark.parametrize(
    "width, rule",
    [("0", "gaussian widths must be positive"),
     ("1e-300", "gaussian: no power left to normalize"),  # its square underflows to 0
     ("1e155", None)],  # its square overflows: the beam is flat along x
)
def test_cmd_profile_ends_a_gaussian_width_in_maps_or_one_line(tmp_path, capsys, width, rule):
    cfg = write_config(tmp_path, f"profile.kind=gaussian\nprofile.sigma_x={width}")
    rc = cli.main(["profile", "--config", str(cfg), "--out", str(tmp_path / "p")])
    err = capsys.readouterr().err
    if rule is None:
        assert (rc, err) == (0, "")
    else:
        given = "profile.kind='gaussian', grid.width='64', grid.height='48'"
        assert (rc, err) == (1, f"qvampire: {given}, profile.sigma_x={width!r}: {rule}\n")


@pytest.mark.parametrize(
    "key, value, cause",
    [("source.nbar", "0", "source.nbar = 0.0 gives no herald rate"),
     # nbar times the region's power fraction underflows to no rate
     ("source.nbar", "5e-324", "source.nbar = 5e-324 gives no herald rate"),
     ("mask.region", "rect:0,0,1,1", "mask.region carries no beam power"),
     # so dim a source needs a contrast^2 of 300 digits, printed to 3 figures
     ("source.nbar", "1e-300", "needs contrast^2 = 7.21e+298 > 1")],
    ids=["nbar_zero", "nbar_subnormal", "region_off_beam", "nbar_dim"],
)
def test_cmd_scan_names_why_the_herald_target_is_unreachable(tmp_path, capsys, key, value, cause):
    lines = [line for line in SMOKE_CONFIG.strip().splitlines() if not line.startswith(key)]
    cfg = write_config(tmp_path, "\n".join([*lines, f"{key}={value}"]))
    rc = cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 1
    region = value if key == "mask.region" else "rect:11,8,10,8"
    given = f"mask.herald_target='0.013', mask.region={region!r}"
    assert capsys.readouterr().err == f"qvampire: {given}: the target is out of reach: {cause}\n"


@pytest.mark.parametrize("command", ["profile", "scan"])
def test_a_herald_target_whose_contrast_leaves_t_at_1_is_refused(tmp_path, capsys, command):
    # at source.nbar=1e308 the target solves a contrast near 1e-155, whose
    # t = sqrt(1 - c^2) is exactly 1: the mask would tap no light, and profile
    # printed herald_rate=0.0 for a target of 0.013
    cfg = write_config(tmp_path, SMOKE_CONFIG.replace("source.nbar=1.0", "source.nbar=1e308"))
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    given = "mask.herald_target='0.013', mask.region='rect:11,8,10,8'"
    assert err.startswith(f"qvampire: {given}: the target is out of reach: source.nbar = 1e+308 "
                          "solves contrast ")
    assert err.endswith(", which leaves t = sqrt(1 - contrast^2) at 1, so the mask taps no light\n")
    assert err.count("\n") == 1


def test_cmd_scan_names_source_nbar_when_no_block_rule_is_certified(tmp_path, capsys):
    # at source.nbar=1e308 the herald sees 1e305 photons a bin, past what any
    # rule within the node cap integrates; the bound refuses it without a
    # floating-point warning, where the check it replaced overflowed to nan.
    # A coherence time scales s x as much as the brightness does: blocks of
    # 83333 bins at source.nbar=300 are refused too, and both keys are named
    text = SMOKE_CONFIG.replace("mask.herald_target=0.013", "mask.contrast=0.3")
    # the long block's dwell holds two blocks, so each tile takes a rule
    for nbar, tau, dwell, bins in (("1e308", "1e-06", "0.00012", 83),
                                   ("300", "1e-3", "0.002", 83333)):
        lines = text.replace("source.nbar=1.0", f"source.nbar={nbar}")
        lines = lines.replace("scan.dwell=0.00012", f"scan.dwell={dwell}")
        cfg = write_config(tmp_path, lines + f"source.coherence_time={tau}")
        rc = cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, ""), nbar
        given = re.escape(f"source.nbar={nbar!r}, source.coherence_time={tau!r}")
        assert re.fullmatch(rf"qvampire: {given}: block rule \({bins} bins, x_cam \S+, x_her "
                            r"\S+\) has error bound \S+ decades above 1e-12 at best within 16384 "
                            r"nodes\n", err)


# the brightest source.nbar whose block rule SMOKE_CONFIG's scan certifies,
# bisected to the float, and the next float
BRIGHTEST_CERTIFIED_NBAR = 211599.1129294304
FIRST_REFUSED_NBAR = 211599.11292943044


def test_a_refusal_just_past_the_brightest_certified_source_prints_its_breach(tmp_path, capsys):
    # one ulp past the threshold the bound exceeds the tolerance by about 1e-15
    # decades: the refusal prints that margin, not a bound that reads as equal
    # to the tolerance
    assert math.nextafter(BRIGHTEST_CERTIFIED_NBAR, math.inf) == FIRST_REFUSED_NBAR
    for nbar, code in ((BRIGHTEST_CERTIFIED_NBAR, 0), (FIRST_REFUSED_NBAR, 1)):
        cfg = write_config(tmp_path, SMOKE_CONFIG.replace("source.nbar=1.0", f"source.nbar={nbar!r}"))
        rc = cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert rc == code, err
    given = f"source.nbar={str(FIRST_REFUSED_NBAR)!r}, source.coherence_time='1e-06'"
    assert err.startswith(f"qvampire: {given}: block rule (83 bins, ")
    margin = float(re.search(r" has error bound (\S+) decades above 1e-12 at ", err)[1])
    assert 0.0 < margin < 1e-12, err


@pytest.mark.parametrize("command", ["profile", "scan"])
@pytest.mark.parametrize(
    "key, value",
    [("profile.cx", "1e308"), ("profile.cy", "-1.7976931348623157e308"), ("profile.rx", "5e-324")],
)
def test_an_ellipse_beyond_the_float_range_ends_in_one_line(tmp_path, capsys, command, key, value):
    # ((x - cx) / rx)^2 once overflowed, and its warning came before the refusal
    lines = [line for line in SMOKE_CONFIG.strip().splitlines() if not line.startswith(key)]
    cfg = write_config(tmp_path, "\n".join([*lines, f"{key}={value}"]))
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err.startswith("qvampire: profile.kind='uniform_ellipse'") and err.count("\n") == 1
    assert f"{key}={value!r}" in err and err.endswith(": ellipse does not cover any pixel\n")


def test_cmd_scan_takes_a_block_of_83333_bins_of_either_source_kind(tmp_path, capsys):
    # a coherent tile is one block of all its bins, so its coherence time moves
    # no count; a thermal tile's rule is certified at any block length, so a
    # dwell of two such blocks scans too
    csvs = []
    for tau in ("1e-06", "0.001"):
        text = SMOKE_CONFIG + f"source.kind=coherent\nsource.coherence_time={tau}"
        cfg = write_config(tmp_path, text, f"{tau}.cfg")
        out = tmp_path / tau
        assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
        csvs.append((out / "scan.csv").read_bytes())
    assert csvs[0] == csvs[1]
    assert mc.load_sidecar(out / "scan.cfg")["derived.bins_per_block"] == "83333"
    text = SMOKE_CONFIG.replace("scan.dwell=0.00012", "scan.dwell=0.002")
    cfg = write_config(tmp_path, text + "source.coherence_time=0.001", "thermal.cfg")
    out = tmp_path / "thermal"
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert mc.load_sidecar(out / "scan.cfg")["derived.bins_per_block"] == "83333"


def test_usage_error_exit_code(capsys):
    assert cli.main(["scan"]) == 1  # missing required flags
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify command


def test_cmd_verify_schema_and_pass(tmp_path, capsys):
    out = tmp_path / "verify"
    rc = cli.main(
        [
            "verify",
            "--out",
            str(out),
            "--states",
            "thermal:0.5,fock:2",
            "--ca",
            "0.5",
            "--r",
            "0.1",
            "--models",
            "operator,click_povm",
            "--nmax",
            "20",
        ]
    )
    assert rc == 0
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[0] == cli.VERIFY_CSV_HEADER
    assert len(lines) == 1 + 2 * 1 * 1 * 2
    printed = capsys.readouterr().out
    assert "PASS" in printed and "INFO" in printed


def test_cmd_verify_prints_margins(tmp_path, monkeypatch, capsys):
    # spread the fidelities so the minimum is one case, not all of them
    exact, step = fock.fidelity, iter(range(100))
    monkeypatch.setattr(fock, "fidelity", lambda a, b: exact(a, b) - 1e-11 * next(step))
    rc = cli.main(
        ["verify", "--out", str(tmp_path / "v"), "--states", "thermal:0.5,thermal:1",
         "--ca", "0.1,0.5", "--r", "0.2", "--models", "operator,click_povm"]
    )
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "v" / "verify.csv").open()))
    op = [row for row in rows if row["herald_model"] == "operator"]
    margin = min(float(row["fidelity"]) for row in op) - verify.FIDELITY_FLOOR
    comp = max(float(row["complement_population"]) for row in op)
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == (
        f"verify: 8 cases; operator model: min fidelity - floor = {margin:+.3e}, "
        f"max complement population = {comp:.3e}"
    )


def test_cmd_verify_click_only_prints_count(tmp_path, capsys):
    rc = cli.main(
        ["verify", "--out", str(tmp_path / "v"), "--states", "fock:1", "--ca", "0.5",
         "--r", "0.1", "--models", "click_povm", "--nmax", "8"]
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verify: 1 cases"


def test_cmd_verify_empty_sweep_is_usage_error(tmp_path, capsys):
    rc = cli.main(["verify", "--out", str(tmp_path / "v"), "--states", ""])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("option", ["--ca", "--states"])
def test_cmd_verify_names_the_option_that_empties_the_sweep(tmp_path, capsys, option):
    rc = cli.main(["verify", "--out", str(tmp_path / "v"), option, ""])
    printed = capsys.readouterr()
    assert rc == 1 and printed.out == ""
    assert printed.err == f"qvampire: {option} '': no value, so the sweep is empty\n"


@pytest.mark.parametrize(
    "flag, value",
    [("--states", "thermal:0.5,fock:1,bogus:1"), ("--ca", "0.5,1.5"), ("--r", "0.1,-0.2"),
     ("--models", "operator,bogus"),
     # no photon to subtract, or none that reaches the herald
     ("--states", "thermal:1,fock:0"), ("--ca", "0.5,0"), ("--r", "0.1,0")],
)
def test_cmd_verify_checks_the_whole_sweep_before_the_first_case(tmp_path, capsys, flag, value):
    out = tmp_path / "v"
    rc = cli.main(["verify", "--out", str(out), flag, value])
    printed = capsys.readouterr()
    assert rc == 1
    assert printed.out == ""
    assert printed.err.count("\n") == 1 and value.rpartition(",")[2] in printed.err
    assert not (out / "verify.csv").exists()


@pytest.mark.parametrize(
    "option, value, rule",
    [("--ca", "x", "could not convert string to float: 'x'"),
     ("--ca", "2", "c_a must lie in (0, 1], got 2.0"),
     ("--r", "0.1,-0.2", "r must lie in (0, 1], got -0.2"),
     ("--models", "foo", "herald_model 'foo' is not one of ('operator', 'click_povm')")],
)
def test_cmd_verify_names_the_option_of_a_bad_value(tmp_path, capsys, option, value, rule):
    rc = cli.main(["verify", "--out", str(tmp_path / "v"), option, value])
    assert rc == 1
    assert capsys.readouterr().err == f"qvampire: {option} {value!r}: {rule}\n"


@pytest.mark.parametrize("spec", ["thermal", "thermal:", "fock:2.5", "coherent:x", "squeezed:1"])
def test_cmd_verify_bad_state_spec_names_the_spec_and_its_forms(tmp_path, capsys, spec):
    rc = cli.main(["verify", "--out", str(tmp_path / "v"), "--states", spec])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and repr(spec) in err
    assert all(form in err for form in ("thermal:<nbar>", "coherent:<alpha>", "fock:<n>"))


@pytest.mark.parametrize(
    "option, message",
    [
        (["--states", "thermal:-1"], "state spec 'thermal:-1': nbar must be non-negative"),
        (["--nmax", "0"], "--nmax must be at least 1, got 0"),  # blames no state spec
        # no photon to subtract
        (["--states", "thermal:1e-20"],
         "state spec 'thermal:1e-20': mean photon number 1.000e-20 below 1e-14"),
    ],
    ids=["state", "nmax", "vacuum"],
)
def test_cmd_verify_state_out_of_range_names_the_spec(tmp_path, capsys, option, message):
    rc = cli.main(["verify", "--out", str(tmp_path / "v"), *option])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"qvampire: {message}\n"
    assert not (tmp_path / "v").exists()


def test_cmd_verify_names_the_case_an_error_stops(tmp_path, capsys):
    # a positive r too small for the herald, or an n-bar of 1e-14 at the default c_A and r,
    # passes the parse but fails its case; no line prints, not even of a case that passed
    for argv, case in (
        (["--states", "fock:2", "--ca", "0.5", "--r", "0.1,1e-20", "--nmax", "8"],
         "fock:2 c_A=0.5 r=1e-20 operator: herald weight "),
        (["--states", "thermal:1,coherent:1e-7"],
         "coherent:1e-7 c_A=0.1 r=0.05 operator: herald weight 2.500e-19 below 1e-14\n"),
    ):
        rc = cli.main(["verify", "--out", str(tmp_path / "v"), *argv])
        printed = capsys.readouterr()
        assert rc == 1
        assert printed.out == ""
        assert printed.err.startswith(f"qvampire: case {case}")
        assert printed.err.count("\n") == 1
        assert not (tmp_path / "v" / "verify.csv").exists()


def test_cmd_verify_breach_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fock, "fidelity", lambda a, b: 0.5)
    rc = cli.main(
        ["verify", "--out", str(tmp_path / "v"), "--states", "fock:1", "--ca", "0.5",
         "--r", "0.1", "--nmax", "8"]
    )
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "spec, value",
    [("thermal:nan", "nan"), ("thermal:inf", "inf"), ("coherent:nan", "nan"),
     ("coherent:inf", "inf"), ("coherent:1+nanj", "(1+nanj)")],
)
def test_cmd_verify_rejects_non_finite_state_parameter(tmp_path, capsys, spec, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["verify", "--out", str(tmp_path / "v"), "--states", spec])
    err = capsys.readouterr().err
    assert rc == 1
    assert value in err and "finite" in err
    assert "Eigenvalues" not in err and "Warning" not in err
    assert caught == []


# ---------------------------------------------------------------------------
# analyze command


def _run_scan_cli(tmp_path, text, name, out_name):
    cfg = write_config(tmp_path, text, name)
    out = tmp_path / out_name
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_cmd_analyze_subtraction_flags_no_shadow(tmp_path, capsys):
    text = SMOKE_CONFIG.replace("scan.dwell=0.00012", "scan.dwell=0.012")
    out = _run_scan_cli(tmp_path, text, "sub.cfg", "sub")
    report = tmp_path / "report"
    rc = cli.main(["analyze", "--scan", str(out / "scan.csv"), "--out", str(report)])
    assert rc == 0
    summary = mc.load_sidecar(report / "summary.txt")
    assert summary["verdict"] == "NO_SHADOW"
    assert abs(float(summary["best_const"]) - 2.0) < 0.1
    assert float(summary["p_value"]) > 0.01
    lines = (report / "ratio_map.csv").read_text().splitlines()
    assert lines[0] == cli.RATIO_CSV_HEADER
    cut = (report / "cut.csv").read_text().splitlines()
    assert cut[0] == cli.CUT_CSV_HEADER
    capsys.readouterr()


def test_cmd_analyze_loss_flags_shadow(tmp_path, capsys):
    loss_text = (
        SMOKE_CONFIG.replace("subtraction", "loss_high_contrast")
        .replace("mask.herald_target=0.013", "mask.herald_target=0.1")
        .replace("scan.dwell=0.00012", "scan.dwell=0.006")
    )
    init_text = (
        SMOKE_CONFIG.replace("subtraction", "initial")
        .replace("scan.seed=123", "scan.seed=124")
        .replace("scan.dwell=0.00012", "scan.dwell=0.006")
    )
    loss_out = _run_scan_cli(tmp_path, loss_text, "loss.cfg", "loss")
    init_out = _run_scan_cli(tmp_path, init_text, "init.cfg", "init")
    report = tmp_path / "report"
    rc = cli.main(
        [
            "analyze",
            "--scan",
            str(loss_out / "scan.csv"),
            "--reference",
            str(init_out / "scan.csv"),
            "--out",
            str(report),
        ]
    )
    assert rc == 0
    summary = mc.load_sidecar(report / "summary.txt")
    assert summary["verdict"] == "SHADOW"
    assert float(summary["z_score"]) > 5.0
    assert float(summary["p_value"]) < 1e-6
    capsys.readouterr()


def test_cmd_analyze_names_missing_sidecar(tmp_path, capsys):
    out = _run_scan_cli(tmp_path, SMOKE_CONFIG, "sub.cfg", "sub")
    (out / "scan.cfg").unlink()
    capsys.readouterr()
    rc = cli.main(["analyze", "--scan", str(out / "scan.csv"), "--out", str(tmp_path / "r")])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "no sidecar" in captured.err
    assert "z=nan" in captured.out


def test_cmd_analyze_names_defaulted_sidecar_keys(tmp_path, capsys):
    # two independent initial scans; without their sidecars analyze drops
    # the thermal bunching term (bins_per_block falls back to 1)
    text = """
scenario=initial
grid.width=64
grid.height=48
profile.kind=uniform_ellipse
profile.rx=28
profile.ry=20
scan.superpixel=4
scan.dwell=0.02
"""
    cfg = write_config(tmp_path, text)
    for name, seed in (("a", 43), ("b", 44)):
        argv = ["scan", "--config", str(cfg), "--out", str(tmp_path / name), "--seed", str(seed)]
        assert cli.main(argv) == 0
    scan_a, scan_b = tmp_path / "a" / "scan.csv", tmp_path / "b" / "scan.csv"
    argv = ["analyze", "--scan", str(scan_a), "--reference", str(scan_b)]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "with")]) == 0
    assert "defaults used" not in capsys.readouterr().err
    (tmp_path / "a" / "scan.cfg").unlink()
    (tmp_path / "b" / "scan.cfg").unlink()
    assert cli.main(argv + ["--out", str(tmp_path / "without")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line, path in zip(err, (scan_a, scan_b)):
        assert line.startswith(f"analyze: {path}: ")
        for used in ("derived.bins_per_block=1", "source.kind=thermal"):
            assert used in line


def test_cmd_analyze_grid_mismatch(tmp_path, capsys):
    out = _run_scan_cli(tmp_path, SMOKE_CONFIG, "a.cfg", "a")
    other_text = SMOKE_CONFIG.replace("scan.superpixel=4", "scan.superpixel=8")
    other = _run_scan_cli(tmp_path, other_text, "b.cfg", "b")
    rc = cli.main(
        [
            "analyze",
            "--scan",
            str(out / "scan.csv"),
            "--reference",
            str(other / "scan.csv"),
            "--out",
            str(tmp_path / "r"),
        ]
    )
    assert rc == 1
    capsys.readouterr()


def test_cmd_analyze_rejects_sidecar_raster_off_the_csv_grid(tmp_path, capsys):
    # 32x24 pixels tile 6x8 at superpixel 4; an edited superpixel 5 tiles 5x7
    out = _run_scan_cli(tmp_path, SMOKE_CONFIG, "sub.cfg", "sub")
    sidecar = out / "scan.cfg"
    text = sidecar.read_text()
    assert "scan.superpixel=4\n" in text
    sidecar.write_text(text.replace("scan.superpixel=4\n", "scan.superpixel=5\n"))
    capsys.readouterr()
    rc = cli.main(["analyze", "--scan", str(out / "scan.csv"), "--out", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "scan.superpixel=5: " in err and "5x7 grid" in err and "scan grid is 6x8" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("source.kind", "thermla"),
        ("derived.bins_per_block", "0"),
        ("derived.bins_per_block", "abc"),
        ("derived.bins_per_block", str(2**63)),  # beyond what int64 holds
    ],
)
def test_cmd_analyze_rejects_sidecar_value_it_cannot_read(tmp_path, capsys, key, value):
    out = _run_scan_cli(tmp_path, SMOKE_CONFIG, "sub.cfg", "sub")
    sidecar = out / "scan.cfg"
    echo = mc.load_sidecar(sidecar)
    assert key in echo
    echo[key] = value
    mc.save_sidecar(sidecar, echo)
    capsys.readouterr()
    rc = cli.main(["analyze", "--scan", str(out / "scan.csv"), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert f"{key}={value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["32.0", str(2**62)])
def test_cmd_analyze_notes_the_sidecar_key_it_cannot_read(tmp_path, capsys, value):
    out = _run_scan_cli(tmp_path, SMOKE_CONFIG, "sub.cfg", "sub")
    echo = mc.load_sidecar(out / "scan.cfg")
    mc.save_sidecar(out / "scan.cfg", {**echo, "grid.width": value})
    capsys.readouterr()
    assert cli.main(["analyze", "--scan", str(out / "scan.csv"), "--out", str(tmp_path / "r")]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"grid.width={value!r}: expected an integer" in err


@pytest.mark.parametrize("band", ["abc", "1:2:3", "1"])
def test_cmd_analyze_names_a_malformed_band(tmp_path, capsys, band):
    scan = _run_scan_cli(tmp_path, SMOKE_CONFIG, "sub.cfg", "scan") / "scan.csv"
    capsys.readouterr()
    report = tmp_path / "report"
    assert cli.main(["analyze", "--scan", str(scan), "--out", str(report), "--band", band]) == 1
    err = capsys.readouterr().err
    assert "--band" in err and "expected lo:hi" in err and repr(band) in err
    assert not report.exists()


def test_cmd_analyze_checks_the_band_before_writing(tmp_path, capsys):
    # the 32x24 smoke scan tiles 6 superpixel rows, so rows 0:9 run off the grid
    scan = _run_scan_cli(tmp_path, SMOKE_CONFIG, "sub.cfg", "scan") / "scan.csv"
    capsys.readouterr()
    report = tmp_path / "report"
    assert cli.main(["analyze", "--scan", str(scan), "--out", str(report), "--band", "0:9"]) == 1
    assert "band [0, 9) outside 0..6" in capsys.readouterr().err
    assert not report.exists()


def test_cmd_analyze_names_a_scan_of_one_superpixel(tmp_path, capsys):
    # a superpixel wider than the 16x12 grid tiles it once, and nothing is excluded
    text = """
scenario=subtraction
grid.width=16
grid.height=12
profile.kind=gaussian
mask.region=rect:4,3,6,4
mask.herald_target=0.013
scan.superpixel=100
scan.dwell=0.0012
scan.seed=5
"""
    scan = _run_scan_cli(tmp_path, text, "one.cfg", "scan") / "scan.csv"
    capsys.readouterr()
    assert cli.main(["analyze", "--scan", str(scan), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err == "qvampire: flatness test needs at least two superpixels, but the scan holds 1\n"
