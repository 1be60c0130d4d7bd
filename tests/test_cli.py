"""End-to-end CLI tests on miniature configs: schemas, round trips, exit codes."""

import csv
import warnings

import numpy as np
import pytest

from qvampire import cli, config, fock, montecarlo as mc, spatial, verify
from qvampire.errors import ConfigMismatch

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


def test_env_override_known_and_unknown(monkeypatch):
    cfg = config.apply_env_overrides(
        {"source.nbar": "1.0"}, {"QVAMPIRE_SOURCE_NBAR": "2.5", "PATH": "/bin"}
    )
    assert cfg["source.nbar"] == "2.5"
    with pytest.raises(Exception):
        config.apply_env_overrides({}, {"QVAMPIRE_SOURCE_FLAVOR": "x"})


def test_scenario_forcing_rules():
    sub = config.build_scenario({"scenario": "subtraction", "scan.seed": "1"})
    assert sub.scan.trigger_mode == mc.COINCIDENCE
    init = config.build_scenario({"scenario": "initial", "scan.seed": "1"})
    assert np.all(init.scan.mask.transmission == 1.0)
    assert init.scan.trigger_mode == mc.SINGLES
    with pytest.raises(ConfigMismatch, match="unknown trigger mode 'both'"):
        config.build_scenario({"scan.trigger_mode": "both", "scan.seed": "1"})


def test_missing_seed_is_generated_and_recorded():
    scenario = config.build_scenario({"scenario": "initial"})
    assert scenario.echo["scan.seed"] == str(scenario.scan.seed)


def test_herald_target_resolves_contrast():
    scenario = config.build_scenario(
        {
            "scenario": "subtraction",
            "mask.region": "rect:16,12,16,12",
            "mask.herald_target": "0.013",
            "scan.seed": "1",
        }
    )
    rate = spatial.herald_rate(scenario.source.profile, scenario.scan.mask, scenario.source.nbar)
    assert abs(rate - 0.013) < 1e-12


def test_profile_keys_are_the_profile_params_table():
    keys = {key for key in config.DEFAULTS if key.startswith("profile.")} - {"profile.kind"}
    params = set().union(*spatial.PROFILE_PARAMS.values())
    assert keys == {f"profile.{name}" for name in params}
    with pytest.raises(ConfigMismatch, match="unknown profile kind"):
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


def test_cmd_scan_thread_count_does_not_change_bytes(tmp_path):
    cfg = write_config(tmp_path)
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        rc = cli.main(
            ["scan", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
        )
        assert rc == 0
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


def test_env_override_reaches_scan(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("QVAMPIRE_SCAN_SEED", "7")
    out = tmp_path / "env"
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert mc.load_sidecar(out / "scan.cfg")["scan.seed"] == "7"


def test_bad_config_is_validation_error(tmp_path):
    cfg = write_config(tmp_path, "scenario=haunting\nscan.seed=1")
    assert cli.main(["profile", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


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
        for used in ("derived.bins_per_block=1", "source.kind=thermal", "scan.trigger_mode=coincidence"):
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
    assert "5x7 grid" in err and "scan grid is 6x8" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("source.kind", "thermla"),
        ("derived.bins_per_block", "0"),
        ("derived.bins_per_block", "abc"),
        ("scan.trigger_mode", "coincidnce"),
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
