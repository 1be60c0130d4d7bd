"""Property-based fuzz of the CLI's inputs (Hypothesis; MacIver et al., JOSS 4(43) 1891, 2019).

Every malformed config value, verify option, region spec, scan CSV row and
sidecar value, and every positive coherence time and source brightness,
must end ``cli.main`` with exit 0, or with exit 1 and one ``qvampire:`` line
on stderr that names the key, option, spec, or file and line; no other
exception may escape.  The draws hold no mid-size number, so no grid or
sweep they build asks for much memory.
"""

import io
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qvampire import cli, config, montecarlo as mc

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=40)

SMOKE_CONFIG = {
    "scenario": "subtraction",
    "grid.width": "32",
    "grid.height": "24",
    "profile.kind": "uniform_ellipse",
    "profile.rx": "14",
    "profile.ry": "10",
    "mask.region": "rect:11,8,10,8",
    "mask.herald_target": "0.013",
    "scan.superpixel": "4",
    "scan.dwell": "0.00012",
    "scan.seed": "123",
}

# printable ASCII without digits, so no draw is a mid-size number, and two
# characters beyond ASCII ('１' is a digit to Python's int and float)
TEXT = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="0123456789")
    | st.sampled_from("é１"),
    max_size=6,
)
MALFORMED = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1.5", "32.0", "-0.5", "1e308", "1e400"]),
    TEXT,
    st.integers(-(10**20), -1).map(str),  # negative
    st.integers(10**19, 10**20 - 1).map(str),  # 20 digits
)

# or a count too large for any array to hold; a scan row's counts take it, so
# the row fuzz leaves it out
MALFORMED_OR_HUGE = st.one_of(MALFORMED, st.just(str(2**62)))


def _run(argv):
    """``cli.main``'s exit code and the stderr lines it printed as errors."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, [line for line in err.getvalue().splitlines() if line.startswith("qvampire:")]


def _assert_named(argv, *names):
    rc, errors = _run(argv)
    if rc != 0:
        assert rc == 1 and len(errors) == 1, (argv, errors)
        assert any(name in errors[0] for name in names), (argv, names, errors)


def _write_config(path, cfg):
    path.write_text("".join(f"{key}={value}\n" for key, value in cfg.items()), encoding="utf-8")


@pytest.mark.parametrize("key", config.DEFAULTS)
@settings(FUZZ, max_examples=6)
@given(value=MALFORMED_OR_HUGE)
def test_a_malformed_config_value_names_its_key(key, value):
    # a value its key reads may break a rule that spans keys, such as a herald
    # target the moved beam cannot reach; the error then names that rule's keys
    try:
        config.read_value(key, value)
        names = list(config.DEFAULTS)
    except config.ConfigMismatch:
        names = [key]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scan.cfg"
        _write_config(cfg, {**SMOKE_CONFIG, key: value})
        _assert_named(["scan", "--config", str(cfg), "--out", str(Path(tmp) / "out")], *names)


WIDTH = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@FUZZ
@given(sigma_x=WIDTH, sigma_y=WIDTH)
@example(sigma_x=1e155, sigma_y=3.0)  # its square overflows
@example(sigma_x=1e-300, sigma_y=3.0)  # its square underflows
def test_every_positive_gaussian_width_draws_maps_or_names_its_keys(sigma_x, sigma_y):
    # read_value passes every finite width, so the profile builder itself must end each
    # in maps or one refusal; the base config's uniform_ellipse refuses a gaussian key
    cfg = {key: value for key, value in SMOKE_CONFIG.items() if not key.startswith("profile.r")}
    cfg |= {"profile.kind": "gaussian", "profile.sigma_x": repr(sigma_x),
            "profile.sigma_y": repr(sigma_y)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profile.cfg"
        _write_config(path, cfg)
        argv = ["profile", "--config", str(path), "--out", str(Path(tmp) / "out")]
        _assert_named(argv, "profile.sigma_x", "profile.sigma_y", "mask.herald_target")


@FUZZ
@given(tau=WIDTH)
@example(tau=1.1e-8)  # below one 12 ns bin
@example(tau=1.2288e-5)  # 1024 bins, the joint table oracle's longest block
@example(tau=1.23e-5)  # 1025 bins
@example(tau=1e-3)  # 83333 bins, longer than the 10000-bin dwell
@example(tau=1e308)  # 8e315 bins: the ratio overflows to inf
@example(tau=5e-324)
def test_every_positive_coherence_time_scans_or_names_its_key(tau):
    # a thermal block of any length of at least one bin takes a certified rule,
    # or none when it outlasts the dwell; no length may warn on the way
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = Path(tmp) / "scan.cfg"
        _write_config(path, {**SMOKE_CONFIG, "source.coherence_time": repr(tau)})
        _assert_named(["scan", "--config", str(path), "--out", str(Path(tmp) / "out")],
                      "source.coherence_time")


@FUZZ
@given(nbar=WIDTH)
@example(nbar=5e-324)
@example(nbar=1e-300)
@example(nbar=104391.68192274046)  # the brightest source whose block rule is certified
@example(nbar=104391.68192274048)  # the next float, refused
@example(nbar=1e308)
def test_every_positive_source_nbar_scans_or_names_its_key(nbar):
    # a source too dim for the herald target, or too bright for the mask to tap,
    # is refused with the target's keys; one too bright for a certified block
    # rule with source.nbar and source.coherence_time; no brightness may warn
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = Path(tmp) / "scan.cfg"
        _write_config(path, {**SMOKE_CONFIG, "source.nbar": repr(nbar)})
        _assert_named(["scan", "--config", str(path), "--out", str(Path(tmp) / "out")],
                      "source.nbar", "mask.herald_target", "source.coherence_time")


@FUZZ
@given(option=st.sampled_from(["--ca", "--r", "--states", "--models"]), value=MALFORMED)
def test_a_malformed_verify_option_names_itself(option, value):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["verify", "--out", tmp, "--states", "fock:1", "--ca", "0.5", "--r", "0.1",
                "--nmax", "4", option, value]
        # an empty option leaves an empty sweep, named as such; a bad state
        # names its spec
        specs = [repr(tok.strip()) for tok in value.split(",")]
        rc, errors = _run(argv)
        if rc != 0 and errors:
            assert rc == 1 and len(errors) == 1, errors
            assert any(name in errors[0] for name in (option, *specs)), errors


NUMBER = st.one_of(MALFORMED, st.integers(-40, 40).map(str))


@FUZZ
@given(kind=st.sampled_from(["rect", "ellipse", "blob", ""]), tokens=st.lists(NUMBER, max_size=5))
def test_a_region_spec_is_read_or_named(kind, tokens):
    spec = f"{kind}:{','.join(tokens)}"
    try:
        region = config.parse_region_spec(spec, 32, 24)
    except config.ConfigMismatch as exc:
        assert f"mask.region={spec!r}: expected" in str(exc)
    else:
        assert region.shape == (24, 32) and region.dtype == bool


@pytest.fixture(scope="module")
def smoke_scan(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    cfg = out / "scan.cfg"
    _write_config(cfg, SMOKE_CONFIG)
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out / "scan")]) == 0
    return out / "scan"


def _analyze_copy(smoke_scan, tmp, edit_rows=None, edit_sidecar=None):
    """Analyze a copy of the smoke scan whose rows or sidecar were edited."""
    scan = Path(tmp) / "scan"
    shutil.copytree(smoke_scan, scan)
    csv = scan / "scan.csv"
    if edit_rows:
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(edit_rows(lines)) + "\n")
    if edit_sidecar:
        _write_config(scan / "scan.cfg", edit_sidecar(mc.load_sidecar(scan / "scan.cfg")))
    return ["analyze", "--scan", str(csv), "--out", str(Path(tmp) / "report")], csv


@FUZZ
@given(
    row=st.integers(1, 48),
    field=st.integers(0, 6),
    value=MALFORMED,
    how=st.sampled_from(["replace", "insert", "drop", "duplicate", "delete"]),
)
def test_a_mutated_scan_row_names_its_file_and_line(smoke_scan, row, field, value, how):
    def edit(lines):
        tokens = lines[row].split(",")
        if how == "replace":
            tokens[field % len(tokens)] = value
        elif how == "insert":
            tokens.insert(field, value)
        elif how == "drop":
            del tokens[field % len(tokens)]
        lines[row] = ",".join(tokens)
        if how == "duplicate":
            lines.append(lines[row])
        elif how == "delete":
            del lines[row]
        return lines

    with tempfile.TemporaryDirectory() as tmp:
        argv, csv = _analyze_copy(smoke_scan, tmp, edit_rows=edit)
        rc, errors = _run(argv)
        assert rc == 1 and len(errors) == 1, errors
        assert errors[0].startswith(f"qvampire: {csv}: "), errors


SIDECAR_KEYS = ["grid.width", "grid.height", "scan.superpixel", "mask.region", "source.kind",
                "derived.bins_per_block", "derived.n_rows", "derived.n_cols", "scenario"]


@FUZZ
# a block of 2**62 bins is one a scan may draw and analyze reads, so
# derived.bins_per_block draws no huge value
@given(case=st.sampled_from(SIDECAR_KEYS).flatmap(lambda key: st.tuples(
    st.just(key), MALFORMED if key == "derived.bins_per_block" else MALFORMED_OR_HUGE
)))
def test_a_malformed_sidecar_value_names_its_key(smoke_scan, case):
    key, value = case
    with tempfile.TemporaryDirectory() as tmp:
        argv, csv = _analyze_copy(smoke_scan, tmp, edit_sidecar=lambda cfg: {**cfg, key: value})
        _assert_named(argv, key, str(csv))
