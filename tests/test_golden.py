"""Byte-stable outputs: the sha256 of every stream and file of a fixed set of runs.

``golden.json`` holds, for each run below, the exit code and the sha256 of
its stdout, its stderr and every file it wrote, taken with the numpy version
it names.  A scan also pins the tile laws its tiles drew from: a change of
one ulp in a click probability moves no count, so no file would show it.
numpy does not promise the same random streams across versions (NEP 19,
*Random number generator policy*), so on another version the test fails
and names both.  On any mismatch it prints the whole new table, which is
what ``golden.json`` holds; a change that alters an output on purpose
replaces the table with it and names each changed entry.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qvampire import cli, montecarlo
from test_package import THREAD_VARS

GOLDEN = Path(__file__).with_name("golden.json")

SMOKE = """\
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

# acceptance criterion 8's coincidence scan, as the benchmark's scan_desk runs it
DESK = """\
scenario=subtraction
grid.width=64
grid.height=48
profile.kind=uniform_ellipse
profile.rx=28
profile.ry=20
mask.region=rect:22,17,20,14
mask.herald_target=0.013
source.nbar=1.0
scan.superpixel=4
scan.dwell=0.096
scan.bins_cap=8000000
scan.threads=1
"""

# README's sub.cfg
SUB = """\
scenario=subtraction
grid.width=64
grid.height=48
profile.kind=uniform_ellipse_with_ring
mask.region=silhouette
mask.herald_target=0.013
source.nbar=1.0
scan.superpixel=11
scan.dwell=0.01
scan.seed=42
"""

# the desk geometry with no tap, and with the loss scenario's default contrast
DESK_INITIAL = DESK.replace("scenario=subtraction", "scenario=initial").replace(
    "mask.region=rect:22,17,20,14\nmask.herald_target=0.013\n", ""
)
DESK_LOSS = DESK.replace("scenario=subtraction", "scenario=loss_high_contrast").replace(
    "mask.herald_target=0.013\n", ""
)

CONFIGS = {
    "smoke": SMOKE,
    "desk": DESK,
    "desk_dark": DESK + "detector.herald.dark_prob=1e-3\ndetector.camera.dark_prob=1e-3\n",
    "desk_coherent": DESK + "source.kind=coherent\n",
    "sub": SUB,
    "unreachable": SMOKE.replace("mask.herald_target=0.013", "mask.herald_target=5"),
    "desk_initial": DESK_INITIAL,
    "desk_loss": DESK_LOSS,
    "bad_contrast": DESK_LOSS + "mask.contrast=2\n",
}
# a scan CSV whose one superpixel holds more coincidences than camera clicks
BROKEN_SCAN = "row,col,n_bins,camera_counts,herald_counts,coincidence_counts\n0,0,100,5,3,4\n"

RUNS = {
    **{
        f"{name} {command}": argv
        for name in ("smoke", "desk", "desk_dark", "desk_coherent")
        for command, argv in (
            ("scan", ["scan", "--config", f"{name}.cfg", "--out", f"{name}", "--seed", "1"]),
            ("analyze", ["analyze", "--scan", f"{name}/scan.csv", "--out", f"{name}/report"]),
        )
    },
    "sub scan": ["scan", "--config", "sub.cfg", "--out", "sub"],
    "sub analyze": ["analyze", "--scan", "sub/scan.csv", "--out", "sub/report"],
    "sub profile": ["profile", "--config", "sub.cfg", "--out", "prof"],
    "verify": ["verify", "--out", "ver"],
    "verify click_povm": ["verify", "--out", "ver_click", "--models", "operator,click_povm"],
    # error probes: a config, a state spec and a scan CSV the commands refuse
    "unreachable scan": ["scan", "--config", "unreachable.cfg", "--out", "unreachable"],
    "bad state verify": ["verify", "--out", "bad_state", "--states", "thermal:x"],
    "broken analyze": ["analyze", "--scan", "broken.csv", "--out", "broken"],
    # the white mask, the loss scenario's default contrast and a reference scan
    "desk_initial scan": ["scan", "--config", "desk_initial.cfg", "--out", "initial", "--seed", "1"],
    "desk_loss scan": ["scan", "--config", "desk_loss.cfg", "--out", "loss", "--seed", "1"],
    "desk_loss analyze": ["analyze", "--scan", "loss/scan.csv", "--reference",
                          "initial/scan.csv", "--out", "loss/report"],
    "desk_loss profile": ["profile", "--config", "desk_loss.cfg", "--out", "loss_prof"],
    # the analytic map of the white mask, and of a source whose g2 is 1
    "desk_initial profile": ["profile", "--config", "desk_initial.cfg", "--out", "initial_prof"],
    "desk_coherent profile": ["profile", "--config", "desk_coherent.cfg", "--out",
                              "coherent_prof"],
    "bad contrast scan": ["scan", "--config", "bad_contrast.cfg", "--out", "bad_contrast"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_all(capsys, laws: list) -> dict:
    """Each run's exit code and hashes, in a directory of relative paths, so
    no message names the directory the runs were made in.  ``laws`` collects
    the tile laws of a run's scan."""
    for name, text in CONFIGS.items():
        Path(f"{name}.cfg").write_text(text)
    Path("broken.csv").write_text(BROKEN_SCAN)
    table = {}
    for name, argv in RUNS.items():
        before = set(Path().rglob("*"))
        laws.clear()
        code = cli.main(argv)
        out, err = capsys.readouterr()
        written = sorted(path for path in set(Path().rglob("*")) - before if path.is_file())
        table[name] = {
            "exit": code,
            "stdout": _sha(out.encode()),
            "stderr": _sha(err.encode()),
            "files": {path.as_posix(): _sha(path.read_bytes()) for path in written},
        }
        if laws:
            sizes = (np.array([law.full_blocks, law.block, law.rest]) for law in laws)
            arrays = [a for law, n in zip(laws, sizes) for a in (n, law.weights, law.rows)]
            table[name]["tile_laws"] = _sha(b"".join(a.tobytes() for a in arrays))
    return {"numpy": np.__version__, "runs": table}


def test_outputs_keep_their_golden_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    laws, tile_laws = [], montecarlo._tile_laws

    def recorded(*args):
        found = tile_laws(*args)
        laws.append(found)
        return found

    monkeypatch.setattr(montecarlo, "_tile_laws", recorded)
    got = _run_all(capsys, laws)
    want = json.loads(GOLDEN.read_text())
    new_table = f"the new table:\n{json.dumps(got, indent=1)}"
    assert got["numpy"] == want["numpy"], (
        f"golden.json was taken with numpy {want['numpy']}, this is numpy {got['numpy']}; {new_table}"
    )
    changed = [name for name in got["runs"].keys() | want["runs"].keys()
               if got["runs"].get(name) != want["runs"].get(name)]
    assert not changed, f"runs whose bytes changed: {sorted(changed)}; {new_table}"


# pytest loaded numpy before qvampire, so the runs above keep OpenBLAS's own
# thread count; a command run on its own imports qvampire first and gets one
FRESH_RUNS = ("verify", "desk scan")


def test_a_process_that_imports_qvampire_first_keeps_the_golden_bytes(tmp_path):
    (tmp_path / "desk.cfg").write_text(DESK)
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONIOENCODING="utf-8")
    want = json.loads(GOLDEN.read_text())["runs"]
    for name in FRESH_RUNS:
        probe = (
            "import os, sys; assert 'numpy' not in sys.modules; from qvampire import cli; "
            f"code = cli.main({RUNS[name]!r}); "
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'; sys.exit(code)"
        )
        before = set(tmp_path.rglob("*"))
        proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True)
        written = sorted(path for path in set(tmp_path.rglob("*")) - before if path.is_file())
        got = {
            "exit": proc.returncode,
            "stdout": _sha(proc.stdout),
            "stderr": _sha(proc.stderr),
            "files": {path.relative_to(tmp_path).as_posix(): _sha(path.read_bytes()) for path in written},
        }
        assert got == {key: want[name][key] for key in got}, (name, proc.stderr.decode())
