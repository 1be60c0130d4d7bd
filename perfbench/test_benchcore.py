"""Tests of the benchmark's own arithmetic and output checks (no qvampire runs)."""

import json
import math
from pathlib import Path

import pytest

import benchcore as bc
import run


def _span(sid, parent, layer, start, end):
    return {"id": sid, "parent": parent, "run": "t", "layer": layer, "name": layer,
            "start": start, "end": end, "cpu_s": 0.0}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, None, "bench", 0.0, 10.0),
        _span(1, 0, "fock", 1.0, 4.0),
        _span(2, 0, "verify", 3.0, 6.0),  # overlaps span 1, as from another thread
        _span(3, 1, "io", 2.0, 3.0),
        _span(4, 0, "io", 9.0, 12.0),  # runs past its parent: only 9..10 counts there
    ]
    own = bc.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    layers = bc.layer_self_times(spans, 0)
    assert layers == pytest.approx({"bench": 4.0, "fock": 2.0, "verify": 3.0, "io": 4.0})


def test_layer_self_times_account_for_the_root():
    tracer = bc.Tracer("run-1")
    with tracer.span("bench", "run") as root:
        with tracer.span("fock", "a"):
            with tracer.span("verify", "b"):
                pass
        with tracer.span("io", "c"):
            pass
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1, 0]
    assert {s["run"] for s in tracer.spans} == {"run-1"}
    total = sum(bc.layer_self_times(tracer.spans, root["id"]).values())
    assert total == pytest.approx(root["end"] - root["start"], abs=1e-12)
    sub = bc.subtree(tracer.spans, 1)
    assert sorted(s["id"] for s in sub) == [1, 2]


def test_tail_percentile_rule():
    assert bc.tail_percentile(5) is None
    assert bc.tail_percentile(20) is None  # p50 is the median itself
    assert bc.tail_percentile(21) == 52
    assert bc.tail_percentile(22) == 54
    assert bc.tail_percentile(100) == 90
    assert bc.tail_percentile(1000) == 99
    for n in range(1, 400):
        p = bc.tail_percentile(n)
        if p is None:
            continue
        rank = math.ceil(p * n / 100)
        assert n - rank >= 10  # at least ten samples beyond the reported one
        assert n - math.ceil((p + 1) * n / 100) < 10 or p == 99


def test_summarize_reports_median_count_and_tail():
    s = bc.summarize([3.0, 1.0, 2.0])
    assert (s["median"], s["n"], s["tail_pct"], s["tail"]) == (2.0, 3, None, None)
    s = bc.summarize(list(range(1, 101)))
    assert s["median"] == 50.5 and s["n"] == 100
    assert (s["tail_pct"], s["tail"]) == (90, 90)


def test_quartile_spread():
    assert bc.quartile_spread([10.0] * 10) == 0.0
    assert bc.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def _verify_csv(rows=None):
    if rows is None:
        rows = [f"{s},{ca!r},{r!r},operator,1.0,0.01,4e-16" for s, ca, r in bc.VERIFY_CASES]
    return bc.VERIFY_HEADER + "\n" + "\n".join(rows) + "\n"


def test_verify_check_passes_clean_output():
    check = bc.check_verify_csv(_verify_csv())
    assert (check["attempted"], check["failed"]) == (len(bc.VERIFY_CASES) + 1, 0)
    assert check["min_fidelity_margin"] == pytest.approx(1e-9)
    assert check["max_complement_pop"] == 4e-16


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: [rows[0].replace(",1.0,", ",0.999999,")] + rows[1:],  # fidelity breach
        lambda rows: [rows[0].replace("4e-16", "1e-6")] + rows[1:],  # complement population
        lambda rows: [rows[0].replace(",1.0,", ",nan,")] + rows[1:],  # fidelity not a number
        lambda rows: rows[1:],  # case missing
        lambda rows: rows + rows[:1],  # case twice
        lambda rows: [rows[0].replace("operator", "click_povm")] + rows[1:],
        lambda rows: rows + ["thermal:7,0.1,0.05,operator,1.0,0.01,0.0"],  # stray case
        lambda rows: rows + ["thermal:1,0.1"],  # truncated line
    ],
)
def test_verify_check_flags_corrupted_csv(corrupt):
    rows = [f"{s},{ca!r},{r!r},operator,1.0,0.01,4e-16" for s, ca, r in bc.VERIFY_CASES]
    check = bc.check_verify_csv(_verify_csv(corrupt(rows)))
    assert check["failed"] == 1, check["problems"]


def test_verify_check_rejects_wrong_header():
    text = _verify_csv().replace("complement_population", "complement", 1)
    check = bc.check_verify_csv(text)
    assert check["failed"] == check["attempted"]


N_ROWS, N_COLS, N_BINS = 3, 4, 1000
CAM, HER = (1200.0, 30.0), (600.0, 20.0)


def _scan_rows():
    return [f"{r},{c},{N_BINS},100,50,10" for r in range(N_ROWS) for c in range(N_COLS)]


def _scan_check(rows):
    text = bc.SCAN_HEADER + "\n" + "\n".join(rows) + "\n"
    return bc.check_scan_csv(text, N_ROWS, N_COLS, N_BINS, CAM, HER)


def test_scan_check_passes_clean_output():
    check = _scan_check(_scan_rows())
    assert (check["attempted"], check["failed"]) == (N_ROWS * N_COLS + 3, 0)
    assert check["camera_z"] == 0.0 and check["herald_z"] == 0.0


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: rows + rows[:1],  # superpixel twice
        lambda rows: rows[1:],  # superpixel missing
        lambda rows: ["0,0,999,100,50,10"] + rows[1:],  # wrong bin count
        lambda rows: ["0,0,1000,100,50,60"] + rows[1:],  # coincidences above heralds
        lambda rows: ["0,0,1000,600,50,10"] + rows[1:],  # camera total 16.7 sigma high
        lambda rows: ["0,0,1000,100,250,10"] + rows[1:],  # herald total 10 sigma high
        lambda rows: rows + ["7,0,1000,100,50,10"],  # superpixel off the grid
        lambda rows: rows + ["0,1,1000,x,50,10"],  # malformed line
    ],
)
def test_scan_check_flags_corrupted_csv(corrupt):
    check = _scan_check(corrupt(_scan_rows()))
    assert check["failed"] == 1, check["problems"]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bc.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
