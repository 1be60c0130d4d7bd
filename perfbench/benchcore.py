"""Shared pieces of the qvampire benchmark: workloads, spans, statistics, output checks.

Standard library only, so the worker process can import it before it
times ``import qvampire`` without loading numpy early.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

WORKLOADS = ("verify_sweep", "scan_desk", "scan_full")

# ``qvampire verify`` with its defaults, pinned here so that a change of
# the CLI defaults does not silently change the workload: 6 states x 3
# sub-mode fractions x 3 tap reflectivities, operator model, nmax 28.
VERIFY_STATES = ("thermal:0.5", "thermal:1", "coherent:1", "fock:1", "fock:2", "fock:3")
VERIFY_CA = (0.1, 0.5, 0.9)
VERIFY_R = (0.05, 0.1, 0.2)
VERIFY_NMAX = 28
VERIFY_CASES = tuple((s, ca, r) for s in VERIFY_STATES for ca in VERIFY_CA for r in VERIFY_R)

# scan_desk: the coincidence scan of acceptance criterion 8 (192 tiles of
# 96,386 coherence blocks on one thread), the single-threaded baseline
# for the sampler kernel and per-tile overhead.
# scan_full: the README's full-scale acquisition (30 tiles of 3.01 M
# blocks on two threads), which stresses thread scaling and allocation.
SCAN_CONFIGS = {
    "scan_desk": """\
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
""",
    "scan_full": """\
scenario=subtraction
grid.width=64
grid.height=48
profile.kind=uniform_ellipse_with_ring
mask.region=silhouette
mask.herald_target=0.013
source.nbar=1.0
scan.superpixel=11
scan.dwell=3.0
scan.bins_cap=250000000
scan.threads=2
""",
}

FIDELITY_FLOOR = 1.0 - 1e-9
COMPLEMENT_MAX = 1e-10
SINGLES_Z_MAX = 5.0

VERIFY_HEADER = "state,c_A,r,herald_model,fidelity,herald_prob,complement_population"
SCAN_HEADER = "row,col,n_bins,camera_counts,herald_counts,coincidence_counts"


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """In-memory spans (id, parent, run id, layer, name, start, end, CPU).

    Spans nest through a stack, so the code using it must call from a
    single thread.  Nothing is written until the caller dumps ``spans``.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "layer": layer,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "cpu_s": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        cpu0 = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_s"] = time.process_time() - cpu0
            self._stack.pop()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(clipped)
    return out


def subtree(spans, root_id: int) -> list[dict]:
    """The root span and every span below it."""
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s["parent"]].append(s)
    out, todo = [], [spans[root_id]]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(by_parent[s["id"]])
    return out


def layer_self_times(spans, root_id: int) -> dict[str, float]:
    """Self time summed per layer over a root span's subtree."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in subtree(spans, root_id):
        out[s["layer"]] += own[s["id"]]
    return dict(out)


def durations(spans, name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def total_duration(spans, name: str) -> float:
    return sum(durations(spans, name))


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with at least ten samples beyond it."""
    if n <= 0:
        return None
    p = (100 * (n - 10)) // n
    return p if p > 50 else None


def summarize(values) -> dict:
    """Median, sample count and, where the count allows, the tail percentile."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n, "tail_pct": None, "tail": None}
    p = tail_percentile(n)
    if p is not None:
        out["tail_pct"] = p
        out["tail"] = vals[math.ceil(p * n / 100) - 1]  # nearest rank
    return out


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# ---------------------------------------------------------------------------
# output checks


def _parse_csv(text: str, header: str, convert):
    """Rows converted by ``convert``; returns (rows, malformed line count)."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        return [], 1
    rows, bad = [], 0
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            rows.append(convert(line.strip().split(",")))
        except ValueError:
            bad += 1
    return rows, bad


def _verify_row(fields):
    state, c_a, r, model, fid, herald_prob, comp = fields
    return state, float(c_a), float(r), model, float(fid), float(herald_prob), float(comp)


def check_verify_rows(rows, cases=VERIFY_CASES, malformed: int = 0) -> dict:
    """Every case appears once with fidelity >= 1 - 1e-9 and complement <= 1e-10.

    One check per case plus one for stray or malformed rows.
    """
    by_case = defaultdict(list)
    for row in rows:
        by_case[(row[0], row[1], row[2])].append(row)
    failed = 0
    problems = []
    for case in cases:
        found = by_case.get(case, [])
        ok = (
            len(found) == 1
            and found[0][3] == "operator"
            and found[0][4] >= FIDELITY_FLOOR
            and found[0][6] <= COMPLEMENT_MAX
        )
        if not ok:
            failed += 1
            problems.append(f"case {case}: {len(found)} rows {found[:1]}")
    stray = malformed + sum(len(v) for k, v in by_case.items() if k not in set(cases))
    if stray:
        failed += 1
        problems.append(f"{stray} stray or malformed rows")
    fids = [row[4] for row in rows]
    comps = [row[6] for row in rows]
    return {
        "attempted": len(cases) + 1,
        "failed": failed,
        "problems": problems,
        "min_fidelity_margin": (min(fids) - FIDELITY_FLOOR) if fids else float("nan"),
        "max_complement_pop": max(comps) if comps else float("nan"),
    }


def check_verify_csv(text: str, cases=VERIFY_CASES) -> dict:
    rows, bad = _parse_csv(text, VERIFY_HEADER, _verify_row)
    return check_verify_rows(rows, cases, bad)


def _scan_row(fields):
    if len(fields) != 6:
        raise ValueError("scan row needs 6 fields")
    return tuple(int(f) for f in fields)


def check_scan_csv(
    text: str,
    n_rows: int,
    n_cols: int,
    n_bins: int,
    camera_expect: tuple[float, float],
    herald_expect: tuple[float, float],
) -> dict:
    """Every superpixel once with consistent counts; singles totals within 5 sigma.

    ``camera_expect`` and ``herald_expect`` are (mean, sigma) of the
    grid totals from the analytic singles model.  One check per
    superpixel, one per total, and one for stray or malformed rows.
    """
    rows, bad = _parse_csv(text, SCAN_HEADER, _scan_row)
    by_cell = defaultdict(list)
    for row in rows:
        by_cell[(row[0], row[1])].append(row)
    failed = 0
    problems = []
    cells = {(r, c) for r in range(n_rows) for c in range(n_cols)}
    for cell in sorted(cells):
        found = by_cell.get(cell, [])
        ok = len(found) == 1
        if ok:
            _, _, bins, cam, her, both = found[0]
            ok = bins == n_bins and 0 <= both <= min(cam, her) and max(cam, her) <= bins
        if not ok:
            failed += 1
            problems.append(f"superpixel {cell}: {found}")
    stray = bad + sum(len(v) for k, v in by_cell.items() if k not in cells)
    if stray:
        failed += 1
        problems.append(f"{stray} stray or malformed rows")
    zs = {}
    for name, col, (mean, sigma) in (
        ("camera_z", 3, camera_expect),
        ("herald_z", 4, herald_expect),
    ):
        total = sum(row[col] for row in rows)
        zs[name] = (total - mean) / sigma if sigma > 0 else float("inf")
        if not abs(zs[name]) <= SINGLES_Z_MAX:
            failed += 1
            problems.append(f"{name} = {zs[name]:.2f} (total {total}, expected {mean:.1f})")
    return {"attempted": len(cells) + 3, "failed": failed, "problems": problems, **zs}

