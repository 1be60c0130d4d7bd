"""Run the benchmark over several seeds and summarize each end-to-end metric.

Usage (from the root of a source checkout)::

    python3 perfbench/collect.py --seeds 1-10 --out baseline.json
    python3 perfbench/collect.py --workloads scan_full --seeds 1-5

For every workload and metric it prints the median over the seeds and
the distance between the first and third quartile as a share of the
median, next to the metric's bound in BENCHMARK.json.  A spread under a
third of the bound is steady enough to compare commits.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchcore as bc  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=None, help="write the summary as JSON here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            spread = bc.quartile_spread(vals) if len(vals) >= 2 else float("nan")
            rows[name] = {"median": bc.summarize(vals)["median"], "spread": spread, "values": vals}
            ok = spread < bounds[name] / 3
            steady &= ok or name == "setup_s"
            print(f"  {workload:<13} {name:<12} median {rows[name]['median']:.5g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}  {'ok' if ok else 'WIDE'}")
        summary["workloads"][workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "not steady: a spread is over a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
