"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (q3 - q1 over the median) against its bound in
BENCHMARK.json.

    python3 benchmarks/spread.py --seeds 0-9 --out spread.json

Every workload in BENCHMARK.json runs for its ``run_seconds``, so the figures
compare with the benchmark's own runs. A metric is steady when its spread is
below a third of its bound. Exits 1 if any run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import quartiles, spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out", default=str(Path(".bench_out") / "spread.json"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for name in names:
        values: dict[str, list[float]] = {}
        durations = []
        for seed in parse_seeds(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            durations.append(time.monotonic() - started)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{name} seed {seed}: failed (exit {proc.returncode})", file=sys.stderr)
                ok = False
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {v[-1]:.4f}" for k, v in values.items()), flush=True)
        rows = {}
        for metric, vals in values.items():
            q1, median, q3 = quartiles(vals)
            s = spread(vals)
            rows[metric] = {"median": median, "q1": q1, "q3": q3, "spread": s, "bound": bounds[metric],
                            "steady": s < bounds[metric] / 3, "values": vals}
            print(f"  {name:14s} {metric:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {s:.4f}  bound {bounds[metric]}  {'steady' if rows[metric]['steady'] else 'NOT STEADY'}")
        last = ROOT / ".bench_out" / "results" / f"{name}-seed{seed}-trace0.json"
        machine = json.loads(last.read_text(encoding="utf-8"))["machine"] if last.is_file() else {}
        summary[name] = {"metrics": rows, "run_seconds_each": durations, "machine": machine}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": parse_seeds(args.seeds), "seconds": spec["run_seconds"],
                               "workloads": summary}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
