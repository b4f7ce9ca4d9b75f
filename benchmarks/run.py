"""The chainviews benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 benchmarks/run.py --workload chain_deep --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 0      # every workload in turn

Each repetition runs in a fresh process (``workload.py``), so ``setup_s``
and ``peak_rss_mb`` belong to that repetition alone. Repetitions of one seed
continue until ``--seconds`` have passed; every metric is their median.
``setup_s`` is the median over at least ``MIN_SETUPS`` set-ups. A whole
invocation stops after ``RUN_LIMIT_S``; a repetition cut or not started by
that limit counts as not attempted, so ``failed`` counts only wrong outputs.

With ``--trace 1`` traced repetitions alternate with untraced ones (at
least untraced, traced, untraced); the per-layer metrics come from the
traced ones, and ``trace.overhead`` is the median traced over the median
untraced wall time, minus 1. On ``chain_deep_w2`` the traced run
also runs ``chain_deep`` once and requires the same output digest.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
machine included, goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import OUT, WORKLOADS, operations  # noqa: E402

MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # a whole invocation per workload stays under this

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("f1", "ratio"))
UNITS = dict(END_TO_END)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    return {"usable_cores": len(os.sched_getaffinity(0)), "cpu_model": cpu, "platform": platform.platform()}


class Session:
    """Starts repetition processes and keeps the invocation under its limit."""

    def __init__(self, seed: int, limit_s: float = RUN_LIMIT_S):
        self.seed = seed
        self.deadline = time.monotonic() + limit_s

    def child(self, workload: str, mode: str, trace: int = 0, workers: int | None = None, rep: int = 0) -> dict:
        spec = {"workload": workload, "seed": self.seed, "mode": mode, "trace": trace, "rep": rep}
        if workers is not None:
            spec["workers"] = workers
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            return {"error": "time limit reached before the repetition started", "timed_out": True}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "workload.py"), json.dumps(spec)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} of {workload} exceeded the time limit", "timed_out": True}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"{mode} of {workload} exited with {proc.returncode}"}
        return json.loads(lines[-1])


def workers_for(workload: str, cores: int) -> int:
    return min(WORKLOADS[workload]["workers"], cores)


def count_ops(workload: str, reps: list[dict], digests: list[str]) -> tuple[int, dict]:
    """Attempted operations and failures: each repetition's own operations,
    plus one digest comparison per output beyond the first. A repetition the
    time limit cut or never started is not attempted."""
    attempted, failures = 0, {}
    for i, rep in enumerate(reps):
        if rep.get("timed_out"):
            continue
        attempted += len(operations(workload))
        if "error" in rep:
            for op in operations(workload):
                failures[f"rep{i}:{op}"] = rep["error"]
        else:
            failures.update({f"rep{i}:{op}": why for op, why in rep["failures"].items()})
    attempted += max(len(digests) - 1, 0)
    for i, digest in enumerate(digests[1:], start=1):
        if digest != digests[0]:
            failures[f"digest{i}"] = f"output digest {digest[:12]} differs from {digests[0][:12]}"
    return attempted, failures


def measure(workload: str, seed: int, seconds: float, trace: int, machine: dict) -> dict:
    session = Session(seed)
    workers = workers_for(workload, machine["usable_cores"])
    started = time.monotonic()
    # traced repetitions alternate with untraced ones, which come first and
    # last, so host drift biases the overhead estimate less
    plain, traced = [session.child(workload, "run", 0, workers)], []
    while "error" not in plain[-1] and ((trace and not traced) or time.monotonic() - started < seconds):
        if trace:
            traced.append(session.child(workload, "run", 1, workers, rep=len(traced)))
        plain.append(session.child(workload, "run", 0, workers))
    reference = []
    if trace and workers > 1:
        reference.append(session.child(workload, "run", 0, 1))
    setups = [r["setup_s"] for r in plain + traced if "setup_s" in r]
    while not trace and len(setups) < MIN_SETUPS:
        one = session.child(workload, "setup")
        if "error" in one:
            break
        setups.append(one["setup_s"])

    reps = plain + traced + reference
    ok = [r for r in plain if "error" not in r]
    attempted, failures = count_ops(workload, reps, [r["digest"] for r in reps if "error" not in r])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "workers": workers,
        "machine": {**machine, **(ok[0]["machine"] if ok else {})},
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "timed_out": sum(1 for r in reps if r.get("timed_out")), "reps": reps, "setups": setups,
    }
    if not ok or (trace and not [r for r in traced if "error" not in r]):
        record["metrics"] = None
    elif trace:
        good = [r for r in traced if "error" not in r]
        layers = {key: statistics.median(r["layers"][key] for r in good) for key in good[0]["layers"]}
        layers["trace.overhead"] = (statistics.median(r["wall_s"] for r in good)
                                    / statistics.median(r["wall_s"] for r in ok) - 1.0)
        record["metrics"] = layers
        record["layer_self_s"] = {k: statistics.median(r["layer_self_s"][k] for r in good)
                                  for k in good[0]["layer_self_s"]}
    else:
        samples = {name: [r[name] for r in ok] for name, _ in END_TO_END}
        samples["setup_s"] = setups
        record["samples"] = samples
        record["metrics"] = {name: statistics.median(samples[name]) for name, _ in END_TO_END}
    return record


def print_record(record: dict) -> None:
    w = record["workload"]
    print(f"{w}  seed {record['seed']}  trace {record['trace']}  workers {record['workers']}")
    if record["trace"]:
        for key, value in record["metrics"].items():
            print(f"  {key:28s} {value:.6g}")
        wall = statistics.median(r["wall_s"] for r in record["reps"] if r.get("layers"))
        print("  self time by layer: " + ", ".join(
            f"{layer} {s:.3f}s ({s / wall:.1%})" for layer, s in record["layer_self_s"].items()))
        print(f"  completeness: 1 - coverage = {1 - record['metrics']['trace.coverage']:+.4f}, "
              f"1 - count model = {1 - record['metrics']['trace.count_model']:+.4f} of traced wall_s")
    else:
        for name, values in record["samples"].items():
            q1, median, q3 = quartiles(values)
            print(f"  {name:12s} {median:12.4f} {UNITS[name]:5s} median of {len(values)} (q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  {'failed_frac':12s} {record['failed'] / record['attempted']:12.4f} ratio "
          f"({record['failed']} of {record['attempted']} operations)")
    for op, why in record["failures"].items():
        print(f"    failed {op}: {why.strip().splitlines()[-1]}")
    if record["timed_out"]:
        print(f"  {record['timed_out']} repetition(s) cut by the {RUN_LIMIT_S:.0f} s limit, not attempted")
    m = record["machine"]
    print(f"  machine: {m['usable_cores']} cores, {m['cpu_model']}, python {m.get('python')}, "
          f"numpy {m.get('numpy')}, {m.get('blas')}")


def save_record(record: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def unit_of(key: str) -> str:
    if key in UNITS:
        return UNITS[key]
    if key.endswith(("_calls", "_steps")):
        return "count"
    if key == "datamodel.bytes":
        return "bytes"
    return "ratio" if key.startswith("trace.") else "s"


def summary(records: list[dict], prefix: bool) -> dict:
    metrics = {}
    for record in records:
        for key, value in record["metrics"].items():
            name = f"{record['workload']}.{key}" if prefix else key
            metrics[name] = {"value": value, "unit": unit_of(key)}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "chainviews" / "__init__.py").is_file():
        print(f"error: no chainviews sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    machine = machine_record()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, args.trace, machine)
        path = save_record(record).relative_to(ROOT)
        if record["metrics"] is None:
            print(f"error: {name}: no repetition completed; see {path}", file=sys.stderr)
        else:
            print_record(record)
            print(f"  record: {path}")
        records.append(record)
    by_name = {r["workload"]: r for r in records}
    if {"chain_deep", "chain_deep_w2"} <= by_name.keys():
        # worker count never changes outputs, so the two chain workloads agree
        digests = [next((r["digest"] for r in by_name[n]["reps"] if "digest" in r), None)
                   for n in ("chain_deep", "chain_deep_w2")]
        w2 = by_name["chain_deep_w2"]
        w2["attempted"] += 1
        if None in digests or digests[0] != digests[1]:
            w2["failed"] += 1
            print("  failed: chain_deep_w2 outputs differ from chain_deep's")
    if any(r["metrics"] is None for r in records):
        return 1
    print(json.dumps(summary(records, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
