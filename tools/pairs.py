"""Paired benchmark runs of a parent revision against this checkout.

    python3 tools/pairs.py --parent HEAD~1 --workload ablation --seed 0 11 \
        --pairs 10 --seconds 20 --out BENCH.json

The parent commit is unpacked with ``git archive`` into a temporary
directory, removed again at the end, also when the run is stopped with
SIGTERM. Each pair runs the unchanged
``benchmarks/run.py`` once in each tree, one after the other; which tree
goes first alternates from pair to pair, because host speed drifts. The
output file holds, per (workload, seed), every pair's end-to-end metrics,
each side's median and quartiles, the wins out of pairs (a tie counts for
neither side) and the verdicts on each metric, plus each side's operations
attempted and failed (per pair and in total), both sides' output digests,
the machine record and the ``src/chainviews/*.py`` line count of each tree.

A change is *better* on a metric when it wins at least nine pairs in ten
and its median beats the parent's by more than the parent's interquartile
range. It is *within bound* when its median is worse than the parent's by
at most the metric's ``bound`` in BENCHMARK.json, read as a fraction of the
parent's median. The metric is *unresolved* when the parent's own
interquartile range is wider than that allowance: the runs spread too much
to tell a regression of that size. ``digests_equal`` holds when every run
of both sides wrote one and the same output digest.

Once per tree, ``chainviews gen-benchmark``, ``run`` and ``diversity`` also
run on ``configs/clean_quick.yaml``, ``chainviews ablate`` on
``configs/collapse_ablation.yaml`` (about 4.5 s) and ``chainviews verify``,
which takes no config (about 1 s). ``cli_outputs_equal`` holds when both
trees wrote the same files with the same contents, ``report.json``
compared without its wall-clock ``timing``, ``ablate.meta.json`` and
``verify_report.json`` without their wall-clock ``runtime_seconds`` (in
``verify_report.json``, one per check) and ``diversity.meta.json`` without
its ``dataset`` path; ``cli_outputs_differ`` names the files that differ.
``cli_difference_sizes`` sizes each of them: when its two versions pair up
(a CSV file with the same cells, or a JSON record with the same keys, the
cells or values that are not numbers equal) it holds the largest absolute
and the largest relative difference between paired numbers, and otherwise
``structure differs``.

Once per tree, the demos that print no wall-clock time (``DEMOS``) also run,
each from an empty directory as ``tests/test_demos.py`` runs them.
``demo_outputs_equal`` holds when every one printed the same stdout in both
trees; ``demo_outputs_differ`` names the demos whose stdout differs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
sys.path.insert(0, str(ROOT / "benchmarks"))

from run import quartiles  # noqa: E402  -- the benchmark's own (q1, median, q3)


def wins(parent, change, better: str) -> dict:
    """Pairs each side wins; a tie counts for neither."""
    if len(parent) != len(change):
        raise ValueError("every pair needs a value on both sides")
    sign = 1 if better == "lower" else -1
    change_wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    parent_wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return {"change": change_wins, "parent": parent_wins, "pairs": len(parent)}


def compare(parent, change, better: str) -> dict:
    """Both sides' quartiles, the wins and the verdict on one metric."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    won = wins(parent, change, better)
    gain = p_median - c_median if better == "lower" else c_median - p_median
    return {
        "better": better,
        "parent": {"q1": p_q1, "median": p_median, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_median, "q3": c_q3},
        "wins": won,
        "median_gain": gain,
        "parent_iqr": p_q3 - p_q1,
        "change_is_better": 10 * won["change"] >= 9 * won["pairs"] and gain > p_q3 - p_q1,
    }


def bound_verdict(compared: dict, bound: float) -> dict:
    """``compare``'s record of one metric judged against ``bound``, a
    fraction of the parent's median: the allowance, ``within_bound`` and
    ``unresolved``."""
    allowed = bound * abs(compared["parent"]["median"])
    return {
        "bound": bound,
        "allowed": allowed,
        "within_bound": -compared["median_gain"] <= allowed,
        "unresolved": compared["parent_iqr"] > allowed,
    }


def digests_equal(digests: dict) -> bool:
    """Whether every run of both sides wrote one and the same digest;
    ``digests`` holds each side's distinct digests."""
    values = [*digests["parent"], *digests["change"]]
    return len(set(values)) == 1 and "None" not in values


def summarize(pairs: list[dict], directions: dict) -> dict:
    """``compare`` for every metric of ``directions`` (name -> "lower" or
    "higher") over ``pairs``, each ``{"parent": metrics, "change": metrics}``."""
    return {
        name: compare([p["parent"][name] for p in pairs], [p["change"][name] for p in pairs], better)
        for name, better in directions.items()
    }


def operation_totals(pairs: list[dict]) -> dict:
    """Each side's operations attempted and failed, summed over ``pairs``."""
    return {side: {count: sum(p[f"{side}_{count}"] for p in pairs) for count in ("attempted", "failed")}
            for side in SIDES}


def src_lines(tree: Path) -> int:
    """``wc -l src/chainviews/*.py`` of ``tree``: the total line count."""
    return sum(path.read_bytes().count(b"\n") for path in sorted((tree / "src" / "chainviews").glob("*.py")))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py`` invocation in ``tree``: its end-to-end
    metrics, operation counts, output digest and machine record."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed in {tree}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".bench_out" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "metrics": {name: entry["value"] for name, entry in summary["metrics"].items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "digest": next((rep["digest"] for rep in record["reps"] if "digest" in rep), None),
        "machine": record["machine"],
    }


def measure(trees: dict, workload: str, seed: int, pairs: int, seconds: float, spec: list[dict], log):
    """``pairs`` alternating pairs of one (workload, seed), judged on the
    end-to-end metrics of ``spec``: the run's record and the machine record
    of its first invocation."""
    directions = {metric["name"]: metric["better"] for metric in spec}
    rows, digests, machine = [], {side: [] for side in SIDES}, None
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        row = {"first": order[0]}
        for side in order:
            result = run_once(trees[side], workload, seed, seconds)
            row[side] = result["metrics"]
            row[f"{side}_attempted"], row[f"{side}_failed"] = result["attempted"], result["failed"]
            digests[side].append(result["digest"])
            machine = machine or result["machine"]
        rows.append(row)
        log(f"{workload} seed {seed} pair {i + 1}/{pairs} ({order[0]} first): "
            + ", ".join(f"{name} {row['parent'][name]:.4g} -> {row['change'][name]:.4g}" for name in directions))
    metrics = summarize(rows, directions)
    for metric in spec:
        metrics[metric["name"]].update(bound_verdict(metrics[metric["name"]], metric["bound"]))
    digests = {side: sorted(set(map(str, values))) for side, values in digests.items()}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "pairs": rows,
        "metrics": metrics,
        "operations": operation_totals(rows),
        "digests": digests,
        "digests_equal": digests_equal(digests),
    }, machine


# each CLI command compared, with its config (None: the command takes none)
CLI_COMMANDS = (
    ("gen-benchmark", "configs/clean_quick.yaml"),
    ("run", "configs/clean_quick.yaml"),
    ("diversity", "configs/clean_quick.yaml"),
    ("ablate", "configs/collapse_ablation.yaml"),
    ("verify", None),
)
# per CLI output file, the key that may differ between two trees, at any depth
CLI_UNCOMPARED = {
    "report.json": "timing",
    "diversity.meta.json": "dataset",
    "ablate.meta.json": "runtime_seconds",
    "verify_report.json": "runtime_seconds",
}


def run_cli(tree: Path, out: Path) -> None:
    """Each of ``CLI_COMMANDS`` from ``tree``'s sources, all writing to ``out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for command, config in CLI_COMMANDS:
        argv = [sys.executable, "-m", "chainviews.cli", command, "--out", str(out)]
        argv += ["--config", config] if config else []
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} failed in {tree}:\n{proc.stderr}")


def without(value, key: str):
    """A JSON value with ``key`` dropped from every object in it, at any depth."""
    if isinstance(value, dict):
        return {k: without(v, key) for k, v in value.items() if k != key}
    if isinstance(value, list):
        return [without(v, key) for v in value]
    return value


def cli_content(path: Path):
    """A CLI output file as compared: its bytes, or its JSON record without
    the key of ``CLI_UNCOMPARED``."""
    key = CLI_UNCOMPARED.get(path.name)
    if key is None:
        return path.read_bytes()
    return without(json.loads(path.read_text(encoding="utf-8")), key)


def cli_differences(parent: Path, change: Path) -> list[str]:
    """The names of the files in two CLI output directories that differ,
    one-sided files included."""
    names = sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()})
    return [name for name in names
            if not ((parent / name).is_file() and (change / name).is_file())
            or cli_content(parent / name) != cli_content(change / name)]


def leaves(value, path=()):
    """Each ``(path, leaf)`` of a JSON value, or of a CSV file as its list of rows."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from leaves(item, (*path, key))
    else:
        yield path, value


def as_number(leaf):
    """A JSON leaf or a CSV cell as a float when it is a number, else as it is."""
    if isinstance(leaf, bool) or not isinstance(leaf, (int, float, str)):
        return leaf
    try:
        return float(leaf)
    except ValueError:
        return leaf


def difference_size(parent: Path, change: Path):
    """The largest absolute and relative differences between the paired
    numbers of two versions of a CLI output file, as compared by
    ``cli_differences``; ``"structure differs"`` when they do not pair up."""
    if not (parent.is_file() and change.is_file()) or parent.suffix not in (".csv", ".json"):
        return "structure differs"
    sides = []
    for path in (parent, change):
        text = path.read_text(encoding="utf-8")
        value = list(csv.reader(text.splitlines())) if path.suffix == ".csv" else json.loads(text)
        sides.append(list(leaves(without(value, CLI_UNCOMPARED.get(path.name)))))
    if [path for path, _ in sides[0]] != [path for path, _ in sides[1]]:
        return "structure differs"
    gaps = [(0.0, 0.0)]
    for (_, a), (_, b) in zip(*sides):
        a, b = as_number(a), as_number(b)
        if not (isinstance(a, float) and isinstance(b, float)):
            if a != b:
                return "structure differs"
        elif a != b and not (math.isnan(a) and math.isnan(b)):
            gap = abs(a - b)
            gaps.append((gap, gap / max(abs(a), abs(b))) if math.isfinite(gap) else (math.inf, math.inf))
    return {"max_abs": max(g for g, _ in gaps), "max_rel": max(r for _, r in gaps)}


# the demos whose stdout holds no wall-clock time, so that two trees' runs compare
DEMOS = ("channel_tour", "information_decay", "filtering_demo", "spread_across_rounds")


def demo_outputs(tree: Path, scratch: Path) -> dict[str, str]:
    """The stdout of each of ``DEMOS``, by name, run from ``tree``'s sources
    in a new empty directory under ``scratch``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    outputs = {}
    for name in DEMOS:
        cwd = Path(tempfile.mkdtemp(prefix=f"demo-{name}-", dir=scratch))
        argv = [sys.executable, str(tree / "demos" / f"{name}.py")]
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} failed in {tree}:\n{proc.stderr}")
        outputs[name] = proc.stdout
    return outputs


def demo_differences(parent: dict, change: dict) -> list[str]:
    """The names of the demos whose stdout differs between two trees'
    ``demo_outputs``, one-sided demos included."""
    return sorted(name for name in parent.keys() | change.keys() if parent.get(name) != change.get(name))


def scratch_directory() -> tempfile.TemporaryDirectory:
    """The run's ``pairs-*`` temporary directory, removed when its ``with``
    block ends. SIGTERM raises ``SystemExit`` from then on, so that a
    terminated run ends the block and removes the directory too."""

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    return tempfile.TemporaryDirectory(prefix="pairs-")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    # the measured code is this checkout as it stands now, committed or not
    change = {
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no", "--", "src", "benchmarks")),
    }

    def log(line):
        print(line, file=sys.stderr, flush=True)

    with scratch_directory() as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        cli_outs = {side: Path(tmp) / f"cli-{side}" for side in SIDES}
        for side in SIDES:
            run_cli(trees[side], cli_outs[side])
        differing = cli_differences(cli_outs["parent"], cli_outs["change"])
        sizes = {name: difference_size(cli_outs["parent"] / name, cli_outs["change"] / name) for name in differing}
        demos = {side: demo_outputs(trees[side], Path(tmp)) for side in SIDES}
        demos_differing = demo_differences(demos["parent"], demos["change"])
        measured = [measure(trees, workload, seed, args.pairs, args.seconds, spec, log)
                    for workload in args.workload for seed in args.seed]
        lines = {side: src_lines(tree) for side, tree in trees.items()}
    result = {
        "command": ["tools/pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "parent": {"rev": args.parent, "commit": parent_commit, "src_lines": lines["parent"]},
        "change": {**change, "src_lines": lines["change"]},
        "machine": measured[0][1],
        "runs": [run for run, _ in measured],
        "cli_outputs_equal": not differing,
        "cli_outputs_differ": differing,
        "cli_difference_sizes": sizes,
        "demo_outputs_equal": not demos_differing,
        "demo_outputs_differ": demos_differing,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for run in result["runs"]:
        for name, m in run["metrics"].items():
            print(f"{run['workload']} seed {run['seed']} {name:12s} parent {m['parent']['median']:.4f} "
                  f"change {m['change']['median']:.4f}  wins {m['wins']['change']}/{m['wins']['pairs']}  "
                  f"gain {m['median_gain']:+.4f} vs parent IQR {m['parent_iqr']:.4f}  "
                  f"{'better' if m['change_is_better'] else 'not shown better'}; "
                  f"{'within' if m['within_bound'] else 'WORSE beyond'} bound {m['bound']:g} ({m['allowed']:.4f} worse allowed)"
                  f"{', unresolved' if m['unresolved'] else ''}")
        print(f"{run['workload']} seed {run['seed']} operations "
              + "; ".join(f"{side} {n['attempted']} attempted, {n['failed']} failed" for side, n in run["operations"].items()))
        print(f"{run['workload']} seed {run['seed']} digests_equal {run['digests_equal']}")
    print(f"cli_outputs_equal {not differing}" + (f" (differ: {', '.join(differing)})" if differing else ""))
    for name, size in sizes.items():
        print(f"  {name}: {size if isinstance(size, str) else 'max abs {max_abs:.3g}, max rel {max_rel:.3g}'.format(**size)}")
    print(f"demo_outputs_equal {not demos_differing}"
          + (f" (differ: {', '.join(demos_differing)})" if demos_differing else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
