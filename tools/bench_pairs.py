"""Run perfbench alternately in two checkouts and record the pairs.

For each seed, ``python3 perfbench/run.py`` runs once in PARENT and once in
CHANGE, each from the root of its own checkout; even-indexed seeds run the
parent first and odd-indexed seeds the change first, so slow drift of the
host does not favour one side.  The pairs and a summary are merged into the
JSON file given by ``--out`` (created if missing), keyed by workload:

    pairs[W]    one record per seed with both sides' end-to-end metrics and
                per-job times (``job_best_s``, each job's fastest untraced
                repetition, and ``job_median_s``, its median one), so a
                record shows which job moved
    summary[W]  per metric: median and quartiles of each side, the ratio of
                the medians (change / parent) and how many pairs the change
                wins, over the pairs whose runs are both correct; ``jobs``,
                per job over the same pairs, each side's median
                ``job_best_s``, their ratio and how many pairs the change
                ran faster, and the same four over ``job_median_s`` under
                ``median_rep``, so a summary shows which job moved; and
                ``incorrect_runs``, per side, the runs that reported
                ``correct: false`` or failed jobs, which no statistic counts
    trace_W     with --trace 1, per side: each run's correctness and, for
                every metric nonzero in some run, its value per seed (in
                seed order) and their median, since one traced pair does
                not resolve a layer on a noisy host

The record holds the package version of both checkouts (``version``,
``parent_version``) and the parent's git commit where it has one.  perfbench
exits 0 when an output check fails, so the tool checks each run's result: it
exits 1, after writing the record, if any run in the change checkout was
incorrect.

Usage:
    python tools/bench_pairs.py PARENT CHANGE --workload W --seeds A-B
        [--seconds 30] [--trace 0|1] [--out BENCH.json]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

METRICS = {"steps_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
METHOD = ("parent and change run alternately per seed (odd-indexed seeds run the change "
          "first), each from its own checkout with identical perfbench/ files; steps_per_s "
          "is the harness's best-of-repetitions statistic, setup_s and peak_rss_mb its medians; "
          "job_best_s and job_median_s are each job's fastest and median untraced repetition")


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(machine block, result line, per-job untraced repetition seconds) of
    one perfbench run in checkout; the repetition times come from the run's
    full record in perfbench/.out/."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = next(line for line in lines if line.startswith("machine: "))
    machine = dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", machine[len("machine: "):]))
    path = os.path.join(checkout, "perfbench", ".out",
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        reps = json.load(f)["untraced_reps"]
    return machine, json.loads(lines[-1]), {job: [r["jobs"][job] for r in reps]
                                            for job in reps[0]["jobs"]}


def end_to_end(result: dict, job_times: dict) -> dict:
    record = {name: result["metrics"][name]["value"] for name in METRICS}
    record.update(correct=result["correct"], failed=result["failed"],
                  attempted=result["attempted"],
                  job_best_s={job: min(t) for job, t in job_times.items()},
                  job_median_s={job: statistics.median(t) for job, t in job_times.items()})
    return record


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def incorrect(run: dict) -> bool:
    """A run whose outputs failed their checks or that had failed jobs."""
    return not run["correct"] or run.get("failed", 0) > 0


def summarize(pairs: list) -> dict:
    """Per metric and per job, the statistics over the pairs whose runs are
    both correct (none if there are no such pairs), and per side the number
    of incorrect runs."""
    valid = [p for p in pairs if not incorrect(p["parent"]) and not incorrect(p["change"])]
    out = {"incorrect_runs": {side: sum(incorrect(p[side]) for p in pairs)
                              for side in ("parent", "change")}}
    for name, better in METRICS.items() if valid else ():
        parent = [p["parent"][name] for p in valid]
        change = [p["change"][name] for p in valid]
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
        out[name] = {"parent": quartiles(parent), "change": quartiles(change),
                     "ratio_of_medians": statistics.median(change) / statistics.median(parent),
                     "change_better_pairs": wins, "pairs": len(valid)}
    if valid:
        out["jobs"] = {job: dict(_job_times(valid, "job_best_s", job),
                                 median_rep=_job_times(valid, "job_median_s", job))
                       for job in valid[0]["parent"]["job_best_s"]}
    return out


def _job_times(valid: list, field: str, job: str) -> dict:
    """Each side's median of one job's ``field`` over the pairs, their ratio
    and the pairs in which the change ran faster."""
    parent = [p["parent"][field][job] for p in valid]
    change = [p["change"][field][job] for p in valid]
    return {"parent_median_s": statistics.median(parent),
            "change_median_s": statistics.median(change),
            "ratio_of_medians": statistics.median(change) / statistics.median(parent),
            "change_better_pairs": sum(c < p for p, c in zip(parent, change))}


def git_head(checkout: str):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def package_version(checkout: str) -> str:
    with open(os.path.join(checkout, "src", "qfilt", "__init__.py")) as f:
        return re.search(r'__version__ = "([^"]+)"', f.read()).group(1)


def trace_layers(runs: list) -> dict:
    """One side's traced runs, in seed order: whether each was correct and,
    per metric nonzero in some run, its value in each run and their median."""
    names = [k for k in runs[0]["metrics"] if any(r["metrics"][k] for r in runs)]
    return {"correct": [r["correct"] for r in runs],
            "metrics": {k: {"values": [r["metrics"][k] for r in runs],
                            "median": statistics.median(r["metrics"][k] for r in runs)}
                        for k in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    pairs, machine = [], None
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        record = {"seed": seed, "first": order[0]}
        for side in order:
            machine, result, job_times = run_once(sides[side], args.workload, seed,
                                                  args.seconds, args.trace)
            if args.trace:
                record[side] = {"correct": result["correct"],
                                "metrics": {k: m["value"] or 0.0
                                            for k, m in result["metrics"].items()}}
            else:
                record[side] = end_to_end(result, job_times)
            print(f"{args.workload} seed {seed} {side}: "
                  + (f"correct={result['correct']}" if args.trace else json.dumps(record[side])),
                  flush=True)
        pairs.append(record)

    bench = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            bench = json.load(f)
    bench.update(version=package_version(sides["change"]),
                 parent_version=package_version(sides["parent"]),
                 parent_commit=git_head(sides["parent"]), machine=machine)
    if args.trace:
        bench[f"trace_{args.workload.replace('-', '_')}"] = dict(
            command=f"python3 perfbench/run.py --workload {args.workload} --seed S "
                    f"--seconds {args.seconds:g} --trace 1",
            seeds=args.seeds,
            **{side: trace_layers([p[side] for p in pairs]) for side in ("parent", "change")})
    else:
        bench.update(command="python3 perfbench/run.py --workload W --seed S "
                             f"--seconds {args.seconds:g} --trace 0", method=METHOD)
        seeds = set(args.seeds)
        kept = [p for p in bench.get("pairs", {}).get(args.workload, []) if p["seed"] not in seeds]
        bench.setdefault("pairs", {})[args.workload] = sorted(kept + pairs,
                                                              key=lambda p: p["seed"])
        summary = bench.setdefault("summary", {})[args.workload] = summarize(
            bench["pairs"][args.workload])
        for name in METRICS:
            if name in summary:
                s = summary[name]
                print(f"{args.workload} {name}: parent median {s['parent']['median']:.6g}, "
                      f"change median {s['change']['median']:.6g}, ratio "
                      f"{s['ratio_of_medians']:.3f}, change better in "
                      f"{s['change_better_pairs']}/{s['pairs']}")
        for job, s in summary.get("jobs", {}).items():
            for stat, t in (("best_s", s), ("median_rep_s", s["median_rep"])):
                print(f"{args.workload} job {job} {stat}: parent median"
                      f" {t['parent_median_s']:.6g}, change median {t['change_median_s']:.6g},"
                      f" ratio {t['ratio_of_medians']:.3f}, change faster in"
                      f" {t['change_better_pairs']}/{summary['steps_per_s']['pairs']}")
        bad = summary["incorrect_runs"]
        print(f"{args.workload} incorrect runs (in no statistic): parent {bad['parent']}, "
              f"change {bad['change']}")
    with open(args.out, "w") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")
    return 1 if any(incorrect(p["change"]) for p in pairs) else 0


if __name__ == "__main__":
    sys.exit(main())
