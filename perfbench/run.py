"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload constants|residues|certify
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each sample runs in its own process
(worker.py), built from this checkout's src/. With --trace 0 the run
prints the end-to-end metrics; with --trace 1 it runs the same items once
untraced and once traced and prints the per-layer metrics, the exact
counts and the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import stats  # noqa: E402
import workloads  # noqa: E402

# set-up is sampled in this many fresh processes and reported as the median
SETUP_RUNS = 7
# the whole run, all processes included, ends within this many seconds
DEADLINE_S = 170.0

# spans each workload must fire in a traced run; a span that never fires
# there means a wrapper missed a binding, which would read as zero
COVERAGE = {
    "constants": [
        "fields.tower_build", "pgl2.group_init", "cyclo.from_counter",
        "correlation.pair_counts", "correlation.corr_constant",
        "correlation.epsilon", "correlation.regular_identity",
        "correlation.correlate_all", "cli.to_json",
    ],
    "residues": [
        "fields.tower_build", "pgl2.group_init", "cyclo.from_counter",
        "correlation.pair_counts", "correlation.corr_constant",
        "cyclo.factor", "cyclo.handle_build", "cyclo.reduce",
        "gfpoly.powmod", "gfpoly.edf", "modp.sweep", "modp.rep_report",
        "modp.relabel_map", "cli.to_json",
    ],
    "certify": [
        "fields.tower_build", "pgl2.group_init", "cyclo.from_counter",
        "pgl2.orthogonality", "pgl2.invariant_dims", "correlation.epsilon",
        "sympow.diamond", "sympow.st_report", "sympow.jh",
        "shintani.operator_check", "shintani.theorem", "shintani.lemma",
        "ps_model.check", "chars.gauss_sum", "cli.to_json",
    ],
}

# counts that repeat exactly for a workload, seed and run length
EXACT_COUNTS = [
    "fields.tower_builds",
    "fields.setup_tower_builds",
    "correlation.pair_counts_calls",
    "cyclo.from_counter_calls",
    "cyclo.factor_calls",
    "cyclo.factor_cache_hits",
    "cyclo.handle_builds",
    "cyclo.handle_distinct",
    "gfpoly.powmod_calls",
]


class WorkerError(RuntimeError):
    pass


def run_worker(args, role: str, seconds: float, trace: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--role", role,
    ]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{role} worker ran past the deadline") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"{role} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def items_per_s(run: dict) -> float:
    done = run["items"] - len(run["failures"])
    return done / sum(run["latencies"])


def end_to_end(run: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """(metric values, notes for the printed table)."""
    lat = run["latencies"]
    tail_s, pct = stats.tail(lat)
    values = {
        "items_per_s": items_per_s(run),
        "item_p50_s": statistics.median(lat),
        "item_tail_s": tail_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {
        "items_per_s": f"{run['items']} items, {run['laps']} laps",
        "item_p50_s": f"{len(lat)} items",
        "item_tail_s": f"p{pct} of {len(lat)} items",
        "setup_s": f"median of {len(setup_samples)} processes",
        "peak_rss_mb": "measuring process",
    }
    return values, notes


def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:38s} {value:14.6g} {unit:6s} {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="toric-correlator benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "toric_correlator", "__init__.py")):
        print(f"no src/toric_correlator under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    try:
        if args.trace == 0:
            samples = [
                run_worker(args, "setup", args.seconds, False, deadline)["setup_s"]
                for _ in range(SETUP_RUNS - 1)
            ]
            run = run_worker(args, "measure", args.seconds, False, deadline)
            samples.append(run["setup_s"])
            values, notes = end_to_end(run, samples)
            attempted, failed = run["items"], len(run["failures"])
            declared = spec["end_to_end"]
            rows = [(m["name"], values[m["name"]], m["unit"], notes[m["name"]]) for m in declared]
            rows.append(("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} failed"))
            print_table(f"{args.workload}  seed {args.seed}  end to end", rows)
            correct = failed == 0
            failures = run["failures"]
        else:
            # the same items, once untraced and once traced, each in half the time
            base = run_worker(args, "measure", args.seconds / 2, False, deadline)
            traced = run_worker(args, "measure", args.seconds / 2, True, deadline)
            values = dict(traced["layers"])
            values["trace.overhead_ratio"] = items_per_s(traced) / items_per_s(base)
            declared = spec["per_layer"]
            units = {m["name"]: m["unit"] for m in declared}
            print_table(
                f"{args.workload}  seed {args.seed}  exact counts (repeat for a seed and run length)",
                [(n, values[n], units[n], "") for n in EXACT_COUNTS],
            )
            print_table(
                f"{args.workload}  seed {args.seed}  per layer",
                [(m["name"], values[m["name"]], m["unit"], "") for m in declared],
            )
            print(f"spans written to {traced['trace_file']}")
            missing = sorted(set(COVERAGE[args.workload]) - set(traced["fired"]))
            if missing:
                print(f"coverage: spans that never fired: {', '.join(missing)}", file=sys.stderr)
            attempted = base["items"] + traced["items"]
            failures = base["failures"] + traced["failures"]
            failed = len(failures)
            correct = failed == 0 and not missing
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for index, key, why in failures:
        print(f"FAIL item {index} {key}: {why}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
