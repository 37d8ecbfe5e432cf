"""Compare a parent and a change on the benchmark, run alternately.

    python3 perfbench/compare.py run --parent DIR --change DIR --out results.json
    python3 perfbench/compare.py judge results.json

Both commands read the workloads, the run length and the bounds from
BENCHMARK.json (`--spec` names another copy). `run` makes ten pairs per
workload, one fixed seed per pair, running each checkout's own
perfbench/run.py from that checkout, and alternates which side goes first.
A side that yields no result is recorded as a failed run and the pairs go
on; results are written after every pair. `judge` prints one verdict per
(metric, workload):

- improved: the change wins at least 9/10 of the pairs (ties count for
  neither), its median is better by more than the parent's interquartile
  distance, and it fails no more items than the parent;
- unresolved: the parent's own spread is wider than the bound and not
  every change run beats every parent run, so no call is made;
- no worse: the change's median is worse than the parent's by at most the
  metric's bound;
- worse: the median is worse by more than the bound, or the change
  yielded no result in more pairs than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

DEFAULT_SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# pairs per workload, and the seed of the first pair
PAIRS = 10
FIRST_SEED = 1000


def load_spec(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def verdict(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float,
    parent_failed: int = 0,
    change_failed: int = 0,
) -> str:
    """Verdict for one (metric, workload); parent[i] and change[i] are a pair."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    p1, pm, p3 = stats.quartiles(parent)
    _, cm, _ = stats.quartiles(change)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    if (
        10 * wins >= 9 * len(parent)
        and _better(cm, pm, better)
        and abs(cm - pm) > p3 - p1
        and change_failed <= parent_failed
    ):
        return "improved"
    all_better = all(_better(c, p, better) for c in change for p in parent)
    if stats.spread(parent) > bound and not all_better:
        return "unresolved"
    worse_by = (pm - cm if better == "higher" else cm - pm) / abs(pm) if pm else 0.0
    return "worse" if worse_by > bound else "no worse"


def run_side(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one run, or {"error": reason} when there is none."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"no result, exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}


def cmd_run(args) -> int:
    spec = load_spec(args.spec)
    results = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                sides.reverse()
            for side, checkout in sides:
                res = run_side(checkout, workload, seed, spec["run_seconds"])
                results.append(
                    {"side": side, "workload": workload, "pair": i, "seed": seed, "result": res}
                )
                print(f"{workload} pair {i} {side}: "
                      f"{res.get('error') or 'correct=%s' % res.get('correct')}", file=sys.stderr)
            with open(args.out, "w") as fh:
                json.dump(results, fh, indent=1)
    return 0


def cmd_judge(args) -> int:
    with open(args.results) as fh:
        results = json.load(fh)
    spec = load_spec(args.spec)
    by = {}
    for r in results:
        by.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = r["result"]
    print(f"{'workload':10s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>6s}  verdict")
    for workload, pairs in by.items():
        pairs = [p for _, p in sorted(pairs.items()) if "parent" in p and "change" in p]
        no_result = {
            side: sum("error" in p[side] for p in pairs) for side in ("parent", "change")
        }
        complete = [p for p in pairs if "error" not in p["parent"] and "error" not in p["change"]]
        failed = {
            side: sum(p[side]["failed"] for p in complete) for side in ("parent", "change")
        }
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [p["parent"]["metrics"][name]["value"] for p in complete]
            cv = [p["change"]["metrics"][name]["value"] for p in complete]
            if no_result["change"] > no_result["parent"]:
                v = "worse"
            elif not complete:
                v = "unresolved"
            else:
                v = verdict(pv, cv, m["better"], m["bound"], failed["parent"], failed["change"])
            if not complete:
                print(f"{workload:10s} {name:12s} {'(no complete pair)':>76s}  {v}")
                continue
            wins = sum(_better(c, p, m["better"]) for p, c in zip(pv, cv))
            pq, cq = stats.quartiles(pv), stats.quartiles(cv)
            print(
                f"{workload:10s} {name:12s} "
                f"{pq[1]:12.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
                f"{cq[1]:12.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] "
                f"{wins:3d}/{len(complete):<2d}  {v}"
            )
        print(f"{workload:10s} failed items: parent {failed['parent']}, change {failed['change']}; "
              f"runs without a result: parent {no_result['parent']}, "
              f"change {no_result['change']}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="parent-versus-change benchmark comparison")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run parent and change alternately")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--out", required=True)
    j = sub.add_parser("judge", help="verdict per (metric, workload)")
    j.add_argument("results")
    for p in (r, j):
        p.add_argument("--spec", default=DEFAULT_SPEC, help="BENCHMARK.json to read")
    args = ap.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_judge(args)


if __name__ == "__main__":
    sys.exit(main())
