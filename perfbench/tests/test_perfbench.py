"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_item_list_depends_on_seed_only(workload):
    laps = workloads.laps_for(workload, SPEC["run_seconds"])
    a = workloads.item_list(workload, 7, laps)
    b = workloads.item_list(workload, 8, laps)
    assert a == workloads.item_list(workload, 7, laps)
    assert a != b
    # at the benchmark's run length every seed runs the same multiset
    strata = workloads.WORKLOADS[workload]
    assert all(laps % len(s) == 0 for s in strata)
    assert sorted(map(workloads.item_key, a)) == sorted(map(workloads.item_key, b))
    # every lap draws one item from every stratum
    assert len(a) == laps * len(strata)
    first = a[: len(strata)]
    for stratum in strata:
        assert sum(item in stratum for item in first) >= 1


def test_base_change_items_cover_every_eligible_exponent():
    from toric_correlator import eligible_exponents

    pairs = ((3, 2), (5, 2), (7, 2), (3, 4), (9, 2))
    items = [i for s in workloads.CERTIFY for i in s]
    for q_base, ext in pairs:
        q = q_base**ext
        js = sorted(
            i[4] for i in items
            if i[0] == "shintani" and (i[1], i[2] ** i[3]) == (q_base, q)
        )
        assert js == eligible_exponents(q_base, ext), (q_base, ext)
    lemmas = sorted((i[1], i[2] ** i[3]) for i in items if i[0] == "lemma")
    assert lemmas == sorted((q_base, q_base**ext) for q_base, ext in pairs)


def _reference():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)


def test_every_drawable_item_has_a_reference_digest():
    ref = _reference()
    missing = [workloads.item_key(i) for i in workloads.all_items()
               if workloads.item_key(i) not in ref]
    assert not missing


@pytest.mark.parametrize(
    "n, pct",
    [(1, None), (10, None), (11, 9), (19, 47), (20, 50), (34, 70),
     (100, 90), (101, 90), (1000, 99), (10010, 99)],
)
def test_tail_percentile(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_rule_leaves_ten_beyond_and_is_highest():
    for n in range(11, 2000):
        vals = list(range(n))
        pct = stats.tail_percentile(n)
        value, got = stats.tail(vals)
        assert got == pct
        assert n - 1 - value >= 10, n
        # the next whole percentile would leave fewer than ten beyond
        assert n - 1 - stats.nearest_rank(vals, pct + 1) < 10, n


def test_tail_with_too_few_items_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_perturbed_constant_fails_the_digest_gate():
    item = workloads.WARMUP["constants"]
    ref = _reference()
    payload, checks = workloads.run_item(item)
    assert workloads.check_item(item, payload, checks, ref) is None
    bad = copy.deepcopy(payload)
    rec = next(r for r in bad["records"] if r["value"]["coeffs"][0][0])
    rec["value"]["coeffs"][0][0] += 1
    assert workloads.check_item(item, bad, checks, ref) == "digest differs from the reference"
    # the float approximation is not part of the digest
    loose = copy.deepcopy(payload)
    loose["records"][0]["value"]["approx"]["re"] += 0.5
    assert workloads.check_item(item, loose, checks, ref) is None
    assert workloads.check_item(item, payload, checks + [False], ref) is not None


def test_tracer_patches_every_binding_and_counts_repeat():
    import toric_correlator
    from toric_correlator import correlation, modp, sympow

    original = correlation.corr_constant
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert toric_correlator.corr_constant is not original
            assert modp.corr_constant is correlation.corr_constant is sympow.corr_constant
            tracer.item = 0
            workloads.run_item(workloads.WARMUP["constants"])
        finally:
            tracer.uninstall()
        assert correlation.corr_constant is original is modp.corr_constant
        assert set(run.COVERAGE["constants"]) <= tracer.fired()
        layers = tracer.layer_metrics(1.0)
        counts.append({k: layers[k] for k in run.EXACT_COUNTS})
        assert layers["cyclo.handle_builds"] == 0
        # nothing ran as set-up, so no set-up tower was counted
        assert layers["fields.setup_tower_builds"] == 0
    assert counts[0] == counts[1]


def test_setup_spans_are_kept_apart_from_measured_items():
    tracer = Tracer()
    tracer.install()
    try:
        workloads.run_item(workloads.WARMUP["constants"])  # item id -1: set-up
        tracer.item = 0
        workloads.run_item(workloads.WARMUP["constants"])
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(1.0)
    assert layers["fields.setup_tower_builds"] == layers["fields.tower_builds"] > 0
    assert layers["fields.setup_tower_build_s"] > 0
    assert min(tracer.span_item) == -1 and max(tracer.span_item) == 0
    # only the measured item's top-level spans count against item time
    top = [i for i in range(len(tracer.span_start))
           if tracer.span_parent[i] == -1 and tracer.span_item[i] == 0]
    covered = sum(tracer.span_end[i] - tracer.span_start[i] for i in top)
    assert tracer.top_level_s == pytest.approx(covered)


def test_error_counted_once_in_the_innermost_layer():
    from toric_correlator.fields import ConsistencyError

    tracer = Tracer()
    tracer.item = 0

    def fails():
        raise ConsistencyError("broken identity")

    inner = tracer.wrap("cyclo.inner", fails)
    outer = tracer.wrap("correlation.outer", inner)
    with pytest.raises(ConsistencyError):
        outer()
    assert tracer.errors["cyclo"] == 1
    assert tracer.errors["correlation"] == 0
    assert tracer.calls == {"cyclo.inner": 1, "correlation.outer": 1}
    # the outer span's self-time excludes the inner span
    assert 0 <= tracer.self_s["correlation.outer"] <= tracer.top_level_s
    assert list(tracer.span_parent) == [-1, 0]


def test_declared_metrics_are_the_ones_computed():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    per_layer = set(tracer.layer_metrics(1.0)) | {"trace.overhead_ratio"}
    assert per_layer == {m["name"] for m in SPEC["per_layer"]}
    fake = {"items": 20, "laps": 1, "latencies": [0.1 * i for i in range(1, 21)],
            "failures": [], "peak_rss_mb": 50.0}
    values, _ = run.end_to_end(fake, [0.2, 0.3, 0.25])
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values["setup_s"] == 0.25
    assert values["item_tail_s"] == pytest.approx(1.0)  # p50 of 20: rank 10


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [x * 0.8 for x in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    assert compare.verdict(parent, list(parent), "lower", 0.1) == "no worse"
    assert compare.verdict(parent, [x * 1.3 for x in parent], "lower", 0.1) == "worse"
    # a wide parent spread makes a large move unresolved rather than worse
    wide = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert stats.spread(wide) > 0.1
    assert compare.verdict(wide, [x * 1.15 for x in wide], "lower", 0.1) == "unresolved"
    # a gain does not count when the change fails more items
    assert compare.verdict(parent, faster, "lower", 0.1, 0, 1) == "no worse"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(noisy, [x * 1.02 for x in noisy], "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, [x * 1.2 for x in parent], "higher", 0.1) == "improved"


def test_compare_records_a_side_without_result_and_judges_it_worse(tmp_path, capsys):
    spec = {"end_to_end": [{"name": "items_per_s", "better": "higher", "bound": 0.1}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    ok = {"correct": True, "attempted": 5, "failed": 0,
          "metrics": {"items_per_s": {"value": 1.0, "unit": "1/s"}}}
    results = []
    for i in range(10):
        results.append({"side": "parent", "workload": "w", "pair": i, "seed": i, "result": ok})
        change = {"error": "no result"} if i == 3 else ok
        results.append({"side": "change", "workload": "w", "pair": i, "seed": i, "result": change})
    (tmp_path / "r.json").write_text(json.dumps(results))
    compare.main(["judge", str(tmp_path / "r.json"), "--spec", str(tmp_path / "spec.json")])
    out = capsys.readouterr().out
    assert "worse" in out.splitlines()[1]
    assert "runs without a result: parent 0, change 1" in out
    # a checkout without the benchmark yields a failed side, not an exception
    assert "error" in compare.run_side(str(tmp_path), "constants", 1, 1)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "constants",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
