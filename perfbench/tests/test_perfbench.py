"""Self-tests for the benchmark harness (run: python3 -m pytest perfbench/tests)."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import tracing
import workloads
import yardstick

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def reference():
    return harness.load_reference()


@pytest.fixture(scope="module")
def churn_500():
    return workloads.churn(500)


def test_wrappers_restored_after_traced_run(churn_500):
    before = tracing.bindings()
    with tracing.traced(tracing.Tracer()):
        patched = tracing.bindings()
        harness.run_scenario(churn_500)
    assert all(a[2] is b[2] for a, b in zip(before, tracing.bindings()))
    assert all(a[2] is not b[2] for a, b in zip(before, patched))


def test_wrappers_restored_when_the_traced_block_raises():
    before = tracing.bindings()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(a[2] is b[2] for a, b in zip(before, tracing.bindings()))


def test_traced_run_is_byte_identical_to_untraced(churn_500, reference):
    plain = harness.run_scenario(churn_500)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        spanned = harness.run_scenario(churn_500)
    assert plain.digests == spanned.digests
    assert plain.stats == spanned.stats
    assert harness.mismatch(spanned, reference, "churn") == ""
    # Layer self times, the unattributed remainder and the wrapper cost
    # moved out of parents add up to the traced time.
    cost = tracing.span_cost()
    assert 0 < cost < 1e-4
    metrics = tracing.layer_metrics(tracer, spanned.stats["payloads"], cost)
    layered = sum(v for k, (v, _) in metrics.items() if k.endswith(".s"))
    assert metrics["trace.wrapper_s"][0] > 0
    assert layered + metrics["trace.wrapper_s"][0] == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert all(v >= 0 for k, (v, _) in metrics.items() if k.endswith(".s"))
    assert metrics["sim.in_range.calls"][0] > 0
    assert metrics["audit.trial_decrypts"][0] > 0
    assert 0 < metrics["audit.trial_decrypt_hit_ratio"][0] < 1


def test_span_cost_moves_to_wrapper_time_per_child():
    tracer = tracing.Tracer()
    parent, child = tracer.name_id("p"), tracer.name_id("c")
    # One parent span of 10 s with two 1 s children.
    for pid, nid, start, end in ((-1, parent, 0.0, 10.0), (0, child, 1.0, 2.0), (0, child, 3.0, 4.0)):
        tracer.parent.append(pid)
        tracer.name.append(nid)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.scenario.append(0)
    calls, own, wrapper = tracer.self_times(0.5)
    assert calls["p"] == 1 and calls["c"] == 2
    assert own["p"] == 7.0 and own["c"] == 2.0 and wrapper == 1.0
    # A parent never gives up more self time than it has.
    _, own, wrapper = tracer.self_times(10.0)
    assert own["p"] == 0.0 and wrapper == 8.0


def test_yardstick_scale_is_reference_over_the_mean_of_the_samples_around():
    ref = yardstick.REFERENCE_S
    assert yardstick.scales([ref, ref, 3 * ref]) == pytest.approx([1.0, 0.5])
    # The same work on a host running at half speed reads the same once scaled.
    fast = 0.2 * yardstick.scales([ref, ref])[0]
    slow = 0.4 * yardstick.scales([2 * ref, 2 * ref])[0]
    assert fast == pytest.approx(slow)
    assert 0 < yardstick.seconds() < 10 * ref


def test_tampered_reference_digest_is_a_failure(churn_500, reference):
    outcome = harness.run_scenario(churn_500)
    assert harness.mismatch(outcome, reference, "churn") == ""
    tampered = json.loads(json.dumps(reference))
    entry = tampered["workloads"]["churn"]["500"]
    digest = entry["digests"]["payloads"]
    entry["digests"]["payloads"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert "payloads digest" in harness.mismatch(outcome, tampered, "churn")
    assert run._check([outcome], tampered, "churn") == 1
    tampered = json.loads(json.dumps(reference))
    tampered["workloads"]["churn"]["500"]["stats"]["events"]["send"] += 1
    assert "statistics" in harness.mismatch(outcome, tampered, "churn")
    del tampered["workloads"]["churn"]["500"]
    assert harness.mismatch(outcome, tampered, "churn") == "no reference entry"


def test_metric_names_are_well_formed_and_match_benchmark_json():
    declared_e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    declared_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert declared_e2e == list(run.END_TO_END)
    assert declared_layer == tracing.per_layer_metric_names()
    names = declared_e2e + declared_layer
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name


def test_workload_table_matches_benchmark_json():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: w.why for name, w in workloads.WORKLOADS.items()}


def test_prediction_table_names_exist():
    table = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    layer_metrics = set(tracing.per_layer_metric_names())
    for row in table["layers"]:
        for layer in row["layers"]:
            assert any(m == layer or m.startswith(layer + ".") for m in layer_metrics), layer
        assert set(row["moves"]) <= set(run.END_TO_END)
        assert set(row["on"]) | set(row["flat_on"]) <= set(workloads.WORKLOADS)
        assert not set(row["on"]) & set(row["flat_on"])


@pytest.mark.parametrize("count", [1, 9, 10, 11, 19, 20, 25, 40, 62, 80, 1000])
def test_tail_leaves_ten_samples_above(count):
    percentile, rank = harness.tail_rank(count)
    if count > 10:
        assert count - rank >= 10
        # One percentile higher would leave fewer than ten above.
        higher = -(-(percentile + 1) * count // 100)
        assert count - higher < 10 or percentile + 1 > 100
    assert 1 <= rank <= count


def test_plan_is_seeded_and_drawn_from_the_pool():
    seconds = BENCHMARK["run_seconds"]
    for workload in workloads.WORKLOADS.values():
        first = workload.plan(3, seconds)
        assert first == workload.plan(3, seconds)
        assert first != workload.plan(4, seconds)
        assert set(first) <= set(workload.pool)
        assert len(first) == len(set(first))  # the run length fits in the pool


def test_spans_round_trip(tmp_path, churn_500):
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        harness.run_scenario(churn_500)
    path = tmp_path / "spans.bin"
    tracer.write(path, [500])
    header, arrays = tracing.read_spans(path)
    assert header["names"] == tracer.names and header["scenario_seeds"] == [500]
    assert [list(a) for a in arrays] == [list(a) for a in tracer._arrays()]


def test_digests_do_not_depend_on_hash_seed(reference):
    code = (
        "import json, harness, workloads as w; print(json.dumps([harness.run_scenario(s).digests "
        "for s in (w.churn(500), w.churn(501), w.grid_mobile(900))]))"
    )
    expected = [reference["workloads"][w][s]["digests"] for w, s in
                (("churn", "500"), ("churn", "501"), ("grid_mobile", "900"))]
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert json.loads(done.stdout) == expected


def test_command_prints_result_last(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert list(result["metrics"]) == list(run.END_TO_END)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
