"""Tests of the benchmark itself: negative controls for the correctness
gate, the tracer's self-time arithmetic, and the metric tables.

    python3 -m pytest bench
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _failures(workload, corrupt):
    ref = gate.load_reference(workload)
    answers = copy.deepcopy(ref["answers"])
    corrupt(answers)
    failures = gate.check(answers, {}, ref["answers"])
    assert gate.fail_frac(failures, len(ref["answers"])) > 0
    return failures


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_references_pass_the_gate(workload):
    ref = gate.load_reference(*workloads.WORKLOADS[workload])
    assert gate.check(copy.deepcopy(ref["answers"]), {}, ref["answers"]) == []


def test_mu_with_a_member_dropped_fails():
    failures = _failures("alt-spectra", lambda a: a["A20"]["mu"].pop())
    assert failures == ["A20: differs from reference"]
    failures = _failures("oracle-xcheck", lambda a: a["oracle:SU3_5"]["mu"].pop(0))
    assert failures == ["oracle:SU3_5: oracle mu differs from formula mu"]


def test_flipped_verdict_fails():
    failures = _failures(
        "catalog-cases", lambda a: a["verify:G2(11)"].update(verdict="failed(filter)"))
    assert failures == ["verify:G2(11): verdict 'failed(filter)'"]


def test_extra_enumerated_group_fails():
    failures = _failures("catalog-cases", lambda a: a["enumerate:37"].append("A41"))
    assert failures == ["enumerate:37: differs from reference"]


def test_raised_missing_and_unexpected_answers_fail():
    ref = gate.load_reference("graph-queries")
    answers = copy.deepcopy(ref["answers"])
    del answers["L2(4)"], answers["L2(5)"]
    answers["L2(6)"] = "0"
    failures = gate.check(answers, {"L2(4)": "ValueError: boom"}, ref["answers"])
    assert failures == ["L2(4): raised ValueError: boom", "L2(5): missing",
                        "L2(6): unexpected answer"]


def test_self_times_subtract_direct_children():
    tr = [["bench.pass", 0.0, 10.0, None], ["a", 1.0, 4.0, 0],
          ["b", 2.0, 3.0, 1], ["c", 5.0, 9.0, 0]]
    assert spans.self_times(tr) == [3.0, 2.0, 1.0, 4.0]


def test_traced_catalog_pass_checks_out_and_adds_up():
    ref = gate.load_reference("catalog-cases")
    ops = workloads.ops(("catalog-cases",), workloads.pass_rng("catalog-graph", 7, 0), ref)
    tr = spans.Tracer()
    with tr.span("bench.pass"):
        raw, raised, seconds = workloads.run_ops(ops, tr)
    assert gate.check(workloads.answers(ops, raw), raised, ref["answers"]) == []
    assert len(seconds) == len(ref["answers"])
    own = spans.self_times(tr.spans)
    _, start, end, _ = tr.spans[0]
    assert sum(own) == pytest.approx(end - start, abs=1e-9)
    assert tr.counters["verifier.family_graphs"] == 13 + 17 + 30 + 921
    assert tr.counters["catalog.enumerate_found"] == sum(
        len(v) for k, v in ref["answers"].items() if k.startswith("enumerate:"))
    assert tr.counters["cli.bytes_out"] == len(ref["answers"]["table1"]["stdout"].encode())


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle-alt",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
