"""``BENCHMARK.json``, the declarations and what ``run.py`` emits agree."""

import json
import re

import pytest

from bench import report, run, workloads

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["bench"]
    assert DECLARED["command"] == ["python3", "bench/run.py"]
    assert DECLARED["run_seconds"] == run.NOMINAL_SECONDS


def test_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] \
        == list(workloads.WORKLOADS) == list(workloads.SUBRUNS)
    for entry in DECLARED["workloads"]:
        assert set(entry) == {"name", "why"}
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_declarations_match():
    assert DECLARED["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in report.END_TO_END]
    assert len(report.END_TO_END) == 16
    assert all(0 < m.bound <= 0.25 for m in report.END_TO_END)
    setup = next(m for m in report.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in report.END_TO_END)


def test_per_layer_declarations_match():
    assert DECLARED["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in report.PER_LAYER]
    assert 1 <= len(report.PER_LAYER) <= 128
    # every per-layer metric says which end-to-end metric it should move
    assert all(m.moves for m in report.PER_LAYER)


def test_names_and_units_are_well_formed_and_unique():
    names = [m.name for m in report.END_TO_END + report.PER_LAYER]
    names += list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m.unit)
               for m in report.END_TO_END + report.PER_LAYER)
    assert all(m.better in ("lower", "higher")
               for m in report.END_TO_END + report.PER_LAYER)


def _result_line(capsys, *arguments):
    assert run.main(list(arguments)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, seconds", [("single_item_seq", 4.0),
                                               ("availability_mc", 10.0)])
def test_untraced_run_emits_every_end_to_end_metric_and_no_other(
        capsys, workload, seconds):
    line = _result_line(capsys, "--workload", workload, "--seed", "3",
                        "--seconds", str(seconds), "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"]
                                     for m in DECLARED["end_to_end"]]
    for entry in DECLARED["end_to_end"]:
        body = line["metrics"][entry["name"]]
        assert set(body) == {"value", "unit"}
        assert body["unit"] == entry["unit"]
        assert body["value"] > 0, entry["name"]      # never 0, never null


def test_traced_run_emits_every_per_layer_metric_and_no_other(capsys):
    line = _result_line(capsys, "--workload", "sharded_read_heavy",
                        "--seed", "3", "--seconds", "1", "--trace", "1")
    assert list(line["metrics"]) == [m["name"]
                                     for m in DECLARED["per_layer"]]
    values = {name: body["value"] for name, body in line["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    assert values["bench.hash_seed_invariant"] == 1
    assert values["shard.host.live_locks_after"] == 0
    assert values["shard.router.self_us_per_op"] > 0
    assert values["core.epoch.elections"] == 0       # a layer it never enters
    trace = json.loads((run.OUT / "sharded_read_heavy.trace.json")
                       .read_text())
    shares = sum(sum(row.values())
                 for row in trace["breakdown"]["self_s"].values())
    assert shares == pytest.approx(trace["breakdown"]["region_s"], rel=0.01)
    assert trace["trees"]


def test_unsupported_tail_is_refused_not_relabelled(capsys):
    # 3 x 200 operations cannot support a p99: no metrics, non-zero exit
    status = run.main(["--workload", "single_item_seq", "--seed", "3",
                       "--seconds", "0.5", "--trace", "0"])
    captured = capsys.readouterr()
    assert status != 0 and "p99" in captured.err
    assert "{" not in captured.out
