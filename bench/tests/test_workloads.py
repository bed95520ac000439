"""The traced pass observes; it must not change what it observes."""

import json

import pytest

from bench import run, spans, workloads

#: scale at which every store workload is a miniature of a few hundred ops
MINIATURE = 0.02


@pytest.mark.parametrize("name", workloads.STORE_WORKLOADS)
def test_traced_miniature_reproduces_untraced_counts(name):
    subrun = workloads.SUBRUNS[name]
    plain = subrun(5, MINIATURE, 0)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = subrun(5, MINIATURE, 0, region=tracer.region)
    assert plain.timed_ops >= 200
    assert traced.counts == plain.counts
    assert run.digest_of(traced) == run.digest_of(plain)
    # every second of the region belongs to exactly one layer
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.region_s,
                                                        rel=1e-9)
    assert tracer.region_s == pytest.approx(traced.timed_s, rel=0.05)
    assert tracer.ops_started["read"] + tracer.ops_started["write"] \
        == plain.timed_ops
    # messages carry their operation to the far side: handlers are not
    # all filed under "other"
    handler_layer = "shard.host" if name.startswith("sharded") \
        else "core.replica"
    assert tracer.self_s[handler_layer, "read"] > 0
    assert tracer.self_s[handler_layer, "write"] > 0


def test_same_seed_same_digest_and_other_seed_other_digest():
    first = workloads.single_item_seq(7, MINIATURE)
    again = workloads.single_item_seq(7, MINIATURE)
    other = workloads.single_item_seq(8, MINIATURE)
    assert run.digest_of(first) == run.digest_of(again)
    assert run.digest_of(first) != run.digest_of(other)


def test_metrics_off_changes_no_protocol_decision():
    on = workloads.sharded_read_heavy(3, MINIATURE)
    off = workloads.sharded_read_heavy(3, MINIATURE, metrics=False)
    assert (on.read_sim, on.write_sim) == (off.read_sim, off.write_sim)
    assert on.counts["events"] == off.counts["events"]
    assert on.counts["messages"] == off.counts["messages"]


def test_fault_script_is_the_workloads_not_the_seeds():
    a = workloads.faulty_epochs(1, MINIATURE, index=0)
    b = workloads.faulty_epochs(2, MINIATURE, index=0)
    assert a.counts["episodes"] == b.counts["episodes"] > 0
    assert a.failed == b.failed == 0
    assert a.read_sim != b.read_sim


def test_write_gaps_cover_a_stall_in_every_window_it_touches():
    class Clock:
        now = 0.0

    class Store:
        env = Clock()
        nodes = {}
        node_names = ()

    tap = workloads.Tap(Store())
    tap.commit_times = [1.0, 2.0, 3.0, 43.0, 44.0, 79.0]
    gaps = tap.write_gaps(0.0, 80.0)            # eight windows of ten
    assert len(gaps) == workloads.GAP_WINDOWS
    assert gaps[0] == 40.0                      # the stall starts in window 0
    assert gaps[1] == gaps[2] == gaps[3] == 40.0
    assert gaps[4] == 40.0                      # ... and ends in window 4
    assert gaps[5] == gaps[6] == gaps[7] == 35.0


def test_a_failed_gate_prints_no_metrics_and_exits_nonzero(monkeypatch,
                                                           capsys):
    monkeypatch.setattr(workloads, "MC_REL_ERR_LIMIT", 0.0)
    status = run.main(["--workload", "availability_mc", "--seed", "1",
                       "--seconds", "0.2", "--trace", "0"])
    captured = capsys.readouterr()
    assert status != 0
    assert "FAILED" in captured.err and "Monte Carlo" in captured.err
    assert "{" not in captured.out


def test_sharded_gate_catches_a_wrong_read_back(monkeypatch):
    from repro.shard.store import ShardedStore
    honest = ShardedStore.read

    def forgetful(self, key, via=None):
        result = honest(self, key, via=via)
        if self.env.now > 30:       # only the audit runs this late
            result.value = {"v": -1}
        return result
    monkeypatch.setattr(ShardedStore, "read", forgetful)
    with pytest.raises(workloads.GateFailure, match="read back wrong"):
        workloads.sharded_read_heavy(1, MINIATURE)


def test_digest_mode_prints_one_json_object(capsys):
    assert run.main(["--workload", "single_item_seq", "--seed", "2",
                     "--seconds", "0.2", "--digest"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert set(body) == {"counts", "sim_sha256", "host"}
