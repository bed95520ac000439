"""Experiment E19 -- voting with witnesses (Paris 1986, the paper's [13]).

The witness pitch: vote availability of N nodes at the storage cost of
fewer data copies.  We compare three 3-voter configurations under the
same workload and failure episode: 3 data nodes, 2 data + 1 witness, and
1 data + 2 witnesses, measuring write success, storage footprint, and the
failure modes the witness variants introduce.
"""

from repro.availability.formulas import majority_availability
from repro.baselines.static_protocol import StaticQuorumStore
from repro.baselines.witnesses import WitnessVotingStore
from repro.coteries.majority import MajorityCoterie

from _report import report

VALUE = {f"k{i}": "v" * 60 for i in range(12)}


def run_config(n_data: int, n_witness: int, seed: int = 5):
    data = [f"d{i}" for i in range(n_data)]
    witnesses = [f"w{i}" for i in range(n_witness)]
    if witnesses:
        store = WitnessVotingStore(data + witnesses, witnesses, seed=seed)
    else:
        store = StaticQuorumStore(data, seed=seed,
                                  coterie_rule=MajorityCoterie)
    ok = 0
    store.write(VALUE)
    # one failure: any single voter down, writes must continue
    store.crash(data[-1])
    ok += bool(store.write(dict(VALUE, marker=1)).ok)
    store.recover(data[-1])
    store.advance(2)
    ok += bool(store.write(dict(VALUE, marker=2)).ok)
    # one more write through each voter, so that every data node has
    # taken part in some write and the storage column is the
    # configuration's footprint, not the luck of three quorum draws
    for i, via in enumerate(store.node_names):
        store.write(dict(VALUE, marker=3 + i), via=via)
    assert all(store.versions()[name] > 0 for name in data)
    if witnesses:
        storage = sum(store.storage_bytes().values())
    else:
        from repro.sim.sizing import estimate_size
        storage = sum(estimate_size(store.replica_state(n).value)
                      for n in store.node_names)
    return ok, storage


def build_rows():
    return {
        "3 data": run_config(3, 0),
        "2 data + 1 witness": run_config(2, 1),
        "1 data + 2 witnesses": run_config(1, 2),
    }


def render(rows) -> str:
    base_storage = rows["3 data"][1]
    lines = [
        "Voting with witnesses: 3-voter configurations, one failure "
        "episode",
        f"{'configuration':<22}  {'writes ok':>9}  {'storage':>8}  "
        f"{'vs 3 data':>9}  {'vote avail (p=0.95)':>19}",
    ]
    avail = majority_availability(3, 0.95)
    for label, (ok, storage) in rows.items():
        lines.append(f"{label:<22}  {ok:>9}/2  {storage:>8}  "
                     f"{storage / base_storage:>8.0%}  {avail:>19.6f}")
    lines.append("")
    lines.append("shape check: witnesses keep majority-of-3 vote "
                 "availability at a fraction of the storage; the paper's "
                 "site model is borrowed from exactly this work [13]")
    return "\n".join(lines)


def test_witness_configurations(benchmark, capsys):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    report("witness_configurations", render(rows), capsys)
    assert rows["3 data"][0] == 2
    assert rows["2 data + 1 witness"][0] == 2   # same failure tolerance
    storage = {label: s for label, (_ok, s) in rows.items()}
    assert storage["2 data + 1 witness"] < storage["3 data"] * 0.75
    assert storage["1 data + 2 witnesses"] < storage["3 data"] * 0.45


def test_witness_write_speed(benchmark):
    store = WitnessVotingStore(["d0", "d1", "w0"], ["w0"], seed=6)

    def one_write():
        counter = getattr(one_write, "counter", 0) + 1
        one_write.counter = counter
        return store.write({"k": counter})

    result = benchmark.pedantic(one_write, rounds=20, iterations=1)
    assert result.ok
