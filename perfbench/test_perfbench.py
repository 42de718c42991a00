"""The benchmark's own tests: sample statistics, span self time,
reproducible inputs, and that every oracle catches a planted error.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import itertools
import json
import os
import time

import pytest

import oracles
import percentiles
from layers import PER_LAYER
from spans import Recorder, covered, layer_table, self_times
from streams import admit_churn_ops, shard_failover_ops
from workloads import (
    MODULES,
    PACE_REF,
    AdmitChurn,
    PacketSource,
    Sample,
    ShardFailover,
    TraceReplay,
    Workload,
)

from repro.click import Packet, Runtime, parse_config
from repro.click.packet import TCP
from repro.common.addr import parse_ip


class TestPercentiles:
    def test_p95_needs_ten_samples_beyond_it(self):
        with pytest.raises(percentiles.TooFewSamples):
            percentiles.tail(range(199), 95)
        assert percentiles.tail(range(200), 95) == 189

    def test_p99_needs_a_thousand(self):
        assert percentiles.min_samples_for(95) == 200
        assert percentiles.min_samples_for(99) == 1000
        with pytest.raises(percentiles.TooFewSamples):
            percentiles.tail(range(999), 99)

    def test_block_tail_leaves_out_a_slow_stretch(self):
        calm = list(range(200))
        slow = [3 * x for x in range(200)]
        assert percentiles.block_tail(calm + slow + calm, 95) \
            == percentiles.tail(calm, 95)
        with pytest.raises(percentiles.TooFewSamples):
            percentiles.block_tail(calm[:199], 95)

    def test_median_of_nothing_is_refused(self):
        with pytest.raises(percentiles.TooFewSamples):
            percentiles.median([])


def test_times_are_scaled_to_the_reference_pace():
    workload = Workload(seed=0)
    # One operation met in the fast mode, one in a 1.6x slower mode.
    workload.samples["op"] = [Sample(1, PACE_REF, 0.010, 1),
                              Sample(2, 1.6 * PACE_REF, 0.016, 1)]
    value, _unit, count = workload.timing("op", 1e3, "ms")
    assert value == pytest.approx(10.0) and count == 2
    workload.op_kinds = ("op",)
    assert workload.rate("ops/s")[0] == pytest.approx(100.0)


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


class TestSelfTime:
    def test_nested_and_adjacent_children(self):
        # root [0,10] > a [1,3] > leaf [1.5,2]; b [3,6] adjacent to a.
        recorder = Recorder(clock=FakeClock([0, 1, 1.5, 2, 3, 3, 6, 10]))
        root = recorder.begin("root")
        a = recorder.begin("a")
        leaf = recorder.begin("leaf")
        recorder.end(leaf)
        recorder.end(a)
        b = recorder.begin("b")
        recorder.end(b)
        recorder.end(root)
        own = self_times(recorder.spans)
        assert own[root] == pytest.approx(10 - 2 - 3)
        assert own[a] == pytest.approx(2 - 0.5)
        assert own[leaf] == pytest.approx(0.5)
        assert own[b] == pytest.approx(3)
        table = layer_table(recorder.spans)
        assert table["root"]["total_s"] == pytest.approx(10)
        assert sum(row["self_s"] for row in table.values()) \
            == pytest.approx(10)

    def test_overlapping_children_are_not_double_counted(self):
        assert covered([(1, 4), (2, 5), (5, 6)], 0, 10) == pytest.approx(5)
        assert covered([(1, 4)], 2, 3) == pytest.approx(1)

    def test_parent_links_and_ops(self):
        recorder = Recorder(clock=FakeClock(range(8)))
        recorder.next_op()
        outer = recorder.begin("outer")
        inner = recorder.begin("inner")
        recorder.end(inner)
        recorder.end(outer)
        assert recorder.spans[inner].parent == outer
        assert recorder.spans[inner].op == 1
        assert recorder.has_ancestor(inner, "outer")


class TestReproducibleInputs:
    def test_admit_churn_stream(self):
        def stream(seed):
            return repr(list(itertools.islice(
                admit_churn_ops(seed, 16, 16, 50), 400))).encode()
        assert stream(7) == stream(7)
        assert stream(7) != stream(8)

    def test_admit_churn_mix_is_stratified(self):
        ops = list(itertools.islice(admit_churn_ops(3, 16, 16, 50), 2000))
        admits = [op for op in ops if op[0] == "admit"]
        kinds = {kind: sum(1 for op in admits if op[1] == kind)
                 for kind in ("spoof", "unsat", "malformed")}
        share = {kind: count / len(admits) for kind, count in kinds.items()}
        assert share["spoof"] == pytest.approx(0.08, abs=0.005)
        assert share["unsat"] == pytest.approx(0.06, abs=0.005)
        assert share["malformed"] == pytest.approx(0.02, abs=0.005)

    def test_shard_failover_stream(self):
        def stream(seed):
            return repr(list(itertools.islice(
                shard_failover_ops(seed, 2, 6, 20), 400))).encode()
        assert stream(5) == stream(5)
        assert stream(5) != stream(6)

    def test_packet_stream(self):
        def stream(seed):
            bursts = PacketSource(seed).take_packets(2000)
            return json.dumps([
                (when, [[repr(oracles.canonical(p)) for p in group]
                        for group in groups])
                for when, groups in bursts
            ]).encode()
        assert stream(3) == stream(3)
        assert stream(3) != stream(4)


class FakeResult:
    def __init__(self, accepted, reason=""):
        self.accepted = accepted
        self.reason = reason


class TestOracles:
    def test_wrong_verdicts_are_flagged(self):
        assert oracles.admission_failure("ok", FakeResult(True)) is None
        assert oracles.admission_failure("ok", FakeResult(False, "x"))
        assert oracles.admission_failure("spoof", FakeResult(True))
        assert oracles.admission_failure(
            "spoof", FakeResult(False, "security rules violated:\n")) is None
        assert oracles.admission_failure(
            "spoof", FakeResult(False, "no platform satisfies"))
        assert oracles.admission_failure(
            "unsat", FakeResult(False, "bad requirements: x"))
        assert oracles.admission_failure(
            "malformed", FakeResult(False, "bad configuration: x")) is None

    def test_snapshot_count_and_verdicts(self):
        assert oracles.snapshot_failure([FakeResult(True)] * 3, 3) is None
        assert oracles.snapshot_failure([FakeResult(True)] * 3, 4)

    def test_planted_egress_mismatch_is_flagged(self):
        name, config = MODULES[0]

        def egress(plant):
            runtime = Runtime(parse_config(config))
            for port in (80, 443, 25, 22):
                runtime.inject(runtime.config.sources()[0], Packet(
                    ip_src=parse_ip("10.0.0.1"), ip_dst=parse_ip("172.16.0.9"),
                    ip_proto=TCP, tp_src=4000, tp_dst=port))
            if plant:
                runtime.output[0].packet.fields["ip_ttl"] = 1
            return oracles.egress_by_sink(runtime.output)

        assert oracles.egress_failure(name, egress(False), egress(False)) \
            is None
        assert oracles.egress_failure(name, egress(True), egress(False))

    def test_planted_digest_mismatch_is_flagged(self):
        workload = AdmitChurn(seed=1, small=True)
        workload.generate()
        workload.setup()
        workload.run(time.perf_counter() + 0.3)
        workload.verify()
        assert workload.failures == []
        # A steering rule the journal never saw.
        workload.controller.flow_rules[("platform0", 1)] = "ghost"
        workload.verify()
        assert len(workload.failures) == 1
        assert "digests differ" in workload.failures[0]

    def test_planted_federation_violation_is_flagged(self):
        workload = ShardFailover(seed=1, small=True)
        workload.residents = 20
        workload.generate()
        workload.setup()
        while not workload.samples.get("failover"):
            workload.run(time.perf_counter() + 0.2)
        workload.verify()
        assert workload.failures == []
        workload.plane.placements["ghost"] = ("shard-0", "shard-0")
        workload.verify()
        assert len(workload.failures) == 1

    def test_planted_handback_state_change_is_flagged(self, monkeypatch):
        workload = ShardFailover(seed=1, small=True)
        workload.residents = 20
        workload.generate()
        workload.setup()
        plane = workload.plane
        revive = plane.revive_shard

        def lossy_revive(shard_id, *args, **kwargs):
            outcome = revive(shard_id, *args, **kwargs)
            # The revived shard comes back with a steering rule that
            # was never there before it failed.
            plane.shards[shard_id].home.controller.flow_rules[
                ("ghost", 1)] = "ghost"
            return outcome

        monkeypatch.setattr(plane, "revive_shard", lossy_revive)
        while not workload.samples.get("failover"):
            workload.run(time.perf_counter() + 0.2)
        planted = [f for f in workload.failures if "fail/revive" in f]
        assert planted and "digests differ" in planted[0]


class TestTraceReplay:
    def test_prefix_egress_matches_scalar_reference(self):
        workload = TraceReplay(seed=2, small=True)
        workload.PREFIX_PACKETS = 2000
        workload.generate()
        workload.setup()
        workload.run(time.perf_counter() + 0.2)
        workload.verify()
        assert workload.failures == []
        assert workload.packets > 0
        # A planted drop in the recorded prefix egress is caught.
        for records in workload.prefix_egress:
            if records:
                records.pop()
                break
        workload.verify()
        assert len(workload.failures) == 1


def test_benchmark_json_names_match():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    from run import COMPANIONS, END_TO_END

    assert [m["name"] for m in spec["end_to_end"]] \
        == [name for name, _unit in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(COMPANIONS)


def test_child_process_is_waited_for():
    from run import Companion

    child = Companion("trace-replay", 1, role="setups")
    try:
        assert child.conn.recv() == "ready"
        pace, seconds = child.call("setup")
        assert pace > 0 and seconds > 0
    finally:
        child.close()
    assert child.process.returncode == 0
