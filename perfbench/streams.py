"""Seeded input generators for the three workloads.

Every generator is a pure function of its seed and size parameters: it
never looks at the program under test, so the same seed yields a
byte-identical operation (or packet) stream on every commit, and each
operation carries the outcome it must have by construction.

Operation mixes are *stratified*: each block of operations holds a
fixed count of every kind and the seed only permutes and parameterizes
them.  Two seeds therefore differ in which tenants and templates appear
where, not in how many spoofing or unsatisfiable requests a run sees --
which keeps run-to-run spread down to what the program itself does.
"""

from __future__ import annotations

import functools
import heapq
import random
from typing import Dict, Iterator, List, Tuple

from repro.sim.traces import TraceConfig, generate_trace

# -- admit-churn ------------------------------------------------------------

#: Tenant config templates.  Parameters (port, the tenant's address,
#: batching interval) are drawn per request from small sets, so the
#: security-verdict cache sees both repeated fingerprints and new ones.
TEMPLATES = (
    "FromNetfront() -> IPFilter(allow udp port {port})"
    " -> IPRewriter(pattern - - {addr} - 0 0) -> dst :: ToNetfront();",
    "FromNetfront() -> CheckIPHeader() -> IPFilter(allow udp port {port})"
    " -> IPRewriter(pattern - - {addr} - 0 0) -> dst :: ToNetfront();",
    "FromNetfront() -> IPFilter(allow udp port {port})"
    " -> IPRewriter(pattern - - {addr} - 0 0)"
    " -> TimedUnqueue({interval}, 100) -> dst :: ToNetfront();",
)
#: Source rewritten to a foreign address: security rejects it.
SPOOF_TEMPLATE = (
    "FromNetfront() -> IPRewriter(pattern {foreign} - - - 0 0)"
    " -> dst :: ToNetfront();"
)
MALFORMED_CONFIG = "FromNetfront( -> dst :: ToNetfront();"
MALFORMED_REACH = "reach from internet udp -> -> client"
PORTS = (1500, 1501, 1502, 1503)
INTERVALS = (60, 120)
TENANTS = 40

#: Operation kinds and the shares of a block they take.  ``ok``
#: (well-formed, satisfiable) fills whatever the others leave.
#: Unsatisfiable requests (which try every platform) are 6%: at 3% they
#: and the slow tail of ordinary admissions together sit right at 5%,
#: so p95 jumped between the two modes (35 vs 100 ms) from run to run.
MIX = (("spoof", 0.08), ("unsat", 0.06), ("malformed", 0.02))

#: Expected admission outcome per kind.
EXPECT_ACCEPT = {"ok": True, "spoof": False, "unsat": False,
                 "malformed": False}


def tenant_address(index: int) -> str:
    return "172.16.%d.%d" % (10 + index // 200, 1 + index % 200)


def operator_policy(platforms: int, dropped: int = -1) -> str:
    """One ``reach ... -> platform<i>`` line per platform, except
    ``dropped``."""
    return "\n".join(
        "reach from internet udp dst net 192.0.%d.0/24 -> platform%d"
        % (index + 1, index)
        for index in range(platforms) if index != dropped
    )


def _policy_edits(rng: random.Random, platforms: int) -> Iterator[str]:
    """Endless edited policies: each drops one line (never the line the
    previous edit dropped), so the previous one comes back."""
    dropped = -1
    while True:
        dropped = rng.choice([i for i in range(platforms) if i != dropped])
        yield operator_policy(platforms, dropped)


def edit_op(policy: str, platforms: int, residents: int) -> tuple:
    """A policy edit whose ``verify_snapshot`` must return one passing
    verdict per remaining operator line, once for the snapshot and once
    more per resident, plus each resident's two own lines."""
    lines = platforms - 1
    return ("edit", policy, lines + residents * (lines + 2))


def policy_edit_ops(seed: int, platforms: int,
                    residents: int) -> Iterator[tuple]:
    """Endless policy edits against a fixed set of ``residents``."""
    edits = _policy_edits(random.Random("edits:%d" % seed), platforms)
    while True:
        yield edit_op(next(edits), platforms, residents)


def _block_kinds(rng: random.Random, slots: int,
                 owed: Dict[str, float]) -> List[str]:
    kinds: List[str] = []
    for kind, share in MIX:
        owed[kind] = owed.get(kind, 0.0) + share * slots
        count = int(owed[kind])
        owed[kind] -= count
        kinds.extend([kind] * count)
    kinds.extend(["ok"] * (slots - len(kinds)))
    rng.shuffle(kinds)
    return kinds


def _deck(rng: random.Random, cards: List[tuple]) -> Iterator[tuple]:
    """Endless draws that exhaust a shuffled copy of ``cards`` before
    reshuffling, so every card appears equally often."""
    while True:
        hand = list(cards)
        rng.shuffle(hand)
        yield from hand


def admit_churn_ops(
    seed: int, platforms: int, cap: int, edit_every: int,
) -> Iterator[tuple]:
    """Endless admit-churn operation stream.

    Yields ``("admit", kind, module, client, config, reach, owned)``,
    ``("kill", module)`` and :func:`edit_op` policy edits.  A kill
    follows any admission that pushes the residents above ``cap``;
    every ``edit_every``-th operation slot is a policy edit.
    """
    rng = random.Random("admit-churn:%d" % seed)
    owed: Dict[str, float] = {}
    live: List[str] = []
    serial = 0
    edits = _policy_edits(rng, platforms)
    shapes = _deck(rng, [(template, port, interval)
                         for template in TEMPLATES for port in PORTS
                         for interval in INTERVALS])
    while True:
        for kind in _block_kinds(rng, edit_every - 1, owed):
            serial += 1
            module = "m%d" % serial
            tenant = rng.randrange(TENANTS)
            client = "tenant%d" % tenant
            addr = tenant_address(tenant)
            template, port, interval = next(shapes)
            config = template.format(port=port, addr=addr,
                                     interval=interval)
            reach = (
                "reach from internet udp -> %s:dst:0"
                " -> client dst port %d\nreach from client -> internet"
                % (module, port)
            )
            if kind == "spoof":
                config = SPOOF_TEMPLATE.format(
                    foreign="9.9.9.%d" % rng.randint(1, 3)
                )
                reach = "reach from internet udp -> %s:dst:0" % module
            elif kind == "unsat":
                # The module admits only UDP: no placement can let TCP
                # reach its sink, so every platform is tried.
                reach = "reach from internet tcp -> %s:dst:0" % module
            elif kind == "malformed":
                if rng.random() < 0.5:
                    config = MALFORMED_CONFIG
                else:
                    reach = MALFORMED_REACH
            yield ("admit", kind, module, client, config, reach, (addr,))
            if kind == "ok":
                live.append(module)
                if len(live) > cap:
                    victim = live.pop(rng.randrange(len(live)))
                    yield ("kill", victim)
        yield edit_op(next(edits), platforms, len(live))


# -- shard-failover ---------------------------------------------------------

def shard_failover_ops(
    seed: int, shards: int, cap: int, fail_every: int,
    tenants: int = 32,
) -> Iterator[tuple]:
    """Endless shard-failover operation stream.

    Yields ``("admit", shard, tenant, module)``, ``("kill", module)``
    and ``("failover", shard)``.  Each shard keeps at most ``cap`` live
    tenant modules (kills follow admissions), so live state stays flat
    while every journal grows; every ``fail_every``-th slot fails a
    shard and revives it, the victim alternating.
    """
    rng = random.Random("shard-failover:%d" % seed)
    live: List[List[str]] = [[] for _ in range(shards)]
    victim = rng.randrange(shards)
    serial = 0
    while True:
        for _slot in range(fail_every - 1):
            serial += 1
            shard = rng.randrange(shards)
            module = "f%d" % serial
            yield ("admit", shard, rng.randrange(tenants), module)
            live[shard].append(module)
            if len(live[shard]) > cap:
                pool = live[shard]
                yield ("kill", pool.pop(rng.randrange(len(pool))))
        yield ("failover", victim)
        victim = (victim + 1) % shards


# -- trace-replay -----------------------------------------------------------

#: Packets per flow: short trains dominate, a few long ones.
TRAIN_LENGTHS = (2, 2, 3, 4, 4, 6, 8, 12, 24)
#: Trace window generated per lap; a run that exhausts one lap moves on
#: to a fresh trace, so flow tables keep meeting new connections.
LAP_WINDOW_S = 300.0


@functools.lru_cache(maxsize=4)
def _lap_flows(trace_seed: int) -> tuple:
    """One lap's flows.  Cached: generating a lap takes about half a
    second, and every fresh set-up of a run replays the same first lap
    (flows are immutable tuples, so sharing them is safe)."""
    return tuple(generate_trace(TraceConfig(window_s=LAP_WINDOW_S),
                                seed=trace_seed))


def packet_events(seed: int, modules: int) -> Iterator[Tuple[float, tuple,
                                                            int, int]]:
    """Endless ``(time, flow, train_length, module)`` packet events.

    Flows come from :func:`generate_trace` (MAWI-calibrated arrivals,
    durations and client popularity); each flow becomes a train of
    packets spaced evenly over its duration, mapped to one module by
    the seed.  Trains are merged in timestamp order.  ``flow`` is the
    trace's :class:`~repro.sim.traces.Flow` tuple; events of one flow
    share the same tuple object.
    """
    rng = random.Random("trace-replay:%d" % seed)
    lap = 0
    while True:
        flows = _lap_flows(rng.randrange(2 ** 31))
        offset = lap * LAP_WINDOW_S
        pending: List[tuple] = []
        order = 0
        for flow in flows:
            while pending and pending[0][0] <= flow.start:
                when, _order, item, length, module = heapq.heappop(pending)
                yield (offset + when, item, length, module)
            length = rng.choice(TRAIN_LENGTHS)
            module = rng.randrange(modules)
            step = flow.duration / (length - 1)
            for k in range(length):
                order += 1
                heapq.heappush(
                    pending, (flow.start + k * step, order, flow, length,
                              module),
                )
        while pending:
            when, _order, item, length, module = heapq.heappop(pending)
            yield (offset + when, item, length, module)
        lap += 1


def burst_sizes(seed: int) -> Iterator[int]:
    """Heavy-tailed burst sizes in 1..256 (median ~27; ~15% of bursts
    fall below the columnar tier's minimum batch)."""
    rng = random.Random("bursts:%d" % seed)
    while True:
        yield max(1, min(256, int(rng.lognormvariate(3.3, 1.2))))
