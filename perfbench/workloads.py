"""The three workloads, each a single-process closed loop.

Every workload runs the program as it is deployed: the controller's
admission fast path on, a :class:`DeploymentJournal` attached and an
:class:`Observability` bundle enabled the way the operator console sets
it up, and the Click runtimes at their default (columnar) tier.

A workload object goes through ``generate`` (input generation, never
timed) and ``setup`` (timed as ``setup_s``), then ``run`` until a
wall-clock deadline, as often as the caller interleaves it with other
workloads, and ``top_up`` until its tail percentiles have the samples
they need.  ``samples`` and ``failures`` accumulate across calls.
``small=True`` shrinks the state (residents, caps) for a *companion*
pass that fills the metrics another workload does not produce (see
``run.py``).
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
from typing import Dict, List, NamedTuple, Optional

import oracles
import percentiles
from streams import (
    admit_churn_ops,
    burst_sizes,
    operator_policy,
    packet_events,
    policy_edit_ops,
    shard_failover_ops,
)

from repro.click.runtime import Runtime
from repro.common.addr import format_ip, prefix_range
from repro.core.controller import Controller
from repro.core.requests import ROLE_CLIENT, ClientRequest
from repro.fedctl.invariants import (
    collect_federation_violations,
    federation_digest,
)
from repro.fedctl.plane import FederatedControlPlane, shard_network
from repro.fedctl.seeding import seed_residents, tenant_ids_for_shard
from repro.netmodel.examples import star_network
from repro.netmodel.forwarding import ForwardingPlane
from repro.netmodel.topology import Network
from repro.obs import Observability
from repro.resilience.invariants import controller_state_digest
from repro.resilience.journal import DeploymentJournal
from repro.sim.replay import flow_packets

_clock = time.perf_counter

#: Reference pace (seconds): every operation's wall time is reported
#: scaled by ``PACE_REF / pace``, the pace being the calibration
#: kernel's time right before the operation -- that is, as the time the
#: operation takes while the kernel takes ``PACE_REF``.  On the 2-core
#: Xeon VM the baseline was measured on, the kernel takes about 97 us
#: in the machine's fast mode and 150-175 us in its slow one.
PACE_REF = 100e-6

#: Length of one extra round run to top up thin tails.
TOP_UP_S = 0.25

#: Tails are read from at least this many blocks of the samples
#: :func:`percentiles.tail` insists on (:func:`percentiles.block_tail`),
#: so that a tail percentile rests neither on the ten slowest
#: operations of a run alone nor on one stretch of it.
TAIL_MARGIN = 3


def calibration_kernel() -> int:
    """A fixed slice of interpreter work (integer, dict and list
    traffic, about 100 microseconds) that runs none of the program's
    code; its wall time tracks how fast the shared machine is running
    at the moment."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(600):
        key = i % 97
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    return acc + len(sorted(table.items()))


def pace_sample() -> float:
    """Wall time of one :func:`calibration_kernel` (seconds).

    The collector is held off while it runs: a collection the
    program's garbage would trigger inside the kernel would make the
    pace follow how much the last operation allocated, and would move
    that collection's cost out of the operations' timings."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = _clock()
        calibration_kernel()
        return _clock() - started
    finally:
        if enabled:
            gc.enable()


def peak_rss_mb() -> float:
    """This process's peak resident set size so far (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_pace() -> float:
    """Mean of 20 :func:`pace_sample` timings (seconds)."""
    return statistics.fmean(pace_sample() for _ in range(20))


class Sample(NamedTuple):
    step: int      #: operation number within the run
    pace: float    #: machine pace right before it (lower: faster)
    seconds: float
    work: int      #: packets for a burst, 1 for a control operation

    @property
    def scaled(self) -> float:
        """Wall seconds at the reference pace :data:`PACE_REF`."""
        return self.seconds * PACE_REF / self.pace


class Workload:
    """Shared bookkeeping: timed samples, checks and failures.

    Every operation is preceded by a :func:`pace_sample`, and every
    metric is computed over all its operations' times scaled to the
    reference pace (:attr:`Sample.scaled`).  On a shared machine
    another tenant's load slows the core by about 1.6x, in stretches
    of a second to minutes; a kernel that runs none of the program's
    code, timed right before an operation, tells which stretch the
    operation started in, and the program's operations slow by the
    same factor as the kernel (``FINDINGS.md``).  The sample after an
    operation is not used: it would depend on what the operation left
    behind (caches, garbage), and so favour some kinds of operation.
    :meth:`run` is one *round*: a closed loop until a deadline, which
    lets the caller interleave workloads.
    """

    name = ""
    #: sample key -> samples the metrics over that key need;
    #: :meth:`top_up` adds rounds until the run holds them.
    needs: Dict[str, int] = {}
    #: Sample keys of the operations the headline rate counts.
    op_kinds: tuple = ()
    #: Operations after which :attr:`rss_mb` is read: a fixed amount of
    #: work, so that ``rss_peak_mb`` does not follow how many operations
    #: the machine's speed let a run make (flow tables and
    #: ``Tracer.roots`` grow with every operation).
    rss_steps = 0

    def __init__(self, seed: int):
        self.seed = seed
        #: sample key -> samples, in operation order.
        self.samples: Dict[str, List[Sample]] = {}
        self.failures: List[str] = []
        self.attempted = 0
        #: Operations run so far.
        self.steps = 0
        #: Peak RSS (MB) once :attr:`rss_steps` operations have run.
        self.rss_mb: Optional[float] = None
        self._pending: List[tuple] = []

    def sample(self, key: str, seconds: float, work: int = 1) -> None:
        """Record a timed operation of the current step."""
        self._pending.append((key, seconds, work))

    def check(self, failure: Optional[str]) -> None:
        """Count one checked outcome; ``failure`` describes a wrong one."""
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)

    def controllers(self) -> List[Controller]:
        return []

    def verify(self) -> None:
        """End-of-run oracles (append to ``failures``)."""

    def metrics(self) -> Dict[str, tuple]:
        """metric -> (value, unit, sample count)."""
        return {}

    def mark(self) -> None:
        """Start a new layer-accounting window (see layer_extras)."""

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer quantities only the workload can count, since the
        last :meth:`mark`."""
        return {}

    # -- metrics ----------------------------------------------------------
    def chosen(self, key: str, steps: Optional[range] = None) -> List[Sample]:
        """``key``'s samples (of those in ``steps``)."""
        return [x for x in self.samples.get(key, ())
                if steps is None or x.step in steps]

    def enough(self) -> bool:
        return all(len(self.samples.get(key, ())) >= need
                   for key, need in self.needs.items())

    def timing(self, key: str, scale: float, unit: str,
               percentile: Optional[float] = None,
               first: Optional[int] = None) -> Optional[tuple]:
        """(value, unit, n) of the median or (block) tail percentile of
        ``key``'s scaled times (of its ``first`` samples only, if
        given), or None when there are too few samples for it."""
        seconds = [x.scaled for x in self.chosen(key)][:first]
        try:
            value = (percentiles.median(seconds) if percentile is None
                     else percentiles.block_tail(seconds, percentile))
        except percentiles.TooFewSamples:
            return None
        return value * scale, unit, len(seconds)

    def rate(self, unit: str, steps: Optional[range] = None) -> tuple:
        """Work per second of scaled operation time: all the work of
        :attr:`op_kinds` (in ``steps``) over their summed scaled times.
        Only operation time counts, not the harness's bookkeeping
        between operations."""
        work, seconds = 0, 0.0
        for key in self.op_kinds:
            for x in self.chosen(key, steps):
                work += x.work
                seconds += x.scaled
        return work / seconds, unit, work

    def pace_summary(self) -> tuple:
        """Quartiles of the pace over all operations (seconds)."""
        return tuple(statistics.quantiles(
            (x.pace for samples in self.samples.values() for x in samples),
            n=4))

    # -- loops --------------------------------------------------------------
    def _step(self) -> None:
        raise NotImplementedError

    def run(self, deadline: float, recorder=None) -> None:
        """One round: a closed loop until ``deadline``
        (``time.perf_counter``)."""
        while _clock() < deadline:
            pace = pace_sample()
            if recorder is not None:
                recorder.next_op()
            self._step()
            self.steps += 1
            if self.steps == self.rss_steps:
                self.rss_mb = peak_rss_mb()
            for key, seconds, work in self._pending:
                self.samples.setdefault(key, []).append(
                    Sample(self.steps, pace, seconds, work))
            self._pending.clear()

    def top_up(self) -> None:
        """Add short rounds until every tail has its samples."""
        while not self.enough():
            self.run(_clock() + TOP_UP_S)


# -- admit-churn ----------------------------------------------------------------

CHAIN = 8
PLATFORMS = 16


def churn_network() -> Network:
    """internet -> chain of Counter middleboxes -> core router, which fans
    out to every platform and the client subnet."""
    net = Network("admit-churn")
    net.add_internet()
    previous = "internet"
    for index in range(CHAIN):
        router, box = "r%d" % index, "mb%d" % index
        net.add_router(router)
        net.link(previous, router)
        net.add_middlebox(box, "Counter")
        net.link(router, box)
        previous = box
    net.add_router("core")
    net.link(previous, "core")
    net.add_client_subnet("clients", "172.16.0.0/16")
    net.link("core", "clients")
    for index in range(PLATFORMS):
        name = "platform%d" % index
        net.add_platform(name, "192.0.%d.0/24" % (index + 1))
        net.link("core", name)
    net.compute_routes()
    return net


class AdmitChurn(Workload):
    """Tenant admissions, kills and operator policy edits; no packets."""

    name = "admit-churn"
    op_kinds = ("admit", "kill", "edit")
    rss_steps = 1000

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed)
        self.small = small
        # The companion pass only fills reverify_p50_ms: after set-up it
        # makes policy edits alone, against a fixed set of residents.
        self.needs = {"edit": 10}
        if not small:
            self.needs["admit"] = (
                TAIL_MARGIN * percentiles.min_samples_for(95))
        self.cap = 6 if small else 16
        self.edit_every = 25

    def generate(self) -> None:
        self.warmup = admit_churn_ops(self.seed, PLATFORMS, self.cap,
                                      self.edit_every)
        self.stream = (policy_edit_ops(self.seed, PLATFORMS, self.cap)
                       if self.small else self.warmup)

    def setup(self) -> None:
        obs = Observability()
        self.policy = operator_policy(PLATFORMS)
        self.controller = Controller(
            churn_network(), self.policy, obs=obs,
            journal=DeploymentJournal(obs=obs),
        )
        self.controller.verify_snapshot()
        # Set-up fills the residents to the cap, so edits cost the same
        # from the first round on.  It applies only the well-formed
        # admissions it meets (the others change no state), so every
        # seed's set-up does the same work.
        admitted = 0
        while admitted < self.cap:
            op = next(self.warmup)
            if op[0] == "admit" and op[1] == "ok":
                self._apply(op, timed=False)
                admitted += 1

    def controllers(self) -> List[Controller]:
        return [self.controller]

    def _step(self) -> None:
        self._apply(next(self.stream))

    def _apply(self, op: tuple, timed: bool = True) -> None:
        kind = op[0]
        try:
            if kind == "admit":
                _, flavour, module, client, config, reach, owned = op
                request = ClientRequest(
                    client_id=client, role=ROLE_CLIENT,
                    config_source=config, requirements=reach,
                    owned_addresses=owned, module_name=module,
                )
                started = _clock()
                result = self.controller.request(request)
                elapsed = _clock() - started
                self.check(oracles.admission_failure(flavour, result))
            elif kind == "kill":
                started = _clock()
                killed = self.controller.kill(op[1])
                elapsed = _clock() - started
                self.check(None if killed else "kill of %s refused" % op[1])
            else:
                _, policy, expected = op
                started = _clock()
                self.controller.set_operator_requirements(policy)
                results = self.controller.verify_snapshot()
                elapsed = _clock() - started
                self.policy = policy
                self.check(oracles.snapshot_failure(results, expected))
        except Exception as exc:  # noqa: BLE001 -- a failed operation
            self.check("%s raised %s: %s" % (kind, type(exc).__name__, exc))
            return
        if timed:
            self.sample(kind, elapsed)

    def verify(self) -> None:
        """Journal replay onto a freshly built topology must reproduce
        the live controller's state."""
        try:
            recovered = Controller.recover(
                churn_network(), self.controller.journal,
                operator_requirements=self.policy,
            )
            failure = oracles.digest_failure(
                controller_state_digest(self.controller),
                controller_state_digest(recovered),
                "admit-churn journal replay",
            )
        except Exception as exc:  # noqa: BLE001
            failure = "journal replay raised %s: %s" % (
                type(exc).__name__, exc)
        self.check(failure)

    def metrics(self) -> Dict[str, tuple]:
        return {
            "admit_p50_ms": self.timing("admit", 1e3, "ms"),
            "admit_p95_ms": self.timing("admit", 1e3, "ms", 95),
            "reverify_p50_ms": self.timing("edit", 1e3, "ms"),
            "ctl_ops_per_s": self.rate("ops/s"),
        }


# -- shard-failover -----------------------------------------------------------

SHARDS = 2
#: Module shipped by every tenant (the Figure 4 batcher).
TENANT_CONFIG = """
    FromNetfront() ->
    IPFilter(allow udp port 1500) ->
    IPRewriter(pattern - - 172.16.15.133 - 0 0)
    -> TimedUnqueue(120, 100)
    -> dst :: ToNetfront();
"""


def landing_platform(shard: int) -> str:
    return "p%d-a" % shard


def pinned_request(client: str, module: str, landing: str) -> ClientRequest:
    """An admission whose reach statement pins ``dst`` to the address
    the module will land on, so the symbolic flow crosses only this
    module and each admission costs per module."""
    return ClientRequest(
        client_id=client, role=ROLE_CLIENT, config_source=TENANT_CONFIG,
        requirements=(
            "reach from internet udp dst %s -> %s:dst:0 dst 172.16.15.133"
            " -> client dst port 1500" % (landing, module)
        ),
        owned_addresses=("172.16.15.133",),
        module_name=module, listen="udp 1500",
    )


class ShardFailover(Workload):
    """Committed admissions and kills on a 2-shard federation, with
    shard failovers and hand-backs; the dataplane is idle."""

    name = "shard-failover"
    op_kinds = ("admit", "kill", "failover", "handback")
    rss_steps = 700

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed)
        self.residents = 100 if small else 1000
        # Fail/revive medians are read from the first ``failovers`` of
        # the run: their cost grows with uptime (the journal replayed
        # grows), so a median over however many a run made would follow
        # the machine's speed.  The full-size pass's operations are
        # dear (an admission ~30 ms), so it reads its admission tail
        # from two blocks, not TAIL_MARGIN (three added ~15 s to a run;
        # its tail held as steady with two), and 40 failovers.  The
        # small companion pass is cheap enough for TAIL_MARGIN blocks
        # and 100 failovers, and needs them: over its first 40, its
        # failover median spread 0.15 across ten runs.
        blocks, self.failovers = (TAIL_MARGIN, 100) if small else (2, 40)
        self.needs = {"admit": blocks * percentiles.min_samples_for(95),
                      "failover": self.failovers,
                      "handback": self.failovers}
        self.cap = 6
        self.fail_every = 10

    def generate(self) -> None:
        self.stream = shard_failover_ops(self.seed, SHARDS, self.cap,
                                         self.fail_every)

    def setup(self) -> None:
        residents = self.residents
        self.plane = FederatedControlPlane(
            shard_count=SHARDS,
            network_factory=lambda i: shard_network(
                i, resident_capacity=residents),
            obs=Observability(),
        )
        self.tenants = []
        #: shard -> {module: address} of the live tenant modules.
        self.live: List[Dict[str, int]] = []
        self.pool_low: List[int] = []
        for index, shard_id in enumerate(self.plane.shards):
            seed_residents(self.plane, shard_id, "res%d" % index,
                           residents, journal=True)
            self.tenants.append(tenant_ids_for_shard(
                self.plane, shard_id, 32, tag="tenant"))
            self.live.append({})
            platform = self.plane.shards[shard_id].home.network.node(
                landing_platform(index))
            self.pool_low.append(
                prefix_range(platform.pool_network, platform.pool_plen)[0])
            # Priming: one dry-run admission compiles the shard's model.
            decision = self.plane.submit(
                pinned_request(self.tenants[index][0], "prime-%d" % index,
                               format_ip(self._next_address(index))),
                pinned_platform=landing_platform(index), dry_run=True,
            )
            self.check(None if decision else "priming admission rejected: %s"
                       % decision.result.reason)
        self.module_shard: Dict[str, int] = {}
        self.journal_lengths: List[int] = []

    def controllers(self) -> List[Controller]:
        return [segment.controller for segment in self.plane.segments()]

    def _next_address(self, shard: int) -> int:
        """The controller hands out the lowest free pool address."""
        taken = set(self.live[shard].values())
        candidate = self.pool_low[shard] + 1
        while candidate in taken:
            candidate += 1
        return candidate

    def _step(self) -> None:
        op = next(self.stream)
        kind = op[0]
        try:
            if kind == "admit":
                self._admit(*op[1:])
            elif kind == "kill":
                self._kill(op[1])
            else:
                self._failover(op[1])
        except Exception as exc:  # noqa: BLE001 -- a failed operation
            self.check("%s raised %s: %s" % (kind, type(exc).__name__, exc))

    def _admit(self, shard: int, tenant: int, module: str) -> None:
        address = self._next_address(shard)
        request = pinned_request(self.tenants[shard][tenant], module,
                                 format_ip(address))
        started = _clock()
        decision = self.plane.submit(
            request, pinned_platform=landing_platform(shard))
        self.sample("admit", _clock() - started)
        result = decision.result
        if not result.accepted:
            self.check("admission %s rejected: %s" % (
                module, result.reason.splitlines()[0]))
            return
        self.live[shard][module] = address
        self.module_shard[module] = shard
        self.check(None if result.address == format_ip(address) else
                   "admission %s landed on %s, pinned %s"
                   % (module, result.address, format_ip(address)))

    def _kill(self, module: str) -> None:
        started = _clock()
        killed = self.plane.kill(module)
        self.sample("kill", _clock() - started)
        shard = self.module_shard.pop(module, None)
        if shard is not None:
            self.live[shard].pop(module, None)
        self.check(None if killed else "kill of %s refused" % module)

    def _failover(self, shard: int) -> None:
        victim = "shard-%d" % shard
        before = federation_digest(self.plane)
        self.journal_lengths.append(
            len(self.plane.shards[victim].home.journal))
        started = _clock()
        self.plane.fail_shard(victim)
        self.sample("failover", _clock() - started)
        started = _clock()
        self.plane.revive_shard(victim)
        self.sample("handback", _clock() - started)
        self.check(oracles.digest_failure(
            before, federation_digest(self.plane),
            "fail/revive of %s" % victim))

    def verify(self) -> None:
        self.check(oracles.violations_failure(
            collect_federation_violations(self.plane)))

    def metrics(self) -> Dict[str, tuple]:
        return {
            "admit_p50_ms": self.timing("admit", 1e3, "ms"),
            "admit_p95_ms": self.timing("admit", 1e3, "ms", 95),
            "ctl_ops_per_s": self.rate("ops/s"),
            "failover_p50_ms": self.timing(
                "failover", 1e3, "ms", first=self.failovers),
            "handback_p50_ms": self.timing(
                "handback", 1e3, "ms", first=self.failovers),
        }

    def layer_extras(self) -> Dict[str, float]:
        if not self.journal_lengths:
            return {}
        return {"resilience.journal.records": percentiles.median(
            self.journal_lengths)}


# -- trace-replay -----------------------------------------------------------

#: The three tenant modules: a firewall whose whole segment has column
#: kernels, the paper's buffering batcher (off the column path), and a
#: classifier fan-out with per-flow state.
MODULES = (
    ("firewall", """
        src :: FromNetfront();
        src -> CheckIPHeader()
            -> IPFilter(allow tcp dst port 80, allow tcp dst port 443,
                        allow tcp dst port 8080, deny tcp dst port 25,
                        allow udp)
            -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
            -> dst :: ToNetfront();
    """),
    ("batcher", """
        src :: FromNetfront();
        src -> IPFilter(allow tcp)
            -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
            -> TimedUnqueue(0.05, 256)
            -> dst :: ToNetfront();
    """),
    ("fanout", """
        src :: FromNetfront();
        c :: IPClassifier(tcp dst port 80, tcp dst port 443, -);
        src -> c;
        c[0] -> FlowMeter()
             -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
             -> dst :: ToNetfront();
        c[1] -> Counter()
             -> IPRewriter(pattern - - 172.16.15.134 - 0 0)
             -> alt :: ToNetfront();
        c[2] -> Discard();
    """),
)
MODULE_NAMES = tuple(name for name, _config in MODULES)


def module_request(name: str, config: str) -> ClientRequest:
    return ClientRequest(
        client_id="tenant-%s" % name, role=ROLE_CLIENT,
        config_source=config,
        requirements="reach from internet tcp -> %s:dst:0" % name,
        owned_addresses=("172.16.15.133", "172.16.15.134"),
        module_name=name,
    )


class PacketSource:
    """Bursts of prebuilt packets in trace-time order.

    Each flow's train is built with :func:`flow_packets` when its first
    packet is due; bursts are built a chunk at a time so that packet
    construction stays outside the timed region.
    """

    CHUNK = 64

    def __init__(self, seed: int):
        self.events = packet_events(seed, len(MODULES))
        self.sizes = burst_sizes(seed)
        self.trains: Dict[int, list] = {}
        self.ready: List[tuple] = []
        self.built = 0
        self.build_s = 0.0

    def _build_burst(self) -> tuple:
        groups: List[list] = [[] for _ in MODULES]
        when = 0.0
        trains = self.trains
        for when, flow, length, module in itertools.islice(
                self.events, next(self.sizes)):
            key = id(flow)
            train = trains.get(key)
            if train is None:
                train = trains[key] = flow_packets(flow, length)
                train.reverse()
            groups[module].append(train.pop())
            if not train:
                del trains[key]
        self.built += sum(len(group) for group in groups)
        return when, groups

    def next_burst(self) -> tuple:
        if not self.ready:
            started = _clock()
            self.ready = [self._build_burst() for _ in range(self.CHUNK)]
            self.ready.reverse()
            self.build_s += _clock() - started
        return self.ready.pop()

    def take_packets(self, count: int) -> List[tuple]:
        """The next bursts, up to the one that brings their packets to
        ``count``."""
        bursts, packets = [], 0
        while packets < count:
            bursts.append(self.next_burst())
            packets += sum(len(group) for group in bursts[-1][1])
        return bursts


class TraceReplay(Workload):
    """MAWI-calibrated packet replay through three admitted modules."""

    name = "trace-replay"
    # Bursts are cheap, so the p99 gets twice the blocks: with three,
    # a companion pass's p99 spread 0.12 over ten runs, with six 0.07.
    needs = {"burst": 2 * TAIL_MARGIN * percentiles.min_samples_for(99)}
    op_kinds = ("burst",)
    # Not 12000: near there a flow table doubles (a 17 MB step in RSS),
    # and seeds fell on either side of it.
    rss_steps = 9000
    #: Packets of the oracle prefix: the warm-up whose egress is checked
    #: against scalar reference runtimes.  A packet count, not a burst
    #: count, so every seed's set-up does the same work.
    PREFIX_PACKETS = 8000

    def __init__(self, seed: int, small: bool = False):
        # Nothing to shrink: a companion replay is the same replay.
        super().__init__(seed)
        self.packets = 0
        self.egress = 0
        self.batch_calls = 0
        #: id(Runtime) -> module name (per-module busy time when traced).
        self.runtime_names: Dict[int, str] = {}

    def generate(self) -> None:
        self.source = PacketSource(self.seed)
        self.prefix = self.source.take_packets(self.PREFIX_PACKETS)

    def setup(self) -> None:
        obs = Observability()
        network = star_network(len(MODULES))
        controller = Controller(network, obs=obs,
                                journal=DeploymentJournal(obs=obs))
        for name, config in MODULES:
            result = controller.request(module_request(name, config))
            self.check(None if result.accepted else
                       "module %s rejected: %s" % (name, result.reason))
        plane = ForwardingPlane(network)
        self.controller = controller
        self.runtimes = [plane.module_runtime(name) for name in MODULE_NAMES]
        self.entries = [rt.config.sources()[0] for rt in self.runtimes]
        self.runtime_names.clear()
        for name, runtime in zip(MODULE_NAMES, self.runtimes):
            self.runtime_names[id(runtime)] = name
        # Warm-up: the oracle prefix through the live runtimes.
        self.prefix_egress = [[] for _ in MODULES]
        for burst in self.prefix:
            self._drive(burst)
            for index, runtime in enumerate(self.runtimes):
                self.prefix_egress[index].extend(runtime.take_output())
        self._marks = self._columnar_marks()

    def controllers(self) -> List[Controller]:
        return [self.controller]

    def _drive(self, burst: tuple) -> float:
        when, groups = burst
        runtimes = self.runtimes
        entries = self.entries
        started = _clock()
        for index, packets in enumerate(groups):
            if packets:
                runtimes[index].inject_batch(entries[index], packets)
        for runtime in runtimes:
            runtime.run(until=when)
        return _clock() - started

    def _step(self) -> None:
        burst = self.source.next_burst()
        try:
            elapsed = self._drive(burst)
        except Exception as exc:  # noqa: BLE001 -- a failed operation
            self.check("burst raised %s: %s" % (type(exc).__name__, exc))
            return
        packets = sum(len(group) for group in burst[1])
        self.sample("burst", elapsed, packets)
        self.packets += packets
        self.batch_calls += sum(1 for group in burst[1] if group)
        for runtime in self.runtimes:
            self.egress += len(runtime.take_output())

    def verify(self) -> None:
        """Each module's prefix egress must equal a fresh runtime's of
        the same config, driven by scalar ``inject``."""
        reference = PacketSource(self.seed).take_packets(
            self.PREFIX_PACKETS)
        fresh = [Runtime(rt.config) for rt in self.runtimes]
        for when, groups in reference:
            for index, packets in enumerate(groups):
                inject = fresh[index].inject
                entry = self.entries[index]
                for packet in packets:
                    inject(entry, packet)
            for runtime in fresh:
                runtime.run(until=when)
        for index, name in enumerate(MODULE_NAMES):
            self.check(oracles.egress_failure(
                name,
                oracles.egress_by_sink(self.prefix_egress[index]),
                oracles.egress_by_sink(fresh[index].output),
            ))

    def metrics(self) -> Dict[str, tuple]:
        return {
            "pkt_per_s": self.rate("pkt/s"),
            "batch_p50_us": self.timing("burst", 1e6, "us"),
            "batch_p99_us": self.timing("burst", 1e6, "us", 99),
        }

    def _columnar_marks(self) -> tuple:
        return (
            sum(rt.columnar_packets for rt in self.runtimes),
            sum(rt.columnar_batches for rt in self.runtimes),
            sum(rt.columnar_fallbacks for rt in self.runtimes),
            self.packets, self.batch_calls, self.egress,
            self.source.built, self.source.build_s,
        )

    def mark(self) -> None:
        """Start a new layer-accounting window (see layer_extras)."""
        self._marks = self._columnar_marks()

    def layer_extras(self) -> Dict[str, float]:
        now = self._columnar_marks()
        (col_packets, col_batches, fallbacks, packets, calls, egress,
         built, build_s) = (a - b for a, b in zip(now, self._marks))
        if not packets:
            return {}
        entries = 0
        for runtime in self.runtimes:
            for element in runtime.elements.values():
                for key, value in vars(element).items():
                    if not key.startswith("_") and isinstance(value, dict):
                        entries += len(value)
        return {
            "sim.replay.build_us_per_pkt": build_s * 1e6 / built,
            "click.runtime.pkts_per_call": packets / calls,
            "click.runtime.egress_ratio": egress / packets,
            "click.columnar.packet_share": col_packets / packets,
            "click.columnar.batch_share": col_batches / calls,
            "click.columnar.side_fallbacks": fallbacks,
            "click.runtime.flow_state_entries": entries,
        }


WORKLOADS = {
    cls.name: cls for cls in (AdmitChurn, TraceReplay, ShardFailover)
}
