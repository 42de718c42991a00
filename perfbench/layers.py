"""Per-layer instrumentation for the traced run.

:class:`Tracing` wraps the public functions of each layer from outside
the program: class attributes where the callers go through a class, and
module attributes at every site that bound a function with
``from x import f`` (wrapping only the defining module would miss those
calls).  :func:`layer_metrics` turns the recorded spans plus counter
deltas into the per-layer metrics ``BENCHMARK.json`` lists.

Layer names follow the package's modules: ``policy``, ``click.config``,
``core.security``, ``core.controller``, ``core.cache``, ``netmodel``,
``symexec`` (with ``symexec.summaries``), ``resilience.journal``,
``fedctl``, ``click.runtime``, ``click.columnar`` and ``sim.replay``.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

from spans import Recorder, layer_table, self_times

#: (metric, unit, better) -- the traced run's output, in table order.
PER_LAYER = (
    ("policy.parse_ms", "ms", "lower"),
    ("click.config.parse_ms", "ms", "lower"),
    ("core.security.analyze_ms", "ms", "lower"),
    ("core.security.verdict_hit_ratio", "ratio", "higher"),
    ("netmodel.compile_ms", "ms", "lower"),
    ("netmodel.compile_count", "1/admit", "lower"),
    ("netmodel.graft_ms", "ms", "lower"),
    ("symexec.explore_ms", "ms", "lower"),
    ("symexec.explore_count", "1/admit", "lower"),
    ("symexec.forks_per_explore", "count", "lower"),
    ("symexec.prunes_per_explore", "count", "higher"),
    ("symexec.memo_hit_ratio", "1/explore", "higher"),
    ("symexec.cow_copies_per_explore", "count", "lower"),
    ("symexec.check_ms", "ms", "lower"),
    ("symexec.summaries.hit_ratio", "ratio", "higher"),
    ("core.controller.trials_per_admit", "1/admit", "lower"),
    ("core.controller.admit_self_ms", "ms", "lower"),
    ("resilience.journal.append_us", "us", "lower"),
    ("core.controller.kill_ms", "ms", "lower"),
    ("core.cache.verdict_reuse_ratio", "ratio", "higher"),
    ("core.cache.invalidations", "count", "lower"),
    ("core.cache.entries", "count", "lower"),
    ("core.controller.recover_ms", "ms", "lower"),
    ("resilience.journal.live_state_ms", "ms", "lower"),
    ("resilience.journal.records", "count", "lower"),
    ("fedctl.gossip.anti_entropy_ms", "ms", "lower"),
    ("fedctl.failover_self_ms", "ms", "lower"),
    ("fedctl.handback_self_ms", "ms", "lower"),
    ("fedctl.submit_self_ms", "ms", "lower"),
    ("click.runtime.inject_batch_us", "us", "lower"),
    ("click.runtime.pkts_per_call", "count", "higher"),
    ("click.runtime.timers_ms", "ms", "lower"),
    ("click.runtime.firewall.busy_ms", "ms/s", "lower"),
    ("click.runtime.batcher.busy_ms", "ms/s", "lower"),
    ("click.runtime.fanout.busy_ms", "ms/s", "lower"),
    ("click.runtime.egress_ratio", "ratio", "higher"),
    ("click.columnar.packet_share", "ratio", "higher"),
    ("click.columnar.batch_share", "ratio", "higher"),
    ("click.columnar.side_fallbacks", "count", "lower"),
    ("click.runtime.flow_state_entries", "count", "lower"),
    ("sim.replay.build_us_per_pkt", "us", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
)

#: Per-layer quantities that cannot be read from
#: outside the program as specified, and what is reported instead.
UNREACHABLE = {
    "symexec.memo_hit_ratio":
        "the engine counts memo hits but not memo misses, so no hit "
        "ratio can be formed from outside; reported as memo hits per "
        "exploration",
    "click.runtime.flow_state_entries":
        "numeric_element_state() keeps only int/float attributes, so "
        "the IPRewriter mapping and FlowMeter tables it is meant to "
        "size never appear in it; reported as the summed length of "
        "every element's public dict attributes",
    "click.columnar.packet_share":
        "Runtime.columnar_fallbacks counts only side-table lifts, not "
        "sub-MIN_BATCH batches or segments without a plan; the share is "
        "derived from Runtime.columnar_packets instead",
}


class _TimedEnter:
    """Context-manager proxy whose ``__enter__`` is one span (the
    graft work of ``with_trial_module`` happens on entry)."""

    __slots__ = ("_cm", "_recorder", "_name")

    def __init__(self, cm, recorder: Recorder, name: str):
        self._cm = cm
        self._recorder = recorder
        self._name = name

    def __enter__(self):
        index = self._recorder.begin(self._name)
        try:
            return self._cm.__enter__()
        finally:
            self._recorder.end(index)

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


class Tracing:
    """Installs span wrappers on the layers; :meth:`remove` undoes it."""

    def __init__(self, recorder: Recorder,
                 runtime_names: Optional[Dict[int, str]] = None):
        self.recorder = recorder
        #: id(Runtime) -> module name, for per-module busy time.
        self.runtime_names = runtime_names if runtime_names else {}
        self._saved: List[tuple] = []

    def _spanned(self, fn: Callable, name: str,
                 tag: Optional[Callable] = None) -> Callable:
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.begin(name, tag(args) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end(index)

        return wrapper

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str,
             tag: Optional[Callable] = None) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._replace(owner, attr, classmethod(
                self._spanned(raw.__func__, name, tag)))
        else:
            self._replace(owner, attr, self._spanned(raw, name, tag))

    def install(self) -> "Tracing":
        import repro.core.controller as controller_mod
        import repro.core.requests as requests_mod
        from repro.click.config import ClickConfig
        from repro.click.runtime import Runtime
        from repro.core.cache import CachingSecurityAnalyzer
        from repro.fedctl.gossip import GossipBus
        from repro.fedctl.plane import FederatedControlPlane
        from repro.netmodel.symgraph import CompiledNetwork, NetworkCompiler
        from repro.netmodel.topology import Platform
        from repro.resilience.journal import DeploymentJournal
        from repro.symexec.reachability import ReachabilityChecker

        # `from x import f` sites: each importing module gets its own
        # wrapper.
        self.wrap(requests_mod, "parse_requirements", "policy.parse")
        self.wrap(controller_mod, "parse_requirements", "policy.parse")
        self.wrap(requests_mod, "parse_config", "click.config.parse")
        self.wrap(ClickConfig, "validate", "click.config.validate")
        self.wrap(CachingSecurityAnalyzer, "analyze",
                  "core.security.analyze")
        self.wrap(NetworkCompiler, "compile", "netmodel.compile")
        self.wrap(CompiledNetwork, "explore_from", "symexec.explore")
        self.wrap(ReachabilityChecker, "check", "symexec.check")
        controller_cls = controller_mod.Controller
        self.wrap(controller_cls, "request", "core.controller.request")
        self.wrap(controller_cls, "kill", "core.controller.kill")
        self.wrap(controller_cls, "recover", "core.controller.recover")
        self.wrap(controller_cls, "verify_snapshot",
                  "core.controller.verify_snapshot")
        self.wrap(Platform, "deploy", "netmodel.platform.deploy")
        self.wrap(DeploymentJournal, "append", "resilience.journal.append")
        self.wrap(DeploymentJournal, "live_state",
                  "resilience.journal.live_state")
        self.wrap(GossipBus, "anti_entropy", "fedctl.gossip.anti_entropy")
        self.wrap(FederatedControlPlane, "submit", "fedctl.submit")
        self.wrap(FederatedControlPlane, "fail_shard", "fedctl.fail_shard")
        self.wrap(FederatedControlPlane, "revive_shard",
                  "fedctl.revive_shard")
        names = self.runtime_names

        def runtime_tag(args):
            return names.get(id(args[0]))

        self.wrap(Runtime, "inject_batch", "click.runtime.inject_batch",
                  tag=runtime_tag)
        self.wrap(Runtime, "run", "click.runtime.run", tag=runtime_tag)
        recorder = self.recorder
        graft = CompiledNetwork.__dict__["with_trial_module"]

        @functools.wraps(graft)
        def with_trial_module(*args, **kwargs):
            return _TimedEnter(graft(*args, **kwargs), recorder,
                               "netmodel.graft")

        self._replace(CompiledNetwork, "with_trial_module",
                      with_trial_module)
        return self

    def remove(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []


# -- counters -----------------------------------------------------------------

def controller_counters(controllers) -> Dict[int, Dict[str, float]]:
    """Cache counters per controller (keyed by ``id``)."""
    out = {}
    for controller in controllers:
        stats = controller.stats()
        verification = stats["verification_cache"]
        summaries = stats.get("symexec_summaries") or {}
        security = controller.analyzer.stats
        out[id(controller)] = {
            "vc_hits": verification["hits"],
            "vc_lookups": (verification["hits"] + verification["misses"]
                           + verification["invalidations"]),
            "vc_invalidations": verification["invalidations"],
            "vc_entries": verification["entries"],
            "sum_hits": summaries.get("hits", 0),
            "sum_lookups": (summaries.get("hits", 0)
                            + summaries.get("misses", 0)
                            + summaries.get("invalidations", 0)),
            "sec_hits": security.hits,
            "sec_probes": security.probes,
        }
    return out


def counter_delta(before: Dict[int, Dict[str, float]],
                  after: Dict[int, Dict[str, float]]) -> Dict[str, float]:
    """Counter growth summed over the controllers alive at the end (a
    controller built during the phase, by failover, counts from zero);
    ``vc_entries`` is a level and is summed as it stands at the end."""
    total: Dict[str, float] = {}
    for key, counters in after.items():
        base = before.get(key, {})
        for name, value in counters.items():
            grown = value if name == "vc_entries" else (
                value - base.get(name, 0))
            total[name] = total.get(name, 0) + grown
    return total


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def layer_metrics(recorder: Recorder, symexec: Dict[str, int],
                  caches: Dict[str, float],
                  extras: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from one traced phase.

    ``symexec`` and ``caches`` are counter deltas over the phase;
    ``extras`` carries what only the workload knows (packets injected,
    egress, journal lengths, ...).  Metrics whose layer did no work in
    the phase are left out.
    """
    spans = recorder.spans
    table = layer_table(spans)
    own = self_times(spans)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def mean_ms(name, scale=1e3):
        row = table.get(name)
        if not row or not row["calls"]:
            return None
        return row["total_s"] / row["calls"] * scale

    def mean_self_ms(name):
        row = table.get(name)
        if not row or not row["calls"]:
            return None
        return row["self_s"] / row["calls"] * 1e3

    admits = calls("core.controller.request")
    explores = calls("symexec.explore")
    parse_calls = calls("click.config.parse")
    trials = sum(
        1 for index, span in enumerate(spans)
        if span.name == "netmodel.platform.deploy"
        and recorder.has_ancestor(index, "core.controller.request")
    )
    out = {
        "policy.parse_ms": mean_ms("policy.parse"),
        "click.config.parse_ms": _ratio(
            (table.get("click.config.parse", {}).get("total_s", 0.0)
             + table.get("click.config.validate", {}).get("total_s", 0.0))
            * 1e3, parse_calls),
        "core.security.analyze_ms": mean_ms("core.security.analyze"),
        "core.security.verdict_hit_ratio": _ratio(
            caches.get("sec_hits", 0), caches.get("sec_probes", 0)),
        "netmodel.compile_ms": mean_ms("netmodel.compile"),
        "netmodel.compile_count": _ratio(calls("netmodel.compile"), admits),
        "netmodel.graft_ms": mean_ms("netmodel.graft"),
        "symexec.explore_ms": mean_ms("symexec.explore"),
        "symexec.explore_count": _ratio(explores, admits),
        "symexec.forks_per_explore": _ratio(symexec.get("forks", 0),
                                            explores),
        "symexec.prunes_per_explore": _ratio(symexec.get("prunes", 0),
                                             explores),
        "symexec.memo_hit_ratio": _ratio(symexec.get("memo_hits", 0),
                                         explores),
        "symexec.cow_copies_per_explore": _ratio(
            symexec.get("cow_copies", 0), explores),
        "symexec.check_ms": mean_ms("symexec.check"),
        "symexec.summaries.hit_ratio": _ratio(
            caches.get("sum_hits", 0), caches.get("sum_lookups", 0)),
        "core.controller.trials_per_admit": _ratio(trials, admits),
        "core.controller.admit_self_ms": mean_self_ms(
            "core.controller.request"),
        "resilience.journal.append_us": mean_ms(
            "resilience.journal.append", 1e6),
        "core.controller.kill_ms": mean_ms("core.controller.kill"),
        "core.cache.verdict_reuse_ratio": _ratio(
            caches.get("vc_hits", 0), caches.get("vc_lookups", 0)),
        "core.controller.recover_ms": mean_ms("core.controller.recover"),
        "resilience.journal.live_state_ms": mean_ms(
            "resilience.journal.live_state"),
        "fedctl.gossip.anti_entropy_ms": mean_ms(
            "fedctl.gossip.anti_entropy"),
        "fedctl.failover_self_ms": mean_self_ms("fedctl.fail_shard"),
        "fedctl.handback_self_ms": mean_self_ms("fedctl.revive_shard"),
        "fedctl.submit_self_ms": mean_self_ms("fedctl.submit"),
        "click.runtime.inject_batch_us": mean_ms(
            "click.runtime.inject_batch", 1e6),
        "click.runtime.timers_ms": mean_ms("click.runtime.run"),
    }
    if caches.get("vc_lookups"):
        out["core.cache.invalidations"] = caches.get("vc_invalidations")
        out["core.cache.entries"] = caches.get("vc_entries")
    if calls("click.runtime.inject_batch"):
        busy: Dict[str, float] = {}
        for index, span in enumerate(spans):
            if span.tag and span.name in ("click.runtime.inject_batch",
                                          "click.runtime.run"):
                busy[span.tag] = busy.get(span.tag, 0.0) + own[index]
        for module, seconds in busy.items():
            out["click.runtime.%s.busy_ms" % module] = (
                seconds * 1e3 / extras["phase_s"])
    for key in ("resilience.journal.records", "click.runtime.pkts_per_call",
                "click.runtime.egress_ratio", "click.columnar.packet_share",
                "click.columnar.batch_share", "click.columnar.side_fallbacks",
                "click.runtime.flow_state_entries",
                "sim.replay.build_us_per_pkt", "bench.trace_overhead_frac"):
        if key in extras:
            out[key] = extras[key]
    return {key: value for key, value in out.items() if value is not None}
