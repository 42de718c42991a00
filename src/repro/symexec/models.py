"""Abstract symbolic models of every Click element.

These are the middlebox models Section 4.3 describes: loop-free, no
dynamic allocation, with middlebox flow state pushed into the flow
itself (the stateful firewall *tags* the symbolic packet instead of
consulting a connection table, so verification is oblivious to flow
arrival order).

Each model is registered under the element's class name and receives the
*concrete element instance* as its payload -- argument parsing therefore
happens exactly once, in the element's ``configure``, and the model and
the dataplane can never disagree about what a configuration means.

Annotation-style fields used by the models:

* ``firewall_tag`` -- 1 after a stateful firewall admitted the flow,
* ``paint`` -- the Paint color (0 = unpainted),
* ``sandboxed`` -- 1 after passing a ChangeEnforcer (runtime-enforced
  authorization; the static security checker treats it as authorized),
* ``auth_ok`` -- 1 for traffic whose authorization is guaranteed by a
  vetted stock appliance (reverse proxy responses).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.common import fields as F
from repro.common.errors import VerificationError
from repro.common.intervals import IntervalSet
from repro.policy.flowspec import Clause, FlowSpec
from repro.symexec.engine import ModelContext, SymFlow
from repro.symexec.sympacket import SymVar
from repro.symexec.tuning import OPT

Model = Callable[[ModelContext, str, int, SymFlow],
                 List[Tuple[int, SymFlow]]]

_MODELS: Dict[str, Model] = {}


def register_model(class_name: str):
    """Decorator registering a symbolic model for an element class."""

    def decorate(fn: Model) -> Model:
        if class_name in _MODELS:
            raise VerificationError(
                "model for %r registered twice" % (class_name,)
            )
        _MODELS[class_name] = fn
        return fn

    return decorate


def model_for(class_name: str) -> Model:
    """The registered model for ``class_name``.

    Unmodelled classes raise: the controller must refuse configurations
    it cannot analyse (only *known* elements are checkable, Section 4.1).
    """
    try:
        return _MODELS[class_name]
    except KeyError:
        raise VerificationError(
            "no symbolic model for element class %r" % (class_name,)
        )


def models_registry() -> Dict[str, Model]:
    """A copy of the class-name -> model registry."""
    return dict(_MODELS)


def has_model(class_name: str) -> bool:
    """Whether ``class_name`` has a registered symbolic model."""
    return class_name in _MODELS


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

_ONE = IntervalSet.single(1)
_ZERO = IntervalSet.single(0)


def _element(ctx: ModelContext, node: str):
    return ctx.graph.payloads[node]


def ensure_field(
    ctx: ModelContext, flow: SymFlow, field: str, absent_value: int = 0
) -> SymVar:
    """Bind ``field`` if missing, defaulting its domain to a constant.

    Annotation fields (paint, firewall_tag) do not exist until some
    element creates them; a packet without one behaves as carrying
    ``absent_value``.
    """
    variable = flow.packet.var(field)
    if variable is None:
        variable = ctx.factory.fresh(field)
        flow.packet.bind(field, variable)
        flow.constrain(variable, IntervalSet.single(absent_value))
    return variable


def set_const(
    ctx: ModelContext, flow: SymFlow, field: str, value: int, node: str
) -> None:
    """Redefine ``field`` to the constant ``value`` (logged as a write)."""
    fresh = ctx.factory.fresh_for_field(field)
    flow.write_field(field, fresh, node)
    flow.constrain(fresh, IntervalSet.single(value))


def set_fresh(
    ctx: ModelContext,
    flow: SymFlow,
    field: str,
    node: str,
    domain: IntervalSet = None,
) -> SymVar:
    """Redefine ``field`` to a brand-new unconstrained variable."""
    fresh = ctx.factory.fresh_for_field(field)
    flow.write_field(field, fresh, node)
    if domain is not None:
        flow.constrain(fresh, domain)
    return fresh


def clause_infeasible(flow: SymFlow, clause: Clause) -> bool:
    """Whether ``clause`` provably empties ``flow`` (prune before fork).

    Checks each constrained field against the flow's *current* domain:
    if any single intersection is empty, constraining a fork would kill
    it, so the fork can be skipped outright.  Conservative the other
    way -- aliased fields (two fields bound to one variable) may still
    die under the full sequential narrowing, which the real
    ``constrain_clause`` then catches exactly as the seed engine did.
    Fields the packet does not carry make the check pass so the fork
    path can raise the same error the seed engine raises.
    """
    packet_var = flow.packet.var
    domain = flow.domain
    for field, allowed in clause.constraint_items():
        variable = packet_var(field)
        if variable is None:
            return False
        if domain(variable).intersect(allowed).is_empty():
            return True
    return False


def flows_matching(flow: SymFlow, spec: FlowSpec) -> List[SymFlow]:
    """Forks of ``flow`` constrained to each satisfiable clause.

    With the fast path on, clauses that provably empty the flow are
    pruned before forking.  A pruned fork is exactly one the seed
    engine would have created, constrained to death, and discarded
    inside this function -- it never escapes to the caller either way.
    """
    out: List[SymFlow] = []
    opt = OPT.enabled
    for clause in spec.clauses:
        if opt and clause_infeasible(flow, clause):
            OPT.prunes += 1
            continue
        fork = flow.fork()
        if fork.constrain_clause(clause):
            out.append(fork)
    return out


def flows_not_matching(flow: SymFlow, spec: FlowSpec) -> List[SymFlow]:
    """Forks of ``flow`` constrained to the spec's complement (DNF)."""
    remaining = [flow.fork()]
    opt = OPT.enabled
    for clause in spec.clauses:
        negations = clause.negated_clauses()
        next_remaining: List[SymFlow] = []
        for candidate in remaining:
            for negated in negations:
                if opt and clause_infeasible(candidate, negated):
                    OPT.prunes += 1
                    continue
                fork = candidate.fork()
                if fork.constrain_clause(negated):
                    next_remaining.append(fork)
        remaining = next_remaining
        if not remaining:
            break
    return remaining


def sequential_rules(
    flow: SymFlow, rules
) -> Tuple[List[Tuple[int, SymFlow]], List[SymFlow]]:
    """First-match-wins rule evaluation over a symbolic flow.

    ``rules`` is ``[(rule_index, FlowSpec), ...]``.  Returns
    ``(matched, unmatched)`` where ``matched`` pairs each fork with the
    index of the rule it matched.
    """
    matched: List[Tuple[int, SymFlow]] = []
    remaining = [flow]
    for index, spec in rules:
        next_remaining: List[SymFlow] = []
        for candidate in remaining:
            matched.extend(
                (index, fork) for fork in flows_matching(candidate, spec)
            )
            next_remaining.extend(flows_not_matching(candidate, spec))
        remaining = next_remaining
        if not remaining:
            break
    return matched, remaining


def _identity(ctx, node, port, flow):
    return [(0, flow)]


# ---------------------------------------------------------------------------
# I/O and plumbing
# ---------------------------------------------------------------------------

register_model("FromNetfront")(_identity)
register_model("FromDevice")(_identity)
register_model("ToNetfront")(_identity)   # sink flag handled by the graph
register_model("ToDevice")(_identity)
register_model("CheckIPHeader")(_identity)
register_model("Queue")(_identity)        # time is not modelled (Sec. 7)
register_model("Unqueue")(_identity)
register_model("TimedUnqueue")(_identity)
register_model("RatedUnqueue")(_identity)
register_model("BandwidthShaper")(_identity)
register_model("Counter")(_identity)
register_model("FlowMeter")(_identity)


@register_model("Discard")
def _model_discard(ctx, node, port, flow):
    return []


@register_model("Idle")
def _model_idle(ctx, node, port, flow):
    return []


@register_model("Tee")
def _model_tee(ctx, node, port, flow):
    outputs = ctx.graph.connected_outputs(node) or [0]
    results = []
    for index, out_port in enumerate(outputs):
        results.append(
            (out_port, flow if index == len(outputs) - 1 else flow.fork())
        )
    return results


@register_model("Paint")
def _model_paint(ctx, node, port, flow):
    element = _element(ctx, node)
    ensure_field(ctx, flow, "paint")
    set_const(ctx, flow, "paint", element.color, node)
    return [(0, flow)]


@register_model("PaintSwitch")
def _model_paintswitch(ctx, node, port, flow):
    variable = ensure_field(ctx, flow, "paint")
    opt = OPT.enabled
    results = []
    for out_port in ctx.graph.connected_outputs(node) or [0]:
        allowed = IntervalSet.single(out_port)
        if opt and flow.domain(variable).intersect(allowed).is_empty():
            OPT.prunes += 1
            continue
        fork = flow.fork()
        if fork.constrain_field("paint", allowed):
            results.append((out_port, fork))
    return results


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@register_model("IPFilter")
def _model_ipfilter(ctx, node, port, flow):
    element = _element(ctx, node)
    rules = [(i, spec) for i, (_allowed, spec) in enumerate(element.rules)]
    matched, _unmatched = sequential_rules(flow, rules)
    results = []
    for rule_index, fork in matched:
        allowed, _spec = element.rules[rule_index]
        if allowed:
            results.append((0, fork))
    return results


def _classifier_model(ctx, node, port, flow):
    element = _element(ctx, node)
    rules = list(enumerate(element.patterns))
    matched, _unmatched = sequential_rules(flow, rules)
    return [(pattern_index, fork) for pattern_index, fork in matched]


register_model("IPClassifier")(_classifier_model)
register_model("Classifier")(_classifier_model)


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


@register_model("IPRewriter")
def _model_iprewriter(ctx, node, port, flow):
    element = _element(ctx, node)
    if port >= len(element.inputs):
        return []
    pattern = element.inputs[port]
    if pattern is None:  # `drop` input
        return []
    if pattern.src_addr is not None:
        set_const(ctx, flow, F.IP_SRC, pattern.src_addr, node)
    if pattern.src_port is not None:
        low, high = pattern.src_port
        set_fresh(ctx, flow, F.TP_SRC, node,
                  IntervalSet.from_interval(low, high))
    if pattern.dst_addr is not None:
        set_const(ctx, flow, F.IP_DST, pattern.dst_addr, node)
    if pattern.dst_port is not None:
        low, high = pattern.dst_port
        set_fresh(ctx, flow, F.TP_DST, node,
                  IntervalSet.from_interval(low, high))
    return [(pattern.fwd_output, flow)]


@register_model("SetIPAddress")
def _model_setipaddress(ctx, node, port, flow):
    set_const(ctx, flow, F.IP_DST, _element(ctx, node).address, node)
    return [(0, flow)]


@register_model("SetIPSrc")
def _model_setipsrc(ctx, node, port, flow):
    set_const(ctx, flow, F.IP_SRC, _element(ctx, node).address, node)
    return [(0, flow)]


@register_model("SetTPDst")
def _model_settpdst(ctx, node, port, flow):
    set_const(ctx, flow, F.TP_DST, _element(ctx, node).port_value, node)
    return [(0, flow)]


@register_model("SetTPSrc")
def _model_settpsrc(ctx, node, port, flow):
    set_const(ctx, flow, F.TP_SRC, _element(ctx, node).port_value, node)
    return [(0, flow)]


@register_model("DecIPTTL")
def _model_deciPttl(ctx, node, port, flow):
    results = []
    if ctx.graph.successor(node, 1) is not None:
        expiry_range = IntervalSet.from_interval(0, 1)
        ttl_var = flow.packet.var(F.IP_TTL)
        if (
            OPT.enabled
            and ttl_var is not None
            and flow.domain(ttl_var).intersect(expiry_range).is_empty()
        ):
            OPT.prunes += 1
        else:
            expired = flow.fork()
            if expired.constrain_field(F.IP_TTL, expiry_range):
                results.append((1, expired))
    survivor = flow
    if survivor.constrain_field(F.IP_TTL,
                                IntervalSet.from_interval(2, 255)):
        set_fresh(ctx, survivor, F.IP_TTL, node,
                  IntervalSet.from_interval(1, 254))
        results.append((0, survivor))
    return results


# ---------------------------------------------------------------------------
# Stateful elements (state pushed into the flow)
# ---------------------------------------------------------------------------


@register_model("StatefulFirewall")
def _model_statefulfirewall(ctx, node, port, flow):
    element = _element(ctx, node)
    if port == element.OUTBOUND:
        results = []
        for fork in flows_matching(flow, element.allow_spec):
            ensure_field(ctx, fork, "firewall_tag")
            set_const(ctx, fork, "firewall_tag", 1, node)
            results.append((element.OUTBOUND, fork))
        return results
    # Inbound: only flows already tagged (i.e. related response traffic).
    ensure_field(ctx, flow, "firewall_tag")
    if not flow.constrain_field("firewall_tag", _ONE):
        return []
    return [(element.INBOUND, flow)]


@register_model("IngressFilter")
def _model_ingressfilter(ctx, node, port, flow):
    element = _element(ctx, node)
    if port == element.INBOUND:
        universe = IntervalSet.from_interval(0, (1 << 32) - 1)
        if not flow.constrain_field(
            F.IP_SRC, universe.subtract(element.protected)
        ):
            return []
    return [(port, flow)]


@register_model("ChangeEnforcer")
def _model_changeenforcer(ctx, node, port, flow):
    element = _element(ctx, node)
    ensure_field(ctx, flow, "sandboxed")
    if port == element.TO_MODULE:
        return [(element.TO_MODULE, flow)]
    # Module egress: runtime enforcement guarantees authorization, which
    # the static security checker recognizes through the annotation.
    set_const(ctx, flow, "sandboxed", 1, node)
    return [(element.FROM_MODULE, flow)]


# ---------------------------------------------------------------------------
# Tunnels
# ---------------------------------------------------------------------------


@register_model("IPEncap")
def _model_ipencap(ctx, node, port, flow):
    element = _element(ctx, node)
    _encap_with_writes(ctx, node, flow, {
        F.IP_PROTO: element.proto,
        F.IP_SRC: element.src,
        F.IP_DST: element.dst,
    })
    return [(0, flow)]


@register_model("UDPIPEncap")
def _model_udpipencap(ctx, node, port, flow):
    element = _element(ctx, node)
    _encap_with_writes(ctx, node, flow, {
        F.IP_PROTO: F.UDP,
        F.IP_SRC: element.src,
        F.TP_SRC: element.sport,
        F.IP_DST: element.dst,
        F.TP_DST: element.dport,
    })
    return [(0, flow)]


def _encap_with_writes(ctx, node, flow, outer_consts):
    """Push an encapsulation layer, logging each outer-field write."""
    from repro.symexec.engine import WriteRecord

    old = dict(flow.packet.vars)
    outer_vars = {}
    for field, value in outer_consts.items():
        fresh = ctx.factory.fresh_for_field(field)
        flow.constrain(fresh, IntervalSet.single(value))
        outer_vars[field] = fresh
    flow.packet.encapsulate(outer_vars)
    for field, variable in outer_vars.items():
        previous = old.get(field)
        flow.record_write(
            WriteRecord(
                at=len(flow.trace) - 1,
                node=node,
                field=field,
                old_uid=previous.uid if previous is not None else None,
                new_uid=variable.uid,
            )
        )


@register_model("IPDecap")
def _model_ipdecap(ctx, node, port, flow):
    from repro.symexec.engine import WriteRecord

    before = dict(flow.packet.vars)
    if flow.packet.decapsulate():
        # Restored inner header: log writes for fields whose binding
        # actually changed.
        for field, variable in flow.packet.vars.items():
            previous = before.get(field)
            if previous is None or previous.uid != variable.uid:
                flow.record_write(
                    WriteRecord(
                        at=len(flow.trace) - 1,
                        node=node,
                        field=field,
                        old_uid=previous.uid if previous else None,
                        new_uid=variable.uid,
                    )
                )
        return [(0, flow)]
    # Decapsulating traffic whose inner header is unknown at analysis
    # time: every header field becomes a fresh free variable.  This is
    # what makes third-party tunnels uncheckable (Table 1: sandbox).
    # The inner packet is still *attributed* to the tunnel sender
    # (anti-spoofing is enforced at tunnel ingress by the operator's
    # filtering), which the `decapped` annotation records.
    for field in F.HEADER_FIELDS:
        set_fresh(ctx, flow, field, node)
    ensure_field(ctx, flow, "decapped")
    set_const(ctx, flow, "decapped", 1, node)
    return [(0, flow)]


# ---------------------------------------------------------------------------
# Application-layer elements
# ---------------------------------------------------------------------------


@register_model("DPI")
def _model_dpi(ctx, node, port, flow):
    # Payload content is opaque to the engine: both outcomes possible.
    miss = flow.fork()
    return [(0, flow), (1, miss)]


@register_model("TransparentProxy")
def _model_transparentproxy(ctx, node, port, flow):
    element = _element(ctx, node)
    results = []
    redirected = flow.fork()
    if redirected.constrain_field(F.TP_DST, IntervalSet.single(80)):
        set_const(ctx, redirected, F.IP_DST, element.proxy_addr, node)
        set_const(ctx, redirected, F.TP_DST, element.proxy_port, node)
        results.append((0, redirected))
    passthrough = flow
    if passthrough.constrain_field(
        F.TP_DST,
        IntervalSet.from_interval(0, 65535).subtract(IntervalSet.single(80)),
    ):
        results.append((0, passthrough))
    return results


@register_model("HTTPOptimizer")
def _model_httpoptimizer(ctx, node, port, flow):
    # The optimizer may rewrite HTTP headers: the payload is redefined,
    # which is exactly what breaks the Section 8 payload invariant.
    set_fresh(ctx, flow, F.PAYLOAD, node)
    return [(0, flow)]


@register_model("WebCache")
def _model_webcache(ctx, node, port, flow):
    results = [(0, flow)]
    if ctx.graph.successor(node, 1) is not None:
        hit = flow.fork()
        src = hit.packet.var(F.IP_SRC)
        dst = hit.packet.var(F.IP_DST)
        hit.write_field(F.IP_SRC, dst, node)
        hit.write_field(F.IP_DST, src, node)
        sport = hit.packet.var(F.TP_SRC)
        dport = hit.packet.var(F.TP_DST)
        hit.write_field(F.TP_SRC, dport, node)
        hit.write_field(F.TP_DST, sport, node)
        set_fresh(ctx, hit, F.PAYLOAD, node)
        results.append((1, hit))
    return results


@register_model("Multicast")
def _model_multicast(ctx, node, port, flow):
    element = _element(ctx, node)
    results = []
    for index, dest in enumerate(element.destinations):
        fork = (
            flow if index == len(element.destinations) - 1 else flow.fork()
        )
        set_const(ctx, fork, F.IP_DST, dest, node)
        results.append((0, fork))
    return results


@register_model("EchoResponder")
def _model_echoresponder(ctx, node, port, flow):
    element = _element(ctx, node)
    if not flow.constrain_field(F.IP_PROTO, IntervalSet.single(F.UDP)):
        return []
    src = flow.packet.var(F.IP_SRC)
    dst = flow.packet.var(F.IP_DST)
    # The aliasing swap: after this, ip_dst IS the variable that was
    # ip_src -- the identity proof behind implicit authorization.
    flow.write_field(F.IP_SRC, dst, node)
    flow.write_field(F.IP_DST, src, node)
    sport = flow.packet.var(F.TP_SRC)
    dport = flow.packet.var(F.TP_DST)
    flow.write_field(F.TP_SRC, dport, node)
    flow.write_field(F.TP_DST, sport, node)
    if element.response_payload is not None:
        set_fresh(ctx, flow, F.PAYLOAD, node)
    return [(0, flow)]


@register_model("ReverseProxy")
def _model_reverseproxy(ctx, node, port, flow):
    element = _element(ctx, node)
    if port == element.CLIENT_SIDE:
        # A terminating proxy: the upstream request is sourced from the
        # address the client contacted (the module's own address), i.e.
        # the ingress destination -- an aliasing bind, not a fresh var.
        ingress_dst = flow.packet.var(F.IP_DST)
        flow.write_field(F.IP_SRC, ingress_dst, node)
        set_const(ctx, flow, F.IP_DST, element.origin_addr, node)
        set_const(ctx, flow, F.TP_DST, element.origin_port, node)
        return [(element.ORIGIN_SIDE, flow)]
    # Responses are relayed to the session's recorded client, sourced
    # from the proxy's own address (the ingress destination).  The
    # appliance's session table guarantees that client previously
    # contacted the proxy (implicit authorization); the model records
    # the guarantee in the auth_ok annotation.
    ingress_dst = flow.packet.var(F.IP_DST)
    flow.write_field(F.IP_SRC, ingress_dst, node)
    set_fresh(ctx, flow, F.IP_DST, node)
    ensure_field(ctx, flow, "auth_ok")
    set_const(ctx, flow, "auth_ok", 1, node)
    return [(element.CLIENT_SIDE, flow)]


@register_model("GeoDNSServer")
def _model_geodnsserver(ctx, node, port, flow):
    src = flow.packet.var(F.IP_SRC)
    dst = flow.packet.var(F.IP_DST)
    flow.write_field(F.IP_SRC, dst, node)
    flow.write_field(F.IP_DST, src, node)
    sport = flow.packet.var(F.TP_SRC)
    dport = flow.packet.var(F.TP_DST)
    flow.write_field(F.TP_SRC, dport, node)
    flow.write_field(F.TP_DST, sport, node)
    set_fresh(ctx, flow, F.PAYLOAD, node)
    return [(0, flow)]


@register_model("LoadBalancer")
def _model_loadbalancer(ctx, node, port, flow):
    # One symbolic branch per backend: the destination is always one
    # of the configured constants, all of which the security check can
    # vet against the white-list (like Multicast, but one copy).
    element = _element(ctx, node)
    results = []
    for index, backend in enumerate(element.backends):
        fork = flow if index == len(element.backends) - 1 else flow.fork()
        set_const(ctx, fork, F.IP_DST, backend, node)
        results.append((0, fork))
    return results


@register_model("ExplicitProxy")
def _model_explicitproxy(ctx, node, port, flow):
    element = _element(ctx, node)
    # The upstream destination comes from the request payload: it is a
    # run-time value, modelled as a fresh free variable.
    set_const(ctx, flow, F.IP_SRC, element.proxy_addr, node)
    set_fresh(ctx, flow, F.IP_DST, node)
    return [(0, flow)]


@register_model("X86VM")
def _model_x86vm(ctx, node, port, flow):
    # Arbitrary code: anything can come out.  Every field is redefined
    # to a fresh free variable, so no security rule can ever be proven.
    for field in F.HEADER_FIELDS:
        set_fresh(ctx, flow, field, node)
    return [(0, flow)]


@register_model("RateLimiter")
def _model_ratelimiter(ctx, node, port, flow):
    results = [(0, flow)]
    if ctx.graph.successor(node, 1) is not None:
        results.append((1, flow.fork()))
    return results


@register_model("Switch")
def _model_switch(ctx, node, port, flow):
    element = _element(ctx, node)
    if element.port < 0:
        return []
    return [(element.port, flow)]


@register_model("RoundRobinSwitch")
def _model_roundrobinswitch(ctx, node, port, flow):
    # The schedule depends on arrival order, which symbolic execution
    # does not model: any output is possible.
    outputs = ctx.graph.connected_outputs(node) or [0]
    results = []
    for index, out_port in enumerate(outputs):
        results.append(
            (out_port, flow if index == len(outputs) - 1
             else flow.fork())
        )
    return results


@register_model("Meter")
def _model_meter(ctx, node, port, flow):
    # Rates are a run-time property (time is not modelled): both the
    # conformant and the excess outcome are possible for any packet.
    results = [(0, flow)]
    if ctx.graph.successor(node, 1) is not None:
        results.append((1, flow.fork()))
    return results


@register_model("SetIPTTL")
def _model_setipttl(ctx, node, port, flow):
    set_const(ctx, flow, F.IP_TTL, _element(ctx, node).ttl, node)
    return [(0, flow)]


@register_model("SetIPTOS")
def _model_setiptos(ctx, node, port, flow):
    set_const(ctx, flow, F.IP_TOS, _element(ctx, node).tos, node)
    return [(0, flow)]


@register_model("ICMPPingResponder")
def _model_icmppingresponder(ctx, node, port, flow):
    if not flow.constrain_field(F.IP_PROTO, IntervalSet.single(F.ICMP)):
        return []
    src = flow.packet.var(F.IP_SRC)
    dst = flow.packet.var(F.IP_DST)
    flow.write_field(F.IP_SRC, dst, node)
    flow.write_field(F.IP_DST, src, node)
    return [(0, flow)]
