"""Footprint-keyed verdict reuse: incremental re-verification.

Every verified requirement records its *reachability footprint*: the set
of topology segments its exploration visited (module-internal vertices
map to their hosting platform).  A cached verdict is reusable while

* the topology signature is unchanged (links + address ownership),
* every routing/flow table in the footprint still has the version
  counter (``RoutingTable._version`` / ``FlowTable._version``) recorded
  at store time, and
* no module address moved in or out of any address range the
  requirement references.

Admitting a config into a large network then costs O(changed segments):
a trial graft at platform P bumps only P's tokens, so every requirement
whose footprint avoids P is answered from cache, and a policy edit
re-verifies only requirements that are new or whose footprint was
invalidated.  ``docs/symexec.md`` walks the invalidation rules;
``benchmarks/symexec_speedup_check.py --incremental`` gates the speedup
in CI.

The cache is **exact**: it changes what a verdict costs, never what it
is, and :func:`repro.symexec.tuning.seed_mode` bypasses it (the
controller re-checks ``OPT.enabled`` on every use).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from repro.common.intervals import IntervalSet

__all__ = [
    "ChangedScope",
    "UNCHANGED_SCOPE",
    "VerificationCache",
    "exploration_footprint",
    "requirement_address_ranges",
]


# ---------------------------------------------------------------------------
# Footprints + verdict reuse
# ---------------------------------------------------------------------------

class ChangedScope(NamedTuple):
    """What an admission step is about to change.

    ``segments`` are topology node names (a trial graft touches exactly
    its hosting platform); ``addresses`` are addresses being assigned.
    Verdicts whose footprint intersects the scope, or whose requirement
    references an address range covering an assigned address, are never
    *stored* during the step -- their tokens would snapshot trial state.
    """

    segments: FrozenSet[str]
    addresses: FrozenSet[int]


#: The scope of a read-only re-verification (``verify_snapshot``).
UNCHANGED_SCOPE = ChangedScope(frozenset(), frozenset())


def exploration_footprint(exploration, compiled) -> FrozenSet[str]:
    """Topology segments an exploration visited.

    Module-internal vertices (``module/element``) map to the hosting
    platform: whatever invalidates the module (deploy, kill, steering
    change) bumps that platform's tokens, so platform granularity is
    exactly the invalidation granularity.
    """
    segments = set()
    for node, _port in exploration.arrivals:
        if "/" in node:
            module = node.split("/", 1)[0]
            info = compiled.modules.get(module)
            segments.add(info[0] if info is not None else module)
        else:
            segments.add(node)
    return frozenset(segments)


def requirement_address_ranges(requirement) -> Tuple[IntervalSet, ...]:
    """The address ranges a requirement's hops reference.

    Address-referencing hops match *module entry elements* whose
    assigned address falls in the range
    (:meth:`CompiledNetwork._address_matcher`), so a cached verdict is
    sensitive to module addresses moving in or out of these ranges even
    when the owning platform is outside the footprint.
    """
    from repro.common.addr import prefix_range
    from repro.policy.grammar import KIND_ADDRESS

    ranges = []
    for hop in requirement.hops:
        ref = hop.node
        if ref.kind == KIND_ADDRESS and ref.prefix is not None:
            low, high = prefix_range(*ref.prefix)
            ranges.append(IntervalSet.from_interval(low, high))
    return tuple(ranges)


def _modules_in_ranges(network, ranges) -> Tuple[FrozenSet, ...]:
    """Per range: the (module, address) pairs currently inside it."""
    if not ranges:
        return ()
    pairs = [
        (name, address)
        for platform in network.platforms()
        for name, (address, _config) in platform.modules.items()
    ]
    return tuple(
        frozenset(p for p in pairs if p[1] in wanted)
        for wanted in ranges
    )


class _VerdictEntry(NamedTuple):
    result: object            # the cached ReachResult
    footprint: FrozenSet[str]
    topo_signature: int
    #: segment name -> (table object, version) for routers/platforms in
    #: the footprint.  Holding the table object itself (not ``id()``)
    #: makes identity checks immune to allocator reuse AND catches
    #: wholesale table replacement (a fresh table restarts its version
    #: counter, which a bare version compare would false-match).
    tokens: Dict[str, Tuple[object, int]]
    ranges: Tuple[IntervalSet, ...]
    range_modules: Tuple[FrozenSet, ...]


class VerificationCache:
    """Footprint-keyed requirement verdict cache.

    Keys are ``(owner module or "", str(requirement))``; entries
    validate against the live network on every lookup (topology
    signature, per-segment version tokens, address-range membership) so
    there is no explicit invalidation protocol to get wrong -- a stale
    entry can never validate.
    """

    def __init__(self):
        self._entries: Dict[tuple, _VerdictEntry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stores = 0
        self.store_skips = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "stores": self.stores,
            "store_skips": self.store_skips,
        }

    def flush(self) -> None:
        """Drop every cached verdict."""
        self._entries.clear()

    def prune_operator(self, valid_keys: FrozenSet[str]) -> None:
        """Drop operator-owned entries not in the current policy."""
        stale = [
            key for key in self._entries
            if key[0] == "" and key[1] not in valid_keys
        ]
        for key in stale:
            del self._entries[key]

    # -- validation ----------------------------------------------------------
    @staticmethod
    def _segment_token(node) -> Optional[Tuple[object, int]]:
        table = getattr(node, "table", None)
        if table is not None and hasattr(table, "_version"):
            return (table, table._version)
        table = getattr(node, "flow_table", None)
        if table is not None and hasattr(table, "_version"):
            return (table, table._version)
        return None

    def _valid(self, entry: _VerdictEntry, network, topo_signature) -> bool:
        if entry.topo_signature != topo_signature:
            return False
        nodes = network.nodes
        for name, (table, version) in entry.tokens.items():
            node = nodes.get(name)
            if node is None:
                return False
            current = self._segment_token(node)
            if (
                current is None
                or current[0] is not table
                or current[1] != version
            ):
                return False
        if entry.ranges:
            if _modules_in_ranges(network, entry.ranges) \
                    != entry.range_modules:
                return False
        return True

    # -- lookup / store -----------------------------------------------------
    def lookup(self, key, network, topo_signature):
        """The cached ReachResult, or None (miss or invalidated)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not self._valid(entry, network, topo_signature):
            del self._entries[key]
            self.invalidations += 1
            return None
        self.hits += 1
        return entry.result

    def store(
        self,
        key,
        result,
        exploration,
        compiled,
        network,
        requirement,
        changed: Optional[ChangedScope],
        topo_signature: int,
    ) -> bool:
        """Cache a fresh verdict unless the changed scope taints it.

        A verdict explored *during* a trial graft may only be cached
        when its footprint avoids the grafted platform and its address
        ranges avoid the trial address -- otherwise its tokens would
        snapshot state that is rolled back on exit.
        """
        footprint = exploration_footprint(exploration, compiled)
        ranges = requirement_address_ranges(requirement)
        if changed is not None:
            if not footprint.isdisjoint(changed.segments):
                self.store_skips += 1
                return False
            if changed.addresses and any(
                address in wanted
                for wanted in ranges
                for address in changed.addresses
            ):
                self.store_skips += 1
                return False
        tokens: Dict[str, Tuple[object, int]] = {}
        nodes = network.nodes
        for name in footprint:
            node = nodes.get(name)
            if node is None:
                continue
            token = self._segment_token(node)
            if token is not None:
                tokens[name] = token
        self._entries[key] = _VerdictEntry(
            result, footprint, topo_signature, tokens,
            ranges, _modules_in_ranges(network, ranges),
        )
        self.stores += 1
        return True
