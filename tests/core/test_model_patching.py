"""Differential suite: the patched compiled model equals a fresh compile.

The controller keeps one compiled model of its snapshot alive across
commits, kills, migrations and adoptions, splicing the touched module in
or out instead of recompiling every resident.  These tests drive seeded
sequences of those operations -- plus dry runs, trials that fail on
every candidate, failed (rolled-back) migrations, and cross-controller
export/adopt -- and after *every* step compare the controller's model
with a :class:`NetworkCompiler` compile of the same snapshot three ways:

* identical graphs (vertex set, edge map, module table),
* equal canonical explorations (:func:`canonical_flow` of every flow,
  in exploration order) from every requirement origin and every
  deployed module's entry, and
* equal verdicts for the operator policy and every module's stored
  requirements.

Steady state must never fall back to a full compile; the
``model_compiles`` counter proves it, and shows that out-of-band
surgery still forces one.
"""

import random

import pytest

from repro.click import parse_config
from repro.core import ClientRequest, Controller, ROLE_CLIENT
from repro.netmodel.examples import star_network
from repro.netmodel.symgraph import NetworkCompiler
from repro.policy.grammar import KIND_ELEMENT, NodeRef
from repro.resilience.journal import DeploymentJournal
from repro.symexec.equivalence import canonical_flow
from repro.symexec.reachability import ReachabilityChecker

PLATFORMS = 4

MODULE_CONFIG = """
    FromNetfront() ->
    IPFilter(allow udp port 1500) ->
    IPRewriter(pattern - - 172.16.15.133 - 0 0)
    -> dst :: ToNetfront();
"""

#: A second shape, so co-located modules differ in size and wiring.
TEE_CONFIG = """
    src :: FromNetfront();
    t :: Tee(2);
    src -> IPFilter(allow udp) -> t;
    t[0] -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
         -> dst :: ToNetfront();
    t[1] -> Discard();
"""


def policy():
    return "\n".join(
        "reach from internet udp dst net 192.0.%d.0/24 -> platform%d"
        % (index + 1, index)
        for index in range(PLATFORMS)
    )


def make_request(name, kind, tee=False):
    """A tenant request.

    ``free`` modules verify anywhere; ``pinned`` ones are only reachable
    through platform0's pool, so migrating them elsewhere fails and
    rolls back; ``doomed`` ones fail on every candidate.
    """
    requirements = {
        "free": "reach from client -> internet",
        "pinned": "reach from internet udp dst net 192.0.1.0/24 -> %s:dst:0"
                  % name,
        "doomed": "reach from internet tcp -> %s:dst:0" % name,
    }[kind]
    return ClientRequest(
        client_id="tenant-%s" % name,
        role=ROLE_CLIENT,
        config_source=TEE_CONFIG if tee else MODULE_CONFIG,
        requirements=requirements,
        owned_addresses=("172.16.15.133",),
        module_name=name,
    )


def _explorations(model, origins):
    out = []
    for ref, flow in origins:
        exploration = model.explore_from(ref, flow)
        out.append((
            sorted(exploration.arrivals),
            [canonical_flow(f) for f in exploration.delivered],
            [canonical_flow(f) for f in exploration.dropped],
        ))
    return out


def _verdicts(model, requirements):
    checker = ReachabilityChecker(model.resolver)
    out = []
    for requirement in requirements:
        origin = requirement.origin
        exploration = model.explore_from(origin.node, origin.flow)
        result = checker.check(requirement, exploration)
        out.append((str(requirement), bool(result), result.reason))
    return out


def assert_patched_equals_fresh(controller):
    """The controller's model against a fresh compile of its snapshot."""
    model = controller._ensure_compiled()
    controller.network.compute_routes()
    fresh = NetworkCompiler(controller.network).compile()
    graph, other = model.graph, fresh.graph
    assert set(graph.models) == set(other.models)
    assert graph.edges == other.edges
    assert graph.sinks == other.sinks
    assert model.modules == fresh.modules
    for node in graph.models:
        assert graph.connected_outputs(node) == \
            other.connected_outputs(node)
    requirements = list(controller.operator_requirements)
    for record in controller.deployed.values():
        requirements.extend(record.requirements)
    origins = [(r.origin.node, r.origin.flow) for r in requirements]
    for name, (_platform, _address, config) in sorted(
            model.modules.items()):
        entry = NodeRef(KIND_ELEMENT, name=name,
                        element=config.sources()[0], port=0)
        origins.append((entry, None))
    assert _explorations(model, origins) == _explorations(fresh, origins)
    assert _verdicts(model, requirements) == \
        _verdicts(fresh, requirements)


def compiles(controller):
    return controller.stats()["model_compiles"]


def patches(controller):
    return controller.stats()["model_patches"]


class _World:
    """Two controllers (for export/adopt) driven by one seeded RNG."""

    def __init__(self, seed, fast_path=True):
        self.rng = random.Random(seed)
        self.controllers = [
            Controller(star_network(PLATFORMS), policy(), journal=j,
                       fast_path=fast_path)
            for j in (DeploymentJournal(), DeploymentJournal())
        ]
        self.counter = 0
        self.outcomes = []
        self.pinned = set()

    def _fresh_name(self):
        self.counter += 1
        return "m%d" % self.counter

    def _pick(self, live):
        """A live module, pinned ones half the time (their moves fail)."""
        pinned = [name for name in live if name in self.pinned]
        if pinned and self.rng.random() < 0.5:
            return self.rng.choice(pinned)
        return self.rng.choice(live)

    def step(self):
        rng = self.rng
        controller = rng.choice(self.controllers)
        live = sorted(controller.deployed)
        op = rng.choice(
            ("commit", "commit", "commit", "pinned", "dry_run", "doomed",
             "kill", "migrate", "migrate", "adopt")
        )
        if op in ("kill", "migrate", "adopt") and not live:
            op = "commit"
        if op in ("commit", "pinned", "dry_run", "doomed"):
            name = self._fresh_name()
            kind = {"commit": "free", "dry_run": "free"}.get(op, op)
            result = controller.request(
                make_request(name, kind, tee=rng.random() < 0.5),
                pinned_platform="platform0" if kind == "pinned" else None,
                dry_run=op == "dry_run",
            )
            assert result.accepted == (op != "doomed"), result.reason
            if kind == "pinned":
                self.pinned.add(name)
        elif op == "kill":
            assert controller.kill(self._pick(live))
        elif op == "migrate":
            module_id = self._pick(live)
            here = controller.deployed[module_id].platform
            target = rng.choice([
                p.name for p in controller.network.platforms()
                if p.name != here
            ])
            result = controller.migrate(module_id, target)
            self.outcomes.append(("migrate", result.migrated))
        else:
            other = self.controllers[1 - self.controllers.index(controller)]
            module_id = self._pick(live)
            record = controller.export_module(module_id)
            pinned = rng.choice(
                [None] + [p.name for p in other.network.platforms()]
            )
            result = other.adopt_module(record, pinned_platform=pinned)
            if result:
                assert controller.kill(module_id)
            self.outcomes.append(("adopt", result.migrated))
        return op


@pytest.mark.parametrize("seed,fast_path", [
    (seed, True) for seed in range(6)
] + [(seed, False) for seed in range(2)])
def test_seeded_sequences_match_fresh_compiles(seed, fast_path):
    # The from-scratch controller (fast_path=False) compiles each trial
    # itself but keeps and patches the same cached model.
    world = _World(seed, fast_path)
    for controller in world.controllers:
        assert_patched_equals_fresh(controller)  # primes the model
    for _ in range(24):
        world.step()
        for controller in world.controllers:
            assert_patched_equals_fresh(controller)
            # Steady state: patched, never recompiled.
            assert compiles(controller) == {
                "cold": 1, "stale": 0, "invalidated": 0, "recovered": 0,
            }
    total = {}
    for controller in world.controllers:
        for op, count in patches(controller).items():
            total[op] = total.get(op, 0) + count
    assert total["commit"] > 0 and total["kill"] > 0


def test_sequences_cover_every_operation_and_outcome():
    seen_ops = set()
    outcomes = set()
    for seed in range(6):
        world = _World(seed)
        for _ in range(24):
            seen_ops.add(world.step())
        outcomes.update(world.outcomes)
    assert seen_ops == {"commit", "pinned", "dry_run", "doomed", "kill",
                        "migrate", "adopt"}
    # Both sides of migration and adoption: committed and rolled back.
    assert ("migrate", True) in outcomes
    assert ("migrate", False) in outcomes
    assert ("adopt", True) in outcomes
    assert ("adopt", False) in outcomes


def _world_with_modules(count=3, operator_policy=None):
    controller = Controller(
        star_network(PLATFORMS),
        policy() if operator_policy is None else operator_policy,
    )
    controller.verify_snapshot()  # primes the model
    for index in range(count):
        name = "w%d" % index
        assert controller.request(make_request(name, "free")).accepted
    assert compiles(controller)["cold"] == 1
    return controller


class TestForcedRecompiles:
    def test_out_of_band_deploy_forces_a_full_compile(self):
        controller = _world_with_modules()
        platform = controller.network.node("platform2")
        address = platform.allocate_address()
        platform.deploy("intruder", address, parse_config(MODULE_CONFIG))
        assert_patched_equals_fresh(controller)
        assert compiles(controller)["stale"] == 1
        assert "intruder" in controller._ensure_compiled().modules

    def test_link_surgery_forces_a_full_compile(self):
        controller = _world_with_modules()
        controller.network.unlink("r0", "platform3")
        assert_patched_equals_fresh(controller)
        assert compiles(controller)["stale"] == 1

    def test_kill_on_a_removed_platform(self):
        # No operator policy: it names every platform, and a rule
        # naming a decommissioned node cannot be checked.
        controller = _world_with_modules(operator_policy="")
        victim = next(iter(controller.deployed.values()))
        net = controller.network
        net.unlink("r0", victim.platform)
        del net.nodes[victim.platform]
        assert controller.kill(victim.module_id)
        assert_patched_equals_fresh(controller)
        assert compiles(controller)["stale"] == 1
        assert patches(controller)["kill"] == 0

    def test_invalidation_and_recovery_are_counted(self):
        journal = DeploymentJournal()
        controller = Controller(star_network(PLATFORMS), policy(),
                                journal=journal)
        assert controller.request(make_request("a", "free")).accepted
        controller.invalidate_model_cache()
        assert_patched_equals_fresh(controller)
        assert compiles(controller)["invalidated"] == 1
        recovered = Controller.recover(controller.network, journal,
                                       operator_requirements=policy())
        assert_patched_equals_fresh(recovered)
        assert compiles(recovered) == {
            "cold": 0, "stale": 0, "invalidated": 0, "recovered": 1,
        }
        # The recovered controller patches from then on.
        assert recovered.request(make_request("b", "free")).accepted
        assert recovered.kill("a")
        assert_patched_equals_fresh(recovered)
        assert compiles(recovered)["recovered"] == 1
        assert sum(compiles(recovered).values()) == 1


def test_commit_patches_the_cached_model_in_place():
    """A commit or kill splices the cached model; it is never rebuilt."""
    controller = Controller(star_network(PLATFORMS), policy())
    first = controller._ensure_compiled()
    result = controller.request(make_request("batcher", "free"))
    assert result.accepted
    second = controller._ensure_compiled()
    assert second is first
    assert "batcher" in second.modules
    assert patches(controller)["commit"] == 1
    assert controller.kill("batcher")
    assert controller._ensure_compiled() is first
    assert "batcher" not in first.modules
    assert compiles(controller)["cold"] == 1


def test_slots_are_lowest_free_and_shared_with_the_compiler():
    controller = _world_with_modules(0)
    for name in ("a", "b", "c"):
        assert controller.request(
            make_request(name, "free"), pinned_platform="platform1"
        ).accepted
    platform = controller.network.node("platform1")
    assert platform.slots == {"a": 0, "b": 1, "c": 2}
    assert controller.kill("a")
    assert controller.request(
        make_request("d", "free"), pinned_platform="platform1"
    ).accepted
    assert platform.slots["d"] == 0
    assert_patched_equals_fresh(controller)

