"""Controller federation: admission throughput vs shard count.

The paper scales one controller (Figure 10) and conjectures the rest:
"we conjecture it is fairly easy to parallelize the controller by
simply having multiple machines answer the queries" (Section 4.3).
This benchmark measures that design at production scale: a federation
carrying ``--residents`` resident modules (default 10^5, the
million-tenant regime scaled to CI) split across N controller shards,
each admission paying the honest per-request cost against its shard's
resident state (model signature + module graft + symbolic check).

Sharding wins because the shards answer in parallel, each against its
own segment; the per-admission cost barely depends on the shard's
resident count (a request grafts one module onto the shard's cached
model, and a commit patches it instead of recompiling the residents).
The modeled parallel
wall-clock charges each shard its own busy time and the federation the
slowest shard (the :class:`~repro.core.cluster.ControllerPool`
convention).

Gate (run via ``python benchmarks/test_controller_federation.py``):
median admission throughput at 4 shards must be >= 2x the 1-shard
median, and both federation chaos scenarios -- shard-death and the
full failure lifecycle (probe-driven failover, revival hand-back,
live resharding) -- must pass across seeds.  The pytest entry point
is a scaled-down smoke run.
"""

import argparse
import statistics
import sys
import time

from _report import fmt, print_table
from repro.core import ClientRequest, ROLE_CLIENT
from repro.fedctl import FederatedControlPlane, shard_network
from repro.fedctl.chaos import run_all as run_chaos
from repro.fedctl.chaos import run_lifecycle_all
from repro.fedctl.invariants import check_federation_invariants
from repro.fedctl.seeding import seed_residents, tenant_ids_for_shard

#: The tenant's registered endpoint (the Figure 4 mobile client).
CLIENT_ADDR = "172.16.15.133"

_MODULE_CONFIG = """
    FromNetfront() ->
    IPFilter(allow udp port 1500) ->
    IPRewriter(pattern - - %s - 0 0)
    -> TimedUnqueue(120, 100)
    -> dst :: ToNetfront();
""" % CLIENT_ADDR


def admission_request(client_id, module_name, shard_index):
    """A measured admission against one shard.

    The origin hop pins ``dst`` to the shard's landing-platform trial
    address, so the symbolic flow traverses only the module under
    test -- the per-request cost is the shard-wide model signature +
    graft + check, not an all-residents flow explosion.
    """
    landing = "10.%d.0.1" % (1 + 2 * shard_index)
    return ClientRequest(
        client_id=client_id,
        role=ROLE_CLIENT,
        config_source=_MODULE_CONFIG,
        requirements=(
            "reach from internet udp dst %s"
            " -> %s:dst:0 dst %s"
            " -> client dst port 1500"
            % (landing, module_name, CLIENT_ADDR)
        ),
        owned_addresses=(CLIENT_ADDR,),
        module_name=module_name,
        listen="udp 1500",
    )


def build_plane(shard_count, residents_total):
    """A federation with the resident modules already in steady state."""
    per_shard = [
        residents_total // shard_count
        + (1 if i < residents_total % shard_count else 0)
        for i in range(shard_count)
    ]
    plane = FederatedControlPlane(
        shard_count=shard_count,
        network_factory=lambda i: shard_network(
            i, resident_capacity=max(per_shard[i], 1),
        ),
        gossip_every=0,
    )
    for index, shard_id in enumerate(plane.shards):
        if per_shard[index]:
            seed_residents(
                plane, shard_id, "res%d" % index, per_shard[index],
                journal=False,
            )
    return plane


def measure(plane, requests_per_shard, tag="bench"):
    """One measurement round: per-shard busy time and throughput.

    Every shard admits ``requests_per_shard`` dry-run requests (trial
    place + verify + undo: the verification work without mutating the
    resident state between rounds).  Parallel wall-clock is the
    slowest shard's busy time.
    """
    busy = {}
    total = 0
    for index, shard_id in enumerate(plane.shards):
        tenants = tenant_ids_for_shard(
            plane, shard_id, requests_per_shard, tag=tag,
        )
        elapsed = 0.0
        for turn, client_id in enumerate(tenants):
            request = admission_request(
                client_id, "%s-%s-%d" % (tag, shard_id, turn), index,
            )
            started = time.perf_counter()
            decision = plane.submit(request, dry_run=True)
            elapsed += time.perf_counter() - started
            assert decision, decision.result.reason
            total += 1
        busy[shard_id] = elapsed
    parallel = max(busy.values())
    serial = sum(busy.values())
    return {
        "requests": total,
        "parallel_seconds": parallel,
        "serial_seconds": serial,
        "throughput": total / parallel if parallel > 0 else 0.0,
        "latency": serial / total if total else 0.0,
    }


def run_config(shard_count, residents, requests_per_shard, rounds):
    plane = build_plane(shard_count, residents)
    # Warmup: each shard pays its cold full-network compile once.
    measure(plane, 1, tag="warmup")
    samples = [
        measure(plane, requests_per_shard, tag="round%d" % r)
        for r in range(rounds)
    ]
    check_federation_invariants(plane)
    return {
        "shards": shard_count,
        "residents": residents,
        "throughput": statistics.median(
            s["throughput"] for s in samples
        ),
        "latency": statistics.median(s["latency"] for s in samples),
        "parallel_seconds": statistics.median(
            s["parallel_seconds"] for s in samples
        ),
    }


def sweep(shard_counts, residents, requests_per_shard, rounds):
    return [
        run_config(n, residents, requests_per_shard, rounds)
        for n in shard_counts
    ]


def report(results, note=""):
    base = results[0]["throughput"]
    rows = [
        (
            r["shards"], r["residents"],
            fmt(r["latency"] * 1e3, 2),
            fmt(r["throughput"], 2),
            fmt(r["throughput"] / base, 2) + "x",
        )
        for r in results
    ]
    print_table(
        "Controller federation: admission throughput vs shard count",
        ("shards", "residents", "admission (ms)",
         "admissions/s", "scaling"),
        rows,
        note=note or (
            "Median dry-run admission throughput; parallel wall-clock"
            " charges the slowest shard per round."
        ),
    )


def test_federation_admission_scaling(benchmark):
    """Smoke-scale run: sharding must help even at 2k residents."""
    results = benchmark.pedantic(
        lambda: sweep((1, 2, 4), 2_000, 4, 1),
        rounds=1, iterations=1,
    )
    report(
        results,
        note="Smoke scale (2k residents); the CI gate runs 10^5 via"
             " this file's __main__.",
    )
    by_shards = {r["shards"]: r["throughput"] for r in results}
    assert by_shards[4] > by_shards[1] * 1.2, by_shards
    assert by_shards[2] > by_shards[1], by_shards


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--residents", type=int, default=100_000)
    parser.add_argument(
        "--shards", type=lambda s: tuple(int(x) for x in s.split(",")),
        default=(1, 2, 4),
    )
    parser.add_argument("--requests", type=int, default=6,
                        help="measured admissions per shard per round")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="required throughput scaling at the"
                             " largest shard count vs 1 shard")
    parser.add_argument("--chaos-seeds",
                        type=lambda s: tuple(
                            int(x) for x in s.split(",")
                        ),
                        default=(1, 2, 3))
    parser.add_argument("--skip-chaos", action="store_true")
    args = parser.parse_args(argv)

    results = sweep(
        args.shards, args.residents, args.requests, args.rounds
    )
    report(results)
    failed = False
    by_shards = {r["shards"]: r["throughput"] for r in results}
    largest = max(args.shards)
    scaling = by_shards[largest] / by_shards[min(args.shards)]
    print("throughput scaling at %d shards: %.2fx (threshold %.1fx)"
          % (largest, scaling, args.threshold))
    if scaling < args.threshold:
        print("FAIL: sharding did not scale admission throughput")
        failed = True

    if not args.skip_chaos:
        print("\n--- shard-death chaos ---")
        for chaos_report in run_chaos(seeds=args.chaos_seeds):
            print(chaos_report.summary())
            for failure in chaos_report.failures:
                print("  FAIL:", failure)
            failed = failed or not chaos_report.passed

        print("\n--- failure-lifecycle chaos (revive + reshard) ---")
        for chaos_report in run_lifecycle_all(seeds=args.chaos_seeds):
            print(chaos_report.summary())
            for failure in chaos_report.failures:
                print("  FAIL:", failure)
            failed = failed or not chaos_report.passed

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
