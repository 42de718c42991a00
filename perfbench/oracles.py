"""Correctness oracles: each returns ``None`` when the output is right
and a one-line failure description otherwise.

A failure is a wrong verdict, an exception, an egress mismatch against
a scalar reference runtime, or a digest or invariant violation; the
workloads count every one of them in ``failed``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from streams import EXPECT_ACCEPT

#: Reason prefixes the controller uses for each rejection class.
_SECURITY = "security rules violated"
_MALFORMED = ("bad configuration", "bad requirements")


def _first_line(reason: str) -> str:
    return reason.splitlines()[0] if reason else "<no reason>"


def admission_failure(kind: str, result) -> Optional[str]:
    """Check one admission verdict against the kind it was built as."""
    reason = result.reason or ""
    if result.accepted != EXPECT_ACCEPT[kind]:
        return "%s request %s: %s" % (
            kind, "accepted" if result.accepted else "rejected",
            _first_line(reason),
        )
    if kind == "spoof" and not reason.startswith(_SECURITY):
        return "spoofing request rejected for the wrong reason: %s" % (
            _first_line(reason),)
    if kind == "malformed" and not reason.startswith(_MALFORMED):
        return "malformed request rejected for the wrong reason: %s" % (
            _first_line(reason),)
    if kind == "unsat" and reason.startswith((_SECURITY,) + _MALFORMED):
        return "unsatisfiable request rejected before verification: %s" % (
            _first_line(reason),)
    return None


def snapshot_failure(results, expected: int) -> Optional[str]:
    """A policy edit's ``verify_snapshot``: every verdict must pass, and
    there must be one per operator line and resident requirement."""
    if len(results) != expected:
        return "verify_snapshot returned %d verdicts, expected %d" % (
            len(results), expected,
        )
    failed = [r for r in results if not r]
    if failed:
        return "verify_snapshot failed %d verdicts, first: %s" % (
            len(failed), failed[0].requirement,
        )
    return None


def digest_failure(expected: dict, actual: dict, what: str) -> Optional[str]:
    """Two state digests must be equal; names the first differing key."""
    if expected == actual:
        return None
    keys = sorted(set(expected) | set(actual))
    for key in keys:
        if expected.get(key) != actual.get(key):
            return "%s: digests differ at %r" % (what, key)
    return "%s: digests differ" % (what,)


def canonical(packet) -> tuple:
    """Everything observable about a packet except its uid (the
    differential suites' comparison key)."""
    annotations = tuple(sorted(
        (k, v) for k, v in packet.annotations.items()
        if not k.startswith("obs.")
    ))
    encap = tuple(
        tuple(sorted(layer.items())) for layer in packet.encap_stack
    )
    return (
        tuple(sorted(packet.fields.items())),
        annotations,
        encap,
        packet.length,
    )


def egress_by_sink(records) -> Dict[str, List[tuple]]:
    """Egress records grouped per sink, in order, canonicalized.

    Per-sink order is what batch and scalar execution agree on; across
    sinks the batch path may interleave branches differently.
    """
    by_sink: Dict[str, List[tuple]] = {}
    for record in records:
        by_sink.setdefault(record.element, []).append(
            (canonical(record.packet), record.time)
        )
    return by_sink


def egress_failure(module: str, observed: Dict[str, List[tuple]],
                   reference: Dict[str, List[tuple]]) -> Optional[str]:
    """The module's egress must equal the scalar reference's."""
    if observed == reference:
        return None
    for sink in sorted(set(observed) | set(reference)):
        got = observed.get(sink, [])
        want = reference.get(sink, [])
        if got == want:
            continue
        if len(got) != len(want):
            return "%s/%s: %d egress packets, reference %d" % (
                module, sink, len(got), len(want),
            )
        for index, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return "%s/%s: egress packet %d differs from reference" % (
                    module, sink, index,
                )
    return "%s: egress differs from reference" % (module,)


def violations_failure(violations: List[str]) -> Optional[str]:
    if not violations:
        return None
    return "%d federation invariant violations, first: %s" % (
        len(violations), violations[0],
    )
