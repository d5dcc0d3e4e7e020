"""The fault-injection runtime consulted by the network transport.

A :class:`FaultSession` turns a :class:`~repro.faults.plan.FaultPlan`
into per-hop decisions: *was this transmission corrupted* (and how many
stop-and-wait retries did the link-level protocol need), *is this link
down right now*, *is this node stalled*.  It mirrors the ambient
context-manager pattern of the flight recorder and metrics registry —
:func:`use_faults` installs a session in the ``faults`` slot of
:mod:`repro.instruments`, which
:class:`~repro.network.network.Network` reads at construction, and
the slot is empty by default so fault-free runs never touch this
module.

Reliability protocol model (stop-and-wait, per link direction)
--------------------------------------------------------------
Each transmission attempt serializes the full packet; a CRC check at
the receiving adapter completes ``detect_ns`` after the tail flit, the
NAK crosses back in ``nak_ns``, and the sender backs off
``backoff_base_ns * 2**k`` before attempt ``k+1``.  The sender holds
the channel across the whole exchange, so per-link FCFS order — and
therefore in-order delivery — is preserved across retries.  After
``max_retries`` failed retransmissions the protocol escalates: it
either raises :class:`RetryExhausted` (``on_exhaust="error"``, the
default — a lossless fabric treats this as a machine check) or drops
the packet *loudly* (``on_exhaust="drop"``): the loss is counted on
the network, the session, and the ``faults.*`` metrics, and the
health watchdogs report it — a packet can be lost, but never silently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ContextManager, Optional, Tuple

from repro import instruments
from repro.constants import LINK_COST_NS
from repro.faults.plan import FaultPlan, selector_matches
from repro.trace.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.link import TorusLink
    from repro.network.packet import Packet


class RetryExhausted(RuntimeError):
    """Link-level retransmission gave up on a packet.

    Raised (under the default ``on_exhaust="error"`` policy) when the
    exhausted hop arrives at its link, where the transit resolves the
    traversal; the simulator surfaces it as a run failure, and the
    sweep harness marks the point as errored.
    """


@dataclass
class FaultStats:
    """Aggregate fault accounting for one session (always on; the
    ``faults.*`` metrics mirror these when a registry is attached)."""

    corrupted: int = 0          #: transmission attempts that failed CRC
    retransmissions: int = 0    #: retries issued (== corrupted attempts)
    retry_exhausted: int = 0    #: traversals that hit the retry bound
    packets_lost: int = 0       #: packets dropped after exhaustion
    deliveries_lost: int = 0    #: client deliveries those drops owed
    link_down_blocks: int = 0   #: transits that waited out a down window
    node_stall_blocks: int = 0  #: transits/visits delayed by a stall
    max_retries_seen: int = 0   #: worst per-traversal retry count

    def as_dict(self) -> dict:
        return {
            "corrupted": self.corrupted,
            "retransmissions": self.retransmissions,
            "retry_exhausted": self.retry_exhausted,
            "packets_lost": self.packets_lost,
            "deliveries_lost": self.deliveries_lost,
            "link_down_blocks": self.link_down_blocks,
            "node_stall_blocks": self.node_stall_blocks,
            "max_retries_seen": self.max_retries_seen,
        }


class TransmitOutcome:
    """What one link traversal cost under the active fault plan.

    ``hold_ns`` replaces the fault-free channel occupancy (it includes
    every failed attempt plus the final serialization); ``extra_ns`` is
    added to the hop's downstream head latency; ``retry_ns`` is the
    part of both attributable to retransmission (tiled as the RETRY
    component by the critical-path analyzer); ``lost`` marks a packet
    dropped by the ``on_exhaust="drop"`` escalation policy.
    """

    __slots__ = ("hold_ns", "extra_ns", "retry_ns", "retries", "lost")

    def __init__(self, hold_ns: float, extra_ns: float, retry_ns: float,
                 retries: int, lost: bool) -> None:
        self.hold_ns = hold_ns
        self.extra_ns = extra_ns
        self.retry_ns = retry_ns
        self.retries = retries
        self.lost = lost


class FaultSession:
    """Runtime state for one fault plan over one simulated run.

    Parameters
    ----------
    plan:
        The declarative fault schedule.
    registry:
        Metrics registry for the ``faults.*`` series; defaults to the
        ambient registry (``None`` disables metrics, stats stay on).
    """

    def __init__(self, plan: FaultPlan,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.plan = plan
        #: Hot-path guard: the transport only consults an enabled
        #: session, so an empty plan is indistinguishable from no plan.
        self.enabled = plan.enabled
        self.stats = FaultStats()
        self.registry = (registry if registry is not None
                         else instruments.current().registry)
        self._rngs: dict[tuple, random.Random] = {}
        self._bit_errors = plan.bit_errors
        self._degradations = plan.degradations
        self._link_downs = plan.link_downs
        self._node_stalls = plan.node_stalls
        m = self.registry
        if m is not None and self.enabled:
            self._c_corrupted = m.counter(
                "faults.corrupted", "transmission attempts that failed CRC")
            self._c_retrans = m.counter(
                "faults.retransmissions", "link-level retries issued")
            self._c_exhausted = m.counter(
                "faults.retry_exhausted", "traversals that hit the retry bound")
            self._c_lost = m.counter(
                "faults.packets_lost", "packets dropped after retry exhaustion")
            self._c_deliv_lost = m.counter(
                "faults.deliveries_lost", "client deliveries lost with dropped packets")
            self._c_down = m.counter(
                "faults.link_down_blocks", "transits that waited out a link-down window")
            self._c_stall = m.counter(
                "faults.node_stall_blocks", "transits delayed by a node stall")
            self._h_retry = m.histogram(
                "faults.retry_delay_ns", "per-traversal retransmission delay")
            self._h_retries = m.histogram(
                "faults.retries_per_traversal",
                "retransmission count per corrupted traversal")
        else:
            self._c_corrupted = self._c_retrans = self._c_exhausted = None
            self._c_lost = self._c_deliv_lost = None
            self._c_down = self._c_stall = None
            self._h_retry = self._h_retries = None

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    def _rng(self, key: tuple) -> random.Random:
        """The per-link random stream (derived seed; see FaultPlan)."""
        rng = self._rngs.get(key)
        if rng is None:
            rng = random.Random(self.plan.derived_seed("link", key))
            self._rngs[key] = rng
        return rng

    # ------------------------------------------------------------------
    # per-hop decisions
    # ------------------------------------------------------------------
    def transmit(self, packet: "Packet", link: "TorusLink", dim: str,
                 sign: int, grant_ns: float) -> TransmitOutcome:
        """Resolve one link traversal: degradation, corruption, retries.

        Called by the transit when the hop arrives at its link, with
        the hop's booked grant time ``grant_ns``: degradation windows
        are read there, and the outcome's hold books the channel in
        place of the bare serialization time.  Arrivals on one link
        come in its FCFS order, so its random stream draws in grant
        order.  Never called when the session is disabled.
        """
        plan = self.plan
        ser = packet.serialization_ns
        hold = ser
        extra = 0.0
        for d in self._degradations:
            if d.active(grant_ns) and selector_matches(d.links, dim, sign):
                hold *= d.bandwidth_factor
                if d.latency_factor > 1.0:
                    extra += LINK_COST_NS[dim] * (d.latency_factor - 1.0)

        forced = 0
        keep = 1.0
        if self._bit_errors:
            bits = packet.wire_bytes * 8
            for b in self._bit_errors:
                if selector_matches(b.links, dim, sign):
                    if b.ber > 0.0:
                        keep *= (1.0 - b.ber) ** bits
                    if b.corrupt_attempts > forced:
                        forced = b.corrupt_attempts
        p_corrupt = 1.0 - keep

        retries = 0
        retry_ns = 0.0
        if forced or p_corrupt > 0.0:
            lid = link.link_id
            rng = self._rng((lid.node, lid.dim, lid.sign)) \
                if p_corrupt > 0.0 else None
            cap = plan.backoff_max_ns
            while retries < forced or \
                    (p_corrupt > 0.0 and rng.random() < p_corrupt):
                # Attempt `retries` failed: its serialization, the CRC
                # detection at the far adapter, the NAK crossing back,
                # and the (optionally capped) exponential backoff
                # before the next attempt.
                backoff = plan.backoff_base_ns * (2.0 ** retries)
                if cap is not None and backoff > cap:
                    backoff = cap
                retry_ns += hold + plan.detect_ns + plan.nak_ns + backoff
                retries += 1
                if retries > plan.max_retries:
                    return self._exhausted(packet, link, retries, retry_ns)
            self._account_retries(link, retries, retry_ns)

        return TransmitOutcome(hold + retry_ns, extra + retry_ns,
                               retry_ns, retries, False)

    def _account_retries(self, link: "TorusLink", retries: int,
                         retry_ns: float) -> None:
        if retries == 0:
            return
        st = self.stats
        st.corrupted += retries
        st.retransmissions += retries
        if retries > st.max_retries_seen:
            st.max_retries_seen = retries
        link.retransmissions += retries
        if self._c_retrans is not None:
            self._c_corrupted.inc(retries)
            self._c_retrans.inc(retries)
            self._h_retry.observe(retry_ns)
            self._h_retries.observe(retries)

    def _exhausted(self, packet: "Packet", link: "TorusLink", retries: int,
                   retry_ns: float) -> TransmitOutcome:
        # The final attempt is not retransmitted; account what happened.
        self._account_retries(link, retries, retry_ns)
        self.stats.retry_exhausted += 1
        if self._c_exhausted is not None:
            self._c_exhausted.inc()
        if self.plan.on_exhaust == "error":
            raise RetryExhausted(
                f"packet {packet.packet_id} exceeded "
                f"{self.plan.max_retries} retransmissions on "
                f"{link.link_id!r} (escalation policy: error)"
            )
        # "drop": the channel was held for every failed attempt; the
        # packet itself goes nowhere.  The caller accounts the loss.
        return TransmitOutcome(retry_ns, 0.0, retry_ns, retries, True)

    def record_lost(self, packet: "Packet", deliveries: int) -> None:
        """Account a dropped packet (called by the transit's loss path,
        alongside the network's own counters — loss is never silent)."""
        st = self.stats
        st.packets_lost += 1
        st.deliveries_lost += deliveries
        if self._c_lost is not None:
            self._c_lost.inc()
            self._c_deliv_lost.inc(deliveries)

    # ------------------------------------------------------------------
    # availability windows
    # ------------------------------------------------------------------
    def stall_until(self, node: Tuple[int, ...], now: float) -> float:
        """End of a stall window covering ``node`` at ``now`` (0 if none)."""
        until = 0.0
        for s in self._node_stalls:
            if s.node == node and s.active(now) and s.end_ns > until:
                until = s.end_ns
        if until > now:
            self.stats.node_stall_blocks += 1
            if self._c_stall is not None:
                self._c_stall.inc()
        return until

    def down_until(self, dim: str, sign: int, now: float) -> float:
        """End of a link-down window covering (dim, sign) at ``now``."""
        until = 0.0
        for d in self._link_downs:
            if d.active(now) and selector_matches(d.links, dim, sign) \
                    and d.end_ns > until:
                until = d.end_ns
        if until > now:
            self.stats.link_down_blocks += 1
            if self._c_down is not None:
                self._c_down.inc()
        return until

    def transit_blocked_until(self, node: Tuple[int, ...], dim: str,
                              sign: int, now: float) -> float:
        """Earliest time a transit at ``node`` may use link (dim, sign);
        0 when nothing blocks it right now."""
        if not (self._node_stalls or self._link_downs):
            return 0.0
        return max(self.stall_until(node, now),
                   self.down_until(dim, sign, now))


# ---------------------------------------------------------------------------
# Ambient session
# ---------------------------------------------------------------------------


def use_faults(session: FaultSession) -> ContextManager[FaultSession]:
    """Install ``session`` in the ``faults`` slot of
    :mod:`repro.instruments` for the block: every Network constructed
    inside it consults the session on every hop."""
    return instruments.use(faults=session)


def use_fault_plan(plan: FaultPlan,
                   registry: Optional[MetricsRegistry] = None
                   ) -> ContextManager[FaultSession]:
    """Convenience: build a session from ``plan`` and install it."""
    return use_faults(FaultSession(plan, registry=registry))
