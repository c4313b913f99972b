"""``gateway-churn``: one gateway, far more tenants than table slots.

A closed loop at saturation.  One :class:`FBSGateway` with the replay
guard on reads pre-protected 64-byte MAC-only datagrams from
:class:`MemoryTransport`, a benchmark-side transport that implements
only ``now`` and ``recv_from_sync``: no sockets, no simulator.

Tenants are the source hosts of the repository's campus-LAN trace model
(:class:`repro.traces.workloads.CampusLanWorkload`, default parameters,
model seed :data:`TRACE_SEED`: 19 hosts), and each datagram's tenant is
drawn with that host's share of the trace's packets -- one file server
sends most of them, a long tail of desktops the rest.  The table holds
:data:`MAX_TENANTS` of them, the slot count of the repository's own
gateway benchmark (12 tenants over 6 slots), so the hot set stays warm
while the tail pays first contact (admission, eviction, certificate
verify + modexp, RFKC derivation).  Each run notes the share of
datagrams that paid it.

Inputs are protected by the tenants' own endpoints during input
generation, in chunks between the measured serving windows, so no
client work is ever inside a window.  The clock is virtual: datagram
``k`` is stamped and served at ``T0 + k * STEP``.
"""

from __future__ import annotations

import asyncio
import bisect
import random
import time
from array import array
from collections import Counter, deque
from typing import Dict, List, Optional, Tuple

from measure import (
    HostSpeed,
    Result,
    SpanRecorder,
    body_of,
    closed_loop_metrics,
    overlaps,
    wall_per_datagram,
)

DOMAIN_SEED = 2024
TRACE_SEED = 0
MAX_TENANTS = 6
FLOWS_PER_TENANT = 2
BODY = 64
REPLAY_GUARD = 4096
WARMUP = 500
CHUNK = 2000
#: ``serve_once`` calls per timed unit (about 40 ms).
UNIT = 250
T0 = 1_000_000.0
STEP = 0.001
SETUPS = 15
LIMIT = 0.02


def _transport_cls():
    from repro.transport.base import Transport

    class MemoryTransport(Transport):
        """An in-memory addressed transport over pre-protected datagrams."""

        name = "memory"

        def __init__(self) -> None:
            super().__init__()
            self.pending: deque = deque()
            self.time = T0

        def now(self) -> float:
            return self.time

        def recv_from_sync(self, timeout=None):
            if not self.pending:
                return None
            self.time, payload, addr = self.pending.popleft()
            self.stats.datagrams_received += 1
            return payload, addr

    return MemoryTransport


def campus_popularity() -> List[int]:
    """Packets per source host of the campus-LAN trace, most first."""
    from repro.traces.workloads import CampusLanWorkload

    trace = CampusLanWorkload(seed=TRACE_SEED).generate()
    return [n for _host, n in Counter(r.five_tuple.saddr for r in trace).most_common()]


class Churn:
    """Domain, tenants, gateway, and the seeded tenant stream."""

    def __init__(self, seed: int, transport_cls, popularity: List[int]) -> None:
        from repro.core.config import FBSConfig
        from repro.core.deploy import FBSDomain
        from repro.core.fam import DatagramAttributes
        from repro.core.keying import Principal
        from repro.core.policy import FiveTuplePolicy
        from repro.gateway.server import FBSGateway
        from repro.gateway.tenants import GatewayConfig
        from repro.netsim.addresses import FiveTuple, IPAddress

        domain = FBSDomain(seed=DOMAIN_SEED, config=FBSConfig(replay_guard_size=REPLAY_GUARD))
        self.gw_principal = Principal.from_name("gateway")
        self.transport = transport_cls()
        gw_endpoint = domain.make_endpoint(self.gw_principal, now=self.transport.now, sfl_seed=1)
        self.clock = [T0]
        now = lambda: self.clock[0]  # noqa: E731
        tenants = len(popularity)
        principals = [Principal.from_name(f"tenant-{i:03d}") for i in range(tenants)]
        self.clients = [
            domain.make_endpoint(
                p,
                mapper=FiveTuplePolicy(threshold=domain.config.threshold),
                now=now,
                sfl_seed=1000 + i,
            )
            for i, p in enumerate(principals)
        ]
        self.addrs = [(f"10.1.{i // 200}.{i % 200 + 1}", 5000) for i in range(tenants)]
        directory = dict(zip(self.addrs, principals))
        self.gateway = FBSGateway(
            gw_endpoint,
            self.transport,
            config=GatewayConfig(max_tenants=MAX_TENANTS),
            resolver=lambda addr: directory[tuple(addr)],
        )
        self.attrs = [
            [
                DatagramAttributes(
                    destination_id=self.gw_principal.wire_id,
                    five_tuple=FiveTuple(
                        proto=17,
                        saddr=IPAddress(self.addrs[i][0]),
                        sport=6000 + flow,
                        daddr=IPAddress("10.2.0.1"),
                        dport=9000,
                    ),
                )
                for flow in range(FLOWS_PER_TENANT)
            ]
            for i in range(tenants)
        ]
        rng = random.Random(seed)
        self.rng = rng
        self.filler = rng.randbytes(4096)
        ranked = list(range(tenants))
        rng.shuffle(ranked)
        self.ranked = ranked
        self.cumulative = []
        total = 0
        for packets in popularity:
            total += packets
            self.cumulative.append(total)
        self.seq = 0
        self.expected: Dict[int, bytes] = {}

    def generate(self, n: int) -> None:
        """Protect the next ``n`` datagrams of the stream (input generation)."""
        rng, cumulative, total = self.rng, self.cumulative, self.cumulative[-1]
        pending = self.transport.pending
        gw = self.gw_principal
        for _ in range(n):
            tenant = self.ranked[bisect.bisect(cumulative, rng.random() * total)]
            flow = rng.randrange(FLOWS_PER_TENANT)
            seq = self.seq
            self.seq += 1
            offset = (seq * 61) % (len(self.filler) - BODY)
            body = body_of(seq, BODY, offset, self.filler)
            stamp = T0 + seq * STEP
            self.clock[0] = stamp
            payload = self.clients[tenant].protect(body, gw, attributes=self.attrs[tenant][flow])
            pending.append((stamp, payload, self.addrs[tenant]))
            self.expected[seq] = body


class Meter:
    """Serves chunks, timing each ``serve_once``; checks the deliveries
    after each timed window closes."""

    def __init__(self, churn: Churn) -> None:
        self.churn = churn
        self.latencies = array("d")
        self.outcomes: Dict[str, int] = {}
        self.delivered = 0
        self.problems: List[str] = []
        self.windows: List[Tuple[float, float]] = []
        self.speed = HostSpeed()
        #: Unscaled wall seconds of the timed units: the run length and
        #: the traced run's wall.
        self.wall = 0.0
        #: (datagrams delivered, wall s, CPU s) of each timed window,
        #: scaled by the host's speed.
        self.window_stats: List[Tuple[int, float, float]] = []

    async def serve(self, n: int) -> None:
        """Serve ``n`` datagrams as timed units of :data:`UNIT` calls,
        each scaled by the host's speed over it."""
        gateway = self.churn.gateway
        serve_once, drain = gateway.serve_once, gateway.drain
        speed = self.speed
        clock = time.perf_counter
        served: List[Tuple[str, float]] = []
        drained = []
        wall = cpu = raw = 0.0
        start = clock()
        speed.begin()
        for first in range(0, n, UNIT):
            unit = []
            cpu0 = time.process_time()
            unit_start = clock()
            for _ in range(min(UNIT, n - first)):
                t0 = clock()
                outcome = await serve_once(0.0)
                elapsed = clock() - t0
                if outcome is None:
                    break
                unit.append((outcome, elapsed))
                drained.append(drain())
            elapsed = clock() - unit_start
            used = time.process_time() - cpu0
            scale = speed.factor()
            raw += elapsed
            wall += elapsed * scale
            cpu += used * scale
            served += [(outcome, t * scale) for outcome, t in unit]
        end = clock()
        delivered = self.delivered
        self._check(drained)
        self.windows.append((start, end))
        self.window_stats.append((self.delivered - delivered, wall, cpu))
        self.wall += raw
        inf = float("inf")
        for outcome, elapsed in served:
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            self.latencies.append(elapsed if outcome == "enqueued" else inf)

    async def warm(self, n: int) -> None:
        """Serve ``n`` datagrams untimed (the set-up's warm-up)."""
        gateway = self.churn.gateway
        drained = []
        for _ in range(n):
            await gateway.serve_once(0.0)
            drained.append(gateway.drain())
        self._check(drained)

    def _check(self, drained) -> None:
        """Every delivered body was sent, and is delivered only once."""
        expected = self.churn.expected
        for delivery in drained:
            for bodies in delivery.values():
                for body in bodies:
                    sent = expected.pop(int.from_bytes(body[:8], "big"), None)
                    if sent != body:
                        self.problems.append("a delivered body was never sent, or delivered twice")
                    self.delivered += 1

    async def run(self, seconds: float, rec: Optional[SpanRecorder] = None) -> None:
        """Alternate input generation and measured serving for ``seconds``;
        ``rec`` records spans in the serving windows only."""
        target = self.wall + seconds
        while self.wall < target:
            self.churn.generate(CHUNK)
            if rec is not None:
                rec.active = True
            await self.serve(CHUNK)
            if rec is not None:
                rec.active = False


def _setup(seed: int, transport_cls, popularity: List[int]) -> Tuple[Churn, Meter, float]:
    """Build everything and serve the warm-up stream; time all but the
    warm-up's input generation."""
    start = time.perf_counter()
    churn = Churn(seed, transport_cls, popularity)
    built = time.perf_counter() - start
    churn.generate(WARMUP)
    meter = Meter(churn)
    start = time.perf_counter()
    asyncio.run(meter.warm(WARMUP))
    meter.delivered = 0
    return churn, meter, built + time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    from layers import Instrumentation, counter_delta, layer_metrics

    transport_cls = _transport_cls()
    res = Result()
    t0 = time.perf_counter()
    popularity = campus_popularity()
    res.notes.append(f"tenant popularity from the trace model: {time.perf_counter() - t0:.3f} s")
    setups = []
    speed = HostSpeed()
    for _ in range(SETUPS):
        speed.begin()
        churn, meter, elapsed = _setup(seed, transport_cls, popularity)
        setups.append(elapsed * speed.factor())
    registry = churn.gateway.endpoint.registry
    gen0 = time.perf_counter()
    if not trace:
        before = registry.snapshot()
        asyncio.run(meter.run(seconds))
        counters = counter_delta(before, registry.snapshot())
        res.notes.append(meter.speed.note())
        _ledger(res, churn, meter)
        on_time = sum(1 for x in meter.latencies if x <= LIMIT)
        closed_loop_metrics(res, meter.latencies, meter.window_stats, on_time, setups)
        gen = time.perf_counter() - gen0 - meter.wall
        res.notes.append(f"input generation: {gen:.3f} s between windows (not in setup_s)")
        admissions = counters.get("gateway_tenants_admitted", 0)
        res.notes.append(
            f"first contact: {admissions} admissions over {res.attempted} datagrams"
            f" ({admissions / res.attempted:.1%}), {len(popularity)} tenants over {MAX_TENANTS} slots"
        )
        return res

    asyncio.run(meter.run(seconds / 2))
    untraced = len(meter.window_stats)
    done, wall0 = len(meter.latencies), meter.wall
    outcomes0 = dict(meter.outcomes)
    meter.windows.clear()
    rec = SpanRecorder(watch=("protocol.protect",))
    inst = Instrumentation(rec)
    before = registry.snapshot()
    inst.install()
    try:
        asyncio.run(meter.run(seconds / 2, rec))
    finally:
        rec.active = False
        inst.remove()
    counters = counter_delta(before, registry.snapshot())
    _ledger(res, churn, meter)
    wall = meter.wall - wall0
    outcomes = {k: v - outcomes0.get(k, 0) for k, v in meter.outcomes.items()}
    res.metrics.update(layer_metrics(rec, wall, counters, outcomes=outcomes))
    traced_n = len(meter.latencies) - done
    overhead = wall_per_datagram(meter.window_stats[untraced:]) / wall_per_datagram(
        meter.window_stats[:untraced]
    )
    res.put("trace.overhead_ratio", overhead, "ratio", traced_n)
    protects = rec.intervals.get("protocol.protect", [])
    res.check(rec.calls("protocol.protect") == 0 and bool(protects), "no protect spans traced")
    res.check(
        overlaps(protects, meter.windows) == 0,
        "client protect ran inside a measured gateway window",
    )
    return res


def _ledger(res: Result, churn: Churn, meter: Meter) -> None:
    res.attempted = len(meter.latencies)
    res.delivered = meter.delivered
    for outcome, n in meter.outcomes.items():
        if outcome != "enqueued":
            res.fail(outcome, n)
    res.check_ledger()
    res.problems.extend(sorted(set(meter.problems)))
    res.check(not churn.expected, f"{len(churn.expected)} sent datagrams never delivered")
    res.check(res.failed == 0, f"failed datagrams: {res.failures}")
    for problem in churn.gateway.admission.check_registry():
        res.problems.append(f"admission ledger: {problem}")
