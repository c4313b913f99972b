"""``endpoint-single`` and ``endpoint-batch``: one enrolled endpoint pair.

A closed loop in one process.  Each datagram goes through ``protect``
then ``unprotect`` (or a block of them through ``protect_batch`` then
``unprotect_batch``).  Both workloads draw the same seeded sequence:

* body sizes follow the repository's campus-LAN trace model
  (:class:`repro.traces.workloads.CampusLanWorkload`, default
  parameters, model seed :data:`TRACE_SEED`): the pool holds the
  trace's :data:`POOL` evenly spaced record-size quantiles, clamped to
  :data:`MIN_BODY`..:data:`MTU_BODY` (the trace's 8 KB NFS datagrams
  become MTU bodies), dealt so that every block of :data:`BLOCK`
  datagrams takes one size from each of :data:`BLOCK` equal-count
  strata -- every block carries the same size mix;
* blocks are all plain or all ``secret`` (``secret`` is one flag per
  batch call, so a block is the batch), in rounds of :data:`ROUND`
  blocks of which :data:`SECRET_PER_ROUND` are secret -- just under
  half, so that the median batch latency lies inside the plain batches
  instead of on the plain/secret boundary;
* :data:`FLOWS` long-lived 5-tuple flows that stay in the TFKC/RFKC.

The seed decides the order within each stratum and block, the flows and
the filler bytes; the size multiset is the same for every seed.  Bodies
and attributes are built once, before any timed window.  The clock is
virtual and constant, so wire bytes are a pure function of the inputs
and the batch path can be checked byte-for-byte against the
single-datagram path.
"""

from __future__ import annotations

import random
import time
from array import array
from itertools import zip_longest
from typing import List, Tuple

from measure import (
    HostSpeed,
    Result,
    SpanRecorder,
    body_of,
    closed_loop_metrics,
    tail,
    wall_per_datagram,
    windowed_p99,
)

DOMAIN_SEED = 1997
TRACE_SEED = 0
FLOWS = 4
BLOCK = 32
ROUND = 16
SECRET_PER_ROUND = 7
POOL_ROUNDS = 4
POOL = POOL_ROUNDS * ROUND * BLOCK
MIN_BODY = 64
MTU_BODY = 1472  # the UDP payload of a 1500-byte Ethernet MTU
FILLER = 4096
CLOCK = 1_000_000.0
SETUPS = 15
#: Latency limit (seconds) for ``delivered_ratio``.  A batch datagram
#: waits for its whole batch, so the batch limit is the batch's.
LIMITS = {"endpoint-single": 0.05, "endpoint-batch": 0.25}

Block = Tuple[bool, List[bytes], List[int]]  # (secret, bodies, flows)


def campus_sizes(count: int) -> List[int]:
    """``count`` evenly spaced quantiles of the campus-LAN record sizes."""
    from repro.traces.workloads import CampusLanWorkload

    sizes = sorted(record.size for record in CampusLanWorkload(seed=TRACE_SEED).generate())
    n = len(sizes)
    quantiles = (sizes[(2 * i + 1) * n // (2 * count)] for i in range(count))
    return [min(MTU_BODY, max(MIN_BODY, size)) for size in quantiles]


def make_inputs(seed: int) -> List[Block]:
    """The seeded block pool."""
    rng = random.Random(seed)
    filler = rng.randbytes(FILLER)
    sizes = campus_sizes(POOL)
    blocks = POOL // BLOCK
    strata = [sizes[i * blocks : (i + 1) * blocks] for i in range(BLOCK)]
    for stratum in strata:
        rng.shuffle(stratum)
    pool: List[Block] = []
    for index in range(blocks):
        position = index % ROUND
        secret = position % 2 == 1 and position < 2 * SECRET_PER_ROUND
        block_sizes = [stratum[index] for stratum in strata]
        rng.shuffle(block_sizes)
        base = index * BLOCK
        bodies = [
            body_of(base + i, size, rng.randrange(FILLER - size + 1), filler)
            for i, size in enumerate(block_sizes)
        ]
        pool.append((secret, bodies, [rng.randrange(FLOWS) for _ in bodies]))
    return pool


class Pair:
    """A sender/receiver endpoint pair enrolled in one domain."""

    def __init__(self) -> None:
        from repro.core.deploy import FBSDomain
        from repro.core.fam import DatagramAttributes
        from repro.core.keying import Principal
        from repro.core.policy import FiveTuplePolicy
        from repro.netsim.addresses import FiveTuple, IPAddress

        domain = FBSDomain(seed=DOMAIN_SEED)
        self.src = Principal.from_name("sender")
        self.dst = Principal.from_name("receiver")
        now = lambda: CLOCK  # noqa: E731
        self.sender = domain.make_endpoint(
            self.src,
            mapper=FiveTuplePolicy(threshold=domain.config.threshold),
            now=now,
            sfl_seed=11,
        )
        self.receiver = domain.make_endpoint(self.dst, now=now, sfl_seed=12)
        self.attrs = [
            DatagramAttributes(
                destination_id=self.dst.wire_id,
                five_tuple=FiveTuple(
                    proto=17,
                    saddr=IPAddress("10.0.0.1"),
                    sport=7000 + flow,
                    daddr=IPAddress("10.0.0.2"),
                    dport=9000,
                ),
            )
            for flow in range(FLOWS)
        ]

    def snapshot_counters(self) -> dict:
        """Both endpoints' registry counters, summed."""
        total: dict = {}
        for endpoint in (self.sender, self.receiver):
            for key, value in endpoint.registry.snapshot()["counters"].items():
                total[key] = total.get(key, 0) + value
        return {"counters": total}


class Loop:
    """Runs whole blocks of the pool through one path of a pair.

    Only the program's calls sit inside a timed window; the outputs are
    checked against the inputs after each window closes.
    """

    def __init__(self, pair: Pair, batch: bool, pool: List[Block], limit: float) -> None:
        self.pair = pair
        self.batch = batch
        self.limit = limit
        self.blocks = [
            (secret, bodies, [pair.attrs[flow] for flow in flows])
            for secret, bodies, flows in pool
        ]
        self.next = 0
        self.speed = HostSpeed()
        self.reset()

    def reset(self) -> None:
        self.latencies = array("d")
        self.attempted = self.delivered = self.on_time = 0
        self.failures: dict = {}
        self.problems: List[str] = []
        #: Unscaled wall seconds of the timed blocks: the run length and
        #: the traced run's wall.
        self.wall = 0.0
        #: (datagrams delivered, wall s, CPU s) of each timed window,
        #: scaled by the host's speed.
        self.window_stats: List[Tuple[int, float, float]] = []

    def wire(self, count: int) -> List[bytes]:
        """Protect the first ``count`` blocks; return the wire bytes."""
        out: List[bytes] = []
        sender, dst = self.pair.sender, self.pair.dst
        for secret, bodies, attrs in self.blocks[:count]:
            if self.batch:
                out += sender.protect_batch(bodies, dst, attributes=attrs, secret=secret)
            else:
                out += [
                    sender.protect(body, dst, attributes=a, secret=secret)
                    for body, a in zip(bodies, attrs)
                ]
        return out

    def run(self, seconds: float, blocks: int = ROUND) -> None:
        """Groups of ``blocks`` blocks (whole rounds by default) until the
        timed blocks add up to ``seconds`` more.  Each block is a timed
        unit: its times are scaled by the host's speed over it, and its
        outputs are checked after it."""
        target = self.wall + seconds
        time_block, check = self._path()
        speed = self.speed
        while True:
            delivered, wall, cpu = self.delivered, 0.0, 0.0
            speed.begin()
            for i in range(blocks):
                block = self.blocks[(self.next + i) % len(self.blocks)]
                out, elapsed, used = time_block(block)
                scale = speed.factor()
                self.wall += elapsed
                wall += elapsed * scale
                cpu += used * scale
                check(block, out, scale)
            self.next += blocks
            self.window_stats.append((self.delivered - delivered, wall, cpu))
            if self.wall >= target:
                break

    def warm(self, blocks: int) -> None:
        """Run the next ``blocks`` blocks untimed (the set-up's warm-up)."""
        time_block, check = self._path()
        for _ in range(blocks):
            block = self.blocks[self.next % len(self.blocks)]
            self.next += 1
            check(block, time_block(block)[0], 1.0)

    def _path(self):
        if self.batch:
            return self._time_batch, self._check_batch
        return self._time_singles, self._check_singles

    def _time_singles(self, block) -> tuple:
        from repro.core.errors import FBSError

        protect = self.pair.sender.protect
        unprotect = self.pair.receiver.unprotect
        src, dst = self.pair.src, self.pair.dst
        secret, bodies, attrs = block
        clock = time.perf_counter
        out = []
        cpu0 = time.process_time()
        start = clock()
        for body, a in zip(bodies, attrs):
            t0 = clock()
            try:
                got = unprotect(protect(body, dst, attributes=a, secret=secret), src, secret=secret)
            except FBSError as exc:
                got = exc
            out.append((clock() - t0, got))
        return out, clock() - start, time.process_time() - cpu0

    def _time_batch(self, block) -> tuple:
        secret, bodies, attrs = block
        clock = time.perf_counter
        cpu0 = time.process_time()
        start = clock()
        wires = self.pair.sender.protect_batch(bodies, self.pair.dst, attributes=attrs, secret=secret)
        result = self.pair.receiver.unprotect_batch(wires, self.pair.src, secret=secret)
        elapsed = clock() - start
        return (elapsed, result), elapsed, time.process_time() - cpu0

    def _check_singles(self, block, out, scale: float) -> None:
        """One latency sample per datagram."""
        for body, (elapsed, got) in zip(block[1], out):
            self.attempted += 1
            if isinstance(got, Exception):
                self._fail(f"rejected:{type(got).__name__}")
                self.latencies.append(float("inf"))
            elif got != body:
                self._fail("corrupt")
                self.latencies.append(float("inf"))
            else:
                self.delivered += 1
                self.on_time += elapsed <= self.limit
                self.latencies.append(elapsed * scale)

    def _check_batch(self, block, out, scale: float) -> None:
        """One latency sample per batch call: the whole round trip."""
        bodies = block[1]
        elapsed, result = out
        ok = 0
        if len(result.bodies) > len(bodies):
            self.problems.append("unprotect_batch returned more bodies than were sent")
        n = len(bodies)
        for body, got, reason in zip_longest(bodies, result.bodies[:n], result.reasons[:n]):
            self.attempted += 1
            if got == body:
                ok += 1
            else:
                self._fail(reason or ("missing" if got is None else "corrupt"))
        self.delivered += ok
        if elapsed <= self.limit:
            self.on_time += ok
        self.latencies.append(elapsed * scale if ok == n else float("inf"))

    def _fail(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1


def _setup(batch: bool, pool: List[Block], limit: float) -> Tuple[Loop, float]:
    """Domain, enrollment, both endpoints, and warm-up (one plain and
    one secret block)."""
    start = time.perf_counter()
    loop = Loop(Pair(), batch, pool, limit)
    loop.warm(2)
    elapsed = time.perf_counter() - start
    loop.reset()
    return loop, elapsed


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    from layers import Instrumentation, counter_delta, layer_metrics

    batch = workload == "endpoint-batch"
    limit = LIMITS[workload]
    res = Result()
    t0 = time.perf_counter()
    pool = make_inputs(seed)
    res.notes.append(f"input generation: {time.perf_counter() - t0:.4f} s (not in setup_s)")

    # Gate: the batch path's wire bytes equal the single path's.
    single_wire = Loop(Pair(), False, pool, limit).wire(2)
    batch_wire = Loop(Pair(), True, pool, limit).wire(2)
    res.check(single_wire == batch_wire, "endpoint-batch wire bytes differ from endpoint-single")

    setups = []
    speed = HostSpeed()
    for _ in range(SETUPS):
        speed.begin()
        loop, elapsed = _setup(batch, pool, limit)
        setups.append(elapsed * speed.factor())
    if not trace:
        loop.run(seconds)
        res.notes.append(loop.speed.note())
        _ledger(res, loop)
        closed_loop_metrics(
            res,
            loop.latencies,
            loop.window_stats,
            loop.on_time,
            setups,
            tail_of=tail if batch else windowed_p99,
        )
        _check_warm(res, loop.pair)
        return res

    # Traced run: an untraced half, then the same loop traced.
    loop.run(seconds / 2)
    untraced = len(loop.window_stats)
    done, wall0 = loop.attempted, loop.wall
    rec = SpanRecorder()
    inst = Instrumentation(rec)
    before = loop.pair.snapshot_counters()
    inst.install()
    rec.active = True
    try:
        loop.run(seconds / 2)
    finally:
        rec.active = False
        inst.remove()
    counters = counter_delta(before, loop.pair.snapshot_counters())
    _ledger(res, loop)
    wall = loop.wall - wall0
    res.metrics.update(layer_metrics(rec, wall, counters))
    traced = loop.attempted - done
    overhead = wall_per_datagram(loop.window_stats[untraced:]) / wall_per_datagram(
        loop.window_stats[:untraced]
    )
    res.put("trace.overhead_ratio", overhead, "ratio", traced)
    return res


def _ledger(res: Result, loop: Loop) -> None:
    res.attempted = loop.attempted
    res.delivered = loop.delivered
    for reason, n in loop.failures.items():
        res.fail(reason, n)
    res.check_ledger()
    res.problems.extend(sorted(set(loop.problems)))
    res.check(loop.delivered == loop.attempted, f"undelivered datagrams: {loop.failures}")


def _check_warm(res: Result, pair: Pair) -> None:
    """Gate: the flows fit the key caches, so keying does no work."""
    counters = pair.snapshot_counters()["counters"]
    derivations = sum(v for k, v in counters.items() if k.startswith("flow_key_derivations"))
    res.check(
        derivations == 2 * FLOWS,
        f"{derivations} flow-key derivations; {2 * FLOWS} expected (cache collisions?)",
    )
