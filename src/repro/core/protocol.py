"""The abstract FBS protocol engine: FBSSend and FBSReceive (Figure 4).

:class:`FBSEndpoint` is deliberately layer-agnostic: it consumes and
produces byte strings ("the datagram body prefixed by the security flow
header") and "assumes only the availability of an underlying (insecure)
datagram transport".  The IP mapping (:mod:`repro.core.ip_mapping`)
splices these bytes between the IP header and the transport payload; the
in-memory transport used by the tests just sends them as-is; an
application-layer mapping could put them inside UDP payloads.

Caching follows Figure 6: the send path consults the TFKC, falling back
to the MKC/MKD (upcall) and deriving K_f once per flow; the receive path
mirrors it with the RFKC.  All caches are soft state: any of them may be
flushed at any moment with no correctness impact (tests assert this).

Each direction is one staged pipeline (``_send`` / ``_receive``) over
a list of datagrams: a stateful phase walks them in order, then each
crypto phase runs one kernel over every surviving datagram -- the numpy
lanes of :mod:`repro.crypto.vector` for two or more datagrams when numpy
is present and the suite is keyed MD5 + DES-CBC, the scalar kernels
otherwise.  ``protect``/``unprotect`` run one datagram: Figure 4 itself.

A note on Figure 4's receive pseudo-code: it computes the MAC check (R7)
*before* decryption (R10), yet the send side MACs the plaintext body
(S6) *before* encrypting (S8).  Taken literally the two sides disagree
whenever ``secret`` is set.  Since the paper describes receive
processing as "the 'inverse' of that on the send side", we implement the
inverse order -- decrypt, then verify the plaintext MAC -- and document
the discrepancy here and in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.caches import FlowKeyCache
from repro.core.config import FBSConfig, MacAlgorithm
from repro.core.errors import (
    FBSError,
    HeaderFormatError,
    MacMismatchError,
    ReceiveError,
    StaleTimestampError,
)
from repro.core.fam import DatagramAttributes, FlowAssociationMechanism
from repro.core.header import FBSHeader, header_length
from repro.core.keying import FlowCryptoState, KeyDerivation, Principal
from repro.core.mkd import MasterKeyDaemon
from repro.core.timestamps import FreshnessWindow, TimestampCodec
from repro.crypto import modes
from repro.crypto import vector as _vector
from repro.crypto.mac import constant_time_equal
from repro.crypto.random import LinearCongruential
from repro.obs.events import (
    REJECTION_REASONS,
    DatagramAccepted,
    DatagramProtected,
    DatagramRejected,
    KeyDerived,
    SoftStateFlushed,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import Sink
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["FBSEndpoint", "FBSError", "ReceiveError", "BatchReceiveResult"]


def _decrypt(mode, cipher, iv: bytes, body: bytes) -> Union[bytes, ValueError]:
    """The scalar decrypt kernel: a bad lane's ``ValueError`` is returned."""
    try:
        return modes.decrypt(mode, cipher, iv, body)
    except ValueError as exc:
        return exc


@dataclass
class BatchReceiveResult:
    """Outcome of :meth:`FBSEndpoint.unprotect_batch`.

    ``bodies[i]`` is the delivered plaintext of datagram ``i``, or
    ``None`` when it was rejected; ``reasons[i]`` is then the rejection
    reason (one of :data:`~repro.obs.events.REJECTION_REASONS`) and
    ``None`` for accepted datagrams -- per-datagram accounting survives
    batching exactly.
    """

    bodies: List[Optional[bytes]] = field(default_factory=list)
    reasons: List[Optional[str]] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        """Datagrams delivered."""
        return sum(1 for body in self.bodies if body is not None)

    @property
    def rejected(self) -> Dict[str, int]:
        """Rejection counts by reason (mutually exclusive)."""
        out: Dict[str, int] = {}
        for reason in self.reasons:
            if reason is not None:
                out[reason] = out.get(reason, 0) + 1
        return out


class FBSEndpoint:
    """One principal's FBS protocol instance (both send and receive).

    Parameters
    ----------
    principal:
        The local principal S (also D for inbound datagrams).
    mkd:
        The principal's master key daemon (keys, PVC, MKC).
    fam:
        The flow association mechanism with its policy plug-ins.
    config:
        Algorithm suite and protocol parameters.
    now:
        Clock function (simulation or wall time).
    charge:
        Optional CPU-cost hook, called with seconds for keying work.
    flow_key_cost:
        CPU seconds per flow-key derivation (charged through ``charge``).
    tracer:
        Event destination: a :class:`~repro.obs.tracer.Tracer`, a bare
        :class:`~repro.obs.sinks.Sink` (wrapped with this endpoint's
        clock), or None for the zero-cost :data:`NULL_TRACER`.
    registry:
        Metrics registry; a private one is created when not given.
        Share a registry only across components whose metric names
        cannot collide -- two endpoints on one registry would fight
        over the cache gauges.
    """

    def __init__(
        self,
        principal: Principal,
        mkd: MasterKeyDaemon,
        fam: FlowAssociationMechanism,
        config: Optional[FBSConfig] = None,
        now: Callable[[], float] = lambda: 0.0,
        confounder_seed: int = 1,
        charge: Optional[Callable[[float], None]] = None,
        flow_key_cost: float = 0.0,
        tracer: Optional[object] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.principal = principal
        self.mkd = mkd
        self.fam = fam
        self.config = config or FBSConfig()
        self.now = now
        if tracer is None:
            self.tracer = NULL_TRACER
        elif isinstance(tracer, Tracer):
            self.tracer = tracer
        elif isinstance(tracer, Sink):
            self.tracer = Tracer(tracer, now=now)
        else:
            raise TypeError(f"tracer must be a Tracer or Sink, got {tracer!r}")
        self.registry = registry or MetricsRegistry()
        self.kdf = KeyDerivation(self.config.suite)
        self.tfkc = FlowKeyCache(
            self.config.tfkc_size,
            name="TFKC",
            ways=self.config.tfkc_ways,
            tracer=self.tracer,
        )
        self.rfkc = FlowKeyCache(
            self.config.rfkc_size,
            name="RFKC",
            ways=self.config.rfkc_ways,
            tracer=self.tracer,
        )
        self.mkd.mkc.set_tracer(self.tracer)
        self.mkd.pvc.set_tracer(self.tracer)
        self.fam.tracer = self.tracer
        self.codec = TimestampCodec()
        self.freshness = FreshnessWindow(
            codec=self.codec, half_window=self.config.freshness_half_window
        )
        self._confounder_rng = LinearCongruential(confounder_seed)
        self._charge = charge or (lambda _cost: None)
        self._flow_key_cost = flow_key_cost
        # Bound instruments: the datapath pays one attribute read plus
        # one integer add per count, never a registry lookup.
        reg = self.registry
        self._c_sent = reg.counter("datagrams_sent")
        self._c_bytes_out = reg.counter("bytes_protected")
        self._c_flows = reg.counter("flows_started")
        self._c_encryptions = reg.counter("encryptions")
        self._c_decryptions = reg.counter("decryptions")
        self._c_builds = reg.counter("crypto_state_builds")
        self._c_kd_send = reg.counter("flow_key_derivations", side="send")
        self._c_kd_recv = reg.counter("flow_key_derivations", side="receive")
        self._c_received = reg.counter("datagrams_received")
        self._c_accepted = reg.counter("datagrams_accepted")
        self._c_bytes_in = reg.counter("bytes_accepted")
        self._c_rejected_by_reason = {
            reason: reg.counter("datagrams_rejected", reason=reason)
            for reason in REJECTION_REASONS
        }
        self._c_flushes = reg.counter("soft_state_flushes")
        reg.register_collector(self._collect_soft_state)
        # Config is frozen, so the header length is a per-endpoint
        # constant: compute it once instead of once per datagram.
        self._header_len = header_length(
            self.config.suite, self.config.carry_algorithm_id
        )
        # The lane kernels apply only to the suite they implement (keyed
        # MD5 + DES-CBC, the paper's IP mapping); anything else takes
        # the scalar kernels, as does a numpy-less interpreter.
        self._vector_ok = (
            _vector.HAVE_NUMPY
            and self.config.suite.mac is MacAlgorithm.KEYED_MD5
            and self.config.suite.cipher_mode is modes.CipherMode.CBC
        )
        if self.config.replay_guard_size > 0:
            from repro.core.replay_guard import ReplayGuard

            self.replay_guard: Optional["ReplayGuard"] = ReplayGuard(
                capacity=self.config.replay_guard_size,
                window=2 * self.config.freshness_half_window + 60.0,
                freshness_half_window=self.config.freshness_half_window,
            )
            self.replay_guard.tracer = self.tracer
        else:
            self.replay_guard = None

    # -- helpers ---------------------------------------------------------------

    def _collect_soft_state(self) -> None:
        """Snapshot-time collector: syncs cache counters and soft-state
        gauges from live structures, so the datapath never maintains
        them (they exist only when somebody snapshots)."""
        reg = self.registry
        for cache in (self.tfkc, self.rfkc, self.mkd.mkc, self.mkd.pvc):
            name = cache.name
            stats = cache.stats
            reg.counter("cache_hits", cache=name).value = stats.hits
            reg.counter(
                "cache_misses", cache=name, kind="cold"
            ).value = stats.cold_misses
            reg.counter(
                "cache_misses", cache=name, kind="capacity"
            ).value = stats.capacity_misses
            reg.counter(
                "cache_misses", cache=name, kind="collision"
            ).value = stats.collision_misses
            reg.counter("cache_evictions", cache=name).value = stats.evictions
            lookups = stats.lookups
            reg.gauge("cache_hit_ratio", cache=name).set(
                stats.hits / lookups if lookups else 0.0
            )
            reg.gauge("cache_occupancy", cache=name).set(float(len(cache)))
        reg.gauge("flow_table_occupancy").set(float(self.fam.fst.occupancy()))
        reg.gauge("active_flows").set(
            float(self.fam.active_flows(self.now(), self.config.threshold))
        )

    def _rejected(
        self, reason: str, error: FBSError, sfl: int = -1
    ) -> Tuple[str, FBSError]:
        """The single bookkeeping point for a dropped datagram.

        Bumps ``datagrams_rejected{reason}`` and emits one
        :class:`DatagramRejected`; every rejection path calls this
        exactly once, which is what makes the reasons mutually
        exclusive (and keeps retried paths from double-counting).
        Returns the lane's ``(reason, error)``.
        """
        self._c_rejected_by_reason[reason].inc()
        tr = self.tracer
        if tr.enabled:
            tr.emit(DatagramRejected(reason=reason, sfl=sfl))
        return reason, error

    @property
    def header_size(self) -> int:
        """Wire bytes the security flow header adds to each datagram."""
        return self._header_len

    def _build_crypto_state(self, flow_key: bytes) -> FlowCryptoState:
        self._c_builds.inc()
        return FlowCryptoState(flow_key, self.config.suite, tracer=self.tracer)

    def _flow_state(
        self, cache: FlowKeyCache, sfl: int, peer: Principal, side: str
    ) -> FlowCryptoState:
        """Figure 6: flow key cache, then MKC/MKD, then derive and install.

        ``side`` is ``"send"`` (``cache`` is the TFKC, ``peer`` the
        destination) or ``"receive"`` (the RFKC, ``peer`` the source).
        A cache hit returns the flow's precomputed
        :class:`FlowCryptoState`: zero key derivations, zero DES key
        schedules, zero hash-prefix absorptions on the fast path.
        """
        if side == "send":
            source, destination = self.principal, peer
        else:
            source, destination = peer, self.principal
        entry = cache.lookup_entry(sfl, destination.wire_id, source.wire_id)
        if entry is not None:
            if entry.crypto is None:
                # Key installed by an out-of-band path (e.g. a test or
                # simulator using FlowKeyCache directly): derive state
                # once and pin it to the entry.
                entry.crypto = self._build_crypto_state(entry.flow_key)
            return entry.crypto
        master = self.mkd.upcall_master_key(peer)
        self._charge(self._flow_key_cost)
        (self._c_kd_send if side == "send" else self._c_kd_recv).inc()
        tr = self.tracer
        if tr.enabled:
            tr.emit(KeyDerived(side=side, sfl=sfl))
        flow_key = self.kdf.flow_key(sfl, master, source, destination)
        state = self._build_crypto_state(flow_key)
        cache.install(
            sfl,
            destination.wire_id,
            source.wire_id,
            flow_key,
            now=self.now(),
            crypto=state,
        )
        return state

    # -- FBSSend (Figure 4, left) ------------------------------------------------

    def _send(
        self,
        bodies: Sequence[bytes],
        destination: Principal,
        attributes: Optional[Sequence[DatagramAttributes]],
        secret: bool,
        stamps: Optional[Sequence[float]],
    ) -> List[bytes]:
        """The staged FBSSend pipeline; lane ``i`` is ``bodies[i]``.

        Classify and key (S1-5) walk shared soft state, so they run
        scalar and in datagram order; MAC, cipher and emit each run one
        kernel over every lane: the numpy lanes when there are two or
        more and :attr:`_vector_ok` holds, the scalar kernels otherwise.
        """
        n = len(bodies)
        suite = self.config.suite
        carry = self.config.carry_algorithm_id
        headers: List[FBSHeader] = []
        states: List[FlowCryptoState] = []
        for i, body in enumerate(bodies):
            now = self.now() if stamps is None else stamps[i]
            if attributes is None:
                attrs = DatagramAttributes(
                    destination_id=destination.wire_id, size=len(body)
                )
            else:
                attrs = attributes[i]
            # (S1) classify into a flow (the FAM emits FlowStarted).
            entry = self.fam.classify(attrs, now)
            if entry.datagrams == 1:
                self._c_flows.inc()
            # (S2-3) flow crypto state (logically the flow key; physically
            # the TFKC entry carrying the precomputed per-key state).
            states.append(
                self._flow_state(self.tfkc, entry.sfl, destination, "send")
            )
            # (S4-5) confounder and timestamp; the MAC phase fills ``mac``.
            headers.append(
                FBSHeader(
                    sfl=entry.sfl,
                    confounder=self._confounder_rng.next_u32(),
                    mac=b"",
                    timestamp=self.codec.encode(now),
                )
            )
        vector = n >= 2 and self._vector_ok
        # (S6) MAC over confounder | timestamp | plaintext body.
        if vector:
            mac_inputs = [h.mac_input(body) for h, body in zip(headers, bodies)]
            macs = _vector.keyed_md5_many([s.mac_key for s in states], mac_inputs)
        else:
            macs = [s.mac(h.mac_input(b)) for s, h, b in zip(states, headers, bodies)]
        for header, mac in zip(headers, macs):
            header.mac = mac[: suite.mac_bytes]
        # (S8-9) optional encryption with the confounder-derived IV; the
        # cipher (key schedule included) is cached on the flow state.
        if not secret:
            out = bodies
        elif vector:
            out = _vector.cbc_encrypt_many(
                [s.cipher for s in states], [h.iv() for h in headers], bodies
            )
        else:
            out = [
                modes.encrypt(suite.cipher_mode, s.cipher, h.iv(), body)
                for s, h, body in zip(states, headers, bodies)
            ]
        # (S7, S10) emit header + body; the event carries the wire size.
        if vector:
            heads = _vector.encode_headers_many(
                [h.sfl for h in headers],
                [h.confounder for h in headers],
                [h.mac for h in headers],
                [h.timestamp for h in headers],
                suite.mac_bytes,
                suite_id=suite.suite_id if carry else None,
            )
        else:
            heads = [h.encode(suite, carry) for h in headers]
        self._c_sent.inc(n)
        self._c_bytes_out.inc(sum(map(len, out)))
        if secret:
            self._c_encryptions.inc(n)
        if self.tracer.enabled:
            for header, body in zip(headers, out):
                event = DatagramProtected(sfl=header.sfl, size=len(body), secret=secret)
                self.tracer.emit(event)
        return [head + body for head, body in zip(heads, out)]

    def protect(
        self,
        body: bytes,
        destination: Principal,
        attributes: Optional[DatagramAttributes] = None,
        secret: bool = False,
    ) -> bytes:
        """FBSSend: classify, key, MAC, optionally encrypt.

        Returns the security flow header followed by the (possibly
        encrypted) body; the caller splices this into its datagram
        format.
        """
        lane_attributes = None if attributes is None else [attributes]
        return self._send([body], destination, lane_attributes, secret, None)[0]

    def protect_batch(
        self,
        bodies: Sequence[bytes],
        destination: Principal,
        attributes: Optional[Sequence[DatagramAttributes]] = None,
        secret: bool = False,
        stamps: Optional[Sequence[float]] = None,
    ) -> List[bytes]:
        """FBSSend over a vector of datagrams.

        Wire bytes and counters are identical to calling :meth:`protect`
        once per body (tests pin the equivalence).  Events come out in
        phase order: every datagram's classification and keying events,
        then every ``DatagramProtected``.

        ``attributes``, when given, is parallel to ``bodies``.
        ``stamps`` optionally supplies a per-datagram simulation time
        (trace replay drives this); without it every datagram reads the
        endpoint clock exactly as :meth:`protect` does.  Events are
        still stamped by the endpoint clock, so a replaying caller
        should advance its clock to the batch boundary.
        """
        n = len(bodies)
        if attributes is not None and len(attributes) != n:
            raise FBSError("attributes must be parallel to bodies")
        if stamps is not None and len(stamps) != n:
            raise FBSError("stamps must be parallel to bodies")
        return self._send(bodies, destination, attributes, secret, stamps)

    # -- FBSReceive (Figure 4, right) ----------------------------------------------

    def _receive(
        self,
        datagrams: Sequence[bytes],
        source: Principal,
        secret: bool,
        stamps: Optional[Sequence[float]],
    ) -> Tuple[List[Optional[bytes]], List[Optional[Tuple[str, FBSError]]]]:
        """The staged FBSReceive pipeline; lane ``i`` is ``datagrams[i]``.

        Phases and event order as :meth:`unprotect_batch` documents;
        kernel choice as in :meth:`_send`.  Returns ``(bodies, fails)``:
        ``fails[i]`` is ``None`` when lane ``i`` delivered ``bodies[i]``,
        else its rejection's ``(reason, error)``; ``unprotect`` raises ``error``.
        """
        n = len(datagrams)
        suite = self.config.suite
        self._c_received.inc(n)
        bodies: List[Optional[bytes]] = [None] * n
        fails: List[Optional[Tuple[str, FBSError]]] = [None] * n
        headers: List[Optional[FBSHeader]] = [None] * n
        states: List[Optional[FlowCryptoState]] = [None] * n
        nows = [0.0] * n
        alive: List[int] = []
        for i, data in enumerate(datagrams):
            now = nows[i] = self.now() if stamps is None else stamps[i]
            # (R2) parse the security flow header.
            try:
                header = FBSHeader.decode(data, suite, self.config.carry_algorithm_id)
            except HeaderFormatError as exc:
                fails[i] = self._rejected("header", exc)
                continue
            # (R3-4) freshness.
            if not self.freshness.is_fresh(header.timestamp, now):
                stale = StaleTimestampError(
                    f"timestamp {header.timestamp} outside freshness window at {now}"
                )
                fails[i] = self._rejected("stale_timestamp", stale, header.sfl)
                continue
            # (R5-6) recover the flow crypto state (via the RFKC).
            try:
                states[i] = self._flow_state(self.rfkc, header.sfl, source, "receive")
            except FBSError as exc:
                fails[i] = self._rejected("keying", exc, header.sfl)
                continue
            headers[i] = header
            bodies[i] = data[self._header_len :]
            alive.append(i)
        vector = n >= 2 and self._vector_ok
        # (R10-11 before R7-9; see the module docstring on Figure 4's
        # ordering) optional decryption with the flow's cached cipher.
        if secret and alive:
            lanes = (
                [states[i].cipher for i in alive],
                [headers[i].iv() for i in alive],
                [bodies[i] for i in alive],
            )
            if vector:
                # A lane the kernel cannot decrypt comes back as None.
                plains = _vector.cbc_decrypt_many(*lanes)
            else:
                plains = [_decrypt(suite.cipher_mode, *lane) for lane in zip(*lanes)]
            for i, plain in zip(alive, plains):
                if isinstance(plain, bytes):
                    bodies[i] = plain
                    self._c_decryptions.inc()
                    continue
                # Garbled padding or ragged ciphertext: an integrity failure.
                cause = plain or ValueError("corrupt ciphertext or padding")
                error = MacMismatchError(f"decryption failed: {cause}")
                error.__cause__ = cause
                fails[i] = self._rejected("mac", error, headers[i].sfl)
            alive = [i for i in alive if fails[i] is None]
        # (R7-9) MAC verification over the plaintext.
        if alive:
            mac_inputs = [headers[i].mac_input(bodies[i]) for i in alive]
            if vector:
                expected = _vector.keyed_md5_many(
                    [states[i].mac_key for i in alive], mac_inputs
                )
            else:
                expected = [states[i].mac(m) for i, m in zip(alive, mac_inputs)]
            for i, mac in zip(alive, expected):
                sfl = headers[i].sfl
                if not constant_time_equal(mac[: suite.mac_bytes], headers[i].mac):
                    mismatch = MacMismatchError(
                        f"MAC mismatch on datagram in flow {sfl:#x}"
                    )
                    fails[i] = self._rejected("mac", mismatch, sfl)
        for i in alive:
            if fails[i] is not None:
                continue
            header = headers[i]
            # Optional extension: suppress exact duplicates within the
            # freshness window (after MAC verification, so forged
            # headers cannot poison the memory).  Only the guard raises
            # inside the try; catching its ReceiveError here avoids
            # importing the concrete subclass (the guard module is an
            # optional import).
            if self.replay_guard is not None:
                try:
                    self.replay_guard.check_and_remember(header, nows[i])
                except ReceiveError as exc:
                    fails[i] = self._rejected("duplicate", exc, header.sfl)
                    continue
            # (R12) deliver.
            size = len(bodies[i])
            self._c_accepted.inc()
            self._c_bytes_in.inc(size)
            if self.tracer.enabled:
                self.tracer.emit(DatagramAccepted(sfl=header.sfl, size=size))
        return bodies, fails

    def unprotect(self, data: bytes, source: Principal, secret: bool = False) -> bytes:
        """FBSReceive: freshness, keying, decrypt, MAC verify.

        Returns the plaintext body, or raises a :class:`ReceiveError`
        subclass (the pseudo-code's ``return error`` paths) or, when the
        flow key cannot be established, the keying :class:`FBSError`.
        """
        bodies, fails = self._receive([data], source, secret, None)
        if fails[0] is not None:
            raise fails[0][1]
        return bodies[0]

    def unprotect_batch(
        self,
        datagrams: Sequence[bytes],
        source: Principal,
        secret: bool = False,
        stamps: Optional[Sequence[float]] = None,
    ) -> BatchReceiveResult:
        """FBSReceive over a vector of datagrams.

        Unlike :meth:`unprotect`, a bad datagram does not raise: the
        result records ``None`` plus the rejection reason at that
        position.  Bodies, reasons and counters are identical to a loop
        of :meth:`unprotect` calls catching :class:`FBSError` (tests pin
        the equivalence); the reasons stay mutually exclusive.

        Events come out in phase order, the same for every kernel, each
        phase in datagram order: (1) decode, freshness and RFKC keying
        -- cache traffic, ``KeyDerived``, header/stale/keying
        rejections; (2) decrypt rejections; (3) MAC rejections; (4) the
        replay guard's duplicate rejections and ``DatagramAccepted``.

        ``stamps`` optionally supplies per-datagram arrival times (for
        trace replay); without it every datagram reads the endpoint
        clock exactly as :meth:`unprotect` does.
        """
        if stamps is not None and len(stamps) != len(datagrams):
            raise FBSError("stamps must be parallel to datagrams")
        bodies, fails = self._receive(datagrams, source, secret, stamps)
        return BatchReceiveResult(
            bodies=[b if f is None else None for b, f in zip(bodies, fails)],
            reasons=[None if f is None else f[0] for f in fails],
        )

    # -- soft state management -------------------------------------------------------

    def flush_all_caches(self) -> None:
        """Drop every piece of cached state.

        "The contents of the cache represent only soft state" -- after
        this call the endpoint still interoperates perfectly, it just
        re-derives keys (tests exercise flushing between every datagram).
        """
        self.tfkc.flush()
        self.rfkc.flush()
        self.mkd.mkc.flush()
        self.mkd.pvc.flush()
        self.fam.flush()
        if self.replay_guard is not None:
            self.replay_guard.flush()
        self._c_flushes.inc()
        tr = self.tracer
        if tr.enabled:
            tr.emit(SoftStateFlushed(scope="endpoint"))
