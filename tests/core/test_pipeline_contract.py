"""The staged send/receive pipelines: contracts the kernel choice must keep.

* **Single datagram** -- ``unprotect`` raises one exception class and
  message per rejection reason (``__cause__`` included), and a
  first-contact ``protect`` -> ``unprotect`` round trip emits one exact
  event sequence in Figure 4 order.
* **Batch event order** -- ``protect_batch``/``unprotect_batch`` emit
  events phase by phase, and the sequence does not depend on which
  kernels (numpy lanes or scalar) ran the crypto phases.
"""

import pytest

import repro.crypto.vector as vector
from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.errors import (
    HeaderFormatError,
    MacMismatchError,
    StaleTimestampError,
    UnknownPrincipalError,
)
from repro.core.header import FBSHeader
from repro.core.keying import Principal
from repro.core.replay_guard import DuplicateDatagramError
from repro.obs import (
    CacheMiss,
    CryptoStateBuilt,
    DatagramAccepted,
    DatagramProtected,
    FlowStarted,
    KeyDerived,
    RingBufferSink,
    Tracer,
)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_world(config, seed=5, sender_ring=None, receiver_ring=None):
    clock = Clock()
    domain = FBSDomain(seed=seed, config=config)

    def tracer(ring):
        return None if ring is None else Tracer(ring, now=clock)

    alice = domain.make_endpoint(
        Principal.from_name("alice"), now=clock, tracer=tracer(sender_ring)
    )
    bob = domain.make_endpoint(
        Principal.from_name("bob"), now=clock, tracer=tracer(receiver_ring)
    )
    return alice, bob, clock


def flip_last_byte(wire, mask):
    return wire[:-1] + bytes([wire[-1] ^ mask])


def header_case(alice, bob, clock):
    return b"\x00\x01", alice.principal, False


def stale_case(alice, bob, clock):
    wire = alice.protect(b"late", bob.principal)
    clock.now = 10_000.0
    return wire, alice.principal, False


def keying_case(alice, bob, clock):
    wire = alice.protect(b"who", bob.principal)
    return wire, Principal.from_name("mallory"), False


def padding_case(alice, bob, clock):
    wire = alice.protect(b"x" * 20, bob.principal, secret=True)
    return flip_last_byte(wire, 0x55), alice.principal, True


def mac_case(alice, bob, clock):
    wire = alice.protect(b"payload", bob.principal)
    return flip_last_byte(wire, 0x01), alice.principal, False


def duplicate_case(alice, bob, clock):
    wire = alice.protect(b"twice", bob.principal)
    bob.unprotect(wire, alice.principal)
    return wire, alice.principal, False


class TestSingleDatagramContract:
    @pytest.mark.parametrize(
        "build, reason, error, message, cause",
        [
            (
                header_case,
                "header",
                HeaderFormatError,
                "datagram too short for FBS header: 2 < 32",
                None,
            ),
            (
                stale_case,
                "stale_timestamp",
                StaleTimestampError,
                "timestamp 895680 outside freshness window at 10000.0",
                None,
            ),
            (
                keying_case,
                "keying",
                UnknownPrincipalError,
                "no certificate for principal id 00076d616c6c6f7279",
                None,
            ),
            (
                padding_case,
                "mac",
                MacMismatchError,
                "decryption failed: corrupt padding length",
                ValueError,
            ),
            (
                mac_case,
                "mac",
                MacMismatchError,
                "MAC mismatch on datagram in flow 0x91b7584a2265b1f5",
                None,
            ),
            (
                duplicate_case,
                "duplicate",
                DuplicateDatagramError,
                "duplicate datagram in flow 0x91b7584a2265b1f5 "
                "(confounder 0x2325c0c2)",
                None,
            ),
        ],
        ids=["header", "stale", "keying", "padding", "mac", "duplicate"],
    )
    def test_unprotect_raises_one_exact_error_per_reason(
        self, build, reason, error, message, cause
    ):
        alice, bob, clock = make_world(FBSConfig(replay_guard_size=64))
        wire, source, secret = build(alice, bob, clock)
        with pytest.raises(error) as info:
            bob.unprotect(wire, source, secret=secret)
        assert type(info.value) is error
        assert str(info.value) == message
        if cause is None:
            assert info.value.__cause__ is None
        else:
            assert type(info.value.__cause__) is cause
        rejected = bob.registry.counter("datagrams_rejected", reason=reason)
        assert rejected.value == 1

    def test_first_contact_round_trip_event_sequence(self):
        ring = RingBufferSink()
        alice, bob, _ = make_world(
            FBSConfig(), sender_ring=ring, receiver_ring=ring
        )
        wire = alice.protect(b"first contact", bob.principal, secret=True)
        assert bob.unprotect(wire, alice.principal, secret=True) == b"first contact"
        sfl = FBSHeader.decode(wire, alice.config.suite).sfl
        assert ring.events == [
            FlowStarted(sfl=sfl),
            CacheMiss(cache="TFKC", kind="cold"),
            CacheMiss(cache="MKC", kind="cold"),
            CacheMiss(cache="PVC", kind="cold"),
            KeyDerived(side="send", sfl=sfl),
            CryptoStateBuilt(),
            DatagramProtected(sfl=sfl, size=16, secret=True),
            CacheMiss(cache="RFKC", kind="cold"),
            CacheMiss(cache="MKC", kind="cold"),
            CacheMiss(cache="PVC", kind="cold"),
            KeyDerived(side="receive", sfl=sfl),
            CryptoStateBuilt(),
            DatagramAccepted(sfl=sfl, size=13),
        ]


def traced_batches(secret, scalar_kernels):
    """Sender and receiver event sequences for the mixed batch
    ``[ok, bad-MAC, new-flow, new-flow]``; ``scalar_kernels`` hides
    numpy from the endpoints while they are built."""
    sent, received = RingBufferSink(), RingBufferSink()
    with pytest.MonkeyPatch.context() as mp:
        if scalar_kernels:
            mp.setattr(vector, "HAVE_NUMPY", False)
        alice, bob, _ = make_world(
            FBSConfig(replay_guard_size=64),
            sender_ring=sent,
            receiver_ring=received,
        )
    assert alice._vector_ok is not scalar_kernels
    warm = alice.protect_batch([b"warm", b"up"], bob.principal, secret=secret)
    assert bob.unprotect_batch(warm, alice.principal, secret=secret).accepted == 2
    known = alice.protect_batch(
        [b"ok", b"bad mac"], bob.principal, secret=secret
    )
    alice.flush_all_caches()
    fresh = alice.protect_batch(
        [b"new flow", b"x" * 40], bob.principal, secret=secret
    )
    stream = [known[0], flip_last_byte(known[1], 0x01), fresh[0], fresh[1]]
    result = bob.unprotect_batch(stream, alice.principal, secret=secret)
    assert result.reasons == [None, "mac", None, None]
    return sent.events, received.events


@pytest.mark.skipif(not vector.HAVE_NUMPY, reason="the vector kernels need numpy")
class TestBatchEventOrder:
    @pytest.mark.parametrize("secret", [False, True])
    def test_kernel_choice_does_not_change_event_order(self, secret):
        sent_v, received_v = traced_batches(secret, scalar_kernels=False)
        sent_s, received_s = traced_batches(secret, scalar_kernels=True)
        assert sent_v == sent_s
        assert received_v == received_s
