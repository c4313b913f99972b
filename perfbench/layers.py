"""Per-layer tracing from outside the program, and the per-layer metrics.

The traced run wraps each layer's public entry points (module
functions and class methods of ``repro``) with spans recorded by a
:class:`~measure.SpanRecorder`; nothing inside ``src/repro`` changes.
Every wrapped function belongs to exactly one *group*, every group has
a ``<group>.share`` metric, and the recorder's untraced remainder is
``trace.untraced_share`` -- so the shares of one traced window add up
to 1 by construction.

:data:`CATALOG` lists every per-layer metric with its unit, the
direction that is better, the end-to-end metric and workload it should
move, and the workloads whose traced run measures it -- the set that
run's gate checks.  ``BENCHMARK.json`` carries the same names (a unit
test keeps the two in step).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from typing import Callable, Dict, List, Optional, Tuple

from measure import SpanRecorder

ES, EB, GC = "endpoint-single", "endpoint-batch", "gateway-churn"
EP = (ES, EB)
ALL = (ES, EB, GC)

# (metric, unit, better, the end-to-end metric -> workloads it should move,
#  the workloads whose traced run measures it)
CATALOG: Tuple[Tuple[str, str, str, str, Tuple[str, ...]], ...] = (
    ("protocol.protect.self_us", "us", "lower", "goodput_dps -> endpoint-single", (ES,)),
    ("protocol.protect.share", "ratio", "lower", "goodput_dps -> endpoint-single", (ES,)),
    ("protocol.unprotect.self_us", "us", "lower", "goodput_dps -> endpoint-single", (ES, GC)),
    ("protocol.unprotect.share", "ratio", "lower", "goodput_dps -> endpoint-single", (ES, GC)),
    ("protocol.protect_batch.self_us_per_datagram", "us", "lower", "goodput_dps -> endpoint-batch", (EB,)),
    ("protocol.protect_batch.share", "ratio", "lower", "goodput_dps -> endpoint-batch", (EB,)),
    ("protocol.unprotect_batch.self_us_per_datagram", "us", "lower", "goodput_dps -> endpoint-batch", (EB,)),
    ("protocol.unprotect_batch.share", "ratio", "lower", "goodput_dps -> endpoint-batch", (EB,)),
    ("protocol.rejected.header", "count", "lower", "delivered_ratio -> all", ALL),
    ("protocol.rejected.stale_timestamp", "count", "lower", "delivered_ratio -> all", ALL),
    ("protocol.rejected.keying", "count", "lower", "delivered_ratio -> all", ALL),
    ("protocol.rejected.mac", "count", "lower", "delivered_ratio -> all", ALL),
    ("protocol.rejected.duplicate", "count", "lower", "delivered_ratio -> all", ALL),
    ("fam.classify.us", "us", "lower", "goodput_dps -> endpoint-single (small bodies)", EP),
    ("fam.classify.share", "ratio", "lower", "goodput_dps -> endpoint-single (small bodies)", EP),
    ("fam.flows_started", "count", "lower", "goodput_dps -> endpoint-single", EP),
    ("caches.tfkc.hit_ratio", "ratio", "higher", "none on endpoint-* (warm)", EP),
    ("caches.rfkc.hit_ratio", "ratio", "higher", "latency_p99_ms -> gateway-churn; none on endpoint-*", ALL),
    ("caches.rfkc.collision_misses", "count", "lower", "latency_p99_ms -> gateway-churn; none on endpoint-*", ALL),
    ("caches.mkc.hit_ratio", "ratio", "higher", "latency_p99_ms -> gateway-churn", (GC,)),
    ("caches.pvc.hit_ratio", "ratio", "higher", "latency_p99_ms -> gateway-churn", (GC,)),
    ("caches.lookup.us", "us", "lower", "latency_p99_ms -> gateway-churn; none on endpoint-*", ALL),
    ("caches.lookup.share", "ratio", "lower", "latency_p99_ms -> gateway-churn; none on endpoint-*", ALL),
    ("keying.flow_key_derivations", "count", "lower", "goodput_dps, latency_p99_ms -> gateway-churn", ALL),
    ("keying.flow_key.us", "us", "lower", "goodput_dps, latency_p99_ms -> gateway-churn", (GC,)),
    ("keying.flow_key.share", "ratio", "lower", "goodput_dps, latency_p99_ms -> gateway-churn", (GC,)),
    ("keying.crypto_state_builds", "count", "lower", "goodput_dps, latency_p99_ms -> gateway-churn", ALL),
    ("keying.crypto_state.us", "us", "lower", "goodput_dps, latency_p99_ms -> gateway-churn", (GC,)),
    ("keying.crypto_state.share", "ratio", "lower", "goodput_dps, latency_p99_ms -> gateway-churn", (GC,)),
    ("mkd.master_key.calls", "count", "lower", "latency_p99_ms, goodput_dps -> gateway-churn; none elsewhere", ALL),
    ("mkd.master_key.us", "us", "lower", "latency_p99_ms, goodput_dps -> gateway-churn; none elsewhere", (GC,)),
    ("mkd.master_key.share", "ratio", "lower", "latency_p99_ms, goodput_dps -> gateway-churn; none elsewhere", (GC,)),
    ("mkd.master_key.us_per_computed", "us", "lower", "latency_p99_ms, goodput_dps -> gateway-churn; none elsewhere", (GC,)),
    ("header.encode.us", "us", "lower", "cpu_us_per_datagram -> endpoint-single", (ES,)),
    ("header.encode.share", "ratio", "lower", "cpu_us_per_datagram -> endpoint-single", (ES,)),
    ("header.decode.us", "us", "lower", "cpu_us_per_datagram -> gateway-churn", ALL),
    ("header.decode.share", "ratio", "lower", "cpu_us_per_datagram -> gateway-churn", ALL),
    ("timestamps.freshness.us", "us", "lower", "cpu_us_per_datagram -> gateway-churn", ALL),
    ("timestamps.freshness.share", "ratio", "lower", "cpu_us_per_datagram -> gateway-churn", ALL),
    ("replay_guard.check.us", "us", "lower", "cpu_us_per_datagram -> gateway-churn", (GC,)),
    ("replay_guard.check.share", "ratio", "lower", "cpu_us_per_datagram -> gateway-churn", (GC,)),
    ("replay_guard.duplicates", "count", "lower", "delivered_ratio -> gateway-churn", (GC,)),
    ("crypto.mac.us_per_kb", "us/KB", "lower", "goodput_dps, latency_p50_ms -> endpoint-single; none on endpoint-batch", (ES, GC)),
    ("crypto.mac.share", "ratio", "lower", "goodput_dps, latency_p50_ms -> endpoint-single; none on endpoint-batch", (ES, GC)),
    ("crypto.cipher.us_per_kb", "us/KB", "lower", "goodput_dps, latency_p50_ms -> endpoint-single; none on endpoint-batch", (ES,)),
    ("crypto.cipher.share", "ratio", "lower", "goodput_dps, latency_p50_ms -> endpoint-single; none on endpoint-batch", (ES,)),
    ("vector.mac.us_per_lane", "us/lane", "lower", "goodput_dps -> endpoint-batch only", (EB,)),
    ("vector.mac.share", "ratio", "lower", "goodput_dps -> endpoint-batch only", (EB,)),
    ("vector.cbc.us_per_lane", "us/lane", "lower", "goodput_dps -> endpoint-batch only", (EB,)),
    ("vector.cbc.share", "ratio", "lower", "goodput_dps -> endpoint-batch only", (EB,)),
    ("vector.stamp.us_per_lane", "us/lane", "lower", "goodput_dps -> endpoint-batch only", (EB,)),
    ("vector.stamp.share", "ratio", "lower", "goodput_dps -> endpoint-batch only", (EB,)),
    ("vector.lanes_per_call", "lanes", "higher", "goodput_dps -> endpoint-batch only", (EB,)),
    ("gateway.serve_once.self_us", "us", "lower", "goodput_dps, latency_p99_ms -> gateway-churn", (GC,)),
    ("gateway.serve_once.share", "ratio", "lower", "goodput_dps, latency_p99_ms -> gateway-churn", (GC,)),
    ("gateway.admit.us", "us", "lower", "goodput_dps -> gateway-churn", (GC,)),
    ("gateway.admit.share", "ratio", "lower", "goodput_dps -> gateway-churn", (GC,)),
    ("gateway.drain.us", "us", "lower", "goodput_dps -> gateway-churn", (GC,)),
    ("gateway.drain.share", "ratio", "lower", "goodput_dps -> gateway-churn", (GC,)),
    ("gateway.admissions", "count", "lower", "goodput_dps -> gateway-churn", (GC,)),
    ("gateway.evictions", "count", "lower", "goodput_dps -> gateway-churn", (GC,)),
    ("gateway.dropped.admission", "count", "lower", "delivered_ratio -> gateway-churn", (GC,)),
    ("gateway.dropped.backpressure", "count", "lower", "delivered_ratio -> gateway-churn", (GC,)),
    ("gateway.dropped.evicted", "count", "lower", "delivered_ratio -> gateway-churn", (GC,)),
    ("gateway.useful_ratio", "ratio", "higher", "goodput_dps -> gateway-churn", (GC,)),
    ("transport.recv_from.self_us", "us", "lower", "cpu_us_per_datagram -> gateway-churn", (GC,)),
    ("transport.recv_from.share", "ratio", "lower", "cpu_us_per_datagram -> gateway-churn", (GC,)),
    ("trace.untraced_share", "ratio", "lower", "validity, not a target", ALL),
    ("trace.overhead_ratio", "ratio", "lower", "validity, not a target", ALL),
)

UNITS = {name: unit for name, unit, _better, _moves, _on in CATALOG}


def applicable(workload: str) -> List[str]:
    """The per-layer metrics ``workload``'s traced run must measure."""
    return [name for name, _unit, _better, _moves, on in CATALOG if workload in on]


def _args_len(index: int) -> Callable[[tuple], float]:
    return lambda args: float(len(args[index]))


def _bytes_len(index: int) -> Callable[[tuple], float]:
    return lambda args: float(len(args[index])) / 1024.0


# (group, module, class or None for a module function, attribute, units)
# Units: datagrams for the batch calls, KB for the scalar crypto, lanes
# for the vector kernels.
TARGETS = (
    ("protocol.protect", "repro.core.protocol", "FBSEndpoint", "protect", None),
    ("protocol.unprotect", "repro.core.protocol", "FBSEndpoint", "unprotect", None),
    ("protocol.protect_batch", "repro.core.protocol", "FBSEndpoint", "protect_batch", _args_len(1)),
    ("protocol.unprotect_batch", "repro.core.protocol", "FBSEndpoint", "unprotect_batch", _args_len(1)),
    ("fam.classify", "repro.core.fam", "FlowAssociationMechanism", "classify", None),
    ("caches.lookup", "repro.core.caches", "FlowKeyCache", "lookup_entry", None),
    ("caches.lookup", "repro.core.caches", "MasterKeyCache", "lookup", None),
    ("caches.lookup", "repro.core.caches", "PublicValueCache", "lookup", None),
    ("keying.flow_key", "repro.core.keying", "KeyDerivation", "flow_key", None),
    ("keying.crypto_state", "repro.core.keying", "FlowCryptoState", "__init__", None),
    ("mkd.master_key", "repro.core.mkd", "MasterKeyDaemon", "master_key", None),
    ("header.encode", "repro.core.header", "FBSHeader", "encode", None),
    ("header.decode", "repro.core.header", "FBSHeader", "decode", None),
    ("timestamps.freshness", "repro.core.timestamps", "FreshnessWindow", "is_fresh", None),
    ("replay_guard.check", "repro.core.replay_guard", "ReplayGuard", "check_and_remember", None),
    ("crypto.mac", "repro.core.keying", "FlowCryptoState", "mac", _bytes_len(1)),
    ("crypto.cipher", "repro.crypto.modes", None, "encrypt", _bytes_len(3)),
    ("crypto.cipher", "repro.crypto.modes", None, "decrypt", _bytes_len(3)),
    ("vector.mac", "repro.crypto.vector", None, "keyed_md5_many", _args_len(0)),
    ("vector.cbc", "repro.crypto.vector", None, "cbc_encrypt_many", _args_len(2)),
    ("vector.cbc", "repro.crypto.vector", None, "cbc_decrypt_many", _args_len(2)),
    ("vector.stamp", "repro.crypto.vector", None, "encode_headers_many", _args_len(0)),
    ("gateway.serve_once", "repro.gateway.server", "FBSGateway", "serve_once", None),
    # Admission (and the eviction it may force) has no public entry
    # point of its own; ``_admit`` is the one call that does it.
    ("gateway.admit", "repro.gateway.server", "FBSGateway", "_admit", None),
    ("gateway.drain", "repro.gateway.server", "FBSGateway", "drain", None),
    ("transport.recv_from", "repro.transport.base", "Transport", "recv_from", None),
)

#: Span groups whose median per call is reported as ``<group>.us``.
PER_CALL = (
    "fam.classify",
    "caches.lookup",
    "keying.flow_key",
    "keying.crypto_state",
    "mkd.master_key",
    "header.encode",
    "header.decode",
    "timestamps.freshness",
    "replay_guard.check",
    "gateway.admit",
    "gateway.drain",
)


class Instrumentation:
    """Installs and removes the span wrappers around every layer."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, group: str, fn, units):
        rec = self.rec
        enter, leave = rec.enter, rec.exit
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                enter(group)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    leave()

            return traced_async
        if units is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                enter(group)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()

            return traced

        @functools.wraps(fn)
        def traced_units(*args, **kwargs):
            enter(group)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(units(args))

        return traced_units

    def install(self) -> None:
        for group, module_name, cls_name, attr, units in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(group, original.__func__, units))
            else:
                wrapped = self._wrap(group, original, units)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# -- metrics ---------------------------------------------------------------


def counter_delta(before: dict, after: dict) -> Dict[str, float]:
    """Counter increments between two registry snapshots."""
    old = before.get("counters", {})
    return {k: v - old.get(k, 0) for k, v in after.get("counters", {}).items()}


def layer_metrics(
    rec: SpanRecorder,
    wall: float,
    counters: Dict[str, float],
    outcomes: Optional[Dict[str, int]] = None,
) -> Dict[str, Tuple[float, str, int]]:
    """The :data:`CATALOG` metrics this traced window measured, as
    ``name -> (value, unit, samples)``.

    ``wall`` is the traced window's wall time; ``counters`` the registry
    counter increments over that window; ``outcomes`` the gateway
    ``serve_once`` outcomes in the window (gateway workloads only).  A
    time or ratio whose layer was never called in the window is left
    out, so a workload that fails to reach a layer it should reach shows
    up as a missing metric.  ``trace.overhead_ratio`` is the caller's.
    """
    out: Dict[str, Tuple[float, str, int]] = {}

    def put(name: str, value: float, samples: int) -> None:
        out[name] = (float(value), UNITS[name], int(samples))

    for group in rec.self_seconds:
        if f"{group}.share" in UNITS:
            put(f"{group}.share", rec.total(group) / wall, rec.calls(group))
    put("trace.untraced_share", 1.0 - rec.grand_total() / wall, 1)
    for group in PER_CALL:
        if rec.calls(group):
            put(f"{group}.us", rec.median_us(group), rec.calls(group))
    for group in ("protocol.protect", "protocol.unprotect", "gateway.serve_once", "transport.recv_from"):
        if rec.calls(group):
            put(f"{group}.self_us", rec.median_us(group), rec.calls(group))
    for group in ("protocol.protect_batch", "protocol.unprotect_batch"):
        datagrams = rec.units.get(group, 0.0)
        if datagrams:
            put(f"{group}.self_us_per_datagram", rec.total(group) / datagrams * 1e6, int(datagrams))
    for group in ("crypto.mac", "crypto.cipher"):
        kb = rec.units.get(group, 0.0)
        if kb:
            put(f"{group}.us_per_kb", rec.total(group) / kb * 1e6, rec.calls(group))
    for group in ("vector.mac", "vector.cbc", "vector.stamp"):
        lanes = rec.units.get(group, 0.0)
        if lanes:
            put(f"{group}.us_per_lane", rec.total(group) / lanes * 1e6, int(lanes))
    kernel_calls = sum(rec.calls(g) for g in ("vector.mac", "vector.cbc"))
    if kernel_calls:
        kernel_lanes = sum(rec.units.get(g, 0.0) for g in ("vector.mac", "vector.cbc"))
        put("vector.lanes_per_call", kernel_lanes / kernel_calls, kernel_calls)

    # Counts: the registry's own counters, so zero is a measurement.
    put("mkd.master_key.calls", rec.calls("mkd.master_key"), 1)
    for reason in ("header", "stale_timestamp", "keying", "mac", "duplicate"):
        put(f"protocol.rejected.{reason}", counters.get(f"datagrams_rejected{{reason={reason}}}", 0), 1)
    put("fam.flows_started", counters.get("flows_started", 0), 1)
    for cache in ("TFKC", "RFKC", "MKC", "PVC"):
        hits = counters.get(f"cache_hits{{cache={cache}}}", 0)
        misses = sum(
            v for k, v in counters.items() if k.startswith(f"cache_misses{{cache={cache},")
        )
        if hits + misses:
            put(f"caches.{cache.lower()}.hit_ratio", hits / (hits + misses), hits + misses)
    # MKC hits make most master_key calls cheap; this is the cost of the
    # ones that verify a certificate and run the modexp.
    computed = sum(v for k, v in counters.items() if k.startswith("cache_misses{cache=MKC,"))
    if computed and rec.calls("mkd.master_key"):
        put("mkd.master_key.us_per_computed", rec.total("mkd.master_key") / computed * 1e6, computed)
    put("caches.rfkc.collision_misses", counters.get("cache_misses{cache=RFKC,kind=collision}", 0), 1)
    put(
        "keying.flow_key_derivations",
        sum(v for k, v in counters.items() if k.startswith("flow_key_derivations")),
        1,
    )
    put("keying.crypto_state_builds", counters.get("crypto_state_builds", 0), 1)
    if outcomes is None:
        return out
    put("replay_guard.duplicates", counters.get("datagrams_rejected{reason=duplicate}", 0), 1)
    put("gateway.admissions", counters.get("gateway_tenants_admitted", 0), 1)
    put(
        "gateway.evictions",
        sum(v for k, v in counters.items() if k.startswith("gateway_tenants_evicted")),
        1,
    )
    for reason in ("admission", "backpressure", "evicted"):
        put(
            f"gateway.dropped.{reason}",
            counters.get(f"gateway_datagrams_dropped{{reason={reason}}}", 0),
            1,
        )
    served = sum(v for k, v in outcomes.items() if k != "idle")
    if served:
        put("gateway.useful_ratio", outcomes.get("enqueued", 0) / served, served)
    return out


def cost_model_lines(metrics: Dict[str, Tuple[float, str, int]]) -> List[str]:
    """The P133 cost model's prediction beside this host's measurement.

    Ungated: the model describes a 1997 Pentium 133 running C, this is
    the reproduction's Python on today's host; the table shows where
    the two decompositions agree in shape, not in size.
    """
    from repro.netsim.costmodel import PENTIUM_133 as model

    def value(*names: str) -> Optional[float]:
        if not all(n in metrics for n in names):
            return None
        return sum(metrics[n][0] for n in names)

    if "protocol.protect.self_us" in metrics:
        per_packet_from = ("protocol.protect.self_us", "fam.classify.us", "caches.lookup.us", "header.encode.us")
    else:
        per_packet_from = ("protocol.unprotect.self_us", "header.decode.us", "timestamps.freshness.us", "caches.lookup.us")
    rows = (
        ("per_byte_md5", model.per_byte_md5 * 1024 * 1e6, "us/KB", value("crypto.mac.us_per_kb"), "crypto.mac.us_per_kb"),
        ("per_byte_des", model.per_byte_des * 1024 * 1e6, "us/KB", value("crypto.cipher.us_per_kb"), "crypto.cipher.us_per_kb"),
        ("fbs_per_packet", model.fbs_per_packet * 1e6, "us", value(*per_packet_from), " + ".join(per_packet_from)),
        ("modexp", model.modexp * 1e6, "us", value("mkd.master_key.us_per_computed"), "mkd.master_key.us_per_computed (incl. cert verify)"),
    )
    lines = ["cost model (P133 prediction vs measured here, ungated):"]
    for name, predicted, unit, measured, source in rows:
        shown = "n/a" if measured is None else f"{measured:.1f}"
        lines.append(
            f"  {name:<15} predicted {predicted:>10.1f} {unit:<5} measured {shown:>10} {unit:<5} [{source}]"
        )
    return lines
