"""Deterministic byte-size model for simulated wire traffic.

The simulator never serializes messages — Python objects cross the
"wire" directly — but the paper's throughput and replication-fan-out
arguments depend on message *sizes* (a 100-key prepare is not a 1-key
get). This module assigns every payload a deterministic size in bytes,
patterned on a compact schema'd binary encoding:

* fixed-width scalars (ints, floats, timestamps) are 8 bytes;
* booleans and ``None`` are 1 byte (presence/flag byte);
* strings and bytes carry a 4-byte length prefix plus their UTF-8 body;
* containers carry a 4-byte count prefix plus their elements — field
  *names* are never charged, because a schema'd format transmits field
  tags, which the per-message 2-byte header in
  :class:`repro.wire.messages.WireMessage` stands in for.

Sizes are pure functions of the value: no RNG draws, no host state.
They feed only the network's byte counters (``net.bytes_per_op``,
figure 8's MB/s column), never a timestamp. A message may remember its
size (the ``wire_size`` that :func:`repro.wire.messages.wire_message`
generates sizes each object once): a value handed to the wire is
treated as immutable from then on, which the value semantics of
:mod:`repro.wire.messages` already demand.

:func:`payload_size` is the model itself. The generated sizers fold
fixed-width fields into constants and call it for the rest (``Any``
values, variable-length tuples, dicts, nested messages); it also sizes
ad-hoc test payloads that have no ``wire_size`` of their own.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = [
    "payload_size",
    "wire_size_of",
    "SCALAR_SIZE",
    "LENGTH_PREFIX_SIZE",
]

#: Width of a fixed-size scalar (int/float/timestamp) on the wire.
SCALAR_SIZE = 8
#: Length/count prefix charged for strings, bytes and containers.
LENGTH_PREFIX_SIZE = 4
#: A bool, None, or other single presence/flag byte.
FLAG_SIZE = 1


#: Sizes of the fixed-width atoms by exact type, which are most of what
#: a message holds. ``bool`` has its own entry, so a flag sitting in an
#: ``int``-annotated field is still one byte.
_ATOM_SIZES: Dict[type, int] = {
    type(None): FLAG_SIZE,
    bool: FLAG_SIZE,
    int: SCALAR_SIZE,
    float: SCALAR_SIZE,
}


def payload_size(value: Any) -> int:
    """Size of ``value`` in modelled wire bytes (deterministic).

    Objects exposing a ``wire_size()`` method (all
    :class:`~repro.wire.messages.WireMessage` subclasses, and the RPC
    envelope types) are delegated to; everything else falls back to a
    structural model so ad-hoc test payloads still get a finite size.

    What messages are made of — atoms, plain strings, tuples, nested
    messages — is dispatched on exact type (or asked for its own
    ``wire_size()``) before the structural walk below, which still
    decides everything else, subclasses of the atoms included.
    ``tests/test_wire.py`` holds the result equal to a plain recursive
    walk of the model for every registered message class.
    """
    kind = type(value)
    size = _ATOM_SIZES.get(kind)
    if size is not None:
        return size
    if kind is str:
        # UTF-8 encodes ASCII one byte per character.
        return LENGTH_PREFIX_SIZE + (
            len(value) if value.isascii() else len(value.encode("utf-8")))
    if kind is tuple:
        return LENGTH_PREFIX_SIZE + sum(map(payload_size, value))
    size_method = getattr(value, "wire_size", None)
    if callable(size_method):
        return size_method()
    if isinstance(value, bool):
        return FLAG_SIZE
    if isinstance(value, (int, float)):
        return SCALAR_SIZE
    if isinstance(value, str):
        return LENGTH_PREFIX_SIZE + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return LENGTH_PREFIX_SIZE + len(value)
    if isinstance(value, (tuple, list)):
        return LENGTH_PREFIX_SIZE + sum(payload_size(v) for v in value)
    if isinstance(value, dict):
        return LENGTH_PREFIX_SIZE + sum(
            payload_size(k) + payload_size(v) for k, v in value.items())
    # Last resort for exotic test payloads: charge the repr. Still a
    # pure function of the value, so determinism holds.
    return LENGTH_PREFIX_SIZE + len(repr(value).encode("utf-8"))


def wire_size_of(message: Any) -> int:
    """Total modelled size of anything handed to ``Network.send``."""
    return payload_size(message)
