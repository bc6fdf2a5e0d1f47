"""How fast is this CPU right now: a fixed piece of interpreter work.

The sandbox's CPU changes speed several times a second (the same pure-Python
loop takes 135 us, then 240 us, then 160 us of *CPU time*, whatever else the
VM is doing), so a time measured here says as much about the moment as about
the program.  The untraced run therefore times this kernel every few
milliseconds between the transactions it measures and reports every time
scaled to a CPU on which the kernel takes ``REFERENCE_SECONDS``.

The kernel is made of what the engine is made of — a tagged byte codec
driven through a dispatch table, short-lived objects, dict and list traffic
over a table larger than the first-level cache, a mutex taken and released,
records appended to a log buffer — because a slowdown of the host does not
hit every instruction mix alike: over windows of a quarter of a second its
time moved in proportion to the time of the five workloads' transactions
(log-log slope 0.8-1.4), where a tight arithmetic loop moved 0.5-0.9.
It imports nothing from ``repro`` and never changes with the engine.
"""

from __future__ import annotations

import io
import statistics
import struct
import threading
from time import thread_time

#: The kernel's CPU time on the reference machine in its usual state.
REFERENCE_SECONDS = 250e-6

_HEADER = struct.Struct("<BIQd")
_DOUBLE = struct.Struct("<d")


def _encode_list(values):
    return b"l" + len(values).to_bytes(2, "little") + b"".join(encode(v) for v in values)


def _encode_str(value):
    raw = value.encode()
    return b"s" + len(raw).to_bytes(2, "little") + raw


_ENCODERS = {
    int: lambda value: b"i" + value.to_bytes(8, "little", signed=True),
    float: lambda value: b"f" + _DOUBLE.pack(value),
    str: _encode_str,
    list: _encode_list,
}


def encode(value):
    return _ENCODERS[type(value)](value)


def decode(buffer, at):
    tag = buffer[at : at + 1]
    if tag == b"i":
        return int.from_bytes(buffer[at + 1 : at + 9], "little", signed=True), at + 9
    if tag == b"f":
        return _DOUBLE.unpack_from(buffer, at + 1)[0], at + 9
    count = int.from_bytes(buffer[at + 1 : at + 3], "little")
    at += 3
    if tag == b"s":
        return buffer[at : at + count].decode(), at + count
    values = []
    for _ in range(count):
        value, at = decode(buffer, at)
        values.append(value)
    return values, at


class _Record:
    def __init__(self, key, count, amount, tags):
        self.key = key
        self.count = count
        self.amount = amount
        self.tags = tags


class _Slot:
    __slots__ = ("owner", "grants")

    def __init__(self):
        self.owner = None
        self.grants = 0


class Kernel:
    """``sample()`` does the same work on every call and returns the CPU
    time it took on the calling thread."""

    SIZE = 4096
    STEPS = 24

    def __init__(self):
        self.table = {
            key: encode([key, f"record-{key}", key * 0.5, [key, key + 1, key + 2]])
            for key in range(self.SIZE)
        }
        self.slots = [_Slot() for _ in range(self.SIZE)]
        self.mutex = threading.Lock()
        self.log = io.BytesIO()
        self.cursor = 1

    def sample(self):
        start = thread_time()
        table, slots, mutex, log = self.table, self.slots, self.mutex, self.log
        key = self.cursor
        held = []
        for _ in range(self.STEPS):
            key = (key * 1103515245 + 12345) % self.SIZE
            with mutex:
                slot = slots[key]
                if slot.owner is None:
                    slot.owner = self
                    slot.grants += 1
                    held.append(slot)
            (count, name, amount, tags), _ = decode(table[key], 0)
            record = _Record(name, count + 1, amount + 1.0, [tag + 1 for tag in tags])
            image = encode(
                [record.count - 1, record.key, record.amount - 1.0, [t - 1 for t in record.tags]]
            )
            table[key] = image
            log.write(_HEADER.pack(1, key, len(image), record.amount))
            log.write(image)
        for slot in held:
            with mutex:
                slot.owner = None
        log.seek(0)
        log.truncate()
        self.cursor = key
        return thread_time() - start

    def burst(self, count=40):
        return [self.sample() for _ in range(count)]


def speeds(samples_by_round, window):
    """Per round, the factor that turns a time measured in that round into
    reference-machine time: ``REFERENCE_SECONDS`` over the median of the
    kernel samples taken within *window* rounds of it."""
    factors = []
    for index in range(len(samples_by_round)):
        near = [
            sample
            for group in samples_by_round[max(0, index - window) : index + window + 1]
            for sample in group
        ]
        factors.append(REFERENCE_SECONDS / statistics.median(near))
    return factors
