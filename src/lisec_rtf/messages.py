"""Control-message model and the DAO wire codec.

Every message travels as an in-memory value: a named tuple whose `__new__`
checks every field (an address of type `bytes` and 16 octets skips
`_check_address`) and calls `tuple.__new__` itself, as the named tuple's own
`__new__` costs one more Python call per message.  `_make` and `_replace`
skip the checks, so nothing may build a message through them.
Tuples compare by content, so messages of two types with equal fields are
equal; the simulator never compares messages of different types.

The DAO has a fixed binary layout so traces can dump exact frames; the
ACK/NACK status layout fixes its size, STATUS_LEN, and so its airtime,
though a status value holds only its originator and status:

DAO (36 bytes + options):
    octet 0       instance id, constant 0
    octet 1       flags, K bit (0x80) set
    octet 2       reserved, the 8-bit license when the node holds no shared key
    octet 3       sequence
    octets 4-19   target address
    octets 20-35  source address
    octets 36+    options: 1-byte length then payload, omitted when empty

Status (20 bytes):
    octet 0       instance id, constant 0
    octet 1       reserved, 0
    octet 2       status: 0 = ACK, >= 128 = NACK
    octet 3       sequence
    octets 4-19   originator address
"""

from __future__ import annotations

import random
from collections import namedtuple

ADDRESS_LEN = 16
NODE_PREFIX = 0xFD     # addresses assigned to real nodes
FORGED_PREFIX = 0xFE   # reserved block the attacker draws fake addresses from

DAO_BASE_LEN = 36
OPTIONS_MAX = 255  # the options' length travels in one octet
STATUS_LEN = 20
STATUS_ACK = 0
STATUS_NACK = 128
FLAG_K = 0x80


class DecodeError(Exception):
    """Buffer does not parse as the expected message."""


def node_address(index: int) -> bytes:
    """Stable unicast address for node number `index`."""
    if not 0 <= index < 1 << 16:
        raise ValueError("node index out of range")
    return bytes([NODE_PREFIX]) + b"\x00" * 13 + index.to_bytes(2, "big")


def forged_address(rng: random.Random) -> bytes:
    """Fresh fake address from the reserved block; never a real node."""
    return bytes([FORGED_PREFIX]) + rng.randbytes(ADDRESS_LEN - 1)


def is_forged_address(addr: bytes) -> bool:
    return addr[0] == FORGED_PREFIX


def format_address(addr: bytes) -> str:
    return addr.hex(":", 2)


def _check_address(addr: bytes, name: str) -> None:
    if not isinstance(addr, bytes) or len(addr) != ADDRESS_LEN:
        raise ValueError(f"{name} must be {ADDRESS_LEN} bytes")


class DisMessage(namedtuple("DisMessage", ())):
    """A solicitation: any joined neighbour answers with a DIO."""

    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls)


class DioMessage(namedtuple("DioMessage", "sender rank")):
    __slots__ = ()

    def __new__(cls, sender: bytes, rank: int):
        if type(sender) is not bytes or len(sender) != ADDRESS_LEN:
            _check_address(sender, "sender")
        if not 0 <= rank < 1 << 16:
            raise ValueError("rank must fit 16 bits")
        return tuple.__new__(cls, (sender, rank))


class DaoModified(namedtuple("DaoModified", "src target sequence reserved options")):
    """DAO whose reserved octet carries the license (or 0 when the options carry it)."""

    __slots__ = ()

    def __new__(cls, src: bytes, target: bytes, sequence: int, reserved: int,
                options: bytes = b""):
        if type(src) is not bytes or len(src) != ADDRESS_LEN:
            _check_address(src, "src")
        if type(target) is not bytes or len(target) != ADDRESS_LEN:
            _check_address(target, "target")
        if not 0 <= sequence < 256:
            raise ValueError("sequence must be one octet")
        if not 0 <= reserved < 256:
            raise ValueError("reserved must be one octet")
        if len(options) > OPTIONS_MAX:
            raise ValueError(f"options longer than {OPTIONS_MAX} bytes")
        return tuple.__new__(cls, (src, target, sequence, reserved, options))


class DaoStatus(namedtuple("DaoStatus", "originator status")):
    """DAO-ACK (status 0) or DAO-NACK (status >= 128)."""

    __slots__ = ()

    def __new__(cls, originator: bytes, status: int):
        if type(originator) is not bytes or len(originator) != ADDRESS_LEN:
            _check_address(originator, "originator")
        if status != STATUS_ACK and not STATUS_NACK <= status < 256:
            raise ValueError("status must be 0 or in [128, 255]")
        return tuple.__new__(cls, (originator, status))


def encode_dao(m: DaoModified) -> bytes:
    head = bytes([0, FLAG_K, m.reserved, m.sequence]) + m.target + m.src
    if not m.options:
        return head
    return head + bytes([len(m.options)]) + m.options


def dao_length(m: DaoModified) -> int:
    """len(encode_dao(m)) without building the frame."""
    return DAO_BASE_LEN + (1 + len(m.options) if m.options else 0)


def decode_dao(buf: bytes) -> DaoModified:
    if len(buf) < DAO_BASE_LEN:
        raise DecodeError(f"DAO shorter than {DAO_BASE_LEN} bytes")
    target = buf[4:20]
    src = buf[20:36]
    options = b""
    if len(buf) > DAO_BASE_LEN:
        n = buf[DAO_BASE_LEN]
        if len(buf) != DAO_BASE_LEN + 1 + n:
            raise DecodeError("bad option length")
        options = buf[DAO_BASE_LEN + 1:]
    return DaoModified(src=src, target=target, sequence=buf[3],
                       reserved=buf[2], options=options)
