"""PUF-backed license generation and verification.

Every sensor node owns a device-unique challenge/response mapping.  At
registration time the border router stores one challenge/response pair per
node and the node is provisioned with a License, the XOR of the two.  A DAO
is accepted when the response recovered from the carried License matches the
stored one.  An optional stream-cipher wrapping keeps the License opaque on
the air.
"""

from __future__ import annotations

import hashlib
import random

DEFAULT_WIDTH = 8          # bits; fits the DAO reserved octet
NONCE_LEN = 8              # octets prepended to every encrypted license
KEY_LEN = 16               # octets of each node's shared key


class PufError(Exception):
    """Base class for registration and license failures."""


class AlreadyRegisteredError(PufError):
    pass


class LicenseDecodeError(PufError):
    """Encrypted license blob is malformed."""


def _check_width(value: int, width: int, name: str) -> None:
    if not 0 <= value < (1 << width):
        raise ValueError(f"{name}={value!r} does not fit in {width} bits")


def generate_license(challenge: int, response: int, width: int = DEFAULT_WIDTH) -> int:
    """License provisioned onto a node: challenge XOR response."""
    _check_width(challenge, width, "challenge")
    _check_width(response, width, "response")
    return challenge ^ response


def recover_response(challenge: int, license_bits: int, width: int = DEFAULT_WIDTH) -> int:
    """Response the verifier recomputes: challenge XOR license."""
    _check_width(challenge, width, "challenge")
    _check_width(license_bits, width, "license")
    return challenge ^ license_bits


class KeyedPuf:
    """Device backed by a deterministic keyed mapping.

    The mapping is a pure function of (node_id, secret, challenge), so the
    same device always answers a challenge the same way, across runs.
    """

    def __init__(self, node_id: str, secret: bytes, width: int = DEFAULT_WIDTH):
        self.node_id = node_id
        self.width = width
        self._secret = bytes(secret)

    def derive_response(self, challenge: int) -> int:
        _check_width(challenge, self.width, "challenge")
        digest = hashlib.blake2b(
            f"{self.node_id}|{challenge}".encode(),
            key=self._secret[:64],
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") & ((1 << self.width) - 1)


class CRDatabase:
    """Challenge/response store kept at the border router.

    One (challenge, response) pair per node address, populated only during
    the registration phase.  Shared keys for the encrypted variant live
    beside the pairs and never travel on a simulated link.
    """

    def __init__(self, width: int = DEFAULT_WIDTH):
        self.width = width
        self.entries: dict[bytes, tuple[int, int]] = {}
        self.keys: dict[bytes, bytes] = {}

    def register(self, address: bytes, device, rng: random.Random) -> tuple[int, int]:
        """Draw a challenge, store the pair, return (challenge, license)."""
        if address in self.entries:
            raise AlreadyRegisteredError(f"{address.hex()} already registered")
        challenge = rng.randrange(1 << self.width)
        response = device.derive_response(challenge)
        self.entries[address] = (challenge, response)
        return challenge, generate_license(challenge, response, self.width)

    def verify(self, address: bytes, license_bits: int) -> bool:
        """Accept iff the address is registered and the license fits and checks out."""
        entry = self.entries.get(address)
        if entry is None or not 0 <= license_bits < 1 << self.width:
            return False
        challenge, response = entry
        return recover_response(challenge, license_bits, self.width) == response

    def admits(self, src: bytes, reserved: int, options: bytes) -> bool:
        """The root's check of a DAO from `src`.  An unknown address is
        refused unread; the license is the options decrypted with the
        address's key when a key is held, else the reserved octet."""
        if src not in self.entries:
            return False
        key = self.keys.get(src)
        if key is None:
            license_bits = reserved
        else:
            try:
                license_bits = decrypt_license(key, options, self.width)
            except LicenseDecodeError:
                return False
        return self.verify(src, license_bits)


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = []
    for i in range((length + 31) // 32):
        blocks.append(
            hashlib.blake2b(nonce + i.to_bytes(4, "big"), key=key[:64],
                            digest_size=32).digest()
        )
    return b"".join(blocks)[:length]


def license_blob_len(width: int = DEFAULT_WIDTH) -> int:
    """Octets of an encrypted license: the nonce, then the ciphertext."""
    return NONCE_LEN + (width + 7) // 8


def encrypt_license(key: bytes, license_bits: int, nonce: bytes,
                    width: int = DEFAULT_WIDTH) -> bytes:
    """Nonce-prefixed stream encryption of a license; rides in DAO options."""
    _check_width(license_bits, width, "license")
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    n = license_blob_len(width) - NONCE_LEN
    plain = license_bits.to_bytes(n, "big")
    ks = _keystream(key, nonce, n)
    return nonce + bytes(p ^ k for p, k in zip(plain, ks))


def decrypt_license(key: bytes, blob: bytes, width: int = DEFAULT_WIDTH) -> int:
    expected = license_blob_len(width)
    if len(blob) != expected:
        raise LicenseDecodeError(f"expected {expected} bytes, got {len(blob)}")
    nonce, body = blob[:NONCE_LEN], blob[NONCE_LEN:]
    ks = _keystream(key, nonce, len(body))
    return int.from_bytes(bytes(c ^ k for c, k in zip(body, ks)), "big")
