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
DEFAULT_MAX_NODES = 1024


class PufError(Exception):
    """Base class for registration and license failures."""


class MissingChallengeError(PufError):
    """Table-backed device has no response for the given challenge."""


class AlreadyRegisteredError(PufError):
    pass


class CapacityError(PufError):
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


class TablePuf:
    """Device backed by an explicit challenge -> response table."""

    def __init__(self, node_id: str, pairs: dict[int, int], width: int = DEFAULT_WIDTH):
        self.node_id = node_id
        self.width = width
        for ch, r in pairs.items():
            _check_width(ch, width, "challenge")
            _check_width(r, width, "response")
        self._pairs = dict(pairs)

    def derive_response(self, challenge: int) -> int:
        _check_width(challenge, self.width, "challenge")
        try:
            return self._pairs[challenge]
        except KeyError:
            raise MissingChallengeError(
                f"device {self.node_id} has no pair for challenge {challenge:#04x}"
            ) from None

    def random_challenge(self, rng: random.Random) -> int:
        return rng.choice(sorted(self._pairs))


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

    def random_challenge(self, rng: random.Random) -> int:
        return rng.randrange(1 << self.width)


class CRDatabase:
    """Challenge/response store kept at the border router.

    One (challenge, response) pair per node, populated only during the
    registration phase.  Shared keys for the encrypted variant live beside
    the pairs and never travel on a simulated link.
    """

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES, width: int = DEFAULT_WIDTH):
        self.max_nodes = max_nodes
        self.width = width
        self.entries: dict[str, tuple[int, int]] = {}
        self.keys: dict[str, bytes] = {}

    def register(self, node_id: str, device, rng: random.Random) -> tuple[int, int]:
        """Draw a challenge, store the pair, return (challenge, license)."""
        if node_id in self.entries:
            raise AlreadyRegisteredError(f"{node_id} already registered")
        if len(self.entries) >= self.max_nodes:
            raise CapacityError(f"database full ({self.max_nodes} nodes)")
        challenge = device.random_challenge(rng)
        response = device.derive_response(challenge)
        self.entries[node_id] = (challenge, response)
        return challenge, generate_license(challenge, response, self.width)

    def assign_key(self, node_id: str, key: bytes) -> None:
        self.keys[node_id] = bytes(key)

    def verify(self, node_id: str, license_bits: int) -> bool:
        """Accept iff the node is registered and the license fits and checks out."""
        entry = self.entries.get(node_id)
        if entry is None or not 0 <= license_bits < 1 << self.width:
            return False
        challenge, response = entry
        return recover_response(challenge, license_bits, self.width) == response

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            digits = (self.width + 3) // 4
            for node_id, (ch, r) in self.entries.items():
                fh.write(f"{node_id}\t{ch:0{digits}x}\t{r:0{digits}x}\n")

    @classmethod
    def load(cls, path, max_nodes: int = DEFAULT_MAX_NODES,
             width: int = DEFAULT_WIDTH) -> "CRDatabase":
        db = cls(max_nodes=max_nodes, width=width)
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                node_id, ch_hex, r_hex = line.split("\t")
                if node_id in db.entries:
                    raise AlreadyRegisteredError(f"duplicate entry for {node_id}")
                if len(db.entries) >= max_nodes:
                    raise CapacityError(f"database full ({max_nodes} nodes)")
                db.entries[node_id] = (int(ch_hex, 16), int(r_hex, 16))
        return db


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = []
    for i in range((length + 31) // 32):
        blocks.append(
            hashlib.blake2b(nonce + i.to_bytes(4, "big"), key=key[:64],
                            digest_size=32).digest()
        )
    return b"".join(blocks)[:length]


def encrypt_license(key: bytes, license_bits: int, nonce: bytes,
                    width: int = DEFAULT_WIDTH) -> bytes:
    """Nonce-prefixed stream encryption of a license; rides in DAO options."""
    _check_width(license_bits, width, "license")
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    n = (width + 7) // 8
    plain = license_bits.to_bytes(n, "big")
    ks = _keystream(key, nonce, n)
    return nonce + bytes(p ^ k for p, k in zip(plain, ks))


def decrypt_license(key: bytes, blob: bytes, width: int = DEFAULT_WIDTH) -> int:
    n = (width + 7) // 8
    if len(blob) != NONCE_LEN + n:
        raise LicenseDecodeError(
            f"expected {NONCE_LEN + n} bytes, got {len(blob)}"
        )
    nonce, body = blob[:NONCE_LEN], blob[NONCE_LEN:]
    ks = _keystream(key, nonce, n)
    return int.from_bytes(bytes(c ^ k for c, k in zip(body, ks)), "big")
