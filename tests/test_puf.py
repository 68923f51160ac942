"""License algebra, device determinism, registry and cipher behavior."""

import math
import random

import pytest

from lisec_rtf import puf
from lisec_rtf.messages import node_address
from lisec_rtf.puf import (
    CRDatabase,
    KeyedPuf,
    decrypt_license,
    encrypt_license,
    generate_license,
    recover_response,
)

# worked example pair: challenge 01110101, response 10110101
CH = 0b01110101
RESP = 0b10110101
LIC = 0b11000000
ADDR = node_address(1)


def xor_oracle(a: int, b: int, width: int = 8) -> int:
    """Bit-by-bit XOR, independent of the ^ operator used by the library."""
    out = 0
    for i in range(width):
        bit_a = (a >> i) & 1
        bit_b = (b >> i) & 1
        if bit_a != bit_b:
            out |= 1 << i
    return out


def test_worked_example_license():
    assert generate_license(CH, RESP) == LIC


def test_worked_example_recovery():
    assert recover_response(CH, LIC) == RESP


def test_license_self_cancels():
    for x in range(256):
        assert generate_license(x, x) == 0


def test_recover_identity_under_zero_license():
    for ch in range(256):
        assert recover_response(ch, 0) == ch


def test_license_matches_xor_oracle_exhaustive():
    for ch in range(256):
        for r in range(256):
            assert generate_license(ch, r) == xor_oracle(ch, r)


def test_roundtrip_exhaustive():
    # recover(generate) is the identity over the whole 2^16 input space
    for ch in range(256):
        for r in range(256):
            assert recover_response(ch, generate_license(ch, r)) == r


def test_width_bounds_rejected():
    with pytest.raises(ValueError):
        generate_license(256, 0)
    with pytest.raises(ValueError):
        recover_response(0, 300)
    generate_license(300, 1, width=16)  # fits once widened


def test_device_determinism():
    dev = KeyedPuf("n03", b"secret-a")
    values = {dev.derive_response(0x11) for _ in range(50)}
    assert len(values) == 1


def test_keyed_device_frozen_fixture():
    # regression value computed from the keyed-mapping oracle (blake2b direct)
    dev = KeyedPuf("n07", b"unit-test-secret")
    assert dev.derive_response(0x3A) == 0x4B


def test_distinct_secrets_give_distinct_mappings():
    a = KeyedPuf("n01", b"secret-a")
    b = KeyedPuf("n01", b"secret-b")
    diffs = sum(1 for ch in range(256) if a.derive_response(ch) != b.derive_response(ch))
    assert diffs > 200  # independent mappings collide rarely


def test_register_stores_pair_and_returns_license():
    db = CRDatabase()
    dev = KeyedPuf("S1", b"secret-a")
    ch, lic = db.register(ADDR, dev, random.Random(1))
    assert ch == random.Random(1).randrange(256)  # the store draws the challenge
    resp = dev.derive_response(ch)
    assert db.entries[ADDR] == (ch, resp)
    assert lic == xor_oracle(ch, resp)
    assert db.verify(ADDR, lic)


def test_register_twice_fails():
    db = CRDatabase()
    rng = random.Random(1)
    db.register(ADDR, KeyedPuf("S1", b"k"), rng)
    with pytest.raises(puf.AlreadyRegisteredError):
        db.register(ADDR, KeyedPuf("S1", b"k"), rng)


def test_verify_accepts_genuine_license():
    db = CRDatabase()
    db.entries[ADDR] = (CH, RESP)
    assert db.verify(ADDR, LIC)


def test_verify_rejects_flipped_bit():
    db = CRDatabase()
    db.entries[ADDR] = (CH, RESP)
    assert not db.verify(ADDR, LIC ^ 0x01)


def test_verify_rejects_unknown_node():
    db = CRDatabase()
    assert not db.verify(node_address(2), LIC)


def test_verify_rejects_license_wider_than_width():
    db = CRDatabase(width=4)
    db.entries[ADDR] = (0x3, 0x5)
    assert db.verify(ADDR, 0x3 ^ 0x5)
    for lic in (200, 16, -1):
        assert not db.verify(ADDR, lic)
    wide = CRDatabase(width=12)
    wide.entries[ADDR] = (0x123, 0x456)
    assert not wide.verify(ADDR, 51513)


def test_false_accept_rate_is_exactly_one_in_256():
    db = CRDatabase()
    db.entries[ADDR] = (CH, RESP)
    accepted = [lic for lic in range(256) if db.verify(ADDR, lic)]
    assert accepted == [LIC]


def test_encrypt_roundtrip_random_triples():
    rng = random.Random(42)
    for _ in range(1000):
        key = rng.randbytes(16)
        lic = rng.randrange(256)
        nonce = rng.randbytes(puf.NONCE_LEN)
        assert decrypt_license(key, encrypt_license(key, lic, nonce)) == lic


def test_encrypt_nonce_freshness():
    key = b"k" * 16
    a = encrypt_license(key, LIC, b"\x00" * 8)
    b = encrypt_license(key, LIC, b"\x01" + b"\x00" * 7)
    assert a != b


def test_encrypt_frozen_vector():
    # keystream oracle run once by hand; first byte of blake2b(nonce||0) is 0x76
    key = b"0123456789abcdef"
    nonce = bytes(range(1, 9))
    assert encrypt_license(key, 0xC0, nonce).hex() == "0102030405060708b6"


def test_decrypt_truncated_blob():
    key = b"k" * 16
    blob = encrypt_license(key, LIC, b"\x00" * 8)
    with pytest.raises(puf.LicenseDecodeError):
        decrypt_license(key, blob[:-1])
    with pytest.raises(puf.LicenseDecodeError):
        decrypt_license(key, blob + b"\x00")


def test_wrong_key_acceptance_matches_binomial():
    # decrypting with a wrong key yields a near-uniform license; acceptance
    # against one registered node should sit at 1/256 within 3 sigma
    db = CRDatabase()
    db.entries[ADDR] = (CH, RESP)
    rng = random.Random(2024)
    right = b"right-key-000000"
    n = 10_000
    accepted = 0
    for _ in range(n):
        nonce = rng.randbytes(puf.NONCE_LEN)
        blob = encrypt_license(right, LIC, nonce)
        lic = decrypt_license(rng.randbytes(16), blob)
        accepted += db.verify(ADDR, lic)
    p = 1 / 256
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(accepted - n * p) <= 3 * sigma


# -- the root's check: one table keyed by address ----------------------------

KEY = bytes(range(16))
NONCE = b"\x07" * puf.NONCE_LEN


def _dao_fields(sealed: bool, case: str) -> tuple:
    """(src, reserved, options) of a DAO for `case` under a 4-bit table whose
    one entry, at ADDR, takes license 0x3 ^ 0x5 = 0x6."""
    license_bits = {"right": 0x6, "wrong": 0x7, "unknown": 0x6, "wide": 200,
                    "malformed": 0x6}[case]
    src = node_address(2) if case == "unknown" else ADDR
    if not sealed:
        options = b"\xff\x00" if case == "malformed" else b""
        return src, license_bits, options
    blob = encrypt_license(KEY, license_bits, NONCE, width=8)
    return src, 0, blob[:-1] if case == "malformed" else blob


@pytest.mark.parametrize("case, plain_ok, sealed_ok", [
    ("right", True, True),
    ("wrong", False, False),
    ("unknown", False, False),
    ("wide", False, False),         # 200 does not fit 4 bits
    ("malformed", True, False),     # the plain table never reads the options
])
@pytest.mark.parametrize("sealed", [False, True], ids=["plain", "sealed"])
def test_admits(monkeypatch, sealed, case, plain_ok, sealed_ok):
    db = CRDatabase(width=4)
    db.entries[ADDR] = (0x3, 0x5)
    if sealed:
        db.keys[ADDR] = KEY
        db.keys[node_address(2)] = KEY  # a key without a pair admits nothing
    read = []
    decrypt = puf.decrypt_license
    monkeypatch.setattr(puf, "decrypt_license",
                        lambda *args: read.append(args) or decrypt(*args))
    src, reserved, options = _dao_fields(sealed, case)
    assert db.admits(src, reserved, options) == (sealed_ok if sealed else plain_ok)
    # an unknown address is refused before any license is read; only a
    # table that holds the address's key decrypts
    assert len(read) == (sealed and case != "unknown")


@pytest.mark.parametrize("nonce_len", [puf.NONCE_LEN - 1, puf.NONCE_LEN + 1])
def test_nonce_of_the_wrong_length_refused(nonce_len):
    # no other test reaches this check
    with pytest.raises(ValueError, match=f"^nonce must be {puf.NONCE_LEN} bytes$"):
        encrypt_license(bytes(16), 5, bytes(nonce_len))
