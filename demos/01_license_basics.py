"""Licenses from challenge/response pairs, and how the root checks them.

Walks the license algebra with one concrete pair, shows that exactly one
license value can authenticate a node, and wraps a license with the
stream cipher used by the encrypted variant.
"""

import random

from lisec_rtf import (
    CRDatabase,
    KeyedPuf,
    decrypt_license,
    encrypt_license,
    generate_license,
    recover_response,
)
from lisec_rtf.messages import node_address

CH, RESP = 0b01110101, 0b10110101

print("== license generation ==")
license_bits = generate_license(CH, RESP)
print(f"challenge {CH:08b}  response {RESP:08b}  ->  license {license_bits:08b}")

print("\n== verification at the border router ==")
db = CRDatabase()
rng = random.Random(1)
device = KeyedPuf("S1", b"S1 device secret")
s1 = node_address(1)  # the table is keyed by the node's address
challenge, provisioned = db.register(s1, device, rng)
response = db.entries[s1][1]
recovered = recover_response(challenge, provisioned)
print(f"stored pair ({challenge:08b}, {response:08b}); node provisioned with "
      f"{provisioned:08b}")
print(f"root recovers {recovered:08b}; accept = {db.admits(s1, provisioned, b'')}")

print("\n== brute force is a 1-in-256 lottery at width 8 ==")
accepted = [lic for lic in range(256) if db.verify(s1, lic)]
print(f"licenses that authenticate S1: {[f'{v:08b}' for v in accepted]}")

print("\n== encrypted variant ==")
key = bytes(range(16))
nonce = random.Random(2).randbytes(8)
blob = encrypt_license(key, provisioned, nonce)
print(f"on the air: {blob.hex()} ({len(blob)} bytes, nonce + ciphertext)")
print(f"root decrypts -> {decrypt_license(key, blob):08b}")
wrong = decrypt_license(b"wrong-key-000000", blob)
print(f"wrong key decrypts to {wrong:08b}; accept = {db.verify(s1, wrong)}")
