"""Wire-codec round trips, layout pins and decoder totality."""

import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisec_rtf import messages as msg
from lisec_rtf.messages import (
    DaoModified,
    DaoStatus,
    dao_length,
    decode_dao,
    encode_dao,
    forged_address,
    node_address,
)

addresses = st.binary(min_size=16, max_size=16)
octets = st.integers(0, 255)
daos = st.builds(DaoModified, src=addresses, target=addresses, sequence=octets,
                 reserved=octets, options=st.binary(max_size=255))


def random_dao(rng: random.Random, with_options: bool | None = None) -> DaoModified:
    if with_options is None:
        with_options = rng.random() < 0.5
    options = rng.randbytes(rng.randrange(1, 40)) if with_options else b""
    return DaoModified(
        src=node_address(rng.randrange(1 << 16)),
        target=forged_address(rng) if rng.random() < 0.3 else node_address(rng.randrange(1 << 16)),
        sequence=rng.randrange(256),
        reserved=rng.randrange(256),
        options=options,
    )


def test_reserved_octet_position():
    dao = DaoModified(src=node_address(1), target=node_address(1),
                      sequence=5, reserved=0b11000000)
    assert encode_dao(dao)[2] == 0xC0


def test_layout_lengths():
    dao = DaoModified(src=node_address(1), target=node_address(2),
                      sequence=0, reserved=0)
    assert len(encode_dao(dao)) == 36
    for n in (1, 7, 255):
        withopt = DaoModified(src=node_address(1), target=node_address(2),
                              sequence=0, reserved=0, options=b"\xaa" * n)
        assert len(encode_dao(withopt)) == 37 + n


def test_dao_roundtrip_random():
    rng = random.Random(9)
    for _ in range(1000):
        dao = random_dao(rng)
        assert decode_dao(encode_dao(dao)) == dao


@settings(max_examples=300)
@given(daos)
def test_dao_roundtrip_property(dao):
    assert decode_dao(encode_dao(dao)) == dao


@settings(max_examples=200)
@given(daos)
def test_dao_length_equals_encoded_length(dao):
    assert dao_length(dao) == len(encode_dao(dao))


def test_dao_short_buffer():
    with pytest.raises(msg.DecodeError):
        decode_dao(b"\x00" * 35)


def test_dao_bad_option_length():
    dao = DaoModified(src=node_address(1), target=node_address(2),
                      sequence=0, reserved=0, options=b"abc")
    buf = bytearray(encode_dao(dao))
    buf[36] = 200  # claims more option bytes than present
    with pytest.raises(msg.DecodeError):
        decode_dao(bytes(buf))


def test_dao_decoder_totality_fuzz():
    rng = random.Random(1234)
    outcomes = {"ok": 0, "err": 0}
    for _ in range(10_000):
        buf = rng.randbytes(rng.randrange(0, 80))
        try:
            decode_dao(buf)
            outcomes["ok"] += 1
        except msg.DecodeError:
            outcomes["err"] += 1
    assert outcomes["ok"] + outcomes["err"] == 10_000


def test_status_rejects_reserved_range():
    with pytest.raises(ValueError):
        DaoStatus(originator=node_address(1), status=5)


def test_dis_and_status_hold_only_what_a_handler_reads():
    # the status layout's sequence octet still counts in STATUS_LEN
    assert fields(msg.DisMessage) == ()
    assert [f.name for f in fields(DaoStatus)] == ["originator", "status"]


def test_forged_addresses_never_collide_with_node_block():
    rng = random.Random(11)
    for _ in range(200):
        addr = forged_address(rng)
        assert msg.is_forged_address(addr)
        assert addr[0] != msg.NODE_PREFIX


def test_address_formatting():
    assert msg.format_address(node_address(1)).startswith("fd00:")
    assert msg.format_address(node_address(1)).endswith(":0001")


@given(st.binary(min_size=msg.ADDRESS_LEN, max_size=msg.ADDRESS_LEN))
def test_address_formatting_matches_pairwise_join(addr):
    # reference: eight two-byte groups, hex, joined by colons
    expected = ":".join(addr[i:i + 2].hex() for i in range(0, msg.ADDRESS_LEN, 2))
    assert msg.format_address(addr) == expected
