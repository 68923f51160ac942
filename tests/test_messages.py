"""Wire-codec round trips, layout pins and decoder totality."""

import copy
import io
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisec_rtf import messages as msg
from lisec_rtf.config import ARMS, SimParams
from lisec_rtf.engine import build_random_world
from lisec_rtf.messages import (
    STATUS_NACK,
    DaoModified,
    DaoStatus,
    DioMessage,
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
    assert msg.DisMessage._fields == () and len(msg.DisMessage()) == 0
    assert DaoStatus._fields == ("originator", "status")
    assert len(DaoStatus(node_address(1), msg.STATUS_ACK)) == 2


_A = node_address(1)


@pytest.mark.parametrize("make, error", [
    (lambda: DioMessage(sender=bytearray(_A), rank=256), "sender must be 16 bytes"),
    (lambda: DioMessage(sender=_A[:15], rank=256), "sender must be 16 bytes"),
    (lambda: DioMessage(sender="fd00", rank=256), "sender must be 16 bytes"),
    (lambda: DioMessage(sender=_A, rank=-1), "rank must fit 16 bits"),
    (lambda: DioMessage(sender=_A, rank=1 << 16), "rank must fit 16 bits"),
    (lambda: DaoModified(src=bytearray(_A), target=_A, sequence=0, reserved=0),
     "src must be 16 bytes"),
    (lambda: DaoModified(src=_A, target=_A + b"\0", sequence=0, reserved=0),
     "target must be 16 bytes"),
    (lambda: DaoModified(src=_A, target=None, sequence=0, reserved=0),
     "target must be 16 bytes"),
    (lambda: DaoModified(src=_A, target=_A, sequence=256, reserved=0),
     "sequence must be one octet"),
    (lambda: DaoModified(src=_A, target=_A, sequence=-1, reserved=0),
     "sequence must be one octet"),
    (lambda: DaoModified(src=_A, target=_A, sequence=0, reserved=256),
     "reserved must be one octet"),
    (lambda: DaoModified(src=_A, target=_A, sequence=0, reserved=0,
                         options=b"\0" * 256), "options longer than 255 bytes"),
    (lambda: DaoStatus(originator=bytearray(_A), status=0),
     "originator must be 16 bytes"),
    (lambda: DaoStatus(originator=_A, status=5), r"status must be 0 or in \[128, 255\]"),
    (lambda: DaoStatus(originator=_A, status=256), r"status must be 0 or in \[128, 255\]"),
])
def test_every_bad_field_is_refused_by_name(make, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        make()


def test_an_address_of_a_bytes_subclass_is_judged_by_its_length():
    class Address(bytes):
        pass

    assert DaoStatus(Address(_A), 0).originator == _A
    with pytest.raises(ValueError, match="^sender must be 16 bytes$"):
        DioMessage(Address(_A[:8]), 0)


@pytest.mark.parametrize("message", [
    msg.DisMessage(), DioMessage(_A, 256), DaoStatus(_A, STATUS_NACK),
    DaoModified(src=_A, target=_A, sequence=1, reserved=2, options=b"x"),
], ids=lambda m: type(m).__name__)
def test_messages_are_immutable(message):
    for name in (*message._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(message, name, _A)
    assert repr(message).startswith(f"{type(message).__name__}(")
    for twin in (copy.copy(message), pickle.loads(pickle.dumps(message))):
        assert type(twin) is type(message) and twin == message


def test_no_code_compares_messages_of_different_types(monkeypatch):
    # tuples compare by content, so DioMessage(a, 0) == DaoStatus(a, 0);
    # a run of every arm, traced and mobile, must never ask
    mixed = []

    def checked(op):
        def compare(self, other):
            if type(self) is not type(other):
                mixed.append((type(self).__name__, type(other).__name__))
            return op(self, other)
        return compare

    for cls in (msg.DisMessage, DioMessage, DaoModified, DaoStatus):
        monkeypatch.setattr(cls, "__eq__", checked(tuple.__eq__))
        monkeypatch.setattr(cls, "__ne__", checked(tuple.__ne__))
    assert DioMessage(_A, 0) == DaoStatus(_A, 0) and mixed  # the spy sees it
    mixed.clear()
    params = SimParams(duration_s=300.0, grid_m=140.0, startup_stagger_s=60.0,
                       data_warmup_s=120.0, rt_cap=6, root_rt_cap=24)
    for arm in ARMS:
        for mobility in (False, True):
            w = build_random_world(params, ARMS[arm], 1, n_clients=12, n_attackers=1,
                                   mobility=mobility, trace=io.StringIO())
            w.run()
    assert mixed == []


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


@pytest.mark.parametrize("index", [-1, 1 << 16])
def test_node_index_outside_16_bits_refused(index):
    # no other test reaches this check
    with pytest.raises(ValueError, match="^node index out of range$"):
        node_address(index)
