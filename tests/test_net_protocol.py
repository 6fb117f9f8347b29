"""Wire protocol framing: roundtrips, property tests, malformed input."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net import protocol
from repro.net.protocol import NIL, FrameReader, SimpleString, WireError


def read_one(payload: bytes):
    return FrameReader(io.BytesIO(payload)).read_frame()


class TestEncodingRoundtrips:
    def test_simple_string(self):
        assert read_one(protocol.encode_simple("OK")) == SimpleString("OK")

    def test_error(self):
        frame = read_one(protocol.encode_error("ERR boom"))
        assert isinstance(frame, WireError)
        assert "boom" in str(frame)

    def test_error_strips_crlf_injection(self):
        frame = read_one(protocol.encode_error("bad\r\nmessage"))
        assert isinstance(frame, WireError)

    @pytest.mark.parametrize("value", [0, 1, -1, 42, 10**15, -(10**15)])
    def test_integer(self, value):
        assert read_one(protocol.encode_integer(value)) == value

    def test_bulk_binary_safe(self):
        data = bytes(range(256)) + b"\r\n$*+-:" + bytes(range(256))
        assert read_one(protocol.encode_bulk(data)) == data

    def test_nil(self):
        assert read_one(protocol.encode_nil()) is NIL
        assert not NIL

    def test_empty_bulk_is_not_nil(self):
        frame = read_one(protocol.encode_bulk(b""))
        assert frame == b"" and frame is not NIL

    def test_array(self):
        payload = protocol.encode_array(
            [protocol.encode_bulk(b"a"), protocol.encode_integer(7), protocol.encode_nil()]
        )
        assert read_one(payload) == [b"a", 7, NIL]

    @given(st.lists(st.binary(max_size=200), min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_command_roundtrip(self, args):
        payload = protocol.encode_command(args)
        assert protocol.try_parse_command(payload) == (args, len(payload))

    @given(st.binary(max_size=5000))
    @settings(max_examples=100)
    def test_any_bulk_roundtrips(self, data):
        assert read_one(protocol.encode_bulk(data)) == data


class TestEpochHeader:
    """The ``^<epoch>`` cluster header piggybacked ahead of a reply."""

    def test_epoch_prefix_is_transparent(self):
        reader = FrameReader(
            io.BytesIO(protocol.encode_epoch(7) + protocol.encode_simple("OK"))
        )
        assert reader.read_frame() == SimpleString("OK")
        assert reader.last_epoch == 7

    def test_no_epoch_leaves_last_epoch_none(self):
        reader = FrameReader(io.BytesIO(protocol.encode_simple("OK")))
        reader.read_frame()
        assert reader.last_epoch is None

    def test_last_epoch_persists_across_unstamped_frames(self):
        stream = (
            protocol.encode_epoch(3)
            + protocol.encode_integer(1)
            + protocol.encode_integer(2)
        )
        reader = FrameReader(io.BytesIO(stream))
        assert reader.read_frame() == 1
        assert reader.read_frame() == 2
        assert reader.last_epoch == 3

    def test_newer_epoch_overwrites(self):
        stream = (
            protocol.encode_epoch(3)
            + protocol.encode_integer(1)
            + protocol.encode_epoch(9)
            + protocol.encode_integer(2)
        )
        reader = FrameReader(io.BytesIO(stream))
        reader.read_frame()
        reader.read_frame()
        assert reader.last_epoch == 9

    def test_epoch_without_frame_raises(self):
        with pytest.raises(ProtocolError):
            read_one(protocol.encode_epoch(4))

    def test_negative_epoch_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode_epoch(-1)

    def test_negative_epoch_rejected_on_read(self):
        with pytest.raises(ProtocolError):
            read_one(b"^-2\r\n:1\r\n")

    def test_malformed_epoch_raises(self):
        with pytest.raises(ProtocolError):
            read_one(b"^abc\r\n:1\r\n")

    @given(st.integers(0, 10**12))
    @settings(max_examples=50)
    def test_any_epoch_roundtrips(self, epoch):
        reader = FrameReader(
            io.BytesIO(protocol.encode_epoch(epoch) + protocol.encode_nil())
        )
        assert reader.read_frame() is NIL
        assert reader.last_epoch == epoch


class TestMalformedInput:
    def test_clean_eof_returns_none(self):
        assert read_one(b"") is None

    def test_eof_mid_bulk_raises(self):
        with pytest.raises(ProtocolError):
            read_one(b"$100\r\nshort")

    def test_eof_mid_array_raises(self):
        with pytest.raises(ProtocolError):
            read_one(b"*3\r\n:1\r\n")

    def test_unknown_marker_raises(self):
        with pytest.raises(ProtocolError):
            read_one(b"?what\r\n")

    def test_non_integer_length_raises(self):
        with pytest.raises(ProtocolError):
            read_one(b"$abc\r\n")

    def test_unreasonable_bulk_length_raises(self):
        with pytest.raises(ProtocolError):
            read_one(b"$999999999999\r\n")

    def test_negative_array_length_raises(self):
        with pytest.raises(ProtocolError):
            read_one(b"*-5\r\n")

    def test_missing_crlf_after_bulk_raises(self):
        with pytest.raises(ProtocolError):
            read_one(b"$2\r\nabXX")

    def test_empty_header_line_raises(self):
        with pytest.raises(ProtocolError):
            read_one(b"\r\n")

    def test_torn_request_is_never_a_command(self):
        """A request cut anywhere -- the peer closing mid-request -- is an
        incomplete prefix, never a command and never an error."""
        payload = protocol.encode_command([b"SET", b"key", b"v" * 20])
        for cut in range(len(payload)):
            assert protocol.try_parse_command(payload[:cut]) is None
            assert protocol.CommandParser().feed(payload[:cut])[0] is None

    def test_empty_command_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode_command([])


class TestFuzzing:
    @given(st.binary(max_size=400))
    @settings(max_examples=200)
    def test_random_bytes_never_crash_the_reader(self, junk):
        """Property: arbitrary input either parses, hits clean EOF, or
        raises ProtocolError -- never any other exception, never a hang."""
        reader = FrameReader(io.BytesIO(junk))
        try:
            while reader.read_frame() is not None:
                pass
        except ProtocolError:
            pass

    @given(st.binary(max_size=200), st.integers(0, 199))
    @settings(max_examples=100)
    def test_truncated_valid_frames_raise_cleanly(self, data, cut):
        payload = protocol.encode_bulk(data)
        truncated = payload[: min(cut, len(payload) - 1)]
        reader = FrameReader(io.BytesIO(truncated))
        try:
            reader.read_frame()
        except ProtocolError:
            pass

    @given(st.binary(max_size=400))
    @settings(max_examples=200)
    def test_random_bytes_never_crash_the_parser(self, junk):
        """The request side of the same property: arbitrary bytes parse,
        stay an incomplete prefix, or raise ProtocolError."""
        parser, position = protocol.CommandParser(), 0
        try:
            while True:
                command, position = parser.feed(junk, position)
                if command is None:
                    break
        except ProtocolError:
            pass

    @given(st.lists(st.binary(max_size=60), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_frames_survive_trailing_garbage(self, args):
        """A valid request followed by junk: the request parses, the junk
        fails cleanly."""
        payload = protocol.encode_command(args)
        parser = protocol.CommandParser()
        assert parser.feed(payload + b"\x00garbage\r\n") == (args, len(payload))
        with pytest.raises(ProtocolError):
            parser.feed(payload + b"\x00garbage\r\n", len(payload))


class _CountingBuffer(bytearray):
    """A bytearray that counts the slices taken of the given lengths."""

    counted_lengths: frozenset = frozenset()
    slices = 0

    def __getitem__(self, index):
        if isinstance(index, slice) and index.stop - index.start in self.counted_lengths:
            self.slices += 1
        return super().__getitem__(index)


def _feed_in_slices(parser, payload: bytes, size: int, buffer: bytearray):
    """Drive *parser* the way the event loop does: append a slice, take
    every complete command, drop the consumed bytes."""
    commands = []
    for offset in range(0, len(payload), size):
        buffer += payload[offset:offset + size]
        position = 0
        while True:
            command, position = parser.feed(buffer, position)
            if command is None:
                break
            commands.append(command)
        del buffer[:position]
    return commands


class TestCommandParser:
    """The resumable request parser behind the event-loop engine."""

    def test_large_command_in_small_slices_slices_each_argument_once(self):
        """2 000-pair MSET fed 4 KiB at a time: progress is kept, so the
        work is linear in the command, not slices x command."""
        args: list[bytes] = [b"MSET"]
        for i in range(2000):
            args += [b"key-%07d" % i, b"%037d" % i]  # 11- and 37-byte payloads
        payload = protocol.encode_command(args)
        buffer = _CountingBuffer()
        buffer.counted_lengths = frozenset({4, 11, 37})
        commands = _feed_in_slices(protocol.CommandParser(), payload, 4096, buffer)
        assert commands == [args]
        assert len(payload) > 20 * 4096
        assert len(args) <= buffer.slices <= 2 * len(args)
        assert not buffer  # every consumed byte was dropped along the way

    def test_malformed_continuation_of_a_valid_prefix(self):
        parser = protocol.CommandParser()
        buffer = bytearray(b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nab")
        command, position = parser.feed(buffer, 0)
        assert command is None and buffer[position:] == b"$5\r\nab"
        del buffer[:position]
        buffer += b"cdeXX"  # five bytes, then no CRLF
        with pytest.raises(ProtocolError):
            parser.feed(buffer, 0)
        for bad in (
            b"+OK\r\n", b":5\r\n", b"$1\r\nx\r\n",  # not an array
            b"*0\r\n", b"*" + b"9" * 80,
            b"*1\r\n:1\r\n", b"*1\r\n$-2\r\n", b"*1\r\n$-1\r\n", b"*1\r\n*1\r\n",  # not bulk
        ):
            with pytest.raises(ProtocolError):
                protocol.CommandParser().feed(bad, 0)

    def test_pipelined_tail_after_a_resumed_command(self):
        big = protocol.encode_command([b"SET", b"k", b"v" * 10_000])
        ping = protocol.encode_command([b"PING"])
        get = protocol.encode_command([b"GET", b"k"])
        parser = protocol.CommandParser()
        buffer = bytearray(big[:5000])
        command, position = parser.feed(buffer, 0)
        assert command is None
        del buffer[:position]
        buffer += big[5000:] + ping + get[:-3]
        command, position = parser.feed(buffer, 0)
        assert command == [b"SET", b"k", b"v" * 10_000]
        command, position = parser.feed(buffer, position)
        assert command == [b"PING"]
        command, position = parser.feed(buffer, position)
        assert command is None
        del buffer[:position]
        buffer += get[-3:]
        assert parser.feed(buffer, 0) == ([b"GET", b"k"], len(buffer))

    @given(
        st.lists(st.lists(st.binary(max_size=40), min_size=1, max_size=5), min_size=1, max_size=4),
        st.integers(1, 64),
    )
    @settings(max_examples=150)
    def test_any_split_parses_like_the_one_shot_form(self, commands, size):
        payload = b"".join(protocol.encode_command(args) for args in commands)
        assert _feed_in_slices(protocol.CommandParser(), payload, size, bytearray()) == commands
        one_shot, position = [], 0
        while position < len(payload):
            args, position = protocol.try_parse_command(payload, position)
            one_shot.append(args)
        assert one_shot == commands
        assert protocol.try_parse_command(payload[:-1], len(payload) - len(
            protocol.encode_command(commands[-1]))) is None
