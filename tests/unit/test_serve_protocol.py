"""Unit tests for the serve wire format (repro.serve.protocol)."""

import json

import pytest

from repro.explore import Evaluator
from repro.serve import protocol
from repro.serve.protocol import ProtocolError

POINTS = [
    {"arch": "qla", "factory_area": 40.0},
    {"arch": "qla", "factory_area": 80.0},
]


class TestRequestRoundtrip:
    def test_roundtrip(self):
        body = protocol.encode_request("qcla", 32, POINTS)
        request = protocol.decode_request(body)
        assert request == {"kernel": "qcla", "width": 32, "points": POINTS}

    def test_engine_field_from_older_clients_ignored(self):
        raw = json.dumps(
            {"kernel": "qrca", "width": 8, "engine": "legacy", "points": POINTS}
        ).encode()
        assert protocol.decode_request(raw) == {
            "kernel": "qrca", "width": 8, "points": POINTS,
        }

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"kernel": ""}, "kernel"),
            ({"kernel": 3}, "kernel"),
            ({"width": 0}, "width"),
            ({"width": True}, "width"),
            ({"width": "32"}, "width"),
            ({"width": -8}, "width"),
            ({"points": []}, "points"),
            ({"points": "all"}, "points"),
            ({"points": [["arch", "qla"]]}, "point"),
        ],
    )
    def test_invalid_requests_rejected(self, mutation, match):
        document = {"kernel": "qrca", "width": 8, "points": POINTS}
        document.update(mutation)
        with pytest.raises(ProtocolError, match=match):
            protocol.decode_request(json.dumps(document).encode())

    def test_garbage_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="JSON"):
            protocol.decode_request(b"\x00\xffnot json")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            protocol.decode_request(b"[1, 2]")


class TestResponseRoundtrip:
    @pytest.fixture(scope="class")
    def evaluations(self):
        return Evaluator(kernel="qrca", width=8).evaluate(POINTS)

    def test_evaluations_roundtrip_bit_identically(self, evaluations):
        payload = protocol.encode_response(evaluations, {"simulations_run": 2})
        decoded, stats = protocol.decode_response(payload)
        assert stats == {"simulations_run": 2}
        assert len(decoded) == len(evaluations)
        for have, want in zip(decoded, evaluations):
            assert have.point == want.point
            assert have.result == want.result
            assert have.factory_area == want.factory_area
            assert have.data_area == want.data_area
            assert have.total_area == want.total_area
            assert have.from_cache == want.from_cache
            assert have.ok

    def test_failed_evaluation_roundtrips(self, evaluations):
        from repro.explore.evaluator import Evaluation

        failed = Evaluation(
            point=evaluations[0].point,
            result=None,
            factory_area=0.0,
            data_area=0.0,
            total_area=0.0,
            error="PoisonPoint: injected",
        )
        decoded, _ = protocol.decode_response(
            protocol.encode_response([failed], {})
        )
        assert not decoded[0].ok
        assert decoded[0].result is None
        assert decoded[0].error == "PoisonPoint: injected"

    def test_torn_body_raises_protocol_error(self, evaluations):
        payload = protocol.encode_response(evaluations, {})
        with pytest.raises(ProtocolError):
            protocol.decode_response(payload[: len(payload) // 2])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ProtocolError, match="evaluations"):
            protocol.decode_response(b'{"stats": {}}')


class TestErrors:
    def test_error_roundtrip(self):
        assert protocol.error_message(protocol.encode_error("boom")) == "boom"

    def test_error_message_survives_garbage(self):
        assert "oops" in protocol.error_message(b"oops, not json")
        protocol.error_message(b"\xff\xfe")  # must not raise
