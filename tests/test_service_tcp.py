"""TCP transport tests for the query service (repro.service.server).

``test_service.py`` covers one happy-path round trip; this file exercises
the socket transport as a transport: many sequential requests on one
connection, concurrent clients against the threading server, oversized
frames shed with ``invalid_request`` before admission (connection stays
usable), abrupt client disconnects mid-response, and a clean
``shutdown`` + ``drain`` with connections still open.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.ged import StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex
from repro.service import QueryService, ServiceConfig
from repro.service.server import serve_tcp
from tests.conftest import random_database

BUILD = dict(num_vantage_points=5, seed=7)


@pytest.fixture(scope="module")
def tcp_db():
    return random_database(seed=21, size=30)


@pytest.fixture(scope="module")
def tcp_index(tcp_db):
    return NBIndex.build(tcp_db, StarDistance(), **BUILD)


@pytest.fixture()
def tcp_server(tcp_index):
    """A running service + TCP server on an ephemeral port; always torn
    down, even when the test body raises."""
    service = QueryService(
        tcp_index, config=ServiceConfig(max_request_bytes=2048)
    ).start()
    server = serve_tcp(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, service
    finally:
        server.shutdown()
        server.server_close()
        service.drain()


def _request(address, payload, timeout=10.0):
    """One connection, one request line, one response line."""
    with socket.create_connection(address, timeout=timeout) as sock:
        stream = sock.makefile("rw")
        stream.write(json.dumps(payload) + "\n")
        stream.flush()
        return json.loads(stream.readline())


class TestTCPTransport:
    def test_sequential_requests_share_one_connection(
        self, tcp_server, tcp_db, tcp_index
    ):
        server, _ = tcp_server
        want = tcp_index.query(quartile_relevance(tcp_db), 8.0, 3)
        with socket.create_connection(server.server_address, timeout=10) as sock:
            stream = sock.makefile("rw")
            for request_id in range(3):
                stream.write(json.dumps(
                    {"id": request_id, "theta": 8.0, "k": 3}
                ) + "\n")
                stream.flush()
                response = json.loads(stream.readline())
                assert response["ok"] and response["id"] == request_id
                assert response["result"]["answer"] == want.answer
            stream.write(json.dumps({"id": 99, "op": "ping"}) + "\n")
            stream.flush()
            pong = json.loads(stream.readline())
            assert pong["result"]["pong"] is True

    def test_concurrent_clients_each_get_their_answer(
        self, tcp_server, tcp_db, tcp_index
    ):
        server, _ = tcp_server
        want = tcp_index.query(quartile_relevance(tcp_db), 8.0, 2)
        results: dict[int, dict] = {}
        errors: list[Exception] = []

        def client(client_id: int) -> None:
            try:
                results[client_id] = _request(
                    server.server_address,
                    {"id": client_id, "theta": 8.0, "k": 2},
                )
            except Exception as error:  # surfaced in the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors
        assert sorted(results) == list(range(6))
        for client_id, response in results.items():
            assert response["ok"], response
            assert response["id"] == client_id
            assert response["result"]["answer"] == want.answer

    def test_oversized_frame_is_shed_and_connection_survives(self, tcp_server):
        server, service = tcp_server
        padding = "x" * (service.config.max_request_bytes + 1)
        with socket.create_connection(server.server_address, timeout=10) as sock:
            stream = sock.makefile("rw")
            stream.write(json.dumps(
                {"id": 1, "theta": 8.0, "k": 2, "pad": padding}
            ) + "\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "invalid_request"
            assert "exceeds" in response["error"]["message"]
            # The oversized frame never reached admission...
            assert service.admission.stats()["admitted"] == 0
            # ...and the connection still serves the next request.
            stream.write(json.dumps({"id": 2, "op": "ping"}) + "\n")
            stream.flush()
            assert json.loads(stream.readline())["ok"] is True

    def test_client_disconnect_mid_stream_does_not_kill_the_server(
        self, tcp_server
    ):
        server, _ = tcp_server
        # Write a request and slam the connection shut without reading the
        # response: the handler's write hits a dead socket and must give
        # up quietly rather than take a worker thread down.
        sock = socket.create_connection(server.server_address, timeout=10)
        sock.sendall(
            (json.dumps({"id": 1, "theta": 8.0, "k": 2}) + "\n").encode()
        )
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER,
            __import__("struct").pack("ii", 1, 0),  # RST on close
        )
        sock.close()
        # The server keeps answering new clients afterwards.
        response = _request(server.server_address, {"id": 2, "op": "ping"})
        assert response["ok"] is True

    def test_shutdown_with_open_connection_drains_clean(self, tcp_index):
        service = QueryService(tcp_index).start()
        server = serve_tcp(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        # Hold an idle connection open across the shutdown.
        idle = socket.create_connection(server.server_address, timeout=10)
        try:
            response = _request(
                server.server_address, {"id": 1, "theta": 8.0, "k": 2}
            )
            assert response["ok"]
            server.shutdown()
            server.server_close()
            report = service.drain()
            assert report["clean"] is True
            assert report["cancelled"] == 0
            assert service.admission.completed >= 1
        finally:
            idle.close()
