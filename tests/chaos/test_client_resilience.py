"""Client behaviour under a hostile server: Retry-After, stale
connections, retry journeys and the circuit breaker.

A tiny scripted HTTP server plays the hostile side: each accepted
connection serves the next canned response and then (optionally) drops
the socket without a ``Connection: close`` header — exactly the
condition that makes a kept-alive client connection go stale.
"""

import asyncio
import json
import time

import pytest

from repro.serve.client import AsyncServeClient, ServeClient, ServeError
from repro.serve.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
)

OK_BODY = json.dumps({"ok": True, "result": {"fine": True}}).encode()
SHED_BODY = json.dumps({"ok": False, "status": 503}).encode()


class ScriptedServer:
    """Serves one canned response per request, in script order.

    Each script entry is ``(status, extra_headers, body, close_after)``.
    ``close_after=True`` hard-closes the connection after the response
    without announcing it — the stale keep-alive trap.
    """

    def __init__(self, script):
        self.script = list(script)
        self.served = 0
        self.connections = 0
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        self.connections += 1
        try:
            while self.script:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                if length:
                    await reader.readexactly(length)
                status, headers, body, close_after = self.script.pop(0)
                self.served += 1
                reason = {200: "OK", 503: "Service Unavailable",
                          500: "Internal Server Error"}.get(status, "Status")
                lines = [f"HTTP/1.1 {status} {reason}",
                         "Content-Type: application/json",
                         f"Content-Length: {len(body)}"]
                lines += [f"{k}: {v}" for k, v in headers.items()]
                writer.write(
                    ("\r\n".join(lines) + "\r\n\r\n").encode() + body
                )
                await writer.drain()
                if close_after:
                    return  # hard close, no Connection: close announced
        finally:
            writer.close()


def sync_request(port, script_server, **client_kwargs):
    with ServeClient("127.0.0.1", port, timeout=5.0, **client_kwargs) as client:
        status, envelope = client.request("POST", "/v1/derive", {"x": 1})
        return status, envelope, client.last_retry


class TestRetryAfterSurfacing:
    def test_async_client_attaches_parsed_retry_after(self):
        async def scenario():
            script = [(503, {"Retry-After": "7"}, SHED_BODY, False)]
            async with ScriptedServer(script) as server:
                client = AsyncServeClient("127.0.0.1", server.port, timeout=5.0)
                try:
                    status, envelope = await client.request(
                        "POST", "/v1/derive", {"x": 1}
                    )
                finally:
                    await client.close()
            return status, envelope

        status, envelope = asyncio.run(scenario())
        assert status == 503
        assert envelope["retry_after"] == 7.0

    def test_sync_client_attaches_parsed_retry_after(self):
        async def scenario():
            script = [(503, {"Retry-After": "0.5"}, SHED_BODY, False)]
            async with ScriptedServer(script) as server:
                return await asyncio.to_thread(sync_request, server.port, None)

        status, envelope, _ = asyncio.run(scenario())
        assert status == 503
        assert envelope["retry_after"] == 0.5

    def test_no_header_means_no_attachment(self):
        async def scenario():
            script = [(200, {}, OK_BODY, False)]
            async with ScriptedServer(script) as server:
                return await asyncio.to_thread(sync_request, server.port, None)

        status, envelope, _ = asyncio.run(scenario())
        assert status == 200
        assert "retry_after" not in envelope

    def test_serve_error_carries_retry_after_attribute(self):
        error = ServeError("shed", retry_after=2.0)
        assert error.retry_after == 2.0
        assert ServeError("plain").retry_after is None


class TestStaleConnectionReconnect:
    def test_async_reused_connection_eof_reconnects_once(self):
        """Request 2 rides a kept-alive socket the server already
        dropped; the client must reconnect and resend, not fail."""

        async def scenario():
            script = [
                (200, {}, OK_BODY, True),   # served, then hard close
                (200, {}, OK_BODY, False),  # served on the reconnect
            ]
            async with ScriptedServer(script) as server:
                client = AsyncServeClient("127.0.0.1", server.port, timeout=5.0)
                try:
                    first, _ = await client.request("POST", "/v1/derive", {})
                    await asyncio.sleep(0.05)  # let the close land
                    second, _ = await client.request("POST", "/v1/derive", {})
                finally:
                    await client.close()
                return first, second, server.connections

        first, second, connections = asyncio.run(scenario())
        assert first == 200
        assert second == 200
        assert connections == 2  # one reconnect, exactly

    def test_async_fresh_connection_failure_is_a_real_error(self):
        """A *fresh* connection dying is not retried as stale."""

        async def scenario():
            async with ScriptedServer([]) as server:  # drops immediately
                client = AsyncServeClient("127.0.0.1", server.port, timeout=5.0)
                try:
                    await client.request("POST", "/v1/derive", {})
                finally:
                    await client.close()

        with pytest.raises(ServeError):
            asyncio.run(scenario())


class TestRetryJourneys:
    def fast_policy(self, **kwargs):
        defaults = dict(max_attempts=3, base_delay=0.001, max_delay=0.005,
                        jitter=0.0)
        defaults.update(kwargs)
        return RetryPolicy(**defaults)

    def test_shed_then_recovered(self):
        async def scenario():
            script = [
                (503, {"Retry-After": "0"}, SHED_BODY, False),
                (200, {}, OK_BODY, False),
            ]
            async with ScriptedServer(script) as server:
                client = AsyncServeClient(
                    "127.0.0.1", server.port, timeout=5.0,
                    retry=self.fast_policy(),
                )
                try:
                    status, envelope = await client.request(
                        "POST", "/v1/derive", {}
                    )
                finally:
                    await client.close()
                return status, envelope, client.last_retry

        status, envelope, state = asyncio.run(scenario())
        assert status == 200
        assert envelope["ok"]
        assert state.attempts == 2
        assert state.retried and not state.exhausted
        assert state.statuses == [503, 200]

    def test_budget_exhaustion_returns_the_last_failure(self):
        async def scenario():
            script = [(503, {"Retry-After": "0"}, SHED_BODY, False)] * 3
            async with ScriptedServer(script) as server:
                client = AsyncServeClient(
                    "127.0.0.1", server.port, timeout=5.0,
                    retry=self.fast_policy(max_attempts=3),
                )
                try:
                    status, _ = await client.request("POST", "/v1/derive", {})
                finally:
                    await client.close()
                return status, client.last_retry, server.served

        status, state, served = asyncio.run(scenario())
        assert status == 503
        assert state.exhausted
        assert state.attempts == 3
        assert served == 3

    def test_sync_client_retries_too(self):
        async def scenario():
            script = [
                (500, {}, SHED_BODY, False),
                (200, {}, OK_BODY, False),
            ]
            async with ScriptedServer(script) as server:
                return await asyncio.to_thread(
                    sync_request, server.port, None,
                    retry=self.fast_policy(),
                )

        status, envelope, state = asyncio.run(scenario())
        assert status == 200
        assert state.attempts == 2
        assert state.statuses == [500, 200]

    def test_non_retryable_status_is_not_retried(self):
        async def scenario():
            script = [(200, {}, OK_BODY, False)]
            async with ScriptedServer(script) as server:
                client = AsyncServeClient(
                    "127.0.0.1", server.port, timeout=5.0,
                    retry=self.fast_policy(),
                )
                try:
                    status, _ = await client.request("POST", "/v1/derive", {})
                finally:
                    await client.close()
                return status, client.last_retry, server.served

        status, state, served = asyncio.run(scenario())
        assert status == 200
        assert state.attempts == 1 and served == 1


class TestBreakerWiring:
    def test_breaker_opens_and_refuses_without_touching_the_server(self):
        async def scenario():
            script = [(500, {}, SHED_BODY, False)] * 2
            async with ScriptedServer(script) as server:
                breaker = CircuitBreaker(failure_threshold=2)
                client = AsyncServeClient(
                    "127.0.0.1", server.port, timeout=5.0, breaker=breaker,
                )
                try:
                    await client.request("POST", "/v1/derive", {})
                    await client.request("POST", "/v1/derive", {})
                    assert breaker.state == "open"
                    with pytest.raises(CircuitOpenError):
                        await client.request("POST", "/v1/derive", {})
                finally:
                    await client.close()
                return server.served

        assert asyncio.run(scenario()) == 2  # third request never sent

    def test_success_keeps_the_breaker_closed(self):
        async def scenario():
            script = [(500, {}, SHED_BODY, False), (200, {}, OK_BODY, False)]
            async with ScriptedServer(script) as server:
                breaker = CircuitBreaker(failure_threshold=2)
                client = AsyncServeClient(
                    "127.0.0.1", server.port, timeout=5.0, breaker=breaker,
                )
                try:
                    await client.request("POST", "/v1/derive", {})
                    await client.request("POST", "/v1/derive", {})
                finally:
                    await client.close()
                return breaker.state

        assert asyncio.run(scenario()) == "closed"

    def test_sync_breaker_wiring(self):
        thread_result = {}

        async def scenario():
            script = [(500, {}, SHED_BODY, False)] * 2
            async with ScriptedServer(script) as server:
                breaker = CircuitBreaker(failure_threshold=2)

                def drive():
                    with ServeClient(
                        "127.0.0.1", server.port, timeout=5.0, breaker=breaker
                    ) as client:
                        client.request("POST", "/v1/derive", {})
                        client.request("POST", "/v1/derive", {})
                        try:
                            client.request("POST", "/v1/derive", {})
                        except CircuitOpenError:
                            thread_result["refused"] = True

                await asyncio.to_thread(drive)
                return server.served

        assert asyncio.run(scenario()) == 2
        assert thread_result.get("refused")


class TestConnectTimeout:
    """An unresponsive host: the connect is under the client timeout."""

    @pytest.fixture()
    def hanging_connect(self, monkeypatch):
        async def never_connects(*args, **kwargs):
            await asyncio.Event().wait()

        monkeypatch.setattr(asyncio, "open_connection", never_connects)

    def test_async_client_connect_times_out(self, hanging_connect):
        async def scenario():
            client = AsyncServeClient("127.0.0.1", 9, timeout=0.2)
            started = time.monotonic()
            with pytest.raises(ServeError, match="timed out"):
                # The outer bound only keeps a regression from hanging.
                await asyncio.wait_for(client.request("GET", "/healthz"), 10)
            return time.monotonic() - started

        assert asyncio.run(scenario()) < 2.0

    def test_sync_client_connect_times_out(self, hanging_connect):
        started = time.monotonic()
        with ServeClient("127.0.0.1", 9, timeout=0.2) as client:
            with pytest.raises(ServeError, match="timed out"):
                client.healthz()
        assert time.monotonic() - started < 2.0
