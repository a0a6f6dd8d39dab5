"""Clients for the derivation server.

One request core, standard-library only:

* :class:`AsyncServeClient` — an asyncio client over one persistent
  connection, sharing the server's own wire implementation
  (:func:`repro.serve.protocol.read_response`); the load generator
  runs many of these concurrently;
* :class:`ServeClient` — a blocking wrapper that drives one
  :class:`AsyncServeClient` on a private event loop; the right tool
  for scripts, examples and benchmarks.  It may be called from any
  thread that is not already running an event loop.

Both speak the versioned envelopes (``repro.serve.request/v1`` in,
``repro.serve.response/v1`` out).  Transport failures raise
:class:`ServeError`; HTTP-level failures do *not* raise — the response
envelope carries ``ok``/``status``/``error`` and callers decide.  When
the server sheds with ``Retry-After`` the parsed delay is surfaced as
``envelope["retry_after"]`` (seconds) so callers — and the retry layer
— can honor it.  ``timeout`` bounds each attempt's connect and each
attempt's response read; either one running out is a
:class:`ServeError`.

Both clients optionally take a :class:`repro.serve.resilience.RetryPolicy`
and/or :class:`~repro.serve.resilience.CircuitBreaker`.  Without them
(the default) behaviour is exactly the pre-resilience single attempt;
with a policy, retryable statuses (500/503/504) and transport errors
are retried under backoff and deadline budgets, and the final
:class:`~repro.serve.resilience.RetryState` is exposed as
``client.last_retry`` for outcome classification.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.obs.schema import SERVE_REQUEST_SCHEMA
from repro.serve.protocol import ProtocolError, read_response
from repro.serve.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    RetryState,
    parse_retry_after,
)


class ServeError(Exception):
    """The server could not be reached or broke the wire protocol.

    ``retry_after`` carries the server's parsed ``Retry-After`` hint
    (seconds) when the failure came with one, else ``None``.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


def request_document(
    spec: str, options: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """One ``repro.serve.request/v1`` body."""
    document: Dict[str, Any] = {"schema": SERVE_REQUEST_SCHEMA, "spec": spec}
    if options:
        document["options"] = dict(options)
    return document


def _parse_envelope(
    payload: bytes, retry_after_header: Optional[str]
) -> Tuple[Dict[str, Any], Optional[float]]:
    """The JSON body, with a parsed ``Retry-After`` surfaced on it."""
    try:
        parsed = json.loads(payload.decode("utf-8")) if payload else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"non-JSON response body: {exc}") from exc
    retry_after = parse_retry_after(retry_after_header)
    if retry_after is not None and isinstance(parsed, dict):
        parsed["retry_after"] = retry_after
    return parsed, retry_after


class AsyncServeClient:
    """One persistent asyncio connection; the load generator's unit."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.breaker = breaker
        self.last_retry: Optional[RetryState] = None
        self._request_index = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    @classmethod
    async def connect(
        cls, host: str, port: int, timeout: float = 60.0, **kwargs: Any
    ) -> "AsyncServeClient":
        client = cls(host, port, timeout=timeout, **kwargs)
        await client._ensure_connected()
        return client

    def _attempt_timeout(self) -> float:
        if self.retry is not None and self.retry.per_attempt_timeout:
            return self.retry.per_attempt_timeout
        return self.timeout

    async def _ensure_connected(self) -> bool:
        """Connect if needed; returns True when the link was *reused*."""
        if self._writer is not None and not self._writer.is_closing():
            return True
        timeout = self._attempt_timeout()
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), timeout=timeout
            )
        except asyncio.TimeoutError as exc:
            raise ServeError(
                f"cannot connect to {self.host}:{self.port}: "
                f"timed out after {timeout}s"
            ) from exc
        except OSError as exc:
            raise ServeError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        return False

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except Exception:
                pass
            self._reader = self._writer = None

    # ------------------------------------------------------------------
    async def _request_once(
        self,
        method: str,
        path: str,
        body: bytes,
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        """One attempt; a *reused* connection that died gets one
        reconnect-and-resend before the attempt fails.

        The server drains and restarts between our requests more often
        than one would hope; the EOF only shows up when we try the
        kept-alive socket.  A fresh connection failing is a real error.
        """
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        ).encode("latin-1")
        timeout = self._attempt_timeout()
        for attempt in (1, 2):
            reused = await self._ensure_connected()
            try:
                self._writer.write(head + body)
                await self._writer.drain()
                status, headers, payload = await asyncio.wait_for(
                    read_response(self._reader), timeout=timeout
                )
                break
            except asyncio.TimeoutError as exc:
                await self.close()
                raise ServeError(
                    f"{method} {path} to {self.host}:{self.port} "
                    f"timed out after {timeout}s"
                ) from exc
            except (
                ProtocolError,
                ConnectionError,
                asyncio.IncompleteReadError,
                OSError,
            ) as exc:
                await self.close()
                if reused and attempt == 1:
                    continue  # stale keep-alive: reconnect once
                raise ServeError(
                    f"{method} {path} to {self.host}:{self.port} "
                    f"failed: {exc}"
                ) from exc
        if headers.get("connection", "").lower() == "close":
            await self.close()
        parsed, retry_after = _parse_envelope(payload, headers.get("retry-after"))
        return status, parsed, retry_after

    async def _guarded_once(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        """One attempt through the circuit breaker (if any)."""
        if self.breaker is not None and not self.breaker.allow():
            raise CircuitOpenError(
                f"circuit open for {self.host}:{self.port}"
            )
        try:
            status, parsed, retry_after = await self._request_once(
                method, path, body
            )
        except ServeError:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            if status >= 500:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
        return status, parsed, retry_after

    async def request(
        self,
        method: str,
        path: str,
        document: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One round trip; raises :class:`ServeError` on transport failure.

        With a :class:`RetryPolicy` installed, retryable statuses and
        transport errors are retried under backoff; the final journey
        is ``self.last_retry``.
        """
        body = (
            json.dumps(document).encode("utf-8") if document is not None else b""
        )
        if self.retry is None:
            status, parsed, _ = await self._guarded_once(method, path, body)
            return status, parsed
        self._request_index += 1
        state = self.retry.start(seed_offset=self._request_index)
        self.last_retry = state
        while True:
            error: Optional[ServeError] = None
            status: Optional[int] = None
            parsed: Dict[str, Any] = {}
            retry_after: Optional[float] = None
            try:
                status, parsed, retry_after = await self._guarded_once(
                    method, path, body
                )
            except ServeError as exc:
                error = exc
                retry_after = exc.retry_after
            state.record_attempt(status)
            if error is None and not self.retry.retryable_status(status):
                state.finish(recovered=state.retried and status < 400)
                return status, parsed
            delay = state.next_delay(retry_after)
            if delay is None:  # budget spent: exhausted
                state.finish(recovered=False)
                if error is not None:
                    raise error
                return status, parsed
            await asyncio.sleep(delay)

    async def post_op(
        self,
        op: str,
        spec: str,
        options: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        return await self.request(
            "POST", f"/v1/{op}", request_document(spec, options)
        )


class ServeClient:
    """Blocking client: drives one :class:`AsyncServeClient` (one
    keep-alive connection, reconnects on demand) on a private event
    loop, created on first use and closed by :meth:`close`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8437,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self._client = AsyncServeClient(
            host, port, timeout=timeout, retry=retry, breaker=breaker
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def last_retry(self) -> Optional[RetryState]:
        return self._client.last_retry

    def _run(self, coroutine: Any) -> Any:
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        return self._loop.run_until_complete(coroutine)

    def close(self) -> None:
        if self._loop is not None:
            self._loop.run_until_complete(self._client.close())
            self._loop.close()
            self._loop = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        document: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One round trip; returns ``(status, parsed JSON body)``.

        With a :class:`RetryPolicy` installed, retryable statuses and
        transport errors are retried under backoff until the policy's
        budgets run out; the final journey is ``self.last_retry``.
        """
        return self._run(self._client.request(method, path, document))

    def _op(
        self, op: str, spec: str, options: Optional[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        _, envelope = self._run(self._client.post_op(op, spec, options))
        return envelope

    def derive(
        self, spec: str, options: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Derive; returns the response envelope (check ``ok``)."""
        return self._op("derive", spec, options)

    def lint(
        self, spec: str, options: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        return self._op("lint", spec, options)

    def profile(
        self, spec: str, options: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        return self._op("profile", spec, options)

    def healthz(self) -> Dict[str, Any]:
        status, document = self.request("GET", "/healthz")
        if status != 200:
            raise ServeError(f"/healthz answered {status}")
        return document

    def metrics(self) -> Dict[str, Any]:
        status, document = self.request("GET", "/metrics")
        if status != 200:
            raise ServeError(f"/metrics answered {status}")
        return document
