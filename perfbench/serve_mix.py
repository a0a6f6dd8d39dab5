"""serve-mix: ``repro serve`` under a seeded closed loop of mixed requests.

The server runs in its own process (and process group) with a process
worker pool and a fresh cache directory.  Two connections, each on its
own thread, send one request at a time from their own seeded stream,
in segments of one block (:data:`BLOCK`) per connection; between
segments nothing of the program runs and the speed probe is sampled:

* derives of a hot set primed during set-up (cache reads in the event
  loop);
* derives of never-seen specifications (a worker derivation, then a
  cache write);
* ``lint`` requests;
* a small share of ``profile`` requests, on small specifications only
  (a profile of Example 7 would pin a worker for minutes).

It is the only workload that exercises serve, ``batch.workers`` and
``batch.cache``.  Reads run beside writes, so a change that speeds up
hits by slowing down misses shows in ``hit_latency_p50_ms`` against
``miss_latency_p50_ms``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import resource
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional

import stats
from harness import (ROOT, TMP_DIR, TRACE_DIR, PairedProbe, Workload, digest, op_record,
                     peak_rss_mb)
from inputs import Member, base_texts, expected_entities, goldens, renamed

CONNECTIONS = 2
#: Request kinds in every block of 20 consecutive requests of one
#: connection, in seeded order: the mix is exact in every run, and the
#: median request falls among the lints rather than on the edge between
#: two kinds of very different cost.
BLOCK = ("hot",) * 8 + ("lint",) * 6 + ("miss",) * 5 + ("profile",)
HOT_PLAN = [("pipeline", (8, 3)), ("fan_out_join", (8,)), ("process_chain", (12,)),
            ("choice_ladder", (6, 4)), ("recursion_tower", (4,))]
MISS_PLAN = [("pipeline", (6, 2)), ("fan_out_join", (6,)), ("process_chain", (8,)),
             ("choice_ladder", (4, 3)), ("recursion_tower", (3,)), ("interrupt_stack", (5,)),
             ("EXAMPLE2_COUNTING", ()), ("EXAMPLE4_SEQUENCE", ())]
PROFILE_PLAN = [("EXAMPLE4_SEQUENCE", ()), ("fan_out_join", (4,)), ("choice_ladder", (3, 3)),
                ("EXAMPLE2_COUNTING", ())]
#: Segments (one block per connection each) in each pass of the traced
#: run, per second of ``--seconds``.
TRACED_BLOCKS_PER_SECOND = 2
#: ``repro serve --drain-timeout``; a server not gone this long after
#: SIGTERM (plus a grace period) has failed to drain.
DRAIN_TIMEOUT_S = 10.0
LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
REQUEST_SCHEMA = "repro.serve.request/v1"


class Request(NamedTuple):
    kind: str  # hot / miss / lint / profile
    op: str
    member: Member


def _letters(number: int) -> str:
    """``number`` spelled in letters, so it can extend an event stem."""
    text = ""
    while True:
        number, digit = divmod(number, 26)
        text += chr(ord("a") + digit)
        if number == 0:
            return text


class RequestStream:
    """The seeded request sequence of one connection."""

    def __init__(self, seed: int, connection: int, hot, profile, templates) -> None:
        self.rng = random.Random(f"serve:{seed}:{connection}")
        self.connection = connection
        # Lints draw from the hot set too, in an order of their own.
        self.members = {kind: self.rng.sample(pool, len(pool)) for kind, pool in
                        (("hot", hot), ("lint", hot), ("profile", profile))}
        self.templates = templates
        self.sent = {kind: 0 for kind in BLOCK}
        self.block: List[str] = []

    def next(self) -> Request:
        if not self.block:
            self.block = self.rng.sample(BLOCK, len(BLOCK))
        kind = self.block.pop()
        index = self.sent[kind]
        self.sent[kind] += 1
        if kind != "miss":
            pool = self.members[kind]
            return Request(kind, "derive" if kind == "hot" else kind, pool[index % len(pool)])
        template = self.templates[index % len(self.templates)]
        tag = _letters(self.connection) + "x" + _letters(index)
        text = re.sub(r"\b([a-z][A-Za-z_]*?)(\d+)\b", rf"\1{tag}\2", template.text)
        return Request("miss", "derive", Member(f"miss:{template.name}", text, {},
                                                template.recursive))


class Server:
    """One ``repro serve`` process with its own cache directory."""

    def __init__(self) -> None:
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=TMP_DIR)
        self.log_path = os.path.join(self.dir, "server.log")
        self.log = open(self.log_path, "wb")
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.drained: Optional[bool] = None
        self.leaked = False

    def start(self) -> None:
        """Start the server and wait until ``/healthz`` answers."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--worker-kind", "process", "--workers", "2",
             "--drain-timeout", str(DRAIN_TIMEOUT_S),
             "--cache-dir", os.path.join(self.dir, "cache")],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.log, start_new_session=True,
        )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}")
            with open(self.log_path, encoding="utf-8", errors="replace") as log:
                found = LISTENING.search(log.read())
            if found:
                port = int(found.group(2))
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                try:
                    connection.request("GET", "/healthz")
                    if connection.getresponse().status == 200:
                        return port
                except OSError:
                    pass
                finally:
                    connection.close()
            time.sleep(0.01)
        raise RuntimeError("repro serve did not answer /healthz within 60 s")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def metrics(self) -> Dict[str, float]:
        """The serve counters and gauges of ``GET /metrics``, summed
        over their label series."""
        connection = self.connect()
        try:
            connection.request("GET", "/metrics")
            document = json.loads(connection.getresponse().read())
        finally:
            connection.close()
        values: Dict[str, float] = {}
        for entry in document["metrics"]:
            if entry["type"] in ("counter", "gauge"):
                values[entry["name"]] = sum(series["value"] for series in entry["series"])
        return values

    def stop(self) -> None:
        """SIGTERM and wait for the drain; kill the whole process group
        if it overruns, and reap any worker left in the group."""
        if self.process is None:  # never started
            self.drained = True
        else:
            self._stop(self.process)
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _stop(self, process: subprocess.Popen) -> None:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=DRAIN_TIMEOUT_S + 5)
            self.drained = process.returncode == 0
        except subprocess.TimeoutExpired:
            self.drained = False
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(process.pid, signal.SIGKILL if self.leaked else 0)
            except ProcessLookupError:
                break
            self.leaked = True
            time.sleep(0.05)


#: A stdlib asyncio server that echoes JSON lines: the shape of a
#: request's trip through ``repro serve`` (socket, event loop wake-up,
#: JSON both ways) without any code of the program.
ECHO_SERVER = r"""
import asyncio, json

async def handle(reader, writer):
    while True:
        line = await reader.readline()
        if not line:
            break
        writer.write(json.dumps(json.loads(line)).encode() + b"\n")
        await writer.drain()

async def main():
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    await server.serve_forever()

asyncio.run(main())
"""
#: Round trips to the echo server per sample.
ECHO_ROUND_TRIPS = 20


class ServeProbe(PairedProbe):
    """The speed probe of serve-mix: the reference loop, then round trips
    to an echo server in a process of its own.  A request to
    ``repro serve`` is part computation and part round trips between
    processes.  Both probes run between segments of the closed loop,
    while no request is in flight."""

    OTHER = "echo"
    OTHER_REFERENCE_MS = 3.0

    def __init__(self) -> None:
        super().__init__()
        self.process = subprocess.Popen([sys.executable, "-c", ECHO_SERVER],
                                        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        self.socket = None
        try:
            port = int(self.process.stdout.readline())
            self.socket = socket.create_connection(("127.0.0.1", port), timeout=30)
        except BaseException:
            self.close()
            raise
        self.reader = self.socket.makefile("rb")
        self.payload = json.dumps({"schema": REQUEST_SCHEMA, "spec": "x" * 800,
                                   "options": {}}).encode("utf-8") + b"\n"

    def run_other(self) -> None:
        for _ in range(ECHO_ROUND_TRIPS):
            self.socket.sendall(self.payload)
            self.reader.readline()

    def close(self) -> None:
        if self.socket is not None:
            self.socket.close()
        self.process.terminate()
        self.process.wait()
        self.process.stdout.close()


def post(connection: http.client.HTTPConnection, request: Request):
    body = json.dumps({"schema": REQUEST_SCHEMA, "spec": request.member.text,
                       "options": request.member.options}).encode("utf-8")
    connection.request("POST", f"/v1/{request.op}", body,
                       {"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


class ServeMix(Workload):
    name = "serve-mix"
    probe_class = ServeProbe
    min_samples = 2000  # 4,600-11,760 measured

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.servers: List[Server] = []

    def setup(self) -> None:
        rng = random.Random(f"serve-inputs:{self.seed}")
        self.hot = goldens() + renamed(base_texts(HOT_PLAN), rng)
        self.profile = renamed(base_texts(PROFILE_PLAN), rng)
        self.templates = renamed(base_texts(MISS_PLAN), rng)
        self.server = self.start_server()

    def start_server(self) -> Server:
        server = Server()
        # Registered before it starts, so that teardown stops it even
        # when SIGTERM arrives while it boots.
        self.servers.append(server)
        server.start()
        connection = server.connect()
        try:
            for member in self.hot:  # prime the cache
                status, _ = post(connection, Request("hot", "derive", member))
                if status != 200:
                    raise RuntimeError(f"priming {member.name} answered {status}")
        finally:
            connection.close()
        return server

    def streams(self) -> List[RequestStream]:
        return [RequestStream(self.seed, index, self.hot, self.profile, self.templates)
                for index in range(CONNECTIONS)]

    def input_texts(self) -> List[str]:
        return [member.text for member in self.hot + self.profile + self.templates]

    # ------------------------------------------------------------------
    def closed_loop(self, server: Server, seconds: Optional[float] = None,
                    blocks: Optional[int] = None):
        """Run the closed loop in segments until ``seconds`` of them have
        passed or ``blocks`` segments have run.

        In a segment each connection sends one block of requests; then
        both wait at a barrier, where the speed probe is sampled while
        nothing of the program runs, and the next segment starts.  The
        returned wall time is the sum of the segments, probes excluded."""
        streams = self.streams()
        results: List[List[tuple]] = [[] for _ in streams]
        failures: List[BaseException] = []
        state = {"wall": 0.0, "segments": 0, "stop": False,
                 "start": time.perf_counter()}

        def between_segments() -> None:
            state["wall"] += time.perf_counter() - state["start"]
            state["segments"] += 1
            if self.probe is not None:
                self.probe.sample()
            state["stop"] = bool(
                failures
                or (seconds is not None and state["wall"] >= seconds)
                or (blocks is not None and state["segments"] >= blocks))
            state["start"] = time.perf_counter()

        barrier = threading.Barrier(len(streams), action=between_segments)

        def client(index: int) -> None:
            connection = server.connect()
            try:
                while not state["stop"]:
                    try:
                        for _ in BLOCK:
                            request = streams[index].next()
                            sent = time.perf_counter()
                            status, body = post(connection, request)
                            results[index].append(
                                (request, sent, time.perf_counter(), status, body))
                    except Exception as exc:  # reported after the join
                        failures.append(exc)
                    barrier.wait()
            finally:
                connection.close()

        threads = [threading.Thread(target=client, args=(index,)) for index in range(len(streams))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise RuntimeError(f"client connection failed: {failures[0]!r}")
        ops = [self.to_op(index, position, *entry)
               for index, entries in enumerate(results)
               for position, entry in enumerate(entries)]
        return ops, state["wall"]

    def to_op(self, connection, position, request, sent, received, status, body):
        from repro.obs.schema import validate_serve_response

        error = None
        try:
            document = json.loads(body)
        except ValueError:
            document = {}
            error = "response is not JSON"
        problems = validate_serve_response(document) if error is None else []
        if problems:
            error = "; ".join(problems)
        elif status != 200 or not document.get("ok"):
            error = f"HTTP {status}"
        result = document.get("result") or {}
        exact = True
        repeat = None
        if request.op == "derive":
            repeat = document.get("cache") == "hit"
        if request.op == "profile":
            exact = (result.get("verification") or {}).get("method") == "weak-bisimulation"
        op = op_record(f"{request.kind}:{request.member.name}", received - sent,
                       normalize(result), request.member.recursive, repeat,
                       exact=exact)
        op.update(error=error, request=request, position=(connection, position),
                  server_s=document.get("duration_s", 0.0),
                  cache=document.get("cache"))
        return op

    def measure(self, seconds: float):
        self.probe = self.probe_class()
        try:
            self.probe.sample()
            ops, wall = self.closed_loop(self.server, seconds=seconds)
        finally:
            self.probe.close()
        return ops, wall, {"requests": len(ops), **self.probe.parts()}

    def measure_traced(self, seconds: float):
        """The same fixed request sequence against two fresh servers:
        untraced, then traced (client spans plus ``GET /metrics``).
        The server is a separate process, so tracing adds nothing
        inside it; what it records is the client's view of every request
        and the server's own counters."""
        blocks = max(1, int(seconds * TRACED_BLOCKS_PER_SECOND))
        plain, plain_wall = self.closed_loop(self.server, blocks=blocks)
        self.server.stop()
        self.server = self.start_server()
        before = self.server.metrics()
        traced, traced_wall = self.closed_loop(self.server, blocks=blocks)
        after = self.server.metrics()
        delta = {name: after.get(name, 0.0) - before.get(name, 0.0) for name in after}
        spans = [{"op": op["key"], "connection": op["position"][0],
                  "latency_s": op["latency_s"], "server_s": op["server_s"],
                  "cache": op["cache"]} for op in traced]
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        (TRACE_DIR / f"{self.name}-seed{self.seed}.json").write_text(
            json.dumps({"ops": spans}, sort_keys=True) + "\n")
        mismatches = 0
        by_position = {op["position"]: op for op in plain}
        for op in traced:
            twin = by_position.get(op["position"])
            if twin is None or (digest(twin["output"]), twin["cache"]) != (digest(op["output"]), op["cache"]):
                mismatches += 1
                self.errors.append(f"traced output differs from untraced: {op['key']}")
        hits = delta.get("serve.cache.hits", 0.0)
        lookups = hits + delta.get("serve.cache.misses", 0.0)
        client_p50 = stats.median([op["latency_s"] * 1000 for op in traced])
        server_p50 = stats.median([op["server_s"] * 1000 for op in traced])
        layers = {
            "serve.cache.hit_share": hits / lookups if lookups else 0.0,
            "serve.derivations": delta.get("serve.derivations", 0.0),
            "serve.shed": delta.get("serve.shed", 0.0),
            "serve.timeouts": delta.get("serve.timeouts", 0.0),
            "serve.inflight_high_water": after.get("serve.inflight_high_water", 0.0),
            "serve.pool.respawns": after.get("serve.pool.respawns", 0.0),
            "serve.server_p50_ms": server_p50,
            "serve.transport_ms": client_p50 - server_p50,
            "trace.overhead_s": traced_wall - plain_wall,
        }
        detail = {
            "requests_per_pass": len(traced),
            "output_mismatches": mismatches,
            "counts": {"serve.derivations": layers["serve.derivations"]},
        }
        return plain + traced, layers, detail

    # ------------------------------------------------------------------
    def teardown(self) -> None:
        for server in self.servers:
            if server.drained is None:
                server.stop()
            if not server.drained:
                self.errors.append("repro serve did not drain after SIGTERM")
            if server.leaked:
                self.errors.append("a serve worker outlived its server")

    def peak_rss_mb(self) -> float:
        """Largest resident set in the server process tree (the server
        and the pool workers it reaped)."""
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def check(self, ops) -> None:
        """Every response is compared with the same operation run in this
        process; golden derives must also reproduce ``.expected``."""
        from repro.batch.workers import TASKS

        references: Dict[tuple, Any] = {}
        for op in ops:
            if op["error"]:
                continue
            request: Request = op["request"]
            member = request.member
            key = (request.op, member.text)
            if key not in references:
                references[key] = normalize(TASKS[request.op](member.text, member.options or None))
            if op["output"] != references[key]:
                op["error"] = "response differs from the in-process result"
            elif request.op == "derive" and member.golden:
                entities = {int(place): text.strip()
                            for place, text in op["output"]["entities"].items()}
                if entities != expected_entities(member.golden):
                    op["error"] = "differs from the golden .expected"


def normalize(result: Dict[str, Any]) -> Dict[str, Any]:
    """A response result without what legitimately varies between
    runs: worker-local traces and metrics."""
    return {key: value for key, value in result.items() if key not in ("trace", "metrics")}

