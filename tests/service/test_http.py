"""HTTP/JSON API: submit -> status -> cancel end to end over a socket."""

import asyncio
import json
import urllib.error
import urllib.request

from repro.cluster import Cluster
from repro.core import TetriSchedConfig
from repro.service import FakeClock, SchedulerService, serve


def build_service(tmp_path=None):
    cluster = Cluster.build(racks=2, nodes_per_rack=2, gpu_racks=1)
    cfg = TetriSchedConfig(quantum_s=10.0, cycle_s=10.0, plan_ahead_s=40.0,
                           backend="pure", rel_gap=1e-6)
    stats = tmp_path / "final.json" if tmp_path else None
    return SchedulerService(cluster, cfg, clock=FakeClock(),
                            stats_path=stats)


def http(port, method, path, body=None):
    """Blocking JSON request; call via run_in_executor from async tests."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                 data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def run(coro):
    asyncio.run(coro)


SPEC = {"options": [{"k": 1, "duration_s": 20}],
        "value": 1000.0, "deadline": 500.0}


class TestRoutes:
    def test_submit_status_cancel_roundtrip(self):
        async def main():
            svc = build_service()
            server = await serve(svc)
            loop = asyncio.get_running_loop()

            def call(*args, **kw):
                return loop.run_in_executor(
                    None, lambda: http(server.port, *args, **kw))

            assert (await call("GET", "/healthz"))[1] == {"ok": True}

            status, rec = await call("POST", "/jobs",
                                     dict(SPEC, job_id="a"))
            assert status == 201 and rec["state"] == "pending"

            status, got = await call("GET", "/jobs/a")
            assert status == 200 and got["job_id"] == "a"

            status, listing = await call("GET", "/jobs")
            assert [j["job_id"] for j in listing["jobs"]] == ["a"]

            status, cancelled = await call("DELETE", "/jobs/a")
            assert status == 200 and cancelled["state"] == "cancelled"

            status, st_payload = await call("GET", "/status")
            assert status == 200
            assert st_payload["jobs"] == {"cancelled": 1}

            await server.drain()
        run(main())

    def test_cycles_and_cluster_events(self):
        async def main():
            svc = build_service()
            server = await serve(svc)
            loop = asyncio.get_running_loop()

            def call(*args, **kw):
                return loop.run_in_executor(
                    None, lambda: http(server.port, *args, **kw))

            await call("POST", "/jobs", dict(SPEC, job_id="a"))
            # The reply is followed by an arrival cycle, which books the
            # job on the idle cluster; the timer (fake clock) never fires.
            while svc._cycles_run < 1:
                await asyncio.sleep(0.005)
            status, cycles = await call("GET", "/cycles")
            assert status == 200 and len(cycles["cycles"]) == 1
            assert cycles["cycles"][0]["launched"] == 1

            node = sorted(svc.cluster.node_names)[0]
            status, out = await call("POST", "/cluster/events",
                                     {"action": "remove", "node": node})
            assert status == 200 and out["drained"] == [node]
            status, _ = await call("POST", "/cluster/events",
                                   {"action": "nope", "node": node})
            assert status == 400
            await server.drain()
        run(main())

    def test_errors(self):
        async def main():
            svc = build_service()
            server = await serve(svc)
            loop = asyncio.get_running_loop()

            def call(*args, **kw):
                return loop.run_in_executor(
                    None, lambda: http(server.port, *args, **kw))

            assert (await call("GET", "/jobs/ghost"))[0] == 404
            assert (await call("GET", "/nowhere"))[0] == 404
            assert (await call("PUT", "/jobs/a"))[0] == 405
            assert (await call("POST", "/jobs", {"options": []}))[0] == 400
            status, payload = await call("POST", "/jobs")
            assert status == 400 and "body" in payload["error"]
            await server.drain()
        run(main())

    def test_drain_endpoint_returns_final_stats(self, tmp_path):
        async def main():
            svc = build_service(tmp_path)
            server = await serve(svc)
            loop = asyncio.get_running_loop()

            def call(*args, **kw):
                return loop.run_in_executor(
                    None, lambda: http(server.port, *args, **kw))

            await call("POST", "/jobs", dict(SPEC, job_id="a"))
            await loop.run_in_executor(None, svc.run_one_cycle)
            status, final = await call("POST", "/drain")
            assert status == 200 and final["clean"] is True
            assert (tmp_path / "final.json").exists()
            persisted = json.loads((tmp_path / "final.json").read_text())
            assert persisted["clean"] is True
            await asyncio.wait_for(server.wait_drained(), timeout=10)
            # Listener is gone: a new request must fail to connect.
            try:
                await call("GET", "/healthz")
            except (ConnectionError, urllib.error.URLError, OSError):
                pass
            else:  # pragma: no cover - depends on socket teardown timing
                pass
        run(main())


class TestArrivalCycle:
    def test_posted_job_is_running_before_any_timer_tick(self):
        """``POST /jobs`` replies ``pending``, then places on arrival."""
        async def main():
            svc = build_service()
            server = await serve(svc)
            loop = asyncio.get_running_loop()

            def call(*args, **kw):
                return loop.run_in_executor(
                    None, lambda: http(server.port, *args, **kw))

            svc.clock.advance(3.0)  # mid-period; the timer sleeps till 10
            status, rec = await call("POST", "/jobs", dict(SPEC, job_id="a"))
            assert status == 201 and rec["state"] == "pending"
            while (await call("GET", "/jobs/a"))[1]["state"] == "pending":
                await asyncio.sleep(0.005)
            status, rec = await call("GET", "/jobs/a")
            assert rec["state"] == "running"
            assert (rec["started_at"] - rec["submitted_at"]
                    < svc.config.cycle_s / 4)
            assert (await call("GET", "/status"))[1]["cycles_run"] == 1
            await server.drain()
        run(main())

    def test_a_failing_arrival_cycle_is_recorded_not_lost(self):
        async def main():
            svc = build_service()
            server = await serve(svc)
            loop = asyncio.get_running_loop()

            def call(*args, **kw):
                return loop.run_in_executor(
                    None, lambda: http(server.port, *args, **kw))

            real = svc.scheduler.run_cycle
            calls = []

            def raises_on_arrival(now, arrival=False):
                calls.append(arrival)
                if arrival:
                    raise RuntimeError("boom")
                return real(now)

            svc.scheduler.run_cycle = raises_on_arrival
            status, _ = await call("POST", "/jobs", dict(SPEC, job_id="a"))
            assert status == 201
            while not calls:
                await asyncio.sleep(0.005)
            while (await call("GET", "/status"))[1]["cycle_failures"] < 1:
                await asyncio.sleep(0.005)
            # The server carries on and the timer's cycle places the job.
            await loop.run_in_executor(None, svc.run_one_cycle)
            status, rec = await call("GET", "/jobs/a")
            assert status == 200 and rec["state"] == "running"
            assert calls == [True, False]
            await server.drain()
        run(main())
