"""End-to-end benchmark of the repro package: report, sweep and serve.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pool-30 --seed 1 --seconds 24 --trace 0

Every run makes one pass over three phases, each a thing a user runs:

* ``offline``    -- ``repro report --cache DIR`` cold then warm, and the
  pooled VC-mesh grid sweep;
* ``serve-hot``  -- a closed loop of cache hits against ``repro serve``;
* ``serve-cold`` -- an open loop of hot hits mixed with cold
  computations, then a closed loop of cold computations.

The workload sets the open loop's arrival rate.  The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, scaled to a reference host speed (``host.py``); with
``--trace 1`` the per-layer metrics, from timers in this directory's
files around the calls into each layer.  README.md here maps each
metric to its layer.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import itertools
import json
import os
import shutil
import signal
import statistics
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from perfbench import schedule                      # noqa: E402
from perfbench.host import HostSpeed                # noqa: E402
from perfbench.probe import MESH_TASK_CYCLES        # noqa: E402
from perfbench.procs import Program, Server         # noqa: E402

#: End-to-end metrics and their units, as declared in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "report_cold_s": "s", "report_warm_s": "s", "sweep_s": "s",
    "hot_rps": "1/s", "hot_small_p50_ms": "ms", "hot_large_p50_ms": "ms",
    "mixed_hot_p50_ms": "ms", "cold_p50_ms": "ms", "cold_rps": "1/s",
}

_TAILS = ("hot_small", "hot_large", "mixed_hot", "cold")

#: Per-layer metrics of a ``--trace 1`` run, as declared in BENCHMARK.json.
PER_LAYER = {
    "cli.import_s": "s",
    "device.latency_s.scalar": "s", "device.latency_s.vectorized": "s",
    "device.bandwidth_s.scalar": "s", "device.bandwidth_s.vectorized": "s",
    "device.cold_compute_ms": "ms",
    **{f"mesh.{task}_s.{engine}": "s"
       for task in ("bottleneck", "fairness_rr", "fairness_age")
       for engine in ("batched", "scalar")},
    "mesh.lane_cycles_per_s.batched": "1/s",
    "mesh.lane_cycles_per_s.scalar": "1/s",
    "vcmesh.kernel_s": "s",
    "exec.pool_s": "s", "exec.shards": "count", "exec.result_bytes": "B",
    "exec.dispatch_ms": "ms",
    "cache.get_ms.report": "ms", "cache.get_ms.small": "ms",
    "cache.get_ms.large": "ms", "cache.put_ms": "ms",
    "cache.hits": "count", "cache.misses": "count",
    "http.healthz_ms": "ms", "serve.key_ms": "ms",
    "serve.encode_ms.small": "ms", "serve.encode_ms.large": "ms",
    "serve.unaccounted_ms.small": "ms", "serve.unaccounted_ms.large": "ms",
    "serve.queue_ms": "ms",
    "serve.computations": "count", "serve.rejected": "count",
    "serve.coalesced": "count",
    "gen.late_p50_ms": "ms", "gen.late_max_ms": "ms",
    "trace.overhead_s": "s", "offline.unaccounted_s": "s",
    "host.kernel_ms": "ms",
    "rss.report_mb": "MB", "rss.sweep_mb": "MB", "rss.server_mb": "MB",
    **{f"tail.{name}_{q}": unit for name in _TAILS
       for q, unit in (("p90_ms", "ms"), ("p99_ms", "ms"), ("n", "count"))},
}

#: Pool utilisation the open loop's cold requests aim for, per workload.
WORKLOADS = {"pool-15": 0.15, "pool-30": 0.30}

#: Service time of one cold full-V100 matrix on the default tier,
#: dispatch included (2-core host); used only to turn a target
#: utilisation into an arrival rate.
COLD_SERVICE_S = 0.085

#: The pass is two rounds of steps -- server set-ups, the offline
#: runs, open-loop blocks -- and before every step a gap in which the
#: host kernel is timed and the kept server gets a burst of hot cycles
#: and one of cold requests.  The closed-loop samples are so spread
#: over the whole pass: the shared host's speed changes within seconds,
#: and a figure taken in one stretch of the pass would follow it.
ROUNDS = 2
OPEN_SHARE = 0.11               # of --seconds, per open-loop block
HOT_CYCLES = 3                  # timed cycles of the hot order per gap
COLD_REQUESTS = 2               # closed-loop cold requests per gap
COLD_CHECKS = 3                 # cold replies recomputed per cold loop
DEADLINE_S = 10.0
REPORT_CHECKS = b"**11/11 checks within tolerance.**"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def p50(values) -> float:
    return statistics.median(values)


def quantile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method), needs 2+ values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ms(seconds) -> list:
    return [s * 1e3 for s in seconds]


class Tally:
    """Operations attempted and failed, with why each failure happened."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: failed: {what}", file=sys.stderr)
        return ok


class Pass:
    """One pass over the three phases for one workload and seed."""

    def __init__(self, root: Path, workdir: Path, workload: str, seed: int,
                 seconds: float, trace: bool):
        self.program = Program(root, workdir)
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rate_rps = (WORKLOADS[workload] / COLD_SERVICE_S
                         / (1 - schedule.HOT_SHARE))
        self.tally = Tally()
        self.host = HostSpeed()
        self.layer: dict = {}
        self.rss: dict = {}
        self.times = {name: [] for name in (
            "setup", "report_cold", "report_warm", "sweep", "cold_trip")}
        self.latency = {name: [] for name in _TAILS}
        self.late_ms: list = []
        self.fills: list = []
        self.report_text = None
        self.sweep_reference = None

    def _rss(self, part: str, peak_mb: float) -> None:
        self.rss[part] = max(self.rss.get(part, 0.0), peak_mb)

    # ------------------------------------------------------------ offline

    def report_cold(self, round_: int) -> None:
        """``repro report`` on the round's empty cache."""
        wall, text, peak, ok = self.program.run(self._report_argv(round_))
        self._rss("report", peak)
        self.report_text = self.report_text or text
        self.tally.op(ok and REPORT_CHECKS in text
                      and text == self.report_text, "report cold")
        self.times["report_cold"].append(wall)
        if self.trace and round_ == 0:
            self._trace_report(text)

    def report_warm(self, round_: int) -> None:
        """``repro report`` again on the round's filled cache."""
        wall, text, peak, ok = self.program.run(self._report_argv(round_))
        self._rss("report", peak)
        self.tally.op(ok and text == self.report_text, "report warm != cold")
        self.times["report_warm"].append(wall)

    def _report_argv(self, round_: int) -> list:
        return ["-m", "repro", "report", "--cache",
                str(self.workdir / f"report-cache-{round_}")]

    def sweep(self) -> None:
        """The pooled VC-mesh sweep; the first time also the serial one."""
        reference = self.sweep_reference is None
        argv = [str(HERE / "probe.py"), "sweep", "--seed", str(self.seed),
                "--jobs", str(nproc())]
        argv += ["--reference"] if reference else []
        argv += ["--trace"] if self.trace and reference else []
        _, out, peak, ok = self.program.run(argv)
        self._rss("sweep", peak)
        if not self.tally.op(ok, "sweep probe"):
            return
        result = json.loads(out)
        if reference:
            self.sweep_reference = result["serial"]
        self.tally.op(result["pooled"] == self.sweep_reference,
                      "pooled sweep != serial sweep")
        self.times["sweep"].append(result["pooled_s"])
        if self.trace and reference:
            self.layer.update({
                "vcmesh.kernel_s": result["serial_s"],
                "exec.pool_s": result["pooled_s"] - result["serial_s"],
                "exec.shards": result["shards"],
                "exec.result_bytes": result["result_bytes"]})

    def _trace_report(self, untraced_text: bytes) -> None:
        cache = self.workdir / "traced-report-cache"
        spans_path = self.workdir / "spans.json"
        runs = []
        for label in ("cold", "warm"):
            argv = [str(HERE / "probe.py"), "report-traced", str(spans_path),
                    "--", "report", "--cache", str(cache)]
            wall, text, _, ok = self.program.run(argv)
            self.tally.op(ok and text == untraced_text, f"traced {label}")
            runs.append((wall, json.loads(spans_path.read_text())))
        (cold_wall, cold), (_, warm) = runs
        tasks = {tuple(label): s for label, s in cold["tasks"]}
        layer = self.layer
        layer["cli.import_s"] = cold["import_s"]
        layer["device.latency_s.scalar"] = tasks["latency", "scalar"]
        layer["device.bandwidth_s.scalar"] = tasks["bandwidth", "scalar"]
        layer["cache.get_ms.report"] = p50(_ms(warm["cache_get"]))
        self.traced_cold_s = cold_wall
        layer["offline.unaccounted_s"] = (
            cold["wall_s"] - cold["import_s"] - sum(tasks.values())
            - sum(cold["cache_get"]) - sum(cold["cache_put"]))

        _, out, _, ok = self.program.run([str(HERE / "probe.py"), "engines"])
        if not self.tally.op(ok, "engine probe"):
            raise RuntimeError("engine probe failed")
        alt = json.loads(out)
        layer["device.latency_s.vectorized"] = alt["latency:vectorized"]
        layer["device.bandwidth_s.vectorized"] = alt["bandwidth:vectorized"]
        totals = {"batched": 0.0, "scalar": 0.0}
        for task in MESH_TASK_CYCLES:
            name = task[len("mesh-"):].replace("-", "_")
            for engine, seconds in (("batched", tasks[task, "batched"]),
                                    ("scalar", alt[f"{task}:scalar"])):
                layer[f"mesh.{name}_s.{engine}"] = seconds
                totals[engine] += seconds
        cycles = sum(MESH_TASK_CYCLES.values())
        for engine, seconds in totals.items():
            layer[f"mesh.lane_cycles_per_s.{engine}"] = cycles / seconds

    # -------------------------------------------------------------- serve

    def start_server(self, index: int):
        """Spawn, wait for health, prefill the hot keys.

        Returns ``(server, fill replies)``; the set-up time is recorded.
        """
        from repro.serve.client import ServeClient, ServeClientError
        started = time.perf_counter()
        server = Server(self.program, self.workdir / f"serve-cache-{index}")
        client = ServeClient(port=server.port, timeout=DEADLINE_S)
        fills = []
        try:
            client.wait_healthy(deadline_s=DEADLINE_S)
            for req in schedule.hot_keys(self.seed):
                reply = client.experiment(schedule.EXPERIMENT, **req.params)
                self.tally.op(reply.ok, f"prefill {req.params}")
                fills.append(reply.body)
        except ServeClientError as exc:
            self.tally.op(False, f"server setup: {exc}")
        self.times["setup"].append(time.perf_counter() - started)
        return server, fills

    def spare_setup(self, index: int) -> None:
        """Time one more set-up on a fresh cache; its fills must match."""
        server, fills = self.start_server(index)
        self.tally.op(server.stop(), "server teardown")
        self.tally.op(fills == self.fills, "spare fills != kept fills")

    def hot_burst(self, port: int) -> None:
        """Closed loop, one connection, cycling the seeded hot order.

        One untimed cycle first: the burst follows a step that left the
        server idle, and a wake-up is not a hot hit's cost.
        """
        from repro.serve.client import ServeClient, ServeClientError
        client = ServeClient(port=port, timeout=DEADLINE_S)
        keys = schedule.hot_keys(self.seed)
        order = schedule.hot_order(self.seed)
        with contextlib.suppress(ServeClientError):   # the timed loop checks
            for index in order:
                client.experiment(schedule.EXPERIMENT, **keys[index].params)
        for index in order * HOT_CYCLES:
            req = keys[index]
            sent = time.perf_counter()
            try:
                reply = client.experiment(schedule.EXPERIMENT, **req.params)
                ok = reply.ok and reply.body == self.fills[index]
            except ServeClientError:
                ok = False
            self.latency[f"hot_{req.kind}"].append(
                (time.perf_counter() - sent) * 1e3)
            self.tally.op(ok, f"hot {req.kind} {req.params}")

    async def open_loop(self, port: int, block: int) -> list:
        """Seeded Poisson arrivals over at most ``nproc`` connections.

        A request due while every connection is busy waits for one, and
        its latency still counts from the time it was due.
        """
        from repro.serve.client import AsyncServeClient, ServeClientError
        client = AsyncServeClient(port=port, deadline_s=DEADLINE_S)
        arrivals = schedule.open_loop(self.seed, self.rate_rps,
                                      OPEN_SHARE * self.seconds, block)
        fill_of = {json.dumps(k.params, sort_keys=True): body for k, body
                   in zip(schedule.hot_keys(self.seed), self.fills)}
        loop = asyncio.get_running_loop()
        origin = loop.time() + 0.05
        pending = iter(arrivals)
        late = self.late_ms
        hot, cold = self.latency["mixed_hot"], self.latency["cold"]
        cold_replies = []

        async def connection():
            for due, req in pending:
                wait = origin + due - loop.time()
                if wait > 0:
                    await asyncio.sleep(wait)
                late.append((loop.time() - origin - due) * 1e3)
                try:
                    reply = await client.experiment(schedule.EXPERIMENT,
                                                    **req.params)
                    ok = reply.ok
                except ServeClientError:
                    reply, ok = None, False
                elapsed = (loop.time() - origin - due) * 1e3
                if req.kind == "cold":
                    cold.append(elapsed)
                    cold_replies.append((req, reply.body if ok else b""))
                else:
                    hot.append(elapsed)
                    ok = ok and reply.body == fill_of[
                        json.dumps(req.params, sort_keys=True)]
                self.tally.op(ok, f"open {req.kind} {req.params}")

        await asyncio.gather(*(connection() for _ in range(nproc())))
        return cold_replies

    def cold_burst(self, port: int, replies: list) -> None:
        """Closed loop, one connection, unique cold requests back to back.

        Every cold request has the same shape, so their round trips
        compare; ``cold_rps`` is one over the median round trip.
        """
        from repro.serve.client import ServeClient, ServeClientError
        client = ServeClient(port=port, timeout=DEADLINE_S)
        for _ in range(COLD_REQUESTS):
            req = schedule.cold_request(
                self.seed, schedule.CLOSED_COLD_BASE + len(replies))
            sent = time.perf_counter()
            try:
                reply = client.experiment(schedule.EXPERIMENT, **req.params)
                ok = reply.ok
            except ServeClientError:
                reply, ok = None, False
            self.times["cold_trip"].append(time.perf_counter() - sent)
            replies.append((req, reply.body if ok else b""))
            self.tally.op(ok, f"closed cold {req.params}")

    def gap(self, port: int, closed: list) -> None:
        """Between two steps: the host kernel, a hot and a cold burst."""
        self.host.sample()
        self.hot_burst(port)
        self.cold_burst(port, closed)

    def check_cold(self, stream: str, replies: list) -> None:
        """Recompute a seeded sample of cold replies in-process."""
        from repro.serve.experiments import normalize, run_experiment
        from repro.serve.server import canonical_json
        for index in schedule.verify_sample(self.seed, stream, len(replies),
                                            COLD_CHECKS):
            req, body = replies[index]
            params = normalize(schedule.EXPERIMENT, req.params)
            value = run_experiment((schedule.EXPERIMENT, params))
            expected = canonical_json({"experiment": schedule.EXPERIMENT,
                                       "params": params, "value": value})
            self.tally.op(body == expected, f"cold reply {req.params}")

    def _trace_serve(self, server) -> None:
        """Time each layer of a hot hit and a cold computation in-process."""
        from repro.exec import ResultCache, cache_key
        from repro.serve.client import ServeClient
        from repro.serve.experiments import (cache_payload, engine_param,
                                             normalize, run_experiment)
        from repro.serve.server import canonical_json, splice_envelope

        def median_ms(fn, repeat):
            times = []
            for _ in range(repeat):
                started = time.perf_counter()
                fn()
                times.append(time.perf_counter() - started)
            return p50(_ms(times))

        client = ServeClient(port=server.port, timeout=DEADLINE_S)
        metricz = client.metricz().json
        layer = self.layer
        layer["http.healthz_ms"] = median_ms(client.healthz, 200)
        cache = ResultCache(server.cache_dir)
        name = schedule.EXPERIMENT

        def key_of(raw):
            params = normalize(name, raw)
            return params, cache_key(f"serve:{name}",
                                     cache_payload(name, params),
                                     engine=engine_param(name, params))

        small, large = (schedule.hot_keys(self.seed)[i]
                        for i in (0, schedule.SMALL_KEYS))
        layer["serve.key_ms"] = median_ms(lambda: key_of(small.params), 200)
        for label, req, repeat in (("small", small, 200),
                                   ("large", large, 30)):
            params, key = key_of(req.params)
            value = cache.get(key)
            layer[f"cache.get_ms.{label}"] = median_ms(
                lambda: cache.get(key), repeat)
            layer[f"serve.encode_ms.{label}"] = median_ms(
                lambda: splice_envelope(name, params, canonical_json(value)),
                repeat)
            layer[f"serve.unaccounted_ms.{label}"] = (
                p50(self.latency[f"hot_{label}"]) - layer["http.healthz_ms"]
                - layer["serve.key_ms"] - layer[f"cache.get_ms.{label}"]
                - layer[f"serve.encode_ms.{label}"])

        cold = schedule.cold_request(self.seed, schedule.TRACE_COLD_INDEX)
        params, key = key_of(cold.params)
        computes = []
        for _ in range(3):
            started = time.perf_counter()
            value = run_experiment((name, params))
            computes.append(time.perf_counter() - started)
        layer["device.cold_compute_ms"] = p50(_ms(computes))
        body = canonical_json(value)
        put_cache = ResultCache(self.workdir / "put-cache")
        layer["cache.put_ms"] = median_ms(
            lambda: put_cache.put_bytes(key, body), 20)

        counters = metricz["counters"]
        compute_p50 = metricz["latency"]["compute"]["p50_ms"]
        layer["exec.dispatch_ms"] = compute_p50 - layer[
            "device.cold_compute_ms"]
        layer["serve.queue_ms"] = p50(self.latency["cold"]) - compute_p50
        layer["cache.hits"] = counters["cache_hits"]
        layer["cache.misses"] = counters["cache_misses"]
        for counter in ("computations", "rejected", "coalesced"):
            layer[f"serve.{counter}"] = counters[counter]

    # ---------------------------------------------------------------- run

    def run(self) -> dict:
        """The kept server's set-up, then the rounds of steps and gaps.

        Spare set-ups, made while the kept server idles, spread the
        ``setup_s`` samples over the pass like every other figure's.
        """
        self.program.compile()
        server, self.fills = self.start_server(0)
        port = server.port
        opened, closed = [], []
        blocks = itertools.count()

        def open_block():
            opened.extend(asyncio.run(self.open_loop(port, next(blocks))))

        try:
            for round_ in range(ROUNDS):
                warm = partial(self.report_warm, round_)
                for step in (partial(self.report_cold, round_), open_block,
                             warm, open_block, warm, warm, self.sweep,
                             open_block,
                             partial(self.spare_setup, 1 + round_)):
                    self.gap(port, closed)
                    step()
            self.gap(port, closed)
            if self.trace:
                self._trace_serve(server)
            self._rss("server", server.peak_mb())
        finally:
            self.tally.op(server.stop(), "server teardown")
        self.check_cold("open", opened)
        self.check_cold("closed", closed)
        if self.trace:
            return self._layer_metrics()
        times, latency = self.times, self.latency
        small, large = p50(latency["hot_small"]), p50(latency["hot_large"])
        raw = {
            "setup_s": p50(times["setup"]),
            "peak_rss_mb": max(self.rss.values()),
            "report_cold_s": p50(times["report_cold"]),
            "report_warm_s": p50(times["report_warm"]),
            "sweep_s": p50(times["sweep"]),
            "hot_rps": hot_rps(small, large),
            "hot_small_p50_ms": small,
            "hot_large_p50_ms": large,
            "mixed_hot_p50_ms": p50(latency["mixed_hot"]),
            "cold_p50_ms": p50(latency["cold"]),
            "cold_rps": 1 / p50(times["cold_trip"]),
        }
        print(f"perfbench: raw {json.dumps(raw)}")
        print(f"perfbench: host factor {self.host.factor():.4f}")
        return scaled(raw, self.host.factor())

    def _layer_metrics(self) -> dict:
        layer = self.layer
        layer.update({f"rss.{k}_mb": v for k, v in self.rss.items()})
        layer["host.kernel_ms"] = self.host.kernel_ms()
        layer["trace.overhead_s"] = (self.traced_cold_s
                                     - p50(self.times["report_cold"]))
        layer["gen.late_p50_ms"] = p50(self.late_ms)
        layer["gen.late_max_ms"] = max(self.late_ms)
        for name, values in self.latency.items():
            layer[f"tail.{name}_p90_ms"] = quantile(values, 90)
            layer[f"tail.{name}_p99_ms"] = quantile(values, 99)
            layer[f"tail.{name}_n"] = len(values)
        return layer


def hot_rps(small_ms: float, large_ms: float) -> float:
    """Closed-loop hits per second at each key class's median round trip.

    A hot-order cycle's requests over the sum of their median round
    trips.  A throughput timed over whole cycles would follow the
    host's stalls: when the host is contended, most cycles hold one,
    and such runs read 0.6x the others after scaling, where the class
    medians read 0.85x.  The stalls show in the tails instead.
    """
    small = schedule.SMALL_KEYS
    large = schedule.LARGE_PER_CYCLE
    return (small + large) / (small * small_ms + large * large_ms) * 1e3


def scaled(raw: dict, factor: float) -> dict:
    """Wall-time figures as on the reference host (see host.py)."""
    values = {}
    for name, value in raw.items():
        unit = END_TO_END[name]
        if unit in ("s", "ms"):
            value /= factor
        elif unit == "1/s":
            value *= factor
        values[name] = value
    return values


def result_line(values: dict, units: dict, tally: Tally) -> dict:
    """The JSON result: every declared metric, by name, with its unit."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, undeclared {extra}")
    failed = len(tally.failures)
    return {"correct": failed == 0, "attempted": tally.attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # a SIGINT ignored by whoever started us would be inherited by the
    # server, which could then not be stopped gracefully; and SIGTERM
    # must unwind through the cleanup below like SIGINT does
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = root / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = Pass(root, workdir, args.workload, args.seed, args.seconds,
                 bool(args.trace))
    try:
        values = bench.run()
    finally:
        bench.program.kill_all()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):      # other runs may share it
            workdir.parent.rmdir()
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps(result_line(values, units, bench.tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
