"""Program-side probes, each run as its own process by the benchmark.

    python perfbench/probe.py sweep --seed S --jobs J [--reference] [--trace]
    python perfbench/probe.py report-traced SPANS.json -- <repro argv>
    python perfbench/probe.py engines

``sweep`` times the pooled VC-mesh grid sweep and, with ``--reference``,
the serial sweep it must equal.  ``report-traced`` runs the ``repro``
CLI with timers around the calls into each layer's public functions and
writes them to SPANS.json.  ``engines`` times the report's tasks on the
engines the report does not use by default.  Each prints one JSON line;
the timers live here, so the program itself is unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

#: The 8-lane grid of ``benchmarks/bench_ext_vc_mesh.GRID``; the seed
#: of its traffic comes from the workload seed.
VC_GRID = dict(vc_counts=(1, 2), buffer_depths=(2, 4),
               credit_latencies=(1, 2), injection_rates=(None,),
               cycles=2000, reply_flits=5, window=100)

#: Mesh cycles each report mesh task simulates: the reply-bottleneck
#: pair is two meshes of 6000 cycles, each fairness run one of 10000.
MESH_TASK_CYCLES = {"mesh-bottleneck": 2 * 6000,
                    "mesh-fairness-rr": 10_000,
                    "mesh-fairness-age": 10_000}


def _array_bytes(result) -> int:
    return sum(getattr(v, "nbytes", 0) for v in vars(result).values())


def _digest(results) -> str:
    text = json.dumps([r.to_json() for r in results], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def sweep(seed: int, jobs: int, reference: bool, trace: bool) -> dict:
    """Time the pooled sweep; with ``reference`` also the serial one."""
    from repro.exec import SweepRunner
    from repro.noc.mesh.vc import sweep_vc_grid
    shards = []
    if trace:
        plain_map = SweepRunner.map

        def counting_map(self, worker, shard_args):
            shard_args = list(shard_args)
            shards.append(len(shard_args))
            return plain_map(self, worker, shard_args)
        SweepRunner.map = counting_map
    grid = dict(VC_GRID, seeds=(seed % 1000,))
    started = time.perf_counter()
    pooled = sweep_vc_grid(jobs=jobs, **grid)
    result = {"pooled_s": time.perf_counter() - started,
              "pooled": _digest(pooled), "shards": sum(shards),
              "result_bytes": sum(_array_bytes(r) for r in pooled)}
    if reference:
        started = time.perf_counter()
        serial = sweep_vc_grid(**grid)
        result.update(serial_s=time.perf_counter() - started,
                      serial=_digest(serial))
    return result


def report_traced(spans_path: str, argv: list) -> None:
    spans = {"tasks": [], "cache_get": [], "cache_put": []}
    started = time.perf_counter()
    import repro.cli
    spans["import_s"] = time.perf_counter() - started
    import repro.report
    from repro.exec import ResultCache

    def timed(fn, sink, label=None):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                sink.append([label(args), elapsed] if label else elapsed)
        return wrapper

    # the report resolves these module/class attributes at call time
    repro.report._report_task = timed(repro.report._report_task,
                                      spans["tasks"],
                                      lambda a: list(a[0][::2]))
    ResultCache.get = timed(ResultCache.get, spans["cache_get"])
    ResultCache.put = timed(ResultCache.put, spans["cache_put"])
    code = repro.cli.main(argv)
    sys.stdout.flush()
    spans["wall_s"] = time.perf_counter() - started
    with open(spans_path, "w") as fh:
        json.dump(spans, fh)
    sys.exit(code)


def engines() -> dict:
    """Report task times on the non-default engine of each domain."""
    from repro.report import _report_task
    times = {}
    for task, engine in (("latency", "vectorized"),
                         ("bandwidth", "vectorized"),
                         *((t, "scalar") for t in MESH_TASK_CYCLES)):
        started = time.perf_counter()
        _report_task((task, 0, engine))
        times[f"{task}:{engine}"] = time.perf_counter() - started
    return times


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="probe", required=True)
    sw = sub.add_parser("sweep")
    sw.add_argument("--seed", type=int, required=True)
    sw.add_argument("--jobs", type=int, required=True)
    sw.add_argument("--reference", action="store_true")
    sw.add_argument("--trace", action="store_true")
    rt = sub.add_parser("report-traced")
    rt.add_argument("spans")
    rt.add_argument("argv", nargs=argparse.REMAINDER)
    sub.add_parser("engines")
    args = parser.parse_args()
    if args.probe == "sweep":
        print(json.dumps(sweep(args.seed, args.jobs, args.reference,
                               args.trace)))
    elif args.probe == "report-traced":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        report_traced(args.spans, argv)
    else:
        print(json.dumps(engines()))


if __name__ == "__main__":
    main()
