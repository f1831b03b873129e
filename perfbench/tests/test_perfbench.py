"""Tests of the benchmark itself: inputs, output contract, checks.

Run from the repository root:  python -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import schedule
from perfbench.procs import Program, Server, group_pids, reap_group
from perfbench.host import HostSpeed
from perfbench.run import (END_TO_END, PER_LAYER, Pass, Tally, hot_rps,
                           result_line, scaled)

ROOT = Path(__file__).resolve().parents[2]


def test_same_seed_same_inputs_other_seed_other_inputs():
    def inputs(seed):
        return (schedule.hot_keys(seed), schedule.hot_order(seed),
                schedule.open_loop(seed, 20.0, 10.0),
                schedule.cold_request(seed, 3))
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    for a, b in zip(inputs(7), inputs(8)):
        assert a != b


def test_open_loop_mix_and_cold_keys_are_unique():
    arrivals = schedule.open_loop(5, 40.0, 30.0)
    dues = [due for due, _ in arrivals]
    assert dues == sorted(dues) and dues[-1] < 30.0
    cold = [r.params["seed"] for _, r in arrivals if r.kind == "cold"]
    assert len(cold) == len(set(cold))
    hot_seed = schedule.device_seed(5)
    assert hot_seed not in cold
    assert len(arrivals) == 40 * 30
    assert len(cold) == round(len(arrivals) * (1 - schedule.HOT_SHARE))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    line = result_line(dict.fromkeys(END_TO_END, 1.5), END_TO_END, Tally())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == END_TO_END
    with pytest.raises(ValueError):
        result_line({"setup_s": 1.0}, END_TO_END, Tally())


def test_scaling_to_the_reference_host():
    raw = dict.fromkeys(END_TO_END, 2.0)
    values = scaled(raw, factor=2.0)          # a host twice as slow
    assert values["report_cold_s"] == values["cold_p50_ms"] == 1.0
    assert values["hot_rps"] == values["cold_rps"] == 4.0
    assert values["peak_rss_mb"] == 2.0
    assert hot_rps(1.0, 1.0) == pytest.approx(1000.0)


def test_host_speed_trims_outliers():
    host = HostSpeed()
    host.samples_ms = [10.0] * 18 + [1.0, 500.0]
    assert host.kernel_ms() == 10.0
    host.sample()
    assert len(host.samples_ms) > 20 and host.factor() > 0


def _leader(code: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", code],
                            start_new_session=True, stdout=subprocess.PIPE)


def test_teardown_check_fails_when_a_child_is_left_behind():
    leader = _leader(
        "import subprocess, sys\n"
        "subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(60)'])\n"
        "print('forked', flush=True)\n")
    assert leader.stdout.readline() == b"forked\n"
    leader.wait(timeout=10)
    leader.stdout.close()
    assert group_pids(leader.pid)           # the orphan is still there
    assert reap_group(leader.pid, timeout_s=0.5) is False
    assert group_pids(leader.pid) == []     # ...and was killed


def test_teardown_check_passes_when_the_group_exits():
    leader = _leader("print('done', flush=True)")
    leader.communicate(timeout=10)
    assert reap_group(leader.pid, timeout_s=5) is True


def test_server_stops_cleanly_on_sigint(tmp_path):
    server = Server(Program(ROOT, tmp_path), tmp_path / "cache")
    from repro.serve.client import ServeClient
    assert ServeClient(port=server.port).wait_healthy(deadline_s=10)
    assert server.stop() is True
    assert group_pids(server.proc.pid) == []


def _cold_reply(seed: int, index: int):
    from repro.serve.experiments import normalize, run_experiment
    from repro.serve.server import canonical_json
    req = schedule.cold_request(seed, index)
    params = normalize(schedule.EXPERIMENT, req.params)
    value = run_experiment((schedule.EXPERIMENT, params))
    return req, canonical_json({"experiment": schedule.EXPERIMENT,
                                "params": params, "value": value})


def test_cold_check_accepts_the_true_reply_and_fails_a_tampered_one(
        tmp_path):
    req, body = _cold_reply(0, 0)
    bench = Pass(ROOT, tmp_path, "pool-30", seed=0, seconds=1, trace=False)
    bench.check_cold("open", [(req, body)])
    assert bench.tally.failures == []
    flipped = body.replace(b'"min":', b'"min":1', 1)
    assert flipped != body
    bench.check_cold("open", [(req, flipped)])
    assert len(bench.tally.failures) == 1
    assert bench.tally.attempted == 2
