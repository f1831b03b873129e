"""Seeded inputs for the serve phases.

Everything a run sends is derived here from the workload seed with the
standard library's ``random`` (never ``repro.traffic`` or any other
program code), so a change to the program cannot change the load it is
measured under, and the same seed always yields the same requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EXPERIMENT = "latency-matrix"

#: Hot keys of the small class: single-SM V100 rows, ~0.4 KB replies.
SMALL_KEYS = 16
#: Large-class entries per cycle of the hot order: the full H100 matrix
#: (~70 KB) is a fixed minority, 2 in every 18 closed-loop requests.
LARGE_PER_CYCLE = 2
V100_SMS = 84

#: Open-loop mix: this share of arrivals are hot small hits, the rest
#: cold full-V100 matrices, each with a device seed never used before.
HOT_SHARE = 0.75

#: Cold device seeds start above every hot one (see :func:`device_seed`).
_COLD_SEED_BASE = 1000


@dataclass(frozen=True)
class Request:
    """One latency-matrix request: its key class and its parameters."""
    kind: str                     # "small" | "large" | "cold"
    params: dict


def _rng(seed: int, stream: str) -> random.Random:
    # str seeds hash through sha512: stable across processes and runs
    return random.Random(f"perfbench:{stream}:{seed}")


def device_seed(seed: int) -> int:
    """Device seed of the hot keys (small, so they never meet a cold one)."""
    return seed % 1000


def hot_keys(seed: int) -> list:
    """The 16 small keys followed by the one large key."""
    sms = sorted(_rng(seed, "sms").sample(range(V100_SMS), SMALL_KEYS))
    dseed = device_seed(seed)
    small = [Request("small", {"gpu": "V100", "seed": dseed, "sms": [sm]})
             for sm in sms]
    return small + [Request("large", {"gpu": "H100", "seed": dseed})]


def hot_order(seed: int) -> list:
    """One cycle of the closed hot loop, as indices into :func:`hot_keys`."""
    order = list(range(SMALL_KEYS)) + [SMALL_KEYS] * LARGE_PER_CYCLE
    _rng(seed, "order").shuffle(order)
    return order


def cold_request(seed: int, index: int) -> Request:
    """The ``index``-th cold request: a V100 matrix on an unused seed."""
    device = _COLD_SEED_BASE + seed % 10_000 * 100_000 + index
    return Request("cold", {"gpu": "V100", "seed": device})


def open_loop(seed: int, rate_rps: float, seconds: float,
              block: int = 0) -> list:
    """Poisson arrivals ``(due_s, Request)`` over ``seconds``.

    The process is conditioned on its count: exactly
    ``round(rate_rps * seconds)`` arrivals at independent uniform times,
    :data:`HOT_SHARE` of them hot.  A free count would make the offered
    load itself vary by ±1/sqrt(count) from seed to seed (±13% at 60
    cold requests), and queueing delay would follow it.

    Each ``block`` of a run is its own stream.  Its cold requests take
    indices from ``block * BLOCK_COLD_STRIDE`` upward; the closed cold
    loop starts at :data:`CLOSED_COLD_BASE`, so no two share a key.
    """
    rng = _rng(seed, f"arrivals:{block}")
    small = hot_keys(seed)[:SMALL_KEYS]
    total = round(rate_rps * seconds)
    cold_count = round(total * (1 - HOT_SHARE))
    is_cold = [True] * cold_count + [False] * (total - cold_count)
    rng.shuffle(is_cold)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(total))
    arrivals, cold = [], block * BLOCK_COLD_STRIDE
    for due, cold_now in zip(dues, is_cold):
        if cold_now:
            arrivals.append((due, cold_request(seed, cold)))
            cold += 1
        else:
            arrivals.append((due, small[rng.randrange(SMALL_KEYS)]))
    return arrivals


BLOCK_COLD_STRIDE = 10_000
CLOSED_COLD_BASE = 90_000
#: The cold request a traced run computes in-process, sent by no loop.
TRACE_COLD_INDEX = 99_999


def verify_sample(seed: int, stream: str, population: int, k: int) -> list:
    """Indices of the ``k`` replies of ``population`` checked in-process."""
    return sorted(_rng(seed, f"verify:{stream}").sample(
        range(population), min(k, population)))
