"""Processes the benchmark starts: spawn, peak memory, clean teardown.

Every program process runs as the leader of its own session, so its
process group holds it and everything it forks (pool children).  After
a leader exits, :func:`reap_group` checks that nothing of its group is
left; a survivor is killed and the run counts as failed, because a
leftover pool child keeps computing, holds sockets, and skews every
later measurement on the machine.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

KIB = 1024


def group_pids(pgid: int) -> list:
    """Live pids whose process group is ``pgid`` (zombies excluded)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:                 # exited while we looked
            continue
        # fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def peak_kib(pid: int) -> int:
    """The process's resident-memory high-water mark (VmHWM), or 0."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class GroupPeak:
    """Sum over a process group of each member's peak resident memory.

    A sampling thread records every member's high-water mark, so pool
    children that exit before their leader still count.  The mark is
    kept by the kernel, so only growth in a member's final sampling
    period can be missed.
    """

    PERIOD_S = 0.1

    def __init__(self, pgid: int):
        self.pgid = pgid
        self._peaks: dict = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def sample(self) -> None:
        for pid in group_pids(self.pgid):
            self._peaks[pid] = max(self._peaks.get(pid, 0), peak_kib(pid))

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.sample()

    def stop(self) -> float:
        """Stop sampling; the summed peak in MB."""
        self._stop.set()
        self._thread.join()
        return sum(self._peaks.values()) / KIB


def reap_group(pgid: int, timeout_s: float = 10.0) -> bool:
    """Wait for group ``pgid`` to empty; kill it if it will not.

    True when every member exited on its own within ``timeout_s``.
    """
    deadline = time.monotonic() + timeout_s
    while group_pids(pgid):
        if time.monotonic() >= deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            while group_pids(pgid) and time.monotonic() < deadline + 10:
                time.sleep(0.05)
            return False
        time.sleep(0.05)
    return True


def port_free(port: int, host: str = "127.0.0.1") -> bool:
    """True when nothing listens on ``port`` any more."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
        except OSError:
            return False
    return True


class Program:
    """Runs the repository's code from its ``src`` directory."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONUNBUFFERED="1")
        self.groups: set = set()

    def compile(self) -> None:
        """Byte-compile the sources, so no timed run pays for it."""
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(self.root / "src")], cwd=self.root,
                       env=self.env, stdout=subprocess.DEVNULL, check=True)

    def spawn(self, argv: list, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen([sys.executable, *argv], cwd=self.root,
                                env=self.env, start_new_session=True,
                                **kwargs)
        self.groups.add(proc.pid)
        return proc

    def kill_all(self) -> None:
        """Kill whatever is left of every group spawned (interrupted runs)."""
        for pgid in self.groups:
            if group_pids(pgid):
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pgid, signal.SIGKILL)
                reap_group(pgid)

    def run(self, argv: list) -> tuple:
        """Run to completion: ``(wall_s, stdout, peak_mb, ok)``.

        ``ok`` is False when the program exited non-zero or left a
        process of its group behind.
        """
        started = time.perf_counter()
        proc = self.spawn(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
        peak = GroupPeak(proc.pid)
        out, err = proc.communicate()
        wall = time.perf_counter() - started
        peak_mb = max(peak.stop(), peak_kib(proc.pid) / KIB)
        clean = reap_group(proc.pid)
        self.groups.discard(proc.pid)
        if proc.returncode != 0:
            sys.stderr.write(err.decode(errors="replace")[-2000:])
        return wall, out, peak_mb, proc.returncode == 0 and clean


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, program: Program, cache_dir: Path):
        self.program = program
        self.cache_dir = cache_dir
        self.port = None
        self.log = open(program.workdir / "serve.log", "ab")
        self.proc = program.spawn(
            ["-m", "repro", "serve", "--port", "0",
             "--cache", str(cache_dir)],
            stdout=subprocess.PIPE, stderr=self.log)
        line = self.proc.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def peak_mb(self) -> float:
        """Summed peak resident memory of the front-end and pool."""
        return sum(peak_kib(pid) for pid in group_pids(self.proc.pid)) / KIB

    def stop(self) -> bool:
        """SIGINT (graceful drain), then check the group and the port.

        False when the server did not exit in time, left a process
        behind, or its port is still bound.
        """
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                clean = False
        clean = reap_group(self.proc.pid) and clean
        self.program.groups.discard(self.proc.pid)
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return clean and (self.port is None or port_free(self.port))
