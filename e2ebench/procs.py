"""Process hygiene: start, stop and account for every program process.

Every process the benchmark starts runs in a session (and so a process
group) of its own, and carries a per-run token in its environment that
its descendants inherit -- the cluster supervisor copies its environment
into the shard workers it spawns.  Stopping a child sends SIGTERM to its
group, waits, then sends SIGKILL.  :meth:`ProcessTracker.check` finds
any process still alive that belongs to a started group or carries the
token (so a grandchild that left the group is found too), kills it, and
reports it together with any port the run bound that is still listening.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from pathlib import Path

TOKEN_VAR = "E2EBENCH_RUN_TOKEN"
_LISTEN_STATE = "0A"


class ChildFailed(RuntimeError):
    """A program process exited badly or never became ready."""


class Child:
    """One started program process, ready once it prints the
    ``listening ... role=<role>`` line of the role it was started for
    (a cluster's shard workers share the supervisor's stdout and
    announce themselves first)."""

    def __init__(self, name: str, popen: subprocess.Popen, log: Path, role: str,
                 started: float):
        self.name = name
        self.role = role
        self.popen = popen
        self.log = log
        self.started = started
        self.port: int | None = None
        self.listening_at: float | None = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    @property
    def pid(self) -> int:
        return self.popen.pid

    def _read(self) -> None:
        for line in self.popen.stdout:
            if self.port is None and line.startswith("listening "):
                fields = dict(
                    part.split("=", 1) for part in line.split()[1:] if "=" in part
                )
                if fields.get("role") != self.role:
                    continue
                self.port = int(fields["port"])
                self.listening_at = time.perf_counter()
                self._ready.set()
        self._ready.set()

    def wait_listening(self, timeout: float) -> int:
        """Block until the process prints its ``listening`` line."""
        if not self._ready.wait(timeout) or self.port is None:
            raise ChildFailed(
                f"{self.name} did not report a listening port within {timeout:.0f}s "
                f"(exit status {self.popen.poll()}); see {self.log.name}: "
                f"{_tail(self.log)}"
            )
        return self.port

    def close(self, timeout: float) -> None:
        """Close stdout once every holder of the pipe has exited (a leaked
        descendant keeps it open; :meth:`ProcessTracker.check` kills it)."""
        self._reader.join(timeout)
        if not self._reader.is_alive():
            self.popen.stdout.close()

    def peak_rss_mb(self, tracker: "ProcessTracker") -> float:
        """Summed peak resident set of every live process in the group."""
        total_kb = 0
        for pid in tracker.group_pids(self.pid):
            total_kb += _status_field(pid, "VmHWM")
        return total_kb / 1024.0


class ProcessTracker:
    """Starts program processes and proves they are all gone afterwards."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.token = f"{os.getpid()}-{time.time_ns()}"
        self.env = dict(env, **{TOKEN_VAR: self.token})
        self.children: list[Child] = []
        self.pgids: set[int] = set()
        self.ports: set[int] = set()

    # -- starting ------------------------------------------------------
    def _popen(self, name: str, argv: list[str], stdout) -> tuple[subprocess.Popen, Path]:
        log = self.workdir / f"{name}-{len(self.pgids)}.log"
        with open(log, "w") as stderr:
            popen = subprocess.Popen(
                argv,
                cwd=self.workdir,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=stdout,
                stderr=stderr,
                text=True,
                start_new_session=True,
            )
        self.pgids.add(popen.pid)
        return popen, log

    def spawn(self, name: str, argv: list[str], role: str) -> Child:
        """Start a long-running process whose stdout announces its port."""
        started = time.perf_counter()
        popen, log = self._popen(name, argv, subprocess.PIPE)
        child = Child(name, popen, log, role, started)
        self.children.append(child)
        return child

    def run(self, name: str, argv: list[str], timeout: float) -> tuple[float, float]:
        """Run a process to completion; returns (wall seconds, peak RSS MB)."""
        started = time.perf_counter()
        popen, log = self._popen(name, argv, subprocess.DEVNULL)
        killer = threading.Timer(timeout, _kill_group, (popen.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(popen.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        popen.returncode = os.waitstatus_to_exitcode(status)
        if popen.returncode != 0:
            raise ChildFailed(
                f"{name} exited with status {popen.returncode}: {_tail(log)}"
            )
        return wall, usage.ru_maxrss / 1024.0

    def note_ports(self, child: Child) -> set[int]:
        """Record (and return) every port the child announced or its
        group listens on."""
        ports = _listening_ports(self.group_pids(child.pid))
        if child.port:
            ports.add(child.port)
        self.ports |= ports
        return ports

    # -- stopping ------------------------------------------------------
    def stop(self, child: Child, timeout: float = 15.0) -> None:
        """SIGTERM the child's group, wait, then SIGKILL what is left."""
        if child.popen.poll() is None:
            self.note_ports(child)
            _signal_group(child.pid, signal.SIGTERM)
            try:
                child.popen.wait(timeout)
            except subprocess.TimeoutExpired:
                _kill_group(child.pid)
                child.popen.wait(timeout)
        # The group leader is gone; its workers must follow it.
        deadline = time.monotonic() + timeout
        while self.group_pids(child.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if self.group_pids(child.pid):
            _kill_group(child.pid)
        child.close(timeout)

    def stop_all(self) -> None:
        for child in self.children:
            self.stop(child)

    # -- accounting ----------------------------------------------------
    def group_pids(self, pgid: int) -> list[int]:
        return [pid for pid, group, _ in _live_processes() if group == pgid]

    def survivors(self) -> list[int]:
        """Live processes this run started, directly or through a child."""
        marker = f"{TOKEN_VAR}={self.token}".encode()
        found = []
        for pid, group, _ in _live_processes():
            if group in self.pgids or marker in _environ(pid):
                found.append(pid)
        return found

    def check(self) -> list[str]:
        """Report leaked processes and still-listening ports, then kill
        the leaked processes."""
        open_ports = self.ports & _listening_ports(None)
        problems = [f"port {port} still listening" for port in sorted(open_ports)]
        for pid in self.survivors():
            problems.append(f"process {pid} ({_cmdline(pid)}) still alive")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while self.survivors() and time.monotonic() < deadline:
            time.sleep(0.05)
        for child in self.children:
            if child.popen.poll() is None:
                child.popen.wait(5.0)
            child.close(5.0)
        return problems


# ----------------------------------------------------------------------
# /proc helpers (Linux)
# ----------------------------------------------------------------------
def _live_processes():
    """``(pid, pgid, state)`` of every non-zombie process."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            raw = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = raw[raw.rfind(")") + 2 :].split()
        state, pgid = fields[0], int(fields[2])
        if state not in ("Z", "X"):
            out.append((int(entry), pgid, state))
    return out


def _environ(pid: int) -> bytes:
    try:
        return Path(f"/proc/{pid}/environ").read_bytes()
    except OSError:
        return b""


def _cmdline(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return "?"
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()[:120]


def _status_field(pid: int, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _socket_inodes(pid: int) -> set[str]:
    inodes = set()
    try:
        names = os.listdir(f"/proc/{pid}/fd")
    except OSError:
        return inodes
    for name in names:
        try:
            target = os.readlink(f"/proc/{pid}/fd/{name}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    return inodes


def _listening_ports(pids) -> set[int]:
    """TCP ports in LISTEN state, owned by ``pids`` (or by anyone)."""
    wanted = None
    if pids is not None:
        wanted = set()
        for pid in pids:
            wanted |= _socket_inodes(pid)
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            if fields[3] != _LISTEN_STATE:
                continue
            if wanted is not None and fields[9] not in wanted:
                continue
            ports.add(int(fields[1].rsplit(":", 1)[1], 16))
    return ports


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def _kill_group(pgid: int) -> None:
    _signal_group(pgid, signal.SIGKILL)


def _tail(log: Path, lines: int = 3) -> str:
    try:
        return " | ".join(log.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return ""
