"""The aggregation service in a process of its own, started through the
``ldphist serve`` command line.

The child runs with unbuffered output, because ``serve`` prints its
``[serving]`` line (which carries the bound port) without a flush.  Every
wait has a deadline, and ``stop`` ends and reaps the process on every
exit path, so a failed run leaves neither a process nor a bound port.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import sys
import time


class ServerError(RuntimeError):
    pass


class ServerProcess:
    def __init__(self, root: str, config: dict):
        """Start ``ldphist serve`` on a free loopback port.  ``config``
        holds the session's d, n, eps, beta, seed, K and code."""
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        cmd = [
            sys.executable, "-u", "-m", "ldphist", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--d", str(config["d"]), "--n", str(config["n"]),
            "--eps", repr(float(config["eps"])), "--beta", repr(float(config["beta"])),
            "--seed", str(config["seed"]), "--k-override", str(config["K"]),
            "--code", config["code"],
        ]
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
        )
        self.address = None

    def wait_ready(self, timeout: float = 60.0) -> tuple:
        """Read the ``[serving]`` line and return the (host, port) it names."""
        deadline = time.monotonic() + timeout
        buf = b""
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in buf:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise ServerError(f"no [serving] line within {timeout:.0f}s")
                if not sel.select(left):
                    continue
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise ServerError(f"server exited before serving (code {self.proc.poll()})")
                buf += chunk
        line = buf.split(b"\n", 1)[0].decode("utf-8", "replace")
        if not line.startswith("[serving] "):
            raise ServerError(f"unexpected first server line {line!r}")
        info = json.loads(line[len("[serving] "):])
        self.address = (info["host"], int(info["port"]))
        return self.address

    def peak_rss_kb(self) -> int:
        """The server's peak resident set so far (0 where /proc is absent)."""
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def stop(self, grace: float = 0.5, timeout: float = 5.0) -> None:
        """Give the server ``grace`` seconds to exit by itself (it does
        after a close request), then interrupt, terminate and finally kill
        it, reaping it in every case."""
        proc = self.proc
        if proc.returncode is not None:
            return
        try:
            proc.communicate(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
        for action in (lambda: proc.send_signal(signal.SIGINT), proc.terminate, proc.kill):
            if proc.poll() is not None:
                break
            action()
            try:
                proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        proc.wait()
