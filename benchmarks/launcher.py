"""Start child processes from a small process, one request at a time.

Linux carries the peak RSS of the address space a process execs from into
the new program's peak, and Python's subprocess execs from the caller's
address space (vfork).  A CLI child started straight from the benchmark
process would therefore report the benchmark's own peak.  This launcher
stays small, so the peak RSS it reports for each child is the child's.

Protocol: one JSON request per line on standard input, with keys argv,
stdout, stderr (file paths) and timeout (seconds); one JSON reply per line
on standard output, with keys code and maxrss_kb, or error.  End of input
ends the launcher.  ``Launcher`` is the client side.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys


def _alarm(signum, frame):
    raise TimeoutError


def run(argv: list[str], out_path: str, err_path: str, timeout: float) -> dict:
    """Run argv to completion and return its exit code and peak RSS.

    os.wait4 gives the child's own peak RSS and blocks without the polling
    that a timed Popen.wait does; an interval timer bounds the wait, and a
    child that overruns is killed and reaped."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        os.waitpid(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        return {"error": f"timed out after {timeout:g} s: {' '.join(argv)}"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


class Launcher:
    """Client for a launcher process; close it (or use ``with``) to stop it."""

    def __init__(self, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv: list[str], out_path, err_path, timeout: float) -> tuple[int, int]:
        """(exit code, peak RSS in KB) of argv; TimeoutError if it overran."""
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self._proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise TimeoutError(reply["error"])
        return reply["code"], reply["maxrss_kb"]

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
