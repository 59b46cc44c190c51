"""Starts run.py's commands, one at a time, from a small process.

    python3 hbench/launcher.py

Reads one JSON request a line on stdin: {"argv", "cwd", "stdout",
"stderr", "timeout"}. Runs the command with its stdout and stderr in those
files, kills it after `timeout` seconds, and answers with one JSON line:
{"code", "cpu", "rss_mb", "timed_out"}. Exits when stdin closes.

A child's max RSS counts the memory of the process that forked it, so
commands forked by run.py itself would report run.py's size. This process
holds little, and the max RSS it reports is the command's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading


def run(request: dict) -> dict:
    expired = threading.Event()
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def expire() -> None:
            expired.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "timed_out": expired.is_set()}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
