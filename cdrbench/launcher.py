"""Small helper process that runs the benchmark's commands one at a time.

Linux carries a parent's peak RSS into a child over fork and exec, so a
child started by the benchmark process, which holds the re-derived results,
would report that peak instead of its own.  This helper is started before
the benchmark grows and stays small; its children's peak RSS is their own.

Protocol: one JSON request per line on stdin,
  {"argv": [...], "stdout": path, "stderr": path, "env": {...}, "timeout_s": n}
and one JSON reply per line on stdout,
  {"wall_s": seconds from launch to exit, "rss_mb": peak RSS, "status": exit code}.
The token ``{launch_ns}`` in argv is replaced by the CLOCK_MONOTONIC time, in
nanoseconds, taken just before the launch.  The helper exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    launch_ns = str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    argv = [launch_ns if arg == "{launch_ns}" else arg for arg in request["argv"]]
    env = {**os.environ, **request["env"]}
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(request["timeout_s"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "status": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
