"""Launches the benchmark's CLI jobs from a process that stays small.

On Linux a child's ``ru_maxrss`` starts at the peak RSS of the process that
spawned it, so jobs spawned straight from the benchmark (which holds numpy
and the generated inputs) would all report the benchmark's own size. This
launcher imports only the standard library; the peak RSS it reports is the
job's own unless the job stays below the launcher's few megabytes.

Protocol: one JSON request per stdin line, ``{"argv", "stdout", "stderr",
"cwd", "timeout"}``; one JSON reply per stdout line, ``{"wall", "code",
"maxrss_kib"}``. Wall time runs from spawn to exit. It exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"])
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
