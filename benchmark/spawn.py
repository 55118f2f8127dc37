"""Start the CLI processes of a run and report their wall time and peak RSS.

``run.py`` holds numpy and the oracle's arrays in memory. Linux counts the
memory a child starts with, copied or shared from the process that forks
it, in the child's peak RSS, so ``run.py`` forks nothing itself: it starts
this small process once per run and sends it one request per CLI call.

Protocol, one JSON object per line. Request on stdin:
``{"argv": [...], "cwd": ..., "stdout": path, "stderr": path}``.
Reply on stdout: ``{"returncode": int, "seconds": float, "maxrss_kb": int}``,
with the wall time from spawning the process to reaping it.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "w", encoding="utf-8") as out, open(req["stderr"], "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"returncode": proc.returncode, "seconds": seconds, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
