"""Starts the benchmark's commands and reports their wall time and peak RSS.

Linux folds the parent's peak RSS into a child's ``ru_maxrss`` when the
child execs, so commands started straight from the benchmark, whose
memory grows as it generates inputs and checks outputs, would report the
benchmark's peak instead of their own.  This small process starts them
instead.  It reads one JSON request per line on stdin and answers each
with one JSON line on stdout; it exits when stdin closes.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdin"], "rb") as inp, open(request["stdout"], "wb") as out, \
                open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"], file_actions=[
                (os.POSIX_SPAWN_DUP2, inp.fileno(), 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            _pid, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        print(json.dumps({"wall_s": wall, "rss_kib": usage.ru_maxrss,
                          "code": os.waitstatus_to_exitcode(status)}), flush=True)


if __name__ == "__main__":
    main()
