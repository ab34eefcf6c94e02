"""Run one program process and report its own wall time and rusage.

    python3 bench/spawn.py REPORT_FD COMMAND...

A process's ru_maxrss includes the resident memory of the process that
started it.  The benchmark holds numpy, scipy and mpmath, so a process it
started itself would report the benchmark's memory as its own.  This
small process starts the command instead.  The command inherits stdin,
stdout and stderr.  When it has exited, one JSON line goes to file
descriptor REPORT_FD: the wall time from start to exit, the user+sys CPU
time, ru_maxrss in KiB and the exit code.
"""

import json
import os
import sys
import time


def main() -> int:
    report_fd, argv = int(sys.argv[1]), sys.argv[2:]
    os.set_inheritable(report_fd, False)  # the command must not hold the report pipe open
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with os.fdopen(report_fd, "w") as report:
        json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss,
                   "exit_code": os.waitstatus_to_exitcode(status)}, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
