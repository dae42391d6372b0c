"""Starts the benchmark's children from a process that holds little memory.

On Linux a child's ``ru_maxrss`` also covers the memory it shared with the
process it was forked from, up to its ``exec``.  Children started straight
from ``run.py``, which holds the config, the reports and the schema, would
report run.py's size whenever it exceeds their own.  So ``run.py`` starts
this process once (``python3 -S``, standard library only) and has it start
every child.  Its own footprint stays below that of any Python child.

Protocol: one JSON line per request on stdin,
``{"argv": [...], "env": {...}, "stderr": path}``; one JSON line per reply on
stdout, ``{"spawned", "wall", "code", "maxrss_kib", "stdout"}``, where
``spawned`` is ``time.perf_counter()`` just before the spawn and ``stdout``
is the child's output decoded as latin-1.  It exits at end of input.
"""

import json
import os
import sys
import time


def run(argv, env, stderr_path):
    read_fd, write_fd = os.pipe()
    err_fd = os.open(stderr_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, write_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2)]
        spawned = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    finally:
        os.close(write_fd)
        os.close(err_fd)
    chunks = []
    while True:
        chunk = os.read(read_fd, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(read_fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - spawned
    return {"spawned": spawned, "wall": wall, "code": os.waitstatus_to_exitcode(status),
            "maxrss_kib": usage.ru_maxrss, "stdout": b"".join(chunks).decode("latin-1")}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["env"], req["stderr"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
