"""What the benchmark reads from /proc: the process tree under a pid,
and the busy time of the CPUs this process may run on.

``cpu_busy_s`` counts user, nice, system, irq and softirq time of those
CPUs; idle time and time the hypervisor gave to other machines (steal)
are not in it.  A job runs alone on the machine (one closed loop), so
the difference of two readings around it is the CPU time the job cost,
including the Ray worker and actor processes that ended during it
(Ray does not wait for them, so their time is in no parent's cutime).
It does not count the time the job's processes waited for a CPU the
host was running another machine on, which wall time does.
"""

from __future__ import annotations

import os

TICK = os.sysconf("SC_CLK_TCK")
_CPUS = {f"cpu{c}" for c in os.sched_getaffinity(0)}


def process_tree(pid: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, ()))
    return out


def cpu_busy_s() -> float:
    """Busy seconds of this process's CPUs since boot, summed."""
    busy = 0
    with open("/proc/stat") as f:
        for line in f:
            name, *v = line.split()
            if name in _CPUS:
                user, nice, system, _, _, irq, softirq = map(int, v[:7])
                busy += user + nice + system + irq + softirq
    return busy / TICK
