"""Fixed reference task that probes the current speed of the machine.

The benchmark runs this script, as a fresh process, right after every timed
command and divides each command's wall time by the mean time of the probes
just before and just after it.  The host's processor speed drifts by tens of
per cent in episodes of seconds to minutes; a probe taken next to the
command slows down with it, so the ratio moves only when the program does.

The work is the same on every run and resembles the program's: interpreter
start, ``import numpy``, splitting CSV lines into kept tuples, ``int()`` on
timestamps, dict counting, a dict of contact sets, a scattered numpy gather
and a numpy sort and bincount.  It imports nothing from
``cdrevents``, so no change to the program changes the probe.
"""

import sys

import numpy as np

N_LINES = 25_000
N_USERS = 30_000
N_GATHER = 3_000_000


def main() -> None:
    text = "\n".join(
        f"u{i * 7_919 % N_USERS:06d},u{i * 104_729 % N_USERS:06d},{('out', 'in')[i & 1]},"
        f"{1_325_500_000 + i * 37},A{i % 24:03d}"
        for i in range(N_LINES)
    )
    records = []
    counts: dict[tuple[str, int], int] = {}
    contacts: dict[str, set[str]] = {}
    for line in text.splitlines():
        user, other, direction, ts, antenna = line.split(",")
        t = int(ts)
        records.append((user, other, direction, t, antenna))
        key = (antenna, t // 3_600)
        counts[key] = counts.get(key, 0) + 1
        contacts.setdefault(user, set()).add(other)
        contacts.setdefault(other, set()).add(user)
    edges = sum(len(v) for v in contacts.values())
    # a scattered gather over 24 MB, for the cache and memory traffic
    # of the program's larger heap
    order = np.arange(N_GATHER, dtype=np.int64) * 2_654_435_761 % N_GATHER
    gathered = int(np.arange(N_GATHER, dtype=np.int64)[order][::1_000].sum())
    hours = np.sort(np.array([r[3] for r in records], dtype=np.int64)) // 3_600
    busiest = int(np.bincount(hours - hours[0]).max())
    sys.stdout.write(f"{len(counts)} {edges} {gathered} {busiest}\n")


if __name__ == "__main__":
    main()
