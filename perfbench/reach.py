"""Reach: the largest degree cap D for which ``weyl.inverse_search(phi, D)``
finishes within a time budget, on ROADMAP's n=2, F2 reference map.

The sweep starts at the map's certified bound and goes up one cap at a
time; each cap is a fresh call, so it pays for every lower cap again.  The
calls run in one child process, which reports each finished cap on its
standard output.  The parent stops the child as soon as a cap overruns the
budget instead of waiting for it to finish.

The budget is in reference seconds (``speed.py``): the child samples the
host's slowness while each cap runs and reports the cap's reference time,
and the parent stretches its wall-clock deadline by the slowness sampled
just before the cap.

Child mode: ``python3 reach.py --child SRC GENERATOR_SEED MAX_CAP``.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path

import speed

BUDGET_S = 10.0
GRACE_S = 1.0  # start-up and pipe latency allowed beyond the budget
SLACK = 1.2  # the host may slow down during a cap; its deadline allows for that
MAX_CAP = 24
SWEEP_LIMIT_S = 90.0  # no further cap is started once the sweep has run this long


class ReachError(RuntimeError):
    """The child failed before the sweep reached an overrun."""


def sweep(src: Path, generator_seed: int) -> tuple[int, dict]:
    """Return (reach, {cap: reference seconds for each cap that finished})."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(src), str(generator_seed), str(MAX_CAP)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    fd = proc.stdout.fileno()
    buf = b""
    times: dict[int, float] = {}
    reach = None
    began = time.monotonic()
    deadline = None  # set while a cap runs
    try:
        while True:
            timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
            ready, _, _ = select.select([fd], [], [], timeout if timeout is not None else 60.0)
            if not ready:
                if deadline is None:
                    raise ReachError("child sent nothing for 60 s")
                break  # the cap in progress overran the budget
            chunk = os.read(fd, 4096)
            if not chunk:
                proc.wait()
                if proc.returncode != 0:
                    raise ReachError(proc.stderr.read().decode("utf-8", "replace").strip()[-500:])
                break  # the child reached MAX_CAP
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                fields = line.decode("ascii").split()
                if fields[0] == "ready":
                    reach = int(fields[1]) - 1  # the certified bound, where the sweep starts
                elif fields[0] == "start":
                    if time.monotonic() - began > SWEEP_LIMIT_S:
                        return reach, times
                    deadline = time.monotonic() + BUDGET_S * float(fields[2]) * SLACK + GRACE_S
                elif fields[0] == "done":
                    cap, seconds = int(fields[1]), float(fields[2])
                    if seconds > BUDGET_S:
                        return reach, times
                    times[cap] = seconds
                    reach = cap
                    deadline = None  # until the child has sampled the host for the next cap
        return reach, times
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def _child(src: str, generator_seed: int, max_cap: int) -> None:
    sys.path.insert(0, src)
    from canonalg.rings import GF
    from canonalg.weyl import WeylAlgebra, generate_central_perturbation, inverse_degree_bound, inverse_search

    phi = generate_central_perturbation(WeylAlgebra(GF(2), 2), generator_seed)
    start_cap = inverse_degree_bound(phi)
    print(f"ready {start_cap}", flush=True)
    for cap in range(start_cap, max_cap + 1):
        print(f"start {cap} {speed.factor()!r}", flush=True)
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            inverse, _ = inverse_search(phi, cap)
            t1 = time.perf_counter()
        if inverse is not None:
            raise SystemExit(f"the reach map is invertible (found an inverse at cap <= {cap})")
        print(f"done {cap} {sampler.ref_seconds(t0, t1)!r}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] != "--child":
        raise SystemExit(__doc__)
    _child(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
