"""Host speed probe, for times that do not follow the neighbours' load.

On a shared host the same Python work measured here took anywhere from 1x
to 2x its fastest time, in phases lasting tens of seconds, so raw wall
times of runs a minute apart differed by 20-40%.  The probe runs a fixed
piece of interpreter work (small dict and tuple traffic, like the
program's) and times it.  While a workload runs, a SIGPROF handler runs
the probe after every 10 ms of process CPU time.  A measured time t is
then reported as

    t * mean(REF_S / probe time)   over the probes taken during t,

that is, in seconds at the speed where the probe takes REF_S.  The raw
times are printed next to the adjusted ones.

Run as a script, it measures set-up time instead: the import of
``defreg`` and ``defreg.cli`` in this fresh interpreter, bracketed by
probes.  It imports nothing the program might import first.
"""

import signal
import time

# Probe time at the fast end of what was measured on a 2-vCPU Sapphire
# Rapids KVM guest with Python 3.11; it only sets the scale of the result.
REF_S = 10e-6
INTERVAL_S = 0.01
BRACKET = 40  # probes before and after the set-up import


def probe() -> float:
    """Seconds taken by one fixed piece of interpreter work."""
    t = time.perf_counter()
    d = {}
    for i in range(64):
        d[i & 15] = (i, d.get(i & 7))
    return time.perf_counter() - t


def factor(samples) -> float:
    """Mean of REF_S / probe time: below 1 when the host runs slow."""
    return sum(REF_S / s for s in samples) / len(samples)


class Sampler:
    """Probe times taken every INTERVAL_S of process CPU time."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        # The first probe after the program ran finds cold caches; the
        # fastest of three measures the host, not the program's footprint.
        self.samples.append(min(probe(), probe(), probe()))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def factor_since(self, k: int, at_least: int = 8) -> float:
        """Factor over the probes from index k on, or the last few."""
        recent = self.samples[k:]
        if len(recent) < at_least:
            recent = self.samples[-at_least:] or [probe() for _ in range(at_least)]
        return factor(recent)


def measure_import() -> tuple[float, float]:
    """(raw, adjusted) seconds to import defreg and defreg.cli."""
    before = [probe() for _ in range(BRACKET)]
    t = time.perf_counter()
    import defreg  # noqa: F401
    import defreg.cli  # noqa: F401
    raw = time.perf_counter() - t
    after = [probe() for _ in range(BRACKET)]
    return raw, raw * factor(before + after)


if __name__ == "__main__":
    print(*measure_import())
