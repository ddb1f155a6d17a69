"""One fresh statforge process, as a CLI user starts it.

    python3 child.py RESULT_JSON SPAWNED TRACE -- run CONFIG --workers 1 --out DIR
    python3 child.py RESULT_JSON --info

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started this
process; the set-up time is the span from then until ``statforge.cli`` is
imported. Everything after the import -- config parsing, the run and writing
``report.json``/``metrics.csv`` -- is timed as the run, in wall seconds and in
process user+sys seconds, which include OpenBLAS threads. Untraced runs are
sampled by ``SpeedSampler``, so that the parent can scale the times by the
host's speed during the run. With TRACE=1 the layers are wrapped by
``tracer.Tracer`` before the run. The result is written as JSON to
RESULT_JSON; the statforge exit code is one of its fields.
``--info`` records interpreter, library and OpenBLAS versions and threads.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import sys
import time


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    info = {"library": paths[0] if paths else None, "threads": None, "config": None}
    if not paths:
        return info
    lib = ctypes.CDLL(paths[0])
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                info["threads"] = threads()
                info["config"] = config().decode()
                return info
    return info


def _info() -> dict:
    import platform

    import numpy
    import scipy

    import statforge.cli  # noqa: F401  (compiles and caches the package)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas": _openblas(),
        "statforge_file": statforge.cli.__file__,
    }


class SpeedSampler:
    """Times a fixed bit of work every ``period`` seconds while the run goes
    on, from a ``SIGALRM`` handler, which runs on the run's own thread between
    bytecodes. The timings sample the host's speed where the run executes,
    all through it; their sum is taken off the run's times."""

    def __init__(self, period: float = 0.025):
        import numpy as np
        from scipy import special

        self._np, self._special = np, special
        self.period = period
        self.small = np.linspace(0.0, 1.0, 8)
        self.wall: list = []
        self.cpu: list = []
        self._busy = False
        self._work()  # any lazy import happens here, not in the handler

    def _work(self) -> float:
        """A Python loop, NumPy calls on a tiny array, and a mix of NumPy,
        SciPy and ``json`` calls, like statforge's per-replicate code."""
        np, special, x = self._np, self._special, self.small
        total = 0.0
        for i in range(1_500):
            total += i * i % 7
        for _ in range(20):
            total += float((x * 3.0).sum())
        for _ in range(3):
            y = np.concatenate((x, x[::-1]))
            total += float(np.sort(y)[3] + np.cumsum(y)[-1] + np.exp(y).mean() + y.std())
            total += float(special.ndtr(y).sum() + np.dot(y, y) + np.searchsorted(x, 0.5))
            total += float(np.linalg.norm(y) + np.partition(y, 4)[4] + np.abs(y).max())
            total += len(json.dumps({"y": [float(v) for v in y]}))
        return total

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a sample outlasting the period is not re-entered
            return
        self._busy = True
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            self._work()
            self.cpu.append(time.process_time() - cpu0)
            self.wall.append(time.perf_counter() - wall0)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv: list[str]) -> int:
    result_path = argv[0]
    if argv[1] == "--info":
        info = _info()
    else:
        spawned, trace, cli_args = float(argv[1]), argv[2] == "1", argv[4:]
        import statforge.cli

        imported = time.monotonic()
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        sampler = SpeedSampler()
        with contextlib.ExitStack() as stack:
            if not trace:
                stack.enter_context(sampler)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            exit_code = statforge.cli.main(cli_args)
            wall1, cpu1 = time.perf_counter(), time.process_time()
        info = {
            "exit_code": exit_code,
            "setup_s": imported - spawned,
            "run_s": wall1 - wall0 - sum(sampler.wall),
            "cpu_s": cpu1 - cpu0 - sum(sampler.cpu),
            "probe_s": sampler.wall,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.summary() if tracer else None,
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
