"""One kernelim CLI call in a fresh interpreter, timed from the inside.

    python3 child.py RESULT_JSON [--spans SPANS_JSON] -- CLI_ARGS...

BLAS is pinned to one thread before numpy is imported.  The result file holds
the import time of `kernelim.cli` (setup_s), the time of `main(CLI_ARGS)`
(command_s), the exit code, the peak resident set and the BLAS thread count.
With --spans, the public functions of every layer are wrapped (see spans.py)
and the spans are written to SPANS_JSON after the call; their run id is the
file's directory and stem, e.g. `rep0-traced/select`.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OPENBLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in OPENBLAS_THREAD_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(argv) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    result_path = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    t0 = time.perf_counter()
    import kernelim.cli as cli
    t1 = time.perf_counter()

    if spans_path is None:
        t2 = time.perf_counter()
        rc = cli.main(cli_argv)
        t3 = time.perf_counter()
    else:
        from spans import Tracer

        path = Path(spans_path)
        tracer = Tracer(f"{path.parent.name}/{path.name.split('.')[0]}")
        tracer.record("setup", t0, t1)
        with tracer.patched():
            t2 = time.perf_counter()
            with tracer.span("cli.main"):
                rc = cli.main(cli_argv)
            t3 = time.perf_counter()
        tracer.write(spans_path)

    result = {
        "rc": rc,
        "setup_s": t1 - t0,
        "command_s": t3 - t2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
