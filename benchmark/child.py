"""The measured process: runs one workload through ``lcd.cli.main``.

Started by run.py with the checkout's ``src`` first on the import path.
It runs whole rounds (one ``lcd train`` or ``lcd eval`` call each) while
the next round is expected to end within ``--seconds`` of its start,
then writes ``child.json`` and ``spans.jsonl`` into ``--out``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def _blas() -> dict:
    """Version and thread count of the OpenBLAS that NumPy loaded."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return {"blas": config().decode().strip(), "blas_threads": threads(), "blas_lib": path}
    return {"blas": "unknown", "blas_threads": None, "blas_lib": None}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("round_argv", nargs=argparse.REMAINDER, help="lcd arguments; {round} is the round number")
    args = p.parse_args()

    sys.path.insert(0, args.src)
    import numpy
    import lcd
    import lcd.cli

    tracer = spans.Tracer()
    tracer.install(spans.TRACED if args.trace else spans.TIMED)

    rounds = []
    peak_rss_mb = None
    while True:
        argv = [a.replace("{round}", str(len(rounds))) for a in args.round_argv]
        t0 = time.perf_counter()
        rc = lcd.cli.main(argv)
        t1 = time.perf_counter()
        rounds.append({"rc": rc, "start": t0, "end": t1})
        if peak_rss_mb is None:
            # one lcd call's peak, as a user sees it; how many rounds fit in the
            # run depends on the machine's speed, and later rounds can raise
            # ru_maxrss through allocator reuse alone
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if t1 - START + (t1 - t0) > args.seconds:
            break

    result = {
        "start": START,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "absent": tracer.absent,
        "lcd_file": lcd.__file__,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **_blas(),
    }
    tracer.write(os.path.join(args.out, "spans.jsonl"))
    with open(os.path.join(args.out, "child.json"), "w") as f:
        json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
