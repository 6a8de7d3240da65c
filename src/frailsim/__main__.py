"""``python -m frailsim`` and the installed ``frailsim`` command.

BLAS and OpenMP read their thread counts once, when numpy loads its
library, so they are set here, before anything imports numpy: one thread
each, unless the caller's environment already set a value. Pool workers
inherit the environment, and with it the setting. The study's linear
algebra is small and tall (a QR of at most 3,000 rows by 9 columns, and
matrix products of that shape), which BLAS threads do not speed up, and
with ``--workers`` the pool's processes already fill the CPUs. Importing
the package sets nothing.
"""
import os
import sys

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def main() -> int:
    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
