"""One set-up of qsimplex as a fresh process pays it: import the package and
read the given LP JSON files through ``qsimplex.io``.

Usage: python3 setup_probe.py SRC_DIR FILE... ; prints the seconds taken.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import qsimplex.io

    for path in sys.argv[2:]:
        qsimplex.io.read_instance(path)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
