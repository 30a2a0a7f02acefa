"""Set-up probe: one fresh interpreter imports gradedlie and resolves an algebra.

    python3 bench/probe.py SRC_DIR ALGEBRA VALIDATE

ALGEBRA is a catalog key or a presentation file, resolved the way the
command line resolves --algebra; VALIDATE (0 or 1) says whether a file is
validated on load.  Prints the elapsed seconds.
"""

import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
from gradedlie import catalog, cli  # noqa: E402,F401  (the CLI's import cost)

ref, validate = sys.argv[2], sys.argv[3] == "1"
if ref in catalog.keys():
    catalog.get(ref)
else:
    catalog.load(ref, validate=validate)
print(repr(perf_counter() - start))
