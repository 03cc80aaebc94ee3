"""One fresh-process CLI run: `python3 bench/cold.py <knapagg arguments>`.

Behaves like the `knapagg` console script (same stdout, same exit code) and
adds one last stderr line, `setup_s=<seconds>`: the time from the start of
this script to the end of the call, that is, importing knapagg.cli plus the
first call.  The interpreter's own start-up is outside it; the caller's
wall-clock time of the whole process covers that too.
"""

import sys
import time

started = time.perf_counter()

from knapagg.cli import main  # noqa: E402  (the import is what is timed)

code = main(sys.argv[1:])
sys.stdout.flush()
print(f"setup_s={time.perf_counter() - started!r}", file=sys.stderr)
sys.exit(code)
