"""One cold start: import the CLI in a fresh interpreter and run a tiny case.

Run by perfbench/run.py as `python3 perfbench/coldstart.py <cli args>`
with src/ on PYTHONPATH. Prints one JSON object: import_s, first_solve_s,
the CLI's exit code and its output.
"""

import contextlib
import io
import json
import sys
import time

start = time.perf_counter()
import plskit.cli  # noqa: E402  (the import is what is timed)

imported = time.perf_counter()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = plskit.cli.main(sys.argv[1:])
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "first_solve_s": done - imported,
                  "exit": code, "output": out.getvalue(),
                  "module": plskit.cli.__file__}))
