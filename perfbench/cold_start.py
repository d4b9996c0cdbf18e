"""Cold start-up of hc3cam, timed inside one fresh process.

Prints one JSON line with milliseconds for: importing the CLI and the
packages it pulls in, parsing both packaged .ctab files, and the first
(uncached) hc3 and camellia ``load_constants`` calls, which parse,
validate and build the lookup tables.  Run with PYTHONPATH naming the
source tree under test.
"""

import json
import os.path
import time

t0 = time.perf_counter()
import hc3cam.cli  # noqa: E402
from hc3cam import camellia, ctab, hc3  # noqa: E402
t1 = time.perf_counter()

data = os.path.join(os.path.dirname(hc3cam.cli.__file__), "data")
texts = []
for name in ("hc3.ctab", "camellia.ctab"):
    with open(os.path.join(data, name), encoding="ascii") as fh:
        texts.append(fh.read())
t2 = time.perf_counter()
for text in texts:
    ctab.parse(text)
t3 = time.perf_counter()
hc3.load_constants()
t4 = time.perf_counter()
camellia.load_constants()
t5 = time.perf_counter()

print(json.dumps({
    "import.ms": (t1 - t0) * 1e3,
    "ctab.parse.ms": (t3 - t2) * 1e3,
    "hc3.load_constants.ms": (t4 - t3) * 1e3,
    "camellia.load_constants.ms": (t5 - t4) * 1e3,
}))
