"""Set-up probe, run in a fresh interpreter by run.py.

Reads a config from stdin, imports sensebound from the checkout's src/,
parses the config and builds its RunContext, and prints the
time.perf_counter() stamps taken after the import and after the build as
one JSON line. perf_counter reads the system-wide monotonic clock, so the
parent subtracts the stamp it took before starting this process.
"""

import json
import os
import sys
import time

text = sys.stdin.read()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import sensebound  # noqa: E402

imported = time.perf_counter()
sensebound.build_context(sensebound.parse_config(text))
built = time.perf_counter()
print(json.dumps({"imported": imported, "built": built, "module": sensebound.__file__}))
