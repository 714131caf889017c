"""Start-up cost: `import sensebound` loads numpy and `scipy.linalg` only.

Every other scipy subpackage is imported inside the one function that
needs it, so a bundled run that never reaches that function never pays for
the import. The check runs in a fresh interpreter, because the test
modules of this suite import scipy themselves.
"""

import json
import os
import subprocess
import sys
import textwrap

import sensebound

DEFERRED = ("scipy.signal", "scipy.interpolate", "scipy.spatial", "scipy.special", "scipy.stats")


def test_bundled_runs_load_no_deferred_scipy_subpackage():
    child = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {os.path.dirname(os.path.dirname(sensebound.__file__))!r})
        from sensebound import build_context, parse_config, run_experiment
        from sensebound.experiments import bundled_names, bundled_text

        for name in bundled_names():
            build_context(parse_config(bundled_text(name)))
        for name in ("kalman-baseline", "sign-threshold-easy"):
            cfg = parse_config(bundled_text(name))
            cfg.run["tail_window"] = 2  # fits the 5-step horizon
            run_experiment(cfg, runs=2, horizon=5, write=False)
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
    """)
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         check=True, timeout=120)
    loaded = set(json.loads(out.stdout.splitlines()[-1]))
    assert "scipy.linalg" in loaded
    assert [m for m in DEFERRED if m in loaded] == []
