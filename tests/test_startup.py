"""Start-up cost: `import sensebound` loads numpy and the standard library only.

Every scipy subpackage, and the process pool with multiprocessing, is
imported inside the one function that needs it, so a run that never
reaches that function never pays for the import. The grid re-grid calls
the LAPACK that numpy already loaded, so a 1-D grid run loads no scipy.
The check runs in a fresh interpreter, because the test modules of this
suite import scipy themselves.
"""

import json
import os
import subprocess
import sys
import textwrap

import sensebound


def test_bundled_runs_load_only_what_they_reach(tmp_path):
    """Phase 1 (import, `build_context` of every bundled experiment, a
    written and read-back Kalman run) loads no scipy and no multiprocessing;
    phase 2 (a 1-D particle run, whose kNN entropy sorts instead of building
    a KD-tree) still loads no scipy; phase 3 (a 1-D grid run, whose re-grid
    calls numpy's own LAPACK) loads no scipy either."""
    child = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {os.path.dirname(os.path.dirname(sensebound.__file__))!r})
        from sensebound import build_context, parse_config, run_experiment
        from sensebound.experiments import bundled_names, bundled_text
        from sensebound.report import recompute_summary_from_csvs

        def short(name):
            cfg = parse_config(bundled_text(name))
            cfg.run["tail_window"] = 2  # fits the 5-step horizon
            return cfg

        def particles():
            text = bundled_text("entropy-balance").replace(
                'kind = "grid"\\ncells_per_std = 24', 'kind = "particle"\\nparticles = 300')
            assert "particles = 300" in text
            cfg = parse_config(text)
            cfg.run["tail_window"] = 2
            return cfg

        def loaded():
            print(json.dumps(sorted(sys.modules)))

        for name in bundled_names():
            build_context(parse_config(bundled_text(name)))
        out = {str(tmp_path / "k")!r}
        run_experiment(short("kalman-baseline"), out_dir=out, runs=2, horizon=5, write=True)
        recompute_summary_from_csvs(out)
        loaded()
        bundle = run_experiment(particles(), runs=1, horizon=5, write=False)
        assert bundle.summary["ensemble"]["alive"] == [1] * 5
        loaded()
        run_experiment(short("sign-threshold-easy"), runs=2, horizon=5, write=False)
        loaded()
    """)
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         check=True, timeout=120)
    phase1, phase2, phase3 = (set(json.loads(line)) for line in out.stdout.splitlines()[-3:])
    tops = ("scipy", "multiprocessing", "_multiprocessing")
    assert sorted(m for m in phase1 if m.split(".")[0] in tops) == []
    assert "concurrent.futures.process" not in phase1
    assert sorted(m for m in phase2 if m.split(".")[0] == "scipy") == []
    assert sorted(m for m in phase3 if m.split(".")[0] == "scipy") == []
