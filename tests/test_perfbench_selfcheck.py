"""The benchmark's own self-check passes against the library in src/.

``perfbench/`` wraps and calls public names of the library (for example
``PublicRandomness.sign_array``, ``sign_at`` and ``int_below``); this runs
its tiny-config checks so that renaming or deleting such a name fails here.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck_passes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-4000:]
    assert " 0 failed" in proc.stdout
