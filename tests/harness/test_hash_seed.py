"""Experiment output does not depend on the interpreter's string-hash seed.

Every in-process determinism gate runs both of its runs under one
``PYTHONHASHSEED``, so iteration over a set of strings looks stable there.
These runs cross interpreters instead.  ``explicit-deps`` is the case that
slipped through: COPS once blocked a payload on whichever missing
dependency its frozenset yielded first.
"""

import os
import subprocess
import sys


def _run(seed, path):
    subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", "run", "explicit-deps",
         "--scale", "smoke", "--json", str(path)],
        check=True, timeout=120, stdout=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONHASHSEED=str(seed),
                 PYTHONPATH=os.pathsep.join(sys.path)))
    return path.read_bytes()


def test_explicit_deps_json_is_independent_of_the_hash_seed(tmp_path):
    assert _run(0, tmp_path / "seed0.json") == _run(1, tmp_path / "seed1.json")
