"""List the test ids every push-time pytest step of CI selects.

Each step of ``.github/workflows/ci.yml`` whose ``run`` calls pytest is
run by bash as written, once per matrix leg, with
``PYTEST_ADDOPTS="--collect-only -p ci_test_ids"``: every pytest call it
makes (each hash seed of a loop included) only collects, and this module,
loaded as a plugin, appends the ids left after ``-m``/``--deselect`` to a
file.  ``--cov*`` options are dropped (coverage does not change what is
selected, and pytest-cov need not be installed).

Usage: python tools/ci_test_ids.py [CHECKOUT] > ids.txt

prints one line per step (ids, distinct ids, exit status) to stderr and
the sorted union of all ids to stdout.  To show that a change to CI loses
no check, run it in a checkout of each commit and compare:
``comm -23 before.txt after.txt`` must print nothing.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def pytest_collection_finish(session) -> None:
    """Plugin hook: append the selected ids to ``$CI_TEST_IDS_OUT``."""
    with open(os.environ["CI_TEST_IDS_OUT"], "a", encoding="utf-8") as out:
        out.writelines(item.nodeid + "\n" for item in session.items)


def main(checkout: Path) -> None:
    import yaml

    workflow = yaml.safe_load(
        (checkout / ".github" / "workflows" / "ci.yml").read_text())
    union = set()
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "ids.txt"
        for job_name, job in workflow["jobs"].items():
            matrix = job.get("strategy", {}).get("matrix", {})
            for leg in matrix.get("python-version", ["-"]):
                for index, step in enumerate(job["steps"]):
                    script = step.get("run", "")
                    if "pytest" not in script:
                        continue
                    script = script.replace("${{ matrix.python-version }}", leg)
                    script = re.sub(r"--cov\S*", "", script)
                    out.write_text("")
                    env = dict(os.environ, **{key: str(value) for key, value
                                              in step.get("env", {}).items()})
                    env.update(
                        CI_TEST_IDS_OUT=str(out),
                        PYTHONPATH=os.pathsep.join(
                            (str(checkout / "src"), str(Path(__file__).parent))),
                        PYTEST_ADDOPTS="--collect-only -p ci_test_ids")
                    done = subprocess.run(["bash", "-e", "-c", script],
                                          cwd=checkout, env=env,
                                          stdout=subprocess.DEVNULL)
                    ids = out.read_text().splitlines()
                    union.update(ids)
                    print(f"{job_name} py{leg} step {index} "
                          f"({step.get('name', '')}): {len(ids)} ids, "
                          f"{len(set(ids))} distinct, exit {done.returncode}",
                          file=sys.stderr)
    print(f"union: {len(union)} distinct ids", file=sys.stderr)
    sys.stdout.writelines(nodeid + "\n" for nodeid in sorted(union))


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve())
