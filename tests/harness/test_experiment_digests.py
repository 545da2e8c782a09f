"""Every experiment of the table, pinned by digest at one tiny scale.

``golden/experiment_digests.json`` holds, per experiment name, the SHA-256
of ``json.dumps(cli._jsonable(result))`` — no ``sort_keys``, so the key
order of the result dict is pinned along with every value.  The scale and
the reduced sweeps below keep the whole file to a few seconds; the
smoke-scale figures themselves are pinned by ``saturn-repro run X --json``.
If a change is *deliberate*, regenerate with::

    PYTHONPATH=src:. python -c "
    import json
    from tests.harness.test_experiment_digests import digest, EXPERIMENTS
    print(json.dumps({name: digest(name) for name in sorted(EXPERIMENTS)},
                     indent=2))
    " > tests/harness/golden/experiment_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.cli import _jsonable
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import Scale

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "experiment_digests.json").read_text())

TINY = Scale(duration=150.0, warmup=50.0, clients_per_dc=1,
             facebook_clients_per_dc=2, beam_width=1)

PARAMS = {
    "fig5": dict(panels=("c",)),
    "fig6": dict(injected=(0, 100)),
    "fig8": dict(max_replicas_sweep=(2,)),
    "five-way": dict(sites=("I", "F", "T"), pairs=(("I", "F"), ("I", "T"))),
    "overload": dict(sites=("I", "F", "T"), rates=(2000.0, 8000.0),
                     num_users=500),
    "ablation-sink-batching": dict(periods=(1.0, 8.0)),
}


def digest(name: str) -> str:
    result = run_experiment(name, TINY, **PARAMS.get(name, {}))
    return hashlib.sha256(json.dumps(_jsonable(result)).encode()).hexdigest()


def test_golden_covers_every_experiment():
    assert list(GOLDEN) == sorted(EXPERIMENTS)
    assert set(PARAMS) <= set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_result_matches_its_digest(name):
    assert digest(name) == GOLDEN[name]
