import json
from pathlib import Path

import identity_sweep


def test_allow_list_names_configurations_of_the_sweep():
    # a misspelt entry would otherwise fail only in CI's comparison of two
    # sweeps; a name given twice would hide one configuration's digest
    allowed = json.loads((Path(__file__).parent / "identity_allow.json").read_text())
    names = [name for name, *_ in identity_sweep.single_runs()]
    names += [name for name, _ in identity_sweep.ensembles()]
    assert len(set(names)) == len(names)
    assert set(allowed) <= set(names)
