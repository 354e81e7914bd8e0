"""The package's public names."""

import qsimplex


def test_every_public_name_resolves():
    missing = [name for name in qsimplex.__all__ if not hasattr(qsimplex, name)]
    assert not missing
    assert len(set(qsimplex.__all__)) == len(qsimplex.__all__)
