"""The package's public surface."""

import weightsys


def test_public_names_resolve_once():
    names = weightsys.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(weightsys, n)] == []
    namespace = {}
    exec("from weightsys import *", namespace)
    assert set(names) <= set(namespace)
