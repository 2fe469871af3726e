"""The package's public surface: every exported name resolves."""

import piradical


def test_every_exported_name_resolves_once():
    names = piradical.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [name for name in names if not hasattr(piradical, name)]
    assert not missing, missing
