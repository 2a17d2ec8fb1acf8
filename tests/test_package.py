"""The package's public namespace."""

import rodeo_sched


def test_star_import_resolves_every_public_name_once():
    # a stale __all__ entry makes the star import itself raise
    namespace: dict = {}
    exec("from rodeo_sched import *", namespace)
    names = rodeo_sched.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if name not in namespace] == []
