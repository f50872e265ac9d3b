import affeq


def test_all_has_no_duplicates():
    assert len(affeq.__all__) == len(set(affeq.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in affeq.__all__ if not hasattr(affeq, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from affeq import *", namespace)
    assert set(affeq.__all__) <= set(namespace)
