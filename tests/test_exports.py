import likekit


def test_every_export_resolves_once():
    names = likekit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(likekit, name), name
    namespace: dict = {}
    exec("from likekit import *", namespace)
    assert set(names) <= set(namespace)
