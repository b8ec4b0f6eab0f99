import trackforge


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from trackforge import *", namespace)
    missing = [name for name in trackforge.__all__ if name not in namespace]
    assert missing == []
    assert len(set(trackforge.__all__)) == len(trackforge.__all__)
