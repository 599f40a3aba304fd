import countercheck


def test_every_exported_name_resolves_once():
    names = countercheck.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(countercheck, name), name
