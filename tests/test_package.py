import friscov


def test_every_export_resolves_and_is_listed_once():
    assert len(friscov.__all__) == len(set(friscov.__all__))
    missing = [name for name in friscov.__all__ if not hasattr(friscov, name)]
    assert missing == []
