import normcontrol


def test_every_exported_name_resolves():
    missing = [name for name in normcontrol.__all__ if not hasattr(normcontrol, name)]
    assert missing == []
