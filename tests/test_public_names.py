"""rqc's __all__ and its public attributes name the same things."""

import types

import rqc


def test_every_exported_name_resolves():
    assert [name for name in rqc.__all__ if not hasattr(rqc, name)] == []
    assert len(set(rqc.__all__)) == len(rqc.__all__)


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(rqc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(rqc.__all__)) == []
