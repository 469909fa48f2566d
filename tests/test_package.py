import importlib

import pytest

import searesponse


@pytest.mark.parametrize("name", [n for n in searesponse.__all__ if n != "__version__"])
def test_export_is_its_modules_object(name):
    module = importlib.import_module(f"searesponse.{searesponse._EXPORTS[name]}")
    assert getattr(searesponse, name) is getattr(module, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from searesponse import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(searesponse.__all__)
    assert namespace["__version__"] == searesponse.__version__


def test_dir_lists_the_exports():
    assert set(searesponse.__all__) <= set(dir(searesponse))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
        searesponse.not_an_export
