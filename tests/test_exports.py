"""The package's export list."""

import types

import minasym


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from minasym import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == minasym.__all__
    assert len(minasym.__all__) == 80
    for name, value in namespace.items():
        assert not isinstance(value, types.ModuleType), name
        if name != "VERSION":
            assert value.__module__.startswith("minasym"), name
