"""The lazy package namespace: every public name resolves on first access."""

import pytest

import anticanon


def test_every_public_name_resolves_and_is_listed():
    listed = dir(anticanon)
    for name in anticanon.__all__:
        assert getattr(anticanon, name) is not None, name
        assert name in listed, name
        assert name in vars(anticanon), name


def test_public_names_come_from_their_submodules():
    from anticanon import cone, report, scenario

    assert anticanon.LatticeData is cone.LatticeData
    assert anticanon.run_report is report.run_report
    assert anticanon.parse_scenario is scenario.parse_scenario


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from anticanon import *", namespace)
    assert set(anticanon.__all__) <= set(namespace)
    assert namespace["serialize_report"] is anticanon.serialize_report


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        anticanon.no_such_name  # noqa: B018
