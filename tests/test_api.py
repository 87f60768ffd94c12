"""The package's public names: every export resolves, none is listed twice,
and removed names stay removed."""

import derangements

REMOVED = (
    "QuadraticExtension",
    "splits_over",
    "eigenvalue_one_index",
    "SubgroupChecks",
    "IndexConsequences",
    "BoundCheck",
    "subgroup_checks",
    "index_consequences",
    "bound_check",
    "regular_perm_group",
)


def test_public_api_resolves():
    names = derangements.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(derangements, name) is not None, name
    namespace: dict = {}
    exec("from derangements import *", namespace)
    assert set(names) <= set(namespace)
    for name in REMOVED:
        assert name not in names
        assert not hasattr(derangements, name)
