"""The package's public names: everything exported resolves, and the
Newton-kernel wrappers that only tests used are not exported."""

import tikmor

REMOVED = (
    "eval_F",
    "solve_newton_system",
    "projected_newton_system",
    "PntmResult",
    "GbitResult",
)


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from tikmor import *", namespace)
    for name in tikmor.__all__:
        assert name in namespace
        assert getattr(tikmor, name) is namespace[name]
    assert len(set(tikmor.__all__)) == len(tikmor.__all__)


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in tikmor.__all__
        assert not hasattr(tikmor, name)
