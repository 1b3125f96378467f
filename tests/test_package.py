"""The package's public names."""

import epc_pinn


def test_every_exported_name_resolves():
    """Each name in epc_pinn.__all__ is an attribute of the package, so a
    stale export fails here rather than at a star import."""
    missing = [name for name in epc_pinn.__all__ if not hasattr(epc_pinn, name)]
    assert missing == []
    assert len(set(epc_pinn.__all__)) == len(epc_pinn.__all__)
