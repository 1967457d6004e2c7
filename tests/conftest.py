import pytest

from vsrkit import losses


@pytest.fixture()
def short_extended_labels(monkeypatch):
    """Build every blank-interleaved label sequence one position short,
    which the CTC enumeration oracle must catch."""
    real = losses._extended_labels

    def short(target):
        ext = real(target)
        return ext[1:] if len(ext) > 1 else ext

    monkeypatch.setattr(losses, "_extended_labels", short)
