import numpy as np
import pytest

from cutcat import _check_numpy


@pytest.mark.parametrize("version", ["1.26.4", "1.0", "0.9.8rc1"])
def test_numpy_before_2_rejected(version):
    with pytest.raises(ImportError) as exc:
        _check_numpy(version)
    assert version in str(exc.value) and "np.bitwise_count" in str(exc.value)


@pytest.mark.parametrize("version", ["2.0.0", "2.4.6", "2.5.0.dev0+git1", "10.1"])
def test_numpy_2_and_later_accepted(version):
    _check_numpy(version)


def test_installed_numpy_accepted():
    _check_numpy(np.__version__)
