import hashlib
import random
import sys

import pytest

from mutexec import problems

SIZES = [0, 1, 65536, 65537, 1 << 20]


def data(size: int) -> bytes:
    return random.Random(size).randbytes(size)


class TestSha256:
    """``problems.sha256`` is ``hashlib.sha256`` without loading OpenSSL."""

    @pytest.mark.parametrize("size", SIZES)
    def test_built_in_module_digests_as_hashlib(self, size):
        built_in = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
        text = data(size)
        digest = problems.sha256(text)
        assert type(digest).__module__ == built_in
        assert digest.hexdigest() == hashlib.sha256(text).hexdigest()
        chunked = problems.sha256()
        for start in range(0, size, 65536):
            chunked.update(text[start:start + 65536])
        assert chunked.hexdigest() == digest.hexdigest()

    @pytest.mark.parametrize("size", SIZES)
    def test_falls_back_to_hashlib(self, monkeypatch, size):
        # an interpreter built without either module
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        text = data(size)
        digest = problems.sha256(text)
        assert type(digest) is type(hashlib.sha256())
        assert digest.hexdigest() == hashlib.sha256(text).hexdigest()
