"""Every subcommand's output on the fixtures in ``golden/inputs``, byte for
byte against ``golden/outputs`` (written by ``golden/make_golden.py``), the
checkpoint and the rewired edge file included."""

import pytest
from golden.make_golden import INPUTS, OUTPUTS, commands

from flowerpetals.cli import run


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    codes = {name: run(argv + ["--out", str(out / name)])
             for name, argv in commands(INPUTS, out).items()}
    return out, codes


@pytest.mark.parametrize("name", sorted(path.name for path in OUTPUTS.iterdir()))
def test_output_is_byte_identical(written, name):
    out, codes = written
    assert codes.get(name, 0) == 0
    assert (out / name).read_bytes() == (OUTPUTS / name).read_bytes()
