"""Every subcommand's output on the fixtures in ``golden/inputs``, byte for
byte against ``golden/outputs`` (written by ``golden/make_golden.py``), the
checkpoint and the rewired edge file included, and every demo's printed
output against ``golden/demos``. The bytes belong to the BLAS core that
``golden/blas.json`` records, and a failed byte comparison names it beside
the core this run uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from golden.make_golden import (
    BLAS,
    DEMOS,
    DEMO_SCRIPTS,
    INPUTS,
    OUTPUTS,
    blas_info,
    commands,
    key_changes,
    max_relative_difference,
    run_demos,
)

from flowerpetals.cli import _COMMANDS, run

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cores():
    """The message of a failed byte comparison: the BLAS core the golden
    bytes were written on, and the one this run uses."""
    recorded, running = json.loads(BLAS.read_text()), blas_info()
    return (f"golden bytes of OpenBLAS core {recorded['openblas_core']}; "
            f"this run uses {running['openblas_core']}")


def test_every_subcommand_has_golden_bytes():
    assert sorted(argv[0] for argv in commands(INPUTS, OUTPUTS).values()) == sorted(_COMMANDS)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    codes = {name: run(argv + ["--out", str(out / name)])
             for name, argv in commands(INPUTS, out).items()}
    return out, codes


@pytest.mark.parametrize("name", sorted(path.name for path in OUTPUTS.iterdir()))
def test_output_is_byte_identical(written, cores, name):
    out, codes = written
    assert codes.get(name, 0) == 0
    assert (out / name).read_bytes() == (OUTPUTS / name).read_bytes(), cores


@pytest.fixture(scope="module")
def demos():
    return run_demos()


@pytest.mark.parametrize("name", [f"{script.stem}.txt" for script in DEMO_SCRIPTS])
def test_demo_prints_the_golden_bytes(demos, cores, name):
    proc = demos[name]
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DEMOS / name).read_bytes(), cores


TRAINING_OUTPUTS = ("train.json", "model.ck", "impute.json")


@pytest.fixture(scope="module")
def by_threads(tmp_path_factory):
    """The training outputs written under 1 and under 2 BLAS threads, by name."""
    written = {}
    for threads in ("1", "2"):
        # the thread count is read when the BLAS loads, so each run is a child
        # process with the variable set in its own environment only
        env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path_factory.mktemp(f"threads{threads}")
        argvs = commands(INPUTS, out)
        for name in ("train.json", "impute.json"):
            proc = subprocess.run(
                [sys.executable, "-m", "flowerpetals.cli", *argvs[name], "--out", str(out / name)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        written[threads] = {name: (out / name).read_bytes() for name in TRAINING_OUTPUTS}
    return written


@pytest.mark.parametrize("threads", ["1", "2"])
def test_training_outputs_do_not_depend_on_the_blas_thread_count(by_threads, cores, threads):
    for name in TRAINING_OUTPUTS:
        assert by_threads[threads][name] == (OUTPUTS / name).read_bytes(), f"{name}: {cores}"


def test_one_and_two_blas_threads_write_the_same_training_outputs(by_threads):
    # holds apart from the golden bytes, which belong to one BLAS kernel
    for name in TRAINING_OUTPUTS:
        assert by_threads["1"][name] == by_threads["2"][name], name


def test_check_names_the_keys_added_or_removed():
    old = {"seed": 0, "runs": [{"seed": 1, "x": 1.0}], "n": 3}
    new = {"runs": [{"x": 1.5, "fold": 0}], "n": 3, "mean": 0.5}
    assert key_changes(old, new) == [
        "key seed removed", "key mean added", "key runs.0.seed removed", "key runs.0.fold added",
    ]
    # the keys both hold are still compared number by number
    assert max_relative_difference(old, new) == 0.5 / 1.5
    assert max_relative_difference({"s": "a"}, {"s": "b"}) is None
