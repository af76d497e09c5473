"""Write the golden fixtures, the CLI outputs and the demos' printed output
that ``test_golden.py`` compares byte for byte.

    PYTHONPATH=src python tests/golden/make_golden.py
    PYTHONPATH=src python tests/golden/make_golden.py --check

Rerun it only when a change of output is intended, and name that change
with the commit that regenerates the files. The fixtures are tiny, so every
subcommand runs on them in well under a second. The seven demos run as
child processes, two at a time: about 3 s, against 6 s one after another.

The dense products' bits depend on the BLAS kernel, so ``blas.json``
records the numpy version and the configuration and core name of numpy's
bundled OpenBLAS ("unknown" where that library is not found): the golden
bytes belong to that core.

``--check`` writes the fixtures and runs every subcommand and demo in a
temporary directory instead, and writes nothing here. It lists each file
under ``inputs``, ``outputs`` and ``demos`` whose bytes would change, with
the JSON keys added or removed and the largest relative difference of any
number in a JSON file or of any parameter in a checkpoint (or that its
header differs), and ``blas.json`` if this host's BLAS is another, and exits
1 if any would.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from flowerpetals.cli import run
from flowerpetals.linalg import _openblas
from flowerpetals.model import _HEADER_KEYS, load_checkpoint
from flowerpetals.synthetic import coauthorship_complex, planted_two_block, triangles_vs_hexagons

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
INPUTS, OUTPUTS, DEMOS = HERE / "inputs", HERE / "outputs", HERE / "demos"
BLAS = HERE / "blas.json"
DEMO_SCRIPTS = sorted((ROOT / "demos").glob("*.py"))

CONFIGS = {
    "train.json": {"task": "node", "epochs": 25, "patience": 10, "seeds": [0, 1], "hidden": 4,
                   "K": 3},
    "impute.json": {"task": "impute", "epochs": 15, "hidden": 4, "K": 2, "seeds": [0, 1]},
    "graphclass.json": {"task": "graphclass", "epochs": 4, "hidden": 4, "K": 2},
}


def commands(inp: Path, out: Path) -> dict[str, list[str]]:
    """Every subcommand's arguments, keyed by the output file it writes."""
    return {
        "lift.json": ["lift", "--edges", str(inp / "graph.tsv"), "-p", "3"],
        "spectra.json": ["spectra", "--edges", str(inp / "graph.tsv"), "-p", "2"],
        "train.json": ["train", "--edges", str(inp / "graph.tsv"),
                       "--features", str(inp / "features.csv"),
                       "--labels", str(inp / "labels.csv"),
                       "--config", str(inp / "train.json"), "--save-model", str(out / "model.ck")],
        "impute.json": ["impute", "--simplices", str(inp / "coauthorship.tsv"),
                        "--config", str(inp / "impute.json")],
        "graphclass.json": ["graphclass", "--dataset", str(inp / "graphs.jsonl"),
                            "--config", str(inp / "graphclass.json")],
        "shwl.json": ["shwl", "--a", str(inp / "a.tsv"), "--b", str(inp / "b.tsv"), "-p", "2"],
        "rewire.json": ["rewire", "--edges", str(inp / "rewire.tsv"), "--target-rho2", "0.1",
                        "--seed", "3", "--out-edges", str(out / "rewired.tsv")],
        # reads the checkpoint that train.json's run writes, so it runs after it
        "strength.json": ["strength", "--model", str(out / "model.ck")],
    }


def write_inputs(inp: Path) -> None:
    inp.mkdir(parents=True, exist_ok=True)
    g = planted_two_block(20, p_in=0.5, p_out=0.05, seed=1)
    rng = np.random.default_rng(0)
    features = np.hstack([g.features, rng.normal(size=(g.n, 2))])
    # the clean forms: a node-count header, tab-separated ids, full-precision floats
    (inp / "graph.tsv").write_text(
        f"#n={g.n}\n" + "".join(f"{u}\t{v}\n" for u, v in g.edges.tolist()))
    (inp / "features.csv").write_text(
        "".join(",".join(map(repr, row)) + "\n" for row in features.tolist()))
    (inp / "labels.csv").write_text("".join(f"{lab}\n" for lab in g.labels.tolist()))
    # the forms a whole-file parse must hand to the per-line scan: a comment
    # below line 1, a blank line, reversed and repeated pairs, a self-loop
    (inp / "a.tsv").write_text("0 1\n# two triangles\n2\t0\n1 2\n\n3 4\n3 5\n5 4\n4 3\n")
    (inp / "b.tsv").write_text("0\t1\n1\t2\n2\t3\n3\t4\n4\t5\n5\t0\n")
    r = planted_two_block(30, p_in=0.4, p_out=0.1, seed=2)
    (inp / "rewire.tsv").write_text(
        "".join(f"{v}\t{u}\n" for u, v in r.edges.tolist()) + "7\t7\n")
    cc = coauthorship_complex(40, 20, 12, seed=0)
    lines = [f"#n={cc.n}"] + [f"0\t{v}\t{s:.0f}" for v, s in enumerate(cc.node_signals)]
    for p, simps in cc.complex.simplices.items():
        for s, sig in zip(simps.tolist(), cc.signals[p]):
            lines.append(f"{p}\t{','.join(map(str, s))}\t{sig:.0f}")
    (inp / "coauthorship.tsv").write_text("\n".join(lines) + "\n")
    graphs, labels = triangles_vs_hexagons(per_class=6, seed=0)
    (inp / "graphs.jsonl").write_text("".join(
        json.dumps({"n": h.n, "edges": h.edges.tolist(), "label": int(lab)}) + "\n"
        for h, lab in zip(graphs, labels)))
    for name, cfg in CONFIGS.items():
        (inp / name).write_text(json.dumps(cfg, sort_keys=True) + "\n")


def blas_info() -> dict[str, str]:
    """The numpy version, and the configuration and core name of the
    OpenBLAS that numpy bundles, read from the library itself through the
    package's handle; "unknown" where it is not found."""
    info = {"numpy": np.__version__, "openblas_config": "unknown", "openblas_core": "unknown"}
    lib = _openblas()
    if lib is None:
        return info
    for key, name in (("openblas_config", "scipy_openblas_get_config64_"),
                      ("openblas_core", "scipy_openblas_get_corename64_")):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            info[key] = getter().decode()
    return info


def run_demos() -> dict[str, subprocess.CompletedProcess]:
    """Each demo run as a child process with ``src`` on its path, two at a
    time, keyed by the name of the file its stdout is kept in."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run_demo(script: Path) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                              capture_output=True, timeout=300)

    with ThreadPoolExecutor(max_workers=2) as pool:
        done = pool.map(run_demo, DEMO_SCRIPTS)
        return {f"{script.stem}.txt": proc for script, proc in zip(DEMO_SCRIPTS, done)}


def write_all(root: Path) -> bool:
    """Write the fixtures to ``root/inputs``, every command's outputs to
    ``root/outputs``, every demo's stdout to ``root/demos`` and the BLAS
    they ran on to ``root/blas.json``; False when a command or a demo
    fails."""
    inp, out, demos = root / INPUTS.name, root / OUTPUTS.name, root / DEMOS.name
    (root / BLAS.name).write_text(json.dumps(blas_info(), indent=2, sort_keys=True) + "\n")
    write_inputs(inp)
    out.mkdir(parents=True, exist_ok=True)
    for name, argv in commands(inp, out).items():
        if run(argv + ["--out", str(out / name)]) != 0:
            print(f"{name}: the command failed", file=sys.stderr)
            return False
    demos.mkdir(parents=True, exist_ok=True)
    for name, proc in run_demos().items():
        if proc.returncode != 0:
            print(f"{name}: the demo failed\n{proc.stderr.decode()}", file=sys.stderr)
            return False
        (demos / name).write_bytes(proc.stdout)
    return True


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def max_relative_difference(a, b) -> float | None:
    """The largest relative difference of two numbers at the same place in
    parsed JSON values ``a`` and ``b``; None when anything else differs (a
    length, a string). Keys that only one of them holds are not compared
    (``key_changes`` names them)."""
    if isinstance(a, dict) and isinstance(b, dict):
        parts = [max_relative_difference(a[k], b[k]) for k in a.keys() & b.keys()]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        parts = [max_relative_difference(x, y) for x, y in zip(a, b)]
    elif _is_number(a) and _is_number(b):
        scale = max(abs(a), abs(b))
        return abs(a - b) / scale if scale else 0.0
    else:
        return 0.0 if a == b else None
    return None if None in parts else max(parts, default=0.0)


def key_changes(a, b, path: str = "") -> list[str]:
    """Each key that only one of parsed JSON values ``a`` (old) and ``b``
    (new) holds at the same place, as ``key <path> removed`` or ``added``."""
    if isinstance(a, dict) and isinstance(b, dict):
        changes = [f"key {path}{k} removed" for k in sorted(a.keys() - b.keys())]
        changes += [f"key {path}{k} added" for k in sorted(b.keys() - a.keys())]
        for k in sorted(a.keys() & b.keys()):
            changes += key_changes(a[k], b[k], f"{path}{k}.")
        return changes
    if isinstance(a, list) and isinstance(b, list):
        return [c for i, (x, y) in enumerate(zip(a, b)) for c in key_changes(x, y, f"{path}{i}.")]
    return []


def checkpoint_difference(old: Path, new: Path) -> str:
    """How two checkpoints differ: in their headers, or by the largest
    relative difference of their parameters."""
    a, b = load_checkpoint(old), load_checkpoint(new)
    if any(getattr(a, key) != getattr(b, key) for key in _HEADER_KEYS):
        return ", in the header"
    rel = max_relative_difference(a.flat.tolist(), b.flat.tolist())
    return f", largest relative difference {rel:.3g}"


def changed_files(fresh: Path) -> list[str]:
    """One line per golden file whose bytes differ from those under
    ``fresh`` (which holds ``inputs``, ``outputs``, ``demos`` and
    ``blas.json`` as written anew)."""
    lines = []
    if not BLAS.exists():
        lines.append(f"{BLAS.name}: added")
    elif BLAS.read_bytes() != (fresh / BLAS.name).read_bytes():
        old, new = json.loads(BLAS.read_text()), json.loads((fresh / BLAS.name).read_text())
        lines.append(f"{BLAS.name}: differs, recorded {old} against this host's {new}")
    for golden in (INPUTS, OUTPUTS, DEMOS):
        names = {p.name for d in (golden, fresh / golden.name) for p in d.iterdir()}
        for name in sorted(names):
            old, new = golden / name, fresh / golden.name / name
            label = f"{golden.name}/{name}"
            if not (old.exists() and new.exists()):
                lines.append(f"{label}: {'added' if new.exists() else 'removed'}")
            elif old.read_bytes() != new.read_bytes():
                note = ""
                if name.endswith(".json"):
                    a, b = json.loads(old.read_text()), json.loads(new.read_text())
                    notes, rel = key_changes(a, b), max_relative_difference(a, b)
                    if rel is None:
                        notes.append("not only in numbers")
                    elif rel or not notes:
                        notes.append(f"largest relative difference {rel:.3g}")
                    note = "".join(f", {n}" for n in notes)
                elif name.endswith(".ck"):
                    note = checkpoint_difference(old, new)
                lines.append(f"{label}: differs{note}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with fresh outputs; write nothing here")
    if not parser.parse_args(argv).check:
        return 0 if write_all(HERE) else 1
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        if not write_all(fresh):
            return 1
        lines = changed_files(fresh)
    print("\n".join(lines) if lines else "every golden file is unchanged")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
