"""Write the golden fixtures and the CLI outputs that ``test_golden.py``
compares byte for byte.

    PYTHONPATH=src python tests/golden/make_golden.py

Rerun it only when a change of output is intended, and name that change
with the commit that regenerates the files. The fixtures are tiny, so every
subcommand runs on them in well under a second.
"""

import json
import sys
from pathlib import Path

import numpy as np

from flowerpetals.cli import run
from flowerpetals.synthetic import coauthorship_complex, planted_two_block, triangles_vs_hexagons

HERE = Path(__file__).resolve().parent
INPUTS, OUTPUTS = HERE / "inputs", HERE / "outputs"

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


def main() -> int:
    write_inputs(INPUTS)
    OUTPUTS.mkdir(parents=True, exist_ok=True)
    for name, argv in commands(INPUTS, OUTPUTS).items():
        if run(argv + ["--out", str(OUTPUTS / name)]) != 0:
            print(f"{name}: the command failed", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
