"""Output bytes pinned across commits: SHA-256 digests of what the CLI
writes for a fixed input set built in this process.

The inputs are a seeded 20+20 sbc corpus, diamond_chain(72) (2**72 paths
end to end), diamond_chain(30, ways=5) (5**30, which float64 cannot count)
and a 1000-block chain CFG with forward branches and loop back-edges. The
pinned outputs are the merged features table, the analyze report, the rf
model and the rf evaluate JSON. Logreg and svm are left out: their fits go
through BLAS matrix products, whose rounding may differ across CPUs and
numpy builds. A change that moves output bytes on purpose updates these
digests and says why.
"""

import hashlib
import random

from cfgrank import ingest
from cfgrank.cli import main
from cfgrank.graph import BasicBlock, build_cfg
from oracles import diamond_chain

GOLDEN = {
    "features.csv": "d4c40ea04c982222d611bf2333601f95061c2cf8e5cffdb1514638f91494354a",
    "report.json": "9a396a520198078f7b7fabb2218830313cc9e1e2b3e053135fe32f9cbf489e76",
    "rf-model.json": "c42a95e72e1a3b1a04795a33ded0369a4271747c1d6c78adde1e58e92d065525",
    "rf-evaluate.json": "d6d6f1f414bbe5704318936b48085887bf774b95a63880046da3760ad24d6d5a",
}


def chain_cfg(rng: random.Random, n: int, sample_id: str):
    """Straight-line code where a quarter of the blocks also branch 2-6
    blocks ahead and a tenth jump 1-8 blocks back."""
    blocks = [BasicBlock(address=16 * i, size=16, instr_count=rng.randint(1, 8))
              for i in range(n)]
    edges = []
    for i in range(n - 1):
        edges.append((16 * i, 16 * (i + 1)))
        r = rng.random()
        if r < 0.25:
            edges.append((16 * i, 16 * min(n - 1, i + rng.randint(2, 6))))
        elif r < 0.35 and i:
            edges.append((16 * i, 16 * (i - rng.randint(1, min(i, 8)))))
    return build_cfg(sample_id, blocks, edges)


def run(*argv):
    assert main([str(a) for a in argv]) == 0


def test_outputs_match_the_pinned_digests(tmp_path):
    chains = tmp_path / "chains"
    chains.mkdir()
    for g in (diamond_chain(72, "d72"), diamond_chain(30, "d30x5", ways=5),
              chain_cfg(random.Random(1000), 1000, "chain1000")):
        (chains / f"{g.sample_id}.graph.json").write_bytes(ingest.write_canonical(g))
    tables = []
    for profile, label in (("enmeshed", "benign"), ("fragmented", "malicious")):
        run("gen", "--count", 20, "--profile", profile, "--seed", 11, "-o", tmp_path / profile)
        run("ingest", "--format", "sbc", "-o", tmp_path / f"{profile}-graphs",
            *sorted((tmp_path / profile).glob("*.sbc")))
        run("features", tmp_path / f"{profile}-graphs", "--label", label,
            "-o", tmp_path / f"{profile}.csv")
        tables.append(tmp_path / f"{profile}.csv")
    run("features", chains, "-o", tmp_path / "chains.csv")
    tables.append(tmp_path / "chains.csv")
    # one table with one header; the unlabeled chain rows are not trained on
    merged = tables[0].read_bytes() + b"".join(
        t.read_bytes().split(b"\n", 1)[1] for t in tables[1:])
    (tmp_path / "features.csv").write_bytes(merged)
    run("analyze", "--names", "enmeshed,fragmented,chains", "-o", tmp_path / "report.json",
        tmp_path / "enmeshed-graphs", tmp_path / "fragmented-graphs", chains)
    rf = ("--kind", "rf", "--rf-trees", 10)
    run("train", tmp_path / "features.csv", *rf, "-o", tmp_path / "rf-model.json")
    run("evaluate", tmp_path / "features.csv", *rf, "--k", 5, "-o", tmp_path / "rf-evaluate.json")
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN
