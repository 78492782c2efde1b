"""Acceptance gate: one test per reference check registered in
`srcfg.claims`, so pytest -v prints one pass/fail line per criterion.
Each test asserts the claim's observed values equal its expected ones and
holds the stages the claim times to the criterion's budget."""

import math
import random

import pytest

from srcfg import claims, graphs

# claim id -> (budget in seconds, the stages of the claim it covers)
BUDGETS = {
    "C1": (10.0, ["feasible_table"]),
    "C2": (0.001, ["eigendata_square"]),
    "C4": (1.0, ["pipeline"]),
    "C5": (1.0, ["pipeline"]),
    "C6": (1.0, ["pipeline"]),
    "C7": (300.0, ["latin6"]),
    "C8": (120.0, ["frobenius155"]),
    "C9": (1.0, ["pipeline"]),
    "C10": (600.0, ["build", "suite"]),
    "C11": (300.0, ["build", "checks"]),
    "C13": (600.0, ["sweep"]),
    "C14": (120.0, ["build", "checks"]),
}


@pytest.mark.parametrize("claim_id", list(claims.CLAIMS))
def test_criterion(claim_id):
    claim = claims.CLAIMS[claim_id]
    budget, stages = BUDGETS.get(claim_id, (math.inf, []))
    # C2 is timed as the best of five runs after one warm-up run.
    runs = 6 if claim_id == "C2" else 1
    seconds = []
    for _ in range(runs):
        ctx = claims.Context()
        try:
            expected, observed, _details = claim.run(ctx)
        except claims.DataUnavailable as exc:
            pytest.skip(str(exc))
        assert observed == expected
        seconds.append(sum(ctx.stages[s] for s in stages))
    assert min(seconds[-5:]) < budget


def test_c13_enumerates_cliques_once_per_graph(monkeypatch, tmp_path):
    # 15 + 78 distinct relabellings of paley(25), which has 75 4-cliques
    # and carries no configuration, stand in for the external graph lists:
    # each graph's covers reuse the cliques taken just before them
    g, rng = graphs.paley(25), random.Random(25)
    relabelled = set()
    while len(relabelled) < 93:
        relabelled.add(g.relabel(rng.sample(range(25), 25)))
    relabelled = sorted(relabelled, key=graphs.to_graph6)
    monkeypatch.setattr(claims, "_srg_buckets", lambda data_dir: {
        (25, 12, 5, 6): relabelled[:15], (45, 12, 3, 3): relabelled[15:]})
    graphs.k_cliques.cache_clear()
    expected, observed, details = claims.get("C13").run(
        claims.Context(data_dir=str(tmp_path)))
    assert observed == expected
    assert details["clique_counts_25"] == [75] * 15
    info = graphs.k_cliques.cache_info()
    assert (info.misses, info.hits) == (93, 93)


def test_srg_buckets_reads_graph6_files_under_a_directory(tmp_path):
    # C13's loader: every *.g6 and *.graph6 file under the directory, in
    # path order, nested ones included; other files are not read, and
    # graphs that are not strongly regular are dropped
    paley13 = graphs.paley(13)
    relabelled = paley13.relabel([(5 * x) % 13 for x in range(13)][::-1])
    path4 = graphs.Graph(4, [(0, 1), (1, 2), (2, 3)])
    (tmp_path / "a.g6").write_text(
        "\n".join(map(graphs.to_graph6, [paley13, path4])) + "\n")
    (tmp_path / "notes.txt").write_text(graphs.to_graph6(graphs.rook(3)) + "\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.graph6").write_text(
        "\n".join(map(graphs.to_graph6, [graphs.petersen(), relabelled])) + "\n")
    buckets = claims._srg_buckets(tmp_path)
    assert list(buckets.items()) == [
        ((13, 6, 2, 3), [paley13, relabelled]),
        ((10, 3, 0, 1), [graphs.petersen()])]
    assert relabelled != paley13
