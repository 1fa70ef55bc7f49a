"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive randomized
end-to-end workload (ten 400-node instances, one hundred seeds each) is
shared between criteria 6, 7, 8b and 9 through module fixtures.
"""

import math
import random
import statistics
import time

import pytest

from bvc import oracle
from bvc.clustering import (
    build_cluster_trees,
    mpx_partition,
    randomized_pipeline,
    shrink_partition,
)
from bvc.graph import (
    Matching,
    SubgraphView,
    build_graph,
    default_bandwidth,
    gen_complete,
    gen_even_cycle,
    gen_path,
    gen_random,
)
from bvc.konig import compute_partition, koenig_approx_cover, koenig_exact_cover
from bvc.matching import eliminate_short_aug_paths, maximal_matching
from bvc.primitives import elect_leader_and_bfs
from bvc.repair import (
    count_paths,
    det_cover_low_diameter,
    repair_alpha,
    repair_matching,
)
from support import b_classes, components, enumerate_aug_paths, max_view_degree

pytestmark = pytest.mark.acceptance

# Every (max_message_bits, bandwidth) pair observed anywhere in the suite;
# criterion 9 asserts zero violations over all of them.
BANDWIDTH_LOG: list[tuple[int, int]] = []


def track(stats, bandwidth):
    BANDWIDTH_LOG.append((stats.max_message_bits, bandwidth))


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def whole(g):
    return SubgraphView.whole(g)


def cycling_random_instances(count, max_side, probs, seed=1234):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        na = rng.randint(2, max_side)
        nb = rng.randint(2, max_side)
        out.append(gen_random(na, nb, probs[i % len(probs)], rng.randrange(1 << 30)))
    return out


# ---------------------------------------------------------------------------
# Criterion 1: exactness against the sequential oracles
# ---------------------------------------------------------------------------

def test_criterion_1_exactness():
    t0 = time.perf_counter()
    graphs = cycling_random_instances(200, 30, (0.05, 0.2, 0.5), seed=11)
    graphs += [gen_path(n) for n in (2, 3, 5, 8, 13)]
    graphs += [gen_even_cycle(n) for n in (4, 6, 10, 14)]
    graphs += [gen_complete(2, 3), gen_complete(3, 5), gen_complete(4, 4)]
    checked = 0
    for i, g in enumerate(graphs):
        view = whole(g)
        cover, stats = koenig_exact_cover(g, view, seed=1000 + i)
        track(stats, default_bandwidth(g.n))
        mm = oracle.max_matching_oracle(view).size
        vc = oracle.min_vc_oracle(view).size
        assert cover.is_valid(), f"instance {i}: invalid cover"
        assert cover.size == vc == mm, f"instance {i}: {cover.size} vs oracle {vc}/{mm}"
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == len(graphs) and elapsed < 120.0
    report(1, ok, f"{checked} instances exact, {elapsed:.1f}s (< 120s)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: the (1 + 1/k) cover bound and its size identity
# ---------------------------------------------------------------------------

def test_criterion_2_layered_cover_bound():
    rng = random.Random(22)
    checked = 0
    for i in range(100):
        k = (1, 2, 3, 5)[i % 4]
        na = rng.randint(4, 100)
        g = gen_random(na, rng.randint(4, 100), min(1.0, 2.5 / na), rng.randrange(1 << 30))
        view = whole(g)
        m, _, m_stats = eliminate_short_aug_paths(
            g, view, Matching([], view), k, seed=2000 + i
        )
        track(m_stats, default_bandwidth(g.n))
        forest, e_stats = elect_leader_and_bfs(g)
        track(e_stats, default_bandwidth(g.n))
        cover, stats = koenig_approx_cover(g, view, m, k, forest=forest, layering=None)
        track(stats, default_bandwidth(g.n))
        assert cover.is_valid(), f"instance {i}: invalid cover"
        assert k * cover.size <= (k + 1) * m.size, f"instance {i}: bound failed"
        # Size identity |C| = |M| + |B'(i*)|, componentwise stars summed.
        layering, _ = compute_partition(g, view, m, k)
        classes = b_classes(view, layering.level, k)
        expected = m.size
        for comp_set in components(g):
            sizes = [len(c & comp_set) for c in classes]
            expected += min(sizes)
        assert cover.size == expected, f"instance {i}: identity failed"
        checked += 1
    report(2, checked == 100, f"{checked}/100 instances meet bound and identity exactly")
    assert checked == 100


# ---------------------------------------------------------------------------
# Criterion 3: path counting equals exhaustive enumeration
# ---------------------------------------------------------------------------

def test_criterion_3_path_count_oracle_equivalence():
    rng = random.Random(33)
    quota = {1: 25, 3: 17, 5: 8}
    cases = []
    collected = {1: 0, 3: 0, 5: 0}
    attempts = 0
    while sum(collected.values()) < 50 and attempts < 6000:
        attempts += 1
        d = (1, 3, 5)[attempts % 3]
        if collected[d] >= quota[d]:
            continue
        if d == 5:
            na, nb, p = rng.randint(9, 12), rng.randint(9, 12), rng.uniform(0.3, 0.55)
        else:
            na, nb, p = rng.randint(3, 12), rng.randint(3, 12), rng.uniform(0.2, 0.45)
        g = gen_random(na, nb, p, rng.randrange(1 << 30))
        view = whole(g)
        if d == 1:
            m = Matching([], view)
        else:
            m, _, _ = eliminate_short_aug_paths(
                g, view, Matching([], view), (d - 1) // 2, seed=attempts
            )
        if oracle.shortest_aug_path_len(view, m) != d:
            continue
        cases.append((g, view, m, d))
        collected[d] += 1
    per_d = {1: 0, 3: 0, 5: 0}
    for i, (g, view, m, d) in enumerate(cases):
        counts, stats = count_paths(g, view, m, d, delta=max_view_degree(view))
        track(stats, default_bandwidth(g.n))
        expected = enumerate_aug_paths(view, m, d)
        for v, c in expected.node_counts.items():
            assert counts.p_node.get(v, 0) == c, f"case {i}: node {v}"
        for e, c in expected.edge_counts.items():
            assert counts.p_edge.get(e, 0) == c, f"case {i}: edge {e}"
        per_d[d] += 1
    ok = len(cases) == 50 and all(per_d[d] >= 5 for d in (1, 3, 5))
    report(3, ok, f"50 instances equal on all nodes and edges, split {per_d}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: repair postcondition and size bound
# ---------------------------------------------------------------------------

def test_criterion_4_repair_bounds():
    rng = random.Random(44)
    checked = 0
    for i in range(40):
        k = (2, 3)[i % 2]
        na = rng.randint(6, 20)
        g = gen_random(na, rng.randint(6, 20), rng.uniform(0.15, 0.35), rng.randrange(1 << 30))
        view = whole(g)
        best_edges = sorted(oracle.max_matching_oracle(view).edges)
        if len(best_edges) < 2:
            continue
        drop = 1 + (i % 3 == 0)
        m = Matching(best_edges[drop:], view)
        delta_true = drop / len(best_edges)
        opt = len(best_edges)
        forest, e_stats = elect_leader_and_bfs(g)
        track(e_stats, default_bandwidth(g.n))
        result, m_bar, stats = repair_matching(g, view, m, k, forest=forest)
        track(stats, default_bandwidth(g.n))
        residual = view.without_nodes(result.s1)
        shortest = oracle.shortest_aug_path_len(residual, m_bar)
        assert shortest >= 2 * k + 1, f"instance {i}: shortest {shortest}"
        bound = repair_alpha(k, max_view_degree(view)) * delta_true * opt
        assert len(result.s1) <= bound + 1e-9, f"instance {i}: |S1|={len(result.s1)} > {bound:.2f}"
        checked += 1
    ok = checked >= 35
    report(4, ok, f"{checked} deficient-matching instances repaired within bound")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: deterministic low-diameter pipeline
# ---------------------------------------------------------------------------

def test_criterion_5_det_pipeline():
    rng = random.Random(55)
    checked = 0
    for i in range(100):
        eps = (0.25, 0.5, 1.0)[i % 3]
        if i % 10 == 9:
            na = rng.randint(100, 150)  # a slice of runs at the upper sizes
        else:
            na = rng.randint(8, 60)
        g = gen_random(na, rng.randint(max(4, na // 2), na), min(1.0, 2.2 / na), rng.randrange(1 << 30))
        view = whole(g)
        cover, stats = det_cover_low_diameter(g, view, eps)
        track(stats, default_bandwidth(g.n))
        opt = oracle.min_vc_oracle(view).size
        assert cover.is_valid(), f"instance {i}: invalid"
        assert cover.size <= (1 + eps) * opt + 1e-9, (
            f"instance {i}: {cover.size} > (1+{eps})*{opt}"
        )
        checked += 1
    report(5, checked == 100, f"{checked}/100 instances within (1+eps)*OPT")
    assert checked == 100


# ---------------------------------------------------------------------------
# Criteria 6 and 7 share the randomized end-to-end workload
# ---------------------------------------------------------------------------

SEEDS_PER_INSTANCE = 100
EPS = 0.5


def _pipeline_workload(instances, seeds, base_seed):
    """Run the randomized pipeline seeds x instances; returns per-instance
    dicts with everything later criteria consume."""
    results = []
    for gi, g in enumerate(instances):
        view = whole(g)
        opt = oracle.min_vc_oracle(view).size
        runs = []
        for s in range(seeds):
            seed = base_seed + 10_000 * gi + s
            cover, stats, cs = randomized_pipeline(g, EPS, seed=seed)
            track(stats, default_bandwidth(g.n))
            runs.append(
                {
                    "seed": seed,
                    "size": cover.size,
                    "valid": cover.is_valid(),
                    "separated": oracle.clusters_separated(g, cs),
                    "outside": 1.0 - _matching_inside_fraction(g, cs, seed),
                    "height": cs.max_tree_height,
                    "rounds": stats.rounds,
                    "max_bits": stats.max_message_bits,
                    "total_bits": stats.total_bits,
                }
            )
        results.append({"graph": g, "opt": opt, "runs": runs})
    return results


def inside_fraction(cluster_set, matching):
    """Fraction of matching edges with both endpoints in one cluster."""
    if matching.size == 0:
        return 1.0
    members = cluster_set.members
    inside = sum(
        1 for u, v in matching.edges if members.get(u) is not None and members[u] == members.get(v)
    )
    return inside / matching.size


def _matching_inside_fraction(g, cs, seed):
    # The pipeline's maximal matching is reproducible from its seed salt.
    from bvc.runtime import derive_seed

    m, _ = maximal_matching(g, seed=derive_seed(seed, 71))
    return inside_fraction(cs, m)


@pytest.fixture(scope="module")
def big_runs():
    instances = [
        gen_random(200, 200, p, gseed)
        for p, gseed in [
            (0.008, 1), (0.008, 2), (0.010, 3), (0.010, 4), (0.012, 5),
            (0.012, 6), (0.016, 7), (0.016, 8), (0.020, 9), (0.020, 10),
        ]
    ]
    t0 = time.perf_counter()
    results = _pipeline_workload(instances, SEEDS_PER_INSTANCE, base_seed=600_000)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def small_runs():
    """The same pipeline at n = 100 and n = 200 for scaling criteria."""
    out = {}
    for n, na, p in ((100, 50, 0.045), (200, 100, 0.022)):
        instances = [gen_random(na, na, p, gseed) for gseed in (1, 2, 3, 4, 5)]
        out[n] = _pipeline_workload(instances, 20, base_seed=700_000 + n)
    return out


def test_criterion_6_randomized_end_to_end(big_runs):
    results, elapsed = big_runs
    all_valid = all(r["valid"] for inst in results for r in inst["runs"])
    ratios = []
    for inst in results:
        mean_size = statistics.mean(r["size"] for r in inst["runs"])
        ratios.append(mean_size / inst["opt"])
    bound = (1 + EPS) * 1.03
    ok = all_valid and all(r <= bound for r in ratios) and elapsed < 600.0
    report(
        6,
        ok,
        f"10x{SEEDS_PER_INSTANCE} runs valid={all_valid}, mean ratios "
        f"{min(ratios):.3f}..{max(ratios):.3f} <= {bound:.3f}, {elapsed:.0f}s (< 600s)",
    )
    assert ok


def test_criterion_7_clustering_properties(big_runs, small_runs):
    results, _ = big_runs
    lam = EPS / 4.0

    separated = all(r["separated"] for inst in results for r in inst["runs"])

    density_ok = True
    worst = -math.inf
    for inst in results:
        outs = [r["outside"] for r in inst["runs"]]
        stderr = statistics.pstdev(outs) / math.sqrt(len(outs))
        mean_out = statistics.mean(outs)
        worst = max(worst, mean_out - (lam + 3 * stderr))
        if mean_out > lam + 3 * stderr:
            density_ok = False

    c_values = {}
    for n, sized in [(100, small_runs[100]), (200, small_runs[200]), (400, results)]:
        heights = [r["height"] for inst in sized for r in inst["runs"]]
        c_values[n] = statistics.mean(heights) * lam / math.log(n)
    c_mean = statistics.mean(c_values.values())
    heights_ok = all(abs(c - c_mean) <= 0.25 * c_mean for c in c_values.values())

    ok = separated and density_ok and heights_ok
    report(
        7,
        ok,
        f"separation 100%={separated}, density margin {worst:+.4f} (<=0 ok), "
        f"height constants {dict((n, round(c, 3)) for n, c in c_values.items())} stable +-25%={heights_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: round scaling
# ---------------------------------------------------------------------------

def test_criterion_8a_cover_rounds_linear_in_diameter():
    rows = []
    ok = True
    for d_target, k in [(10, 1), (20, 2), (40, 3), (80, 2), (160, 1), (320, 2)]:
        g = gen_path(d_target + 1)
        view = whole(g)
        m, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), k, seed=7)
        forest, stats = elect_leader_and_bfs(g)
        cover, cover_stats = koenig_approx_cover(g, view, m, k, forest=forest, layering=None)
        stats.add_sequential(cover_stats)
        track(stats, default_bandwidth(g.n))
        bound = 8 * (d_target + k) + 20
        rows.append((d_target, k, stats.rounds, bound))
        ok = ok and stats.rounds <= bound and cover.is_valid()
    report(
        "8a",
        ok,
        "rounds <= 8(D+k)+20 on paths: "
        + ", ".join(f"D={d}: {r}/{b}" for d, _k, r, b in rows),
    )
    assert ok


def test_criterion_8b_pipeline_round_growth(big_runs, small_runs):
    results400, _ = big_runs
    means = {}
    for n, sized in [(100, small_runs[100]), (200, small_runs[200]), (400, results400)]:
        means[n] = statistics.mean(r["rounds"] for inst in sized for r in inst["runs"])
    g1 = means[200] / means[100]
    g2 = means[400] / means[200]
    ok = g1 <= 1.6 and g2 <= 1.6
    report(
        "8b",
        ok,
        f"mean rounds {means[100]:.0f} -> {means[200]:.0f} -> {means[400]:.0f}; "
        f"growth x{g1:.2f}, x{g2:.2f} (<= 1.6)",
    )
    assert ok


def _thick_path(d, w):
    """One free A root, then w-wide levels joined completely, matched
    pairwise between odd and even levels: every augmenting path has
    length exactly d and counts grow like w^((d-1)/2)."""
    edges = []
    nid = 1
    levels = [[0]]
    for _ in range(d):
        levels.append(list(range(nid, nid + w)))
        nid += w
    for lv in range(d):
        for a in levels[lv]:
            for b in levels[lv + 1]:
                edges.append((a, b))
    g = build_graph(edges)
    m_edges = [
        (levels[lv][j], levels[lv + 1][j])
        for lv in range(1, d, 2)
        for j in range(w)
    ]
    return g, m_edges


def test_criterion_8c_count_rounds_quadratic():
    """Counting rounds grow as c*d^2 above the d=1 floor.

    At least one frame per sweep slot is a linear term that makes up the
    whole d=1 cost, so the factor-2 band is applied to (rounds(d) - rounds(1)) / (d^2 - 1) for d = 3, 5, 7. A
    cubic profile d^3 + 8 spreads these by 2.19; a purely linear profile
    sits exactly at 2."""
    rows = []
    for d in (1, 3, 5, 7):
        g, m_edges = _thick_path(d, 4)
        view = whole(g)
        m = Matching(m_edges, view)
        assert oracle.shortest_aug_path_len(view, m) == d
        bw = (g.n - 1).bit_length() + 4  # smallest bandwidth a graph allows
        g_bw = g.with_bandwidth(bw)
        counts, stats = count_paths(g_bw, whole(g_bw), m, d, delta=max_view_degree(view))
        track(stats, bw)
        rows.append((d, stats.rounds, dict(stats.per_phase)))
    floor = rows[0][1]
    coeffs = [(r - floor) / (d**2 - 1) for d, r, _ in rows[1:]]
    spread = max(coeffs) / min(coeffs)
    ok = spread <= 2.0
    report(
        "8c",
        ok,
        "rounds (count-sweeps, rounds/d^2): "
        + ", ".join(f"d={d}: {ph['count-sweeps']} ({r / d**2:.2f})" for d, r, ph in rows)
        + f"; (rounds-{floor})/(d^2-1) for d=3,5,7: "
        + ", ".join(f"{c:.2f}" for c in coeffs)
        + f"; spread x{spread:.2f} (<= 2 required)",
    )
    assert ok, (
        f"counting rounds above the d=1 floor of {floor} grow faster than "
        f"c*d^2: coefficients {[round(c, 2) for c in coeffs]}, spread "
        f"x{spread:.2f} > 2"
    )


# ---------------------------------------------------------------------------
# Criterion 9: bandwidth compliance and bit-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_9_bandwidth_and_determinism(big_runs):
    results, _ = big_runs
    violations = [(bits, bw) for bits, bw in BANDWIDTH_LOG if bits > bw]

    mismatches = 0
    reruns = 0
    for inst in results:
        g = inst["graph"]
        for r in inst["runs"][:2]:  # first two seeds of every instance
            cover, stats, cs = randomized_pipeline(g, EPS, seed=r["seed"])
            reruns += 1
            same = (
                cover.size == r["size"]
                and stats.rounds == r["rounds"]
                and stats.max_message_bits == r["max_bits"]
                and stats.total_bits == r["total_bits"]
            )
            mismatches += 0 if same else 1
    # A spread of deterministic pipelines as well.
    g = gen_random(40, 40, 0.06, 3)
    view = whole(g)
    for fn in (
        lambda s: koenig_exact_cover(g, view, seed=s),
        lambda s: det_cover_low_diameter(g, view, 0.5),
    ):
        c1, s1 = fn(77)
        c2, s2 = fn(77)
        reruns += 1
        if c1.nodes != c2.nodes or s1 != s2:
            mismatches += 1

    ok = not violations and mismatches == 0
    report(
        9,
        ok,
        f"{len(BANDWIDTH_LOG)} runs within bandwidth (violations={len(violations)}); "
        f"{reruns} reruns bit-identical (mismatches={mismatches})",
    )
    assert ok
