"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the status lines.
Criterion 9 needs an externally supplied Indian Pines cube and is skipped
otherwise (see ``_indian_pines_dir``).
"""

import itertools
import os
import statistics
import time

import numpy as np
import pytest

from dsirc.clustering import ClusterConfig, dsirc, dvic, kmeans, spectral_clustering
from dsirc.core import PixelCloud, cube_to_cloud, load_envi, read_labels_csv
from dsirc.diffusion import (
    DisconnectedGraphError,
    diffusion_distance,
    diffusion_system,
    knn_graph,
    knn_indices,
)
from dsirc.evaluation import align_labels, cohens_kappa, overall_accuracy
from dsirc.sar import (
    DIRECTION_STEPS,
    IciConfig,
    build_lpa_kernels,
    build_sa_region,
    ici_select_length,
    lpa_estimate,
    sar,
)
from dsirc.synth import SynthConfig, synth_hsi
from dsirc.unmixing import avmax, hysime, nnls, project_affine_pca
from dsirc.core import PcScalarField


def cloud_of(spectra):
    spectra = np.asarray(spectra, dtype=np.float64)
    n = spectra.shape[0]
    coords = np.column_stack([np.zeros(n, dtype=np.intp), np.arange(n, dtype=np.intp)])
    return PixelCloud(spectra, coords)


def report(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. diffusion distances vs dense matrix powers


def test_criterion_1_diffusion_distance_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    graphs = 0
    max_rel = 0.0
    while graphs < 20:
        n = int(rng.integers(5, 11))
        x = rng.uniform(size=(n, 3))
        k_n = int(rng.integers(2, 4))
        graph = knn_graph(knn_indices(x, k_n)[0])
        try:
            system = diffusion_system(graph, n)
        except DisconnectedGraphError:
            continue
        graphs += 1
        adj = graph.adjacency.toarray()
        p_matrix = adj / adj.sum(axis=1, keepdims=True)
        for t in (1, 2, 5):
            p_t = np.linalg.matrix_power(p_matrix, t)
            for i in range(n):
                for j in range(i + 1, n):
                    want = float(np.sqrt(np.sum((p_t[i] - p_t[j]) ** 2 / system.pi)))
                    got = diffusion_distance(system, i, j, t)
                    if want < 1e-12:
                        assert got < 1e-9
                    else:
                        max_rel = max(max_rel, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = max_rel <= 1e-7 and elapsed < 5.0
    report(
        1,
        "diffusion distances vs matrix powers",
        ok,
        f"20 graphs, all pairs, t in (1,2,5), max rel err {max_rel:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. SaR components vs independent oracles (exact)


def walk_average(grid, center, direction, length):
    h, w = grid.shape
    dr, dc = DIRECTION_STEPS[direction - 1]
    r, c = center
    last = (r, c)
    est = 0.0
    for s in range(length):
        rr, cc = r + s * dr, c + s * dc
        if 0 <= rr < h and 0 <= cc < w:
            last = (rr, cc)
        est += (1.0 / length) * grid[last]
    return est


def prefix_selection(estimates, lengths, tau, sigma):
    best = lengths[0]
    for k in range(1, len(lengths) + 1):
        lowers = [e - tau * sigma * g for e, g in estimates[:k]]
        uppers = [e + tau * sigma * g for e, g in estimates[:k]]
        if max(lowers) > min(uppers):
            break
        best = lengths[k - 1]
    return best


def hull_membership(point, vertices):
    qr, qc = int(point[0]), int(point[1])
    verts = [(int(r), int(c)) for r, c in vertices]
    if (qr, qc) in verts:
        return True

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on_segment(a, b):
        if a == b or cross(a, b, (qr, qc)) != 0:
            return False
        dot = (qr - a[0]) * (b[0] - a[0]) + (qc - a[1]) * (b[1] - a[1])
        return 0 <= dot <= (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2

    def in_triangle(a, b, c):
        d1 = cross(a, b, (qr, qc))
        d2 = cross(b, c, (qr, qc))
        d3 = cross(c, a, (qr, qc))
        return (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0)

    m = len(verts)
    for i in range(m):
        for j in range(i + 1, m):
            if on_segment(verts[i], verts[j]):
                return True
            for k in range(j + 1, m):
                if cross(verts[i], verts[j], verts[k]) != 0 and in_triangle(
                    verts[i], verts[j], verts[k]
                ):
                    return True
    return False


def test_criterion_2_sar_component_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    lengths = (1, 2, 3, 5, 7, 9)
    kernels = build_lpa_kernels(lengths)

    lpa_exact = 0
    for _ in range(100):
        h, w = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        grid = rng.uniform(size=(h, w))
        field = PcScalarField(grid.ravel(), h, w)
        center = (int(rng.integers(0, h)), int(rng.integers(0, w)))
        direction = int(rng.integers(1, 9))
        length = int(rng.choice(lengths))
        est, _ = lpa_estimate(field, kernels[(direction, length)], center)
        lpa_exact += est == walk_average(grid, center, direction, length)

    ici_exact = 0
    gains = [1.0 / np.sqrt(l) for l in lengths]
    for _ in range(100):
        sigma = float(rng.uniform(0.05, 1.0))
        tau = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        base = float(rng.uniform(-1.0, 1.0))
        ests = [
            (base + float(rng.normal(scale=rng.choice([0.02, 0.5]))), g) for g in gains
        ]
        got = ici_select_length(ests, IciConfig(tau=tau, sigma=sigma, lengths=lengths))
        ici_exact += got == prefix_selection(ests, lengths, tau, sigma)

    region_exact = 0
    for _ in range(100):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        center = (int(rng.integers(0, h)), int(rng.integers(0, w)))
        dir_lengths = tuple(int(l) for l in rng.integers(1, 5, size=8))
        region = build_sa_region(center, dir_lengths, (h, w))
        vertices = [
            (center[0] + (l - 1) * dr, center[1] + (l - 1) * dc)
            for l, (dr, dc) in zip(dir_lengths, DIRECTION_STEPS)
        ]
        want = [
            r * w + c
            for r in range(h)
            for c in range(w)
            if hull_membership((r, c), vertices)
        ]
        region_exact += region.members.tolist() == want

    elapsed = time.perf_counter() - start
    ok = lpa_exact == ici_exact == region_exact == 100 and elapsed < 10.0
    report(
        2,
        "SaR components vs naive/prefix/rasterization oracles",
        ok,
        f"exact matches lpa {lpa_exact}/100, ici {ici_exact}/100, "
        f"region {region_exact}/100, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. NNLS optimality


def projected_gradient_nnls(a, b, iters=50000):
    at_a = a.T @ a
    at_b = a.T @ b
    step = 1.0 / float(np.linalg.eigvalsh(at_a)[-1])
    x = np.zeros(a.shape[1])
    for _ in range(iters):
        x_new = np.maximum(x - step * (at_a @ x - at_b), 0.0)
        if np.linalg.norm(x_new - x) <= 1e-13 * max(1.0, np.linalg.norm(x)):
            return x_new
        x = x_new
    return x


def test_criterion_3_nnls_kkt_and_oracle():
    rng = np.random.default_rng(103)
    worst_kkt = 0.0
    worst_gap = 0.0
    for _ in range(50):
        p = int(rng.integers(1, 6))
        bands = int(rng.integers(p, 21)) if p < 20 else 20
        bands = max(bands, p)
        e = rng.uniform(0.0, 1.0, size=(p, bands))
        x = rng.uniform(0.0, 1.0, size=bands)
        sol = nnls(e, x)
        a = e.T
        grad = a.T @ (a @ sol - x)
        worst_kkt = max(worst_kkt, float(-grad.min()))
        if np.any(sol > 1e-12):
            worst_kkt = max(worst_kkt, float(np.max(np.abs(grad[sol > 1e-12]))))
        ref = projected_gradient_nnls(a, x)
        f_sol = 0.5 * np.sum((a @ sol - x) ** 2)
        f_ref = 0.5 * np.sum((a @ ref - x) ** 2)
        worst_gap = max(worst_gap, abs(f_sol - f_ref))
    ok = worst_kkt <= 1e-8 and worst_gap <= 1e-8
    report(
        3,
        "NNLS KKT + projected-gradient oracle",
        ok,
        f"50 instances, worst KKT violation {worst_kkt:.2e}, "
        f"worst objective gap {worst_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. simplex vertex search vs exhaustive enumeration


def shoelace(points):
    (x1, y1), (x2, y2), (x3, y3) = points
    return abs(x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))


def test_criterion_4_avmax_exhaustive():
    rng = np.random.default_rng(104)
    matches = 0
    for trial in range(20):
        n = int(rng.integers(5, 13))
        bands = int(rng.integers(3, 8))
        spectra = rng.uniform(size=(n, bands))
        got = avmax(cloud_of(spectra), 3, restarts=10, rng=trial)
        projected = project_affine_pca(spectra, 2)
        best = max(
            shoelace(projected[list(combo)])
            for combo in itertools.combinations(range(n), 3)
        )
        idx = [int(np.flatnonzero((spectra == row).all(axis=1))[0]) for row in got]
        matches += shoelace(projected[idx]) == pytest.approx(best, rel=1e-9)
    ok = matches == 20
    report(4, "AVMAX vs exhaustive simplex volume", ok, f"{matches}/20 instances optimal")


# ---------------------------------------------------------------------------
# 5. subspace dimension recovery


def simplex_cloud(rng, snr_db):
    bands, p, n = 12, 3, 200
    grid = np.arange(bands, dtype=np.float64)
    e = np.empty((p, bands))
    for i in range(p):
        s = np.zeros(bands)
        for _ in range(3):
            center = rng.uniform(0, bands - 1)
            width = rng.uniform(bands / 15, bands / 5)
            s += rng.uniform(0.3, 1.0) * np.exp(-((grid - center) ** 2) / (2 * width**2))
        e[i] = s / s.max()
    a = rng.dirichlet(np.ones(p), size=n)
    a[:p] = np.eye(p)
    x = a @ e
    if snr_db is not None:
        signal_power = float(np.mean(np.sum(x**2, axis=1)))
        sigma = np.sqrt(signal_power / (10 ** (snr_db / 10.0) * bands))
        x = x + rng.normal(scale=sigma, size=x.shape)
    return cloud_of(x)


def test_criterion_5_hysime_recovery():
    noiseless = [hysime(simplex_cloud(np.random.default_rng(s), None)) for s in range(5)]
    noisy = [hysime(simplex_cloud(np.random.default_rng(50 + s), 20.0)) for s in range(5)]
    ok = all(p == 3 for p in noiseless + noisy)
    report(
        5,
        "HySime p=3 recovery",
        ok,
        f"noiseless {noiseless}, SNR 20 dB {noisy}",
    )


# ---------------------------------------------------------------------------
# 6. reconstruction reduces noise


def test_criterion_6_sar_denoises():
    wins = 0
    ratios = []
    for seed in range(10):
        scene = synth_hsi(SynthConfig(seed=seed))  # noise defaults to 0.05
        clean = scene.abundances @ scene.endmembers
        cloud = cube_to_cloud(scene.cube)
        recon = sar(cloud)
        mse_in = float(np.mean((cloud.spectra - clean) ** 2))
        mse_out = float(np.mean((recon.spectra - clean) ** 2))
        wins += mse_out < mse_in
        ratios.append(mse_out / mse_in)
    ok = wins == 10
    report(
        6,
        "SaR lowers MSE vs clean signal",
        ok,
        f"{wins}/10 seeds improved, mse ratio range "
        f"{min(ratios):.3f}-{max(ratios):.3f}",
    )


# ---------------------------------------------------------------------------
# 7. end-to-end clustering quality


def test_criterion_7_end_to_end_clustering():
    start = time.perf_counter()
    oa_05, oa_10_dsirc, oa_10_dvic = [], [], []
    for seed in range(10):
        config = ClusterConfig(n_clusters=4, seed=seed)
        scene = synth_hsi(SynthConfig(seed=seed))
        cloud = cube_to_cloud(scene.cube)
        got = align_labels(dsirc(cloud, config).labels, scene.gt)
        oa_05.append(overall_accuracy(got, scene.gt))
        noisy = synth_hsi(SynthConfig(noise=0.10, seed=seed))
        noisy_cloud = cube_to_cloud(noisy.cube)
        got = align_labels(dsirc(noisy_cloud, config).labels, noisy.gt)
        oa_10_dsirc.append(overall_accuracy(got, noisy.gt))
        got = align_labels(dvic(noisy_cloud, config).labels, noisy.gt)
        oa_10_dvic.append(overall_accuracy(got, noisy.gt))
    elapsed = time.perf_counter() - start
    med_05 = statistics.median(oa_05)
    med_10 = statistics.median(oa_10_dsirc)
    med_10_dvic = statistics.median(oa_10_dvic)
    ok = med_05 >= 0.95 and med_10 > med_10_dvic and elapsed < 120.0
    report(
        7,
        "end-to-end clustering quality",
        ok,
        f"median OA at 0.05 noise {med_05:.4f} (>= 0.95), at 0.10 noise "
        f"dsirc {med_10:.4f} vs dvic {med_10_dvic:.4f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. metric arithmetic


def test_criterion_8_metric_arithmetic():
    pred, gt = [], []
    for i, row in enumerate([[40, 10], [20, 30]]):
        for j, count in enumerate(row):
            pred.extend([i + 1] * count)
            gt.extend([j + 1] * count)
    pred, gt = np.asarray(pred), np.asarray(gt)
    hand_ok = overall_accuracy(pred, gt) == 0.7 and cohens_kappa(pred, gt) == pytest.approx(0.4)

    rng = np.random.default_rng(108)
    align_ok = True
    for trial in range(25):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(20, 60))
        truth = rng.integers(1, k + 1, size=n)
        shuffled = (rng.permutation(k) + 1)[truth - 1]
        flips = rng.random(n) < 0.3
        shuffled[flips] = rng.integers(1, k + 1, size=int(flips.sum()))
        aligned = align_labels(shuffled, truth)
        best = max(
            float(np.mean(np.asarray(perm)[shuffled - 1] == truth))
            for perm in itertools.permutations(range(1, k + 1))
        )
        align_ok &= overall_accuracy(aligned, truth) == pytest.approx(best)
    ok = hand_ok and align_ok
    report(
        8,
        "metric arithmetic and alignment",
        ok,
        f"hand table {'exact' if hand_ok else 'WRONG'}, "
        f"alignment vs permutations {'25/25' if align_ok else 'mismatch'}",
    )


# ---------------------------------------------------------------------------
# 9. stretch: real-scene benchmark (skipped without user-supplied data)


def _indian_pines_dir():
    env = os.environ.get("DSIRC_INDIAN_PINES_DIR")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data", "indian_pines")


def test_criterion_9_indian_pines_stretch():
    root = _indian_pines_dir()
    needed = [os.path.join(root, name) for name in ("cube.hdr", "cube.raw", "gt.csv")]
    if not all(os.path.exists(path) for path in needed):
        pytest.skip(
            "stretch benchmark needs cube.hdr, cube.raw, gt.csv under "
            f"{root} (or $DSIRC_INDIAN_PINES_DIR); not supplied"
        )
    cube = load_envi(needed[0], needed[1])
    gt, _ = read_labels_csv(needed[2])
    cloud = cube_to_cloud(cube)
    k = int(gt.labels.max())

    def score(result):
        aligned = align_labels(result.labels, gt)
        return overall_accuracy(aligned, gt)

    kn_grid, t_grid, tau_grid = (20, 50, 100, 200), (10.0, 30.0, 100.0), (1.0, 2.0, 3.0)
    best_dsirc = max(
        score(dsirc(cloud, ClusterConfig(n_clusters=k, k_n=kn, t=t, tau=tau, seed=0)))
        for kn in kn_grid
        for t in t_grid
        for tau in tau_grid
    )
    best_dvic = max(
        score(dvic(cloud, ClusterConfig(n_clusters=k, k_n=kn, t=t, seed=0)))
        for kn in kn_grid
        for t in t_grid
    )
    best_sc = max(
        score(spectral_clustering(cloud, k, k_n=kn, rng=0)) for kn in kn_grid
    )
    best_kmeans = score(kmeans(cloud, k, rng=0))
    ok = abs(best_dsirc - 0.6195) <= 0.08 and best_dsirc > best_dvic > max(
        best_sc, best_kmeans
    )
    report(
        9,
        "real-scene sweep (stretch)",
        ok,
        f"best OA dsirc {best_dsirc:.4f}, dvic {best_dvic:.4f}, "
        f"sc {best_sc:.4f}, kmeans {best_kmeans:.4f}",
    )
