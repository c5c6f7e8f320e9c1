"""Integration: every registered experiment runs end-to-end at tiny scale
and its qualitative claim holds (with generous finite-size tolerances).

Seeds are fixed; these tests are deterministic.  ``TestQualitativeClaims``
reads the seed-2025 tables and ``TestSeedZeroClaims`` the seed-0 ones.
"""

import math

import pytest

from repro.experiments.registry import all_experiments, get_experiment

SEED = 2025


@pytest.fixture(scope="module")
def tables():
    """Run everything once per module; individual tests inspect slices."""
    return {
        spec.experiment_id: spec(scale="tiny", seed=SEED)
        for spec in all_experiments()
    }


class TestAllRun:
    def test_every_experiment_produces_rows(self, tables):
        for exp_id, table in tables.items():
            assert len(table) > 0, f"{exp_id} produced no rows"

    def test_every_table_renders(self, tables):
        for table in tables.values():
            text = table.render()
            assert table.experiment_id in text

    def test_csv_round_trip(self, tables, tmp_path):
        for table in tables.values():
            path = table.to_csv(tmp_path)
            assert path.exists()
            assert path.stat().st_size > 0


class TestQualitativeClaims:
    def test_e1_exponential_regime_costs_more(self, tables):
        table = tables["E1"]
        rows = table.filtered(router="waypoint")
        low = [r for r in rows if r["alpha"] < 0.5 and r["connected_trials"]]
        high = [r for r in rows if r["alpha"] > 0.5 and r["connected_trials"]]
        assert low and high, "E1 lacks a connected row on a side of 1/2"
        assert min(h["frac_edges_probed"] for h in high) >= max(
            0.5 * l["frac_edges_probed"] for l in low
        )

    def test_e2_lemma5_bound_respected(self, tables):
        rows = tables["E2"].rows
        observed = [
            row for row in rows if not math.isnan(row["observed_cdf_at_t"])
        ]
        assert observed, "no E2 row measured a router CDF"
        for row in observed:
            assert row["observed_cdf_at_t"] <= row["bound_at_t"] + 0.35
        for row in rows:
            # The Monte-Carlo eta stays under the path-counting bound.
            assert row["eta_empirical"] <= row["eta_theory"]

    def test_e3_success_rates_high(self, tables):
        rates = tables["E3"].column("success_rate")
        assert rates
        assert sum(rates) / len(rates) > 0.6

    def test_e4_queries_grow_with_distance(self, tables):
        table = tables["E4"]
        rows = table.rows
        assert len(rows) >= 2
        assert rows[-1]["mean_queries"] > rows[0]["mean_queries"] * 0.8

    def test_e5_connectivity_increases_with_p(self, tables):
        routing = tables["E5"].filtered(section="routing")
        assert routing[0]["pr_connected"] <= routing[-1]["pr_connected"]

    def test_e6_recursion_matches(self, tables):
        errors = tables["E6"].column("abs_error")
        assert max(errors) < 0.25

    def test_e7_cost_grows_with_depth(self, tables):
        rows = tables["E7"].filtered(router="directed-dfs")
        assert len(rows) >= 2
        assert rows[-1]["mean_queries"] > rows[0]["mean_queries"]

    def test_e8_linear_not_exponential(self, tables):
        rows = tables["E8"].rows
        assert len(rows) >= 2
        depth_ratio = rows[-1]["depth"] / rows[0]["depth"]
        query_ratio = rows[-1]["mean_queries"] / rows[0]["mean_queries"]
        assert query_ratio < depth_ratio**2

    def test_e9_quadratic_scaling(self, tables):
        rows = tables["E9"].rows
        assert len(rows) >= 2
        n_ratio = rows[-1]["n"] / rows[0]["n"]
        q_ratio = rows[-1]["mean_queries"] / rows[0]["mean_queries"]
        assert q_ratio > n_ratio  # super-linear

    def test_e10_subquadratic_scaling(self, tables):
        rows = tables["E10"].rows
        assert len(rows) >= 2
        n_ratio = rows[-1]["n"] / rows[0]["n"]
        q_ratio = rows[-1]["mean_queries"] / rows[0]["mean_queries"]
        assert q_ratio < n_ratio**2  # sub-quadratic

    def test_e11_giant_fraction_increases(self, tables):
        rows = tables["E11"].filtered(section="giant_fraction")
        assert rows[0]["value"] <= rows[-1]["value"] + 0.05

    def test_e11_connectivity_does_not_fall(self, tables):
        rows = tables["E11"].filtered(section="pr_connected")
        for n in sorted({row["n"] for row in rows}):
            curve = [row for row in rows if row["n"] == n]
            assert len(curve) >= 2
            assert curve[0]["value"] <= curve[-1]["value"]

    def test_e12_all_families_present(self, tables):
        families = set(tables["E12"].column("family"))
        assert len(families) == 4

    def test_e13_middle_regime_shape(self, tables):
        rows = sorted(tables["E13"].rows, key=lambda r: r["alpha"])
        # giant exists throughout the tested range
        assert all(r["giant_fraction"] > 0.1 for r in rows)
        # and its diameter stays bounded by a small polynomial factor
        for r in rows:
            if r["giant_diameter_lb"] == r["giant_diameter_lb"]:
                assert r["giant_diameter_lb"] <= r["n"] ** 2

    def test_e14_site_hits_harder(self, tables):
        table = tables["E14"]
        alphas = sorted({r["alpha"] for r in table.rows})
        assert len(alphas) >= 2
        for alpha in alphas:
            rows = {r["fault_model"]: r for r in table.filtered(alpha=alpha)}
            edge, site = rows.get("edge"), rows.get("site")
            assert edge and site, f"E14 lacks a fault model at {alpha}"
            # site faults never connect more often than edge faults
            assert site["connected_trials"] <= edge["connected_trials"] + 1

    def test_a1_verdicts_agree(self, tables):
        assert all(tables["A1"].column("verdicts_agree"))

    def test_a2_unbounded_waypoint_fully_succeeds(self, tables):
        rows = tables["A2"].filtered(router="waypoint")
        for row in rows:
            assert row["success_rate"] == 1.0

    def test_a3_bidirectional_wins(self, tables):
        rows = tables["A3"].filtered(router="gnp-bidirectional")
        for row in rows:
            assert row["vs_local"] < 1.0


def _nanmax(values):
    finite = [v for v in values if not math.isnan(v)]
    return max(finite) if finite else float("nan")


@pytest.fixture(scope="module")
def seed0_tables():
    """Every table at tiny, seed 0, through the default runner."""
    return {
        spec.experiment_id: spec(scale="tiny", seed=0)
        for spec in all_experiments()
    }


class TestSeedZeroClaims:
    """The shape each experiment's claim names, on its seed-0 tables.

    The thresholds are the tiny-scale ones: E1's separation factor and
    E10's minimum speedup grow with ``n`` and are lenient at tiny.
    """

    # the separation factor grows with n; stay lenient at tiny scale
    E1_FACTOR = 1.5
    # the sqrt(n) speedup is weak at tiny n; stay lenient there
    E10_MIN_SPEEDUP = 1.2

    def test_e01_hypercube_phase(self, seed0_tables):
        table = seed0_tables["E1"]
        assert len(table) > 0

        # The transition: the waypoint router's probed fraction for the
        # largest alpha must dominate the smallest alpha by a clear
        # factor.
        rows = [
            r
            for r in table.filtered(router="waypoint")
            if r["connected_trials"]
            and not math.isnan(r["frac_edges_probed"])
        ]
        assert rows, "no connected measurements"
        by_alpha = sorted(rows, key=lambda r: r["alpha"])
        cheap = by_alpha[0]["frac_edges_probed"]
        expensive = by_alpha[-1]["frac_edges_probed"]
        assert expensive > self.E1_FACTOR * cheap, (cheap, expensive)

    def test_e02_hypercube_lower(self, seed0_tables):
        table = seed0_tables["E2"]
        assert len(table) > 0

        for row in table.rows:
            # The paper's series bound must dominate the Monte-Carlo eta
            # (up to sampling noise on the empirical side).
            if row["eta_theory"] < 1.0:
                assert row["eta_empirical"] <= row["eta_theory"] + 0.1, row
            # Lemma 5: observed CDF below the bound.
            if not math.isnan(row["observed_cdf_at_t"]):
                assert (
                    row["observed_cdf_at_t"] <= row["bound_at_t"] + 0.35
                ), row

    def test_e03_hypercube_upper(self, seed0_tables):
        table = seed0_tables["E3"]
        assert len(table) > 0

        rates = table.column("success_rate")
        assert sum(rates) / len(rates) > 0.7, "success should be the norm"

        # poly(n), not exponential: the largest-n rows must not blow
        # past a generous polynomial multiple of the smallest-n rows
        # per alpha.
        for alpha in sorted({r["alpha"] for r in table.rows}):
            rows = sorted(table.filtered(alpha=alpha), key=lambda r: r["n"])
            measured = [
                r for r in rows if r["median_queries"] == r["median_queries"]
            ]
            if len(measured) >= 2:
                first, last = measured[0], measured[-1]
                n_ratio = last["n"] / first["n"]
                q_ratio = last["median_queries"] / max(
                    1, first["median_queries"]
                )
                assert q_ratio < n_ratio**6, (alpha, q_ratio, n_ratio)

    def test_e04_mesh_linear(self, seed0_tables):
        table = seed0_tables["E4"]
        assert len(table) > 0

        # Linear law: per (d, p), queries/distance must not drift
        # upward by more than a small factor across the distance sweep.
        keys = {(r["d"], r["p"]) for r in table.rows}
        checked = 0
        for d, p in keys:
            rows = sorted(table.filtered(d=d, p=p), key=lambda r: r["n"])
            if len(rows) < 2:
                continue
            first = rows[0]["queries_per_distance"]
            last = rows[-1]["queries_per_distance"]
            assert last < 4 * first + 5, (d, p, first, last)
            checked += 1
        assert checked > 0

    def test_e05_mesh_pc(self, seed0_tables):
        table = seed0_tables["E5"]
        routing = table.filtered(section="routing")
        chemical = table.filtered(section="chemical")
        assert routing and chemical

        # Connectivity collapses below p_c and saturates above.
        lo = [r for r in routing if r["p"] < 0.45]
        hi = [r for r in routing if r["p"] > 0.6]
        if lo and hi:
            assert max(r["pr_connected"] for r in lo) <= min(
                r["pr_connected"] for r in hi
            ) + 0.2

        # Chemical distance: ratio >= 1 always, decreasing in p.
        by_p = sorted(chemical, key=lambda r: r["p"])
        for row in by_p:
            assert row["ratio_mean"] >= 1.0 - 1e-9
        if len(by_p) >= 2:
            assert by_p[-1]["ratio_mean"] <= by_p[0]["ratio_mean"] + 0.05

        # Exponential tail: positive fitted rate wherever the fit
        # exists.
        rates = [
            r["tail_rate"] for r in chemical if not math.isnan(r["tail_rate"])
        ]
        for rate in rates:
            assert rate > 0

    def test_e06_tt_threshold(self, seed0_tables):
        table = seed0_tables["E6"]
        assert len(table) > 0

        # Exactness: empirical matches the recursion within MC noise.
        trials = table.rows[0]["trials"]
        tolerance = 5 / trials**0.5
        for row in table.rows:
            assert row["abs_error"] < tolerance + 0.02, row

        # Threshold shape: at the deepest tree, subcritical p loses to
        # supercritical p decisively.
        deepest = max(table.column("depth"))
        rows = table.filtered(depth=deepest)
        sub = [r["pr_exact"] for r in rows if r["p"] <= 0.65]
        sup = [r["pr_exact"] for r in rows if r["p"] >= 0.75]
        if sub and sup:
            assert max(sub) < min(sup)

    def test_e07_tt_local(self, seed0_tables):
        table = seed0_tables["E7"]
        assert len(table) > 0

        for p in sorted({r["p"] for r in table.rows}):
            for router in sorted({r["router"] for r in table.rows}):
                rows = sorted(
                    table.filtered(p=p, router=router),
                    key=lambda r: r["depth"],
                )
                if len(rows) < 2:
                    continue
                first, last = rows[0], rows[-1]
                # super-linear growth in depth (exponential at scale;
                # keep the assertion robust at small depth)
                depth_ratio = last["depth"] / first["depth"]
                q_ratio = last["mean_queries"] / first["mean_queries"]
                assert q_ratio > depth_ratio, (p, router, q_ratio)

    def test_e08_tt_oracle(self, seed0_tables):
        table = seed0_tables["E8"]
        assert len(table) > 0

        for p in sorted({r["p"] for r in table.rows}):
            rows = sorted(table.filtered(p=p), key=lambda r: r["depth"])
            if len(rows) < 2:
                continue
            per_depth = [r["queries_per_depth"] for r in rows]
            # linear law: the per-depth constant must not drift by > 3x
            assert max(per_depth) < 3 * min(per_depth) + 3, (p, per_depth)

        # success probability stays bounded away from zero at any depth
        assert min(table.column("mirror_success_rate")) > 0.1

    def test_e09_gnp_local(self, seed0_tables):
        table = seed0_tables["E9"]
        assert len(table) > 0

        for c in sorted({r["c"] for r in table.rows}):
            rows = sorted(table.filtered(c=c), key=lambda r: r["n"])
            if len(rows) < 2:
                continue
            ratios = [r["queries_over_n2"] for r in rows]
            # Θ(n²): normalised cost within a constant band
            assert max(ratios) < 6 * min(ratios), (c, ratios)
            # and genuinely super-linear growth
            n_ratio = rows[-1]["n"] / rows[0]["n"]
            q_ratio = rows[-1]["mean_queries"] / rows[0]["mean_queries"]
            assert q_ratio > n_ratio, (c, q_ratio, n_ratio)

    def test_e10_gnp_oracle(self, seed0_tables):
        table = seed0_tables["E10"]
        assert len(table) > 0

        rows = sorted(table.rows, key=lambda r: r["n"])
        ratios = [r["queries_over_n15"] for r in rows]
        assert max(ratios) < 6 * min(ratios), ratios

        # sub-quadratic: doubling n must not quadruple queries
        if len(rows) >= 2:
            n_ratio = rows[-1]["n"] / rows[0]["n"]
            q_ratio = rows[-1]["mean_queries"] / rows[0]["mean_queries"]
            assert q_ratio < n_ratio**2

        # where measured, the speedup over local routing is substantial
        speedups = [
            r["speedup_vs_local"]
            for r in rows
            if not math.isnan(r["speedup_vs_local"])
        ]
        for s in speedups:
            assert s > self.E10_MIN_SPEEDUP, speedups

    def test_e11_hypercube_giant(self, seed0_tables):
        table = seed0_tables["E11"]
        assert len(table) > 0

        for n in sorted({r["n"] for r in table.rows}):
            giant = sorted(
                table.filtered(section="giant_fraction", n=n),
                key=lambda r: r["p"],
            )
            # the giant fraction grows through p ~ 1/n
            assert giant[-1]["value"] > giant[0]["value"]
            # well above the threshold the giant holds most of the cube
            assert giant[-1]["value"] > 0.5

            conn = sorted(
                table.filtered(section="pr_connected", n=n),
                key=lambda r: r["p"],
            )
            # connectivity is (weakly) increasing across p = 1/2
            assert conn[-1]["value"] >= conn[0]["value"]

    def test_e12_open_question(self, seed0_tables):
        table = seed0_tables["E12"]
        families = sorted({r["family"] for r in table.rows})
        assert len(families) == 4

        for family in families:
            rows = sorted(
                table.filtered(family=family), key=lambda r: r["p"]
            )
            # structural transition visible: giant grows with p
            assert rows[-1]["giant_fraction"] >= rows[0]["giant_fraction"]
            # routing measured somewhere in the supercritical phase
            measured = [
                r for r in rows if not math.isnan(r["median_frac_probed"])
            ]
            assert measured, family
            for r in measured:
                assert 0 < r["median_frac_probed"] <= 1

    def test_e13_middle_regime(self, seed0_tables):
        table = seed0_tables["E13"]
        rows = sorted(table.rows, key=lambda r: r["alpha"])
        assert rows

        # structure exists across the sweep
        assert all(r["giant_fraction"] > 0.1 for r in rows)
        # diameter lower bound stays polynomial (quadratic is generous)
        for r in rows:
            if not math.isnan(r["giant_diameter_lb"]):
                assert r["giant_diameter_lb"] <= r["n"] ** 2

        # routing cost grows across the transition
        measured = [
            r for r in rows if not math.isnan(r["median_frac_probed"])
        ]
        if len(measured) >= 2:
            assert (
                measured[-1]["median_frac_probed"]
                >= measured[0]["median_frac_probed"]
            )

    def test_e14_site_faults(self, seed0_tables):
        # Site faults at survival p act like edge faults at ~p^2: the
        # routing blow-up *onsets* at smaller alpha.  Past the onset
        # the comparison in "fraction of all edges probed" inverts —
        # under heavy site faults the surviving subgraph itself
        # shrinks, so the probed share of the *full* edge set drops
        # even though routing is no easier — hence the assertions
        # target the onset region (alpha <= 0.5) and connectivity
        # decay.
        table = seed0_tables["E14"]
        assert len(table) > 0

        for alpha in sorted({r["alpha"] for r in table.rows}):
            rows = {r["fault_model"]: r for r in table.filtered(alpha=alpha)}
            edge, site = rows.get("edge"), rows.get("site")
            if not (edge and site):
                continue
            # site faults never connect more often than edge faults
            assert site["connected_trials"] <= edge["connected_trials"] + 1
            both = (
                not math.isnan(site["median_frac_probed"])
                and not math.isnan(edge["median_frac_probed"])
            )
            if both and alpha <= 0.5:
                # onset region: routing under site faults costs at
                # least about as much as under edge faults at the same
                # nominal p
                assert (
                    site["median_frac_probed"]
                    >= 0.5 * edge["median_frac_probed"]
                ), (alpha, site, edge)

    def test_e15_fault_models(self, seed0_tables):
        table = seed0_tables["E15"]
        assert len(table) > 0
        trials = max(r["connected_trials"] for r in table.rows)

        for p in sorted({r["p"] for r in table.rows}):
            rows = {r["fault_model"]: r for r in table.filtered(p=p)}
            assert set(rows) == {"iid", "node", "correlated", "adversarial"}
            # Clustering the node-fault mass only hurts: the correlated
            # arm (same epicenter density as the node arm's failure
            # rate, grown into balls) never connects the pinned pair
            # more often than either scattered model (small
            # finite-trial slack).
            assert (
                rows["correlated"]["connected_trials"]
                <= min(
                    rows["iid"]["connected_trials"],
                    rows["node"]["connected_trials"],
                )
                + 1
            ), p
            # The adversary forces detours: whenever it leaves the pair
            # connected in at least half the trials, its median probe
            # count runs at or above the i.i.d. arm's.
            adv = rows["adversarial"]
            if adv["connected_trials"] >= trials / 2 and not math.isnan(
                rows["iid"]["median_queries"]
            ):
                assert (
                    adv["median_queries"] >= rows["iid"]["median_queries"]
                ), p

        # Near full survival the adversary (one removal short of the
        # uplink cut) probes strictly more than every oblivious model.
        top_p = max(r["p"] for r in table.rows)
        rows = {r["fault_model"]: r for r in table.filtered(p=top_p)}
        oblivious = _nanmax(
            rows[m]["median_queries"] for m in ("iid", "node", "correlated")
        )
        adversarial = rows["adversarial"]["median_queries"]
        if not math.isnan(adversarial) and not math.isnan(oblivious):
            assert adversarial >= oblivious

    def test_e16_correlated_outages(self, seed0_tables):
        table = seed0_tables["E16"]
        assert len(table) > 0

        rows = sorted(table.rows, key=lambda r: r["spread"])
        assert rows[0]["spread"] == 0.0  # the i.i.d. baseline ran
        # Coupled radii: realised fault mass grows with spread...
        masses = [r["mean_dead_frac"] for r in rows]
        assert masses == sorted(masses)
        # ...and connectivity of the probe pair can only degrade.
        assert rows[-1]["connected_trials"] <= rows[0]["connected_trials"]

    def test_e17_adversarial_budget(self, seed0_tables):
        table = seed0_tables["E17"]
        assert len(table) > 0

        budgets = sorted({r["budget"] for r in table.rows})
        by_arm = {(r["budget"], r["placement"]): r for r in table.rows}
        k = table.rows[0]["k"]
        cut = k // 2
        for b in budgets:
            adv = by_arm[(b, "adversarial")]
            rnd = by_arm[(b, "random")]
            # Matched expected mass, worse placement: the adversary
            # never helps connectivity.
            assert adv["connected_trials"] <= rnd["connected_trials"] + 1
            if b >= cut:
                # The uplink cut: severed with certainty...
                assert adv["connected_trials"] == 0
                # ...while the same expected damage placed obliviously
                # leaves the pair connected in most trials.
                assert rnd["connected_trials"] > 0

    def test_e18_routability_never_falls_with_p(self, seed0_tables):
        table = seed0_tables["E18"]
        graphs = sorted({r["graph"] for r in table.rows})
        assert graphs
        for graph in graphs:
            rows = sorted(table.filtered(graph=graph), key=lambda r: r["p"])
            assert len(rows) >= 2, graph
            rates = [r["routability"] for r in rows]
            assert rates == sorted(rates), (graph, rates)

    def test_e19_max_link_load_never_falls_with_skew(self, seed0_tables):
        rows = sorted(seed0_tables["E19"].rows, key=lambda r: r["skew"])
        assert len(rows) >= 2
        loads = [r["median_max_link_load"] for r in rows]
        assert loads == sorted(loads), loads

    def test_e20_correlated_delivers_least(self, seed0_tables):
        table = seed0_tables["E20"]
        ps = sorted({r["p"] for r in table.rows})
        assert ps
        for p in ps:
            rates = {
                r["fault_model"]: r["full_delivery_rate"]
                for r in table.filtered(p=p)
            }
            assert set(rates) == {"iid", "node", "correlated", "adversarial"}
            assert rates["correlated"] == min(rates.values()), (p, rates)

    def test_a1_conditioning(self, seed0_tables):
        # Exact (cluster BFS) vs router-based conditioning must agree
        # trial-by-trial for complete routers.
        table = seed0_tables["A1"]
        assert len(table) > 0
        assert all(table.column("verdicts_agree"))

        # identical conditioned trials → identical mean queries per
        # graph
        for graph in sorted({r["graph"] for r in table.rows}):
            rows = table.filtered(graph=graph)
            means = {r["mode"]: r["mean_queries"] for r in rows}
            if "exact" in means and "router" in means:
                a, b = means["exact"], means["router"]
                if a == a and b == b:  # both non-NaN
                    assert abs(a - b) < 1e-9

    def test_a2_waypoint(self, seed0_tables):
        # Radius caps trade success for probes; the unbounded schedule
        # is complete and much cheaper than exhaustive BFS.
        table = seed0_tables["A2"]
        assert len(table) > 0

        for graph in sorted({r["graph"] for r in table.rows}):
            rows = table.filtered(graph=graph)
            by_name = {r["router"]: r for r in rows}
            unbounded = by_name.get("waypoint")
            bfs = by_name.get("local-bfs")
            if unbounded and bfs:
                assert unbounded["success_rate"] == 1.0
                assert unbounded["mean_queries"] < bfs["mean_queries"]
            # success rate should not decrease as the radius cap grows
            capped = sorted(
                (r for r in rows if "r<=" in r["router"]),
                key=lambda r: int(r["router"].split("<=")[1].rstrip(")")),
            )
            rates = [r["success_rate"] for r in capped]
            assert all(a <= b + 0.25 for a, b in zip(rates, rates[1:])), rates

    def test_a3_gnp_policies(self, seed0_tables):
        # Bidirectional growth is the win; oracle access alone is not.
        table = seed0_tables["A3"]
        assert len(table) > 0

        for n in sorted({r["n"] for r in table.rows}):
            rows = {r["router"]: r for r in table.filtered(n=n)}
            bidi = rows.get("gnp-bidirectional")
            uni = rows.get("gnp-unidirectional-oracle")
            if bidi:
                assert bidi["vs_local"] < 0.8, (n, bidi)
            if uni:
                assert 0.5 < uni["vs_local"] < 2.0, (n, uni)

    def test_a4_boundary(self, seed0_tables):
        # The O(n) routing law must not depend on boundary conditions.
        table = seed0_tables["A4"]
        assert len(table) > 0

        for p in sorted({r["p"] for r in table.rows}):
            for n in sorted({r["n"] for r in table.rows}):
                rows = {
                    r["boundary"]: r for r in table.filtered(p=p, n=n)
                }
                mesh, torus = rows.get("mesh"), rows.get("torus")
                if mesh and torus:
                    ratio = (
                        mesh["queries_per_distance"]
                        / torus["queries_per_distance"]
                    )
                    assert 1 / 4 < ratio < 4, (p, n, ratio)


class TestDeterminism:
    def test_same_seed_same_rows(self):
        spec = get_experiment("A3")
        t1 = spec(scale="tiny", seed=7)
        t2 = spec(scale="tiny", seed=7)
        assert t1.rows == t2.rows

    def test_different_seed_may_differ_but_runs(self):
        spec = get_experiment("A1")
        t = spec(scale="tiny", seed=123)
        assert len(t) > 0
