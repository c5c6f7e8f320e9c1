"""Integration: every registered experiment runs end-to-end at tiny scale
and its qualitative claim holds (with generous finite-size tolerances).

Seeds are fixed; these tests are deterministic.
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
