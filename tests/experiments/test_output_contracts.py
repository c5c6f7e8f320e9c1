"""Output contracts of every experiment definition.

``repro report``, the benchmarks and the CSV artifacts all rely on each
experiment emitting a stable column schema, at least one explanatory
note, and physically sensible values.  These tests pin those contracts
at tiny scale.
"""

import math

import pytest

from repro.experiments.registry import all_experiments

EXPECTED_COLUMNS = {
    "E1": {"n", "alpha", "p", "router", "frac_edges_probed"},
    "E2": {"n", "alpha", "eta_empirical", "eta_theory", "bound_at_t"},
    "E3": {"alpha", "n", "success_rate", "theory_success_floor"},
    "E4": {"d", "p", "n", "queries_per_distance"},
    "E5": {"section", "p", "pr_connected", "ratio_mean"},
    "E6": {"depth", "p", "pr_empirical", "pr_exact", "abs_error"},
    "E7": {"p", "depth", "router", "mean_queries"},
    "E8": {"p", "depth", "mirror_success_rate", "queries_per_depth"},
    "E9": {"c", "n", "queries_over_n2"},
    "E10": {"c", "n", "queries_over_n15", "speedup_vs_local"},
    "E11": {"section", "n", "p", "value"},
    "E12": {"family", "p", "giant_fraction", "median_frac_probed"},
    "E13": {"alpha", "giant_fraction", "giant_diameter_lb", "oracle_frac_probed"},
    "E14": {"alpha", "fault_model", "median_frac_probed"},
    "E15": {"k", "p", "fault_model", "median_frac_probed"},
    "E16": {"n", "spread", "mean_dead_frac", "median_frac_probed"},
    "E17": {"k", "budget", "placement", "median_queries"},
    "E18": {"graph", "p", "commodities", "routability", "median_max_link_load"},
    "E19": {"k", "p", "skew", "routability", "median_max_link_load"},
    "E20": {"k", "p", "fault_model", "routability", "full_delivery_rate"},
    "A1": {"graph", "mode", "verdicts_agree"},
    "A2": {"graph", "router", "success_rate", "mean_queries"},
    "A3": {"n", "router", "vs_local"},
    "A4": {"boundary", "p", "n", "queries_per_distance"},
}


@pytest.fixture(scope="module")
def tables():
    return {
        spec.experiment_id: spec(scale="tiny", seed=11)
        for spec in all_experiments()
    }


class TestSchemas:
    def test_every_experiment_covered_here(self):
        ids = {spec.experiment_id for spec in all_experiments()}
        assert ids == set(EXPECTED_COLUMNS)

    @pytest.mark.parametrize("exp_id", sorted(EXPECTED_COLUMNS))
    def test_columns_present(self, tables, exp_id):
        table = tables[exp_id]
        assert table.columns is not None, f"{exp_id} must declare a schema"
        missing = EXPECTED_COLUMNS[exp_id] - set(table.columns)
        assert not missing, f"{exp_id} lost columns {missing}"

    @pytest.mark.parametrize("exp_id", sorted(EXPECTED_COLUMNS))
    def test_rows_fill_schema(self, tables, exp_id):
        table = tables[exp_id]
        for row in table.rows:
            assert set(row) <= set(table.columns)

    @pytest.mark.parametrize("exp_id", sorted(EXPECTED_COLUMNS))
    def test_has_note(self, tables, exp_id):
        # E3/E4/E7 only note fitted exponents, which need >= 3 sweep
        # points — absent at tiny scale.
        fit_gated = {"E3", "E4", "E7"}
        assert tables[exp_id].notes or exp_id in fit_gated, (
            f"{exp_id} should explain itself with at least one note"
        )


class TestPhysicalSanity:
    def test_probabilities_in_unit_interval(self, tables):
        prob_columns = {
            "E3": ["success_rate", "theory_success_floor"],
            "E5": ["pr_connected"],
            "E6": ["pr_empirical", "pr_exact"],
            "E8": ["mirror_success_rate"],
            "E11": ["value"],
            "E16": ["mean_dead_frac"],
            "E18": ["routability", "full_delivery_rate"],
            "E19": ["routability"],
            "E20": ["routability", "full_delivery_rate"],
            "A2": ["success_rate"],
        }
        for exp_id, columns in prob_columns.items():
            for column in columns:
                for value in tables[exp_id].column(column):
                    if isinstance(value, float) and math.isnan(value):
                        continue
                    assert 0.0 <= value <= 1.0 + 1e-9, (exp_id, column, value)

    def test_fractions_of_edges_bounded(self, tables):
        for exp_id in ("E1", "E12", "E13", "E14", "E15", "E16"):
            col = (
                "frac_edges_probed" if exp_id == "E1" else "median_frac_probed"
            )
            for value in tables[exp_id].column(col):
                if isinstance(value, float) and math.isnan(value):
                    continue
                assert 0.0 <= value <= 1.0, (exp_id, value)

    def test_query_counts_nonnegative(self, tables):
        for exp_id, column in [
            ("E4", "mean_queries"),
            ("E7", "mean_queries"),
            ("E9", "mean_queries"),
            ("E10", "mean_queries"),
        ]:
            for value in tables[exp_id].column(column):
                assert value >= 0, (exp_id, value)

    def test_trial_counts_positive(self, tables):
        for exp_id in ("E1", "E4", "E9", "E10"):
            for value in tables[exp_id].column("connected_trials"):
                assert value >= 0
