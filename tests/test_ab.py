import math

import ab


def test_summarize_reads_medians_quartiles_and_pairs_won():
    parent = [{"items_per_s": v, "call_ms_p50": 2.0} for v in (10, 20, 30, 40)]
    change = [{"items_per_s": v, "call_ms_p50": c}
              for v, c in ((15, 1.0), (20, 3.0), (36, 1.5), (44, 2.0))]
    better = {"items_per_s": "higher", "call_ms_p50": "lower"}
    rows = {r[0]: r[1:] for r in ab.summarize(parent, change, better)}
    # the parent's median and inclusive quartiles, the change's median and
    # its change against the parent's; a tie wins for neither side
    assert rows["items_per_s"] == (25.0, 17.5, 32.5, 28.0, 12.0, 3, 4)
    med, q1, q3, cmed, pct, won, n = rows["call_ms_p50"]
    assert (med, q1, q3, cmed, won, n) == (2.0, 2.0, 2.0, 1.75, 2, 4)
    assert math.isclose(pct, -12.5)


def test_summarize_pairs_only_where_both_sides_report():
    # a run that printed no metrics pairs with nothing; a metric with no
    # direction wins no pair; one pair has its own value as both quartiles
    rows = ab.summarize([{"x": 4.0}, {}], [{"x": 5.0}, {"x": 9.0}], {})
    assert rows == [("x", 4.0, 4.0, 4.0, 5.0, 25.0, 0, 1)]
