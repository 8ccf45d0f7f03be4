"""Exact output pins: Figures 2 and 20 down to the last printed digit.

Both figures execute planned jobs and read the simulated outcomes back:
Figure 2 the input size and latency of 40 hourly instances, Figure 20 the
plan changes a model trained on the executed TPC-H log makes.  The shape
tests (``test_experiment_shapes.py``) check paper-shape invariants only;
these pins check that a change to how plans are executed leaves every
logged number where it was.
"""

from __future__ import annotations

from repro.experiments import fig2_recurring, fig20_tpch

FIG2_INPUT_GIB = [
    3.393974271984286, 3.393974271984286, 3.393974271984286, 3.393974271984286,
    3.393974271984286, 3.393974271984286, 3.74673780191442, 3.74673780191442,
    3.74673780191442, 3.74673780191442, 3.74673780191442, 3.74673780191442,
    3.482884412389632, 3.482884412389632, 3.482884412389632, 3.482884412389632,
    3.482884412389632, 3.482884412389632, 2.5883389939560253, 2.5883389939560253,
    2.5883389939560253, 2.5883389939560253, 2.5883389939560253, 2.5883389939560253,
    1.937965657651678, 1.937965657651678, 1.937965657651678, 1.937965657651678,
    1.937965657651678, 1.937965657651678, 2.495841883840279, 2.495841883840279,
    2.495841883840279, 2.495841883840279, 2.495841883840279, 2.495841883840279,
    2.916177269682974, 2.916177269682974, 2.916177269682974, 2.916177269682974,
]

FIG2_LATENCY_MINUTES = [
    0.2740961465768541, 0.2684241655929211, 0.29275867271197764,
    0.29690116948996076, 0.2750410173335033, 0.278454941450658,
    0.26359152691718135, 0.3485444138540944, 0.2899243869100792,
    0.3492411285118623, 0.2951625572616516, 0.30162711945163934,
    0.2703355611215731, 0.2706683031311441, 0.2715019543919948,
    0.2934975356850122, 0.3637890302500382, 0.3316239177638916,
    0.282870353818439, 0.29762244785749886, 0.2527335548098784,
    0.2412155844739026, 0.24611857967366585, 0.33778117204374475,
    0.2979484814904475, 0.2602188594706142, 0.23452919537377173,
    0.2652570528821713, 0.24909522861813496, 0.2327090578062774,
    0.30002803193485605, 0.2962787245413975, 0.2207933276474713,
    0.27733908256603457, 0.2312147630703653, 0.2512075576342706,
    0.2965407306331033, 0.32696668579211957, 0.276928439125479,
    0.2781815071026129,
]

FIG20_ROWS = [
    ('Q1', 'operators', 62.6, 36.0),
    ('Q2', 'operators', 26.0, 53.2),
    ('Q3', 'operators', 32.0, 41.3),
    ('Q4', 'operators', 43.9, 16.3),
    ('Q5', 'operators', 5.5, -11.5),
    ('Q6', 'partitions', -1.7, -66.9),
    ('Q7', 'operators', -9.5, 14.9),
    ('Q8', 'operators', 29.1, 17.1),
    ('Q9', 'operators', 2.6, 8.4),
    ('Q10', 'operators', 22.4, 29.7),
    ('Q11', 'operators', 12.3, 59.9),
    ('Q12', 'operators', 28.0, 12.6),
    ('Q13', 'operators', 7.4, 76.9),
    ('Q14', 'partitions', 23.2, -41.2),
    ('Q15', 'operators', 42.1, 56.8),
    ('Q16', 'operators', 28.9, 57.5),
    ('Q17', 'operators', 33.8, 34.5),
    ('Q18', 'operators', 60.0, 49.3),
    ('Q19', 'partitions', 18.9, -36.0),
    ('Q20', 'operators', 16.1, 46.5),
    ('Q21', 'operators', 13.1, 13.6),
    ('Q22', 'partitions', 4.4, 7.7),
    ('summary', '22 changed', '20/22 improved', '-'),
]


def test_fig2_series_pinned():
    result = fig2_recurring.run(scale="tiny", seed=0, instances=40)
    assert result.series == {
        "input_gib": FIG2_INPUT_GIB,
        "latency_minutes": FIG2_LATENCY_MINUTES,
    }


def test_fig20_rows_pinned():
    columns = ("query", "change", "latency_improvement_pct", "processing_time_improvement_pct")
    result = fig20_tpch.run(seed=0)
    assert result.rows == [dict(zip(columns, row)) for row in FIG20_ROWS]
