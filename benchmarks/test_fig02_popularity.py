"""Figure 2: query-popularity power law (views per photo, Flickr).

The paper motivates caching with the skew of real query logs: a small
fraction of queries receives most submissions.  We characterize our
simulated SOGOU log the same way: popularity by rank (log-log) plus the
share of the log covered by the most popular queries.
Expected shape: a straight-ish log-log decay; top 10% of distinct
queries cover well over half of the log.
"""

import numpy as np

from common import emit, get_dataset


def run_experiment():
    dataset = get_dataset("sogou-sim")
    popularity = dataset.query_log.popularity()
    popularity = popularity[popularity > 0]
    total = popularity.sum()
    ranks = np.arange(1, len(popularity) + 1)
    x, y = np.log10(ranks), np.log10(popularity)
    slope, _ = np.polyfit(x, y, 1)
    r_value = np.corrcoef(x, y)[0, 1]
    rows = []
    for pct in (1, 5, 10, 25, 50):
        top = max(1, int(len(popularity) * pct / 100))
        rows.append(
            [f"top {pct}% queries", top, int(popularity[:top].sum()),
             round(popularity[:top].sum() / total, 3)]
        )
    rows.append(["log-log slope", "", "", round(slope, 3)])
    rows.append(["log-log fit R^2", "", "", round(r_value**2, 3)])
    return rows, slope


def test_fig02_popularity(benchmark):
    (rows, slope) = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        "fig02_popularity",
        "Figure 2 — query-popularity skew of the simulated SOGOU log",
        ["series", "n_queries", "submissions", "share / value"],
        rows,
    )
    assert slope < -0.5, "popularity should follow a power-law decay"
    top10_share = rows[2][3]
    assert top10_share > 0.4


if __name__ == "__main__":
    print(run_experiment()[0])
