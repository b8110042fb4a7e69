"""Where quantile bins land on skewed data, and what happens at the edges.

Fits m=4 bins on a lognormal feature, an almost-constant feature, and a
categorical one, then pushes awkward values through the frozen bins: an
exact cut point, values far outside the fitted range, a missing entry, and
a category never seen at fit time.

Run: python3 demos/01_quantile_discretization.py
"""

import numpy as np

from rulescreen.panel import (
    CATEGORICAL,
    MISSING_CODE,
    FeatureSpec,
    RawPanel,
    apply_discretizer,
    fit_discretizer,
)

rng = np.random.default_rng(7)

specs = [
    FeatureSpec("volatility_1y"),
    FeatureSpec("dividend_flag"),
    FeatureSpec("region", kind=CATEGORICAL),
]


def cross_section(date, stock_ids, columns):
    """A RawPanel of one date: one column per spec (NaN or None = missing)
    and no observed outcomes."""
    n = len(stock_ids)
    return RawPanel(
        dates=np.full(n, np.datetime64(date, "D")),
        stock_ids=np.array(stock_ids, dtype=object),
        columns=columns,
        y=np.full(n, np.nan),
    )


n = 400
panel = cross_section(
    "2021-03-31",
    [f"S{i:03d}" for i in range(n)],
    [
        rng.lognormal(-2.0, 0.8, size=n),                # skewed, strictly positive
        rng.integers(0, 2, size=n).astype(np.float64),   # two distinct values only
        rng.choice(np.array(["EU", "US", "JP"], dtype=object), size=n),
    ],
)
disc = fit_discretizer(panel, specs, m=4)

print("fitted cut points (3 edges make 4 right-closed bins):")
for fid in ("volatility_1y", "dividend_flag"):
    edges = ", ".join(f"{e:.4f}" for e in disc.edges[fid])
    print(f"  {fid:14s} -> [{edges}]  ({disc.n_codes(fid)} codes)")
print(f"  region         -> categories {disc.categories['region']}")
print()
print("dividend_flag has 2 distinct values, fewer than m=4, so it got")
print("identity binning: one modality per value instead of forced quantiles.")
print()

vol_edges = disc.edges["volatility_1y"]
tricky = [
    ("exact cut point", [float(vol_edges[1]), 1.0, "US"]),
    ("below fitted range", [1e-9, 0.0, "EU"]),
    ("above fitted range", [1e9, 1.0, "JP"]),
    ("missing volatility", [None, 0.0, "US"]),
    ("unseen region", [0.1, 1.0, "BR"]),
]
probe = cross_section(
    "2021-06-30",
    [f"P{i}" for i in range(len(tricky))],
    [
        np.array([feats[0] for _, feats in tricky], dtype=np.float64),
        np.array([feats[1] for _, feats in tricky], dtype=np.float64),
        np.array([feats[2] for _, feats in tricky], dtype=object),
    ],
)
codes = apply_discretizer(probe, disc)

print(f"codes on a fresh cross-section (missing = {MISSING_CODE}):")
print(f"  {'case':20s} {'vol':>4s} {'flag':>5s} {'region':>7s}")
for i, (label, _) in enumerate(tricky):
    row = codes.x[i]
    print(f"  {label:20s} {row[0]:>4d} {row[1]:>5d} {row[2]:>7d}")
print()
print("the cut-point value fell in the LOWER bin (bins are right-closed),")
print("out-of-range values clamped to the extreme modalities, and both the")
print("missing value and the unseen category coded as missing, which no")
print("interval rule will ever match.")
