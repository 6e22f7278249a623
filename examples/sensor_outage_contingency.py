"""Sensor-outage contingency analysis on the Intel-Wireless-style dataset.

The scenario from the paper's introduction: sensor readings are stored in
ten partitions and one failed to load.  The analyst wants to know how many
readings exceeded a light threshold, and how sensitive that answer is to the
lost partition.  The script compares:

* the exact answer on the full data (the "what we would have gotten"),
* the answer on the surviving partitions only (what a naive analyst reports),
* the PC framework's hard result range, built from automatically generated
  Corr-PC constraints, and
* a sampling baseline's confidence interval, for contrast.

Run with::

    python examples/sensor_outage_contingency.py
"""

from __future__ import annotations

import numpy as np

from repro import BoundOptions, ContingencyQuery, PCAnalyzer, Predicate
from repro.baselines.sampling import UniformSamplingEstimator
from repro.core.builders import build_corr_pcs
from repro.datasets.intel_wireless import generate_intel_wireless


def main() -> None:
    relation = generate_intel_wireless(num_rows=20_000, seed=7)

    # Partition the trace into ten time windows; window 7 failed to load.
    low, high = relation.column_range("time")
    width = (high - low) / 10.0
    lost_window = Predicate.range("time", low + 6 * width, low + 7 * width)
    missing, observed = relation.split_by_mask(lost_window)
    print(f"Loaded {observed.num_rows} readings; lost partition holds "
          f"{missing.num_rows} readings.\n")

    # The analyst's query: how often did light exceed the 90th percentile?
    threshold = float(np.quantile(relation.column("light"), 0.90))
    query = ContingencyQuery.count(
        Predicate.range("light", threshold, float("inf")))
    truth = query.ground_truth(relation)
    observed_only = query.ground_truth(observed)
    print(f"Query: {query.describe()}")
    print(f"  true answer (full data)      : {truth:.0f}")
    print(f"  surviving partitions only    : {observed_only:.0f}\n")

    # Summarise the lost partition with 200 correlation-aware constraints
    # (in practice these would come from historical data for that window).
    constraints = build_corr_pcs(missing, "light", 200,
                                 candidates=["device_id", "time"])
    analyzer = PCAnalyzer(constraints, observed=observed,
                          options=BoundOptions(check_closure=False))
    report = analyzer.analyze(query)
    print("Predicate-constraint contingency analysis:")
    print(f"  result range                 : [{report.lower:.0f}, {report.upper:.0f}]")
    print(f"  contains the true answer     : {report.result_range.contains(truth)}")
    print(f"  solve time                   : {report.elapsed_seconds * 1000:.1f} ms\n")

    # A sampling baseline with the same information budget, for contrast.
    sampler = UniformSamplingEstimator(sample_size=200, confidence=0.99,
                                       method="nonparametric",
                                       rng=np.random.default_rng(1))
    sampler.fit(missing)
    estimate = sampler.estimate(query)
    missing_truth = query.ground_truth(missing)
    print("Uniform-sampling baseline (99% non-parametric interval):")
    print(f"  interval for the lost rows   : [{estimate.lower:.0f}, {estimate.upper:.0f}]")
    print(f"  true lost-row contribution   : {missing_truth:.0f}")
    print(f"  interval contains the truth  : {estimate.contains(missing_truth)}")


if __name__ == "__main__":
    main()
