"""A seeded verification campaign.

Every random instance must satisfy the bound in its regime; a campaign
aggregates ratios, flags, and any violations (there must be none).  The
same seeds always produce the same instances, so campaign output is
reproducible and shard-independent.

Run:  python3 demos/06_fuzz_campaign.py
"""

import json
import os
import tempfile

from joinforge import CampaignSpec, InstanceRanges, fuzz_campaign, open_ratio_csv

print("=== general regime, m in {2, 3}, k <= 4, n <= 6 ===")
summary = fuzz_campaign(CampaignSpec(seed_start=0, seed_count=1500))
print(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True))

print("\n=== binary-optimal regime (halves condition by construction) ===")
spec = CampaignSpec(
    seed_start=0,
    seed_count=500,
    ranges=InstanceRanges(arities=(2,), regime="binary_optimal"),
)
summary = fuzz_campaign(spec)
print("pass:", summary.passed, " count:", summary.count,
      " min ratio:", summary.min_ratio, " median:", round(summary.median_ratio, 6))

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "ratios.csv")
    summary.write_ratio_csv(open_ratio_csv(path))
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
print("per-seed CSV header + first rows:", lines[:4])
