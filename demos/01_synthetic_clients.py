#!/usr/bin/env python3
"""Walk through the synthetic non-i.i.d. task generator.

Shows the two label-skew modes side by side, verifies the conservation
invariant, and quantifies skew with the median pairwise class-probability
distance (CPD).
"""

import numpy as np

from fedgsp import SyntheticTaskSpec, generate_task, median_pairwise_cpd


def show_distributions(title, counts, limit=8):
    print(f"\n{title}")
    print("  client | per-class sample counts")
    for client_id, row in enumerate(counts[:limit]):
        cells = " ".join(f"{c:3d}" for c in row)
        print(f"  {client_id:6d} | {cells}")
    if len(counts) > limit:
        print(f"  ... ({len(counts) - limit} more clients)")


def main():
    print("=== Dirichlet label skew ===")
    print("Each client draws class proportions from a symmetric Dirichlet;")
    print("small concentration = heavy skew.")
    for concentration in (0.1, 0.3, 10.0):
        spec = SyntheticTaskSpec(
            num_classes=8,
            num_clients=20,
            samples_per_client=60,
            feature_dim=6,
            skew="dirichlet",
            concentration=concentration,
            seed=7,
        )
        _, counts, test = generate_task(spec)
        total = counts.sum()
        spread = median_pairwise_cpd(counts)
        print(
            f"\nconcentration={concentration:<5}: total samples={total} "
            f"(= K*n = {20 * 60}), median pairwise CPD={spread:.4f}"
        )
        if concentration == 0.3:
            show_distributions("sample of client distributions:", counts, limit=6)
            print(f"  held-out test set: {len(test.labels)} samples, "
                  f"class-balanced: {np.bincount(test.labels).tolist()}")

    print("\n=== Shard dealing ===")
    print("A balanced pool is sorted by label, cut into shards, and dealt out;")
    print("few shards per client = few classes per client.")
    spec = SyntheticTaskSpec(
        num_classes=8,
        num_clients=20,
        samples_per_client=60,
        feature_dim=6,
        skew="shards",
        shards_per_client=2,
        seed=7,
    )
    clients, counts, _ = generate_task(spec)
    show_distributions("two shards per client:", counts, limit=6)
    classes_held = (counts > 0).sum(axis=1)
    print(f"  classes per client: min={min(classes_held)} max={max(classes_held)}")

    print("\nRe-generating with the same spec is bit-identical:")
    again, _, _ = generate_task(spec)
    same = np.array_equal(clients.features, again.features)
    print(f"  features identical: {same}")


if __name__ == "__main__":
    main()
