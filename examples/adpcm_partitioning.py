"""Deep dive: data partitioning for the rawcaudio ADPCM coder.

Recreates the paper's analysis on one benchmark end to end:

* the data-object inventory and access-pattern merge groups (§3.3.1),
* GDP's object placement and its byte balance (§3.3.2),
* all four schemes across the three intercluster latencies (Figs. 7/8),
* the exhaustive search over every object mapping with the GDP and
  Profile Max choices marked (Fig. 9).

Run:  python examples/adpcm_partitioning.py
"""

from repro import RunConfig
from repro.bench import get
from repro.evalmodel import exhaustive_search, format_table, scatter_plot
from repro.machine import two_cluster_machine
from repro.pipeline import Pipeline, PreparedProgram

#: Recompute everything instead of reading the artifact cache, and run
#: exactly the requested scheme: a failure raises instead of falling back.
CONFIG = RunConfig(cache="off", fallback=False, retries=0)


def main() -> None:
    bench = get("rawcaudio")
    prepared = PreparedProgram.from_source(bench.source, bench.name)

    print(f"== {bench.name}: {bench.description} ==\n")

    print("data objects:")
    counts = prepared.object_access_counts()
    for obj in sorted(prepared.objects, key=lambda o: -o.size):
        print(
            f"  {obj.id:20s} {obj.size:5d} bytes, "
            f"{counts.get(obj.id, 0):6d} dynamic accesses"
        )

    print("\naccess-pattern merge groups (objects that must co-locate):")
    for group in prepared.merge.object_groups():
        print(f"  group {group.gid}: {sorted(group.object_ids)}")

    # Scheme comparison across the paper's three latencies.
    print("\nrelative performance vs unified memory:")
    rows = []
    for latency in (1, 5, 10):
        pipe = Pipeline(CONFIG.replace(latency=latency))
        rel = pipe.compare(prepared, schemes=("gdp", "profilemax", "naive"))
        rows.append(
            [f"{latency} cycles"]
            + [f"{rel[s]:.3f}" for s in ("gdp", "profilemax", "naive")]
        )
    print(format_table(["move latency", "GDP", "ProfileMax", "naive"], rows))

    # Figure 9 for this benchmark.
    machine = two_cluster_machine(move_latency=5)
    pipe = Pipeline(CONFIG, machine=machine)
    gdp = pipe.run(prepared, "gdp")
    pmax = pipe.run(prepared, "profilemax")
    result = exhaustive_search(
        prepared,
        machine,
        scheme_homes={"gdp": gdp.object_home, "pmax": pmax.object_home},
    )
    print(
        f"\nexhaustive search: {len(result.points)} object mappings, "
        f"best is {result.best_improvement():.3f}x the worst"
    )
    print(
        scatter_plot(
            [p.imbalance for p in result.points],
            [result.normalized(p) for p in result.points],
            shades=[p.imbalance for p in result.points],
            marks={
                label: (pt.imbalance, result.normalized(pt))
                for label, pt in result.scheme_points.items()
            },
            x_label="object size imbalance",
            y_label="performance vs worst mapping",
        )
    )
    for label, pt in result.scheme_points.items():
        print(
            f"  {label}: {result.normalized(pt):.3f} of worst, "
            f"imbalance {pt.imbalance:.2f}"
        )


if __name__ == "__main__":
    main()
