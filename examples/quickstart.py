"""Quickstart: partition a small program for a 2-cluster VLIW.

Compiles a MiniC kernel, profiles it, runs the paper's four schemes
(unified / GDP / Profile Max / naive), and prints the relative
performance — a one-benchmark slice of Figure 8.

Run:  python examples/quickstart.py
"""

from repro import RunConfig
from repro.evalmodel import format_table
from repro.pipeline import Pipeline, PreparedProgram

SOURCE = """
int coeffs[32] = {3, -9, 14, -21, 30, -41, 55, -70, 86, -101, 115, -126,
                  134, -138, 139, 560, 560, 139, -138, 134, -126, 115,
                  -101, 86, -70, 55, -41, 30, -21, 14, -9, 3};
int history[32];
int input[256];
int output[256];

int filter_step(int sample) {
  int i;
  for (i = 31; i > 0; i = i - 1) { history[i] = history[i - 1]; }
  history[0] = sample;
  int acc = 0;
  for (i = 0; i < 32; i = i + 1) { acc = acc + coeffs[i] * history[i]; }
  return acc >> 10;
}

int main() {
  int i;
  int seed = 1;
  for (i = 0; i < 256; i = i + 1) {
    seed = seed * 1103515245 + 12345;
    input[i] = (seed >> 18) & 2047;
  }
  int check = 0;
  for (i = 0; i < 256; i = i + 1) {
    output[i] = filter_step(input[i]);
    check = (check + output[i]) & 16777215;
  }
  print_int(check);
  return check;
}
"""


def main() -> None:
    # 1. Compile (with if-conversion + unrolling) and profile.
    prepared = PreparedProgram.from_source(SOURCE, "quickstart")
    print(f"compiled: {prepared.module.op_count()} IR operations")
    print(f"executed: {prepared.profile.instructions_executed} dynamic ops")
    print(f"objects:  {[o.id for o in prepared.objects]}")
    print()

    # 2. Partition with each scheme on the paper's machine (5-cycle moves).
    pipe = Pipeline(
        RunConfig(latency=5, cache="off", fallback=False, retries=0)
    )
    outcomes = pipe.run_all(prepared)

    base = outcomes["unified"].cycles
    rows = []
    for name in ("unified", "gdp", "profilemax", "naive"):
        outcome = outcomes[name]
        rows.append(
            [
                name,
                f"{outcome.cycles:.0f}",
                f"{base / outcome.cycles:.3f}",
                f"{outcome.dynamic_moves:.0f}",
            ]
        )
    print(
        format_table(
            ["scheme", "cycles", "vs unified", "dyn. intercluster moves"],
            rows,
        )
    )

    # 3. Where did GDP put the data?
    gdp = outcomes["gdp"]
    print("\nGDP object placement:")
    for obj_id, cluster in sorted(gdp.object_home.items()):
        size = prepared.objects[obj_id].size
        print(f"  cluster {cluster}: {obj_id:14s} ({size} bytes)")


if __name__ == "__main__":
    main()
