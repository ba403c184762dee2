"""Running a 32-bit adder at the speed of data (Sections 3 and 5.1).

Walks the paper's core argument end to end on the ripple-carry adder:

1. build the reversible circuit and verify it adds;
2. lower it to the [[7,1,3]] encoded gate set;
3. split its critical path into data ops / QEC interaction / ancilla prep
   (Table 2) — showing prep dominates;
4. sweep steady ancilla throughput (Figure 8) to find the bandwidth where
   execution reaches the dataflow floor;
5. provision factories for that bandwidth (Table 9).

Run:  python examples/adder_at_speed_of_data.py
"""

import os

# Smoke-test hook: REPRO_SMOKE=1 shrinks problem sizes so the test suite
# can run every example in-process in seconds.
SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
WIDTH = 8 if SMOKE else 32

from repro import analyze_kernel, area_breakdown, throughput_sweep
from repro.testing.classical import run_adder
from repro.kernels.qrca import qrca_circuit, qrca_registers
from repro.reporting.figures import ascii_plot


def main() -> None:
    width = WIDTH

    # 1. The circuit really adds.
    regs = qrca_registers(width)
    circuit = qrca_circuit(width)
    a, b = 3141592653 % 2**width, 2718281828 % 2**width
    out = run_adder(circuit, regs.a, regs.b, regs.b + [regs.b_high], a, b, regs.c)
    assert out["sum"] == a + b
    print(f"QRCA-{width}: {a} + {b} = {out['sum']}  "
          f"({len(circuit)} reversible gates, {circuit.num_qubits} qubits)")

    # 2-3. Encoded characterization.
    kernel = analyze_kernel("qrca", width)
    row = kernel.table2_row()
    print(f"\nCritical path split (Table 2 row):")
    print(f"  data operations    {row['data_op_us']:>10.0f} us ({row['data_op_frac']:.1%})")
    print(f"  QEC interaction    {row['qec_interact_us']:>10.0f} us ({row['qec_interact_frac']:.1%})")
    print(f"  ancilla prep       {row['ancilla_prep_us']:>10.0f} us ({row['ancilla_prep_frac']:.1%})")
    print("  -> taking prep off the critical path is worth "
          f"{1 / (1 - row['ancilla_prep_frac']):.1f}x")

    # 4. Throughput sweep (Figure 8).
    avg = kernel.zero_bandwidth_per_ms
    rates = [avg * f for f in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0)]
    points = throughput_sweep(kernel, rates)
    print(f"\nExecution time vs steady zero-ancilla throughput "
          f"(average demand {avg:.1f}/ms):")
    series = {"QRCA": [(p.x, p.makespan_us / 1000.0) for p in points]}
    print(ascii_plot(series, logx=True, logy=True, width=48, height=12))

    # 5. Provisioning.
    breakdown = area_breakdown(kernel)
    print(f"\nFactory provisioning at the speed of data:")
    print(f"  {breakdown.qec_factory_area:.0f} mb of zero factories + "
          f"{breakdown.pi8_factory_area:.0f} mb of pi/8 chains for "
          f"{breakdown.data_area:.0f} mb of data "
          f"({breakdown.ancilla_fraction:.0%} of the chip is ancilla generation)")


if __name__ == "__main__":
    main()
