package hwsim

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"bvap/internal/faults"
)

// TestFaultPlanGolden pins the injected-fault path across changes: with a
// fixed plan and input, BVAP and BVAP-S must reproduce the captured fault
// trace, injection and detection counts, match ends and energy bits.
// TestFaultInjectionDeterminism compares two runs of the same code, so only
// this golden sees a change in how FlipBit, Deactivate or ForceActive act
// on a runner.
func TestFaultPlanGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fault_plan_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	input := randomInput(7, 6000, "abcxy")
	var got bytes.Buffer
	for _, streaming := range []bool{false, true} {
		sys := faultSystem(t, streaming)
		in, err := faults.NewInjector(faults.UniformPlan(42, 2e-3, true))
		if err != nil {
			t.Fatal(err)
		}
		sys.SetFaults(in)
		sys.Run(input)
		sys.Finish()
		st := in.Stats()
		trace := in.Trace()
		fmt.Fprintf(&got, "%v events=%d injected=%v detected=%d silent=%d energy_bits=%#016x\n",
			sys.Stats().Arch, len(trace), st.Injected, st.Detected, st.Silent,
			math.Float64bits(sys.Stats().TotalEnergyPJ()))
		for _, e := range trace {
			fmt.Fprintln(&got, e)
		}
		for i := range faultPatterns {
			fmt.Fprintf(&got, "machine %d ends %v\n", i, sys.MatchEnds(i))
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("injected-fault run drifted from golden capture.\n--- got ---\n%s--- want ---\n%s",
			got.Bytes(), want)
	}
}
