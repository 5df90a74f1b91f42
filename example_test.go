package heteropim_test

import (
	"fmt"

	"heteropim"
)

// ExampleRun simulates one AlexNet training step on the heterogeneous
// PIM platform and reports whether the runtime offloaded work.
func ExampleRun() {
	r, err := heteropim.Run(heteropim.ConfigHeteroPIM, heteropim.AlexNet)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("offloaded ops:", r.OffloadedOps > 0)
	fmt.Println("breakdown sums to step:",
		r.Breakdown.Operation+r.Breakdown.DataMovement+r.Breakdown.Sync > 0.99*r.StepTime)
	// Output:
	// offloaded ops: true
	// breakdown sums to step: true
}

// ExampleBatchRun shows the Section VI-E software toggles: the full
// runtime (RC+OP) beats the bare heterogeneous hardware. Variant cells
// run on Hetero PIM; BatchRun returns results in cell order.
func ExampleBatchRun() {
	rs, err := heteropim.BatchRun([]heteropim.BatchCell{
		{Model: heteropim.AlexNet, Variant: &heteropim.Variant{}},
		{Model: heteropim.AlexNet, Variant: &heteropim.Variant{RecursiveKernels: true, OperationPipeline: true}},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	bare, full := rs[0], rs[1]
	fmt.Println("RC+OP faster:", full.StepTime < bare.StepTime)
	fmt.Println("RC+OP utilization higher:", full.FixedUtilization > bare.FixedUtilization)
	// Output:
	// RC+OP faster: true
	// RC+OP utilization higher: true
}

// ExampleRunScaled shows the Section VI-D frequency scaling.
func ExampleRunScaled() {
	r1, _ := heteropim.RunScaled(heteropim.ConfigHeteroPIM, heteropim.DCGAN, 1)
	r4, _ := heteropim.RunScaled(heteropim.ConfigHeteroPIM, heteropim.DCGAN, 4)
	fmt.Println("4x faster than 1x:", r4.StepTime < r1.StepTime)
	// Output:
	// 4x faster than 1x: true
}
