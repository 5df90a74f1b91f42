package heteropim

import (
	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// LayerSpec describes one layer of a user-defined CNN.
type LayerSpec = nn.LayerSpec

// CNNSpec is a user-defined convolutional network — the extension point
// for simulating models beyond the paper's seven workloads. Layer kinds
// are "conv", "pool", "avgpool", "batchnorm" and "fc".
type CNNSpec = nn.CNNSpec

// RunCustomCNN simulates one training step of a user-defined network on
// a platform configuration.
func RunCustomCNN(config Config, spec CNNSpec) (Result, error) {
	g, err := nn.BuildCNN(spec)
	if err != nil {
		return Result{}, err
	}
	r, err := core.RunOn(config, g, hw.PaperConfigScaled(config, 1), core.PlatformOptions(config))
	if err != nil {
		return Result{}, err
	}
	return wrap(r), nil
}

// RunCustomCNNOnHardware simulates a user-defined network on a custom
// platform under the full heterogeneous-PIM runtime.
func RunCustomCNNOnHardware(h HardwareConfig, spec CNNSpec) (Result, error) {
	g, err := nn.BuildCNN(spec)
	if err != nil {
		return Result{}, err
	}
	r, err := core.RunPIM(g, h.cfg, core.HeteroOptions())
	if err != nil {
		return Result{}, err
	}
	return wrap(r), nil
}
