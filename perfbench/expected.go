package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/metrics"
	"heteropim/internal/nn"
)

// writeExpectedFiles regenerates the committed expected outputs from
// the current build. Run it only when an intentional model change moves
// the numbers, and review the diff: these files are the correctness
// gates. The DSE winners and calibrated-prune counts are copied from
// the repository's BENCH_dse.json and must agree with pimdse's table.
func writeExpectedFiles(b *bench) error {
	ctx := context.Background()
	files := map[string][]byte{}
	sweepDoc, err := b.writeSpec("sweep.json", sweepSpec(0, false))
	if err != nil {
		return err
	}
	setupDoc, err := b.writeSpec("setup.json", sweepSetupSpec())
	if err != nil {
		return err
	}
	dseDoc, err := b.writeSpec("dse-setup.json", dseSetupSpec())
	if err != nil {
		return err
	}
	r, err := runProc(ctx, b.work, b.cli("pimsweep"), "-scenario", sweepDoc)
	if err != nil {
		return err
	}
	files["sweep.csv"] = r.Stdout
	files["sweep.stderr"] = []byte(simcacheLine.FindString(string(r.Stderr)) + "\n")
	if r, err = runProc(ctx, b.work, b.cli("pimsweep"), "-scenario", setupDoc); err != nil {
		return err
	}
	files["sweep_setup.csv"] = r.Stdout
	if r, err = runProc(ctx, b.work, b.cli("pimdse"), "-dse", "-grid", "paper", "-scenario", dseDoc); err != nil {
		return err
	}
	files["dse_setup.txt"] = r.Stdout
	if r, err = runProc(ctx, b.work, b.cli("pimdse"), "-dse", "-grid", "xl"); err != nil {
		return err
	}
	files["dse.txt"] = r.Stdout
	files["dse.stderr"] = []byte(strings.Join(dseLine.FindAllString(string(r.Stderr), -1), "\n") + "\n")

	var committed struct {
		Models []struct {
			Model            string `json:"model"`
			Winner           string `json:"winner"`
			CalibratedPruned int    `json:"calibrated_pruned"`
		} `json:"models"`
	}
	data, err := os.ReadFile("BENCH_dse.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &committed); err != nil {
		return err
	}
	exp := dseExpected{Winners: map[string]string{}, CalibratedPruned: map[string]int{}}
	table := dseWinners(files["dse.txt"])
	for _, m := range committed.Models {
		if table[m.Model] != m.Winner {
			return fmt.Errorf("pimdse winner for %s is %q, BENCH_dse.json says %q", m.Model, table[m.Model], m.Winner)
		}
		exp.Winners[m.Model] = m.Winner
		exp.CalibratedPruned[m.Model] = m.CalibratedPruned
	}
	if files["dse.json"], err = json.MarshalIndent(exp, "", "  "); err != nil {
		return err
	}

	events := ladderExpected{Events: map[string]float64{}}
	core.EnableResultCache(false)
	for _, m := range cnnModels {
		g, err := nn.Build(nn.ModelName(m))
		if err != nil {
			return err
		}
		c := metrics.NewCollector()
		opts := core.HeteroOptions()
		opts.Collector = c
		if _, err := core.RunPIM(g, hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1), opts); err != nil {
			return err
		}
		events.Events[m] = c.Registry().CounterValue("sim.events")
	}
	if files["ladder.json"], err = json.MarshalIndent(events, "", "  "); err != nil {
		return err
	}

	if err := os.MkdirAll(b.expected, 0o755); err != nil {
		return err
	}
	for name, data := range files {
		if !strings.HasSuffix(string(data), "\n") {
			data = append(data, '\n')
		}
		if err := os.WriteFile(filepath.Join(b.expected, name), data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", filepath.Join(b.expected, name), len(data))
	}
	return nil
}
