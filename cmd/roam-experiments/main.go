// Command roam-experiments regenerates the paper's tables and figures
// from the simulated Airalo world and prints them as text tables (or
// CSV with -csv).
//
// Usage:
//
//	roam-experiments [-seed N] [-exp table2|fig11|all|...] [-csv] [-quick] [-workers N]
//
// Experiment names: table2 table3 table4 fig3 fig4 fig5 fig6 fig7 fig8
// fig9 fig10 fig11 fig12 fig13 fig14a fig14b fig15 fig16 fig17 fig18
// fig19 fig20 validation ablation-pgw ablation-policy ablation-peering
// ablation-lbo voip jurisdiction.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"roamsim/internal/experiments"
	"roamsim/internal/report"
)

func main() {
	seed := flag.Int64("seed", 42, "world seed (same seed = identical output)")
	exp := flag.String("exp", "all", "experiment to run (comma-separated, or 'all')")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	quick := flag.Bool("quick", false, "smaller campaigns (faster, noisier)")
	out := flag.String("out", "", "export every artifact (txt+csv) into this directory and exit")
	workers := flag.Int("workers", 0, "worker pool size for the campaigns and, with -out, the artifacts (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *quick {
		cfg.TracesPerCountry = 10
		cfg.SpeedtestsPerCountry = 20
		cfg.CDNFetchesPerCountry = 6
		cfg.DNSPerCountry = 15
		cfg.VideosPerCountry = 4
		cfg.WebMeasurements = 4
	}
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		fatal(err)
	}

	if *out != "" {
		files, err := r.WriteAll(*out)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d artifact files to %s\n", len(files), *out)
		return
	}

	wanted := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		wanted[strings.TrimSpace(name)] = true
	}
	all := wanted["all"]
	delete(wanted, "all")
	run := func(name string, f func() error) {
		known := wanted[name]
		delete(wanted, name)
		if !all && !known {
			return
		}
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}
	emit := func(t *report.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	run("table2", func() error { t, err := r.Table2(); emitIf(err, t, emit); return err })
	run("table3", func() error { t, err := r.Table3(); emitIf(err, t, emit); return err })
	run("table4", func() error { t, err := r.Table4(); emitIf(err, t, emit); return err })
	run("fig3", func() error { t, err := r.Figure3(); emitIf(err, t, emit); return err })
	run("fig4", func() error { t, err := r.Figure4(); emitIf(err, t, emit); return err })
	run("fig5", func() error {
		res, err := r.Figure5()
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("IMSI mining: %d ranges, precision %.2f, recall %.2f\n\n",
			res.MinedRanges, res.Precision, res.Recall)
		return nil
	})
	run("fig6", func() error { t, err := r.Figure6(); emitIf(err, t, emit); return err })
	run("fig7", func() error { t, err := r.Figure7(); emitIf(err, t, emit); return err })
	run("fig8", func() error {
		res, err := r.Figure8()
		if err != nil {
			return err
		}
		fmt.Println("Figure 8: CDF of RTT to Singtel PGWs (HR eSIMs)")
		fmt.Printf("medians: PAK=%.0f ms, UAE=%.0f ms\n", res.Medians["PAK"], res.Medians["ARE"])
		if *csv {
			fmt.Print(report.SeriesCSV(res.Series))
		}
		fmt.Println()
		return nil
	})
	run("fig9", func() error {
		res, err := r.Figure9()
		if err != nil {
			return err
		}
		fmt.Println("Figure 9: CDF of PGW RTT (IHBO eSIMs, OS=OVH, PH=Packet Host)")
		for _, k := range []string{"GEO/OS", "GEO/PH", "DEU/OS", "DEU/PH", "ESP/OS", "ESP/PH"} {
			fmt.Printf("  %s median = %.0f ms\n", k, res.Medians[k])
		}
		if *csv {
			fmt.Print(report.SeriesCSV(res.Series))
		}
		fmt.Println()
		return nil
	})
	run("fig10", func() error { t, err := r.Figure10(); emitIf(err, t, emit); return err })
	run("fig11", func() error {
		res, err := r.Figure11()
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("HR latency inflation: %.0f%% (paper: 621%%)\n", res.HRInflation*100)
		fmt.Printf("IHBO latency inflation: %.0f%% (paper: 64%%)\n", res.IHBOInflation*100)
		fmt.Printf(">150 ms: eSIM %.1f%% vs SIM %.1f%% (paper: 14.5%% vs 3%%)\n", res.ESIMFracAbove150*100, res.SIMFracAbove150*100)
		fmt.Printf("Welch t-test (SIM vs roaming eSIM): p = %.3g (paper: 7.7e-5)\n", res.RoamingTTestP)
		fmt.Printf("Welch t-test (SIM vs native eSIM):  p = %.3g (paper: 0.152)\n", res.NativeTTestP)
		fmt.Printf("Levene variance test: p = %.3g (paper: 0.025)\n\n", res.LeveneP)
		return nil
	})
	run("fig12", func() error {
		res, err := r.Figure12()
		if err != nil {
			return err
		}
		fmt.Println("Figure 12: median fraction of latency that is private")
		for _, s := range res.Series {
			fmt.Printf("  %-22s %.2f\n", s.Name, res.MedianFraction[s.Name])
		}
		if *csv {
			fmt.Print(report.SeriesCSV(res.Series))
		}
		fmt.Println()
		return nil
	})
	run("fig13", func() error {
		res, err := r.Figure13()
		if err != nil {
			return err
		}
		emit(res.WebTable)
		emit(res.DeviceTable)
		fmt.Printf("roaming eSIM: slow %.1f%%, fast %.1f%% (paper: 78.8%% / 4.5%%)\n",
			res.ESIMSlowShare*100, res.ESIMFastShare*100)
		fmt.Printf("physical SIM: slow %.1f%%, fast %.1f%% (paper: 31.9%% / 48%%)\n\n",
			res.SIMSlowShare*100, res.SIMFastShare*100)
		return nil
	})
	run("fig14a", func() error {
		res, err := r.Figure14a()
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("eSIM mean download: native=%.0f ms, IHBO=%.0f ms, HR=%.0f ms (paper: ~300-500 / 1316 / 1781-3203)\n\n",
			res.MeanByArch["native"], res.MeanByArch["IHBO"], res.MeanByArch["HR"])
		return nil
	})
	run("fig14b", func() error {
		res, err := r.Figure14b()
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("IHBO lookups answered in PGW country: %.0f%% (paper: 74%%)\n\n",
			res.GoogleResolverShareSameCountry*100)
		return nil
	})
	run("fig15", func() error { t, err := r.Figure15(); emitIf(err, t, emit); return err })
	run("fig16", func() error { t, err := r.Figure16(); emitIf(err, t, emit); return err })
	run("fig17", func() error {
		res, err := r.Figure17()
		if err != nil {
			return err
		}
		emit(res.Table)
		return nil
	})
	run("fig18", func() error { t, err := r.Figure18(); emitIf(err, t, emit); return err })
	run("fig19", func() error { t, err := r.Figure19(); emitIf(err, t, emit); return err })
	run("fig20", func() error {
		tabs, err := r.Figure20()
		if err != nil {
			return err
		}
		for _, t := range tabs {
			emit(t)
		}
		return nil
	})
	run("validation", func() error { t, err := r.Validation(); emitIf(err, t, emit); return err })
	run("ablation-pgw", func() error { t, err := r.AblationPGWSelection(); emitIf(err, t, emit); return err })
	run("ablation-policy", func() error { t, err := r.AblationPolicyCaps(); emitIf(err, t, emit); return err })
	run("ablation-peering", func() error { t, err := r.AblationPeering(); emitIf(err, t, emit); return err })
	run("ablation-lbo", func() error { t, err := r.AblationLBO(); emitIf(err, t, emit); return err })
	run("voip", func() error { t, err := r.FutureVoIP(); emitIf(err, t, emit); return err })
	run("jurisdiction", func() error { t, err := r.DiscussionJurisdiction(); emitIf(err, t, emit); return err })
	run("confounders", func() error { t, err := r.Confounders(); emitIf(err, t, emit); return err })
	run("signaling", func() error { t, err := r.SignalingBreakdown(); emitIf(err, t, emit); return err })

	if len(wanted) > 0 {
		unknown := make([]string, 0, len(wanted))
		for name := range wanted {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		fatal(fmt.Errorf("unknown experiment(s): %s (see -h for the list)", strings.Join(unknown, ", ")))
	}
}

func emitIf(err error, t *report.Table, emit func(*report.Table)) {
	if err == nil {
		emit(t)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roam-experiments:", err)
	os.Exit(1)
}
