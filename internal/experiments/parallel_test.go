package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"roamsim/internal/airalo"
	"roamsim/internal/measure"
	"roamsim/internal/rng"
)

// campaignBundle is every observation dataset a runner produces.
type campaignBundle struct {
	traces []TraceObs
	speeds []SpeedObs
	cdns   []CDNObs
	dnses  []DNSObs
	videos []VideoObs
}

func runAllCampaigns(t *testing.T, r *Runner) campaignBundle {
	t.Helper()
	var b campaignBundle
	var err error
	if b.traces, err = r.Traces(); err != nil {
		t.Fatalf("Traces: %v", err)
	}
	if b.speeds, err = r.Speedtests(); err != nil {
		t.Fatalf("Speedtests: %v", err)
	}
	if b.cdns, err = r.CDNFetches(); err != nil {
		t.Fatalf("CDNFetches: %v", err)
	}
	if b.dnses, err = r.DNSLookups(); err != nil {
		t.Fatalf("DNSLookups: %v", err)
	}
	if b.videos, err = r.Videos(); err != nil {
		t.Fatalf("Videos: %v", err)
	}
	return b
}

// TestCampaignDeterminismAcrossSchedulers is the parallel engine's core
// regression test: the full campaign run twice with the same seed — once
// serial at GOMAXPROCS=1, once on a wide worker pool at GOMAXPROCS >=
// NumCPU — must produce deeply-equal observation slices. Both runners
// share one world, so any scheduling-dependent draw, stray shared-state
// mutation, or out-of-order merge shows up as a diff.
func TestCampaignDeterminismAcrossSchedulers(t *testing.T) {
	w, err := airalo.Build(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seed:                 42,
		TracesPerCountry:     4,
		SpeedtestsPerCountry: 6,
		CDNFetchesPerCountry: 2,
		DNSPerCountry:        4,
		VideosPerCountry:     2,
		WebMeasurements:      2,
	}

	run := func(workers, procs int) campaignBundle {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		c := cfg
		c.Workers = workers
		return runAllCampaigns(t, NewRunnerWith(w, c))
	}

	wide := runtime.NumCPU()
	if wide < 4 {
		wide = 4 // GOMAXPROCS may exceed NumCPU; keep real scheduling pressure
	}
	serial := run(1, 1)
	parallel := run(8, wide)

	if !reflect.DeepEqual(serial.traces, parallel.traces) {
		t.Error("trace observations differ between serial and parallel runs")
	}
	if !reflect.DeepEqual(serial.speeds, parallel.speeds) {
		t.Error("speedtest observations differ between serial and parallel runs")
	}
	if !reflect.DeepEqual(serial.cdns, parallel.cdns) {
		t.Error("CDN observations differ between serial and parallel runs")
	}
	if !reflect.DeepEqual(serial.dnses, parallel.dnses) {
		t.Error("DNS observations differ between serial and parallel runs")
	}
	if !reflect.DeepEqual(serial.videos, parallel.videos) {
		t.Error("video observations differ between serial and parallel runs")
	}
}

// TestRunUnitsCanonicalOrder pins the merge contract: results come back
// in enumeration order regardless of which worker finishes first, and a
// unit's stream depends only on its label and fork position.
func TestRunUnitsCanonicalOrder(t *testing.T) {
	mk := func(workers int) []int {
		var units []unit[int]
		for i := 0; i < 50; i++ {
			units = append(units, unit[int]{
				label: fmt.Sprintf("u%d", i),
				run: func(src *rng.Source) ([]int, error) {
					return []int{src.Intn(1 << 30)}, nil
				},
			})
		}
		out, err := runUnits(rng.New(5).Fork("order"), workers, units)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := mk(1)
	for _, workers := range []int{2, 7, 64} {
		if got := mk(workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d: results differ from serial", workers)
		}
	}
}

// TestRunUnitsErrorIsCanonical checks the earliest failing unit (in
// enumeration order) wins, not whichever goroutine fails first.
func TestRunUnitsErrorIsCanonical(t *testing.T) {
	var units []unit[int]
	for i := 0; i < 20; i++ {
		fail := i == 3 || i == 17
		units = append(units, unit[int]{
			label: fmt.Sprintf("u%d", i),
			run: func(src *rng.Source) ([]int, error) {
				if fail {
					return nil, fmt.Errorf("unit failed")
				}
				return []int{1}, nil
			},
		})
	}
	for _, workers := range []int{1, 8} {
		if _, err := runUnits(rng.New(1).Fork("err"), workers, units); err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
	}
}

// TestRunnerConcurrentMemoization checks the memo layer: many goroutines
// requesting the same campaign get one consistent dataset.
func TestRunnerConcurrentMemoization(t *testing.T) {
	w, err := airalo.Build(42)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWith(w, Config{Seed: 42, TracesPerCountry: 2, SpeedtestsPerCountry: 2,
		CDNFetchesPerCountry: 1, DNSPerCountry: 2, VideosPerCountry: 1, WebMeasurements: 1})

	const goroutines = 8
	results := make([][]TraceObs, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obs, err := r.Traces()
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			results[g] = obs
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if len(results[g]) != len(results[0]) {
			t.Fatalf("goroutine %d saw %d traces, goroutine 0 saw %d",
				g, len(results[g]), len(results[0]))
		}
	}
}

// TestWriteAllDeterminism runs every artifact at several pool sizes on
// one world: each must write the same files, byte for byte, and return
// the same list in the same order, whatever order the jobs finished in.
func TestWriteAllDeterminism(t *testing.T) {
	w, err := airalo.Build(42)
	if err != nil {
		t.Fatal(err)
	}
	export := func(workers int) (map[string][]byte, []string) {
		t.Helper()
		cfg := Config{
			Seed:                 42,
			TracesPerCountry:     3,
			SpeedtestsPerCountry: 3,
			CDNFetchesPerCountry: 2,
			DNSPerCountry:        3,
			VideosPerCountry:     2,
			WebMeasurements:      2,
			Workers:              workers,
		}
		dir := t.TempDir()
		written, err := NewRunnerWith(w, cfg).WriteAll(dir)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		files := map[string][]byte{}
		names := make([]string, len(written))
		for i, p := range written {
			if names[i], err = filepath.Rel(dir, p); err != nil {
				t.Fatal(err)
			}
			if files[names[i]], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != len(written) {
			t.Errorf("workers=%d: %d files in the directory, %d listed", workers, len(ents), len(written))
		}
		return files, names
	}
	wantFiles, wantNames := export(1)
	for _, workers := range []int{4, 0} {
		files, names := export(workers)
		if !slices.Equal(names, wantNames) {
			t.Errorf("workers=%d: written list differs from the serial run:\n got %v\nwant %v", workers, names, wantNames)
		}
		for name, want := range wantFiles {
			if !bytes.Equal(files[name], want) {
				t.Errorf("workers=%d: %s differs from the serial run", workers, name)
			}
		}
	}
}

// TestConfoundersLeavesSharedWorldUnloaded: Confounders measures under a
// diurnal load model, which must not leak into the runner's world while
// other artifacts measure it. A reader pings a fixed session with a fixed
// stream from before Confounders starts until after it returns; every
// read must equal the unloaded value.
func TestConfoundersLeavesSharedWorldUnloaded(t *testing.T) {
	r := runner(t)
	s, err := r.W.Deployments["DEU"].AttachESIM(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ping := func() (float64, error) { return measure.Ping(s, "Google", rng.New(7)) }
	idle, err := ping()
	if err != nil {
		t.Fatal(err)
	}
	started, done := make(chan struct{}), make(chan struct{})
	var reads, loaded int
	var readErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			rtt, err := ping()
			if err != nil {
				readErr = err
			} else if rtt != idle {
				loaded++
			}
			if reads++; reads == 1 {
				close(started)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	<-started
	if _, err := r.Confounders(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if loaded > 0 {
		t.Errorf("%d of %d RTT reads of the shared world saw Confounders' load model", loaded, reads)
	}
}
