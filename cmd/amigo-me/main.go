// Command amigo-me runs a measurement endpoint: it registers with an
// amigo-server, heartbeats with device vitals, and executes whatever
// instrumentation the server queues, measuring against the simulated
// Airalo world (the rooted-phone substitute).
//
// Usage:
//
//	amigo-me [-server http://localhost:8080] [-country PAK] [-seed 1] [-poll 500ms] [-once]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/rng"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "control server base URL")
	country := flag.String("country", "PAK", "deployment country (ISO3)")
	seed := flag.Int64("seed", 1, "world seed")
	poll := flag.Duration("poll", 500*time.Millisecond, "task poll interval")
	once := flag.Bool("once", false, "drain the queue once and exit")
	flag.Parse()

	w, err := airalo.Build(*seed)
	if err != nil {
		fatal(err)
	}
	iso := strings.ToUpper(*country)
	dep, ok := w.Deployments[iso]
	if !ok {
		fatal(fmt.Errorf("unknown country %q", iso))
	}
	ep := amigo.NewEndpoint("me-"+iso, *server, dep, rng.New(*seed).Fork("me/"+iso))
	if err := ep.Register(); err != nil {
		fatal(err)
	}
	fmt.Printf("me-%s registered with %s\n", iso, *server)

	heartbeatEvery := 10
	for cycle := 0; ; cycle++ {
		if cycle%heartbeatEvery == 0 {
			if err := ep.Heartbeat(); err != nil {
				fatal(err)
			}
		}
		// One task per cycle: one output line per task, and a heartbeat
		// every heartbeatEvery tasks while work is queued.
		ran, err := ep.RunBatch(1)
		if err != nil {
			fatal(err)
		}
		if ran > 0 {
			fmt.Println("task executed and uploaded")
			continue
		}
		if *once {
			return
		}
		time.Sleep(*poll)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amigo-me:", err)
	os.Exit(1)
}
