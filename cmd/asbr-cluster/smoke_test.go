package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"asbr/internal/experiment"
	"asbr/internal/serve"
	"asbr/internal/serve/client"
)

// TestClusterSmoke is the end-to-end fault-tolerance check behind
// `make cluster-smoke`: build the real binaries, boot three worker
// daemons, start a distributed fig6+fig11 sweep, SIGKILL a worker that
// still has cells in flight, and require (a) the coordinator marks it
// dead and rebalances its key ranges, (b) the run completes without
// degradation, and (c) the merged tables are byte-identical to the
// same request answered by a single daemon.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes and runs real sweeps")
	}
	dir := t.TempDir()
	serveBin := filepath.Join(dir, "asbr-serve")
	clusterBin := filepath.Join(dir, "asbr-cluster")
	for bin, pkg := range map[string]string{serveBin: "asbr/cmd/asbr-serve", clusterBin: "asbr/cmd/asbr-cluster"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	// Boot the fleet.
	const fleetSize = 3
	addrs := make([]string, fleetSize)
	procs := make(map[string]*exec.Cmd, fleetSize)
	for i := 0; i < fleetSize; i++ {
		addrFile := filepath.Join(dir, "addr"+string(rune('0'+i)))
		cmd := exec.Command(serveBin,
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-worker-id", "w"+string(rune('0'+i)), "-queue", "32")
		cmd.Stderr = io.Discard
		cmd.Stdout = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		})
		addrs[i] = awaitWorkerAddr(t, addrFile)
		procs[addrs[i]] = cmd
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Ground truth: the identical request on one daemon, via the same
	// normalization path the cluster cells take.
	req := serve.SweepRequest{Tables: []string{"fig6", "fig11"}, Samples: 1024}
	want, err := client.New(addrs[0]).Sweep(ctx, req)
	if err != nil {
		t.Fatalf("single-process sweep: %v", err)
	}
	if want.HasErrors() {
		t.Fatalf("single-process sweep carries errors: %v", want.Errors)
	}

	// Launch the coordinator and watch its stderr: once at least one
	// cell has completed, the worker with the most cells in flight is
	// the SIGKILL target — guaranteed mid-sweep. A worker with a single
	// short cell in flight can finish it before the kill lands, and
	// then the coordinator never needs it again.
	cluster := exec.Command(clusterBin,
		"-workers", strings.Join(addrs, ","),
		"-tables", "fig6,fig11", "-n", "1024")
	var stdout bytes.Buffer
	cluster.Stdout = &stdout
	stderrPipe, err := cluster.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatalf("start coordinator: %v", err)
	}

	dispatchRe := regexp.MustCompile(`dispatch (\S+)/(\S+) -> (\S+) \(attempt`)
	doneRe := regexp.MustCompile(`cell .* done: table=(\S+) bench=(\S+) worker=`)
	victimCh := make(chan string, 1)
	var logMu sync.Mutex
	var clusterLog strings.Builder
	go func() {
		inFlight := make(map[string]string) // "table/bench" -> worker
		completions := 0
		chosen := false
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			clusterLog.WriteString(line + "\n")
			logMu.Unlock()
			if m := dispatchRe.FindStringSubmatch(line); m != nil {
				inFlight[m[1]+"/"+m[2]] = m[3]
			}
			if m := doneRe.FindStringSubmatch(line); m != nil {
				delete(inFlight, m[1]+"/"+m[2])
				completions++
			}
			if !chosen && completions >= 1 && len(inFlight) > 0 {
				load := make(map[string]int)
				for _, worker := range inFlight {
					load[worker]++
				}
				victim := ""
				for worker, n := range load {
					if n > load[victim] || n == load[victim] && worker < victim {
						victim = worker
					}
				}
				victimCh <- victim
				chosen = true
			}
		}
		close(victimCh)
	}()

	victim, ok := <-victimCh
	if !ok || victim == "" {
		cluster.Process.Kill() //nolint:errcheck
		cluster.Wait()         //nolint:errcheck
		t.Fatalf("never found a worker with in-flight cells; log:\n%s", snapshotLog(&logMu, &clusterLog))
	}
	if err := procs[victim].Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatalf("kill %s: %v", victim, err)
	}
	t.Logf("killed worker %s mid-sweep", victim)

	if err := cluster.Wait(); err != nil {
		t.Fatalf("coordinator failed (partial or degraded run): %v\nlog:\n%s", err, snapshotLog(&logMu, &clusterLog))
	}
	log := snapshotLog(&logMu, &clusterLog)
	if !strings.Contains(log, "worker "+victim+" marked dead") {
		t.Errorf("coordinator never marked %s dead; log:\n%s", victim, log)
	}
	if !strings.Contains(log, "rebalancing") {
		t.Errorf("coordinator log missing rebalance notice:\n%s", log)
	}

	// The merged output must be byte-identical to the single-process
	// run despite the mid-sweep worker loss.
	var got experiment.TablesJSON
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("decode coordinator stdout: %v\n%s", err, stdout.String())
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(&got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("distributed tables diverged from single-process run\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	if len(got.Fig6) == 0 || len(got.Fig11) == 0 {
		t.Errorf("merged tables incomplete: fig6=%d fig11=%d", len(got.Fig6), len(got.Fig11))
	}
}

func snapshotLog(mu *sync.Mutex, b *strings.Builder) string {
	mu.Lock()
	defer mu.Unlock()
	return b.String()
}

// awaitWorkerAddr waits for a worker daemon to publish its bound
// address.
func awaitWorkerAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return string(b)
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never wrote its address file")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
