package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The end-to-end tests below drive real mfc-campaign processes — the
// binary under test is this test binary, re-executed through
// TestHelperMain — so kill -9 is a real signal to a real process, and
// every wait is a poll for something a child did, never a fixed delay.

// scale switches the kill -9 worker test to the 10k-site plan; `make
// campaign-scale-smoke` passes it, tier-1 does not.
var scale = flag.Bool("scale", false, "run TestWorkersKillNineByteIdentical over a 10k-site plan")

// TestHelperMain is not a test: it is mfc-campaign itself, entered by
// re-executing the test binary with the command line after "--". It runs
// the real main — flag parsing, exit codes and all — and exits without
// the test framework's PASS line, so stdout is the command's alone.
func TestHelperMain(t *testing.T) {
	args := flag.Args()
	if len(args) == 0 {
		t.Skip("helper process entry point; spawned by mfcCampaign")
	}
	os.Args = append([]string{"mfc-campaign"}, args...)
	main()
	os.Exit(0)
}

// command is one mfc-campaign invocation, not yet started.
func command(args ...string) *exec.Cmd {
	return exec.Command(os.Args[0], append([]string{"-test.run", "^TestHelperMain$", "--"}, args...)...)
}

// mfcCampaign runs one mfc-campaign invocation to completion and returns
// its stdout; a non-zero exit fails the test with the command's stderr.
func mfcCampaign(t *testing.T, args ...string) string {
	t.Helper()
	cmd := command(args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("mfc-campaign %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// The CLI's kill + resume determinism, through the real main: a plan run
// to completion and the same plan halted mid-way (`run -halt-after`) then
// resumed must report byte-identically — over a clean two-stage plan and
// over a scenario sweep halted inside the cells where fault timers are
// armed.
func TestHaltResumeReportByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name, halt string
		plan       []string
	}{
		{"clean", "15", []string{"-bands", "rank-1K-10K", "-stages", "base,query", "-sites", "40", "-seed", "7"}},
		{"chaos", "20", []string{"-bands", "rank-1K-10K", "-stages", "base",
			"-scenarios", "clean,lossy,flaky-link", "-sites", "15", "-seed", "7"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			clean, killed := t.TempDir(), t.TempDir()
			mfcCampaign(t, append([]string{"plan", "-dir", clean}, tc.plan...)...)
			if out := mfcCampaign(t, "run", "-dir", clean, "-quiet"); !strings.HasPrefix(out, "completed:") {
				t.Fatalf("uninterrupted run printed %q", out)
			}
			want := mfcCampaign(t, "report", "-dir", clean)

			mfcCampaign(t, append([]string{"plan", "-dir", killed}, tc.plan...)...)
			if out := mfcCampaign(t, "run", "-dir", killed, "-halt-after", tc.halt, "-quiet"); !strings.HasPrefix(out, "halted:") {
				t.Fatalf("run -halt-after %s printed %q", tc.halt, out)
			}
			if part := mfcCampaign(t, "report", "-dir", killed); !strings.Contains(part, "INCOMPLETE") {
				t.Fatalf("report of the halted campaign is not marked incomplete:\n%s", part)
			}
			if out := mfcCampaign(t, "resume", "-dir", killed, "-quiet"); !strings.HasPrefix(out, "completed:") {
				t.Fatalf("resume printed %q", out)
			}
			if got := mfcCampaign(t, "report", "-dir", killed); got != want {
				t.Errorf("halted + resumed report differs from the uninterrupted run:\n--- want\n%s\n--- got\n%s", want, got)
			}
		})
	}
}

// child is a long-lived mfc-campaign process: a worker or a server.
type child struct {
	cmd     *exec.Cmd
	stderr  bytes.Buffer  // what start captured; listen drains the pipe instead
	drained chan struct{} // closed once listen's stderr reader hit EOF
}

// start launches a child; if the test ends first, it is killed.
func start(t *testing.T, args ...string) *child {
	t.Helper()
	c := &child{cmd: command(args...)}
	c.cmd.Stderr = &c.stderr
	c.run(t)
	return c
}

func (c *child) run(t *testing.T) {
	t.Helper()
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.cmd.Process.Kill(); c.cmd.Wait() })
}

// listen launches a child that announces "<banner> http://ADDR/" on stderr
// — serve, or a worker with -metrics — and returns it with ADDR.
func listen(t *testing.T, banner string, args ...string) (*child, string) {
	t.Helper()
	c := &child{cmd: command(args...), drained: make(chan struct{})}
	pipe, err := c.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	c.run(t)
	lines := bufio.NewReader(pipe)
	for {
		line, err := lines.ReadString('\n')
		if addr, ok := strings.CutPrefix(line, banner+" http://"); ok {
			// Keep draining, so the child never blocks on a full pipe.
			go func() { io.Copy(io.Discard, lines); close(c.drained) }()
			return c, addr[:strings.Index(addr, "/")]
		}
		if err != nil {
			t.Fatalf("mfc-campaign %s exited without announcing %q: %v", strings.Join(args, " "), banner, err)
		}
	}
}

// wait waits for the child to exit cleanly.
func (c *child) wait(t *testing.T) {
	t.Helper()
	if c.drained != nil {
		<-c.drained // Wait closes the pipe: let its reader finish first
	}
	if err := c.cmd.Wait(); err != nil {
		t.Fatalf("%s: %v\n%s", strings.Join(c.cmd.Args, " "), err, c.stderr.String())
	}
}

// kill9 sends SIGKILL — no handler, no cleanup, no flush — and reaps.
func (c *child) kill9(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c.cmd.Wait()
}

// eventually polls cond, which watches something a child process does (a
// real process has no fake clock), until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// files counts the non-empty files matching a glob.
func files(t *testing.T, pattern string) int {
	t.Helper()
	names, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if st, err := os.Stat(name); err == nil && st.Size() > 0 {
			n++
		}
	}
	return n
}

// httpDo returns the body of one request to a child's listener.
func httpDo(t *testing.T, method, url string) string {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return string(body)
}

// metric reads one unlabelled series off a /metrics scrape.
func metric(t *testing.T, scrape, name string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(scrape)
	if m == nil {
		t.Fatalf("scrape has no %s series:\n%s", name, scrape)
	}
	var v int
	fmt.Sscan(m[1], &v)
	return v
}

// planned plans the same campaign into a fresh baseline dir, which it runs
// to completion in one process, and a fresh dir for the fleet under test.
func planned(t *testing.T, plan ...string) (base, dir string) {
	t.Helper()
	base, dir = t.TempDir(), t.TempDir()
	mfcCampaign(t, append([]string{"plan", "-dir", base}, plan...)...)
	mfcCampaign(t, "run", "-dir", base, "-quiet")
	mfcCampaign(t, append([]string{"plan", "-dir", dir}, plan...)...)
	return base, dir
}

// Three `work` processes share one plan over a shared dir; one is killed
// -9 mid-shard, holding a lease; the survivors (and a rescuer started
// afterwards) take its shards over, and the report must be byte-identical
// to the single-process run.
func TestWorkersKillNineByteIdentical(t *testing.T) {
	plan := []string{"-bands", "rank-1K-10K", "-stages", "base,query", "-sites", "100", "-seed", "11", "-shard-jobs", "16"}
	killAt := 1 // shard files holding records when the victim dies
	if *scale {
		// 20 shards at the default 512 ShardJobs: the victim dies once
		// every worker is into its second shard.
		plan = []string{"-bands", "rank-100K-1M", "-stages", "base", "-sites", "10000", "-seed", "3"}
		killAt = 6
	}
	base, dir := planned(t, plan...)
	var ws []*child
	for _, owner := range []string{"w1", "w2", "w3"} {
		ws = append(ws, start(t, "work", "-dir", dir, "-owner", owner, "-quiet", "-poll", "20ms"))
	}
	eventually(t, "the workers have stored records", func() bool {
		return files(t, filepath.Join(dir, "shards", "*")) >= killAt
	})
	ws[0].kill9(t)
	ws[1].wait(t)
	ws[2].wait(t)
	mfcCampaign(t, "work", "-dir", dir, "-owner", "rescuer", "-quiet")
	if got, want := mfcCampaign(t, "report", "-dir", dir), mfcCampaign(t, "report", "-dir", base); got != want {
		t.Errorf("multi-worker kill -9 + takeover report differs from the single-process run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// Three distributed workers share a plan; one serves the live dashboard
// with a post-campaign hold. Once /progress reports the whole store
// complete, the /metrics store counters must equal the totals in the
// merged report's header.
func TestMetricsMatchReportHeader(t *testing.T) {
	dir := t.TempDir()
	mfcCampaign(t, "plan", "-dir", dir, "-bands", "rank-1K-10K", "-stages", "base,query", "-sites", "60", "-seed", "13", "-shard-jobs", "16")
	w1 := start(t, "work", "-dir", dir, "-owner", "w1", "-quiet", "-poll", "20ms")
	w2 := start(t, "work", "-dir", dir, "-owner", "w2", "-quiet", "-poll", "20ms")
	w3, addr := listen(t, "serving metrics/dashboard on",
		"work", "-dir", dir, "-owner", "w3", "-quiet", "-poll", "20ms", "-metrics", "127.0.0.1:0", "-metrics-hold", "120s")
	w1.wait(t)
	w2.wait(t)
	eventually(t, "/progress reports 120 stored jobs", func() bool {
		var doc struct {
			StoreDone int `json:"store_done"`
		}
		json.Unmarshal([]byte(httpDo(t, "GET", "http://"+addr+"/progress")), &doc)
		return doc.StoreDone == 120
	})
	scrape := httpDo(t, "GET", "http://"+addr+"/metrics")
	httpDo(t, "POST", "http://"+addr+"/quit")
	w3.wait(t)

	header := regexp.MustCompile(`= (\d+) jobs, (\d+) done`).FindStringSubmatch(mfcCampaign(t, "report", "-dir", dir))
	if header == nil {
		t.Fatal("report has no totals header")
	}
	total, done := metric(t, scrape, "mfc_campaign_store_jobs_total"), metric(t, scrape, "mfc_campaign_store_jobs_done")
	if fmt.Sprint(total) != header[1] || fmt.Sprint(done) != header[2] {
		t.Errorf("metrics drift: /metrics store %d/%d vs report header %s/%s", done, total, header[2], header[1])
	}
	// The per-run event bridge sees the same terminal events as the tracker.
	if finished, session := metric(t, scrape, "mfc_run_experiments_finished_total"), metric(t, scrape, "mfc_campaign_jobs_done_session"); finished != session {
		t.Errorf("metrics drift: mfc_run_experiments_finished_total %d vs mfc_campaign_jobs_done_session %d", finished, session)
	}
}

// served starts a control plane over dir and three workers joined to it
// over plain HTTP — no shared filesystem: they know only the address.
func served(t *testing.T, dir string, serveFlags ...string) (srv *child, addr string, ws []*child) {
	t.Helper()
	srv, addr = listen(t, "campaign control plane on",
		append([]string{"serve", "-dir", dir, "-listen", "127.0.0.1:0"}, serveFlags...)...)
	for _, owner := range []string{"w1", "w2", "w3"} {
		ws = append(ws, start(t, "work", "-join", addr, "-owner", owner, "-quiet", "-poll", "20ms"))
	}
	return srv, addr, ws
}

// finish waits for the surviving workers, checks the control plane reports
// completion, and shuts it down through POST /quit.
func finish(t *testing.T, srv *child, addr string, survivors ...*child) {
	t.Helper()
	for _, w := range survivors {
		w.wait(t)
	}
	if status := httpDo(t, "GET", "http://"+addr+"/api/status"); !strings.Contains(status, `"complete":true`) {
		t.Errorf("control plane does not report completion: %s", status)
	}
	httpDo(t, "POST", "http://"+addr+"/quit")
	srv.wait(t)
}

// A control plane owns the plan and the store, three workers join it, one
// is killed -9 mid-shard; after the grant TTL its shard is re-granted to a
// survivor under a bumped fence token (in memory: the served dir's leases
// hold only the store's lease), and both the merged report and the deep
// analytics document must be byte-identical to the single-process run's.
func TestServeKillNineByteIdentical(t *testing.T) {
	base, dir := planned(t, "-bands", "rank-1K-10K", "-stages", "base,query", "-sites", "100", "-seed", "17", "-shard-jobs", "16")
	srv, addr, ws := served(t, dir, "-ttl", "300ms")
	eventually(t, "records are ingested", func() bool { return files(t, filepath.Join(dir, "shards", "*")) > 0 })
	ws[0].kill9(t)
	ws[1].wait(t)
	ws[2].wait(t)
	leases, err := filepath.Glob(filepath.Join(dir, "leases", "*.lease"))
	if err != nil || len(leases) != 1 || filepath.Base(leases[0]) != "store.g1.lease" {
		t.Errorf("served dir holds lease files %v (%v), want only the store's", leases, err)
	}
	finish(t, srv, addr)
	if got, want := mfcCampaign(t, "report", "-dir", dir), mfcCampaign(t, "report", "-dir", base); got != want {
		t.Errorf("networked kill -9 + re-grant report differs from the single-process run:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if got, want := mfcCampaign(t, "analyze", "-dir", dir, "-json"), mfcCampaign(t, "analyze", "-dir", base, "-json"); got != want {
		t.Errorf("kill -9 store analytics document differs from the single-process run's")
	}
}

// A control plane with a tight TTL and straggler threshold, three joined
// workers shipping wall-clock spans over HTTP, one killed -9 mid-shard.
// The straggler gauge must fire while the orphaned shard outlives k x the
// median completed-shard duration, the campaign must still complete, and
// the merged Chrome trace must carry all three workers' process tracks.
func TestFleetTraceKillNine(t *testing.T) {
	dir := t.TempDir()
	mfcCampaign(t, "plan", "-dir", dir, "-bands", "rank-1K-10K", "-stages", "base,query", "-sites", "100", "-seed", "19", "-shard-jobs", "8")
	srv, addr, ws := served(t, dir, "-ttl", "1s", "-straggler", "2")
	eventually(t, "w1's first spans reach the control plane", func() bool {
		return files(t, filepath.Join(dir, "spans", "spans-w1.jsonl")) == 1
	})
	ws[0].kill9(t)
	eventually(t, "the straggler gauge fires", func() bool {
		return metric(t, httpDo(t, "GET", "http://"+addr+"/metrics"), "mfc_campaign_straggler_shards") >= 1
	})
	finish(t, srv, addr, ws[1], ws[2])

	out := filepath.Join(t.TempDir(), "trace.json")
	if summary := mfcCampaign(t, "trace", "-dir", dir, "-out", out); !strings.Contains(summary, "from 3 workers") {
		t.Errorf("trace summary %q does not count 3 workers", summary)
	}
	trace, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace, []byte(`"traceEvents"`)) || bytes.Count(trace, []byte(`"process_name"`)) != 3 {
		t.Errorf("merged trace does not carry exactly 3 worker tracks")
	}
}
